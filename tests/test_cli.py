"""Command line surface: exit codes, JSON mode, sample output files."""

import csv
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from pdegensol import cli
from pdegensol.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "3.1" in out and "7.2" in out
    assert len(out.strip().splitlines()) >= 26  # header + 25 rows


def test_show_prints_equation(capsys):
    assert main(["show", "3.4"]) == 0
    out = capsys.readouterr().out
    assert "w_tx" in out
    assert "solution" in out.lower()


def test_unknown_family_exit_2(capsys):
    assert main(["show", "9.9"]) == 2
    assert main(["verify", "9.9"]) == 2


def test_verify_pass_exit_0(capsys):
    rc = main(["verify", "3.1", "--scenarios", "1", "--points", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_json_mode(capsys):
    rc = main(["verify", "3.1", "3.4", "--scenarios", "1", "--points", "4",
               "--json"])
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["family"] for r in reports] == ["3.1", "3.4"]
    assert all(r["verdict"] == "PASS" for r in reports)


def test_unevaluable_scenario_states_its_cause(capsys):
    # shifted 5 from the box, 3.3's integrals do not converge at the drawn
    # points, and resampling cannot help: the row and the note say so
    argv = ["verify", "3.3", "--base-shift", "5", "--scenarios", "1",
            "--points", "3"]
    assert main(argv) == 3
    note = ("scenario 0: 3 point(s) unevaluable after resampling"
            " (causes: quad)")
    assert f"note: {note}" in capsys.readouterr().out
    assert main(argv + ["--json"]) == 3
    rep = json.loads(capsys.readouterr().out)[0]
    assert rep["verdict"] == "INDETERMINATE" and rep["notes"] == [note]
    row = rep["scenarios"][0]
    assert row["status"] == "eval_incomplete" and row["causes"] == ["quad"]


def test_verify_set_override(capsys):
    rc = main(["verify", "3.1", "--scenarios", "1", "--points", "4",
               "--set", "c=0", "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)[0]
    assert rep["scenarios"][0]["parameters"]["c"] == 0.0


def test_verify_bad_override_exit_4(capsys):
    assert main(["verify", "3.1", "--set", "nonsense"]) == 4


def test_verify_override_twice_exit_4(capsys):
    assert main(["verify", "3.1", "--set", "b=1", "--set", "b=2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --set gives 'b' twice\n"


@pytest.mark.parametrize("argv", [["verify", "3.1", "--seed", "-5"],
                                  ["sample", "3.1", "--seed", "-5"]])
def test_negative_seed_exit_4(capsys, argv):
    # numpy takes no negative seed: the error names it, before any draw
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be >= 0, got -5\n"


@pytest.mark.parametrize("flag,count", [("--scenarios", "scenario count"),
                                        ("--points", "point count")])
def test_verify_zero_count_exit_4(capsys, flag, count):
    # no scenario or no point is no evidence: an error, not a PASS
    assert main(["verify", "3.1", flag, "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {count} must be at least 1, got 0\n"


def test_verify_all_token_and_json_file(tmp_path, monkeypatch):
    import pdegensol.verifier as verifier
    from pdegensol.catalog import family_ids

    seen = []

    class Stub:
        verdict = "PASS"

        def __init__(self, fid):
            self.family = fid

        def to_dict(self):
            return {"family": self.family, "verdict": "PASS"}

    def fake_verify(fid, **kw):
        seen.append(fid)
        return Stub(fid)

    monkeypatch.setattr(verifier, "verify_family", fake_verify)
    out = tmp_path / "reports.json"
    rc = main(["verify", "all", "--json", str(out)])
    assert rc == 0
    assert sorted(seen) == sorted(family_ids())
    reports = json.loads(out.read_text())
    assert [r["family"] for r in reports] == family_ids()


def test_verify_tol_is_no_option(capsys):
    # every verdict is decided at the family's registered tolerance
    with pytest.raises(SystemExit) as exc:
        main(["verify", "3.1", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_verify_unknown_param_exit_4(capsys, monkeypatch):
    # 3.1 has b, 3.2 has not: the check covers every listed family before
    # the first one runs
    import pdegensol.verifier as verifier

    ran = []
    monkeypatch.setattr(verifier, "verify_family",
                        lambda fid, **kw: ran.append(fid))
    for argv in (["3.1", "--set", "C=0"], ["3.1", "3.2", "--set", "b=0.5"]):
        assert main(["verify", *argv, "--scenarios", "1", "--points", "2",
                     "--json"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "has no parameter" in err
    assert ran == []


def test_verify_summary_skips_reports_without_numbers(capsys, monkeypatch):
    import pdegensol.verifier as verifier

    rels = {"3.1": float("nan"), "3.2": 2e-9, "3.4": float("nan")}

    class Stub:
        verdict = "PASS"
        xcheck_max_dev = 0.0
        wall_time_s = 0.0
        notes = []
        branch_probe = None

        def __init__(self, fid):
            self.family = fid
            self.max_rel_residual = rels[fid]

    monkeypatch.setattr(verifier, "verify_family", lambda fid, **kw: Stub(fid))
    assert main(["verify", *rels]) == 0
    assert "worst rel 2.00e-09" in capsys.readouterr().out.splitlines()[-1]


def test_sample_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["sample", "3.4", "--grid", "t=0.3:0.6:3",
               "--grid", "x=0.4:0.8:4", "-o", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "w"]
    assert len(rows) == 1 + 3 * 4
    assert float(rows[1][0]) == pytest.approx(0.3)
    side = out.with_suffix(".scenario.json")
    meta = json.loads(side.read_text())
    assert meta["family"] == "3.4"
    assert "parameters" in meta and "functions" in meta


def test_sample_stdout_header(capsys):
    rc = main(["sample", "3.1", "--grid", "t=0.4:0.6:2",
               "--grid", "x=0.4:0.6:2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# scenario:")
    json.loads(lines[0][len("# scenario:"):])
    assert lines[1] == "t,x,w"
    assert len(lines) == 2 + 4


def test_sample_bad_grid_exit_4(capsys):
    assert main(["sample", "3.1", "--grid", "t=oops"]) == 4


@pytest.mark.parametrize("spec", ["t=0.2:inf:2", "t=nan:1.2:2",
                                  "t=-inf:1.2:2"])
def test_sample_nonfinite_grid_limit_exit_4(capsys, spec):
    assert main(["sample", "3.1", "--grid", spec]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad --grid {spec!r}, limits must be finite\n"


def test_sample_grid_variable_twice_exit_4(capsys):
    assert main(["sample", "3.1", "--grid", "t=0.2:0.4:2",
                 "--grid", "t=0.6:0.8:2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --grid gives 't' twice\n"


@pytest.mark.parametrize("argv,message", [
    (["--set", "b=nan"], "parameter b must be finite, got nan"),
    (["--set", "b=inf"], "parameter b must be finite, got inf"),
    (["--base-shift", "nan"], "base shift must be finite, got nan"),
])
def test_verify_nonfinite_input_exit_4(capsys, monkeypatch, argv, message):
    # no admissible scenario can be drawn from a non-finite input: an error
    # before any scenario is drawn, not 50 draws and an INDETERMINATE
    import pdegensol.verifier as verifier

    def no_draw(*a, **kw):
        raise AssertionError("drew a scenario")

    monkeypatch.setattr(verifier, "draw_scenario", no_draw)
    assert main(["verify", "3.1", "3.7", *argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def _no_work(*a, **kw):
    raise AssertionError("worked before checking the output path")


def test_verify_missing_json_dir_exit_4_before_any_work(tmp_path, capsys,
                                                        monkeypatch):
    # a missing directory is found before a family runs, not after all do
    import pdegensol.verifier as verifier

    monkeypatch.setattr(verifier, "verify_family", _no_work)
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "4.4", "3.7", "--json", str(out)]) == 4
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == (f"error: output directory {str(out.parent)!r} "
                   "does not exist\n")


def test_sample_missing_out_dir_exit_4_before_any_work(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "solution_values", _no_work)
    out = tmp_path / "missing" / "grid.csv"
    assert main(["sample", "3.8", "-o", str(out)]) == 4
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == (f"error: output directory {str(out.parent)!r} "
                   "does not exist\n")


def test_verify_json_path_a_directory_exit_4_before_any_work(
        tmp_path, capsys, monkeypatch):
    import pdegensol.verifier as verifier

    monkeypatch.setattr(verifier, "verify_family", _no_work)
    assert main(["verify", "4.4", "--scenarios", "1", "--points", "4",
                 "--json", str(tmp_path)]) == 4
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: output path {str(tmp_path)!r} is a directory\n"


@pytest.mark.parametrize("name", ["grid.csv", "grid.scenario.json"])
def test_sample_out_path_a_directory_exit_4_before_any_work(
        tmp_path, capsys, monkeypatch, name):
    # the CSV path, or the sidecar path derived from it, is a directory
    monkeypatch.setattr(cli, "solution_values", _no_work)
    (tmp_path / name).mkdir()
    assert main(["sample", "4.4", "--grid", "t=0.2:1.2:6", "--grid",
                 "x=0.2:1.2:6", "-o", str(tmp_path / "grid.csv")]) == 4
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == (f"error: output path {str(tmp_path / name)!r} "
                   "is a directory\n")


def _sample_stdout(prelude):
    argv = ["sample", "3.8", "--grid", "t=0.2:1.2:3", "--grid",
            "x=0.2:1.2:3", "--seed", "1"]
    code = (f"import sys; from pdegensol import cli; {prelude}; "
            f"sys.exit(cli.main({argv!r}))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sample_bits_do_not_depend_on_allocator_policy():
    # the policy moves where blocks are allocated, never a bit of output;
    # each side in a fresh interpreter, as a command-line run is
    kept = _sample_stdout("pass")
    plain = _sample_stdout("cli._keep_freed_memory = lambda: None")
    assert kept.count(b"\n") == 1 + 1 + 9
    assert kept == plain


def test_libc_without_mallopt_is_a_no_op(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_libc", lambda: types.SimpleNamespace())
    assert main(["list"]) == 0
    monkeypatch.setattr(cli, "_libc", lambda: None)
    assert main(["list"]) == 0


def test_eval_error_exit_4(capsys, monkeypatch):
    # an EvalError (here the nesting limit, below 4.4's depth of 5) is an
    # error message and exit code 4, not a traceback
    from pdegensol.numeric import engine

    monkeypatch.setattr(engine, "NEST_LIMIT", 3)
    assert main(["sample", "4.4", "--grid", "t=0.4:0.6:2",
                 "--grid", "x=0.4:0.6:2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature nesting deeper than 3")
    assert "Traceback" not in err
