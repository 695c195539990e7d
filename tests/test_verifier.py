"""Scenario sampling, residual plumbing, and report semantics.

These use few scenarios and points; the acceptance suite runs the full
production settings.
"""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest

import pdegensol.verifier as verifier
from pdegensol.catalog import (_build_family, _parse_records, family_ids,
                               get_family)
from pdegensol.numeric import IndexSet, NestLimitExceeded, SamplingExhausted
from pdegensol.numeric import engine
from pdegensol.verifier import (
    CFG,
    DEFAULT_TOL_REL,
    FAMILY_TOL,
    HINTS,
    FuncSpec,
    SamplingHints,
    Scenario,
    VerificationReport,
    _negate_seeds,
    _probe_alternate_branch,
    _stencil,
    _verdict,
    crosscheck_derivatives,
    draw_function,
    draw_scenario,
    scenario_residuals,
    verify_catalog,
    verify_family,
)


def test_draw_function_deterministic():
    r1 = np.random.default_rng(42)
    r2 = np.random.default_rng(42)
    spec = FuncSpec(2, 0.2, (0.5, 1.0), slope=(0.3, 0.6), sin_amp=0.1)
    f1 = draw_function(r1, "F", 1, spec)
    f2 = draw_function(r2, "F", 1, spec)
    assert f1 == f2
    assert dict(f1.coeffs)[(1,)] >= 0.3  # forced slope range


def test_draw_scenario_respects_hints():
    fam = get_family("3.5")
    rng = np.random.default_rng(7)
    scn = draw_scenario(fam, rng, 6)
    p = scn.parameters
    assert 0.7 <= p["a"] <= 1.1
    assert p["b"] ** 2 - 4 * p["a"] * p["k"] >= 0.05
    assert scn.points.shape == (6, 2)
    assert set(scn.functions) == {"F", "G"}
    assert set(scn.base_points) == set(fam.base_names)


def test_draw_scenario_exhaustion(monkeypatch):
    fam = get_family("3.1")
    rng = np.random.default_rng(0)
    impossible = dataclasses.replace(HINTS["3.1"], admissible=lambda p: False)
    monkeypatch.setitem(HINTS, "3.1", impossible)
    with pytest.raises(SamplingExhausted):
        draw_scenario(fam, rng, 4)


def test_residual_pass_lets_eval_errors_through(monkeypatch):
    # a nesting limit below 4.4's depth is no property of the scenario, so
    # the residual pass does not resample: the error reaches the caller
    monkeypatch.setattr(engine, "NEST_LIMIT", 3)
    with pytest.raises(NestLimitExceeded) as exc:
        verify_family("4.4", n_scenarios=1, n_points=2)
    assert "scenario_residuals" in {entry.name for entry in exc.traceback}


def test_draw_scenario_evaluates_nothing(monkeypatch):
    # a draw only draws: a point the solution cannot be evaluated at is
    # the residual pass's to resample
    def no_eval(*a, **kw):
        raise AssertionError("evaluated during a draw")

    monkeypatch.setattr(verifier, "solution_values", no_eval)
    monkeypatch.setattr(verifier, "eval_batch", no_eval)
    fam = get_family("4.4")
    scn = draw_scenario(fam, verifier._scenario_rng(1, "4.4", 0), 6)
    assert scn.points.shape == (6, 2)
    assert scn.sampling_attempts == 1


def test_scenario_residuals_resamples_bad_points():
    fam = get_family("3.6")
    rng = np.random.default_rng(3)
    scn = draw_scenario(fam, rng, 6)
    # t = -80 drives this family's inner exponential out of range, which
    # poisons that column; the resample loop must swap the point out
    scn.points[2] = (-80.0, 0.5)
    rel, data, iset, resampled, _ = scenario_residuals(fam, scn, rng)
    assert np.isfinite(rel).all()
    assert resampled >= 1
    # the sabotaged row was replaced inside the box
    assert 0.2 <= scn.points[2][0] <= 1.2


def test_residuals_tiny_for_valid_family():
    fam = get_family("3.4")
    rng = np.random.default_rng(11)
    scn = draw_scenario(fam, rng, 8)
    rel, data, iset, _, _ = scenario_residuals(fam, scn, rng)
    assert float(np.max(rel)) < 1e-10


def test_crosscheck_catches_wrong_jet():
    fam = get_family("3.4")
    rng = np.random.default_rng(5)
    scn = draw_scenario(fam, rng, 4)
    rel, data, iset, _, _ = scenario_residuals(fam, scn, rng)
    dev = crosscheck_derivatives(fam, scn, data, iset, np.arange(2))
    assert dev < 1e-5
    # corrupt one derivative row: the check must notice
    broken = data.copy()
    broken[iset.pos[(1, 0)]] += 0.37
    dev2 = crosscheck_derivatives(fam, scn, broken, iset, np.arange(2))
    assert dev2 > 0.05


@pytest.mark.parametrize("fid", ["4.3", "4.4"])
def test_crosscheck_evaluates_deep_solutions_in_residual_batches(
        monkeypatch, fid):
    # the difference quotients of a solution 4 or more integrals deep go
    # into the engine DEEP_BATCH columns at a time, as the residual pass's
    # points do.  A stand-in w = exp(c . v) has exact jets, so the
    # quotients agree with them only if every stencil column was evaluated
    # once and came back in its place
    fam = get_family(fid)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    c = np.array([0.7, -0.4])
    pts = np.array([[0.5, 0.8], [0.9, 0.3]])
    jets = np.zeros((iset.K, len(pts)))
    for mi, row in iset.pos.items():
        jets[row] = np.prod(c ** np.array(mi)) * np.exp(pts @ c)
    rows = []

    def spy(fam, scn, p, *a, **kw):
        rows.append(len(p))
        return np.exp(p @ c)

    monkeypatch.setattr(verifier, "solution_values", spy)
    scn = Scenario({}, {}, {}, pts)
    dev = crosscheck_derivatives(fam, scn, jets, iset, np.arange(2))
    alphas = {mi for mi in fam.deriv_orders.values() if sum(mi) > 0}
    assert max(rows) <= 5
    assert sum(rows) == len(pts) * sum(2 * len(_stencil(a)[0])
                                       for a in alphas)
    assert dev < 1e-6


def assert_verdict_recomputes(r):
    """_verdict on the report's JSON rows gives its verdict and its verdict
    note, the note after one note per row that was not evaluated."""
    rows = json.loads(r.to_json())["scenarios"]
    verdict, note = _verdict(rows, r.tol_rel)
    assert verdict == r.verdict
    n_row_notes = sum(row["status"] != "ok" for row in rows)
    assert r.notes[n_row_notes:] == ([] if note is None else [note])


def _row(rel, dev, status="ok"):
    return {"status": status, "max_rel_residual": rel, "xcheck_max_dev": dev}


_SUSPECT = ("residual exceeded tolerance but the derivative cross-check "
            "also disagreed; evaluator suspect")


@pytest.mark.parametrize("rows, verdict, note", [
    ([_row(1e-9, 1e-6), {"index": 1, "status": "sampling_exhausted"}],
     "INDETERMINATE", None),
    ([_row(1e-9, 1e-6), {"status": "eval_incomplete"}],
     "INDETERMINATE", None),
    ([_row(1e-9, 1e-6), _row(0.3, 1e-4)], "FAIL", None),
    ([_row(0.3, 1e-6), _row(0.3, 2e-4)], "INDETERMINATE", _SUSPECT),
    # a null (non-finite) deviation on a failing row never confirms it
    ([_row(0.3, None), _row(1e-9, 1e-6)], "INDETERMINATE", _SUSPECT),
    # a deviating row that passes does not stop the failing one's FAIL
    ([_row(0.3, 1e-6), _row(1e-9, 2e-4)], "FAIL", None),
    ([_row(1e-9, 1e-6), _row(1e-6, 2e-4)], "INDETERMINATE",
     "residuals in tolerance but derivative cross-check deviates "
     "(2.00e-04 > 0.0001)"),
    ([_row(1e-9, None)], "INDETERMINATE",
     "residuals in tolerance but derivative cross-check deviates "
     "(inf > 0.0001)"),
    ([_row(1e-9, 1e-6), _row(1e-6, 1e-4)], "PASS", None),
])
def test_verdict_rules(rows, verdict, note):
    assert _verdict(rows, DEFAULT_TOL_REL) == (verdict, note)


def test_verify_family_pass_and_report_shape():
    r = verify_family("3.6", n_scenarios=2, n_points=6, seed=5)
    assert r.verdict == "PASS"
    assert r.max_rel_residual < 1e-8
    d = r.to_dict()
    assert d["family"] == "3.6"
    assert len(d["scenarios"]) == 2
    assert all(s["status"] == "ok" for s in d["scenarios"])
    assert "wall_time_s" not in json.loads(r.to_json())
    assert r.wall_time_s > 0
    assert_verdict_recomputes(r)


def test_verify_family_accepts_family_object():
    fam = get_family("3.1")
    r = verify_family(fam, n_scenarios=1, n_points=4)
    assert r.family == "3.1"
    assert r.verdict == "PASS"


def test_verify_json_deterministic():
    a = verify_family("3.2", n_scenarios=2, n_points=6, seed=7).to_json()
    b = verify_family("3.2", n_scenarios=2, n_points=6, seed=7).to_json()
    assert a == b
    c = verify_family("3.2", n_scenarios=2, n_points=6, seed=8).to_json()
    assert a != c


@pytest.mark.parametrize("fid", family_ids())
def test_wrong_solution_fails_with_confirmed_crosscheck(fid):
    # verify each family with its stored solution broken on purpose: clone
    # the family record with v^2/50 added, v its last variable (3.7 and
    # 4.4, the slowest, at 2 points)
    import copy

    fam = copy.copy(get_family(fid))
    from pdegensol.expr_core import Env, parse

    env = Env(variables=fam.variables, parameters=fam.parameters,
              functions=fam.functions)
    fam.solution = parse(f"({fam.sol_text}) + {fam.variables[-1]}^2/50",
                         env)
    n_points = 2 if fid in ("3.7", "4.4") else 6
    r = verify_family(fam, n_scenarios=1, n_points=n_points, seed=1)
    assert r.verdict == "FAIL"
    assert r.max_rel_residual > 1e-4
    # cross-check still fine: the jet evaluator is not at fault
    assert r.xcheck_max_dev <= r.xcheck_tol
    assert_verdict_recomputes(r)


def test_fail_needs_crosscheck_at_the_failing_point(monkeypatch):
    # a jet that is wrong at point 3 only: the residual fails there while
    # the cross-check at points 0 and 1 agrees, so only a cross-check at
    # the failing point can tell that the evaluator, not the solution, is
    # at fault
    real = verifier._eval_rel

    def wrong_at_3(fam, scn, pts, solution=None):
        rel, data, iset, kinds = real(fam, scn, pts, solution)
        for mi, row in iset.pos.items():
            if sum(mi):
                data[row, 3] += 1.0
        rel[3] = 0.5
        return rel, data, iset, kinds

    monkeypatch.setattr(verifier, "_eval_rel", wrong_at_3)
    r = verify_family("3.1", n_scenarios=1, n_points=6, seed=1)
    assert r.verdict == "INDETERMINATE"
    assert any("evaluator suspect" in n for n in r.notes)
    assert r.xcheck_max_dev > r.xcheck_tol
    assert r.scenarios[0]["xcheck_max_dev"] > r.xcheck_tol
    # the row names the point that failed, where and by how much
    (fp,) = r.scenarios[0]["failing_points"]
    assert fp["index"] == 3 and fp["rel_residual"] == 0.5
    assert list(fp["point"]) == list(get_family("3.1").variables)
    assert all(0.0 < v < 2.0 for v in fp["point"].values())
    assert_verdict_recomputes(r)


def test_crosscheck_deviation_alone_is_indeterminate(monkeypatch):
    # residuals in tolerance, but jets that disagree with the difference
    # quotients leave the evaluator suspect: no PASS
    monkeypatch.setattr(verifier, "crosscheck_derivatives", lambda *a: 2e-4)
    r = verify_family("3.1", n_scenarios=1, n_points=4, seed=1)
    assert r.max_rel_residual <= r.tol_rel
    assert r.verdict == "INDETERMINATE"
    assert r.notes == ["residuals in tolerance but derivative cross-check "
                       "deviates (2.00e-04 > 0.0001)"]


def test_nonfinite_shifted_value_fails_the_crosscheck(monkeypatch):
    # one difference-quotient sample outside the domain: the cross-check
    # cannot agree, so its deviation is infinite (JSON null), never 0
    real = verifier.solution_values

    def hole(fam, scn, pts):
        # within verify_family only the cross-check calls solution_values
        w = real(fam, scn, pts)
        w[0] = np.nan
        return w

    monkeypatch.setattr(verifier, "solution_values", hole)
    r = verify_family("3.1", n_scenarios=1, n_points=4, seed=1)
    assert r.max_rel_residual <= r.tol_rel
    assert r.xcheck_max_dev == float("inf")
    assert r.verdict == "INDETERMINATE"
    d = json.loads(r.to_json())
    assert d["scenarios"][0]["xcheck_max_dev"] is None
    assert d["xcheck_max_dev"] is None


def test_registered_tolerances_clear_numeric_floor():
    # a residual excess is attributable to the solution only well above the
    # numeric floor (100x the quadrature tolerance), so a FAIL verdict
    # needs every registered tolerance at least 10x above that floor
    floor = 100.0 * CFG.quad_rel_tol
    for tol in [DEFAULT_TOL_REL, *FAMILY_TOL.values()]:
        assert tol >= 10.0 * floor


def test_param_overrides_pin_values():
    r = verify_family("3.1", n_scenarios=1, n_points=4,
                      param_overrides={"c": 0.0})
    assert r.verdict == "PASS"
    assert r.scenarios[0]["parameters"]["c"] == 0.0


def test_unknown_override_rejected_before_any_work(monkeypatch):
    # "C" is no parameter of 3.1 (its c is): pinning it would leave c
    # random and list a bogus "C" in the report
    def no_draw(*a, **kw):
        raise AssertionError("drew a scenario")

    monkeypatch.setattr(verifier, "draw_scenario", no_draw)
    with pytest.raises(ValueError, match=r"3\.1 has no parameter C; "
                                         r"its parameters: b, c"):
        verify_family("3.1", n_scenarios=1, n_points=2,
                      param_overrides={"C": 0.0})


@pytest.mark.parametrize("kw,message", [
    ({"param_overrides": {"b": math.nan}}, "parameter b must be finite"),
    ({"param_overrides": {"b": -math.inf}}, "parameter b must be finite"),
    ({"base_shift": math.inf}, "base shift must be finite"),
])
def test_nonfinite_input_rejected_before_any_work(monkeypatch, kw, message):
    # a NaN or infinite parameter or base point admits no scenario
    def no_draw(*a, **kw):
        raise AssertionError("drew a scenario")

    monkeypatch.setattr(verifier, "draw_scenario", no_draw)
    with pytest.raises(ValueError, match=message):
        verify_family("3.1", n_scenarios=1, n_points=2, **kw)


def test_negative_seed_rejected_before_any_work(monkeypatch):
    # a seed numpy cannot take: named in the error, before any draw
    def no_draw(*a, **kw):
        raise AssertionError("drew a scenario")

    monkeypatch.setattr(verifier, "draw_scenario", no_draw)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        verify_family("3.1", n_scenarios=1, n_points=2, seed=-1)


def _unevaluable(real):
    def every_point_nan(*a, **kw):
        rel, data, iset, kinds = real(*a, **kw)
        return np.full_like(rel, np.nan), data, iset, kinds
    return every_point_nan


@pytest.mark.parametrize("how", ["sampling_exhausted", "eval_incomplete"])
def test_no_evaluated_scenario_reports_no_numbers(monkeypatch, how):
    if how == "sampling_exhausted":
        monkeypatch.setitem(HINTS, "3.1", dataclasses.replace(
            HINTS["3.1"], admissible=lambda p: False))
    else:
        monkeypatch.setattr(verifier, "_eval_rel",
                            _unevaluable(verifier._eval_rel))
    r = verify_family("3.1", n_scenarios=2, n_points=3)
    assert r.verdict == "INDETERMINATE"
    assert [row["status"] for row in r.scenarios] == [how, how]
    assert np.isnan(r.max_rel_residual) and np.isnan(r.xcheck_max_dev)
    d = json.loads(r.to_json())
    assert d["max_rel_residual"] is None and d["xcheck_max_dev"] is None
    # every evaluated row says what it resampled: all 3 points in each of
    # the 8 rounds; the report's count is the rows' sum
    resampled = [row.get("resampled_points") for row in d["scenarios"]]
    assert resampled == ([24, 24] if how == "eval_incomplete"
                         else [None, None])
    assert d["resampled_points"] == (48 if how == "eval_incomplete" else 0)
    # every point evaluates but the patched residual: no cause to name
    assert [row.get("causes") for row in d["scenarios"]] == (
        [[], []] if how == "eval_incomplete" else [None, None])
    assert_verdict_recomputes(r)


def test_base_shift_scenarios_pass():
    r = verify_family("3.2", n_scenarios=1, n_points=6, base_shift=0.5)
    assert r.verdict == "PASS"


def test_probe_branches_mirrored_root():
    r = verify_family("5.3", n_scenarios=1, n_points=4,
                      probe_branches=True)
    assert r.branch_probe is not None
    assert r.branch_probe["status"] in {"solves", "no_root"}
    d = r.to_dict()
    assert "branch_probe" in d


def test_negate_seeds_transform():
    fam = get_family("5.2")
    alt = _negate_seeds(fam.solution)
    from pdegensol.expr_core import RootOf, walk

    seeds = [n.seed for n in walk(alt) if isinstance(n, RootOf)]
    orig = [n.seed for n in walk(fam.solution) if isinstance(n, RootOf)]
    assert seeds == [-s for s in orig]


def test_verify_catalog_orders_results():
    ids = ["3.2", "3.1"]
    rs = verify_catalog(ids, n_scenarios=1, n_points=4)
    assert [r.family for r in rs] == ids


def test_verify_catalog_matches_verify_family():
    ids = ["3.1", "3.4", "6.1"]
    serial = [verify_family(i, n_scenarios=1, n_points=4).to_json()
              for i in ids]
    streamed = [r.to_json() for r in
                verify_catalog(ids, n_scenarios=1, n_points=4)]
    assert streamed == serial


def test_verify_catalog_streams_reports(monkeypatch):
    # the last family cannot finish until the first report has arrived, so
    # a verify_catalog that collects every report before yielding times out
    ids = ["3.1", "3.2", "3.4"]
    first_arrived = threading.Event()

    def stub(fid, **kw):
        if fid == ids[-1] and not first_arrived.wait(timeout=10):
            raise TimeoutError("no report yielded before the last family")
        return fid

    monkeypatch.setattr(verifier, "verify_family", stub)
    got = []
    for fid in verify_catalog(ids):
        got.append(fid)
        first_arrived.set()
    assert got == ids


def test_verify_catalog_of_no_ids_verifies_nothing(monkeypatch):
    # only None means the whole catalog
    seen = []
    monkeypatch.setattr(verifier, "verify_family",
                        lambda fid, **kw: seen.append(fid))
    assert list(verify_catalog([])) == []
    assert seen == []


def _one_record_family(pde, sol):
    rec = next(_parse_records(
        f"[probe]\nvars: t x\npde: {pde}\nsol: {sol}\n"))
    return _build_family(rec)


@pytest.mark.parametrize("pde, sol, status", [
    ("w_t - w_x", "rootof(Z, ln(Z) - x - t, 1)", "no_root"),
    ("w_t - w_x", "rootof(Z, Z^2 - x - t, 1)", "solves"),
    ("w_t - w_x", "rootof(Z, Z^2 - x - t, 1)", "sampling_exhausted"),
    # the PDE terms are not finite at x < 0.5 while the solution jet is:
    # the remaining points alone are no evidence that the branch solves
    ("w_t - w_x + ln(x - 0.5) - ln(x - 0.5)", "rootof(Z, Z^2 - x - t, 1)",
     "unevaluable"),
    # only the positive root sqrt(t + x) solves this one
    ("2*w_t*sqrt(t + x) - 1", "rootof(Z, Z^2 - x - t, 1)",
     "does_not_solve"),
])
def test_probe_status(monkeypatch, pde, sol, status):
    fam = _one_record_family(pde, sol)
    if status == "sampling_exhausted":
        # no scenario 0 to probe: the report says why
        monkeypatch.setitem(HINTS, fam.family_id,
                            SamplingHints(admissible=lambda p: False))
        r = verify_family(fam, n_scenarios=1, n_points=6, seed=1,
                          probe_branches=True)
        probe = r.branch_probe
    else:
        scn = draw_scenario(fam, verifier._scenario_rng(1, fam.family_id, 0),
                            6)
        probe = _probe_alternate_branch(fam, scn, DEFAULT_TOL_REL)
    assert probe["status"] == status


def test_unbracketable_root_is_indeterminate_with_a_cause():
    # Z = 20 + x lies outside every bracket the root solver searches, so no
    # resampled point can be evaluated: each of the 8 rounds redraws all 6
    # points, and the report names the scenario and the probe the cause
    fam = _one_record_family("w_t - w_x", "rootof(Z, Z - 20 - x, 1)")
    r = verify_family(fam, n_scenarios=1, n_points=6, seed=1,
                      probe_branches=True)
    assert r.verdict == "INDETERMINATE"
    assert [row["status"] for row in r.scenarios] == ["eval_incomplete"]
    assert r.resampled_points == r.scenarios[0]["resampled_points"] == 48
    assert r.notes == ["scenario 0: 6 point(s) unevaluable after resampling"
                       " (causes: root)"]
    assert r.scenarios[0]["causes"] == ["root"]
    assert r.branch_probe == {"branch": "negated_seed", "status": "no_root"}
    assert_verdict_recomputes(r)


def test_unevaluable_pde_term_names_its_cause():
    # the solution evaluates at every point, a PDE term at none: the cause
    # the row and the note name comes from the PDE terms' evaluation
    fam = _one_record_family("w_t - w_x + ln(-1 - x^2) - ln(-1 - x^2)",
                             "x + t")
    r = verify_family(fam, n_scenarios=1, n_points=2, seed=1)
    assert r.verdict == "INDETERMINATE"
    assert r.scenarios[0]["status"] == "eval_incomplete"
    assert r.scenarios[0]["causes"] == ["domain"]
    assert r.notes == ["scenario 0: 2 point(s) unevaluable after resampling"
                       " (causes: domain)"]


def test_probed_runs_pin_no_new_engine_nodes():
    # the negated-seed solution is built once per family solution, so
    # repeated probed runs reuse the engine's node caches
    def sizes():
        verify_family("3.10", n_scenarios=1, n_points=2, seed=1,
                      probe_branches=True)
        return len(engine._canon), len(engine._root_derivative._ents)

    first = sizes()
    assert sizes() == first
    assert sizes() == first


def test_family_tolerances_registered():
    assert FAMILY_TOL["3.7"] == 1e-5
    assert FAMILY_TOL["3.8"] == 1e-5
    # every family's hints name exactly its parameters and its functions:
    # no draw falls back to a default range
    for fid in family_ids():
        fam, h = get_family(fid), HINTS[fid]
        assert set(h.params) == set(fam.parameters), fid
        assert set(h.funcs) == set(fam.functions), fid
    assert set(HINTS) == set(
        f"{a}.{b}" for a, b in [
            (3, i) for i in range(1, 12)
        ] + [(4, i) for i in range(1, 5)]
        + [(5, i) for i in range(1, 4)]
        + [(6, i) for i in range(1, 6)]
        + [(7, i) for i in range(1, 3)])
