"""One workload in one fresh process: set up, run every operation, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--traced | --coverage]

Run from the root of a checkout; the package is imported from ./src and
from nowhere else.  The last line of standard output is a JSON record of
the run, which perfbench/run.py reads.  --traced installs the tracer before
set-up; --coverage runs the tiny traced coverage workload instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import Speedometer  # noqa: E402
from stats import margin_dec  # noqa: E402
from workloads import COVERAGE_OPS, Op, build  # noqa: E402

# tolerances of sample outputs against the recorded reference, fixed before
# any measurement: grid values relative to max(1, |w|), scenario numbers
# relative to max(1, |x|)
SAMPLE_TOL = 1e-8
SCENARIO_TOL = 1e-12
REFERENCE = HERE / "sample_reference.json"
SPANS_DIR = Path(".perfbench_out")  # relative to the checkout root


def import_package():
    """Import pdegensol from ./src of the current directory."""
    src = Path.cwd() / "src"
    if not (src / "pdegensol" / "__init__.py").is_file():
        raise SystemExit(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import pdegensol

    if Path(pdegensol.__file__).resolve().parent != (src / "pdegensol").resolve():
        raise SystemExit(f"pdegensol imported from {pdegensol.__file__}, "
                         f"not from {src}")
    return pdegensol


def parse_sample(text: str):
    """(scenario dict, coordinate text, w values) of one sample output."""
    lines = text.splitlines()
    prefix = "# scenario: "
    if not lines or not lines[0].startswith(prefix):
        raise ValueError("sample output has no scenario line")
    scenario = json.loads(lines[0][len(prefix):])
    coords, w = [], []
    for row in lines[2:]:
        head, _, val = row.rpartition(",")
        coords.append(head)
        w.append(float(val))
    return scenario, "\n".join(coords), w


def _numbers(doc):
    """Every number in a JSON document, in a fixed order."""
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _numbers(doc[k])
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield float(doc)


def rel_dev(got, ref) -> float:
    """Worst |got - ref| / max(1, |ref|); NaN must meet NaN."""
    got, ref = list(got), list(ref)
    if len(got) != len(ref):
        return math.inf
    worst = 0.0
    for g, r in zip(got, ref):
        if math.isnan(r) or math.isnan(g):
            if not (math.isnan(r) and math.isnan(g)):
                return math.inf
            continue
        worst = max(worst, abs(g - r) / max(1.0, abs(r)))
    return worst


def ref_key(op: Op) -> str:
    return f"{op.family}/seed{op.seed}/grid{op.grid}"


def _finite(x) -> float:
    return math.inf if x is None else float(x)


def run_verify(pkg, op: Op):
    t0 = time.perf_counter()
    rep = pkg.verify_family(op.family, n_scenarios=op.scenarios,
                            n_points=op.points, seed=op.seed)
    interval = (t0, time.perf_counter())
    why = []
    if rep.verdict != "PASS":
        why.append(f"verdict {rep.verdict}: {'; '.join(rep.notes)}")
    if not rep.max_rel_residual <= rep.tol_rel:
        why.append(f"max_rel_residual {rep.max_rel_residual:.3g} > "
                   f"{rep.tol_rel:g}")
    if not rep.xcheck_max_dev <= rep.xcheck_tol:
        why.append(f"xcheck_max_dev {rep.xcheck_max_dev:.3g} > "
                   f"{rep.xcheck_tol:g}")
    # one (residual, cross-check) margin pair per scenario; a scenario
    # that was not evaluated has no numbers and so zero headroom
    scen = [(margin_dec(rep.tol_rel, _finite(row.get("max_rel_residual"))),
             margin_dec(rep.xcheck_tol, _finite(row.get("xcheck_max_dev"))))
            for row in rep.scenarios]
    return interval, why, {
        "residual_margin_dec": margin_dec(rep.tol_rel, rep.max_rel_residual),
        "xcheck_margin_dec": margin_dec(rep.xcheck_tol, rep.xcheck_max_dev),
        "scenario_margins": scen,
        "digest": hashlib.sha256(rep.to_json().encode()).hexdigest(),
    }


def run_sample(cli, op: Op, refs):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op.argv())
    interval = (t0, time.perf_counter())
    text = buf.getvalue()
    out = {"digest": hashlib.sha256(text.encode()).hexdigest()}
    if rc != 0:
        return interval, [f"exit code {rc}"], out
    scenario, coords, w = parse_sample(text)
    if refs is None:  # recording the reference
        out["reference"] = {
            "scenario": scenario,
            "coords_sha256": hashlib.sha256(coords.encode()).hexdigest(),
            "w": [None if math.isnan(v) else v for v in w],
        }
        return interval, [], out
    ref = refs.get(ref_key(op))
    if ref is None:
        return interval, [f"no reference for {ref_key(op)}"], out
    why = []
    if hashlib.sha256(coords.encode()).hexdigest() != ref["coords_sha256"]:
        why.append("grid coordinates differ from the reference")
    w_dev = rel_dev(w, [math.nan if v is None else v for v in ref["w"]])
    s_dev = rel_dev(_numbers(scenario), _numbers(ref["scenario"]))
    if not w_dev <= SAMPLE_TOL:
        why.append(f"grid values deviate {w_dev:.3g} > {SAMPLE_TOL:g}")
    if not s_dev <= SCENARIO_TOL:
        why.append(f"scenario deviates {s_dev:.3g} > {SCENARIO_TOL:g}")
    out["residual_margin_dec"] = margin_dec(SAMPLE_TOL, w_dev)
    out["xcheck_margin_dec"] = margin_dec(SCENARIO_TOL, s_dev)
    return interval, why, out


def run_ops(pkg, ops, refs, tracer=None, speed=None):
    """Run every operation; latency_s is in reference seconds when a
    Speedometer is given, raw_latency_s always in measured seconds."""
    from pdegensol import cli

    results, intervals = [], []
    for op in ops:
        if speed:
            speed.between()

        def one():
            if op.kind == "verify":
                return run_verify(pkg, op)
            return run_sample(cli, op, refs)
        t0 = time.perf_counter()
        try:
            (t0, t1), why, out = tracer.call("perfbench.op", one) if tracer else one()
        # an operation that raises is a failed operation, not a dead run
        except Exception as exc:  # noqa: BLE001
            t1, why = time.perf_counter(), [repr(exc)]
            out = {"residual_margin_dec": 0.0, "xcheck_margin_dec": 0.0}
        intervals.append((t0, t1))
        results.append(dict(out, op=op.label(), family=op.family,
                            raw_latency_s=t1 - t0, failed="; ".join(why)))
    if speed:
        speed.between()
    for res, (t0, t1) in zip(results, intervals):
        res["latency_s"] = speed.scaled(t0, t1) if speed else t1 - t0
    return results


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for sid, parent, name, t0, t1 in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--coverage", action="store_true")
    args = ap.parse_args(argv)

    ops = COVERAGE_OPS if args.coverage else build(args.workload, args.seed,
                                                   args.seconds)
    refs = None
    if any(op.kind == "sample" for op in ops):
        refs = json.loads(REFERENCE.read_text())

    pkg = import_package()
    tracer = None
    if args.traced or args.coverage:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from pdegensol import catalog

    catalog.load_catalog()

    t0 = time.perf_counter()
    speed = Speedometer()
    results = run_ops(pkg, ops, refs, tracer, speed)
    raw_wall_s = time.perf_counter() - t0

    rec = {
        "wall_s": sum(r["latency_s"] for r in results),
        "raw_wall_s": raw_wall_s,
        "kernel_s": statistics.median(d for _, d in speed.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        from tracer import coverage_problems, layer_metrics

        tracer.uninstall()
        rec["layers"] = layer_metrics(tracer)
        rec["coverage"] = coverage_problems(tracer)
        name = "coverage" if args.coverage else args.workload
        spans = SPANS_DIR / f"spans-{name}-seed{args.seed}.tsv.gz"
        write_spans(tracer, spans)
        rec["spans_file"] = str(spans)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
