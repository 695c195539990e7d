"""Benchmark launcher: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sanity

Run from the root of a checkout.  The workload runs in a fresh worker
process (perfbench/worker.py) with one thread, so set-up time and peak
memory belong to it; times are in reference seconds (see speed.py).
--trace 0 prints the end-to-end metrics;
--trace 1 runs the workload untraced and then traced, in two fresh
processes, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--sanity reproduces the counts the roadmap quotes for 3.7 and 4.4.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import selftest  # noqa: E402
from speed import CAL_REF_S, kernel_s  # noqa: E402
from stats import family_margin, margin_pairs, median, tail_percentile  # noqa: E402
from workloads import PINS, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# time from a fresh interpreter to the package imported and the catalog
# loaded; the probe reports the moment it is done, so teardown is excluded
PROBE = ("import sys; sys.path.insert(0, 'src'); import pdegensol; "
         "from pdegensol.catalog import load_catalog; load_catalog(); "
         "print('ready', flush=True)")
DEADLINE_S = 170.0  # every run ends well within 180 s

UNITS = {
    "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "residual_margin_dec": "decades",
    "xcheck_margin_dec": "decades",
}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.update(PINS)
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 1.0:
        raise BenchError("run deadline reached")
    return left


def setup_probe(t_start: float) -> tuple:
    """(reference seconds, measured seconds) of one fresh set-up."""
    k0 = kernel_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], env=_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.wait(timeout=_remaining(t_start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return dt * CAL_REF_S / (0.5 * (k0 + kernel_s())), dt


def run_worker(args, t_start: float, mode: str = "") -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds)] + ([mode] if mode else [])
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=_remaining(t_start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode or 'untraced'} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {mode or 'untraced'} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(rec: dict, setup: list) -> dict:
    lat = [op["latency_s"] for op in rec["ops"]]
    pct, p90 = tail_percentile(lat)
    return {
        "wall_s": rec["wall_s"],
        "op_p50_s": median(lat),
        "op_p90_s": p90,
        "setup_s": median([ref for ref, _raw in setup]),
        "peak_rss_mb": rec["peak_rss_mb"],
        "residual_margin_dec": family_margin(margin_pairs(rec["ops"], 0)),
        "xcheck_margin_dec": family_margin(margin_pairs(rec["ops"], 1)),
    }, pct


def _failures(rec: dict) -> list:
    return [f"{op['op']}: {op['failed']}" for op in rec["ops"]
            if op["failed"]]


def traced_checks(plain: dict, traced: dict, cov: list) -> list:
    """Problems found by the coverage and determinism checks."""
    from tracer import is_count

    bad = [f"traced run: {p}" for p in traced["coverage"]
           if not p.startswith("wrapper never fired")]
    for rec in cov:
        bad += [f"coverage: {p}" for p in rec["coverage"] + _failures(rec)]
    a, b = cov[0]["layers"], cov[1]["layers"]
    bad += [f"coverage counts differ between runs: {k} {a[k]} != {b[k]}"
            for k in a if is_count(k) and a[k] != b[k]]
    for p, t in zip(plain["ops"], traced["ops"]):
        for key in ("digest", "residual_margin_dec", "xcheck_margin_dec"):
            if p.get(key) != t.get(key):
                bad.append(f"{p['op']}: {key} differs between the untraced "
                           f"and the traced run")
    return bad


def report(metrics: dict, units: dict, correct: bool, attempted: int,
           failed: int) -> None:
    for name, value in metrics.items():
        print(f"{name:52} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def bench(args) -> int:
    t_start = time.monotonic()
    if not (Path.cwd() / "src" / "pdegensol" / "__init__.py").is_file():
        raise BenchError("run from the root of a pdegensol checkout "
                         "(no src/pdegensol here)")
    selftest.run_all()
    setup = [setup_probe(t_start) for _ in range(SETUP_PROBES)]
    plain = run_worker(args, t_start)
    fails = _failures(plain)
    for f in fails:
        print(f"FAILED {f}")
    attempted, failed = len(plain["ops"]), len(fails)
    e2e, pct = end_to_end(plain, setup)
    print(f"workload {args.workload} seed {args.seed}: {attempted} "
          f"operations, {failed} failed (fail_frac {failed / attempted:g}); "
          f"op_p90_s is p{pct:g} of {attempted} latencies")
    print(f"measured seconds, before scaling to the reference speed: "
          f"wall {plain['raw_wall_s']:.3f} (kernel {plain['kernel_s']:.4g} s "
          f"against {CAL_REF_S:g} s), set-up "
          f"{median([raw for _ref, raw in setup]):.4f}")
    for key in ("residual_margin_dec", "xcheck_margin_dec"):
        worst = min(plain["ops"], key=lambda op: op[key])
        print(f"worst {key}: {worst[key]:.4g} at {worst['op']}")
    if not args.trace:
        report(e2e, UNITS, failed == 0, attempted, failed)
        return 0

    from tracer import unit_of

    cov = [run_worker(args, t_start, "--coverage") for _ in range(2)]
    traced = run_worker(args, t_start, "--traced")
    problems = traced_checks(plain, traced, cov)
    for p in problems:
        print(f"CHECK {p}")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    print(f"spans written to {traced['spans_file']}")
    report(layers, {k: unit_of(k) for k in layers},
           failed == 0 and not problems and not _failures(traced),
           attempted, failed)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sanity", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.sanity:
            import sanity

            return sanity.main(_env())
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
