"""Reproduce the engine counts the roadmap quotes, from a traced run.

    python3 perfbench/run.py --sanity

Each family runs traced in its own fresh process at seed 1, one scenario
of 20 points.  Expected: 3.7 solves 17,940 root columns at about 69
value evaluations of the root body per column; 4.4 evaluates 77,044,560
integrand nodes over all three verifier phases and peaks near 1.6 GB.
The layer metric body_evals also counts the three Newton derivative
evaluations per column (fprime_evals).

It then runs each of workloads.KNOWN_DEFECTS untraced and prints its
verdict: a DEFECT line while it is not PASS, a FIXED line once it is.
These do not change the exit code, which reports the roadmap counts.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# family -> checks on its layer metrics (name, expected, allowed deviation)
EXPECTED = {
    "3.7": [("numeric.rootfind.bracket_bisect_newton.cols", 17_940, 0),
            ("value_evals_per_col", 69, 1.0)],
    "4.4": [("nodes", 77_044_560, 0), ("peak_rss_mb", 1600, 250)],
}


def child(fid: str) -> None:
    sys.path.insert(0, str(HERE))
    import worker
    from tracer import Tracer, layer_metrics

    pkg = worker.import_package()
    tracer = Tracer()
    tracer.install()
    pkg.catalog.load_catalog()
    rep = pkg.verify_family(fid, n_scenarios=1, n_points=20, seed=1)
    m = layer_metrics(tracer)
    r = "numeric.rootfind."
    cols = m[r + "bracket_bisect_newton.cols"]
    if cols:
        m["value_evals_per_col"] = (
            m[r + "body_evals"] - m[r + "fprime_evals"]) / cols
    m["nodes"] = sum(v for k, v in m.items() if ".nodes.d" in k)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["verdict"] = rep.verdict
    print(json.dumps(m))


def defect_child(fid: str, seed: int, scenarios: int, points: int) -> None:
    sys.path.insert(0, str(HERE))
    import worker

    pkg = worker.import_package()
    rep = pkg.verify_family(fid, n_scenarios=scenarios, n_points=points,
                            seed=seed)
    print(json.dumps({"verdict": rep.verdict, "notes": rep.notes,
                      "max_rel_residual": rep.max_rel_residual,
                      "xcheck_max_dev": rep.xcheck_max_dev}))


def report_defects(env) -> None:
    sys.path.insert(0, str(HERE))
    from workloads import KNOWN_DEFECTS

    for op in KNOWN_DEFECTS:
        args = [op.family, str(op.seed), str(op.scenarios), str(op.points)]
        proc = subprocess.run([sys.executable, __file__, "defect"] + args,
                              env=env, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            print(f"DEFECT {op.label()}: raised\n{proc.stderr}")
            continue
        r = json.loads(proc.stdout.splitlines()[-1])
        if r["verdict"] == "PASS":
            print(f"FIXED {op.label()}: verdict PASS")
        else:
            print(f"DEFECT {op.label()}: verdict {r['verdict']}, "
                  f"max_rel_residual {r['max_rel_residual']:.3g}, "
                  f"xcheck_max_dev {r['xcheck_max_dev']:.3g}: "
                  f"{'; '.join(r['notes'])}")


def main(env) -> int:
    ok = True
    for fid, checks in EXPECTED.items():
        proc = subprocess.run([sys.executable, __file__, fid], env=env,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 2
        m = json.loads(proc.stdout.splitlines()[-1])
        print(f"{fid} seed 1, 1x20: verdict {m['verdict']}")
        ok &= m["verdict"] == "PASS"
        for name, want, tol in checks:
            got = m[name]
            good = abs(got - want) <= tol
            ok &= good
            print(f"  {name:45} {got:14.10g}  expected {want:g} +- {tol:g}"
                  f"  {'ok' if good else 'MISMATCH'}")
    report_defects(env)
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1] == "defect":
        defect_child(sys.argv[2], *map(int, sys.argv[3:6]))
    else:
        child(sys.argv[1])
