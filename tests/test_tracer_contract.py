"""The benchmark's tracer against the engine it wraps.

perfbench/tracer.py wraps adaptive_gk_batched by its six-argument call and
the integrand callback by its two arguments, counting nodes as the size of
the first.  This runs the benchmark's coverage workload (3.10 at 1x2 and a
2x2 sample of 3.8) traced, in a fresh interpreter as the benchmark does,
and checks that every wrapper fired, every count is reported, and the
outputs equal an untraced run of the same operations.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_traced_coverage_run_matches_untraced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pdegensol
    import worker
    import workloads

    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
         "coverage", "--seed", "1", "--seconds", "1", "--coverage"],
        cwd=ROOT, env=dict(os.environ, **workloads.PINS),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["coverage"] == []
    assert traced["layers"]["numeric.quadrature.integrand_calls"] > 0
    assert traced["layers"]["numeric.quadrature.nodes.d1"] > 0

    refs = json.loads(worker.REFERENCE.read_text())
    plain = worker.run_ops(pdegensol, workloads.COVERAGE_OPS, refs)
    assert [op["op"] for op in traced["ops"]] == [op["op"] for op in plain]
    for t, p in zip(traced["ops"], plain):
        assert not t["failed"] and not p["failed"]
        assert t["digest"] == p["digest"]
