"""The benchmark's traced check on one pass of the elementary workload.

`perfbench/run.py --trace 1` runs a workload untraced, then twice on the
coverage workload and once traced, each in a fresh interpreter, and hands
the four records to traced_checks.  This does the same for one pass of
`elementary` (its 17 families at 5x20, seed 1) and asserts that the check
finds no problem: every jet kernel runs at a catalog size (1, 4, 6 or 8),
every wrapper fires in the coverage operations, both coverage runs count
alike, and every operation's digest and margins are the same traced and
untraced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _worker(pins, *mode):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
         "elementary", "--seed", "1", "--seconds", "0.75", *mode],
        cwd=ROOT, env=dict(os.environ, **pins),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_elementary_pass_has_no_problem(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    plain = _worker(workloads.PINS)
    cov = [_worker(workloads.PINS, "--coverage") for _ in range(2)]
    traced = _worker(workloads.PINS, "--traced")
    assert len(plain["ops"]) == len(traced["ops"]) == 17
    assert run.traced_checks(plain, traced, cov) == []
    assert not run._failures(plain) and not run._failures(traced)
