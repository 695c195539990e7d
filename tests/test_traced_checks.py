"""The benchmark's traced check on one pass of the elementary and of the
heavy workload.

`perfbench/run.py --trace 1` runs a workload untraced, then twice on the
coverage workload and once traced, each in a fresh interpreter, and hands
the four records to traced_checks.  This does the same for one pass of
`elementary` (its 17 families at 5x20, seed 1) and one pass of `heavy`
(its 36 operations at seed 1), sharing the two coverage runs, and asserts
that the check finds no problem: every jet kernel runs at a catalog size
(1, 4, 6 or 8), every wrapper fires in the coverage operations, both
coverage runs count alike, and every operation's digest and margins are
the same traced and untraced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _worker(pins, workload, *mode):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.75", *mode],
        cwd=ROOT, env=dict(os.environ, **pins),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and workloads modules, and the two coverage runs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
        cov = [_worker(workloads.PINS, "elementary", "--coverage")
               for _ in range(2)]
        yield run, workloads.PINS, cov
    finally:
        sys.path.remove(str(PERFBENCH))


def _check_pass(bench, workload, nops):
    run, pins, cov = bench
    plain = _worker(pins, workload)
    traced = _worker(pins, workload, "--traced")
    assert len(plain["ops"]) == len(traced["ops"]) == nops
    assert run.traced_checks(plain, traced, cov) == []
    assert not run._failures(plain) and not run._failures(traced)


def test_traced_elementary_pass_has_no_problem(bench):
    _check_pass(bench, "elementary", 17)


def test_traced_heavy_pass_has_no_problem(bench):
    _check_pass(bench, "heavy", 36)
