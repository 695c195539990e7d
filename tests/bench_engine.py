"""Engine microbenchmarks (pytest-benchmark), outside the tier-1 suite.

The tier-1 run collects test_*.py only, so these run on request:

    PYTHONPATH=src python -m pytest tests/bench_engine.py --benchmark-only

They time the kernels of the integrand and root-body hot loop on fixed
inputs: one function stand-in evaluation at 1e3 and 1e6 points, one
leaf-integrand callback with its slice reductions on 1e6 quadrature
nodes, one adaptive quadrature of 4.4's innermost integral over about
1e6 nodes, one driver round of 1.8e6 panels with a trivial integrand, one
batch of 3.7's root body, one value-only solve of 5.2's root, and one
evaluation each of 5.2's, 4.3's and 6.5's solution jets, all four on 20
points.  Three tooling cases run the command line in a fresh
interpreter.  One runs `pdegensol sample 3.8` (5x5, seed 1) and records
the child's minor page faults and system time in extra_info: what the
allocator costs a command-line run outside numpy.  Two record the child's own peak RSS and
the wall time: `pdegensol verify 4.4 --scenarios 1 --points 2 --seed 1`,
the working set of the deepest solution's residual pass and
cross-check, and `pdegensol sample 4.4 --grid t=0.2:1.2:6 --grid
x=0.2:1.2:6 --seed 1`, the largest single engine call.
"""

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from pdegensol import expr_core as X
from pdegensol.catalog import get_family
from pdegensol.expr_core import Env, parse
from pdegensol.numeric import EvalContext, IndexSet, JetBatch, eval_batch, polynomial
from pdegensol.numeric import engine, quadrature
from pdegensol.numeric.quadrature import Panels
from pdegensol.verifier import _scenario_rng, draw_scenario

from conftest import StubScenario, mk_poly1


@pytest.mark.parametrize("n", [10**3, 10**6], ids=["N1e3", "N1e6"])
def test_function_instance_eval(benchmark, n):
    fi = polynomial("g", 2, {(0, 0): 0.3, (1, 0): -0.7, (0, 1): 1.1, (2, 0): 0.2,
                             (1, 1): -0.4, (0, 2): 0.6, (3, 0): 0.05, (1, 2): -0.1})
    rs = np.random.default_rng(1)
    args = [rs.uniform(0.2, 1.2, n), rs.uniform(0.2, 1.2, n)]
    benchmark(fi.eval, (1, 0), args)


def test_leaf_integrand_callback(benchmark, monkeypatch):
    # a leaf integrand: a 2-argument stand-in, a parameter-only factor and
    # an exponential, on 1e6 nodes at K=4
    scn = StubScenario(("t", "x"), parameters={"a": 0.7, "c": -0.3},
                       functions={"F": mk_poly1("F", {0: 0.5, 1: 0.4, 2: -0.2}),
                                  "k": polynomial("k", 2, {(1, 0): 0.9, (1, 1): 0.3, (0, 2): -0.5})},
                       base_points={"p0": 0.0})
    e = parse("int(eta, base(p0), x, k(t, eta)*exp(-a*eta*t)/(1 + c^2) + F(eta))",
              Env(variables=("t", "x"), parameters=("a", "c"),
                  functions={"F": 1, "k": 2}))
    iset = IndexSet(("t", "x"), [(1, 0), (0, 1), (1, 1)])
    cols = 100
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, cols)) for v in ("t", "x")}
    callbacks = []

    def keep(evalfn, lo, hi, K, cfg, on_noconv=None):
        callbacks.append(evalfn)
        return np.zeros((K, hi.size))

    monkeypatch.setattr(engine, "adaptive_gk_batched", keep)
    eval_batch(e, env, EvalContext(iset, scn), cols)
    integrand_eval = callbacks[0]
    m = 10**6
    npan = m // 15
    rs = np.random.default_rng(3)
    panels = Panels(rs.uniform(0.2, 0.8, npan), np.full(npan, 0.1),
                    np.sort(rs.integers(0, cols, npan)))
    # the round is larger than two slices: panels.reduce asks the
    # callback for it a slice at a time
    benchmark(integrand_eval, panels, panels.cols)
    assert panels.i15.shape == (iset.K, npan) and np.isfinite(panels.i15).all()


def test_leaf_quadrature_44(benchmark, monkeypatch):
    # one adaptive quadrature of 4.4's innermost integral,
    # int(rho, base(q0), sigma, b(rho, eta)), value-only over about 1e6
    # nodes: the driver rounds plus the sliced leaf callback
    fam = get_family("4.4")
    scn = draw_scenario(fam, _scenario_rng(1, "4.4", 0), 2)
    inner = next(n for n in X.walk(fam.solution)
                 if isinstance(n, X.Integral) and n.dummy == "rho")
    iset = IndexSet(fam.variables, [(0, 0)])
    cols = 60000
    rs = np.random.default_rng(4)
    env = {"sigma": JetBatch.constants(iset, rs.uniform(0.2, 1.2, cols)),
           "eta": JetBatch.constants(iset, rs.uniform(0.2, 1.2, cols))}
    calls = []

    def keep(evalfn, lo, hi, K, cfg, on_noconv=None):
        calls.append((evalfn, lo, hi, K, cfg))
        return quadrature.adaptive_gk_batched(evalfn, lo, hi, K, cfg, on_noconv)

    monkeypatch.setattr(engine, "adaptive_gk_batched", keep)
    eval_batch(inner, env, EvalContext(iset, scn), cols)
    evalfn, lo, hi, K, cfg = calls[0]
    nodes = []

    def counted(panels, cols):
        nodes.append(panels.size)
        evalfn(panels, cols)

    quadrature.adaptive_gk_batched(counted, lo, hi, K, cfg)
    assert 5 * 10**5 < sum(nodes) < 2 * 10**6
    data = benchmark(quadrature.adaptive_gk_batched, evalfn, lo, hi, K, cfg)
    assert data.shape == (1, cols) and np.isfinite(data).all()


def test_driver_round(benchmark):
    # the driver's own cost in one round the size of 4.4's first depth-5
    # round (about 1.8e6 panels, K=1): the integrand hands panels.reduce
    # a fixed quadratic sampled at the first round's nodes, whole, so
    # every panel converges at once and the integrand costs nothing
    cols = 1_800_000
    lo, hi = np.zeros(cols), np.linspace(0.1, 1.0, cols)
    xs = Panels(0.5 * hi, 0.5 * hi, np.arange(cols)).nodes()
    vals = np.square(xs, out=xs)[None, :]
    rounds = []

    def integrand(panels, owner):
        rounds.append(panels.size)
        panels.reduce(lambda lo, hi: vals, False)

    data = benchmark(quadrature.adaptive_gk_batched, integrand, lo, hi, 1, engine.CFG)
    assert set(rounds) == {vals.size}
    assert data == pytest.approx(hi[None, :] ** 3 / 3.0, rel=1e-12)


def test_root_body_batch(benchmark, monkeypatch):
    # one value-only batch of 3.7's root body (an adaptive integral in Z)
    # over 200 columns, as the bracketing and bisection loop calls it.
    # Every round passes the same columns, so rounds after the first reuse
    # the body's column constants (t and G(eta)) as bisection steps do
    fam = get_family("3.7")
    scn = draw_scenario(fam, _scenario_rng(1, "3.7", 0), 2)
    root = next(r for r in X.walk(fam.solution) if isinstance(r, X.RootOf))
    iset = IndexSet(fam.variables, [(0, 0)])
    cols = 200
    rs = np.random.default_rng(2)
    env = {"t": JetBatch.variable(iset, "t", rs.uniform(0.2, 1.2, cols)),
           "eta": JetBatch.constants(iset, rs.uniform(0.2, 1.2, cols))}
    fvals = []
    solve = engine.rootfind.bracket_bisect_newton

    def keep(fval, fprime, seeds, cfg):
        fvals.append(fval)
        return solve(fval, fprime, seeds, cfg)

    monkeypatch.setattr(engine.rootfind, "bracket_bisect_newton", keep)
    eval_batch(root, env, EvalContext(iset, scn), cols)
    zs = rs.uniform(0.5, 1.5, cols)
    out = benchmark(fvals[0], zs, np.arange(cols))
    assert out.shape == (cols,) and np.isfinite(out).all()


def test_root_solve_52(benchmark):
    # one value-only solve of 5.2's root on 20 points, in a fresh context
    # per call: about 70 body evaluations, whose two integrals over xi do
    # not depend on Z and are evaluated once per column set
    fam = get_family("5.2")
    scn = draw_scenario(fam, _scenario_rng(1, "5.2", 0), 20)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values())).value_only()
    n = len(scn.points)
    env = {v: JetBatch.variable(iset, v, scn.points[:, i].copy())
           for i, v in enumerate(fam.variables)}

    def run():
        return eval_batch(fam.solution, env, EvalContext(iset, scn), n)

    out = benchmark(run)
    assert iset.K == 1 and out.data.shape == (1, n)
    assert np.isfinite(out.data).all()


def test_solution_jets_52(benchmark):
    # 5.2's solution at its own K=8 index set on 20 points, in a fresh
    # context per call: the operation behind the heavy workload's median,
    # where the engine's per-node dispatch is a visible share of the time
    fam = get_family("5.2")
    scn = draw_scenario(fam, _scenario_rng(1, "5.2", 0), 20)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    n = len(scn.points)
    env = {v: JetBatch.variable(iset, v, scn.points[:, i].copy())
           for i, v in enumerate(fam.variables)}

    def run():
        return eval_batch(fam.solution, env, EvalContext(iset, scn), n)

    out = benchmark(run)
    assert iset.K == 8 and out.data.shape == (8, n)
    assert np.isfinite(out.data).all()


def test_solution_jets_43(benchmark):
    # 4.3's solution at its own K=4 index set on 20 points, in a fresh
    # context per call: its nests below depth 1 bind only outer dummies,
    # whose derivative rows are zero, so they are integrated at K=1; its
    # two top-level integrals over xi up to x share one endpoint scope
    fam = get_family("4.3")
    scn = draw_scenario(fam, _scenario_rng(1, "4.3", 0), 20)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    n = len(scn.points)
    env = {v: JetBatch.variable(iset, v, scn.points[:, i].copy())
           for i, v in enumerate(fam.variables)}

    def run():
        return eval_batch(fam.solution, env, EvalContext(iset, scn), n)

    out = benchmark(run)
    assert iset.K == 4 and out.data.shape == (4, n)
    assert np.isfinite(out.data).all()


def test_solution_jets_65(benchmark):
    # 6.5's solution at its own K=6 index set on 20 points, in a fresh
    # context per call: its nested integrand's exp(2*m*t) and the outer
    # integrand's F(t) are column invariants, evaluated once per call
    fam = get_family("6.5")
    scn = draw_scenario(fam, _scenario_rng(1, "6.5", 0), 20)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    n = len(scn.points)
    env = {v: JetBatch.variable(iset, v, scn.points[:, i].copy())
           for i, v in enumerate(fam.variables)}

    def run():
        return eval_batch(fam.solution, env, EvalContext(iset, scn), n)

    out = benchmark(run)
    assert iset.K == 6 and out.data.shape == (6, n)
    assert np.isfinite(out.data).all()


def _child_env():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_sample_38_process(benchmark):
    # a whole command-line run, interpreter start-up and import included.
    # Faults and system time are the child's own (RUSAGE_CHILDREN deltas),
    # so a freed block handed back to the kernel and faulted in again by
    # the next temporary shows up here and nowhere in the kernels above
    argv = [sys.executable, "-m", "pdegensol.cli", "sample", "3.8",
            "--seed", "1"]
    faults, sys_s = [], []

    def run():
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, env=_child_env(),
                              stdout=subprocess.DEVNULL, timeout=300)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        faults.append(after.ru_minflt - before.ru_minflt)
        sys_s.append(after.ru_stime - before.ru_stime)
        return proc.returncode

    assert benchmark.pedantic(run, rounds=5, iterations=1) == 0
    benchmark.extra_info.update(minor_faults=statistics.median(faults),
                                sys_s=statistics.median(sys_s))


def _peak_rss_run(benchmark, argv, rounds):
    # the child prints its own peak RSS (VmHWM, KiB; Linux only) after
    # main returns, so the peak is the run's and no earlier child's.  Not
    # ru_maxrss: Linux carries it across fork and exec, so a child would
    # report this process's peak whenever that is higher
    code = ("import sys; from pdegensol import cli; "
            f"rc = cli.main({argv!r}); "
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:'))); "
            "sys.exit(rc)")
    peaks, walls = [], []

    def run():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - t0)
        peaks.append(int(proc.stdout.split()[-1]) / 1024)
        return proc.returncode

    assert benchmark.pedantic(run, rounds=rounds, iterations=1) == 0
    benchmark.extra_info.update(peak_rss_mb=statistics.median(peaks),
                                wall_s=statistics.median(walls))


def test_verify_44_peak_rss(benchmark):
    # one scenario of 4.4 at 2 points through the command line: the
    # working set of the deepest solution's residual pass and cross-check
    _peak_rss_run(benchmark, ["verify", "4.4", "--scenarios", "1",
                              "--points", "2", "--seed", "1"], 3)


def test_sample_44_peak_rss(benchmark):
    # 4.4's values on a 6x6 grid through the command line: one value-only
    # call of 36 points, the largest single engine call, whose depth-5
    # leaf rounds reach about 1.8e6 panels
    _peak_rss_run(benchmark, ["sample", "4.4", "--grid", "t=0.2:1.2:6",
                              "--grid", "x=0.2:1.2:6", "--seed", "1"], 3)
