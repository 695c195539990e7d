"""Adaptive Gauss-Kronrod quadrature against known integrals."""

import math
import tracemalloc

import numpy as np
import pytest

from pdegensol.expr_core import Env, parse
from pdegensol.numeric import (EvalContext, IndexSet, JetBatch,
                               NumericConfig, engine, eval_batch, quadrature)
from pdegensol.numeric.quadrature import (GAUSS_IDX, GAUSS_W, NODES,
                                          WEIGHTS, Panels,
                                          adaptive_gk_batched)


CFG = NumericConfig()


def whole(f):
    """The integrand callback that hands f(panels, cols), the values of a
    whole round, to panels.reduce."""
    return lambda panels, cols: panels.reduce(
        lambda lo, hi: f(panels, cols), False)


def quad(f, lo, hi, cfg=CFG, on_noconv=None):
    """One-column integral of f (array in, array out) from lo to hi."""
    data = adaptive_gk_batched(
        whole(lambda panels, cols: f(panels.nodes())[None, :]),
        np.array([lo]), np.array([hi]), 1, cfg, on_noconv)
    return data[0, 0]


# (integrand, lower, upper, exact value)  -- all closed forms   [TRIVIAL]
BATTERY = [
    (lambda x: x**2, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.log1p(x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
    # x^(3/2): integrable endpoint derivative singularity
    (lambda x: x * np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 5.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x**2), -1.0, 1.0,
     2.0 / 5.0 * math.atan(5.0)),
    (lambda x: np.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
    (lambda x: np.cos(20.0 * x), 0.0, 1.0, math.sin(20.0) / 20.0),
    (lambda x: x * np.exp(x**2), 0.0, 2.0, (math.exp(4.0) - 1.0) / 2.0),
]


@pytest.mark.parametrize("idx", range(len(BATTERY)))
def test_battery(idx):
    f, lo, hi, exact = BATTERY[idx]
    got = quad(f, lo, hi)
    assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)


def test_reversed_orientation_flips_sign():
    f, lo, hi, exact = BATTERY[2]
    assert quad(f, hi, lo) == pytest.approx(-exact, rel=1e-9)


def test_zero_length_interval():
    assert quad(lambda x: np.exp(x), 0.7, 0.7) == 0.0


@pytest.mark.parametrize("K", [1, 4])
def test_scalar_lower_limit_gives_the_bits_of_a_repeated_one(K):
    # an integral's base point is one number for every column: lo given as
    # a scalar broadcasts against hi, with the bits of lo repeated to
    # hi.size, for hi above, below and at lo
    lo = 0.3
    hi = np.array([1.7, -0.4, 0.3, 2.9, -1.2, 0.31])
    rows = np.arange(1, K + 1)[:, None]

    def f(panels, cols):
        return np.cos(rows * panels.nodes() + np.repeat(panels.cols, 15))

    got = adaptive_gk_batched(whole(f), lo, hi, K, CFG)
    want = adaptive_gk_batched(whole(f), np.full(hi.size, lo), hi, K, CFG)
    assert got.shape == want.shape == (K, hi.size)
    assert np.array_equal(_bits(got), _bits(want))


def test_gk_constants_self_consistent():
    # weights integrate 1 exactly over [-1, 1]; nodes are symmetric
    assert math.fsum(WEIGHTS) == pytest.approx(2.0, abs=1e-12)
    assert math.fsum(GAUSS_W) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(NODES, -NODES[::-1], atol=1e-15)
    # the embedded 7-point Gauss rule is exact for degree-13 polynomials:
    # int_{-1}^{1} x^12 dx = 2/13                              [DERIVED]
    gauss = sum(w * x**12 for w, x in zip(GAUSS_W, NODES[GAUSS_IDX]))
    assert gauss == pytest.approx(2.0 / 13.0, rel=1e-11)
    # the 15-point Kronrod extension is exact for degree-22:
    # int_{-1}^{1} x^22 dx = 2/23                              [DERIVED]
    kron = sum(w * x**22 for w, x in zip(WEIGHTS, NODES))
    assert kron == pytest.approx(2.0 / 23.0, rel=1e-11)


def test_divergent_integrand_reports_nonconvergence(monkeypatch):
    # pole inside the interval, just off every node: the panel budget must
    # cut the exponential worklist growth and refuse, not hang
    monkeypatch.setattr(quadrature, "MAX_PANELS_PER_COL", 200)
    monkeypatch.setattr(quadrature, "MAX_PANELS_TOTAL", 2000)
    calls = []
    got = quad(lambda x: 1.0 / (x - 0.5000000001), 0.0, 1.0, CFG,
               calls.append)
    assert math.isnan(got)
    assert len(calls) == 1 and calls[0].tolist() == [True]


def test_pole_on_node_kills_column():
    # pole exactly at the first panel's center node: poison, not junk; the
    # column is dead, not nonconvergent, so it is not reported
    calls = []
    with np.errstate(divide="ignore"):
        got = quad(lambda x: np.float64(1.0) / (np.float64(x) - 0.5), 0.0,
                   1.0, CFG, calls.append)
    assert math.isnan(got)
    assert calls == []


def test_tolerance_scales_with_interval_length():
    # a long domain at the same rel tol still converges
    got = quad(lambda x: np.exp(-0.3 * x) * np.sin(x), 0.0, 30.0)
    # exact: (0.3 sin + cos)/... evaluate the antiderivative directly
    # int e^{-a x} sin x dx = e^{-a x}(-a sin x - cos x)/(1+a^2)  [DERIVED]
    a = 0.3

    def anti(x):
        return math.exp(-a * x) * (-a * math.sin(x) - math.cos(x)) / (1 + a * a)

    assert got == pytest.approx(anti(30.0) - anti(0.0), rel=1e-9)


def test_narrow_spike_resolved():
    # Gaussian spike much narrower than the first panel's node spacing
    # cannot be seen at all; width 0.02 is just visible and must then be
    # refined down to full accuracy
    s = 0.02
    got = quad(lambda x: np.exp(-(((x - 0.37) / s) ** 2)), 0.0, 1.0)
    exact = s * math.sqrt(math.pi)  # tails are below double precision
    assert got == pytest.approx(exact, rel=1e-8)


# ---------------------------------------------------------------------------
# Non-finite samples in the batched driver.  Three columns over [0, 2] with
# K rows; the first round's centre node of column 1 is x = 1.  A NaN or an
# infinity kills its column (NaN, not reported as nonconvergent); finite
# samples whose weighted sum overflows leave the column alive, so it is
# refined until the panel cap reports it nonconvergent.

_POISON = {
    "nan": lambda x: np.where(x == 1.0, np.nan, 0.0),
    "inf": lambda x: np.where(x == 1.0, np.inf, 0.0),
    "inf_minus_inf": lambda x: np.where(x == 1.0, np.inf,
                                        np.where(x == NODES[0] + 1.0,
                                                 -np.inf, 0.0)),
    "overflow": lambda x: np.full(x.shape, 1.5e308),
}


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("case", sorted(_POISON))
def test_driver_nonfinite_samples(K, case, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS_PER_COL", 64)
    lo, hi = np.zeros(3), np.full(3, 2.0)
    calls = []

    def evalfn(panels, cols):
        xs = panels.nodes()
        assert xs.size == panels.size and np.array_equal(panels.cols, cols)
        out = np.vstack([np.cos(xs) * (r + 1) for r in range(K)])
        hit = np.repeat(cols, 15) == 1
        with np.errstate(invalid="ignore"):
            # the poison sits in the last row only
            out[K - 1, hit] = out[K - 1, hit] * (case != "overflow") \
                + _POISON[case](xs[hit])
        return out

    with np.errstate(over="ignore"):
        data = adaptive_gk_batched(whole(evalfn), lo, hi, K, CFG,
                                   calls.append)
    assert data.shape == (K, 3)
    assert np.isnan(data[:, 1]).all()
    assert np.isfinite(data[:, [0, 2]]).all()
    assert data[:, 0] == pytest.approx(
        [math.sin(2.0) * (r + 1) for r in range(K)], rel=1e-13)
    if case == "overflow":
        assert len(calls) == 1 and calls[0].tolist() == [False, True, False]
    else:
        assert calls == []


def test_dead_column_leaves_later_rounds():
    # A Gaussian of width 0.1 at x = 0.5 over [0, 2] refines for 5 rounds.
    # Column 1 also has a NaN at x = 1.5, the centre node of its round-1
    # panel [1, 2], while its sibling panel [0, 1] still refines: the column
    # is dead from then on and is evaluated no more.  Columns 0 and 2 come
    # out as they do when nothing is poisoned
    def run(poison):
        calls = []

        def evalfn(panels, cols):
            calls.append(cols.copy())
            xs = panels.nodes()
            owner = np.repeat(cols, 15)
            out = np.where(owner == 2, np.cos(xs),
                           np.exp(-((xs - 0.5) / 0.1) ** 2))
            if poison:
                out[(owner == 1) & (xs == 1.5)] = np.nan
            return out[None, :]

        data = adaptive_gk_batched(whole(evalfn), np.zeros(3),
                                   np.full(3, 2.0), 1, CFG)
        return data[0], calls

    got, calls = run(True)
    want, clean_calls = run(False)
    assert np.isnan(got[1])
    assert np.array_equal(_bits(got[[0, 2]]), _bits(want[[0, 2]]))
    assert got[0] == pytest.approx(
        0.05 * math.sqrt(math.pi) * (math.erf(5.0) + math.erf(15.0)),
        rel=1e-9)
    # round 1 evaluates the NaN; every later round leaves column 1 out
    assert 1 in calls[1] and len(calls) > 2
    assert all(1 not in c for c in calls[2:])
    assert all(1 in c for c in clean_calls[2:])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_panels_nodes():
    mid = np.array([0.5, 3.0, -1.25])
    half = np.array([0.5, 0.25, 1e-3])
    cols = np.array([4, 0, 4])
    p = Panels(mid, half, cols)
    assert p.size == 45
    want = (mid[:, None] + half[:, None] * NODES[None, :]).ravel()
    assert np.array_equal(_bits(p.nodes()), _bits(want))
    assert np.array_equal(_bits(p.nodes(1, 3)), _bits(want[15:]))
    # written into row 0 of a zeroed jet: the same bits, other rows untouched
    jet = np.zeros((4, 30))
    row = jet[0]
    assert p.nodes(1, 3, out=row) is row
    assert np.array_equal(_bits(jet[0]), _bits(want[15:]))
    assert not jet[1:].any()


def test_rowwise_add_at_matches_2d_add_at():
    # the driver adds converged panels one jet row at a time; over sorted
    # owner lists with repeats that is the same sequence of adds per
    # element as one 2-D add.at, so the sums agree bit for bit
    rs = np.random.default_rng(6)
    N, K = 40, 4
    for trial in range(20):
        cols = np.sort(rs.integers(0, N, rs.integers(1, 400)))
        vals = rs.standard_normal((K, cols.size)) * 10.0 ** rs.integers(
            -12, 12, (K, cols.size))
        start = rs.standard_normal((N, K))
        old, new = start.copy(), start.copy()
        np.add.at(old, cols, vals.T)
        for k in range(K):
            np.add.at(new[:, k], cols, vals[k])
        assert np.array_equal(_bits(old), _bits(new))


def test_driver_returns_f_ordered_rows():
    # pinned layout: the result is the transpose of an (N, K) array, so it
    # is F-contiguous for K > 1.  numpy sums pairwise along a contiguous
    # axis and in sequence along a strided one, so reductions downstream
    # depend on the layout: a C-ordered copy of the same values moves the
    # last bits of 3.9's residual at verify seed 41
    K = 3
    data = adaptive_gk_batched(
        whole(lambda panels, cols: np.vstack([np.cos(panels.nodes())] * K)),
        np.zeros(5), np.linspace(0.5, 2.5, 5), K, CFG)
    assert data.shape == (K, 5)
    assert data.flags.f_contiguous and not data.flags.c_contiguous


# ---------------------------------------------------------------------------
# Panels.reduce asks a leaf integrand for its round in slices
# (quadrature._leaf_slices): whole 4-panel blocks, the remainder in the
# last slice.  Reduced so, each panel gets the bits of the whole-round
# matmuls.

_STEP = quadrature._leaf_slices(10**6)[1]  # panels per slice


def _round(K, npan, rs):
    vals = rs.standard_normal((K, 15 * npan)) * 10.0 ** rs.integers(
        -8, 8, (K, 15 * npan))
    # a NaN, infinities of both signs, and finite samples that overflow
    # in the weighted sum, in panels spread over the round
    hit = rs.choice(npan, 4, replace=False)
    vals[K - 1, 15 * hit[0] + 3] = np.nan
    vals[0, 15 * hit[1] + 7] = np.inf
    vals[K - 1, 15 * hit[2]] = -np.inf
    vals[0, 15 * hit[3]:15 * hit[3] + 15] = 1.5e308
    half = rs.uniform(1e-3, 1.0, npan)
    return vals, Panels(rs.uniform(-1.0, 1.0, npan), half,
                        np.arange(npan))


@pytest.mark.parametrize("K", [1, 4, 6, 8])
def test_sliced_round_matches_whole_round(K):
    rs = np.random.default_rng(K)
    for k in (1, 2, 5):
        for r in (0, 1, 2, 3, 5, 7):
            npan = k * _STEP + r
            vals, panels = _round(K, npan, rs)
            asked = []

            def values(lo, hi):
                asked.append(hi - lo)
                return vals[:, 15 * lo:15 * hi].copy()

            panels.reduce(values, True)
            assert len(asked) == k and sum(asked) == npan
            # the whole-round reduction, as one product each
            v = vals.reshape(K, npan, 15)
            with np.errstate(invalid="ignore", over="ignore"):
                i15 = (v @ WEIGHTS) * panels.half
                i7 = (v[:, :, GAUSS_IDX] @ GAUSS_W) * panels.half
                err = np.abs(i15 - i7)
            bad = ~np.isfinite(v).all(axis=(0, 2))
            assert bad.sum() == 3
            assert np.array_equal(_bits(panels.i15), _bits(i15))
            assert np.array_equal(_bits(panels.err), _bits(err))
            assert np.array_equal(panels.bad, bad)


def test_sliced_leaf_round_holds_no_node_length_array(scn_x, monkeypatch):
    # one round of 10^5 panels of a leaf integrand, at K=1: the callback
    # and its takes together peak below one (K, 15 * npan) array
    callbacks = []

    def keep(evalfn, lo, hi, K, cfg, on_noconv=None):
        callbacks.append(evalfn)
        return np.zeros((K, hi.size))

    monkeypatch.setattr(engine, "adaptive_gk_batched", keep)
    e = parse("int(s, base(p0), x, sin(s) * x)", Env(variables=("x",)))
    iset = IndexSet(("x",), [(1,)]).value_only()
    n = 50
    env = {"x": JetBatch.variable(iset, "x", np.linspace(0.2, 1.2, n))}
    eval_batch(e, env, EvalContext(iset, scn_x), n)
    npan = 10**5
    rs = np.random.default_rng(3)
    panels = Panels(rs.uniform(0.0, 1.0, npan), rs.uniform(1e-3, 0.1, npan),
                    np.sort(rs.integers(0, n, npan)))
    tracemalloc.start()
    try:
        callbacks[0](panels, panels.cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panels.i15.shape == (1, npan)
    assert np.isfinite(panels.i15).all() and not panels.bad.any()
    assert peak < 8 * 15 * npan
