"""Index sets and truncated jet algebra.

Jet products and compositions are checked against symbolic differentiation
of the corresponding closed forms, an independent derivation route.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegensol.numeric.jets import (
    IndexSet,
    JetBatch,
    jb_cos,
    jb_div,
    jb_exp,
    jb_ln,
    jb_mul,
    jb_powc,
    jb_powi,
    jb_reciprocal,
    jb_sin,
    jb_sqrt,
    jb_tan,
    set_partitions,
)


def test_index_set_downward_closed():
    iset = IndexSet(("t", "x"), {(2, 1)})
    got = set(iset.indices)
    want = {(i, j) for i in range(3) for j in range(2)}
    assert got == want


def test_index_set_caches_instances():
    a = IndexSet(("t", "x"), {(1, 1), (2, 0)})
    b = IndexSet(("t", "x"), {(2, 0), (1, 1)})
    assert a is b


def test_value_only():
    iset = IndexSet(("t", "x"), {(2, 1)})
    assert set(iset.value_only().indices) == {(0, 0)}


_idx = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    min_size=1, max_size=4,
).filter(lambda ls: all(sum(m) <= 3 for m in ls))


@settings(max_examples=100, deadline=None)
@given(_idx)
def test_closure_property(indices):
    iset = IndexSet(("t", "x"), set(indices))
    got = set(iset.indices)
    for mi in got:
        for k in range(len(mi)):
            if mi[k] > 0:
                down = tuple(m - (1 if i == k else 0) for i, m in
                             enumerate(mi))
                assert down in got
    for mi in indices:
        assert mi in got


def test_set_partitions_counts():
    # Bell numbers 1, 2, 5, 15 for n = 1..4                    [DERIVED]
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert len(list(set_partitions(list(range(n))))) == bell


def _poly_jet(iset, coeffs, tv, xv):
    """Exact jet of sum c_{ij} t^i x^j at (tv, xv)."""
    K = len(iset.indices)
    data = np.zeros((K, len(tv)))
    for k, (p, q) in enumerate(iset.indices):
        acc = np.zeros(len(tv))
        for (i, j), c in coeffs.items():
            if i >= p and j >= q:
                fall = 1.0
                for r in range(p):
                    fall *= i - r
                for r in range(q):
                    fall *= j - r
                acc += c * fall * tv ** (i - p) * xv ** (j - q)
        data[k] = acc
    return JetBatch(iset, data)


COEF_A = {(0, 0): 0.7, (1, 0): 0.4, (0, 1): -0.3, (1, 1): 0.2, (2, 0): 0.1}
COEF_B = {(0, 0): 1.3, (1, 0): -0.2, (0, 2): 0.15, (2, 1): 0.05}


def _prod_coeffs(a, b):
    out = {}
    for (i, j), c in a.items():
        for (p, q), d in b.items():
            out[(i + p, j + q)] = out.get((i + p, j + q), 0.0) + c * d
    return out


def test_jet_product_matches_polynomial_product():
    iset = IndexSet(("t", "x"), {(2, 1), (1, 2)})
    tv = np.array([0.3, 0.9, 1.4])
    xv = np.array([0.5, 1.1, 0.2])
    ja = _poly_jet(iset, COEF_A, tv, xv)
    jb = _poly_jet(iset, COEF_B, tv, xv)
    jab = jb_mul(ja, jb)
    ref = _poly_jet(iset, _prod_coeffs(COEF_A, COEF_B), tv, xv)
    assert np.allclose(jab.data, ref.data, rtol=1e-13, atol=1e-13)


def _fd_rows(fn, iset, tv, xv, h=1e-4):
    """Finite-difference jet of a scalar function; reference route."""
    rows = []
    for (p, q) in iset.indices:
        def D(t, x, p=p, q=q):
            if p == 0 and q == 0:
                return fn(t, x)
            if p > 0:
                return (D(t + h, x, p - 1, q) - D(t - h, x, p - 1, q)) / (2 * h)
            return (D(t, x + h, p, q - 1) - D(t, x - h, p, q - 1)) / (2 * h)
        rows.append([D(t, x) for t, x in zip(tv, xv)])
    return np.array(rows)


def test_exp_jet_vs_finite_differences():
    iset = IndexSet(("t", "x"), {(1, 1), (2, 0), (0, 2)})
    tv = np.array([0.3, 0.7])
    xv = np.array([0.5, 0.2])
    base = _poly_jet(iset, COEF_A, tv, xv)
    je, over = jb_exp(base)
    assert over is None

    def fn(t, x):
        return np.exp(sum(c * t**i * x**j for (i, j), c in COEF_A.items()))

    ref = _fd_rows(fn, iset, tv, xv)
    assert np.allclose(je.data, ref, rtol=2e-6, atol=2e-6)


def test_ln_sqrt_reciprocal_consistency():
    iset = IndexSet(("t", "x"), {(2, 1)})
    tv = np.array([0.5, 1.1])
    xv = np.array([0.9, 0.4])
    base = _poly_jet(iset, COEF_B, tv, xv)  # positive on these points
    ln_j, bad = jb_ln(base, 1e-13)
    assert bad is None or not bad.any()
    # exp(ln f) = f
    back, _ = jb_exp(ln_j)
    assert np.allclose(back.data, base.data, rtol=1e-11)
    # sqrt(f)^2 = f
    sq, bad2 = jb_sqrt(base, 1e-13)
    assert bad2 is None or not bad2.any()
    sq2 = jb_mul(sq, sq)
    assert np.allclose(sq2.data, base.data, rtol=1e-11)
    # f * (1/f) = 1
    inv, bad3 = jb_reciprocal(base, 1e-13)
    one = jb_mul(base, inv)
    val = one.data[0]
    assert np.allclose(val, 1.0, rtol=1e-12)
    assert np.allclose(one.data[1:], 0.0, atol=1e-10)


_G = 1e-8
_HALF_PI = np.pi / 2
# arguments, and which of them lie within _G of the singular set 0 (of the
# reciprocal and negative powers) or (-inf, 0] (of ln, sqrt, real powers)
_NEAR_ZERO = ([-1.0, -2 * _G, -0.5 * _G, 0.0, 0.5 * _G, 2 * _G, 1.0],
              [False, False, True, True, True, False, False])
_NONPOSITIVE = ([-1.0, -0.5 * _G, 0.0, 0.5 * _G, 2 * _G, 1.0],
                [True, True, True, True, False, False])
_GUARDED = {
    "div": (lambda a: jb_div(JetBatch.constants(a.iset, np.ones(a.n)), a, _G),
            *_NEAR_ZERO),
    "powi": (lambda a: jb_powi(a, -3, _G), *_NEAR_ZERO),
    "ln": (lambda a: jb_ln(a, _G), *_NONPOSITIVE),
    "sqrt": (lambda a: jb_sqrt(a, _G), *_NONPOSITIVE),
    "powc": (lambda a: jb_powc(a, 1.5, _G), *_NONPOSITIVE),
    # the singular set of tan is its poles pi/2 + k*pi, not its zeros
    "tan": (lambda a: jb_tan(a, _G),
            [0.0, 1e-9, _HALF_PI, _HALF_PI - 1e-12, _HALF_PI + 0.5 * _G,
             _HALF_PI + 2 * _G, np.pi, -_HALF_PI, 3 * _HALF_PI - 1e-10, 1.0],
            [False, False, True, True, True, False, False, True, True, False]),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_guard_poisons_exactly_its_singular_set(name):
    op, args, near = _GUARDED[name]
    near = np.array(near)
    iset = IndexSet(("x",), {(3,)})
    out, bad = op(JetBatch.variable(iset, "x", np.array(args)))
    assert bad is not None and np.array_equal(bad, near)
    assert np.isnan(out.data[:, near]).all()
    assert np.isfinite(out.data[:, ~near]).all()


def test_variable_jet_rows():
    iset = IndexSet(("t", "x"), {(1, 1)})
    xv = np.array([2.0, 3.0])
    jx = JetBatch.variable(iset, "x", xv)
    assert np.allclose(jx.value(), xv)
    pos_x = iset.pos[(0, 1)]
    assert np.allclose(jx.data[pos_x], 1.0)
    pos_t = iset.pos[(1, 0)]
    assert np.allclose(jx.data[pos_t], 0.0)


# -- value-only (K=1) route: bit-identical to row 0 of the full tables ------

K4 = IndexSet(("t", "x"), {(1, 1)})
_SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 2.5e300])


def _rows(seed):
    """K4 rows: two finite random columns, then NaN-poisoned, +-inf, +-0 and
    huge columns in a seed-dependent order."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-2.0, 2.0, (K4.K, 2 + _SPECIAL.size))
    data[:, 2:] = rng.permutation(_SPECIAL)
    return data


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b))


def test_k1_mul_is_row0_of_full_mul():
    a, b = _rows(1), _rows(2)
    vo = K4.value_only()
    with np.errstate(all="ignore"):
        full = K4.mul(a, b)
        one = vo.mul(a[:1], b[:1])
        assert _same(one, a[:1] * b[:1])
    assert one.shape == (1, a.shape[1])
    assert _same(full[0], one[0])


def test_k1_compose_is_row0_of_full_compose():
    u = _rows(3)
    phis = [_rows(4)[0], _rows(5)[0], _rows(6)[0]]
    with np.errstate(all="ignore"):
        full = K4.compose(phis, u)
        one = K4.value_only().compose(phis[:1], u[:1])
    assert one.shape == (1, u.shape[1])
    assert _same(full[0], one[0])


def test_k1_chain_is_row0_of_full_chain():
    us = [_rows(7), _rows(8)]
    f_at = {g: _rows(10 + i)[0] for i, g in enumerate(K4.needed_gammas(2))}
    vo = K4.value_only()
    assert vo.needed_gammas(2) == [(0, 0)]
    with np.errstate(all="ignore"):
        full = K4.chain(f_at, us)
        one = vo.chain({(0, 0): f_at[(0, 0)]}, [u[:1] for u in us])
    assert one.shape == (1, us[0].shape[1])
    assert _same(full[0], one[0])


@pytest.mark.parametrize("op", [pytest.param(lambda a: jb_exp(a)[0],
                                             id="jb_exp"),
                                pytest.param(lambda a: jb_sin(a)[0],
                                             id="jb_sin"),
                                pytest.param(lambda a: jb_cos(a)[0],
                                             id="jb_cos"),
                                lambda a: jb_ln(a, 1e-13)[0],
                                lambda a: jb_sqrt(a, 1e-13)[0],
                                lambda a: jb_reciprocal(a, 1e-13)[0],
                                lambda a: jb_mul(a, a)])
def test_k1_unary_ops_match_row0(op):
    jb = JetBatch(K4, _rows(20))
    with np.errstate(all="ignore"):
        full = op(jb)
        one = op(jb.value_rows())
    assert one.iset.K == 1
    assert _same(full.data[0], one.data[0])


def test_k1_results_share_no_memory_with_inputs():
    # at K=1 compose and chain hand back their fresh value row as the
    # jet's one row instead of copying it; an input's row must still be
    # copied, never aliased
    vo = K4.value_only()
    x = JetBatch.variable(vo, "t", np.linspace(0.1, 0.9, 7))
    e, _ = jb_exp(x)
    assert e.data.shape == (1, 7) and not np.shares_memory(e.data, x.data)
    u = x.data
    out = vo.compose([u[0]], u)
    assert np.array_equal(out, u) and not np.shares_memory(out, u)
    # a read-only broadcast of a width-1 derivative value over the batch:
    # chain must copy it
    arg = np.array([[0.5]])
    f0 = np.broadcast_to(np.exp(arg[0]), (7,))
    out = vo.chain({(0,): f0}, [arg])
    assert out.shape == (1, 7) and out.flags.writeable
    assert not np.shares_memory(out, f0) and not np.shares_memory(out, arg)
    fresh = np.exp(u[0])
    out = vo.chain({(0,): fresh}, [u])
    assert np.shares_memory(out, fresh) and not np.shares_memory(out, u)


def test_compose_table_third_order_one_variable():
    # d^3 phi(u) = phi''' u'^3 + 3 phi'' u' u'' + phi' u'''          [DERIVED]
    iset = IndexSet(("t",), {(3,)})
    got = sorted(iset._compose_table[iset.pos[(3,)]])
    u1, u2, u3 = (iset.pos[(k,)] for k in (1, 2, 3))
    assert got == sorted([(1, (u3,)), (2, (u1, u2)), (2, (u1, u2)),
                          (2, (u1, u2)), (3, (u1, u1, u1))])


def test_tan_jet_above_third_order():
    # d^4 tan = 8 T (1 + T^2)(2 + 3 T^2) and
    # d^5 tan = 8 (1 + T^2)(2 + 15 T^2 + 15 T^4), T = tan(x)        [DERIVED]
    iset = IndexSet(("x",), {(5,)})
    xs = np.array([-1.2, 0.3, 0.9, 2.5])
    out, bad = jb_tan(JetBatch.variable(iset, "x", xs), 1e-8)
    T = np.tan(xs)
    T2 = T * T
    assert bad is None
    assert np.allclose(out.data[iset.pos[(3,)]], (1 + T2) * (2 + 6 * T2),
                       rtol=1e-13)
    assert np.allclose(out.data[iset.pos[(4,)]], 8 * T * (1 + T2) * (2 + 3 * T2),
                       rtol=1e-13)
    assert np.allclose(out.data[iset.pos[(5,)]],
                       8 * (1 + T2) * (2 + 15 * T2 + 15 * T2 * T2), rtol=1e-13)


@pytest.mark.parametrize("orders", [[(1, 1)], [(2, 0), (1, 1), (0, 2)],
                                    [(2, 1), (1, 2)]],
                         ids=["K4", "K6", "K8"])
def test_boundary_accumulate_sums_the_live_entries(orders):
    # every zero pattern of the limit rows: the live entries give the
    # whole table's sum where every endpoint jet is finite (up to the sign
    # of a zero), and endpoint_orders names every order they use
    iset = IndexSet(("t", "x"), orders)
    rs = np.random.default_rng(3)
    n = 4
    for mask in range(1 << (iset.K - 1)):
        u = rs.uniform(-2.0, 2.0, (iset.K, n))
        for r in range(1, iset.K):
            if mask >> (r - 1) & 1:
                u[r] = 0.0
        out = rs.uniform(-1.0, 1.0, (iset.K, n))
        used = iset.endpoint_orders(u)
        jets = {k: rs.uniform(-3.0, 3.0, (iset.K, n)) for k in range(4)}
        want = out.copy()
        for k, entries in enumerate(iset._boundary_table):
            for order, beta_row, rows in entries:
                want[k] += jets[order][beta_row] * np.prod(u[list(rows)],
                                                           axis=0)
        got = out.copy()
        iset.boundary_accumulate(got, {k: jets[k] for k in used}, u)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
        assert sorted({e[0] for row in iset.live_boundary(u) for e in row}) \
            == used
        for row, live in zip(iset._boundary_table, iset.live_boundary(u)):
            assert [e for e in row if all(u[b].any() for b in e[2])] == live
