"""Batched expression evaluation: values, exact derivative jets, and the
failure surface (NaN-poisoned columns plus recorded cause kinds).

Every derivative produced by the engine is compared against either a hand
closed form or Richardson-improved central differences of the engine's own
values, which exercises a fully independent route (value evaluation plus
difference quotients vs jet algebra).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from pdegensol import expr_core as X
from pdegensol.catalog import family_ids, get_family
from pdegensol.expr_core import Env, parse
from pdegensol.numeric import (
    EvalContext,
    IndexSet,
    JetBatch,
    NestLimitExceeded,
    eval_batch,
    polynomial,
)
from pdegensol.numeric import engine, quadrature
from pdegensol.numeric.quadrature import Panels
from pdegensol.verifier import _scenario_rng, draw_scenario

from conftest import StubScenario, central_diff, mk_poly1, richardson
from test_expr_parse import ENV as PARSE_ENV, _texts


class _Col:
    """Column 0 of a one-column evaluation: value, raw partials by
    variable name, and the causes the context recorded."""

    def __init__(self, jb, ctx):
        self.data = jb.data[:, 0]
        self.iset = jb.iset
        self.value = float(self.data[0])
        self.kinds = [kind for kind, _node in ctx.causes]

    def d(self, **orders):
        mi = tuple(orders.get(v, 0) for v in self.iset.variables)
        return float(self.data[self.iset.pos[mi]])


def _jet(text, point, scn, orders):
    env = Env(variables=tuple(scn.variables),
              parameters=tuple(scn.parameters),
              functions={k: v.arity for k, v in scn.functions.items()})
    e = parse(text, env)
    iset = IndexSet(scn.variables, orders)
    jenv = {v: JetBatch.variable(iset, v, np.array([point[v]]))
            for v in scn.variables}
    ctx = EvalContext(iset, scn)
    return _Col(eval_batch(e, jenv, ctx, 1), ctx)


def test_values_and_derivatives_closed_form(scn_tx):
    j = _jet("exp(t*x) + x^3", {"t": 0.5, "x": 0.8}, scn_tx,
             [(2, 1), (0, 3)])
    t, x = 0.5, 0.8
    assert j.value == pytest.approx(math.exp(t * x) + x**3, rel=1e-14)
    assert j.d(x=1) == pytest.approx(t * math.exp(t * x) + 3 * x**2,
                                     rel=1e-13)
    # d/dt: x e^{tx}; d2/dt2: x^2 e^{tx}; d/dx of that:
    # 2x e^{tx} + x^2 t e^{tx}                                 [DERIVED]
    want = math.exp(t * x) * (2 * x + x * x * t)
    assert j.d(t=2, x=1) == pytest.approx(want, rel=1e-12)
    assert j.d(x=3) == pytest.approx(
        t**3 * math.exp(t * x) + 6.0, rel=1e-12)


def test_function_instance_derivatives_exact(scn_tx):
    F = mk_poly1("F", {0: 0.7, 1: 0.4, 2: -0.3, 3: 0.05}, sin_amp=0.2,
                 sin_freq=1.7, sin_phase=0.3)
    scn_tx.functions["F"] = F
    j = _jet("F(x)", {"t": 0.2, "x": 0.9}, scn_tx, [(0, 3)])
    x = 0.9

    def f(x):
        return (0.7 + 0.4 * x - 0.3 * x**2 + 0.05 * x**3
                + 0.2 * math.sin(1.7 * x + 0.3))

    assert j.value == pytest.approx(f(x), rel=1e-14)
    d1 = 0.4 - 0.6 * x + 0.15 * x**2 + 0.2 * 1.7 * math.cos(1.7 * x + 0.3)
    assert j.d(x=1) == pytest.approx(d1, rel=1e-13)
    d3 = 0.3 - 0.2 * 1.7**3 * math.cos(1.7 * x + 0.3)
    assert j.d(x=3) == pytest.approx(d3, rel=1e-12)


def test_composed_function_chain_rule(scn_tx):
    scn_tx.functions["G"] = mk_poly1("G", {0: 0.3, 1: 0.8, 2: 0.1})
    j = _jet("G(t*x + x^2)", {"t": 0.6, "x": 0.7}, scn_tx, [(1, 1)])
    t, x = 0.6, 0.7

    def g(u):
        return 0.3 + 0.8 * u + 0.1 * u * u

    def gp(u):
        return 0.8 + 0.2 * u

    u = t * x + x * x
    assert j.value == pytest.approx(g(u), rel=1e-14)
    assert j.d(t=1) == pytest.approx(gp(u) * x, rel=1e-13)
    # mixed: d/dt d/dx g(u) with u_x = t + 2x, u_t = x
    want = 0.2 * x * (t + 2 * x) + gp(u)
    assert j.d(t=1, x=1) == pytest.approx(want, rel=1e-12)


def test_integral_jet_exact_via_leibniz(scn_tx):
    # I(t, x) = int_0^x exp(t*xi) dxi; all derivatives have closed forms
    text = "int(xi, base(p0), x, exp(t*xi))"
    t, x = 0.7, 1.1
    j = _jet(text, {"t": t, "x": x}, scn_tx, [(2, 1), (1, 2), (0, 2)])
    exact = (math.exp(t * x) - 1.0) / t
    assert j.value == pytest.approx(exact, rel=1e-11)
    # dI/dx = e^{tx}; d2I/dx2 = t e^{tx}
    assert j.d(x=1) == pytest.approx(math.exp(t * x), rel=1e-12)
    assert j.d(x=2) == pytest.approx(t * math.exp(t * x), rel=1e-12)
    # dI/dt = int xi e^{t xi} = (x t e^{tx} - e^{tx} + 1)/t^2   [DERIVED]
    dt = (x * t * math.exp(t * x) - math.exp(t * x) + 1.0) / t**2
    assert j.d(t=1) == pytest.approx(dt, rel=1e-11)
    # d2I/dtdx = x e^{tx} (Leibniz through the upper limit)
    assert j.d(t=1, x=1) == pytest.approx(x * math.exp(t * x), rel=1e-12)


def test_integral_lower_base_point_offset(scn_tx):
    scn_tx.base_points["p0"] = 0.25
    j = _jet("int(xi, base(p0), x, 2*xi)", {"t": 0.5, "x": 1.0}, scn_tx,
             [(0, 1)])
    assert j.value == pytest.approx(1.0 - 0.25**2, rel=1e-12)
    assert j.d(x=1) == pytest.approx(2.0, rel=1e-12)


def test_expression_upper_limit(scn_tx):
    # the upper limit can be any expression of the variables
    j = _jet("int(xi, base(p0), t + x, 3*xi^2)", {"t": 0.4, "x": 0.6},
             scn_tx, [(1, 1)])
    s = 1.0
    assert j.value == pytest.approx(s**3, rel=1e-12)
    assert j.d(t=1) == pytest.approx(3 * s**2, rel=1e-12)
    assert j.d(t=1, x=1) == pytest.approx(6 * s, rel=1e-11)


def test_nested_integral_jet_vs_finite_difference(scn_tx):
    # two-level nest with the dummy crossing levels
    text = "int(xi, base(p0), x, exp(-int(eta, base(p1), xi, t + eta^2)))"
    t0, x0 = 0.5, 0.9
    j = _jet(text, {"t": t0, "x": x0}, scn_tx, [(1, 1)])

    def val(t, x):
        jj = _jet(text, {"t": t, "x": x}, scn_tx, [(0, 0)])
        return jj.value

    h = 1e-4
    fd_t = richardson(
        central_diff(lambda tt: val(tt, x0), t0, h),
        central_diff(lambda tt: val(tt, x0), t0, h / 2))
    assert j.d(t=1) == pytest.approx(fd_t, rel=1e-8)
    fd_x = richardson(
        central_diff(lambda xx: val(t0, xx), x0, h),
        central_diff(lambda xx: val(t0, xx), x0, h / 2))
    assert j.d(x=1) == pytest.approx(fd_x, rel=1e-8)
    # mixed by differencing the x-derivative in t
    def dx(t):
        return _jet(text, {"t": t, "x": x0}, scn_tx, [(0, 1)]).d(x=1)

    fd_tx = richardson(central_diff(dx, t0, h),
                       central_diff(dx, t0, h / 2))
    assert j.d(t=1, x=1) == pytest.approx(fd_tx, rel=1e-7)


def test_rootof_jet_through_integral(scn_x):
    # z(x) = root of  int_0^z e^{-u} du - x = 0  =>  z = -ln(1 - x)
    text = "rootof(Z, int(u, base(p0), Z, exp(-u)) - x, 0.5)"
    x0 = 0.6
    j = _jet(text, {"x": x0}, scn_x, [(2,)])
    z = -math.log(1.0 - x0)
    assert j.value == pytest.approx(z, abs=1e-10)
    # dz/dx = 1/phi_z = e^{z} = 1/(1-x)                        [DERIVED]
    assert j.d(x=1) == pytest.approx(1.0 / (1.0 - x0), rel=1e-9)
    assert j.d(x=2) == pytest.approx(1.0 / (1.0 - x0) ** 2, rel=1e-8)


def test_let_evaluation(scn_tx):
    j = _jet("let(s, t^2 + x, s*exp(s))", {"t": 0.5, "x": 0.3}, scn_tx,
             [(1, 1)])
    s = 0.55
    assert j.value == pytest.approx(s * math.exp(s), rel=1e-13)
    ds = math.exp(s) * (1 + s)
    assert j.d(x=1) == pytest.approx(ds, rel=1e-12)
    assert j.d(t=1) == pytest.approx(ds * 1.0, rel=1e-12)  # ds/dt = 2t = 1


def test_domain_error_raises_typed(scn_x):
    # the column is poisoned and the cause kind is recorded; nothing raises.
    # An integral with a NaN limit is NaN in every row, not a zero-length
    # integral
    for text, orders in [("ln(x - 2)", [(1,)]), ("sqrt(-x)", [(1,)]),
                         ("1/(x - 1/2)", [(0,)]),
                         ("int(xi, base(p0), sqrt(-x), xi + 1)", [(0,)]),
                         ("int(xi, base(p0), sqrt(-x), xi + 1)", [(1,)])]:
        j = _jet(text, {"x": 0.5}, scn_x, orders)
        assert np.isnan(j.data).all()
        assert j.kinds == ["domain"]


def test_root_not_found_raises(scn_x):
    j = _jet("rootof(Z, Z^2 + 1 + 0*x, 1)", {"x": 0.5}, scn_x, [(0,)])
    assert np.isnan(j.data).all()
    assert j.kinds == ["root"]


def test_degenerate_root_poisons_its_column(scn_x):
    # dPhi/dz = 3 Z^2 vanishes at the root Z = 0 of column 0 only; column 1
    # has z = 2 and dz/dx = 1/(3 z^2) = 1/12                    [DERIVED]
    e = parse("rootof(Z, Z^3 - x, 0.5)", Env(variables=("x",)))
    iset = IndexSet(("x",), {(1,)})
    ctx = EvalContext(iset, scn_x)
    env = {"x": JetBatch.variable(iset, "x", np.array([0.0, 8.0]))}
    jb = eval_batch(e, env, ctx, 2)
    assert np.isnan(jb.data[:, 0]).all()
    assert [kind for kind, _node in ctx.causes] == ["degenerate"]
    assert list(ctx.causes.values()) == [1]
    assert jb.data[0, 1] == pytest.approx(2.0, abs=1e-12)
    assert jb.data[1, 1] == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_nest_limit_raises(scn_x, monkeypatch):
    # nesting through the integrand (quadrature inside quadrature), the
    # thing the structural limit is for; chained upper limits do not count
    deep = "1"
    for i in range(6, -1, -1):
        up = "x" if i == 0 else f"d{i - 1}"
        deep = f"int(d{i}, base(p0), {up}, {deep})"
    monkeypatch.setattr(engine, "NEST_LIMIT", 3)
    with pytest.raises(NestLimitExceeded):
        _jet(deep, {"x": 0.5}, scn_x, [(0,)])


def test_batch_poison_is_per_column(scn_x):
    env1 = Env(variables=("x",))
    e = parse("ln(x)", env1)
    iset = IndexSet(("x",), {(1,)})
    xs = np.array([0.5, -1.0, 2.0])
    env = {"x": JetBatch.variable(iset, "x", xs)}
    ctx = EvalContext(iset, scn_x)
    jb = eval_batch(e, env, ctx, 3)
    assert np.isfinite(jb.data[:, 0]).all()
    assert np.isnan(jb.data[:, 1]).all()
    assert np.isfinite(jb.data[:, 2]).all()
    assert jb.data[0, 2] == pytest.approx(math.log(2.0))
    assert _kinds_and_counts(ctx) == [("domain", 1)]


def test_overflow_and_domain_columns_are_told_apart(scn_x):
    # in one power node, x = 0 is outside the domain and 1e-11^-30
    # overflows: each column is counted once, under its own kind
    e = parse("x^(-30)", Env(variables=("x",)))
    iset = IndexSet(("x",), {(1,)})
    env = {"x": JetBatch.variable(iset, "x", np.array([0.0, 1e-11, 2.0]))}
    ctx = EvalContext(iset, scn_x)
    jb = eval_batch(e, env, ctx, 3)
    assert np.isfinite(jb.data[:, 2]).all()
    assert sorted(_kinds_and_counts(ctx)) == [("domain", 1), ("overflow", 1)]


# every non-finite column has a recorded cause.  The stand-ins fit the
# parse tests' environment; the points cover [-3, 3]^2
_CAUSE_SCN = StubScenario(
    ("t", "x"), parameters={"a": 0.7, "b": -1.3, "c": 2.1},
    functions={"F": mk_poly1("F", {0: 0.4, 1: -0.8, 2: 0.3}),
               "G": mk_poly1("G", {0: 1.1, 1: 0.5})},
    base_points={"p0": 0.25})
_CAUSE_PTS = np.array([(t, x) for t in (-3.0, -1.1, 0.0, 1.7, 3.0)
                       for x in (-3.0, -0.4, 0.9, 3.0)])


def _causes_of_nonfinite(text, k):
    iset = _isets(("t", "x"))[k]
    n = len(_CAUSE_PTS)
    env = {v: JetBatch.variable(iset, v, _CAUSE_PTS[:, i].copy())
           for i, v in enumerate(("t", "x"))}
    ctx = EvalContext(iset, _CAUSE_SCN)
    with np.errstate(all="ignore"):
        jb = eval_batch(parse(text, PARSE_ENV), env, ctx, n)
    return np.isfinite(jb.data).all(axis=0), ctx.causes


@pytest.mark.parametrize("text, k", [
    (text, k) for text in ("exp(exp(exp(x)))",
                           "int(xi, base(p0), exp(exp(exp(x))), xi + 1)",
                           "F(exp(exp(exp(x))))^2",
                           "exp(exp(exp(x - 1.2)))^2",
                           "exp(exp(x + 3))*exp(exp(x + 3))",
                           "exp(x + 706.5) + exp(x + 706.4)",
                           "F(exp(x + 354))")
    for k in (0, 1)
] + [("(x + 3)^(exp(exp(x)))", k) for k in (0, 1)]
  + [("exp(exp(x + 1.5) - 14)^((x + 4)*exp(704))", 1),
     ("exp(exp(x + 3.56))", 1)]
  + [("exp(exp(x + 3.55))/exp(-5*x)", k) for k in (0, 1)])
def test_overflow_is_a_cause(text, k):
    # exp of a finite argument overflows at x = 3.  The power has a
    # variable exponent at K=5 only, which it evaluates as exp(p ln b); at
    # K=1 it is a real power of finite values that overflows.  The integer
    # power and the product overflow from finite factors: exp(exp(exp(1.8)))
    # and exp(exp(6)) are finite.  In the last power, p ln b overflows
    # from finite p and ln b at x = 3, and is negative at every other point.
    # exp(exp(6.56)) is finite, its x-derivative is not; and the quotient
    # overflows from a finite numerator and denominator.  The sum overflows
    # from two finite terms at x = 3, and F, a quadratic, from a finite
    # argument
    finite, causes = _causes_of_nonfinite(text, k)
    assert not finite.all()
    assert "overflow" in {kind for kind, _node in causes}


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_no_nonfinite_column_without_a_cause(text):
    for k in (0, 1):
        finite, causes = _causes_of_nonfinite(text, k)
        assert finite.all() or causes


# catalog trees on a grid that reaches outside the sample box onto domain
# walls (negative and zero coordinates, x = 3); the four costliest families
# take every fifth point.  Points further out cost minutes
_WALL_GRID = (-0.6, 0.0, 0.7, 1.9, 3.0)


@pytest.mark.parametrize("fid", family_ids())
def test_catalog_nonfinite_columns_have_causes(fid):
    fam, scn = _draw(fid)
    pts = np.array(list(itertools.product(_WALL_GRID,
                                          repeat=len(fam.variables))))
    if fid in ("3.7", "3.8", "4.3", "4.4"):
        pts = pts[::5]
    full = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    for iset in (full.value_only(), full):
        env = {v: JetBatch.variable(iset, v, pts[:, i].copy())
               for i, v in enumerate(fam.variables)}
        ctx = EvalContext(iset, scn)
        with np.errstate(all="ignore"):
            jb = eval_batch(fam.solution, env, ctx, len(pts))
        nonfinite = int((~np.isfinite(jb.data).all(axis=0)).sum())
        # each poisoned column is counted at least once, at the node that
        # poisoned it
        assert sum(ctx.causes.values()) >= nonfinite


def test_params_and_functions_resolve(scn_tx):
    scn_tx.parameters.update({"a": 1.4, "b": -0.6})
    scn_tx.functions["F"] = mk_poly1("F", {0: 1.0, 1: 2.0})
    j = _jet("a*F(x) + b", {"t": 0.1, "x": 0.5}, scn_tx, [(0, 1)])
    assert j.value == pytest.approx(1.4 * 2.0 - 0.6, rel=1e-14)
    assert j.d(x=1) == pytest.approx(2.8, rel=1e-14)


def test_two_argument_function_partials(scn_tx):
    q = polynomial("q", 2, {(0, 0): 0.2, (1, 0): 0.5, (0, 1): -0.3,
                            (1, 1): 0.7, (2, 0): 0.1})
    scn_tx.functions["q"] = q
    j = _jet("q(t, x) + D[1,0]q(t, x)", {"t": 0.4, "x": 0.8}, scn_tx,
             [(1, 1)])
    t, x = 0.4, 0.8
    val = (0.2 + 0.5 * t - 0.3 * x + 0.7 * t * x + 0.1 * t * t) \
        + (0.5 + 0.7 * x + 0.2 * t)
    assert j.value == pytest.approx(val, rel=1e-13)
    # d/dx of the whole thing: -0.3 + 0.7 t + 0.7
    assert j.d(x=1) == pytest.approx(-0.3 + 0.7 * t + 0.7, rel=1e-12)


# ---------------------------------------------------------------------------
# Width-1 scenario constants and leaf-integrand slicing leave every bit as
# it was.  Bits are compared on .view(np.int64), so signed zeros and NaN
# payloads count.


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _kinds_and_counts(ctx):
    return [(kind, n) for (kind, _node), n in ctx.causes.items()]


def _isets(variables):
    nv = len(variables)
    unit = [tuple(int(i == v) for i in range(nv)) for v in range(nv)]
    k4 = IndexSet(variables, [tuple(a + b for a, b in zip(unit[0], u))
                              for u in unit])
    return [k4.value_only(), k4]


def _constant_widths(monkeypatch):
    """Spy on engine._ev_node.  The returned list gets, for each
    parameter-only node it evaluates (no free name bound in the
    environment), (the node, the names bound in the environment, whether
    the node holds no integral or root, its width, the batch's width)."""
    seen = []
    real = engine._ev_node

    def spy(e, env, ctx, n, memo):
        out = real(e, env, ctx, n, memo)
        if e.free.isdisjoint(env):
            seen.append((e, frozenset(env), engine._is_leaf(e), out.n, n))
        return out

    monkeypatch.setattr(engine, "_ev_node", spy)
    return seen


def _width1_vs_full_width(e, env, scn, iset, n):
    """e evaluated twice in one context (the second pass warm-starts its
    roots from the first), and e with every Param replaced by a Var bound
    to a full-width constant jet, evaluated twice likewise."""
    names = sorted({p.name for p in X.walk(e) if isinstance(p, X.Param)})
    e2 = X.substitute(e, {nm: X.Var("par_" + nm) for nm in names})
    env2 = dict(env)
    for nm in names:
        env2["par_" + nm] = JetBatch.constants(
            iset, np.full(n, scn.parameters[nm]))
    ctx, ctx2 = EvalContext(iset, scn), EvalContext(iset, scn)
    with np.errstate(all="ignore"):
        first = eval_batch(e, env, ctx, n)
        first2 = eval_batch(e2, env2, ctx2, n)
        got = eval_batch(e, env, ctx, n)
        want = eval_batch(e2, env2, ctx2, n)
    assert names and e2 != e
    assert _same_bits(first.data, first2.data)
    assert _same_bits(got.data, first.data)
    return got, want, ctx, ctx2


def _draw(fid, npts=2):
    fam = get_family(fid)
    return fam, draw_scenario(fam, _scenario_rng(1, fid, 0), npts)


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_width1_constants_bit_identical_on_root_body(monkeypatch, k):
    fam, scn = _draw("3.7")
    body = next(r for r in X.walk(fam.solution)
                if isinstance(r, X.RootOf)).body
    iset = _isets(fam.variables)[k]
    n = 6
    rs = np.random.default_rng(3)
    env = {"t": JetBatch.variable(iset, "t", rs.uniform(0.2, 1.2, n)),
           "eta": JetBatch.constants(iset, rs.uniform(0.2, 1.2, n)),
           "Z": JetBatch.constants(iset, rs.uniform(0.5, 1.5, n))}
    widths = _constant_widths(monkeypatch)
    got, want, ctx, ctx2 = _width1_vs_full_width(body, env, scn, iset, n)
    assert got.data.shape == (iset.K, n)
    assert _same_bits(got.data, want.data)
    assert np.isfinite(got.data).all()
    # the parameter-only subtrees really were evaluated at width 1
    assert widths and {w for *_, w, _ in widths} == {1}


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_width1_constants_bit_identical_on_let(k):
    # 5.2's let-bound square root is, once expanded, a parameter-only
    # subtree inside its integrands
    fam, scn = _draw("5.2")
    assert "let(" in fam.sol_text
    iset = _isets(fam.variables)[k]
    rs = np.random.default_rng(5)
    n = 3
    env = {v: JetBatch.variable(iset, v, rs.uniform(0.2, 1.2, n))
           for v in fam.variables}
    got, want, _, _ = _width1_vs_full_width(fam.solution, env, scn, iset, n)
    assert got.data.shape == (iset.K, n)
    assert _same_bits(got.data, want.data)


# the helper evaluates twice: per pass, 15 nodes of each of the 5 columns in
# the integrand for xi/a, and the 5 columns once for 1/a, a column
# invariant of the integral; at K=4 the upper-limit boundary terms add 5
# columns to xi/a (the integrand at the limit) and none to 1/a (the dummy
# derivative), whose value the endpoint scope is seeded with
@pytest.mark.parametrize("k, xi_a, one_a", [(0, 150, 10), (1, 160, 10)],
                         ids=["K1", "K4"])
def test_width1_constants_keep_causes_of_division_below_guard(scn_tx, k, xi_a,
                                                              one_a):
    # a < DEN_GUARD: the Div with a width-1 denominator and the fully
    # constant Div count their poisoned columns alike
    scn_tx.parameters["a"] = 0.25 * engine.DEN_GUARD
    e = parse("int(xi, base(p0), x, xi/a + 1/a + t)",
              Env(variables=("t", "x"), parameters=("a",)))
    iset = _isets(("t", "x"))[k]
    n = 5
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, n))
           for v in ("t", "x")}
    got, want, ctx, ctx2 = _width1_vs_full_width(e, env, scn_tx, iset, n)
    assert _same_bits(got.data, want.data)
    assert np.isnan(got.data).all()
    assert _kinds_and_counts(ctx) == _kinds_and_counts(ctx2)
    assert {(kind, X.to_text(node)): c for (kind, node), c in ctx.causes.items()} \
        == {("domain", "xi/a"): xi_a, ("domain", "1/a"): one_a}


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_width1_base_under_variable_exponent(scn_tx, monkeypatch, k):
    # in the integrand, a width-1 base under a per-column exponent takes
    # the exponent's width; the constant inner integral is evaluated at
    # full width
    scn_tx.parameters["a"] = 1.7
    e = parse("int(eta, base(p0), x, a^eta + 2^(t*eta) + (a + 1)^(a*t)"
              " + eta*int(xi, base(p1), a, xi^2))",
              Env(variables=("t", "x"), parameters=("a",)))
    iset = _isets(("t", "x"))[k]
    n = 5
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, n))
           for v in ("t", "x")}
    widths = _constant_widths(monkeypatch)
    got, want, ctx, ctx2 = _width1_vs_full_width(e, env, scn_tx, iset, n)
    assert got.data.shape == (iset.K, n) and np.isfinite(got.data).all()
    assert _same_bits(got.data, want.data)
    assert not ctx.causes and not ctx2.causes
    assert {w for *_, leaf, w, _ in widths if leaf} == {1}
    assert all(w == m > 1 for *_, leaf, w, m in widths if not leaf)
    assert any(not leaf for *_, leaf, _, _ in widths)


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_parameter_only_subtrees_are_one_column_wide(scn_tx, monkeypatch, k):
    # the subtree sqrt(a*b + 1) at the top level, as a column invariant of
    # the integral (evaluated once in the enclosing scope, whose value the
    # upper limit's endpoint scope is seeded with at K=4), and in a root
    # body (its bisection and, at K=4, its Newton steps); eval_batch still
    # returns every column, of a constant tree too
    scn_tx.parameters.update(a=0.7, b=0.4)
    penv = Env(variables=("t", "x"), parameters=("a", "b"))
    sub = parse("sqrt(a*b + 1)", penv)
    e = parse("x*sqrt(a*b + 1) + int(xi, base(p0), x, xi*sqrt(a*b + 1))"
              " + rootof(Z, Z^3 + sqrt(a*b + 1)*Z - t, 1)", penv)
    iset = _isets(("t", "x"))[k]
    n = 5
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, n))
           for v in ("t", "x")}
    widths = _constant_widths(monkeypatch)
    ctx = EvalContext(iset, scn_tx)
    got = eval_batch(e, env, ctx, n)
    assert got.data.shape == (iset.K, n) and np.isfinite(got.data).all()
    assert not ctx.causes
    assert {w for *_, w, _ in widths} == {1}
    assert {names for node, names, *_ in widths if node == sub} \
        == {frozenset({"t", "x"}), frozenset({"t", "Z"})}
    assert any(m > 1 for node, *_, m in widths if node == sub)
    c = eval_batch(parse("sqrt(a*b + 1) + 2", penv), env, ctx, n)
    assert c.data.shape == (iset.K, n)
    want = math.sqrt(0.7 * 0.4 + 1) + 2
    assert np.array_equal(c.data[0], np.full(n, want))
    assert not c.data[1:].any()


_NESTED = ("int(xi, base(p0), x, F(xi)*exp(-a*xi)"
           " * int(eta, base(p1), xi, G(eta)*t + eta^2 + a))")


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_leaf_slicing_bit_identical(scn_tx, monkeypatch, k):
    scn_tx.parameters["a"] = 0.7
    scn_tx.functions["F"] = mk_poly1("F", {0: 0.3, 1: -0.8, 2: 0.4},
                                     sin_amp=0.2, sin_freq=1.3)
    scn_tx.functions["G"] = mk_poly1("G", {1: 1.1, 3: -0.2})
    e = parse(_NESTED, Env(variables=("t", "x"), parameters=("a",),
                           functions={"F": 1, "G": 1}))
    iset = _isets(("t", "x"))[k]
    n = 5
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, n))
           for v in ("t", "x")}
    out = {}
    for size in (7, 10**9):
        monkeypatch.setattr(quadrature, "_LEAF_SLICE", size)
        ctx = EvalContext(iset, scn_tx)
        out[size] = eval_batch(e, env, ctx, n).data
    assert np.isfinite(out[7]).all()
    assert _same_bits(out[7], out[10**9])


def test_leaf_slicing_keeps_causes(scn_tx, monkeypatch):
    # ln(eta - 0.3) is poisoned on part of the inner range: sliced, the
    # slices add up to the counts of one whole-batch evaluation
    e = parse("int(xi, base(p0), x, int(eta, base(p1), xi, ln(eta - 3/10)))",
              Env(variables=("t", "x")))
    iset = _isets(("t", "x"))[1]
    n = 4
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, n))
           for v in ("t", "x")}
    out, causes = {}, {}
    for size in (7, 10**9):
        monkeypatch.setattr(quadrature, "_LEAF_SLICE", size)
        ctx = EvalContext(iset, scn_tx)
        with np.errstate(all="ignore"):
            out[size] = eval_batch(e, env, ctx, n).data
        causes[size] = ctx.causes
    assert _same_bits(out[7], out[10**9])
    assert causes[7] == causes[10**9]
    assert causes[7] and {k for k, _ in causes[7]} == {"domain"}


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_rounds_reduced_in_their_callback(scn_tx, monkeypatch, k):
    # at 4-panel slices: every round is reduced inside its own integrand
    # callback, which returns nothing; the outer integral's rounds (its
    # integrand holds an integral) in one reduction over all panels, the
    # inner leaf rounds in whole 4-panel blocks that cover the round in
    # order, the last block taking the remainder
    scn_tx.parameters["a"] = 0.7
    scn_tx.functions["F"] = mk_poly1("F", {0: 0.3, 1: -0.8, 2: 0.4})
    scn_tx.functions["G"] = mk_poly1("G", {1: 1.1, 3: -0.2})
    e = parse(_NESTED, Env(variables=("t", "x"), parameters=("a",),
                           functions={"F": 1, "G": 1}))
    iset = _isets(("t", "x"))[k]
    n = 9
    env = {v: JetBatch.variable(iset, v, np.linspace(0.2, 1.2, n))
           for v in ("t", "x")}
    monkeypatch.setattr(quadrature, "_LEAF_SLICE", 7)
    calls, rounds, active = [], [], []
    take, quad = Panels.take, engine.adaptive_gk_batched

    def taken(panels, lo, hi, vals):
        assert active[-1][1] is panels
        active[-1][2].append((lo, hi))
        take(panels, lo, hi, vals)

    def tagged(evalfn, lo, hi, K, cfg, on_noconv=None):
        outer = not calls  # the first call is the outer integral
        calls.append(outer)

        def callback(panels, cols):
            active.append((outer, panels, []))
            assert evalfn(panels, cols) is None
            rounds.append(active.pop())
        return quad(callback, lo, hi, K, cfg, on_noconv)

    monkeypatch.setattr(Panels, "take", taken)
    monkeypatch.setattr(engine, "adaptive_gk_batched", tagged)
    got = eval_batch(e, env, EvalContext(iset, scn_tx), n).data
    assert np.isfinite(got).all()
    # the outer round of 9 panels would be sliced were it a leaf's
    assert [p.cols.size for outer, p, _ in rounds if outer][0] == n
    sliced = 0
    for outer, panels, slices in rounds:
        npan = panels.cols.size
        if outer or npan < 8:
            assert slices == [(0, npan)]
            continue
        sliced += 1
        assert [lo for lo, _ in slices] == list(range(0, 4 * len(slices), 4))
        assert all(hi - lo == 4 for lo, hi in slices[:-1])
        assert slices[-1][1] == npan and 4 <= npan - slices[-1][0] < 8
    assert sliced


class _Taken(Panels):
    """Panels that keep the values an integrand callback hands to take."""

    def take(self, lo, hi, vals):
        assert lo == sum(v.shape[1] for v in self.slices) // 15
        self.slices.append(vals.copy())

    def values(self, cb):
        """cb's values on these panels, taken in slices that cover the
        panels in order."""
        self.slices = []
        cb(self, self.cols)
        got = np.hstack(self.slices)
        assert got.shape[1] == self.size
        return got


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 2.5e300, 0.75]


@pytest.mark.parametrize("npan", [5, 2 * (quadrature._LEAF_SLICE // 15) + 3],
                         ids=["whole", "sliced"])
@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_integrand_callback_environment_bits(scn_tx, monkeypatch, k, npan):
    # the callback's environment, read back through the integrands t,
    # t*eta and eta: a bound name gathered per panel and repeated to its
    # 15 nodes, and the dummy's jet built in place, equal bit for bit to
    # gathering by node owners and to JetBatch.constants of the nodes, on
    # columns that hold NaN, infinities, -0.0 and huge values in every jet
    # row.  eta alone binds no name, so its callback runs at K=1
    iset = _isets(("t", "x"))[k]
    n = len(_SPECIAL)
    t = np.array([np.roll(_SPECIAL, r) for r in range(iset.K)])
    env = {"t": JetBatch(iset, t),
           "x": JetBatch.variable(iset, "x", np.linspace(0.2, 1.2, n))}
    callbacks = []

    def keep(evalfn, lo, hi, K, cfg, on_noconv=None):
        callbacks.append(evalfn)
        return np.zeros((K, hi.size))

    monkeypatch.setattr(engine, "adaptive_gk_batched", keep)
    for integrand in ("t", "t*eta", "eta"):
        e = parse(f"int(eta, base(p0), x, {integrand})", Env(variables=("t", "x")))
        with np.errstate(all="ignore"):
            eval_batch(e, env, EvalContext(iset, scn_tx), n)
    rs = np.random.default_rng(7)
    panels = _Taken(rs.uniform(-1.0, 1.0, npan), rs.uniform(1e-3, 1.0, npan),
                    np.sort(rs.integers(0, n, npan)))
    with np.errstate(all="ignore"):
        got_t, got_t_eta, got_eta = [panels.values(cb) for cb in callbacks]
        t_at = t[:, np.repeat(panels.cols, 15)]
        want = iset.mul(t_at, JetBatch.constants(iset, panels.nodes()).data)
    assert _same_bits(got_t, t_at)
    assert _same_bits(got_t_eta, want)
    assert _same_bits(got_eta, JetBatch.constants(iset.value_only(),
                                                  panels.nodes()).data)


# ---------------------------------------------------------------------------
# Hash-consing: structurally equal subtrees become one object, which the
# id-keyed memo evaluates once per scope, and every output bit stays.


def _solution_jets(fam, scn, iset):
    env = {v: JetBatch.variable(iset, v, scn.points[:, i].copy())
           for i, v in enumerate(fam.variables)}
    ctx = EvalContext(iset, scn)
    with np.errstate(all="ignore"):
        jb = eval_batch(fam.solution, env, ctx, len(scn.points))
    return jb.data, ctx.causes


@pytest.mark.parametrize("fid", ["3.7", "3.8", "4.3", "5.2", "3.3", "6.4"])
def test_interning_bit_identical(monkeypatch, fid):
    fam, scn = _draw(fid, npts=3)
    full = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    for iset in (full.value_only(), full):
        interned = _solution_jets(fam, scn, iset)
        with monkeypatch.context() as m:
            # no interning anywhere, symbolic derivatives included
            m.setattr(engine, "_interned", lambda e: e, raising=False)
            m.setattr(engine, "_dderivs",
                      engine._NodeCache(lambda e: {0: e.integrand}))
            m.setattr(engine, "_root_derivative", engine._NodeCache(
                lambda e: X.simplify(X.differentiate(e.body, e.dummy))))
            plain = _solution_jets(fam, scn, iset)
        assert _same_bits(interned[0], plain[0])
        assert np.isfinite(interned[0]).all()
        # a merged repeat is evaluated, and counts its causes, once: the
        # same (kind, node) pairs are recorded, and the verifier reads kinds
        assert set(interned[1]) == set(plain[1])


def test_interning_shares_subtrees_and_keeps_roots():
    env = Env(variables=("t", "x"))
    e = parse("sin(x*t) + sin(x*t)*exp(sin(x*t))"
              " + rootof(Z, Z^2 - x, 1) + rootof(Z, Z^2 - x, 1)", env)
    c = engine._interned(e)
    assert c == e and engine._interned(c) is c
    sins = [n for n in X.walk(c) if isinstance(n, X.Sin)]
    assert len(sins) == 3 and all(s is sins[0] for s in sins)
    # every RootOf is the original object, equal roots stay apart
    roots = [n for n in X.walk(e) if isinstance(n, X.RootOf)]
    kept = [n for n in X.walk(c) if isinstance(n, X.RootOf)]
    assert len(kept) == 2 and kept[0] is not kept[1]
    assert all(a is b for a, b in zip(kept, roots))
    # a catalog solution: roots kept by identity, repeats shared
    sol = get_family("3.8").solution
    c = engine._interned(sol)
    assert [id(n) for n in X.walk(c) if isinstance(n, X.RootOf)] == \
        [id(n) for n in X.walk(sol) if isinstance(n, X.RootOf)]
    assert len({id(n) for n in X.walk(c)}) < len({id(n) for n in X.walk(sol)})


def test_interning_a_known_structure_builds_no_node(monkeypatch):
    # _intern looks a node up by its class, literal fields and canonical
    # children before it builds anything: a fresh copy of a tree whose
    # structure is already in the table, or the canonical tree itself seen
    # through a fresh node cache, comes back canonical with no construction
    fam = get_family("4.4")
    canon = engine._interned(fam.solution)
    copy = parse(fam.sol_text, Env(variables=fam.variables,
                                   parameters=fam.parameters,
                                   functions=fam.functions))
    assert copy == fam.solution and copy is not fam.solution
    built = []
    init = X.Expr._init_caches
    monkeypatch.setattr(X.Expr, "_init_caches",
                        lambda self: built.append(self) or init(self))
    monkeypatch.setattr(engine, "_interned", engine._NodeCache(engine._intern))
    assert engine._interned(canon) is canon
    assert engine._interned(copy) is canon
    assert built == []


# ---------------------------------------------------------------------------
# A root's column constants (the subtrees of its body and z-derivative free
# of its dummy) are evaluated once per column set of a solve, and every
# output bit and cause count stays.


def _fresh_memo_per_call(m):
    # no column constants in any root: every body evaluation starts from an
    # empty memo
    m.setattr(engine, "_column_constants", lambda e: frozenset())


@pytest.mark.parametrize("fid", ["5.2", "5.3"])
def test_root_column_constants_bit_identical(monkeypatch, fid):
    fam, scn = _draw(fid, npts=4)
    full = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    for iset in (full.value_only(), full):
        carried = _solution_jets(fam, scn, iset)
        with monkeypatch.context() as m:
            _fresh_memo_per_call(m)
            fresh = _solution_jets(fam, scn, iset)
        assert _same_bits(carried[0], fresh[0])
        assert np.isfinite(carried[0]).all()
        assert list(carried[1].items()) == list(fresh[1].items())


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_root_column_constants_keep_causes(scn_tx, monkeypatch, k):
    # ln(Z) walls off the bracket search below Z = 0, which column 0 (root
    # near 0.25) reaches before any sign change; column 2's exp(800*x)
    # overflows on every call, and 1/inf = 0 keeps its body finite, so
    # the calls of its whole solve record a cause and carry nothing
    e = parse("rootof(Z, ln(Z) - int(xi, base(p0), x, xi + t) + 1/exp(800*x), 1)",
              Env(variables=("t", "x")))
    iset = _isets(("t", "x"))[k]
    t = np.array([-3.0, -3.0, 1.0, 0.5])
    x = np.array([0.5, 0.3, 0.95, 0.4])

    def run():
        env = {"t": JetBatch.variable(iset, "t", t),
               "x": JetBatch.variable(iset, "x", x)}
        ctx = EvalContext(iset, scn_tx)
        with np.errstate(all="ignore"):
            jb = eval_batch(e, env, ctx, t.size)
        return jb.data, ctx.causes

    carried = run()
    with monkeypatch.context() as m:
        _fresh_memo_per_call(m)
        fresh = run()
    assert _same_bits(carried[0], fresh[0])
    assert list(carried[1].items()) == list(fresh[1].items())
    kinds = {kind for (kind, _node), c in carried[1].items() if c}
    assert {"domain", "overflow", "root"} <= kinds
    assert np.isnan(carried[0][:, 0]).all()
    assert np.isfinite(carried[0][0, 1:]).all()


def test_root_column_constants_evaluated_once_per_column_set(monkeypatch):
    # one value-only solve of 5.2 on 20 columns: a fresh memo per body call
    # evaluates its two integrals over xi on every call
    fam, scn = _draw("5.2", npts=20)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values())).value_only()
    solve = engine.rootfind.bracket_bisect_newton
    quad = engine.adaptive_gk_batched

    def calls():
        n = {"quad": 0, "body": 0, "body_z": 0}

        def counted(f, key):
            def g(zs, cols):
                n[key] += 1
                return f(zs, cols)
            return g

        def count_quad(*args):
            n["quad"] += 1
            return quad(*args)

        with monkeypatch.context() as m:
            m.setattr(engine, "adaptive_gk_batched", count_quad)
            m.setattr(engine.rootfind, "bracket_bisect_newton",
                      lambda f, fp, seeds, cfg: solve(
                          counted(f, "body"), counted(fp, "body_z"), seeds, cfg))
            _solution_jets(fam, scn, iset)
        return n

    carried = calls()
    with monkeypatch.context() as m:
        _fresh_memo_per_call(m)
        fresh = calls()
    assert carried["body"] == fresh["body"] > 60
    assert carried["body_z"] == fresh["body_z"]
    # (5.2's z-derivative, 2*Z, holds no integral)
    assert fresh["quad"] == 2 * fresh["body"]
    assert 10 * carried["quad"] < fresh["quad"]


# ---------------------------------------------------------------------------
# An integrand whose bound names carry all-zero derivative rows is
# integrated at K=1 and lifted to the driver's K-row layout; every output
# bit and cause stays.  The rule is turned off here by patching its
# structural test, engine._liftable, to refuse every integrand.


def _never_lifted(m):
    m.setattr(engine, "_liftable", lambda e: False)


def _driver_ks(m):
    """The K of every quadrature driver call from now on."""
    ks = []
    quad = engine.adaptive_gk_batched

    def spy(evalfn, lo, hi, K, cfg, on_noconv=None):
        ks.append(K)
        return quad(evalfn, lo, hi, K, cfg, on_noconv)

    m.setattr(engine, "adaptive_gk_batched", spy)
    return ks


@pytest.mark.parametrize("fid", [f for f in family_ids()
                                 if get_family(f).sol_depth])
def test_value_only_integrands_bit_identical(monkeypatch, fid):
    fam, scn = _draw(fid, npts=3)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    with monkeypatch.context() as m:
        ks_on = _driver_ks(m)
        lifted = _solution_jets(fam, scn, iset)
    with monkeypatch.context() as m:
        _never_lifted(m)
        ks_off = _driver_ks(m)
        plain = _solution_jets(fam, scn, iset)
    assert iset.K > 1
    assert _same_bits(lifted[0], plain[0])
    assert np.isfinite(lifted[0]).all()
    assert set(lifted[1]) == set(plain[1])
    if fid in ("4.3", "4.4"):
        # the nests below depth 1 run at K=1
        assert 1 in ks_on and 1 not in ks_off


_LIFT_ENV = Env(variables=("t", "x", "u"))


def _lift_case(monkeypatch, scn, text, u, t):
    """text evaluated with u and t bound with all-zero derivative rows (a
    NaN column is NaN in every row) and x as the variable: at K4 with the
    rule on, at K4 with it off, and at K=1.  Each gives its jet and cause
    tally; the first also the K of every driver call."""
    e = parse(text, _LIFT_ENV)
    k4 = _isets(("t", "x"))[1]
    n = u.size

    def run(iset):
        env = {"t": JetBatch.constants(iset, t),
               "x": JetBatch.variable(iset, "x", np.linspace(0.2, 1.2, n)),
               "u": JetBatch.constants(iset, u)}
        for jb in env.values():
            jb.data[:, np.isnan(jb.data[0])] = np.nan
        ctx = EvalContext(iset, scn)
        with np.errstate(all="ignore"):
            return eval_batch(e, env, ctx, n).data, ctx.causes

    with monkeypatch.context() as m:
        ks = _driver_ks(m)
        on = run(k4)
    with monkeypatch.context() as m:
        _never_lifted(m)
        off = run(k4)
    return on, off, run(k4.value_only()), ks


_ONES = np.ones(4)


# lifted: whether the rule integrates at K=1; hi: the upper limit's sign
# per column, where it has no derivative rows and so adds no boundary term
@pytest.mark.parametrize("text, u, t, lifted, hi", [
    # hi below, at (+0.0 and -0.0) and above the base point 0
    ("int(s, base(p0), u, exp(s) + s^2)",
     np.array([-0.7, 0.0, -0.0, 1.1]), _ONES, True,
     np.array([-1.0, 0.0, -0.0, 1.0])),
    # a NaN upper limit (sqrt(-1)), whose NaN rows add boundary terms,
    # and one below the base point
    ("int(s, base(p0), sqrt(u) - 1/2, exp(s)*t)",
     np.array([0.49, -1.0, 2.0, 0.04]), _ONES, True, None),
    # the integrand is poisoned on part of column 1's range
    ("int(s, base(p0), u, ln(s - t))",
     _ONES, np.array([-1.0, 0.5, -2.0, -1.0]), True, _ONES),
    # a bound name poisoned in column 2: its NaN rows keep the K path
    ("int(s, base(p0), u, exp(s)*t)",
     _ONES, np.array([1.0, 2.0, np.nan, 0.5]), False, None),
    # a root inside: jet-Newton moves row 0 at K > 1
    ("int(s, base(p0), u, rootof(Z, Z^3 + Z - s*t, 1))",
     np.array([0.3, 0.6, -0.4, 1.0]), _ONES, False, None),
], ids=["reversed", "nan_limit", "poisoned_integrand", "poisoned_name",
        "rootof"])
def test_lifted_integral_bits(scn_tx, monkeypatch, text, u, t, lifted, hi):
    on, off, k1, ks = _lift_case(monkeypatch, scn_tx, text, u, t)
    assert _same_bits(on[0], off[0])
    assert on[1] == off[1]
    K = on[0].shape[0]
    assert ks == ([1] if lifted else [K])
    if lifted:
        assert _same_bits(on[0][0], k1[0][0])
    if hi is not None:
        # row 0 is the K=1 integral, the other rows +0.0 where hi >= 0,
        # -0.0 where hi < 0 and NaN where the integral failed
        want = np.where(np.isnan(k1[0][0]), np.nan,
                        np.where(hi >= 0.0, 0.0, -0.0))
        assert _same_bits(on[0][1:], np.tile(want, (K - 1, 1)))


def test_variable_real_exponent_stays_on_the_k_path(scn_tx, monkeypatch):
    # _ev_pow picks b**e when the exponent's derivative rows are all zero
    # and exp(e*ln(b)) otherwise, over the whole batch.  Column 1's
    # sqrt(t - s) is poisoned for s > 0.1, and its NaN rows turn every
    # column of the K path's first round to exp(e*ln(b)), where K=1 takes
    # b**e: the two differ in last bits on the healthy columns.  So an
    # integrand with a non-integer power is never lifted
    text = "int(s, base(p0), u, (1 + s)^sqrt(t - s))"
    u = np.full(4, 0.3)
    t = np.array([2.0, 0.1, 1.5, 3.0])
    on, off, k1, ks = _lift_case(monkeypatch, scn_tx, text, u, t)
    assert ks == [on[0].shape[0]]
    assert _same_bits(on[0], off[0]) and on[1] == off[1]
    healthy = [0, 2, 3]
    assert np.isnan(k1[0][0, 1]) and np.isfinite(k1[0][0, healthy]).all()
    # lifted regardless, it would give the K=1 bits, which are not the K
    # path's; without the poisoned column they are
    with monkeypatch.context() as m:
        m.setattr(engine, "_liftable", lambda e: True)
        forced = _lift_case(monkeypatch, scn_tx, text, u, t)[0]
        assert not _same_bits(forced[0][0, healthy], off[0][0, healthy])
        t[1] = 2.5
        forced, off = _lift_case(monkeypatch, scn_tx, text, u, t)[:2]
        assert _same_bits(forced[0], off[0])


def test_damped_overflow_is_integrated_at_k1(scn_tx, monkeypatch):
    # the one place the rule moves bits: (10^100*s)^8 overflows to inf and
    # exp(-inf) = 0 brings the value back.  The K path's derivative rows
    # meet inf*0 there, so its integrand is NaN in every derivative row and
    # the column fails; lifted, the column integrates its finite values as
    # the K=1 evaluation does.  Both record the overflow
    text = "int(s, base(p0), u, exp(-(10^100*s)^8))"
    on, off, k1, ks = _lift_case(monkeypatch, scn_tx, text,
                                 np.array([0.5, 0.8]), np.ones(2))
    assert ks == [1]
    assert np.isnan(off[0]).all()
    assert _same_bits(on[0][0], k1[0][0]) and np.isfinite(on[0][0]).all()
    assert set(on[1]) == set(off[1]) == set(k1[1])
    assert {kind for kind, _node in on[1]} == {"overflow"}


# ---------------------------------------------------------------------------
# An integrand's column invariants (the subtrees free of every dummy bound
# in it, with no integral, root or non-integer power inside) are evaluated
# once per integral call in the enclosing scope and spread to the nodes;
# every output bit and cause kind stays.  The rule is turned off here by
# patching engine._invariants to find none.


def _no_invariants(m):
    m.setattr(engine, "_invariants", lambda e: ())


@pytest.mark.parametrize("fid", [f for f in family_ids()
                                 if get_family(f).sol_depth])
def test_column_invariants_bit_identical(monkeypatch, fid):
    fam, scn = _draw(fid, npts=3)
    full = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    for iset in (full.value_only(), full):
        on = _solution_jets(fam, scn, iset)
        with monkeypatch.context() as m:
            _no_invariants(m)
            off = _solution_jets(fam, scn, iset)
        assert _same_bits(on[0], off[0])
        assert np.isfinite(on[0]).all()
        assert {k for k, _ in on[1]} == {k for k, _ in off[1]}


_INV_ENV = Env(variables=("t", "x", "u"), parameters=("a",),
               functions={"F": 1})


def _invariant_case(monkeypatch, scn, text, env, iset):
    """text evaluated on env with the rule on and off, each as (jet, cause
    tally); the jets must agree bit for bit."""
    e = engine._interned(parse(text, _INV_ENV))

    def run():
        ctx = EvalContext(iset, scn)
        with np.errstate(all="ignore"):
            return eval_batch(e, env, ctx, env["x"].n).data, ctx.causes

    on = run()
    with monkeypatch.context() as m:
        _no_invariants(m)
        off = run()
    assert _same_bits(on[0], off[0])
    return e, on, off


def _invariant_texts(e):
    """The column invariants of every integral in e, as text."""
    return {X.to_text(t) for i in X.walk(e) if isinstance(i, X.Integral)
            for t in engine._invariants(i)}


def _tx_env(iset, t, x):
    return {"t": JetBatch.variable(iset, "t", np.asarray(t, dtype=float)),
            "x": JetBatch.variable(iset, "x", np.asarray(x, dtype=float))}


@pytest.fixture
def scn_inv(scn_tx):
    scn_tx.parameters["a"] = 0.7
    scn_tx.functions["F"] = mk_poly1("F", {0: 0.3, 1: -0.8, 2: 0.4})
    return scn_tx


@pytest.mark.parametrize("size", [7, None], ids=["sliced", "whole"])
@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_nested_invariants_bits(scn_inv, monkeypatch, k, size):
    # the outer upper limit t has derivative rows at K=4, so boundary terms
    # run; sin(x*t) and F(x) are invariants of both integrals, and the inner
    # integral finds them in its callback's seeded memo, spread slice by
    # slice at 7-node slices (whole 4-panel blocks)
    text = ("int(xi, base(p0), t, exp(a*x)*xi"
            " + int(eta, base(p1), xi, sin(x*t)*eta + F(x)))")
    if size:
        monkeypatch.setattr(quadrature, "_LEAF_SLICE", size)
    iset = _isets(("t", "x"))[k]
    env = _tx_env(iset, np.linspace(0.2, 1.2, 5), np.linspace(0.3, 0.9, 5))
    sin_evals = []
    real = engine._ev_node

    def spy(e, env, ctx, n, memo):
        if isinstance(e, X.Sin):
            sin_evals.append(n)
        return real(e, env, ctx, n, memo)

    monkeypatch.setattr(engine, "_ev_node", spy)
    e, on, off = _invariant_case(monkeypatch, scn_inv, text, env, iset)
    assert np.isfinite(on[0]).all() and not on[1] and not off[1]
    assert {"exp(a*x)", "sin(x*t)", "F(x)"} <= _invariant_texts(e)
    if not k:
        # once per call on the 5 columns with the rule on; with it off, at
        # the inner nodes of every callback
        assert sin_evals[0] == 5 and len(sin_evals) > 1
        assert all(m > 5 for m in sin_evals[1:])


def test_lifted_integrand_with_invariant_bits(scn_inv, monkeypatch):
    # t and u bound with all-zero derivative rows: the integral is lifted,
    # and its invariant cos(t*u) is evaluated at K and cut to its value row
    text = "int(s, base(p0), u, exp(s)*cos(t*u) + t)"
    iset = _isets(("t", "x"))[1]
    env = _tx_env(iset, np.zeros(4), np.linspace(0.2, 1.2, 4))
    env["t"] = JetBatch.constants(iset, np.array([0.5, 1.0, 2.0, -1.5]))
    env["u"] = JetBatch.constants(iset, np.array([0.3, -0.6, 1.1, 0.0]))
    with monkeypatch.context() as m:
        ks = _driver_ks(m)
        e, on, off = _invariant_case(monkeypatch, scn_inv, text, env, iset)
    assert ks == [1, 1] and np.isfinite(on[0]).all()
    assert "cos(t*u)" in _invariant_texts(e)


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_wholly_invariant_integrand_bits(scn_inv, monkeypatch, k):
    text = "int(xi, base(p0), x, t^2 + a)"
    iset = _isets(("t", "x"))[k]
    env = _tx_env(iset, np.linspace(0.2, 1.2, 5), np.linspace(-0.5, 0.9, 5))
    e, on, off = _invariant_case(monkeypatch, scn_inv, text, env, iset)
    assert engine._invariants(e) == (e.integrand,)
    assert np.isfinite(on[0]).all()
    assert np.allclose(on[0][0], (env["t"].data[0]**2 + 0.7) * env["x"].data[0])


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_poisoning_invariant_counts_once_per_call(scn_inv, monkeypatch, k):
    # sqrt(t - 1) is poisoned in the 4 columns where t < 1: the rule counts
    # them once per call, per-node evaluation at every node it visits
    text = "int(xi, base(p0), x, xi*sqrt(t - 1))"
    iset = _isets(("t", "x"))[k]
    env = _tx_env(iset, np.linspace(0.2, 1.2, 5), np.linspace(0.3, 0.9, 5))
    e, on, off = _invariant_case(monkeypatch, scn_inv, text, env, iset)
    assert np.isnan(on[0][:, :4]).all() and np.isfinite(on[0][:, 4]).all()
    assert set(on[1]) == set(off[1])
    assert {(kind, X.to_text(node)) for kind, node in on[1]} \
        == {("domain", "sqrt(t - 1)")}
    got, was = sum(on[1].values()), sum(off[1].values())
    assert got < was
    if not k:
        assert got == 4


def test_invariant_counted_on_a_zero_length_column(scn_inv, monkeypatch):
    # column 0's upper limit is the base point, so the driver never visits
    # it and its integral is 0 whatever the integrand; the invariant
    # sqrt(t - 1), poisoned there only, is counted there with the rule on
    text = "int(xi, base(p0), x, xi*sqrt(t - 1))"
    iset = _isets(("t", "x"))[0]
    env = _tx_env(iset, [0.5, 2.0, 3.0], [0.0, 0.5, 1.0])
    e, on, off = _invariant_case(monkeypatch, scn_inv, text, env, iset)
    assert np.isfinite(on[0]).all() and on[0][0, 0] == 0.0
    assert {(kind, X.to_text(node)): c for (kind, node), c in on[1].items()} \
        == {("domain", "sqrt(t - 1)"): 1}
    assert not off[1]


@pytest.mark.parametrize("k", [0, 1], ids=["K1", "K4"])
def test_real_powers_and_roots_stay_in_place(scn_inv, monkeypatch, k):
    # (t + 1)^(a*t) picks its method from the whole batch and a RootOf
    # keeps its seeds: neither is hoisted, the RootOf is not descended
    # into, and the RootOf evaluated is the tree's own object
    text = ("int(xi, base(p0), x, xi*(t + 1)^(a*t)"
            " + xi*rootof(Z, Z^3 + Z - t, 1)"
            " + rootof(Z, Z^3 + Z - xi*t, 1))")
    iset = _isets(("t", "x"))[k]
    env = _tx_env(iset, np.linspace(0.2, 1.2, 4), np.linspace(0.3, 0.9, 4))
    roots = []
    real = engine._ev_rootof

    def spy(e, env, ctx, n, memo):
        # in a callback; at K=4 the boundary terms' dummy derivatives hold
        # roots of their own
        if ctx.depth:
            roots.append(e)
        return real(e, env, ctx, n, memo)

    monkeypatch.setattr(engine, "_ev_rootof", spy)
    e, on, off = _invariant_case(monkeypatch, scn_inv, text, env, iset)
    assert np.isfinite(on[0]).all() and not on[1] and not off[1]
    assert _invariant_texts(e) == {"t + 1", "a*t"}
    own = [r for r in X.walk(e) if isinstance(r, X.RootOf)]
    assert len(own) == 2 and roots
    assert all(any(r is o for o in own) for r in roots)


# ---------------------------------------------------------------------------
# An integral's upper-limit terms are evaluated in one endpoint scope per
# (dummy, upper-limit node) of the enclosing memo, shared by every
# derivative order and every sibling integral; every output bit and cause
# kind stays.  The reference is the per-order path: each dummy derivative
# evaluated at the limit with a fresh eval_batch.


def _per_order_boundary(m):
    """Patch engine._ev_integral to the per-order path, nested integrals
    included.  The integral's interior comes from the engine with the upper
    limit replaced by a name bound to its values (zero derivative rows, so
    no boundary terms); each dummy derivative is then evaluated at the
    limit with a fresh eval_batch and added with boundary_accumulate.
    Returns the list of integrals that took the boundary terms."""
    real = engine._ev_integral
    stand_ins = {}
    took = []

    def ref(e, env, ctx, n, memo):
        iset = ctx.iset
        up = engine._widen(engine._ev(e.upper, env, ctx, n, memo), n)
        if iset.K == 1 or not up.data[1:].any():
            return real(e, env, ctx, n, memo)
        ent = stand_ins.get(id(e))
        if ent is None or ent[0] is not e:
            lim = X.Var("upper_limit")
            ent = stand_ins[id(e)] = (e, lim, X.Integral(e.dummy, e.base, lim,
                                                         e.integrand))
        _, lim, inner = ent
        env2 = dict(env)
        env2[lim.name] = JetBatch.constants(iset, up.data[0])
        out = real(inner, env2, ctx, n, memo)
        ejets = []
        for k in range(iset.max_endpoint_order + 1):
            gk = engine._dummy_derivative(e, k)
            eenv = {nm: env[nm] for nm in env if nm in gk.free}
            eenv[e.dummy] = JetBatch.constants(iset, up.data[0])
            ejets.append(eval_batch(gk, eenv, ctx, n).data)
        iset.boundary_accumulate(out.data, ejets, up.data)
        took.append(e)
        return out

    m.setattr(engine, "_ev_integral", ref)
    return took


def _scope_keys(m):
    """Spy on engine._ev_integral.  The returned function gives, for each
    memo that integrals at a nesting depth were evaluated in and that holds
    endpoint scopes, its scopes as a sorted list of (dummy, upper limit as
    text); the lists come sorted too."""
    memos = {}
    real = engine._ev_integral

    def spy(e, env, ctx, n, memo):
        out = real(e, env, ctx, n, memo)
        texts = memos.setdefault(id(memo), (ctx.depth, memo, {}))[2]
        texts[id(e.upper)] = X.to_text(e.upper)
        return out

    m.setattr(engine, "_ev_integral", spy)

    def keys(depth):
        found = [sorted((k[0], texts[k[1]]) for k in memo
                        if isinstance(k, tuple))
                 for d, memo, texts in memos.values() if d == depth]
        return sorted(ks for ks in found if ks)

    return keys


def _scope_case(monkeypatch, scn, text, env, iset):
    """text evaluated on env with endpoint scopes and on the per-order
    path, each as (jet, cause tally); bits and cause kinds must agree.
    Returns both, the spy's scope keys and the integrals that took
    boundary terms on the per-order path."""
    e = engine._interned(parse(text, _INV_ENV))

    def run():
        ctx = EvalContext(iset, scn)
        with np.errstate(all="ignore"):
            return eval_batch(e, env, ctx, env["x"].n).data, ctx.causes

    with monkeypatch.context() as m:
        keys = _scope_keys(m)
        got = run()
    with monkeypatch.context() as m:
        took = _per_order_boundary(m)
        want = run()
    assert _same_bits(got[0], want[0])
    assert {k for k, _ in got[1]} == {k for k, _ in want[1]}
    return got, want, keys, took


def _k6():
    return IndexSet(("t", "x"), set(get_family("6.5").deriv_orders.values()))


@pytest.fixture
def scn_scope(scn_inv):
    scn_inv.base_points.update(p1=0.3, p2=-0.2)
    return scn_inv


@pytest.mark.parametrize("text, top", [
    # two siblings with the same dummy and limit share one scope
    ("int(xi, base(p0), x, xi*t + F(xi))"
     " + int(xi, base(p1), x, xi^2*int(eta, base(p2), xi, eta*t))",
     [[("xi", "x")]]),
    # a compound limit
    ("int(xi, base(p0), x*t, xi*t + F(xi))"
     " + int(xi, base(p1), x*t, exp(xi)*int(eta, base(p2), xi, eta*t + a))",
     [[("xi", "x*t")]]),
    # the same dummy under different limits: one scope each
    ("int(xi, base(p0), x, xi*t + F(xi)) + int(xi, base(p1), t, xi^2*x)",
     [[("xi", "t"), ("xi", "x")]]),
    # a lifted integrand (no bound name) seeds its invariant at K
    ("int(xi, base(p0), x, exp(a)*xi^2 + F(xi))"
     " + int(xi, base(p1), x, xi*t)",
     [[("xi", "x")]]),
    # a dummy that shadows a variable
    ("int(x, base(p0), t, x*t + F(x)) + x*int(x, base(p1), t, x^2 + a*t)",
     [[("x", "t")]]),
    # a nested dummy that shadows the outer one, with a limit of its own:
    # at the outer limit the inner integral gets a scope in the outer
    # scope's memo, and one in every callback's memo
    ("int(xi, base(p0), x, xi*int(xi, base(p1), t, xi*t + F(xi)) + F(t)*xi)",
     [[("xi", "t")], [("xi", "x")]]),
], ids=["siblings", "compound", "two-limits", "lifted", "shadow-var",
        "shadow-dummy"])
@pytest.mark.parametrize("k6", [False, True], ids=["K4", "K6"])
def test_endpoint_scope_bits(scn_scope, monkeypatch, text, top, k6):
    iset = _k6() if k6 else _isets(("t", "x"))[1]
    assert iset.max_endpoint_order == (2 if k6 else 1)
    env = _tx_env(iset, np.linspace(0.2, 1.2, 5), np.linspace(0.3, 0.9, 5))
    got, _, keys, took = _scope_case(monkeypatch, scn_scope, text, env, iset)
    assert np.isfinite(got[0]).all() and not got[1]
    assert keys(0) == top
    assert len(took) >= sum(map(len, top))
    if len(top) > 1:
        assert keys(1) and all(ks == [("xi", "t")] for ks in keys(1))


@pytest.mark.parametrize("k6", [False, True], ids=["K4", "K6"])
def test_endpoint_scope_keeps_causes(scn_scope, monkeypatch, k6):
    # a is below the division guard and t < 0.7 in two columns: the shared
    # scope is seeded with both integrals' poisoned invariants, 1/a and
    # sqrt(t - 0.7), and counts them once per call, not once per order
    scn_scope.parameters["a"] = 0.25 * engine.DEN_GUARD
    iset = _k6() if k6 else _isets(("t", "x"))[1]
    env = _tx_env(iset, np.linspace(0.2, 1.2, 4), np.linspace(0.3, 0.9, 4))
    got, want, keys, took = _scope_case(
        monkeypatch, scn_scope, "int(xi, base(p0), x, xi/a + 1/a + t)"
        " + int(xi, base(p1), x, xi*sqrt(t - 0.7))", env, iset)
    assert np.isnan(got[0]).all()
    texts = {(kind, X.to_text(node)): c for (kind, node), c in got[1].items()}
    assert set(texts) == {("domain", "xi/a"), ("domain", "1/a"),
                          ("domain", "sqrt(t - (7/10))")}
    assert texts["domain", "1/a"] == 4
    assert texts["domain", "sqrt(t - (7/10))"] == 2
    assert all(c <= want[1][key] for key, c in got[1].items())
    assert keys(0) == [[("xi", "x")]] and len(took) == 2


@pytest.mark.parametrize("fid", [f for f in family_ids()
                                 if get_family(f).sol_depth])
def test_endpoint_scope_bits_on_catalog(monkeypatch, fid):
    fam, scn = _draw(fid, npts=3)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    with monkeypatch.context() as m:
        keys = _scope_keys(m)
        got = _solution_jets(fam, scn, iset)
    with monkeypatch.context() as m:
        took = _per_order_boundary(m)
        want = _solution_jets(fam, scn, iset)
    assert _same_bits(got[0], want[0])
    assert np.isfinite(got[0]).all()
    assert {k for k, _ in got[1]} == {k for k, _ in want[1]}
    assert took and keys(0)
    if fid == "4.3":
        # the two top-level int(xi, ..., x, ...) share one scope, and at
        # xi = x the three int(tau, ..., t, ...) in its memo share one more
        assert keys(0) == [[("tau", "t")], [("xi", "x")]]
