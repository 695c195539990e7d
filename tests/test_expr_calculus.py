"""Symbolic differentiation, substitution, and simplification.

Derivative correctness is checked two ways: against hand-derived closed
forms, and numerically (evaluate the symbolic derivative vs a central
difference of the original).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegensol.expr_core import (
    Env,
    differentiate,
    parse,
    simplify,
    substitute,
    to_text,
)
from pdegensol.numeric import EvalContext, IndexSet, JetBatch, eval_batch

from conftest import StubScenario

ENV = Env(variables=("t", "x"), parameters=("a", "b"),
          functions={"F": 1, "G": 1})


def rt(text):
    return parse(text, ENV)


def _val(e, x=0.7, t=0.4, a=1.3, b=0.6):
    """Value-only evaluation with F = sin, G = exp stand-ins unavailable;
    restrict test expressions to function-free forms."""
    scn = StubScenario(("t", "x"), parameters={"a": a, "b": b},
                       base_points={"p0": 0.0})
    iset = IndexSet(("t", "x"), {(0, 0)})
    env = {
        "t": JetBatch.variable(iset, "t", np.array([t])),
        "x": JetBatch.variable(iset, "x", np.array([x])),
    }
    ctx = EvalContext(iset, scn)
    out = eval_batch(e, env, ctx, 1).value()[0]
    return float(out)


# --- closed-form checks ---------------------------------------------------


def test_derivative_polynomial():
    assert simplify(differentiate(rt("x^3"), "x")) == simplify(rt("3*x^2"))


def test_derivative_linearity():
    e1, e2 = rt("exp(x)*x"), rt("sin(x)/x")
    lhs = differentiate(rt("exp(x)*x + sin(x)/x"), "x")
    rhs = rt(f"({to_text(differentiate(e1, 'x'))})"
             f" + ({to_text(differentiate(e2, 'x'))})")
    for x in (0.3, 0.9, 1.7):
        assert _val(lhs, x=x) == pytest.approx(_val(rhs, x=x), abs=1e-10)


def test_derivative_chain_and_product():
    e = rt("exp(a*x)*sin(b*x)")
    d = differentiate(e, "x")
    ref = rt("a*exp(a*x)*sin(b*x) + b*exp(a*x)*cos(b*x)")
    for x in (0.2, 0.8, 1.5):
        assert _val(d, x=x) == pytest.approx(_val(ref, x=x), rel=1e-12)


def test_mixed_partials_commute():
    # d/dt d/dx e = d/dx d/dt e pointwise (Clairaut)
    e = rt("exp(t*x) + t^2*sin(x) + x/( t + 2)")
    dtx = differentiate(differentiate(e, "x"), "t")
    dxt = differentiate(differentiate(e, "t"), "x")
    for t, x in [(0.3, 0.5), (1.1, 0.2), (0.7, 1.6)]:
        assert _val(dtx, t=t, x=x) == pytest.approx(
            _val(dxt, t=t, x=x), abs=1e-8)


def test_derivative_of_constant_in_var_is_zero():
    assert simplify(differentiate(rt("a*t + 3"), "x")) == rt("0")


def test_integral_derivative_upper_limit():
    # d/dx int(xi, p0, x, f(xi)) = f(x)
    e = rt("int(xi, base(p0), x, exp(-xi^2))")
    d = simplify(differentiate(e, "x"))
    assert d == simplify(rt("exp(-x^2)"))


def test_integral_derivative_through_integrand():
    # d/dt int(xi, p0, x, t*xi) = int(xi, p0, x, xi)
    e = rt("int(xi, base(p0), x, t*xi^2)")
    d = simplify(differentiate(e, "t"))
    assert d == simplify(rt("int(xi, base(p0), x, xi^2)"))


def test_rootof_derivative_closed_form():
    # z(x) = rootof(Z, Z^2 - x, 2): z = sqrt(x), dz/dx = 1/(2 z).
    # At x = 4: z = 2, dz/dx = 0.25, d2z/dx2 = -1/32.     [DERIVED]
    scn = StubScenario(("x",))
    env1 = Env(variables=("x",))
    z = parse("rootof(Z, Z^2 - x, 2)", env1)
    iset = IndexSet(("x",), {(2,)})
    env = {"x": JetBatch.variable(iset, "x", np.array([4.0]))}
    jb = eval_batch(z, env, EvalContext(iset, scn), 1)
    assert jb.data[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert jb.data[iset.pos[(1,)], 0] == pytest.approx(0.25, abs=1e-10)
    assert jb.data[iset.pos[(2,)], 0] == pytest.approx(-1.0 / 32.0, abs=1e-10)


def test_let_derivative_respects_binding():
    e = rt("let(s, x^2, s + t*s)")
    d = differentiate(e, "x")
    for t, x in [(0.5, 0.8), (1.2, 0.3)]:
        assert _val(d, t=t, x=x) == pytest.approx(2 * x * (1 + t), rel=1e-12)


# --- substitution ---------------------------------------------------------


def test_let_expands_without_capture():
    # s := t under a binder of t: the integral's dummy is renamed, so the
    # outer t stays free and the value is t*x^2/2 (p0 = 0)    [DERIVED]
    e = rt("let(s, t, int(t, base(p0), x, s*t))")
    assert e.dummy != "t"
    assert e.free == {"t", "x"}
    hand = rt("int(u, base(p0), x, t*u)")
    assert _val(e) == pytest.approx(_val(hand), rel=1e-14)
    assert _val(e, t=0.4, x=0.7) == pytest.approx(0.4 * 0.7**2 / 2, rel=1e-12)


def test_substitute_basic():
    e = rt("x + a*x")
    s = substitute(e, {"x": rt("t^2")})
    assert s == rt("t^2 + a*t^2")


def test_substitute_avoids_capture():
    # substituting x -> xi must not be captured by the integral's dummy xi
    e = rt("int(xi, base(p0), t, xi*x)")
    s = substitute(e, {"x": parse("xi", Env(variables=("xi",)))})
    assert "xi" in s.free
    # the bound dummy was renamed away from the free xi
    inner = s
    assert inner.dummy != "xi"


def test_substitute_renamed_dummy_keeps_its_base_point():
    # the base point is a named scenario constant: renaming the dummy away
    # from a free xi leaves the integral starting where it did
    e = rt("int(xi, base, x, xi*t)")
    s = substitute(e, {"t": parse("xi", Env(variables=("xi",)))})
    assert s.dummy == "xi2" and s.base == "xi"
    assert to_text(s) == "int(xi2, base(xi), x, xi2*xi)"


def test_substitute_leaves_bound_names_alone():
    e = rt("int(xi, base(p0), x, xi^2)")
    s = substitute(e, {"xi": rt("t")})
    assert s == e


# --- simplify -------------------------------------------------------------


@pytest.mark.parametrize("before,after", [
    ("x + 0", "x"),
    ("x*1", "x"),
    ("x*0", "0*x"),
    ("x^1", "x"),
    ("x^0", "x^0"),
    ("0/x", "0/x"),
    ("-(-x)", "x"),
    ("2 + 3", "5"),
    ("2*3", "6"),
])
def test_simplify_identities(before, after):
    assert simplify(rt(before)) == rt(after)


def _value_and_causes(e, x):
    # e's value at t = x, value only, and the kinds of the causes it records
    iset = IndexSet(("t", "x"), {(0, 0)})
    env = {v: JetBatch.variable(iset, v, np.array([x])) for v in ("t", "x")}
    ctx = EvalContext(iset, StubScenario(("t", "x")))
    with np.errstate(invalid="ignore", divide="ignore"):
        got = eval_batch(e, env, ctx, 1).value()
    return got[0], [kind for kind, _node in ctx.causes]


def test_simplify_keeps_the_domain_of_exp_ln():
    # ln(exp(x)) is x for every real x; exp(ln(x)) is x only where x > 0,
    # and at x = -1 its simplified tree must still be NaN with a domain cause
    assert simplify(rt("ln(exp(x))")) == rt("x")
    v, causes = _value_and_causes(simplify(rt("exp(ln(x))")), -1.0)
    assert np.isnan(v) and causes == ["domain"]


@pytest.mark.parametrize("text,x,want", [("0/x", 0.0, np.nan),
                                         ("ln(x)*0", -1.0, np.nan),
                                         ("ln(x)^0", -1.0, 1.0)])
def test_simplify_keeps_the_domain_of_a_zero_factor(text, x, want):
    # a zero factor, numerator or exponent keeps its operand, so the
    # simplified tree keeps the value and the domain cause of the original
    v, causes = _value_and_causes(simplify(rt(text)), x)
    assert np.array_equal(v, want, equal_nan=True)
    assert causes == ["domain"]


_sexprs = st.recursive(
    st.sampled_from(["x", "t", "a", "2", "0", "1"]),
    lambda c: st.one_of(
        st.builds(lambda u: f"-({u})", c),
        st.builds(lambda u, v: f"({u}) + ({v})", c, c),
        st.builds(lambda u, v: f"({u})*({v})", c, c),
        st.builds(lambda u, v: f"({u}) - ({v})", c, c),
        st.builds(lambda u: f"({u})^2", c),
        st.builds(lambda u: f"exp(({u})/4)", c),
        st.builds(lambda u: f"sin({u})", c),
    ),
    max_leaves=10,
)


@settings(max_examples=120, deadline=None)
@given(_sexprs)
def test_simplify_preserves_value(text):
    e = rt(text)
    s = simplify(e)
    v1, v2 = _val(e), _val(s)
    assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(_sexprs)
def test_derivative_matches_finite_difference(text):
    e = rt(text)
    d = differentiate(e, "x")
    h = 1e-5
    fd = (_val(e, x=0.7 + h) - _val(e, x=0.7 - h)) / (2 * h)
    fd2 = (_val(e, x=0.7 + h / 2) - _val(e, x=0.7 - h / 2)) / h
    rich = (4 * fd2 - fd) / 3
    dv = _val(d, x=0.7)
    assert dv == pytest.approx(rich, rel=2e-7, abs=2e-7)
