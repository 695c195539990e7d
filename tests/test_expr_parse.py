"""Parsing, printing, the parse/print round trip, and the tree-rewrite
primitive."""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

from pdegensol.expr_core import (
    RESERVED,
    UNARY,
    Add,
    Const,
    Div,
    Env,
    Expr,
    FuncApp,
    Integral,
    Mul,
    Neg,
    Param,
    ParseError,
    Pow,
    RootOf,
    Var,
    _Unary,
    flatten,
    map_children,
    parse,
    to_text,
)
from pdegensol.numeric import engine

ENV = Env(variables=("t", "x"), parameters=("a", "b", "c"),
          functions={"F": 1, "G": 1, "q": 2})


def rt(text):
    return parse(text, ENV)


def test_numbers_and_names():
    assert rt("3") == Const(3)
    assert rt("x") == Var("x")
    e = rt("a")
    assert e.__class__.__name__ == "Param"


def test_precedence_unary_minus_vs_power():
    # -x^2 parses as -(x^2), matching written math
    e = rt("-x^2")
    assert isinstance(e, Neg)
    assert isinstance(e.arg, Pow)


def test_power_right_associative():
    e = rt("x^2^3")
    assert isinstance(e, Pow)
    assert isinstance(e.exponent, Pow)


def test_mul_div_left_associative():
    # a/b/c = (a/b)/c, not a/(b/c)
    e = rt("a/b/c")
    assert isinstance(e, Div)
    assert isinstance(e.num, Div)


def test_subtraction_groups_left():
    assert rt("1 - 2 - 3") == rt("(1 - 2) - 3")
    assert rt("1 - 2 - 3") != rt("1 - (2 - 3)")


def test_implicit_products_rejected():
    with pytest.raises(ParseError):
        rt("2x")


def test_function_application_and_arity():
    e = rt("q(t, x)")
    assert isinstance(e, FuncApp)
    assert e.args == (Var("t"), Var("x"))
    with pytest.raises(ParseError):
        rt("F(t, x)")  # F is unary


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        rt("y + 1")


def test_prime_notation_is_first_derivative():
    e = rt("G'(x)")
    assert isinstance(e, FuncApp)
    assert e.orders == (1,)
    e2 = rt("D[1]G(x)")
    assert e == e2


def test_partial_derivative_notation():
    e = rt("D[1,0]q(t, x)")
    assert e.orders == (1, 0)
    with pytest.raises(ParseError):
        rt("D[1]q(t, x)")  # order tuple must match arity


def test_integral_syntax():
    e = rt("int(xi, base(p0), x, F(xi))")
    assert isinstance(e, Integral)
    assert e.dummy == "xi"
    assert e.base == "p0"
    assert e.upper == Var("x")
    # the dummy is bound: not free in the integral
    assert "xi" not in e.free
    # a bare base is the dummy's own base point
    assert rt("int(xi, base, x, F(xi))").base == "xi"


@pytest.mark.parametrize("text", ["int(s, 0, x, s)", "int(s, x, x, s)"])
def test_integral_lower_limit_is_a_base_point(text):
    # an integral starts at its base point: no other lower limit parses
    with pytest.raises(ParseError, match="lower limit is base or base"):
        rt(text)


def test_rootof_requires_a_seed():
    with pytest.raises(ParseError):
        rt("rootof(Z, Z^2 - x)")
    assert rt("rootof(Z, Z^2 - x, -0.5)").seed == -0.5


def test_rootof_syntax():
    e = rt("rootof(Z, Z^2 - x, 2)")
    assert isinstance(e, RootOf)
    assert e.seed == 2
    assert "Z" not in e.free
    assert "x" in e.free


def _seed_round_trip(seed):
    text = to_text(RootOf("Z", Var("Z"), seed))
    got = rt(text).seed
    # equal bits: -0.0 keeps its sign
    assert math.copysign(1.0, got) == math.copysign(1.0, seed) and got == seed
    return text


@pytest.mark.parametrize("seed", [1e-5, -2.5e-7, 1e22, 5e-324])
def test_rootof_seed_round_trip(seed):
    # a seed is printed in positional digits: the tokenizer reads no
    # exponent notation
    assert "e" not in _seed_round_trip(seed).split(",")[-1]


def test_catalog_seeds_print_as_written():
    assert [_seed_round_trip(s).split(", ")[-1] for s in (1.0, 0.5, 2.0, -1.0)] \
        == ["1)", "0.5)", "2)", "-1)"]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_rootof_seed_round_trip_any_finite(seed):
    _seed_round_trip(seed)


def test_let_syntax():
    # let is expanded by the parser: no tree holds a binding, and the
    # bound name shadows a variable of the same name in the body alone
    e = rt("let(x, t + 1, x^2 - x*t)")
    assert e == rt("(t + 1)^2 - (t + 1)*t")
    assert e.free == {"t"}


def test_let_expands_to_its_body():
    assert rt("let(s, a + b, s*s)") == rt("(a + b)*(a + b)")


def test_nested_binders_shadowing():
    e = rt("int(xi, base(p0), x, xi + int(xi, base(p1), xi, xi^2))")
    assert "xi" not in e.free


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        rt("(x + 1")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        rt("")


def test_whitespace_and_comments_insensitive():
    assert rt("x+\n  t") == rt("x + t")


# --- printing -------------------------------------------------------------


def test_to_text_round_trips_simple():
    for text in [
        "x + t",
        "a*x^2 - b/x",
        "-x^2",
        "exp(-x) + ln(x) + sqrt(x) + sin(x) + cos(x) + tan(x)",
        "int(xi, base(p0), x, exp(xi)*F(xi))",
        "rootof(Z, Z^3 - x, 1)",
        "let(s, a + 1, s^2 - s)",
        "G'(x)*F(t)",
        "D[1,1]q(t, x)",
    ]:
        e = rt(text)
        assert flatten(parse(to_text(e), ENV)) == flatten(e)


# --- property: parse(print(e)) is identity up to Add/Mul flattening -------

_atoms = st.sampled_from(["x", "t", "a", "b", "2", "3", "1/2"])


def _wrap(children):
    unary = st.sampled_from(["-({})", "exp({})", "sin({})", "sqrt(({})^2 + 1)"])
    binary = st.sampled_from(
        ["({}) + ({})", "({}) - ({})", "({})*({})",
         "({})/(({})^2 + 1)", "({})^2"])
    return st.one_of(
        st.builds(lambda f, a: f.format(a), unary, children),
        st.builds(
            lambda f, a, b: f.format(a, b) if f.count("{}") == 2
            else f.format(a), binary, children, children),
        st.builds(lambda a: "F({})".format(a), children),
        st.builds(lambda a: "int(xi, base(p0), ({}), xi + 1)".format(a),
                  children),
    )


_texts = st.recursive(_atoms, _wrap, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_print_parse_round_trip(text):
    e = parse(text, ENV)
    assert flatten(parse(to_text(e), ENV)) == flatten(e)


# --- map_children: the one node-rebuild primitive --------------------------


def _child_fields(e):
    # an Expr field, or a non-empty tuple of Expr
    return [f for f in e._fields
            if isinstance(getattr(e, f), Expr)
            or isinstance(getattr(e, f), tuple) and getattr(e, f)
            and isinstance(getattr(e, f)[0], Expr)]


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_map_children_identity_returns_the_node(text):
    e = parse(text, ENV)
    assert map_children(e, lambda c: c) is e


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_map_children_copies_rebuild_an_equal_node(text):
    e = parse(text, ENV)
    out = map_children(e, copy.copy)
    assert out == e
    kids, new_kids = list(e.children()), list(out.children())
    assert len(new_kids) == len(kids)
    assert all(a == b and a is not b for a, b in zip(new_kids, kids))
    assert (out is e) == (not kids)


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_map_children_fields_leaves_other_fields_alone(text):
    e = parse(text, ENV)
    for f in _child_fields(e):
        out = map_children(e, copy.copy, fields=(f,))
        assert out == e and out is not e
        for g in e._fields:
            if g != f:
                assert getattr(out, g) is getattr(e, g)


# --- the language's declarations: one table per decision --------------------


def _subclasses(cls):
    for c in cls.__subclasses__():
        yield c
        yield from _subclasses(c)


def test_elementary_functions_are_declared_once():
    classes = set(_subclasses(_Unary))
    assert set(UNARY.values()) == classes
    assert set(engine._UNARY_JETS) == classes
    for name, cls in UNARY.items():
        assert name in RESERVED
        e = cls(Add([Var("x"), Const(1)]))
        assert to_text(e) == f"{name}(x + 1)"
        assert parse(to_text(e), ENV) == e


def test_every_node_kind_is_arithmetic_or_leaf_or_binder():
    # the engine evaluates every arithmetic node through one table, and so
    # checks its causes in one place; only leaves and binders stay outside
    concrete = set(_subclasses(Expr)) - {_Unary}
    others = {Const, Var, Param, Integral, RootOf}
    assert set(engine._ARITH).isdisjoint(others)
    assert set(engine._ARITH) | others == concrete


def test_binders_bind_their_name_in_their_scope_only():
    binders = {c for c in _subclasses(Expr) if c._binds}
    assert binders == {Integral, RootOf}
    for cls in binders:
        name_field, scope = cls._binds
        assert name_field != scope
        assert {name_field, scope} <= set(cls._fields)
    # a name used outside the scope of a binder of the same name stays free
    x = Var("x")
    assert Integral("x", "x", x, x).free == {"x"}
    assert Integral("x", "x", Var("t"), x).free == {"t"}
    assert RootOf("x", Add([x, Var("t")]), 1.0).free == {"t"}
