"""Catalog loading and structural invariants.

The term counts, orders, and nesting depths below were frozen from the
reviewed transcriptions; any drift in the data file or the parser shows up
here before the numerics ever run.
"""

import pytest

from pdegensol.catalog import (
    CatalogError,
    PdeFamily,
    _integral_depth,
    _parse_records,
    _suffix_orders,
    family_ids,
    get_family,
    load_catalog,
)
from pdegensol.expr_core import (Env, Expr, Integral, Param, RootOf, Var,
                                 parse, to_text, walk)

ALL_IDS = [
    "3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8", "3.9",
    "3.10", "3.11", "4.1", "4.2", "4.3", "4.4", "5.1", "5.2", "5.3",
    "6.1", "6.2", "6.3", "6.4", "6.5", "7.1", "7.2",
]

# family -> (pde term count, max derivative order, integral nesting depth)
STRUCTURE = {
    "3.1": (4, 2, 1), "3.2": (4, 2, 1), "3.3": (4, 2, 2),
    "3.4": (5, 2, 1), "3.5": (7, 2, 2), "3.6": (4, 2, 2),
    "3.7": (6, 2, 3), "3.8": (6, 2, 3), "3.9": (4, 2, 2),
    "3.10": (6, 2, 2), "3.11": (9, 2, 2),
    "4.1": (7, 2, 1), "4.2": (7, 2, 3), "4.3": (6, 2, 4),
    "4.4": (6, 2, 5),
    "5.1": (7, 2, 1), "5.2": (5, 2, 1), "5.3": (4, 2, 1),
    "6.1": (3, 3, 0), "6.2": (5, 3, 0), "6.3": (4, 3, 1),
    "6.4": (4, 3, 2), "6.5": (4, 3, 2),
    "7.1": (5, 3, 0), "7.2": (6, 3, 0),
}


def test_catalog_complete():
    assert family_ids() == ALL_IDS
    cat = load_catalog()
    assert len(cat) == 25


@pytest.mark.parametrize("fid", ALL_IDS)
def test_structure_frozen(fid):
    fam = get_family(fid)
    nterms, order, depth = STRUCTURE[fid]
    assert len(fam.pde_terms) == nterms
    assert fam.order == order
    assert fam.sol_depth == depth


def _depth_by_walk(e):
    # the definition: 1 + the depth of an integral's integrand, maximised
    # over every integral in e, those in limits included
    return max((1 + _depth_by_walk(n.integrand) for n in walk(e)
                if isinstance(n, Integral)), default=0)


def test_integral_depth_in_one_pass():
    for fid in ALL_IDS:
        sol = get_family(fid).solution
        assert _integral_depth(sol) == _depth_by_walk(sol) == STRUCTURE[fid][2]
    # the upper limit of the middle integral holds a depth-2 nest: it counts
    # at the middle integral's level, so the whole nest is 3 deep, not 4
    e = parse("int(s, base(s), x, int(u, base(u), int(v, base(v), s, "
              "int(w, base(w), v, w)), int(r, base(r), u, r*u)))",
              Env(variables=("x",)))
    assert _integral_depth(e) == _depth_by_walk(e) == 3
    assert _integral_depth(e.integrand.upper) == 2


def _free_names(e, bound=frozenset()):
    # unbound variable and dummy names, and parameter names
    if isinstance(e, Var):
        return {e.name} - bound
    if isinstance(e, Param):
        return {e.name}
    names = set()
    for f in e._fields:
        scope = bound
        if e._binds and f == e._binds[1]:
            scope = bound | {getattr(e, e._binds[0])}
        v = getattr(e, f)
        for c in v if isinstance(v, tuple) else (v,):
            if isinstance(c, Expr):
                names |= _free_names(c, scope)
    return names


@pytest.mark.parametrize("fid", ALL_IDS)
def test_free_names_hold_parameters_and_none_is_rebound(fid):
    # Expr.free counts parameters, and no variable or dummy is named like a
    # parameter, so no environment binds a parameter's name
    fam = get_family(fid)
    for tree in (fam.solution, fam.pde):
        assert tree.free == _free_names(tree)
        params = {n.name for n in walk(tree) if isinstance(n, Param)}
        assert params <= tree.free & set(fam.parameters)
        dummies = {n.dummy for n in walk(tree)
                   if isinstance(n, (Integral, RootOf))}
        assert (dummies | set(fam.variables)).isdisjoint(fam.parameters)
    env = Env(variables=("x",), parameters=("a",))
    assert parse("a*x", env).free == {"a", "x"}


@pytest.mark.parametrize("fid", ALL_IDS)
def test_solution_prints_and_reparses(fid):
    fam = get_family(fid)
    # describe() never raises and mentions the order
    text = fam.describe()
    assert ("second order" in text) or ("third order" in text)
    assert to_text(fam.solution)
    assert to_text(fam.pde)


def test_variables_shapes():
    for fid in ALL_IDS:
        fam = get_family(fid)
        if fid.startswith("5."):
            assert fam.variables == ("x1", "x2", "x3", "x4")
        else:
            assert fam.variables == ("t", "x")


def test_derivative_name_resolution():
    fam = get_family("3.1")
    assert fam.deriv_orders["w_tx"] == (1, 1)
    assert fam.deriv_orders["w_t"] == (1, 0)
    assert fam.deriv_orders["w"] == (0, 0)
    fam4 = get_family("5.1")
    assert fam4.deriv_orders["w_x1x4"] == (1, 0, 0, 1)
    fam6 = get_family("6.1")
    assert fam6.deriv_orders["w_ttx"] == (2, 1)
    assert fam6.deriv_orders["w_tt"] == (2, 0)


def test_suffix_orders_greedy():
    # x1 must win over x when both could match
    assert _suffix_orders("w_x1x1", ("x1", "x2", "x3", "x4")) == (2, 0, 0, 0)
    assert _suffix_orders("w_ttx", ("t", "x")) == (2, 1)
    assert _suffix_orders("w", ("t", "x")) == (0, 0)


def test_function_classification():
    fam = get_family("4.3")
    assert set(fam.coefficient_functions) == {"a", "b", "c"}
    assert set(fam.arbitrary_functions) == {"F", "G"}
    fam2 = get_family("3.1")
    assert fam2.coefficient_functions == {}
    assert set(fam2.arbitrary_functions) == {"F", "G"}


def test_base_points_collected():
    fam = get_family("4.4")
    assert set(fam.base_names) == {"p0", "p1", "q0", "q1", "q2", "q3"}
    fam2 = get_family("6.1")
    assert fam2.base_names == ()


def test_implicit_root_families():
    from pdegensol.expr_core import RootOf, walk

    with_roots = {
        fid for fid in ALL_IDS
        if any(isinstance(n, RootOf) for n in walk(get_family(fid).solution))
    }
    assert with_roots == {"3.7", "3.8", "3.10", "5.2", "5.3"}


def test_get_family_unknown_raises_keyerror():
    with pytest.raises(KeyError):
        get_family("9.9")


# --- record format unit tests ---------------------------------------------

RECORD = """
# comment line
[x.1]
vars: t x
params: a
constraints: a != 0
funcs: F:1
pde: w_t - a*w
sol: F(x)
  * exp(a*t)
note: demo
"""


def test_parse_records_continuation_and_comments():
    recs = list(_parse_records(RECORD))
    assert len(recs) == 1
    rec = recs[0]
    assert rec["id"] == "x.1"
    assert rec["sol"] == "F(x) * exp(a*t)"
    assert rec["note"] == "demo"


def test_record_roundtrips_to_family():
    rec = list(_parse_records(RECORD))[0]
    from pdegensol.catalog import _build_family

    fam = _build_family(rec)
    assert fam.family_id == "x.1"
    assert fam.deriv_orders["w_t"] == (1, 0)
    assert len(fam.pde_terms) == 2


def test_unbound_symbol_rejected():
    bad = RECORD.replace("sol: F(x)", "sol: F(x) + y")
    rec = list(_parse_records(bad))[0]
    from pdegensol.catalog import _build_family

    with pytest.raises(CatalogError):
        _build_family(rec)
