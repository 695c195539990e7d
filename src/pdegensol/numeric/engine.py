"""Batched jet evaluation of expression trees.

One eval call processes N evaluation points at once; every node maps to a
handful of numpy operations on (K, N) arrays.  Integrals feed the batched
adaptive quadrature with an integrand evaluator that re-enters this module,
so the whole nest evaluates breadth-first; implicit roots solve all N
columns simultaneously by bracketed bisection, then take jet-Newton steps
to get derivative rows.

Seven things bound the work and the working set of that loop, and all of
them leave every output bit as it was (the fifth with one exception, which
it states):

* Equal subtrees are evaluated once.  Every tree the engine evaluates (the
  argument of eval_batch, a root body, the symbolic derivatives of root
  bodies and integrands) is hash-consed on first use, so structurally
  equal subtrees become one object, which the id-keyed memo evaluates once.
  A node's value depends only on the node, the environment and the batch,
  and there is one memo per environment: the top-level call, each
  integrand callback, each root-body evaluation and each endpoint scope
  (the seventh bullet) has its own.  This is the language's only sharing:
  the parser expands `let`, and the copies of its bound value are one
  object here.  RootOf nodes are never merged:
  each keeps its own root-seed cache entry.
* A constant is one column wide.  Every constant and parameter is a
  (K, 1) jet in every context, and a node is as wide as its widest
  operand, so a subtree of scenario constants is evaluated at
  width 1 and numpy broadcasts it against the batch.  In an integrand
  such a subtree is a column invariant (the sixth bullet); inside a root
  body _ColumnMemo carries it, as it carries every column constant.  A
  value is copied out to full width (_widen) only where numpy needs real
  columns.  An integral's base point goes to the quadrature driver as one
  number.
* Leaf integrands are evaluated in slices.  An integrand with no
  integral or root inside computes each quadrature node on its own, so
  its callback tells Panels.reduce that it is a leaf, and reduce asks for
  its values a slice of panels at a time (quadrature owns the slice
  rule).  The callback builds a slice's nodes straight into the dummy's
  jet and gathers each bound name once per panel for its 15 nodes, so no
  node-length array outlives its slice.  Every other integrand is
  evaluated whole (quadrature says why).
* A root's column constants are evaluated once per column set.  The
  subtrees of a root body and of its z-derivative that do not depend on
  the root's dummy and hold no root take the same value in every body
  evaluation on the same columns, and a solve passes the same columns
  to its bisection steps, Newton polish and final check (to its bracket
  probes too, while every column is still searching), and to all its
  jet-Newton steps.  Their memo entries are carried from one such
  evaluation to the next (_ColumnMemo).
* A derivative-free integrand is integrated at K=1.  Below depth 1 of a
  nest, an integrand is often bound only to outer dummies, whose
  derivative rows are zero.  When they are exactly zero for every bound
  name (a NaN keeps the K path) and the integrand holds no RootOf and no
  non-integer power (_liftable), _ev_integral runs the driver at K=1 and
  lifts its integrals to the driver's (K, n) layout, the other rows +0.0
  where the upper limit is at or above the base point, -0.0 below it and
  NaN in failed columns, as the K path's all-zero rows sum.  Boundary
  terms stay at K.  The exception: where a node's value is infinite and
  a later node makes it finite (exp(-inf)), the K path's inf*0 poisons
  the column's derivative rows, and so the column.
* An integrand's column invariants are evaluated once per integral call.
  A column invariant (_invariants) is a maximal subtree of an integrand,
  nested integrands included, that holds no dummy bound there (the
  integral's own or an inner one's), no Integral or RootOf (_is_leaf) and
  no non-integer power (_liftable: _ev_pow picks its method from the whole
  batch), and is more than a bare Var or Const.  It takes one value per
  column, so _ev_integral evaluates it once in the enclosing scope (its
  environment, context and memo, at width n; cut to its value row when
  the integral is lifted) and seeds each callback's memo with it, spread
  to the nodes as a bound name is; a width-1 value stays one column wide.
  A nested integral finds its own invariants in that seeded memo.  A
  RootOf is never descended into or rebuilt, and no node is rebuilt.  A
  poisoned invariant counts its columns once per call, not once per
  node, and it is also counted on the columns whose integral has zero
  length, where the driver evaluates no node.
* An integral's upper-limit terms share one endpoint scope per dummy and
  upper-limit node.  At K > 1 a moving upper limit adds boundary terms:
  the integrand and its dummy derivatives at the limit.  _ev_integral
  evaluates every order of them in one scope, an environment (the
  enclosing one with the dummy bound to the limit's values) and a memo,
  kept in the enclosing memo under (dummy, id(upper)), a key no node id
  can take.  Every sibling integral evaluated in that memo with the same
  dummy and limit uses the same scope, so a nested integral or a shared
  subtree at the limit is evaluated once for all orders and siblings.
  Before its first order, each integral seeds the scope's memo with its
  column invariants at K, the values it has just computed in the
  enclosing scope.  A node's value depends only on the node and the
  bindings of its free names, which are the same in every order and
  sibling; a poisoned node counts its columns once per scope, not once
  per order.

Failures do not raise mid-batch: offending columns are poisoned with NaN,
and the context counts them per (kind, node) in one tally that every
sub-context of the evaluation adds to, so a sliced integrand counts what
one whole-batch call would.  Every arithmetic node is evaluated through
one table, _ARITH, and has its causes checked in one place, _ev_node.
Module constants hold the engine's own limits: the poison guards
DEN_GUARD, POS_GUARD and TAN_GUARD, DEGENERATE_TOL for solved roots,
NEST_LIMIT, which caps quadrature nesting with an error rather than a
poisoned column, and CFG, the one configuration (quadrature and root
tolerances) every evaluation runs at."""

from __future__ import annotations

from collections import Counter
from typing import Dict

import numpy as np

from .. import expr_core as X
from .config import NumericConfig
from .errors import EvalError, NestLimitExceeded
from .jets import IndexSet, JetBatch, jb_cos, jb_div, jb_exp, jb_ln, jb_mul, jb_powc, jb_powi, jb_sin, jb_sqrt, jb_sub, jb_tan
from .quadrature import Panels, adaptive_gk_batched
from . import rootfind

# structural cap on quadrature nesting; the deepest catalog entry needs 5
NEST_LIMIT = 6
# a solved root where |d body/dz| is below this gets no derivative jet
DEGENERATE_TOL = 1e-10
# poison guards of division and integer powers, of ln, sqrt and real
# powers, and of tan
DEN_GUARD = 1e-13
POS_GUARD = 1e-13
TAN_GUARD = 1e-8
# the tolerances every quadrature and root solve runs at, and every report
# records
CFG = NumericConfig()

# elementary function -> (its jet function, the guard that function takes,
# or None).  A guarded function's mask marks the columns outside its domain
_UNARY_JETS = {X.Exp: (jb_exp, None), X.Ln: (jb_ln, POS_GUARD),
               X.Sqrt: (jb_sqrt, POS_GUARD), X.Sin: (jb_sin, None),
               X.Cos: (jb_cos, None), X.Tan: (jb_tan, TAN_GUARD)}


class EvalContext:
    """Evaluation state: index set, scenario bindings, nesting depth, and
    the state that every sub-context of one evaluation shares: the cause
    tally and the root-seed cache.  causes counts poisoned columns per
    (kind, node), summed over every call that recorded them."""

    depth = 0

    def __init__(self, iset: IndexSet, scenario):
        self.iset = iset
        self.scenario = scenario
        self.causes: Counter = Counter()
        self.root_cache: Dict[int, tuple] = {}

    def _sub(self, iset: IndexSet, depth: int) -> "EvalContext":
        # a shallow copy, so the sub-context shares the tally and the
        # root-seed cache; copy.copy does the same at four times the cost
        sub = object.__new__(EvalContext)
        vars(sub).update(vars(self))
        sub.iset, sub.depth = iset, depth
        return sub

    def value_context(self) -> "EvalContext":
        return self._sub(self.iset.value_only(), self.depth)

    def child(self) -> "EvalContext":
        return self._sub(self.iset, self.depth + 1)

    def record(self, kind: str, mask, node, width: int = 0) -> None:
        """Count the masked columns of node as poisoned by kind.  A mask
        narrower than width comes from width-1 operands and stands for all
        width columns."""
        n = int(np.count_nonzero(mask))
        if mask.size < width:
            n *= width
        self.causes[kind, node] += n


class _NodeCache:
    """build(node), computed once per node.  Keyed by node identity; each
    entry pins its node, so a recycled id cannot alias a dead node."""

    def __init__(self, build):
        self._build = build
        self._ents: Dict[int, tuple] = {}

    def __call__(self, e: X.Expr):
        ent = self._ents.get(id(e))
        if ent is None or ent[0] is not e:
            ent = self._ents[id(e)] = (e, self._build(e))
        return ent[1]


# canonical node per structure, keyed by its class, its literal fields and
# the identities of its canonical children (X.node_key); the ids keep equal
# children that are distinct objects (roots) apart.  Each canonical node
# pins its children, and so the ids in its key.
_canon: Dict[tuple, X.Expr] = {}


def _intern(e: X.Expr) -> X.Expr:
    """e rebuilt bottom-up so that structurally equal subtrees are one
    object, which the id-keyed memo of _ev then evaluates once per
    environment.
    A RootOf is returned as it is, body and all: root_cache is keyed by
    its identity, and two equal roots in different callback scopes must
    keep their own warm-start seeds."""
    if isinstance(e, X.RootOf):
        return e
    key = X.node_key(e, lambda c: id(_interned(c)))
    got = _canon.get(key)
    if got is None:
        # built on a miss only: map_children returns e itself when its
        # children are already canonical
        got = _canon[key] = X.map_children(e, _interned)
    return got


_interned = _NodeCache(_intern)
# symbolic dummy derivatives of an integral, by order (0: the integrand)
_dderivs = _NodeCache(lambda e: {0: e.integrand})
_root_derivative = _NodeCache(
    lambda e: _interned(X.simplify(X.differentiate(e.body, e.dummy))))


def _column_constant_ids(e: X.RootOf) -> frozenset:
    """ids of the column constants of root e: the subtrees of its body and
    of its z-derivative that have no e.dummy among their free names and
    hold no RootOf (whose seeds move from call to call)."""
    ids = set()

    def visit(t: X.Expr) -> bool:
        # whether t holds a RootOf; a RootOf's own subtrees are evaluated
        # in its own memos
        if isinstance(t, X.RootOf):
            return True
        held = False
        for c in t.children():
            held |= visit(c)
        if not held and e.dummy not in t._free:
            ids.add(id(t))
        return held

    visit(_interned(e.body))
    visit(_root_derivative(e))
    return frozenset(ids)


_column_constants = _NodeCache(_column_constant_ids)

# no Integral or RootOf inside: the node's value at a column depends on that
# column alone, whatever batch it is evaluated in
_is_leaf = _NodeCache(
    lambda e: not isinstance(e, (X.Integral, X.RootOf))
    and all(_is_leaf(c) for c in e.children())
)


# no RootOf (jet-Newton moves row 0 at K > 1) and no power with a
# non-integer exponent (_ev_pow picks its method from the exponent's
# derivative rows, which a NaN in any column sets) inside: fed derivative
# rows of zero, the node's row 0 at K > 1 is its value at K=1, bit for bit
_liftable = _NodeCache(
    lambda e: not isinstance(e, X.RootOf)
    and not (isinstance(e, X.Pow) and X.int_exponent(e.exponent) is None)
    and all(_liftable(c) for c in e.children())
)


def _invariant_nodes(e: X.Integral) -> tuple:
    """The column invariants of integral e: the maximal subtrees of its
    integrand, nested integrands included, that hold no dummy bound there
    (e.dummy or an inner one), are _is_leaf and _liftable, and are more
    than a bare Var or Const.  A RootOf is never descended into."""
    found: Dict[int, X.Expr] = {}

    def visit(t: X.Expr, dummies: frozenset) -> None:
        if dummies.isdisjoint(t._free) and _is_leaf(t) and _liftable(t):
            if not isinstance(t, (X.Var, X.Const)):
                found[id(t)] = t
        elif isinstance(t, X.Integral):
            visit(t.upper, dummies)
            visit(t.integrand, dummies | {t.dummy})
        elif not isinstance(t, X.RootOf):
            for c in t.children():
                visit(c, dummies)

    visit(e.integrand, frozenset({e.dummy}))
    return tuple(found.values())


_invariants = _NodeCache(_invariant_nodes)


def _dummy_derivative(e, k: int) -> X.Expr:
    """The k-th symbolic derivative of e.integrand with respect to e.dummy
    (k=0 is the integrand itself), cached per node."""
    ds = _dderivs(e)
    while k not in ds:
        top = max(ds)
        ds[top + 1] = _interned(X.simplify(X.differentiate(ds[top], e.dummy)))
    return ds[k]


class _OverflowCount:
    """numpy's overflow callback while eval_batch runs: counts the ufunc
    calls that overflowed.  It also moves for an overflow inside an
    operand's evaluation, so a count that moved is only a reason to look
    for overflowed columns, never a finding."""

    n = 0

    def __call__(self, err: str, flag: int) -> None:
        self.n += 1


_OVERFLOWS = _OverflowCount()


def eval_batch(e: X.Expr, env: Dict[str, JetBatch], ctx: EvalContext, ncols: int) -> JetBatch:
    """Evaluate e to a JetBatch of width ncols.  env binds variable names
    to jets of that width; parameters/functions/base points come from
    ctx.scenario.  Meanwhile numpy reports every overflow to _OVERFLOWS
    instead of warning or raising."""
    with np.errstate(over="call", call=_OVERFLOWS):
        return _widen(_ev(_interned(e), env, ctx, ncols, {}), ncols)


def _widen(jb: JetBatch, n: int) -> JetBatch:
    """jb at width n: a width-1 constant is copied out to n columns.  The
    engine copies only where numpy needs real columns: the result of
    eval_batch, a real power's base, an integral's upper limit, the
    integrand values Panels reduces (the matmul picks its kernel from the
    layout), and root body values and Newton steps."""
    if jb.data.shape[1] == n:
        return jb
    return JetBatch(jb.iset, np.repeat(jb.data, n, axis=1))


def _ev(e: X.Expr, env, ctx: EvalContext, n: int, memo: dict) -> JetBatch:
    got = memo.get(id(e))
    if got is not None:
        return got
    r = _ev_node(e, env, ctx, n, memo)
    memo[id(e)] = r
    return r


def _const(ctx: EvalContext, value) -> JetBatch:
    return JetBatch.constants(ctx.iset, [float(value)])


def _ev_node(e: X.Expr, env, ctx: EvalContext, n: int, memo: dict) -> JetBatch:
    arith = _ARITH.get(e.__class__)
    if arith is not None:
        # the count also moves for an overflow among the operands, which
        # is harmless: a column counts only where every operand is finite
        seen = _OVERFLOWS.n
        out, bad = arith(e, env, ctx, n, memo)
        if _OVERFLOWS.n != seen:
            _record_overflow(ctx, e, n, out, memo, bad)
        if bad is not None:
            ctx.record("domain", bad, e, n)
        return out
    if isinstance(e, X.Const):
        return _const(ctx, e.value)
    if isinstance(e, X.Var):
        jb = env.get(e.name)
        if jb is None:
            raise EvalError(f"unbound variable {e.name!r}")
        return jb
    if isinstance(e, X.Param):
        try:
            return _const(ctx, ctx.scenario.parameters[e.name])
        except KeyError:
            raise EvalError(f"parameter {e.name!r} not bound in scenario") from None
    if isinstance(e, X.Integral):
        return _ev_integral(e, env, ctx, n, memo)
    if isinstance(e, X.RootOf):
        return _ev_rootof(e, env, ctx, n, memo)
    raise EvalError(f"cannot evaluate node {type(e).__name__}")


def _record_overflow(ctx: EvalContext, e: X.Expr, n: int, out: JetBatch,
                     memo: dict, bad) -> None:
    """Record as "overflow" of e the columns of out that are not finite
    although every evaluated operand of e (its children in memo) is,
    leaving out those bad (e's domain mask) marks."""
    over = ~np.isfinite(out.data).all(axis=0)
    for c in e.children():
        a = memo.get(id(c))
        if a is not None:
            over &= np.isfinite(a.data).all(axis=0)
    if bad is not None:
        over &= ~bad
    if over.any():
        ctx.record("overflow", over, e, n)


def _ev_neg(e: X.Neg, env, ctx: EvalContext, n: int, memo: dict):
    return JetBatch(ctx.iset, -_ev(e.arg, env, ctx, n, memo).data), None


def _ev_add(e: X.Add, env, ctx: EvalContext, n: int, memo: dict):
    out = _ev(e.terms[0], env, ctx, n, memo).data.copy()
    for t in e.terms[1:]:
        d = _ev(t, env, ctx, n, memo).data
        if d.shape[1] > out.shape[1]:
            out = out + d
        else:
            out += d
    return JetBatch(ctx.iset, out), None


def _ev_mul(e: X.Mul, env, ctx: EvalContext, n: int, memo: dict):
    acc = _ev(e.factors[0], env, ctx, n, memo)
    for f in e.factors[1:]:
        acc = jb_mul(acc, _ev(f, env, ctx, n, memo))
    return acc, None


def _ev_div(e: X.Div, env, ctx: EvalContext, n: int, memo: dict):
    a = _ev(e.num, env, ctx, n, memo)
    return jb_div(a, _ev(e.den, env, ctx, n, memo), DEN_GUARD)


def _ev_pow(e: X.Pow, env, ctx: EvalContext, n: int, memo: dict):
    base = _ev(e.base, env, ctx, n, memo)
    nexp = X.int_exponent(e.exponent)
    if nexp is not None:
        return jb_powi(base, nexp, DEN_GUARD)
    ejb = _ev(e.exponent, env, ctx, n, memo)
    if base.n < ejb.n:
        base = _widen(base, ejb.n)
    if not ejb.data[1:].any():
        # constant exponent (per column): real power, positive base
        return jb_powc(base, ejb.data[0], POS_GUARD)
    ln_b, bad = jb_ln(base, POS_GUARD)
    return jb_exp(jb_mul(ejb, ln_b))[0], bad


def _ev_unary(e: X._Unary, env, ctx: EvalContext, n: int, memo: dict):
    jet, guard = _UNARY_JETS[e.__class__]
    a = _ev(e.arg, env, ctx, n, memo)
    return jet(a) if guard is None else jet(a, guard)


def _ev_funcapp(e: X.FuncApp, env, ctx: EvalContext, n: int, memo: dict):
    try:
        inst = ctx.scenario.functions[e.name]
    except KeyError:
        raise EvalError(f"function {e.name!r} not bound in scenario") from None
    args = [_ev(a, env, ctx, n, memo) for a in e.args]
    vals = [a.data[0] for a in args]
    # inst.eval broadcasts the argument values, so every derivative value
    # is as wide as the widest argument
    f_at = {gamma: inst.eval(tuple(o + g for o, g in zip(e.orders, gamma)), vals)
            for gamma in ctx.iset.needed_gammas(len(args))}
    data = ctx.iset.chain(f_at, [a.data for a in args])
    return JetBatch(ctx.iset, data), None


# arithmetic node class -> its function, which evaluates the operands and
# returns (jet, domain mask or None); _ev_node records the causes.  Plain
# functions: a closure would turn the caller's locals into cells per node
_ARITH = {X.Neg: _ev_neg, X.Add: _ev_add, X.Mul: _ev_mul, X.Div: _ev_div,
          X.Pow: _ev_pow, X.FuncApp: _ev_funcapp,
          **{cls: _ev_unary for cls in _UNARY_JETS}}


def _ev_integral(e: X.Integral, env, ctx: EvalContext, n: int, memo: dict) -> JetBatch:
    if ctx.depth + 1 > NEST_LIMIT:
        raise NestLimitExceeded(f"quadrature nesting deeper than {NEST_LIMIT}")
    try:
        base = ctx.scenario.base_points[e.base]
    except KeyError:
        raise EvalError(f"base point for {e.base!r} not in scenario") from None
    iset = ctx.iset
    up_jb = _widen(_ev(e.upper, env, ctx, n, memo), n)
    names = [nm for nm in env if nm in e.integrand._free]
    # derivative rows all zero: integrate the values alone, then lift them
    lift = (iset.K > 1 and _liftable(e.integrand)
            and not any(env[nm].data[1:].any() for nm in names))
    subctx = ctx.value_context().child() if lift else ctx.child()
    bound = {nm: env[nm].value_rows() if lift else env[nm] for nm in names}
    # the column invariants, evaluated once here and spread to the nodes
    # like a bound name
    invariants_k = [(id(t), _ev(t, env, ctx, n, memo)) for t in _invariants(e)]
    invariants = ([(k, jb.value_rows()) for k, jb in invariants_k] if lift
                  else invariants_k)
    qset = subctx.iset
    leaf = _is_leaf(e.integrand)

    def at_nodes(panels: Panels, lo: int, hi: int) -> np.ndarray:
        own = panels.cols[lo:hi]

        def spread(jb: JetBatch) -> JetBatch:
            return JetBatch(jb.iset, np.repeat(jb.data[:, own], 15, axis=1))

        ienv = {nm: spread(jb) for nm, jb in bound.items()}
        imemo = {k: jb if jb.n == 1 else spread(jb) for k, jb in invariants}
        # nodes() writes row 0; at K=1 that is the whole jet
        alloc = np.empty if qset.K == 1 else np.zeros
        dummy = alloc((qset.K, 15 * own.size))
        panels.nodes(lo, hi, out=dummy[0])
        ienv[e.dummy] = JetBatch(qset, dummy)
        m = dummy.shape[1]
        return _widen(_ev(e.integrand, ienv, subctx, m, imemo), m).data

    def integrand_eval(panels: Panels, cols: np.ndarray) -> None:
        panels.reduce(lambda lo, hi: at_nodes(panels, lo, hi), leaf)

    def on_noconv(mask):
        ctx.record("quad", mask, e)

    data = adaptive_gk_batched(
        integrand_eval, base, up_jb.data[0], qset.K, CFG, on_noconv
    )
    if lift:
        # the driver's jet at K, F-ordered: below row 0 its sums of zeros
        # after the sign flip, and NaN in failed columns (its only NaN sums)
        v = data[0]
        total = np.empty((n, iset.K))
        total[:, 0] = v
        total[:, 1:] = np.where(np.isnan(v), np.nan, np.where(
            up_jb.data[0] >= base, 0.0, -0.0))[:, None]
        data = total.T
    out = JetBatch(iset, data)
    # the base point is a constant: only the upper limit adds boundary terms,
    # every order evaluated in the endpoint scope of (dummy, upper limit)
    if iset.K > 1 and up_jb.data[1:].any():
        key = (e.dummy, id(e.upper))
        scope = memo.get(key)
        if scope is None:
            senv = dict(env)
            senv[e.dummy] = JetBatch.constants(iset, up_jb.data[0])
            scope = memo[key] = (senv, {})
        senv, smemo = scope
        for k, jb in invariants_k:
            smemo.setdefault(k, jb)
        ejets = [_ev(_dummy_derivative(e, k), senv, ctx, n, smemo).data
                 for k in range(iset.max_endpoint_order + 1)]
        iset.boundary_accumulate(out.data, ejets, up_jb.data)
    return out


class _ColumnMemo:
    """The memo entries of a root's column constants (_column_constants),
    carried from one evaluation of its body or z-derivative to the next
    while the columns stay the same.  A column constant's value depends
    only on the node, the columns' bindings and the context, so reusing it
    moves no bit.  A call that records a cause or overflows carries
    nothing, so every cause is recorded, and every overflow check made, as
    often as with a fresh memo per call."""

    def __init__(self, ids: frozenset):
        self.ids = ids
        self.cols = None
        self.memo: dict = {}

    def ev(self, tree: X.Expr, env, ctx: EvalContext, cols: np.ndarray) -> JetBatch:
        if not np.array_equal(cols, self.cols):
            self.cols, self.memo = cols, {}
        memo = dict(self.memo)
        tally, overflows = ctx.causes.total(), _OVERFLOWS.n
        out = _ev(tree, env, ctx, cols.size, memo)
        if ctx.causes.total() == tally and _OVERFLOWS.n == overflows:
            self.memo = {k: v for k, v in memo.items() if k in self.ids}
        return out


def _ev_rootof(e: X.RootOf, env, ctx: EvalContext, n: int, memo: dict) -> JetBatch:
    iset = ctx.iset
    body = _interned(e.body)
    body_z = _root_derivative(e)
    vctx = ctx.value_context()
    viset = vctx.iset
    venv = {nm: jb.value_rows() for nm, jb in env.items() if nm in body._free}
    solve = _ColumnMemo(_column_constants(e))

    def values_of(tree: X.Expr):
        # tree's value at (zs, cols): the root body or its z-derivative
        def f(zs: np.ndarray, cols: np.ndarray) -> np.ndarray:
            en = {nm: jb.gather(cols) for nm, jb in venv.items()}
            en[e.dummy] = JetBatch.constants(viset, zs)
            return _widen(solve.ev(tree, en, vctx, cols), zs.size).data[0]
        return f

    seeds = _root_seeds(e, ctx, n)
    roots, status = rootfind.bracket_bisect_newton(
        values_of(body), values_of(body_z), seeds, CFG)
    fail = status != rootfind.OK
    if fail.any():
        ctx.record("root", fail, e)
        roots = roots.copy()
        roots[fail] = np.nan
    ok = ~fail
    if ok.any():
        cache_roots = roots[ok]
        ctx.root_cache[id(e)] = (e, float(np.median(cache_roots)), roots.copy())
    if iset.K == 1:
        return JetBatch.constants(iset, roots)

    z = JetBatch.constants(iset, roots)
    newton = _ColumnMemo(solve.ids)
    allcols = np.arange(n)
    for _ in range(3):
        en = {nm: jb for nm, jb in env.items() if nm in body._free}
        en[e.dummy] = z
        F = _widen(newton.ev(body, en, ctx, allcols), n)
        Fz = _widen(newton.ev(body_z, en, ctx, allcols), n)
        degen = np.isfinite(Fz.data[0]) & (np.abs(Fz.data[0]) < DEGENERATE_TOL)
        if degen.any():
            ctx.record("degenerate", degen, e)
            Fz = JetBatch(iset, Fz.data.copy())
            Fz.data[:, degen] = np.nan
        q, _ = jb_div(F, Fz, DEN_GUARD)
        z = jb_sub(z, q)
    return z


def _root_seeds(e: X.RootOf, ctx: EvalContext, n: int) -> np.ndarray:
    ent = ctx.root_cache.get(id(e))
    if ent is not None and ent[0] is e:
        _, med, prev = ent
        if prev.size == n and np.isfinite(prev).all():
            return prev
        return np.full(n, med)
    return np.full(n, e.seed)
