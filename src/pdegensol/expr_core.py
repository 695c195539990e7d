"""Immutable expression trees, parsing, printing, and symbolic calculus.

The expression language covers what the catalog needs: rational arithmetic,
powers, exp/ln/sqrt/trig, unknown-function applications F(t), a(t, x) and
their derivatives G'(x), D[1,0]a(t,x), definite integrals from a named base
point, int(dummy, base, upper, integrand), and implicit roots on a seeded
branch, rootof(dummy, body, seed).  let(name, bound, body)
is syntax only: the parser substitutes bound for name in body, so no tree
holds a binding, and Integral and RootOf are the only binders.

Nodes are immutable, with structural equality and cached hashes and
free-name sets.  Equal trees may be distinct objects; the numeric engine
hash-conses the trees it evaluates.  map_children is the one place that
knows which fields hold children and how a node is rebuilt from new ones;
node_key names the node such a rebuild would give without building it.
Nothing here is numeric; evaluation lives in pdegensol.numeric.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, msg: str, text: str, pos: int):
        self.pos = pos
        snippet = text[max(0, pos - 24):pos + 24]
        super().__init__(f"{msg} (at position {pos}: ...{snippet!r}...)")


# ---------------------------------------------------------------------------
# Node classes


class Expr:
    """Base class.  Subclasses list their fields in _fields; children are the
    Expr-valued fields (tuples of Expr count, element-wise)."""

    __slots__ = ("_hash", "_free")
    _fields: tuple = ()
    # a binder's (name field, scope field): the name is bound in the scope
    # alone, for free names and substitution both
    _binds: Optional[tuple] = None

    def _init_caches(self):
        key = [self.__class__.__name__]
        free: set = set()
        name_field, scope = self._binds or (None, None)
        for f in self._fields:
            v = getattr(self, f)
            if isinstance(v, Expr):
                key.append(v._hash)
                free |= (v._free - {getattr(self, name_field)}) if f == scope else v._free
            elif isinstance(v, tuple) and v and isinstance(v[0], Expr):
                key.append(tuple(c._hash for c in v))
                for c in v:
                    free |= c._free
            else:
                key.append(v)
        self._adjust_free(free)
        self._hash = hash(tuple(key))
        self._free = frozenset(free)

    def _adjust_free(self, free: set):
        pass

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__ or other._hash != self._hash:
            return False
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        return f"<{self.__class__.__name__} {to_text(self)}>"

    def children(self) -> Iterator["Expr"]:
        for f in self._fields:
            v = getattr(self, f)
            if isinstance(v, Expr):
                yield v
            elif isinstance(v, tuple) and v and isinstance(v[0], Expr):
                yield from v

    @property
    def free(self) -> frozenset:
        """Free names: variables, unbound dummies and parameters.  A
        parameter counts (Param._adjust_free), so that substitution can
        prune subtrees by free name: parse("a*x", env).free is {"a", "x"}
        when a is a parameter."""
        return self._free


class Const(Expr):
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Union[int, Fraction]):
        self.value = Fraction(value)
        self._init_caches()


class Var(Expr):
    """An independent variable or a bound dummy occurrence."""

    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._init_caches()

    def _adjust_free(self, free):
        free.add(self.name)


class Param(Expr):
    """A named scalar constant (fixed per scenario)."""

    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._init_caches()

    def _adjust_free(self, free):
        # tracked as a free name so substitution can prune subtrees cheaply
        free.add(self.name)


class FuncApp(Expr):
    """f(args), optionally differentiated: orders[i] = #derivatives in slot i."""

    __slots__ = ("name", "args", "orders")
    _fields = ("name", "args", "orders")

    def __init__(self, name: str, args: tuple, orders: Optional[tuple] = None):
        self.name = name
        self.args = tuple(args)
        self.orders = tuple(orders) if orders is not None else (0,) * len(self.args)
        if len(self.orders) != len(self.args):
            raise ExprError(f"orders length mismatch in {name}")
        self._init_caches()


class Neg(Expr):
    __slots__ = ("arg",)
    _fields = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._init_caches()


class Add(Expr):
    __slots__ = ("terms",)
    _fields = ("terms",)

    def __init__(self, terms: Iterable[Expr]):
        self.terms = tuple(terms)
        if len(self.terms) < 2:
            raise ExprError("Add needs at least two terms")
        self._init_caches()


class Mul(Expr):
    __slots__ = ("factors",)
    _fields = ("factors",)

    def __init__(self, factors: Iterable[Expr]):
        self.factors = tuple(factors)
        if len(self.factors) < 2:
            raise ExprError("Mul needs at least two factors")
        self._init_caches()


class Div(Expr):
    __slots__ = ("num", "den")
    _fields = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den
        self._init_caches()


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        self.base = base
        self.exponent = exponent
        self._init_caches()


class _Unary(Expr):
    __slots__ = ("arg",)
    _fields = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._init_caches()


class Exp(_Unary):
    __slots__ = ()
    op = "exp"


class Ln(_Unary):
    __slots__ = ()
    op = "ln"


class Sqrt(_Unary):
    __slots__ = ()
    op = "sqrt"


class Sin(_Unary):
    __slots__ = ()
    op = "sin"


class Cos(_Unary):
    __slots__ = ()
    op = "cos"


class Tan(_Unary):
    __slots__ = ()
    op = "tan"


# the elementary functions, by surface name
UNARY = {c.op: c for c in (Exp, Ln, Sqrt, Sin, Cos, Tan)}


class Integral(Expr):
    """int(dummy, base, upper, integrand): the integral of integrand over
    dummy from the base point to upper.  base names the base point, a
    scenario constant, as dummy names the dummy: a literal, not a child.
    It is written base when it equals dummy and base(name) otherwise."""

    __slots__ = ("dummy", "base", "upper", "integrand")
    _fields = ("dummy", "base", "upper", "integrand")
    _binds = ("dummy", "integrand")

    def __init__(self, dummy: str, base: str, upper: Expr, integrand: Expr):
        self.dummy = dummy
        self.base = base
        self.upper = upper
        self.integrand = integrand
        self._init_caches()


class RootOf(Expr):
    """rootof(dummy, body, seed): a real z with body[dummy := z] = 0, on
    the branch that a solve started at seed finds."""

    __slots__ = ("dummy", "body", "seed")
    _fields = ("dummy", "body", "seed")
    _binds = ("dummy", "body")

    def __init__(self, dummy: str, body: Expr, seed: float):
        self.dummy = dummy
        self.body = body
        self.seed = float(seed)
        self._init_caches()


ZERO = Const(0)
ONE = Const(1)
TWO = Const(2)


def map_children(e: Expr, fn, fields=None) -> Expr:
    """e with each child c replaced by fn(c), in field order.  A child is
    an Expr field or an element of a non-empty tuple-of-Expr field; fields,
    when given, restricts the mapping to those fields.  e itself comes back
    when every child does."""
    new = {}
    for f in e._fields if fields is None else fields:
        v = getattr(e, f)
        if isinstance(v, Expr):
            nv = fn(v)
            if nv is not v:
                new[f] = nv
        elif isinstance(v, tuple) and v and isinstance(v[0], Expr):
            nv = tuple(map(fn, v))
            if any(a is not b for a, b in zip(nv, v)):
                new[f] = nv
    return _replace(e, new) if new else e


def node_key(e: Expr, fn) -> tuple:
    """e's class and fields as a hashable key, with fn(c) standing for each
    child c (as in map_children) and (type, value) for each literal field,
    a float (a root's seed) by its hex digits, which keep 0.0 and -0.0
    apart: two nodes get equal keys when they differ at most in children
    that fn maps to equal keys."""
    key: list = [e.__class__]
    for f in e._fields:
        v = getattr(e, f)
        if isinstance(v, Expr):
            key.append(fn(v))
        elif isinstance(v, tuple) and v and isinstance(v[0], Expr):
            key.append(tuple(map(fn, v)))
        elif isinstance(v, float):
            key.append((float, v.hex()))
        else:
            key.append((type(v), v))
    return tuple(key)


def _replace(e: Expr, new: dict) -> Expr:
    """e rebuilt with the fields in new replaced."""
    return e.__class__(**{f: new.get(f, getattr(e, f)) for f in e._fields})


def _flat(cls, items) -> Expr:
    """cls(items), cls being Add or Mul, with each item that is itself a cls
    node replaced by its operands: one level deep, order kept."""
    out: list = []
    for t in items:
        if isinstance(t, cls):
            out.extend(t.children())
        else:
            out.append(t)
    return cls(out)


def is_const(e: Expr, v=None) -> bool:
    if not isinstance(e, Const):
        return False
    return True if v is None else e.value == v


def int_exponent(e: Expr) -> Optional[int]:
    """The exponent as a Python int when it is an integer constant."""
    if isinstance(e, Const) and e.value.denominator == 1:
        return int(e.value)
    if isinstance(e, Neg):
        n = int_exponent(e.arg)
        return None if n is None else -n
    return None


# ---------------------------------------------------------------------------
# Environment and parsing

RESERVED = {"int", "rootof", "let", "base", "D", *UNARY}


class Env:
    """Symbol table for parsing: which names are variables, parameters, and
    function slots (name -> arity)."""

    def __init__(self, variables=(), parameters=(), functions=None):
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        self.functions = dict(functions or {})
        names = list(self.variables) + list(self.parameters) + list(self.functions)
        for n in names:
            if n in RESERVED:
                raise ExprError(f"name {n!r} is reserved")
        if len(names) != len(set(names)):
            raise ExprError("duplicate name in environment")


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            k = j
            while k < n and text[k] == "'":
                k += 1
            if k > j:
                toks.append(_Tok("pname", name + text[j:k], i))
            else:
                toks.append(_Tok("name", name, i))
            i = k
        elif c in "+-*/^(),[]":
            toks.append(_Tok(c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", text, i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, env: Env):
        self.text = text
        self.env = env
        self.toks = _tokenize(text)
        self.i = 0
        self.scopes: list = []  # stack of bound dummy names

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, got {t.text!r}", self.text, t.pos)
        return t

    def err(self, msg, tok):
        raise ParseError(msg, self.text, tok.pos)

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            self.err(f"trailing input {t.text!r}", t)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            t = self.term()
            terms.append(t if op == "+" else Neg(t))
        return terms[0] if len(terms) == 1 else _flat(Add, terms)

    def term(self) -> Expr:
        first = self.factor()
        factors = [first]
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            f = self.factor()
            if op == "*":
                factors.append(f)
            else:
                acc = factors[0] if len(factors) == 1 else _flat(Mul, factors)
                factors = [Div(acc, f)]
        return factors[0] if len(factors) == 1 else _flat(Mul, factors)

    def factor(self) -> Expr:
        # unary minus binds looser than '^': -x^2 is -(x^2)
        if self.peek().kind == "-":
            self.next()
            return Neg(self.factor())
        if self.peek().kind == "+":
            self.next()
            return self.factor()
        base = self.atom()
        if self.peek().kind == "^":
            self.next()
            return Pow(base, self.factor())
        return base

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Const(Fraction(t.text))
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "pname":
            name = t.text.rstrip("'")
            primes = len(t.text) - len(name)
            return self.func_app(name, t, primes)
        if t.kind == "name":
            return self.name_atom(t)
        self.err(f"unexpected token {t.text!r}", t)

    def name_atom(self, t: _Tok) -> Expr:
        name = t.text
        if name == "D" and self.peek().kind == "[":
            return self.dform(t)
        if name in ("int", "rootof", "let") and self.peek().kind == "(":
            return self.special(name, t)
        if name in UNARY and self.peek().kind == "(":
            self.next()
            arg = self.expr()
            self.expect(")")
            return UNARY[name](arg)
        if self.peek().kind == "(":
            return self.func_app(name, t, 0)
        # plain identifier
        for scope in reversed(self.scopes):
            if name == scope:
                return Var(name)
        if name in self.env.variables:
            return Var(name)
        if name in self.env.parameters:
            return Param(name)
        if name in self.env.functions:
            self.err(f"function {name!r} used without arguments", t)
        if name == "base":
            self.err("'base' is only valid as an integral lower limit", t)
        self.err(f"unknown identifier {name!r}", t)

    def base_name(self, dummy: str) -> str:
        """The base point named by an integral's lower limit: 'base' is
        dummy's own, 'base(name)' name's."""
        t = self.next()
        if t.kind != "name" or t.text != "base":
            self.err("an integral's lower limit is base or base(name)", t)
        if self.peek().kind != "(":
            return dummy
        self.next()
        t = self.next()
        if t.kind != "name":
            self.err("expected a dummy name in base(...)", t)
        self.expect(")")
        return t.text

    def func_app(self, name: str, t: _Tok, primes: int) -> Expr:
        if name not in self.env.functions:
            self.err(f"unknown function {name!r}", t)
        args = self.arguments(name, t)
        if primes and len(args) != 1:
            self.err("prime notation needs a one-argument function", t)
        return FuncApp(name, args, (primes,) if primes else None)

    def items(self, open_: str, item, close: str) -> list:
        """open_ item {"," item} close"""
        self.expect(open_)
        out = [item()]
        while self.peek().kind == ",":
            self.next()
            out.append(item())
        self.expect(close)
        return out

    def arguments(self, name: str, t: _Tok) -> tuple:
        """The parenthesized argument list of function name, arity checked."""
        args = self.items("(", self.expr, ")")
        arity = self.env.functions[name]
        if len(args) != arity:
            self.err(f"function {name!r} takes {arity} argument(s), got {len(args)}", t)
        return tuple(args)

    def dform(self, t: _Tok) -> Expr:
        orders = self.items("[", lambda: int(self.expect("num").text), "]")
        ft = self.next()
        if ft.kind not in ("name", "pname"):
            self.err("expected function name after D[...]", ft)
        name = ft.text
        if name not in self.env.functions:
            self.err(f"unknown function {name!r}", ft)
        if self.env.functions[name] != len(orders):
            self.err(f"D[...] order list length must match arity of {name!r}", ft)
        return FuncApp(name, self.arguments(name, ft), tuple(orders))

    def dummy_name(self) -> str:
        t = self.next()
        if t.kind != "name":
            self.err("expected a dummy name", t)
        name = t.text
        if name in RESERVED:
            self.err(f"{name!r} cannot be a dummy", t)
        return name

    def special(self, kind: str, t0: _Tok) -> Expr:
        self.expect("(")
        if kind == "int":
            dummy = self.dummy_name()
            self.expect(",")
            base = self.base_name(dummy)
            self.expect(",")
            upper = self.expr()
            self.expect(",")
            self.scopes.append(dummy)
            integrand = self.expr()
            self.scopes.pop()
            self.expect(")")
            return Integral(dummy, base, upper, integrand)
        if kind == "rootof":
            dummy = self.dummy_name()
            self.expect(",")
            self.scopes.append(dummy)
            body = self.expr()
            self.scopes.pop()
            self.expect(",")
            neg = self.peek().kind == "-"
            if neg:
                self.next()
            seed = float(Fraction(self.expect("num").text))
            self.expect(")")
            return RootOf(dummy, body, -seed if neg else seed)
        # let: expanded here; the engine's hash-consing shares the copies
        name = self.dummy_name()
        self.expect(",")
        bound = self.expr()
        self.expect(",")
        self.scopes.append(name)
        body = self.expr()
        self.scopes.pop()
        self.expect(")")
        return substitute(body, {name: bound})


def parse(text: str, env: Env) -> Expr:
    return _Parser(text, env).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 25, 30, 40


def _fmt_seed(seed: float) -> str:
    """seed in positional digits, which the tokenizer reads back to the
    same float (it has no exponent notation); an integer without '.0'."""
    text = format(Decimal(repr(seed)), "f")
    return text[:-2] if text.endswith(".0") else text


_PREC = {Add: _PREC_ADD, Mul: _PREC_MUL, Div: _PREC_MUL, Neg: _PREC_NEG,
         Pow: _PREC_POW}


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC.get(e.__class__, _PREC_ATOM)


def _wrap(e: Expr, minprec: int) -> str:
    s = to_text(e)
    return f"({s})" if _prec(e) < minprec else s


def to_text(e: Expr) -> str:
    """Render to the surface syntax.  parse(to_text(e)) == e modulo the
    parser's flattening of nested sums and products."""
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return str(v.numerator)
        if v < 0:
            return f"(-{-v.numerator}/{v.denominator})"
        return f"({v.numerator}/{v.denominator})"
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, FuncApp):
        args = ", ".join(to_text(a) for a in e.args)
        if any(e.orders):
            if len(e.args) == 1 and e.orders[0] <= 4:
                primes = "'" * e.orders[0]
                return f"{e.name}{primes}({args})"
            o = ",".join(str(k) for k in e.orders)
            return f"D[{o}]{e.name}({args})"
        return f"{e.name}({args})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if isinstance(e, Add):
        parts = [_wrap(e.terms[0], _PREC_ADD)]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append(" - " + _wrap(t.arg, _PREC_MUL))
            elif isinstance(t, Const) and t.value < 0:
                parts.append(" - " + to_text(Const(-t.value)))
            else:
                parts.append(" + " + _wrap(t, _PREC_MUL))
        return "".join(parts)
    if isinstance(e, Mul):
        parts = [_wrap(e.factors[0], _PREC_MUL + (0 if not isinstance(e.factors[0], Div) else 1))]
        for f in e.factors[1:]:
            # a Div factor must be parenthesized or it would re-associate
            parts.append(_wrap(f, _PREC_MUL + 1))
        return "*".join(parts)
    if isinstance(e, Div):
        return f"{_wrap(e.num, _PREC_MUL)}/{_wrap(e.den, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW + 1)}^{_wrap(e.exponent, _PREC_NEG)}"
    if isinstance(e, _Unary):
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Integral):
        lo = "base" if e.base == e.dummy else f"base({e.base})"
        return f"int({e.dummy}, {lo}, {to_text(e.upper)}, {to_text(e.integrand)})"
    if isinstance(e, RootOf):
        return f"rootof({e.dummy}, {to_text(e.body)}, {_fmt_seed(e.seed)})"
    raise ExprError(f"cannot print {e!r}")


def flatten(e: Expr) -> Expr:
    """Flatten nested Add/Mul without reordering; used to state the
    print/parse round-trip law."""
    e = map_children(e, flatten)
    if isinstance(e, (Add, Mul)):
        return _flat(e.__class__, e.children())
    return e


# ---------------------------------------------------------------------------
# Substitution


def _fresh(base: str, avoid) -> str:
    k = 2
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def substitute(e: Expr, subs: dict) -> Expr:
    """Replace free occurrences of names (variables or parameters) by
    expressions, renaming bound dummies where needed to avoid capture."""
    subs = {k: v for k, v in subs.items() if not (isinstance(v, (Var, Param)) and v.name == k)}
    if not subs:
        return e
    repl_free: set = set()
    for v in subs.values():
        repl_free |= v._free
    return _subst(e, subs, frozenset(repl_free))


def _subst(e: Expr, subs: dict, repl_free: frozenset) -> Expr:
    if not (e._free & subs.keys()):
        return e
    if isinstance(e, (Var, Param)):
        return subs.get(e.name, e)
    if e._binds:
        return _subst_binder(e, subs, repl_free)
    return map_children(e, lambda c: _subst(c, subs, repl_free))


def _subst_binder(e, subs: dict, repl_free: frozenset):
    name_field, scope = e._binds
    dummy = getattr(e, name_field)
    inner_subs = {k: v for k, v in subs.items() if k != dummy}
    body = getattr(e, scope)
    if dummy in repl_free and body._free & inner_subs.keys():
        # the binder's dummy occurs free in a replacement: rename it.  An
        # integral's base names a scenario constant: renaming the dummy
        # keeps it
        avoid = set(repl_free) | set(e._free) | {dummy} | set(inner_subs)
        new_dummy = _fresh(dummy, avoid | body._free)
        ren = {dummy: Var(new_dummy)}
        e = _replace(e, {name_field: new_dummy,
                         scope: _subst(body, ren, frozenset({new_dummy}))})
    outside = tuple(f for f in e._fields if f != scope)
    e = map_children(e, lambda c: _subst(c, subs, repl_free), outside)
    return map_children(e, lambda c: _subst(c, inner_subs, repl_free), (scope,))


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to the named variable.
    Integrals follow the variable-upper-limit rule (the base point is a
    constant); rootof uses implicit differentiation."""
    return _diff(e, var, {})


def _diff(e: Expr, var: str, memo: dict) -> Expr:
    if var not in e._free:
        return ZERO
    key = (e, var)
    got = memo.get(key)
    if got is not None:
        return got
    r = _diff_node(e, var, memo)
    memo[key] = r
    return r


def _sum(terms):
    terms = [t for t in terms if not is_const(t, 0)]
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return _flat(Add, terms)


def _prod(factors):
    fs = [f for f in factors if not is_const(f, 1)]
    if any(is_const(f, 0) for f in fs):
        return ZERO
    if not fs:
        return ONE
    if len(fs) == 1:
        return fs[0]
    return _flat(Mul, fs)


def _diff_node(e: Expr, var: str, memo: dict) -> Expr:
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var, memo))
    if isinstance(e, Add):
        return _sum(_diff(t, var, memo) for t in e.terms)
    if isinstance(e, Mul):
        fs = e.factors
        return _sum(_prod(fs[:i] + (_diff(f, var, memo),) + fs[i + 1:])
                    for i, f in enumerate(fs) if var in f._free)
    if isinstance(e, Div):
        du = _diff(e.num, var, memo)
        dv = _diff(e.den, var, memo)
        if is_const(dv, 0):
            return Div(du, e.den)
        t1 = _prod([du, e.den])
        t2 = _prod([e.num, dv])
        return Div(_sum([t1, Neg(t2)]), Pow(e.den, TWO))
    if isinstance(e, Pow):
        db = _diff(e.base, var, memo)
        de = _diff(e.exponent, var, memo)
        if is_const(de, 0):
            n = int_exponent(e.exponent)
            if n is not None:
                if n == 0:
                    return ZERO
                return _prod([Const(n), Pow(e.base, Const(n - 1)), db])
            return _prod([e.exponent, Pow(e.base, _sum([e.exponent, Const(-1)])), db])
        # variable exponent: d(b^p) = b^p * (p' ln b + p b'/b)
        inner = _sum([_prod([de, Ln(e.base)]), _prod([e.exponent, Div(db, e.base)])])
        return _prod([e, inner])
    if isinstance(e, Exp):
        return _prod([e, _diff(e.arg, var, memo)])
    if isinstance(e, Ln):
        return Div(_diff(e.arg, var, memo), e.arg)
    if isinstance(e, Sqrt):
        return Div(_diff(e.arg, var, memo), _prod([TWO, e]))
    if isinstance(e, Sin):
        return _prod([Cos(e.arg), _diff(e.arg, var, memo)])
    if isinstance(e, Cos):
        return Neg(_prod([Sin(e.arg), _diff(e.arg, var, memo)]))
    if isinstance(e, Tan):
        return _prod([_sum([ONE, Pow(e, TWO)]), _diff(e.arg, var, memo)])
    if isinstance(e, FuncApp):
        terms = []
        for i, a in enumerate(e.args):
            if var not in a._free:
                continue
            da = _diff(a, var, memo)
            bumped = tuple(o + (1 if j == i else 0) for j, o in enumerate(e.orders))
            terms.append(_prod([FuncApp(e.name, e.args, bumped), da]))
        return _sum(terms)
    if isinstance(e, Integral):
        terms = []
        if var in e.integrand._free - {e.dummy}:
            terms.append(Integral(e.dummy, e.base, e.upper, _diff(e.integrand, var, memo)))
        if var in e.upper._free:
            du = _diff(e.upper, var, memo)
            terms.append(_prod([substitute(e.integrand, {e.dummy: e.upper}), du]))
        return _sum(terms)
    if isinstance(e, RootOf):
        # body(z; ...) = 0  =>  dz/dvar = -(d body/d var)/(d body/d z), at z = e
        dv = _diff(e.body, var, memo)
        dz = _diff(e.body, e.dummy, memo)
        sub = {e.dummy: e}
        num = substitute(dv, sub)
        den = substitute(dz, sub)
        return Neg(Div(num, den))
    raise ExprError(f"cannot differentiate {e!r}")


# ---------------------------------------------------------------------------
# Light simplification


def simplify(e: Expr) -> Expr:
    """Value-preserving cleanup: constant folding, neutral-element removal,
    sign normalization, flattening.  No aggressive rewriting, and no rule
    drops an operand: u*0, 0/u and u^0 keep their u, which may be NaN."""
    memo: dict = {}

    def simp(n: Expr) -> Expr:
        out = memo.get(n)
        if out is None:
            out = memo[n] = _simp_top(map_children(n, simp))
        return out

    return simp(e)


def _simp_top(e: Expr) -> Expr:
    if isinstance(e, Neg):
        a = e.arg
        if isinstance(a, Neg):
            return a.arg
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Div) and isinstance(a.num, Const):
            return Div(Const(-a.num.value), a.den)
        return e
    if isinstance(e, Add):
        terms: list = []
        csum = Fraction(0)
        for t in e.terms:
            if isinstance(t, Add):
                ts = t.terms
            else:
                ts = (t,)
            for s in ts:
                if isinstance(s, Const):
                    csum += s.value
                elif isinstance(s, Neg) and isinstance(s.arg, Const):
                    csum -= s.arg.value
                else:
                    terms.append(s)
        if csum != 0:
            terms.append(Const(csum))
        if not terms:
            return ZERO
        if len(terms) == 1:
            return terms[0]
        return Add(terms)
    if isinstance(e, Mul):
        sign = 1
        cprod = Fraction(1)
        factors: list = []
        stack = list(e.factors)
        for f in stack:
            if isinstance(f, Neg):
                sign = -sign
                f = f.arg
            if isinstance(f, Mul):
                stack.extend(f.factors)
                continue
            if isinstance(f, Const):
                cprod *= f.value
            else:
                factors.append(f)
        cprod *= sign
        neg = cprod < 0
        if neg:
            cprod = -cprod
        if cprod != 1:
            factors.insert(0, Const(cprod))
        if not factors:
            out: Expr = ONE
        elif len(factors) == 1:
            out = factors[0]
        else:
            out = Mul(factors)
        return Neg(out) if neg else out
    if isinstance(e, Div):
        n, d = e.num, e.den
        if isinstance(d, Const) and d.value != 0:
            if isinstance(n, Const):
                return Const(n.value / d.value)
            if d.value == 1:
                return n
        if isinstance(n, Neg) and isinstance(d, Neg):
            return Div(n.arg, d.arg)
        return e
    if isinstance(e, Pow):
        n = int_exponent(e.exponent)
        if n is not None:
            if n == 1:
                return e.base
            if isinstance(e.base, Const) and e.base.value != 0 and abs(n) <= 16:
                return Const(e.base.value**n)
        return e
    if isinstance(e, Ln):
        if isinstance(e.arg, Exp):
            return e.arg.arg
        if is_const(e.arg, 1):
            return ZERO
        return e
    if isinstance(e, Exp):
        if is_const(e.arg, 0):
            return ONE
        return e
    if isinstance(e, Sqrt):
        if isinstance(e.arg, Const):
            v = e.arg.value
            if v.denominator == 1 and v >= 0:
                r = int(v.numerator) ** 0.5
                if int(r) ** 2 == v.numerator:
                    return Const(int(r))
        return e
    return e


def top_terms(e: Expr) -> tuple:
    """The top-level additive terms (a single-term expression is itself)."""
    if isinstance(e, Add):
        return e.terms
    return (e,)


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in e.children():
        yield from walk(c)
