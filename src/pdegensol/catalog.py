"""Catalog of PDE families and their closed-form solutions.

Families live in a plain-text data file next to this module.  Each record
carries the PDE left-hand side (written in terms of w and its partial
derivatives) and the general solution expression.  The loader parses both
under the appropriate symbol environments and precomputes the bits the
verifier needs: which derivatives of w occur, their multi-indices, the
top-level additive terms used for residual normalization, and the named
base points appearing in the solution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .expr_core import (
    Env,
    Expr,
    FuncApp,
    Integral,
    ParseError,
    RootOf,
    parse,
    top_terms,
    walk,
)

__all__ = [
    "PdeFamily",
    "CatalogError",
    "load_catalog",
    "family_ids",
    "get_family",
]


class CatalogError(Exception):
    pass


@dataclass
class PdeFamily:
    family_id: str
    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    constraints: tuple[str, ...]
    functions: dict[str, int]
    pde_text: str
    sol_text: str
    note: str = ""

    # built by load_catalog
    pde: Expr = field(init=False, repr=False)
    solution: Expr = field(init=False, repr=False)
    pde_terms: tuple[Expr, ...] = field(init=False, repr=False)
    deriv_orders: dict[str, tuple[int, ...]] = field(init=False, repr=False)
    base_names: tuple[str, ...] = field(init=False, repr=False)
    order: int = field(init=False)
    sol_depth: int = field(init=False)
    has_roots: bool = field(init=False)

    def build(self) -> None:
        wnames = _collect_wnames(self.pde_text)
        self.deriv_orders = {
            nm: _suffix_orders(nm, self.variables) for nm in wnames
        }
        pde_env = Env(
            variables=self.variables + tuple(sorted(wnames)),
            parameters=self.parameters,
            functions=self.functions,
        )
        sol_env = Env(
            variables=self.variables,
            parameters=self.parameters,
            functions=self.functions,
        )
        try:
            self.pde = parse(self.pde_text, pde_env)
            self.solution = parse(self.sol_text, sol_env)
        except ParseError as exc:  # pragma: no cover - catalog is static
            raise CatalogError(f"family {self.family_id}: {exc}") from exc
        self.pde_terms = tuple(top_terms(self.pde))
        self.order = max(
            (sum(o) for o in self.deriv_orders.values()), default=0
        )
        self.base_names = _collect_base_names(self.solution)
        self.sol_depth = _integral_depth(self.solution)
        self.has_roots = any(isinstance(n, RootOf)
                             for n in walk(self.solution))
        self._check_symbols()

    def _check_symbols(self) -> None:
        known = set(self.variables) | set(self.parameters)
        bad = self.solution.free - known
        if bad:
            raise CatalogError(
                f"family {self.family_id}: unbound names in solution: "
                f"{sorted(bad)}"
            )
        known |= set(self.deriv_orders)
        bad = self.pde.free - known
        if bad:
            raise CatalogError(
                f"family {self.family_id}: unbound names in pde: {sorted(bad)}"
            )

    @property
    def arbitrary_functions(self) -> dict[str, int]:
        """Function symbols appearing only in the solution (F, G, H)."""
        in_pde = {
            n.name for n in walk(self.pde) if isinstance(n, FuncApp)
        }
        return {k: v for k, v in self.functions.items() if k not in in_pde}

    @property
    def coefficient_functions(self) -> dict[str, int]:
        """Function symbols the PDE itself depends on (nonconstant params)."""
        arb = self.arbitrary_functions
        return {k: v for k, v in self.functions.items() if k not in arb}

    def describe(self) -> str:
        kind = "third order" if self.order >= 3 else "second order"
        nv = len(self.variables)
        bits = [f"{kind}, {nv} independent variables"]
        if self.coefficient_functions:
            bits.append("nonconstant coefficients")
        elif self.parameters:
            bits.append("constant coefficients")
        if self.has_roots:
            bits.append("solution uses implicit roots")
        if self.sol_depth:
            bits.append(f"integral nesting depth {self.sol_depth}")
        return "; ".join(bits)


_WNAME = re.compile(r"\bw(?:_[A-Za-z0-9]+)?\b")


def _collect_wnames(pde_text: str) -> set[str]:
    return set(_WNAME.findall(pde_text))


def _suffix_orders(name: str, variables: tuple[str, ...]) -> tuple[int, ...]:
    counts = [0] * len(variables)
    if name == "w":
        return tuple(counts)
    suffix = name.split("_", 1)[1]
    by_len = sorted(
        range(len(variables)), key=lambda i: -len(variables[i])
    )
    i = 0
    while i < len(suffix):
        for vi in by_len:
            v = variables[vi]
            if suffix.startswith(v, i):
                counts[vi] += 1
                i += len(v)
                break
        else:
            raise CatalogError(
                f"cannot read derivative suffix {name!r} over {variables}"
            )
    return tuple(counts)


def _collect_base_names(e: Expr) -> tuple[str, ...]:
    return tuple(sorted({n.base for n in walk(e) if isinstance(n, Integral)}))


def _integral_depth(e: Expr) -> int:
    """The deepest nesting of integrals in e, in one pass.  An integral's
    upper limit counts at its own level: an integral in it is not inside
    the integral whose limit it is."""
    if isinstance(e, Integral):
        return max(1 + _integral_depth(e.integrand), _integral_depth(e.upper))
    return max(map(_integral_depth, e.children()), default=0)


def _parse_records(text: str):
    rec = None
    key = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise CatalogError(f"line {lineno}: malformed header")
            if rec is not None:
                yield rec
            rec = {"id": line[1:-1].strip()}
            key = None
            continue
        if rec is None:
            raise CatalogError(f"line {lineno}: field outside a record")
        if line[0] in " \t":
            if key is None:
                raise CatalogError(f"line {lineno}: stray continuation")
            rec[key] += " " + line.strip()
            continue
        if ":" not in line:
            raise CatalogError(f"line {lineno}: expected 'field: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        rec[key] = value.strip()
    if rec is not None:
        yield rec


def _build_family(rec: dict) -> PdeFamily:
    fid = rec["id"]
    funcs: dict[str, int] = {}
    for item in rec.get("funcs", "").split():
        name, _, ar = item.partition(":")
        funcs[name] = int(ar)
    constraints = tuple(
        c.strip() for c in rec.get("constraints", "").split(";") if c.strip()
    )
    fam = PdeFamily(
        family_id=fid,
        variables=tuple(rec["vars"].split()),
        parameters=tuple(rec.get("params", "").split()),
        constraints=constraints,
        functions=funcs,
        pde_text=rec["pde"],
        sol_text=rec["sol"],
        note=rec.get("note", ""),
    )
    fam.build()
    return fam


_CATALOG: dict[str, PdeFamily] | None = None


def load_catalog() -> dict[str, PdeFamily]:
    global _CATALOG
    if _CATALOG is None:
        text = (
            resources.files("pdegensol")
            .joinpath("families.txt")
            .read_text(encoding="utf-8")
        )
        cat: dict[str, PdeFamily] = {}
        for rec in _parse_records(text):
            fam = _build_family(rec)
            if fam.family_id in cat:
                raise CatalogError(f"duplicate family id {fam.family_id}")
            cat[fam.family_id] = fam
        _CATALOG = cat
    return _CATALOG


def family_ids() -> list[str]:
    return list(load_catalog())


def get_family(family_id: str) -> PdeFamily:
    cat = load_catalog()
    if family_id not in cat:
        raise KeyError(family_id)
    return cat[family_id]
