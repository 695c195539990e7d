"""Concrete stand-ins for the catalog's arbitrary functions.

A FunctionInstance is a smooth function of 1..4 real arguments with exact
analytic partial derivatives of any order: a multivariate polynomial plus an
optional sinusoid in the first argument.  Polynomials keep the derivative
bookkeeping trivial and integrate cleanly under the adaptive quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

Monomial = Tuple[int, ...]


@dataclass(frozen=True)
class FunctionInstance:
    name: str
    arity: int
    # monomial exponent tuple -> coefficient; the empty-exponent entry is the offset
    coeffs: Tuple[Tuple[Monomial, float], ...]
    sin_amp: float = 0.0
    sin_freq: float = 1.0
    sin_phase: float = 0.0
    # order tuple -> _live_terms(orders); derived from the fields above
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for exps, _ in self.coeffs:
            if len(exps) != self.arity:
                raise ValueError(f"{self.name}: exponent tuple arity mismatch")
        if self.sin_amp != 0.0 and self.arity != 1:
            raise ValueError("sinusoid term is for one-argument functions only")

    def _live_terms(self, orders: Tuple[int, ...]) -> tuple:
        """The monomials that survive differentiation by orders, in
        coefficient order: (coefficient times falling factorials,
        ((arg, power), ...)) with powers >= 1."""
        terms = self._compiled.get(orders)
        if terms is None:
            live = []
            for exps, c in self.coeffs:
                coef = c
                factors = []
                for i, (e, o) in enumerate(zip(exps, orders)):
                    if o > e:
                        break
                    # falling factorial e*(e-1)*...*(e-o+1)
                    for j in range(o):
                        coef *= e - j
                    if e > o:
                        factors.append((i, e - o))
                else:
                    if coef != 0.0:
                        live.append((coef, tuple(factors)))
            terms = self._compiled[orders] = tuple(live)
        return terms

    def eval(self, orders: Tuple[int, ...], args) -> np.ndarray:
        """Partial derivative of the given per-slot orders, at args (arrays
        broadcast together)."""
        args = [np.asarray(a, dtype=float) for a in args]
        shape = np.broadcast(*args).shape if len(args) > 1 else args[0].shape
        out = None
        for coef, factors in self._live_terms(tuple(orders)):
            term = None
            for i, p in factors:
                f = args[i] if p == 1 else args[i] ** p
                term = f if term is None else term * f
            if term is None:
                term = coef
            elif isinstance(term, np.ndarray) and term is not args[factors[0][0]]:
                np.multiply(coef, term, out=term)  # a fresh product
            else:
                term = coef * term
            if out is None:
                # 0.0 + term, as the sum used to start from zeros: a -0.0
                # term comes out +0.0; reuse the fresh product when it
                # already has the full shape
                fresh = isinstance(term, np.ndarray) and term.shape == shape
                out = np.add(0.0, term, out=term if fresh else np.empty(shape))
            else:
                out += term
        if out is None:
            out = np.zeros(shape)
        if self.sin_amp != 0.0:
            k = orders[0]
            w = self.sin_freq
            out += self.sin_amp * w**k * np.sin(w * args[0] + self.sin_phase + k * math.pi / 2.0)
        return out


def polynomial(name: str, arity: int, coeff_map: Dict[Monomial, float], **kw) -> FunctionInstance:
    items = tuple(sorted(coeff_map.items()))
    return FunctionInstance(name, arity, items, **kw)


def monomial_exponents(arity: int, degree: int):
    """All exponent tuples with 1 <= total degree <= degree."""
    if arity == 0:
        return
    for total in range(1, degree + 1):
        yield from _split(total, arity)


def _split(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _split(total - first, slots - 1):
            yield (first,) + rest
