"""Concrete stand-ins for the catalog's arbitrary functions.

A FunctionInstance is a smooth function of 1..4 real arguments with exact
analytic partial derivatives of any order: a multivariate polynomial plus an
optional sinusoid in the first argument.  Polynomials keep the derivative
bookkeeping trivial and integrate cleanly under the adaptive quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def __post_init__(self):
        for exps, _ in self.coeffs:
            if len(exps) != self.arity:
                raise ValueError(f"{self.name}: exponent tuple arity mismatch")
        if self.sin_amp != 0.0 and self.arity != 1:
            raise ValueError("sinusoid term is for one-argument functions only")

    def eval(self, orders: Tuple[int, ...], args) -> np.ndarray:
        """Partial derivative of the given per-slot orders, at args (arrays
        broadcast together)."""
        args = [np.asarray(a, dtype=float) for a in args]
        out = np.zeros(np.broadcast(*args).shape if len(args) > 1 else args[0].shape)
        for exps, c in self.coeffs:
            term = None
            coef = c
            dead = False
            for e, o, a in zip(exps, orders, args):
                if o > e:
                    dead = True
                    break
                # falling factorial e*(e-1)*...*(e-o+1)
                for j in range(o):
                    coef *= e - j
                p = e - o
                if p > 0:
                    f = a**p
                    term = f if term is None else term * f
            if dead or coef == 0.0:
                continue
            out = out + (coef if term is None else coef * term)
        if self.sin_amp != 0.0:
            k = orders[0]
            w = self.sin_freq
            out = out + self.sin_amp * w**k * np.sin(w * args[0] + self.sin_phase + k * math.pi / 2.0)
        return out

    def __call__(self, *args) -> np.ndarray:
        return self.eval((0,) * self.arity, args)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "arity": self.arity,
            "coeffs": [[list(e), c] for e, c in self.coeffs],
            "sin": [self.sin_amp, self.sin_freq, self.sin_phase],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionInstance":
        coeffs = tuple((tuple(int(k) for k in e), float(c)) for e, c in d["coeffs"])
        amp, freq, phase = d.get("sin", [0.0, 1.0, 0.0])
        return cls(d["name"], int(d["arity"]), coeffs, amp, freq, phase)


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
