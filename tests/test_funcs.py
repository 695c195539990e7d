"""FunctionInstance.eval against the plain monomial loop it replaced.

The loop below is kept as an oracle: for random polynomials of arity 1-3
and degree 1-3, with and without a sinusoid, every derivative order tuple
up to 3 per slot must give the same bits (compared on .view(np.int64), so
signed zeros and NaN payloads count), including at +-0.0, +-inf and NaN
and with a scalar argument."""

import itertools
import math

import numpy as np
import pytest

from pdegensol.numeric import polynomial
from pdegensol.numeric.funcs import monomial_exponents


def _oracle(fi, orders, args):
    args = [np.asarray(a, dtype=float) for a in args]
    out = np.zeros(np.broadcast(*args).shape if len(args) > 1 else args[0].shape)
    for exps, c in fi.coeffs:
        term = None
        coef = c
        dead = False
        for e, o, a in zip(exps, orders, args):
            if o > e:
                dead = True
                break
            for j in range(o):
                coef *= e - j
            p = e - o
            if p > 0:
                f = a**p
                term = f if term is None else term * f
        if dead or coef == 0.0:
            continue
        out = out + (coef if term is None else coef * term)
    if fi.sin_amp != 0.0:
        k = orders[0]
        w = fi.sin_freq
        out = out + fi.sin_amp * w**k * np.sin(w * args[0] + fi.sin_phase + k * math.pi / 2.0)
    return out


def _bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=float)).view(np.int64)


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e-300]


def _random_poly(rng, arity, degree, sinusoid):
    cmap = {(0,) * arity: float(rng.choice([0.0, -0.0, rng.normal()]))}
    for exps in monomial_exponents(arity, degree):
        if rng.random() < 0.8:
            cmap[exps] = float(rng.choice([0.0, -0.0, rng.normal(), -1.0]))
    kw = {}
    if sinusoid:
        kw = {"sin_amp": float(rng.normal()), "sin_freq": float(rng.uniform(0.5, 2)),
              "sin_phase": float(rng.uniform(0, 6.3))}
    return polynomial("f", arity, cmap, **kw)


def _arg_sets(rng, arity):
    n = 24
    cols = [np.concatenate([rng.permutation(_SPECIAL), rng.normal(size=n - len(_SPECIAL))])
            for _ in range(arity)]
    yield cols
    # a scalar argument broadcast against arrays (or alone)
    yield [-0.0] + cols[1:]
    if arity > 1:
        yield [cols[0], 0.75] + cols[2:]


# the sinusoid is for one-argument functions only
@pytest.mark.parametrize("arity,degree,sinusoid", [
    (a, d, s) for a in (1, 2, 3) for d in (1, 2, 3) for s in (False, True)
    if a == 1 or not s])
def test_eval_bit_identical_to_monomial_loop(arity, degree, sinusoid):
    rng = np.random.default_rng(1000 * arity + 10 * degree + sinusoid)
    for _ in range(4):
        fi = _random_poly(rng, arity, degree, sinusoid)
        for args in _arg_sets(rng, arity):
            for orders in itertools.product(range(4), repeat=arity):
                with np.errstate(all="ignore"):
                    got = fi.eval(orders, args)
                    want = _oracle(fi, orders, args)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(_bits(got), _bits(want)), (fi, orders)


def test_eval_leaves_arguments_untouched():
    fi = polynomial("f", 2, {(1, 0): 2.0, (0, 1): -1.0, (1, 1): 0.5})
    a, b = np.array([1.0, -0.0, 3.0]), np.array([2.0, 5.0, -0.0])
    ca, cb = a.copy(), b.copy()
    for orders in itertools.product(range(3), repeat=2):
        fi.eval(orders, [a, b])
    assert np.array_equal(_bits(a), _bits(ca)) and np.array_equal(_bits(b), _bits(cb))
