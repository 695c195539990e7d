"""Bracketed root solving, one column and batched."""

import math

import numpy as np
import pytest

from pdegensol.numeric import NumericConfig
from pdegensol.numeric.rootfind import (BAD_SEED, NO_BRACKET, NO_CONVERGE,
                                        OK, bracket_bisect_newton)


CFG = NumericConfig()


def solve(f, seed, fprime=None, cfg=CFG):
    """Root and status code of the one-column problem f(z) = 0 near seed;
    f and fprime map an array of z to an array of values."""
    fp = None if fprime is None else (lambda zs, cols: fprime(zs))
    roots, status = bracket_bisect_newton(lambda zs, cols: f(zs), fp,
                                          np.array([float(seed)]), cfg)
    return roots[0], status[0]


def test_simple_roots():
    # z^2 = 2 from seed 1: sqrt(2)                              [TRIVIAL]
    z, st = solve(lambda z: z * z - 2.0, 1.0)
    assert st == OK
    assert z == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # cos z = z from seed 0.5: the Dottie number 0.739085...    [DERIVED]
    z, st = solve(lambda z: np.cos(z) - z, 0.5)
    assert st == OK
    assert z == pytest.approx(0.7390851332151607, abs=1e-12)


def test_root_below_seed():
    z, st = solve(lambda z: np.exp(z) - 0.5, 0.0)
    assert st == OK
    assert z == pytest.approx(math.log(0.5), abs=1e-12)


def test_seed_exactly_at_root():
    assert solve(lambda z: z - 1.25, 1.25) == (1.25, OK)


def test_no_root_in_span_raises():
    # z^2 + 1 has no real root anywhere: no bracket, NaN root
    z, st = solve(lambda z: z * z + 1.0, 1.0)
    assert st == NO_BRACKET and math.isnan(z)


def test_nan_at_seed_is_bad_seed():
    # f undefined at the seed: refused at once, although a root exists at 2
    z, st = solve(lambda z: np.where(z < 1.0, np.nan, z - 2.0), 0.0)
    assert st == BAD_SEED and math.isnan(z)


def test_nan_wall_blocks_direction_but_other_side_found():
    # f undefined left of 0, root at 4 above the seed
    def f(z):
        with np.errstate(invalid="ignore"):
            return np.where(z < 0, np.nan, np.sqrt(z) - 2.0)

    z, st = solve(f, 0.5)
    assert st == OK
    assert z == pytest.approx(4.0, abs=1e-10)


def test_degenerate_derivative_detected():
    # z^2 has a double root: f never changes sign, so no bracket is found
    z, st = solve(lambda z: z * z, 0.5, fprime=lambda z: 2 * z)
    assert st == NO_BRACKET and math.isnan(z)


def test_newton_polish_hits_tolerance():
    z, st = solve(lambda z: z**3 - 7.0, 1.5, fprime=lambda z: 3.0 * z**2)
    assert st == OK
    want = 7.0 ** (1.0 / 3.0)
    assert z == pytest.approx(want, abs=1e-13)
    assert abs(z**3 - 7.0) <= 1e-11


def test_batched_columns_independent():
    # column k solves z^2 = k + 1; all columns at once
    targets = np.arange(1.0, 9.0)

    def fval(zs, cols):
        return zs * zs - targets[cols]

    def fprime(zs, cols):
        return 2.0 * zs

    seeds = np.ones(8)
    roots, status = bracket_bisect_newton(fval, fprime, seeds, CFG)
    assert (status == OK).all()
    assert np.allclose(roots, np.sqrt(targets), atol=1e-12)


def test_batched_partial_failure_isolates_columns():
    # odd columns have no real root; even columns still come back clean
    def fval(zs, cols):
        out = zs * zs - 2.0
        out[cols % 2 == 1] = zs[cols % 2 == 1] ** 2 + 1.0
        return out

    seeds = np.ones(6)
    roots, status = bracket_bisect_newton(fval, None, seeds, CFG)
    even = np.arange(6) % 2 == 0
    assert (status[even] == OK).all()
    assert np.allclose(roots[even], math.sqrt(2.0), atol=1e-10)
    assert not (status[~even] == OK).any()
    assert np.isnan(roots[~even]).all()


def test_nan_at_a_bisection_midpoint_drops_that_column():
    # every column solves z = 0.3 or 0.7 from seed 0.  Column 1 is NaN on
    # (0.299, 0.301), which the bracket search steps over and bisection
    # lands in: that column alone gives up, unsolved, and is evaluated no
    # more; the others still converge
    targets = np.array([0.3, 0.3, 0.7])
    calls = []

    def fval(zs, cols):
        out = zs - targets[cols]
        out[(cols == 1) & (np.abs(zs - 0.3) < 1e-3)] = np.nan
        calls.append((cols.copy(), out.copy()))
        return out

    roots, status = bracket_bisect_newton(
        fval, lambda zs, cols: np.ones_like(zs), np.zeros(3), CFG)
    assert status.tolist() == [OK, NO_CONVERGE, OK]
    assert np.isnan(roots[1])
    assert np.allclose(roots[[0, 2]], [0.3, 0.7], atol=1e-12)
    hit = next(i for i, (cols, out) in enumerate(calls)
               if np.isnan(out[cols == 1]).any())
    assert all(1 not in cols for cols, _ in calls[hit + 1:])


def test_span_cap_respected():
    # nearest root far outside the bracket span: must refuse
    z, st = solve(lambda z: z - 50.0, 0.0)
    assert st == NO_BRACKET and math.isnan(z)
