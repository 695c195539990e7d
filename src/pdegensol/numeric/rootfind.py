"""Bracketed root solving, vectorized over batches.

Strategy per element: expand a bracket geometrically around the seed until
the function changes sign (NaN probes block that direction: the domain edge
acts as a wall), halve the bracket 52 times (no width test: that takes a
bracket of width w down to w * 2**-52), then polish with three Newton
steps using the supplied derivative.  Everything runs on whole
arrays; elements drop out as they converge.  The first step is
_EXPAND_STEP0 * max(1, |seed|), each next one _EXPAND_GROWTH times longer,
and the search gives up past _EXPAND_SPAN * max(1, |seed|).

Status codes: 0 ok, 1 bad seed (NaN at seed), 2 no bracket found,
3 residual tolerance not met."""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .config import NumericConfig

OK, BAD_SEED, NO_BRACKET, NO_CONVERGE = 0, 1, 2, 3

_EXPAND_STEP0 = 0.05
_EXPAND_GROWTH = 1.7
_EXPAND_SPAN = 8.0


def bracket_bisect_newton(
    fval: Callable[[np.ndarray, np.ndarray], np.ndarray],
    fprime: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    seeds: np.ndarray,
    cfg: NumericConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve f(z; col) = 0 for each column.  fval(zs, cols) evaluates the
    scalar function for each (z, col) pair; fprime likewise for df/dz (may
    be None: pure bisection then).  Returns (roots, status)."""
    seeds = np.asarray(seeds, dtype=float)
    N = seeds.size
    allcols = np.arange(N)
    roots = np.full(N, np.nan)
    status = np.full(N, NO_BRACKET, dtype=np.int64)

    f0 = fval(seeds, allcols)
    badseed = ~np.isfinite(f0)
    status[badseed] = BAD_SEED
    exact = np.zeros(N, dtype=bool)
    exact[~badseed] = f0[~badseed] == 0.0
    roots[exact] = seeds[exact]
    status[exact] = OK

    need = ~badseed & ~exact
    s0 = np.sign(f0)

    # per-element bracket state
    lo = seeds.copy()
    hi = seeds.copy()
    blocked_lo = np.zeros(N, dtype=bool)
    blocked_hi = np.zeros(N, dtype=bool)
    bra = np.full(N, np.nan)
    brb = np.full(N, np.nan)
    have = np.zeros(N, dtype=bool)

    step = _EXPAND_STEP0 * np.maximum(1.0, np.abs(seeds))
    while True:
        active = need & ~have & ~(blocked_lo & blocked_hi) & (step <= _EXPAND_SPAN * np.maximum(1.0, np.abs(seeds)))
        if not active.any():
            break
        for side in ("lo", "hi"):
            blocked = blocked_lo if side == "lo" else blocked_hi
            edge = lo if side == "lo" else hi
            mask = active & ~blocked & ~have
            if not mask.any():
                continue
            cols = allcols[mask]
            cand = seeds[mask] + (-step[mask] if side == "lo" else step[mask])
            fc = fval(cand, cols)
            finite = np.isfinite(fc)
            flip = finite & (np.sign(fc) != s0[mask]) & (fc != 0.0)
            hit0 = finite & (fc == 0.0)
            # exact zero at a probe
            z0cols = cols[hit0]
            roots[z0cols] = cand[hit0]
            status[z0cols] = OK
            need[z0cols] = False
            # sign change: bracket between the last same-sign point and cand
            fcols = cols[flip]
            bra[fcols] = edge[fcols]
            brb[fcols] = cand[flip]
            have[fcols] = True
            # same sign: extend the edge; NaN: wall
            ext = finite & ~flip & ~hit0
            edge[cols[ext]] = cand[ext]
            blocked[cols[~finite]] = True
        step = step * _EXPAND_GROWTH

    got = have & need
    status[got] = NO_CONVERGE  # provisional until polished
    nob = need & ~have
    status[nob] = NO_BRACKET

    if got.any():
        cols = allcols[got]
        a = bra[cols].copy()
        b = brb[cols].copy()
        fa = fval(a, cols)
        # bisect: keep sign(f(a)) == sign(fa)
        sa = np.sign(fa)
        for _ in range(52):
            m = 0.5 * (a + b)
            fm = fval(m, cols)
            bad = ~np.isfinite(fm)
            if bad.any():
                # interior domain hole: give up on those, shrink the rest
                keepcols = cols[bad]
                status[keepcols] = NO_CONVERGE
                ok = ~bad
                cols, a, b, m, fm, sa = cols[ok], a[ok], b[ok], m[ok], fm[ok], sa[ok]
                if not cols.size:
                    break
            same = np.sign(fm) == sa
            a = np.where(same, m, a)
            b = np.where(same, b, m)
        if cols.size:
            z = 0.5 * (a + b)
            width = np.abs(b - a)
            if fprime is not None:
                for _ in range(3):
                    fz = fval(z, cols)
                    fp = fprime(z, cols)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        stepn = fz / fp
                    good = np.isfinite(stepn)
                    zn = np.where(good, z - stepn, z)
                    # stay inside (a slightly padded) bracket
                    pad = 2.0 * width + 1e-12
                    zn = np.clip(zn, a - pad, b + pad)
                    z = zn
            fz = fval(z, cols)
            conv = np.isfinite(fz) & (np.abs(fz) <= cfg.root_tol)
            roots[cols] = z
            status[cols[conv]] = OK
            status[cols[~conv]] = NO_CONVERGE
    return roots, status
