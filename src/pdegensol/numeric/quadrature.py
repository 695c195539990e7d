"""Adaptive Gauss-Kronrod 7/15 quadrature, batched over many integrals.

The batched driver integrates N independent one-dimensional integrals at
once, each carrying K jet components; one evaluator call handles the union
of all pending subintervals, so nested integrals turn into a handful of
large array evaluations rather than deep scalar recursion.  The evaluator
receives the round as Panels (centres, half-widths and owner columns), not
as a node array: it builds the nodes itself, all at once or a range of
panels at a time, and reads per-column data once per panel, so neither
side holds a node-length copy of the owners.  It hands its values to
Panels.reduce, never to the driver: reduce asks for them whole or a slice
at a time and reduces each to the panel-length estimates I15 and
|I15 - I7| while its values are in the cache.  The rest of a round works
at panel length, in place where the operations and operands stay the
same.

Only a leaf integrand's round is sliced: one whose value at a node
depends on that node alone.  The row sums of an inner quadrature depend
on how many columns share a call, and so does an implicit root whose body
holds one, so slicing those would move output bits.  A leaf round goes in
slices of _LEAF_SLICE nodes rounded down to whole 4-panel blocks (2184
panels), the last slice also taking the remainder, so a round of less
than two slices goes whole.  The two reductions I15 and I7 are matrix products whose
last bits depend on how they are computed, and I7 decides convergence;
cut so, each panel gets the bits of one whole-round product.  Measured
with numpy 2.4 and OpenBLAS 0.3.31 (Haswell kernels), slices of 4, 8,
..., 2184 panels did so, while slices of 1, 2, 3, 7 or 2183 panels, or a
trailing slice of 1-3 panels, moved bits: the kernels evidently take
rows in blocks of 4 with a separate tail.
test_sliced_round_matches_whole_round pins the rule.  The layout of I7's
operand counts too: take gathers it as vals[:, :, GAUSS_IDX], a buffer
numpy lays out by vals' own strides, and the matmul picks its kernel from
that layout; the strided view vals[:, :, 1::2] and a C-ordered copy of
the same values give other bits.  The layout of the result is pinned too
(see adaptive_gk_batched).

The 15-point Kronrod extension of 7-point Gauss is the classic pair; its
nodes and weights are hard-coded below and pinned by tests against an
independent high-order reference.  A column still refining after MAX_DEPTH
rounds, or past the panel budget MAX_PANELS_PER_COL or the call's
MAX_PANELS_TOTAL, is nonconvergent."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .config import NumericConfig

# Kronrod abscissae (positive half) and weights; Gauss-7 weights for the
# shared nodes.  Values as in the standard dqk15 tables.
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# ascending node layout: -x1..-x7, 0, x7..x1
NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
WEIGHTS = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
GAUSS_W = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])

MAX_DEPTH = 30
# panel budgets: a divergent integrand (integration path crossing a pole)
# would otherwise double its worklist every refinement round
MAX_PANELS_PER_COL = 500
MAX_PANELS_TOTAL = 500_000

# nodes per slice of a leaf integrand's round, rounded down to whole
# 4-panel blocks (2184 panels): 8 K was slower on 4.4's samples, 16 K to
# 128 K about equal
_LEAF_SLICE = 32768


def _leaf_slices(npan: int) -> list:
    """The edges of a leaf round of npan panels: slices of a whole number
    of 4-panel blocks, the last one also taking the remainder, so that no
    slice is short (see the module docstring)."""
    step = max(4, _LEAF_SLICE // 60 * 4)
    return [*range(0, max(npan - step, 0) + 1, step), npan]


class Panels:
    """The panels of one adaptive round: centres mid, half-widths half and
    owner columns cols, one entry per panel.  size is the node count, 15
    per panel.  Nodes are built on request for any range of panels, so a
    caller can hold a slice of them at a time; a panel's 15 nodes all
    belong to its owner column, so per-column data is gathered per panel.
    reduce takes the round's integrand values and reduces them into its
    estimates i15 and err, (K, npan) each, and its bad mask, a slice at a
    time for a leaf integrand, so the values need not outlive their
    slice."""

    def __init__(self, mid: np.ndarray, half: np.ndarray, cols: np.ndarray):
        self.mid = mid
        self.half = half
        self.cols = cols
        self.size = 15 * cols.size

    def nodes(self, lo: int = 0, hi: Optional[int] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """The flat nodes of panels lo..hi, 15 per panel in NODES order,
        written into out (a contiguous 1-D array, such as row 0 of a jet)
        when it is given."""
        half, mid = self.half[lo:hi], self.mid[lo:hi]
        if out is None:
            out = np.empty(15 * half.size)
        xs = out.reshape(half.size, 15)
        np.multiply.outer(half, NODES, out=xs)
        xs += mid[:, None]
        return out

    def reduce(self, values: Callable[[int, int], np.ndarray],
               leaf: bool) -> None:
        """Reduce the round's integrand values, values(lo, hi) being the
        (K, 15 * (hi - lo)) values at the nodes of panels lo..hi: asked
        for whole, or for a leaf integrand in the slices of _leaf_slices,
        each taken before the next is asked for."""
        npan = self.cols.size
        edges = _leaf_slices(npan) if leaf else (0, npan)
        for lo, hi in zip(edges, edges[1:]):
            self.take(lo, hi, values(lo, hi))

    def take(self, lo: int, hi: int, vals: np.ndarray) -> None:
        """Reduce vals, the integrand's values at the nodes of panels
        lo..hi: the Kronrod estimate I15, the error estimate |I15 - I7|
        and whether a sample is not finite.  Slices come in order and cover
        the round."""
        npan = self.cols.size
        K = vals.shape[0]
        vals = vals.reshape(K, hi - lo, 15)
        if lo == 0:
            self.i15 = np.empty((K, npan))
            self.err = np.empty((K, npan))
            self.bad = np.empty(npan, dtype=bool)
        half = self.half[lo:hi]
        i15, err, bad = self.i15[:, lo:hi], self.err[:, lo:hi], self.bad[lo:hi]
        # non-finite samples make the estimates meaningless; the bad mask
        # disposes of those columns, so silence the arithmetic
        with np.errstate(invalid="ignore", over="ignore"):
            np.matmul(vals, WEIGHTS, out=i15)
            i15 *= half
            np.matmul(vals[:, :, GAUSS_IDX], GAUSS_W, out=err)
            err *= half
            np.subtract(i15, err, out=err)
            np.abs(err, out=err)
        # every Kronrod weight is positive, so a NaN or infinite sample makes
        # its panel's I15 non-finite; the exact test runs on those panels
        # only, as finite samples can also overflow in the sum
        np.isfinite(i15).all(axis=0, out=bad)
        np.logical_not(bad, out=bad)
        if bad.any():
            bad[bad] = ~np.isfinite(vals[:, bad]).all(axis=(0, 2))


def adaptive_gk_batched(
    evalfn: Callable[[Panels, np.ndarray], None],
    lo: np.ndarray,
    hi: np.ndarray,
    K: int,
    cfg: NumericConfig,
    on_noconv: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """Integrate N integrals with K jet rows each, from lo to hi.  hi has
    the N columns; lo broadcasts against it (an integral's base point is
    one number for every column).

    Each round calls evalfn(panels, cols) once with the round's Panels,
    where cols[j] names the integral (column) that panel j belongs to; it
    hands the integrand jets at panels.nodes() to panels.reduce.
    Returns the integrals, shape (K, N), as the transpose of an (N, K)
    array: F-ordered when K > 1.  That layout is part of the contract:
    numpy sums pairwise along a contiguous axis and in sequence along a
    strided one, so the reductions downstream give other last bits on a
    C-ordered copy of the same values (3.9's residual at verify seed 41
    moves).  Columns that fail (NaN from the integrand, or no convergence
    before the depth limit) come back NaN; nonconvergent columns are also
    reported via on_noconv.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    N = hi.size
    total = np.zeros((N, K))
    dead = np.zeros(N, dtype=bool)  # poisoned by NaN integrand
    noconv = np.zeros(N, dtype=bool)

    # nothing below writes into ia or ib: each round builds fresh ones
    ia = np.minimum(lo, hi)
    ib = np.maximum(lo, hi)
    L = ib - ia
    cols = np.flatnonzero(L > 0.0)
    if cols.size < N:
        ia, ib = ia[cols], ib[cols]
        dead[np.isnan(L)] = True  # a NaN limit poisons its column
    np.maximum(L, 1e-300, out=L)

    per_col = np.zeros(N, dtype=np.int64)
    panels_total = 0
    depth = 0
    while cols.size:
        if depth > MAX_DEPTH or panels_total > MAX_PANELS_TOTAL:
            noconv[cols] = True
            break
        np.add.at(per_col, cols, 1)
        panels_total += cols.size
        over = per_col[cols] > MAX_PANELS_PER_COL
        if over.any():
            noconv[cols[over]] = True
            cols, ia, ib = cols[~over], ia[~over], ib[~over]
            if not cols.size:
                break
        if dead.any():
            keep = ~dead[cols]
            cols, ia, ib = cols[keep], ia[keep], ib[keep]
            if not cols.size:
                break
        half = ib - ia
        half *= 0.5
        mid = ia + ib
        mid *= 0.5
        panels = Panels(mid, half, cols)
        evalfn(panels, cols)
        I15, errs, bad = panels.i15, panels.err, panels.bad
        # total is all zeros in round 0, and 0 + |I15| is |I15|
        ref = np.abs(I15)
        if depth:
            ref = np.abs(total[cols].T) + ref
        budget = np.multiply(ref, cfg.quad_rel_tol, out=ref)
        np.maximum(budget, cfg.quad_abs_tol, out=budget)
        half *= 2.0
        half /= L[cols]
        budget *= half
        ok = (errs <= budget).all(axis=0) & ~bad
        if bad.any():
            dead[cols[bad]] = True
        if ok.any():
            # one jet row at a time: the same adds in the same order as one
            # 2-D add.at, on numpy's fast 1-D path
            done, conv = (cols, I15) if ok.all() else (cols[ok], I15[:, ok])
            for k in range(K):
                np.add.at(total[:, k], done, conv[k])
        rest = ~ok & ~bad
        if rest.any():
            rc, ra, rb, rm = cols[rest], ia[rest], mid[rest], ib[rest]
            cols = np.repeat(rc, 2)
            ia = np.stack([ra, rb], axis=1).ravel()
            ib = np.stack([rb, rm], axis=1).ravel()
        else:
            cols = cols[:0]
        # the round's panel-length arrays: none is held into the next
        # round's integrand call or past the last round
        del panels, I15, errs, bad, ref, budget, half, mid, ok, rest
        depth += 1

    fail = dead | noconv
    if fail.any():
        total[fail] = np.nan
    if noconv.any() and on_noconv is not None:
        on_noconv(noconv)
    total *= np.where(hi >= lo, 1.0, -1.0)[:, None]
    return total.T
