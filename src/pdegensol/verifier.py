"""Randomized verification that a family's closed-form solution solves its PDE.

For each scenario we draw concrete parameters, polynomial stand-ins for the
arbitrary functions, and sample points; evaluate the solution's derivative jet
exactly; bind w and its derivatives in the PDE; and report the worst relative
residual.  A finite-difference pass over the raw solution values cross-checks
the jet derivatives through an independent route, so a residual failure can be
attributed to the catalog entry rather than to the evaluator.

A scenario's draw evaluates nothing.  A point the solution or a PDE term
cannot be evaluated at is replaced by a fresh draw, for up to
MAX_RESAMPLE_ROUNDS rounds; a point still unevaluable after that makes its
scenario eval_incomplete.  Families are verified one after another, on
the calling thread.

Verdicts: PASS (all residuals within tolerance and the cross-check agrees),
FAIL (residuals exceed tolerance while the cross-check confirms the
derivatives, both at the scenario's first points and where it failed),
INDETERMINATE (sampling or evaluation could not produce trustworthy
numbers).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import __version__
from . import expr_core as X
from .catalog import PdeFamily, get_family, family_ids
from .numeric import (
    CFG,
    EvalContext,
    FunctionInstance,
    IndexSet,
    JetBatch,
    SamplingExhausted,
    eval_batch,
    polynomial,
)
from .numeric.funcs import monomial_exponents

# residual denominators never drop below this
RESIDUAL_FLOOR = 1e-12
# scenario draws per family before giving up
MAX_DRAW_ATTEMPTS = 50
# rounds of point replacement when individual points poison
MAX_RESAMPLE_ROUNDS = 8
# sample points and the default sample grid lie in this interval per axis
SAMPLE_BOX = (0.2, 1.2)
# points per scenario the finite-difference cross-check visits: the first
# ones, and in a failing scenario also its worst-residual ones
XCHECK_POINTS = 2
# largest relative deviation between jet and finite-difference derivatives
# that counts as agreement
XCHECK_TOL = 1e-4

# per-family residual tolerances; the implicit-root families carry an extra
# digit of slack because every derivative passes through the root solve
DEFAULT_TOL_REL = 1e-6
FAMILY_TOL = {"3.7": 1e-5, "3.8": 1e-5}


# ---------------------------------------------------------------------------
# Scenarios and sampling hints


@dataclass
class Scenario:
    """One concrete instantiation: parameter values, function stand-ins,
    base points, and the sample points (rows of `points`, one column per
    independent variable)."""

    parameters: Dict[str, float]
    functions: Dict[str, FunctionInstance]
    base_points: Dict[str, float]
    points: np.ndarray
    sampling_attempts: int = 1


@dataclass(frozen=True)
class FuncSpec:
    """How to draw one function stand-in."""

    degree: int = 2
    coeff_scale: float = 0.15
    offset: Tuple[float, float] = (0.5, 1.2)
    # force the coefficient of the first argument's linear monomial
    slope: Optional[Tuple[float, float]] = None
    sin_amp: float = 0.0


@dataclass(frozen=True)
class SamplingHints:
    """Per-family sampling ranges and admissibility predicate.  Ranges are
    centered on values known to keep every integrand real and every root
    bracketed over SAMPLE_BOX."""

    params: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    funcs: Dict[str, FuncSpec] = field(default_factory=dict)
    admissible: Optional[Callable[[Dict[str, float]], bool]] = None


def _mk_hints() -> Dict[str, SamplingHints]:
    H = {}
    H["3.1"] = SamplingHints(
        params={"b": (0.45, 0.95), "c": (0.5, 1.2)},
        funcs={"F": FuncSpec(2, 0.25, (0.6, 1.4), sin_amp=0.15),
               "G": FuncSpec(2, 0.2, (0.5, 1.1))})
    H["3.2"] = SamplingHints(
        params={"c": (0.4, 1.0), "k": (0.4, 0.9)},
        funcs={"F": FuncSpec(2, 0.25, (0.6, 1.4), sin_amp=0.15),
               "G": FuncSpec(2, 0.15, (1.0, 1.4))})
    # integrand 2/(t + G(eta)): offset keeps t + G away from zero on the box
    H["3.3"] = SamplingHints(
        params={"a": (0.6, 1.0), "b": (0.3, 0.7), "c": (0.4, 0.9)},
        funcs={"F": FuncSpec(2, 0.25, (0.8, 1.4)),
               "G": FuncSpec(2, 0.2, (0.8, 1.2))})
    H["3.4"] = SamplingHints(
        params={"b": (0.4, 0.8), "c": (0.5, 1.0), "k": (0.3, 0.7)},
        funcs={"F": FuncSpec(2, 0.2, (0.7, 1.3)),
               "G": FuncSpec(2, 0.2, (0.3, 0.8))})
    H["3.5"] = SamplingHints(
        params={"a": (0.7, 1.1), "b": (0.9, 1.3), "c": (0.4, 0.8),
                "k": (0.1, 0.3)},
        funcs={"F": FuncSpec(2, 0.2, (0.6, 1.0)),
               "G": FuncSpec(2, 0.15, (0.4, 0.8))},
        admissible=lambda p: p["b"] ** 2 - 4 * p["a"] * p["k"] >= 0.05)
    H["3.6"] = SamplingHints(
        params={"a": (0.5, 0.9), "b": (0.25, 0.6), "c": (0.4, 0.8)},
        funcs={"F": FuncSpec(2, 0.2, (0.8, 1.2)),
               "G": FuncSpec(2, 0.2, (0.4, 0.7))})
    # root bracket needs the quadratic under the integral positive definite
    H["3.7"] = SamplingHints(
        params={"a": (0.4, 0.7), "b": (0.6, 1.0), "g": (0.4, 0.8),
                "h": (0.3, 0.5), "k": (0.35, 0.65)},
        funcs={"F": FuncSpec(2, 0.2, (0.8, 1.2)),
               "G": FuncSpec(1, 0.18, (0.1, 0.3))},
        admissible=lambda p: (p["k"] - p["h"] * p["b"]) ** 2
        <= 3.6 * p["a"] * p["b"])
    # keep the root's level curve inside the bracketable branch: small k, m;
    # g - b*m bounded below; G pinned near its admissible plateau
    H["3.8"] = SamplingHints(
        params={"a": (0.7, 1.1), "b": (0.4, 0.6), "c": (0.5, 0.9),
                "g": (0.62, 0.95), "k": (0.2, 0.35), "m": (0.3, 0.4)},
        funcs={"F": FuncSpec(2, 0.2, (0.8, 1.2)),
               "G": FuncSpec(1, 0.06, (-1.5, -1.3))},
        admissible=lambda p: 0.5 <= p["g"] - p["b"] * p["m"] <= 0.8)
    H["3.9"] = SamplingHints(
        params={"b": (0.4, 0.8), "c": (0.3, 0.6), "m": (0.35, 0.7)},
        funcs={"F": FuncSpec(2, 0.25, (0.8, 1.2), sin_amp=0.1),
               "G": FuncSpec(2, 0.2, (1.8, 2.6))})
    H["3.10"] = SamplingHints(
        params={"b": (0.35, 0.7), "c": (0.3, 0.55), "m": (0.45, 0.8)},
        funcs={"F": FuncSpec(2, 0.25, (0.8, 1.2)),
               "G": FuncSpec(2, 0.2, (1.2, 1.8))})
    # small k keeps sqrt(6*k*t + G) well away from the pole at 3
    H["3.11"] = SamplingHints(
        params={"a": (0.6, 1.0), "b": (0.35, 0.65), "c": (0.3, 0.55),
                "k": (0.05, 0.12)},
        funcs={"F": FuncSpec(2, 0.2, (0.8, 1.2)),
               "G": FuncSpec(1, 0.12, (0.3, 0.7))})
    # c < 0 keeps the denominator exp(...)G - c(h xi + b) positive
    H["4.1"] = SamplingHints(
        params={"a": (0.7, 1.1), "b": (0.4, 0.65), "c": (-0.7, -0.35),
                "g": (0.45, 0.75), "h": (0.55, 0.85)},
        funcs={"F": FuncSpec(2, 0.25, (0.8, 1.2)),
               "G": FuncSpec(2, 0.15, (0.8, 1.2))},
        admissible=lambda p: abs(p["h"] * p["g"] - p["c"] * p["b"]) >= 0.1)
    H["4.2"] = SamplingHints(
        funcs={"a": FuncSpec(1, 0.1, (0.2, 0.45)),
               "b": FuncSpec(1, 0.12, (0.45, 0.8)),
               "c": FuncSpec(1, 0.12, (0.55, 0.9)),
               "F": FuncSpec(2, 0.2, (0.8, 1.3)),
               "G": FuncSpec(2, 0.2, (1.6, 2.4))})
    # negative G offset keeps the shared denominator positive on the box
    H["4.3"] = SamplingHints(
        funcs={"a": FuncSpec(1, 0.08, (0.6, 0.85)),
               "b": FuncSpec(1, 0.1, (0.5, 0.75)),
               "c": FuncSpec(1, 0.08, (0.75, 0.95)),
               "F": FuncSpec(1, 0.2, (0.8, 1.2)),
               "G": FuncSpec(1, 0.1, (-1.4, -1.0))})
    H["4.4"] = SamplingHints(
        funcs={"b": FuncSpec(1, 0.1, (0.4, 0.6)),
               "g": FuncSpec(1, 0.09, (0.4, 0.6)),
               "k": FuncSpec(1, 0.08, (0.3, 0.5)),
               "F": FuncSpec(1, 0.2, (0.8, 1.2)),
               "G": FuncSpec(1, 0.15, (0.8, 1.2))})
    disc_ok = lambda p: 0.2 <= 4 * p["C0"] * p["C2"] - p["C1"] ** 2 <= 1.0
    # tan argument must clear the poles: moderate discriminant, tiny G
    H["5.1"] = SamplingHints(
        params={"A1": (0.6, 1.0), "A2": (0.35, 0.65), "A3": (0.3, 0.5),
                "B0": (0.3, 0.5), "B1": (0.45, 0.75), "C0": (0.4, 0.6),
                "C1": (0.3, 0.5), "C2": (0.35, 0.55)},
        funcs={"F": FuncSpec(1, 0.12, (0.3, 0.7)),
               "G": FuncSpec(1, 0.05, (0.05, 0.15))},
        admissible=disc_ok)
    # large F offset keeps the expression under the square root positive
    H["5.2"] = SamplingHints(
        params={"A1": (0.5, 0.9), "A2": (0.3, 0.5), "A3": (0.25, 0.4),
                "B0": (0.3, 0.5), "C0": (0.4, 0.6), "C1": (0.3, 0.5),
                "C2": (0.35, 0.55)},
        funcs={"F": FuncSpec(1, 0.12, (6.5, 9.0)),
               "G": FuncSpec(1, 0.04, (-0.9, -0.5))},
        admissible=disc_ok)
    # sign pattern A1 > 0, C1 < 0, C2 < 0 keeps the log argument positive
    H["5.3"] = SamplingHints(
        params={"A1": (0.6, 1.0), "A2": (0.35, 0.65), "A3": (0.25, 0.45),
                "B0": (0.3, 0.5), "C0": (0.45, 0.75), "C1": (-0.95, -0.6),
                "C2": (-0.65, -0.35)},
        funcs={"F": FuncSpec(1, 0.06, (-1.2, -0.8)),
               "G": FuncSpec(1, 0.04, (0.1, 0.3))})
    # F' enters a denominator: force a positive slope
    H["6.1"] = SamplingHints(
        funcs={"F": FuncSpec(2, 0.15, (1.8, 2.6), slope=(0.6, 1.0)),
               "G": FuncSpec(2, 0.2, (1.2, 1.8)),
               "H": FuncSpec(2, 0.2, (0.3, 0.7))})
    H["6.2"] = SamplingHints(
        params={"a": (0.35, 0.65)},
        funcs={"F": FuncSpec(2, 0.1, (1.6, 2.4), slope=(0.5, 0.9)),
               "G": FuncSpec(2, 0.1, (0.3, 0.6), slope=(0.7, 1.1)),
               "H": FuncSpec(1, 0.15, (0.2, 0.4))})
    H["6.3"] = SamplingHints(
        params={"b": (0.5, 0.9), "g": (0.35, 0.65)},
        funcs={"F": FuncSpec(2, 0.2, (0.8, 1.2)),
               "G": FuncSpec(1, 0.12, (-1.4, -1.0)),
               "H": FuncSpec(2, 0.25, (1.4, 2.2))})
    H["6.4"] = SamplingHints(
        params={"a": (0.35, 0.65), "g": (0.3, 0.5), "h": (0.35, 0.55)},
        funcs={"F": FuncSpec(2, 0.15, (1.2, 1.8)),
               "G": FuncSpec(2, 0.15, (2.5, 3.5)),
               "H": FuncSpec(2, 0.2, (1.5, 2.1))})
    H["6.5"] = SamplingHints(
        params={"a": (0.45, 0.75), "b": (0.35, 0.6), "k": (0.5, 0.9),
                "m": (0.3, 0.5)},
        funcs={"F": FuncSpec(2, 0.2, (1.2, 1.8)),
               "G": FuncSpec(2, 0.15, (0.8, 1.2)),
               "H": FuncSpec(2, 0.2, (1.6, 2.4))})
    H["7.1"] = SamplingHints(
        funcs={"F": FuncSpec(2, 0.12, (0.3, 0.7), slope=(0.7, 1.1)),
               "G": FuncSpec(2, 0.2, (2.5, 3.5)),
               "H": FuncSpec(1, 0.1, (0.15, 0.35))})
    # b < 0 keeps the exponent discriminant clear of zero
    H["7.2"] = SamplingHints(
        params={"a": (0.6, 1.0), "b": (-0.45, -0.15), "k": (0.7, 1.1)},
        funcs={"F": FuncSpec(2, 0.2, (0.5, 1.1)),
               "G": FuncSpec(2, 0.2, (0.5, 1.1)),
               "H": FuncSpec(2, 0.2, (0.5, 1.1))},
        admissible=lambda p: (1 + p["a"]) ** 2 - 4 * p["b"] >= 0.3)
    return H


HINTS = _mk_hints()


def draw_function(rng: np.random.Generator, name: str, arity: int,
                  spec: FuncSpec) -> FunctionInstance:
    """Draw one stand-in.  The draw order is fixed so a given generator
    state always yields the same instance."""
    cmap: Dict[tuple, float] = {
        (0,) * arity: float(rng.uniform(*spec.offset))
    }
    for m in sorted(monomial_exponents(arity, spec.degree)):
        cmap[m] = float(rng.uniform(-spec.coeff_scale, spec.coeff_scale))
    if spec.slope is not None:
        cmap[(1,) + (0,) * (arity - 1)] = float(rng.uniform(*spec.slope))
    kw = {}
    if spec.sin_amp:
        kw = {"sin_amp": spec.sin_amp,
              "sin_freq": float(rng.uniform(0.5, 2.0)),
              "sin_phase": float(rng.uniform(0.0, 2 * math.pi))}
    return polynomial(name, arity, cmap, **kw)


def _points_env(fam: PdeFamily, iset: IndexSet, pts: np.ndarray) -> dict:
    """Each variable of fam bound, over iset, to its column of `pts`."""
    return {v: JetBatch.variable(iset, v, pts[:, i])
            for i, v in enumerate(fam.variables)}


def _draw_points(rng: np.random.Generator, fam: PdeFamily,
                 n: int) -> np.ndarray:
    """n sample points drawn uniformly from the sample box."""
    return rng.uniform(*SAMPLE_BOX, size=(n, len(fam.variables)))


def solution_values(fam: PdeFamily, scn: Scenario,
                    pts: np.ndarray) -> np.ndarray:
    """Value-only evaluation of the solution at the rows of `pts`."""
    iset0 = IndexSet(fam.variables, {(0,) * len(fam.variables)})
    ctx = EvalContext(iset0, scn)
    return eval_batch(fam.solution, _points_env(fam, iset0, pts), ctx,
                      len(pts)).value()


def draw_scenario(
    fam: PdeFamily,
    rng: np.random.Generator,
    n_points: int,
    base_shift: float = 0.0,
    param_overrides: Optional[Dict[str, float]] = None,
) -> Scenario:
    """Draw parameters until the family's admissibility predicate accepts
    them, then its function stand-ins and n_points sample points; raise
    SamplingExhausted after MAX_DRAW_ATTEMPTS rejected draws.  Nothing is
    evaluated here: a point the solution cannot be evaluated at is
    resampled by scenario_residuals."""
    h = HINTS.get(fam.family_id, SamplingHints())
    for attempt in range(1, MAX_DRAW_ATTEMPTS + 1):
        params = {p: float(rng.uniform(*h.params[p])) for p in fam.parameters}
        if param_overrides:
            params.update(param_overrides)
        if h.admissible is not None and not h.admissible(params):
            continue
        funcs = {name: draw_function(rng, name, fam.functions[name],
                                     h.funcs[name])
                 for name in sorted(fam.functions)}
        bases = {b: base_shift for b in fam.base_names}
        return Scenario(params, funcs, bases,
                        _draw_points(rng, fam, n_points),
                        sampling_attempts=attempt)
    raise SamplingExhausted(
        f"family {fam.family_id}: no admissible scenario in "
        f"{MAX_DRAW_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Residuals


def _eval_rel(fam: PdeFamily, scn: Scenario, pts: np.ndarray,
              solution: Optional[X.Expr] = None,
              ) -> Tuple[np.ndarray, np.ndarray, IndexSet, set]:
    """Relative PDE residual at each point of `solution` (default: the
    family's), the solution jet rows, their index set, and the kinds of
    the causes that poisoned a column in the evaluations of the solution
    and of the PDE terms.  A point comes back NaN in the jet rows when its
    jet is not finite, and NaN in the residual when its jet or any PDE
    term is not finite."""
    n = len(pts)
    iset = IndexSet(fam.variables, set(fam.deriv_orders.values()))
    ctx = EvalContext(iset, scn)
    # poisoned columns propagate NaN through every jet op; silence the
    # resulting invalid/overflow chatter, the masks below dispose of them
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jb = eval_batch(fam.solution if solution is None else solution,
                        _points_env(fam, iset, pts), ctx, n)

        iset0 = iset.value_only()
        env0 = _points_env(fam, iset0, pts)
        for name, mi in fam.deriv_orders.items():
            env0[name] = JetBatch.constants(iset0, jb.data[iset.pos[mi]])
        ctx0 = EvalContext(iset0, scn)
        vals = np.array([
            eval_batch(term, env0, ctx0, n).value() for term in fam.pde_terms
        ])
        scale = np.max(np.abs(vals), axis=0)
        rel = np.abs(vals.sum(axis=0)) / np.maximum(scale, RESIDUAL_FLOOR)
    jet_ok = np.isfinite(jb.data).all(axis=0)
    rel[~jet_ok | ~np.isfinite(vals).all(axis=0)] = np.nan
    data = jb.data.copy()
    data[:, ~jet_ok] = np.nan
    return rel, data, iset, {k for k, _ in ctx.causes + ctx0.causes}


# Nested quadrature fans out per column (~15^depth inner evaluations), so
# the residual pass and the cross-check put the points of a solution 4 or
# more integrals deep into the engine DEEP_BATCH at a time, and those of a
# shallower one all at once.  The split is part of every output bit: the
# quadrature's panel cap and its sums depend on which columns share a call
DEEP_BATCH = 5


def _batches(fam: PdeFamily, pts: np.ndarray):
    """The rows of pts in the consecutive batches fam is evaluated in."""
    step = DEEP_BATCH if fam.sol_depth >= 4 else len(pts)
    return [pts[i:i + step] for i in range(0, len(pts), step)]


def scenario_residuals(
    fam: PdeFamily,
    scn: Scenario,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, IndexSet, int, set]:
    """Residuals at the scenario's points, replacing points that poison
    with new draws from rng (dropping one column, not the scenario), for
    up to MAX_RESAMPLE_ROUNDS rounds; a point still unevaluable after that
    keeps a NaN residual.  This is the one place an unevaluable point is
    handled.  An EvalError (a malformed tree, an unbound name, the nesting
    limit) no redraw can fix, so it propagates.  Returns (rel, jet_rows,
    index_set, n_resampled, kinds), kinds being the cause kinds of the
    last round's evaluations; scn.points holds the final points."""
    n = len(scn.points)
    rel = np.full(n, np.nan)
    data = None
    todo = np.arange(n)
    resampled = 0
    for round_no in range(MAX_RESAMPLE_ROUNDS + 1):
        parts = [_eval_rel(fam, scn, b)
                 for b in _batches(fam, scn.points[todo])]
        rel_t = np.concatenate([p[0] for p in parts])
        data_t = np.concatenate([p[1] for p in parts], axis=1)
        iset = parts[0][2]
        kinds = set().union(*(p[3] for p in parts))
        if data is None:
            data = np.full((data_t.shape[0], n), np.nan)
        rel[todo] = rel_t
        data[:, todo] = data_t
        bad = todo[~np.isfinite(rel_t)]
        if bad.size == 0 or round_no == MAX_RESAMPLE_ROUNDS:
            break
        scn.points[bad] = _draw_points(rng, fam, bad.size)
        resampled += int(bad.size)
        todo = bad
    return rel, data, iset, resampled, kinds


# ---------------------------------------------------------------------------
# Finite-difference cross-check

# central rules per derivative order: (offsets, weights, h power)
_FD_RULES = {
    0: ((0,), (1.0,), 0),
    1: ((-1, 1), (-0.5, 0.5), 1),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0), 2),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5), 3),
}
# base step per total derivative order; larger orders need larger steps to
# stay above the quadrature noise floor
_FD_STEP = {1: 1e-4, 2: 2e-3, 3: 2.5e-2}


@functools.cache
def _stencil(alpha: Tuple[int, ...]):
    """Product stencil for a mixed partial: (offsets per variable, weight)
    pairs, and the total h normalization power."""
    rules = [_FD_RULES[o] for o in alpha]
    combos = [(tuple(off for off, _ in picks),
               math.prod((wt for _, wt in picks), start=1.0))
              for picks in itertools.product(
                  *(tuple(zip(off, wts)) for off, wts, _ in rules))]
    return combos, sum(pw for _, _, pw in rules)


def crosscheck_derivatives(
    fam: PdeFamily,
    scn: Scenario,
    jet_data: np.ndarray,
    iset: IndexSet,
    point_idx: np.ndarray,
) -> float:
    """Worst deviation between jet derivative rows and Richardson-improved
    central differences of raw solution values at the selected points.
    Deviation is scaled by max(1, |jet value|)."""
    alphas = sorted({mi for mi in fam.deriv_orders.values() if sum(mi) > 0})
    pts = scn.points[point_idx]
    # (alpha, h, stencil) in column order: each alpha at its step and half
    plan = [(alpha, h, _stencil(alpha)) for alpha in alphas
            for h in (_FD_STEP[sum(alpha)], _FD_STEP[sum(alpha)] / 2)]
    allpts = np.concatenate([pts + h * np.array(off, dtype=float)
                             for _, h, (combos, _) in plan
                             for off, _ in combos], axis=0)
    w = np.concatenate([solution_values(fam, scn, b)
                        for b in _batches(fam, allpts)])
    if not np.isfinite(w).all():
        return float("inf")

    shifted = iter(w.reshape(-1, len(pts)))
    est = []
    for _, h, (combos, power) in plan:
        acc = np.zeros(len(pts))
        for _, wt in combos:
            acc += wt * next(shifted)
        est.append(acc / h ** power)
    worst = 0.0
    for alpha, d_h, d_h2 in zip(alphas, est[::2], est[1::2]):
        fd = (4.0 * d_h2 - d_h) / 3.0
        jet = jet_data[iset.pos[alpha]][point_idx]
        dev = np.abs(fd - jet) / np.maximum(1.0, np.abs(jet))
        worst = max(worst, float(dev.max()))
    return worst


# ---------------------------------------------------------------------------
# Branch probing for implicit roots


def _negate_seeds(e: X.Expr) -> X.Expr:
    e = X.map_children(e, _negate_seeds)
    if isinstance(e, X.RootOf):
        return X.RootOf(e.dummy, e.body, -e.seed)
    return e


# one negated tree per solution: the engine caches nodes by identity, so a
# tree built per probe would pin new cache entries on every call
_negated_solution = functools.cache(_negate_seeds)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class VerificationReport:
    family: str
    verdict: str
    tol_rel: float
    xcheck_tol: float
    seed: int
    n_scenarios: int
    points_per_scenario: int
    max_rel_residual: float
    xcheck_max_dev: float
    resampled_points: int
    scenarios: List[dict]
    notes: List[str]
    engine: Dict[str, object]
    branch_probe: Optional[dict] = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        # wall_time_s stays an attribute only: identical runs must produce
        # byte-identical reports
        del d["wall_time_s"]
        if self.branch_probe is None:
            del d["branch_probe"]
        d["max_rel_residual"] = _jsonable(self.max_rel_residual)
        d["xcheck_max_dev"] = _jsonable(self.xcheck_max_dev)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _jsonable(x: float):
    if x is None or not np.isfinite(x):
        return None
    return float(x)


def _famkey(family_id: str) -> int:
    return int.from_bytes(family_id.encode(), "big")


def _scenario_rng(seed: int, family_id: str, *index: int):
    """A scenario's generator: verify passes its index, sample none."""
    ss = np.random.SeedSequence([seed, _famkey(family_id), *index])
    return np.random.default_rng(ss)


def check_overrides(fam: PdeFamily,
                    param_overrides: Optional[Dict[str, float]]) -> None:
    """Raise ValueError when an override names no parameter of fam."""
    unknown = sorted(set(param_overrides or ()) - set(fam.parameters))
    if unknown:
        raise ValueError(
            f"family {fam.family_id} has no parameter {', '.join(unknown)}; "
            f"its parameters: {', '.join(fam.parameters) or 'none'}")


def _xcheck_dev(row: dict) -> float:
    """A row's cross-check deviation; JSON null (no finite value) is inf."""
    dev = row["xcheck_max_dev"]
    return math.inf if dev is None else dev


def _verdict(rows: List[dict], tol: float) -> Tuple[str, Optional[str]]:
    """The verdict of a report's scenario rows at residual tolerance tol,
    and its note (None when the rows say it all).  It reads only each row's
    status, max_rel_residual and xcheck_max_dev, so a report's JSON rows
    give its verdict back.  The rules, in order: a row that is not "ok"
    makes it INDETERMINATE; rows with a residual above tol make it FAIL
    when the cross-check agrees on each of them, else INDETERMINATE; a
    cross-check above XCHECK_TOL on any row makes it INDETERMINATE; else
    PASS."""
    if any(row["status"] != "ok" for row in rows):
        return "INDETERMINATE", None
    failing = [row for row in rows if row["max_rel_residual"] > tol]
    if failing:
        if all(_xcheck_dev(row) <= XCHECK_TOL for row in failing):
            return "FAIL", None
        return "INDETERMINATE", ("residual exceeded tolerance but the "
                                 "derivative cross-check also disagreed; "
                                 "evaluator suspect")
    worst_dev = max(map(_xcheck_dev, rows))
    if worst_dev > XCHECK_TOL:
        return "INDETERMINATE", (
            f"residuals in tolerance but derivative cross-check deviates "
            f"({worst_dev:.2e} > {XCHECK_TOL:g})")
    return "PASS", None


def _scenario_row(fam: PdeFamily, idx: int, scn: Scenario,
                  rng: np.random.Generator,
                  tol: float) -> Tuple[dict, Optional[str]]:
    """The report row of scenario idx, drawn as scn, and a note when some
    point stayed unevaluable.  The cross-check visits the first points and,
    when a residual exceeds tol, the worst-residual points too: the jets
    must agree where the residual failed.  An unevaluable scenario's row
    and note name the cause kinds of its last resampling round."""
    rel, jet_data, iset, resampled, kinds = scenario_residuals(fam, scn, rng)
    row = {"index": idx, "resampled_points": resampled}
    bad = int(np.count_nonzero(~np.isfinite(rel)))
    if bad:
        causes = sorted(kinds)
        row.update(status="eval_incomplete", causes=causes,
                   parameters=scn.parameters)
        return row, (f"scenario {idx}: {bad} point(s) unevaluable after "
                     f"resampling (causes: "
                     f"{', '.join(causes) or 'none recorded'})")
    mx = float(rel.max())
    row.update(status="ok", max_rel_residual=mx,
               sampling_attempts=scn.sampling_attempts,
               parameters={k: float(v) for k, v in
                           sorted(scn.parameters.items())})
    k = min(XCHECK_POINTS, len(rel))
    dev = crosscheck_derivatives(fam, scn, jet_data, iset, np.arange(k))
    if mx > tol:
        worst_pts = np.sort(np.argsort(-rel, kind="stable")[:k])
        dev = max(dev, crosscheck_derivatives(fam, scn, jet_data, iset,
                                              worst_pts))
        row["failing_points"] = [
            {"index": int(i),
             "point": dict(zip(fam.variables, map(float, scn.points[i]))),
             "rel_residual": float(rel[i])}
            for i in np.flatnonzero(rel > tol)]
    row["xcheck_max_dev"] = _jsonable(dev)
    return row, None


def verify_family(
    family,
    n_scenarios: int = 5,
    n_points: int = 20,
    seed: int = 1,
    base_shift: float = 0.0,
    param_overrides: Optional[Dict[str, float]] = None,
    probe_branches: bool = False,
) -> VerificationReport:
    """Verify one family over randomized scenarios at its registered
    tolerance; the verdict is _verdict of the report's scenario rows."""
    for what, count in (("scenario", n_scenarios), ("point", n_points)):
        if count < 1:
            raise ValueError(f"{what} count must be at least 1, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for what, value in (("base shift", base_shift),
                        *((f"parameter {name}", value) for name, value
                          in (param_overrides or {}).items())):
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite, got {value}")
    fam = family if isinstance(family, PdeFamily) else get_family(family)
    check_overrides(fam, param_overrides)
    tol = FAMILY_TOL.get(fam.family_id, DEFAULT_TOL_REL)

    t0 = time.monotonic()
    rows: List[dict] = []
    notes: List[str] = []
    probe = None
    for idx in range(n_scenarios):
        rng = _scenario_rng(seed, fam.family_id, idx)
        try:
            scn = draw_scenario(fam, rng, n_points, base_shift,
                                param_overrides)
        except SamplingExhausted as exc:
            scn, note = None, str(exc)
            row = {"index": idx, "status": "sampling_exhausted"}
        if idx == 0 and probe_branches and fam.has_roots:
            probe = _probe_alternate_branch(fam, scn, tol)
        if scn is not None:
            row, note = _scenario_row(fam, idx, scn, rng, tol)
        rows.append(row)
        if note is not None:
            notes.append(note)

    verdict, note = _verdict(rows, tol)
    if note is not None:
        notes.append(note)
    # NaN (JSON null) when no scenario was evaluated
    evaluated = [row for row in rows if row["status"] == "ok"]
    return VerificationReport(
        family=fam.family_id,
        verdict=verdict,
        tol_rel=tol,
        xcheck_tol=XCHECK_TOL,
        seed=seed,
        n_scenarios=n_scenarios,
        points_per_scenario=n_points,
        max_rel_residual=max((row["max_rel_residual"] for row in evaluated),
                             default=math.nan),
        xcheck_max_dev=max(map(_xcheck_dev, evaluated), default=math.nan),
        resampled_points=sum(row.get("resampled_points", 0) for row in rows),
        scenarios=rows,
        notes=notes,
        engine={
            "version": __version__,
            "quad_rel_tol": CFG.quad_rel_tol,
            "quad_abs_tol": CFG.quad_abs_tol,
            "root_tol": CFG.root_tol,
        },
        branch_probe=probe,
        wall_time_s=time.monotonic() - t0,
    )


def _probe_alternate_branch(fam, scn: Optional[Scenario], tol: float) -> dict:
    """Evaluate scenario scn, as drawn, against the solution with all root
    seeds negated (None: no scenario could be drawn), at residual tolerance
    tol.  A second real branch of the root manifold, when one exists, should
    solve the PDE as well; absence of a bracketable root is reported, not
    failed, and so is any point the branch cannot evaluate."""
    if scn is None:
        return {"branch": "negated_seed", "status": "sampling_exhausted"}
    rel, _, _, kinds = _eval_rel(fam, scn, scn.points,
                                 _negated_solution(fam.solution))
    if not np.isfinite(rel).all():
        status = "no_root" if "root" in kinds else "unevaluable"
        return {"branch": "negated_seed", "status": status}
    mx = float(rel.max())
    return {
        "branch": "negated_seed",
        "status": "solves" if mx <= tol else "does_not_solve",
        "max_rel_residual": _jsonable(mx),
    }


def verify_catalog(
    ids: Optional[List[str]] = None,
    **kw,
) -> Iterator[VerificationReport]:
    """Verify several families (ids None: the whole catalog; an empty list:
    none) one after another, in the order given, yielding each report as
    soon as it is done."""
    for fid in family_ids() if ids is None else ids:
        yield verify_family(fid, **kw)
