"""Arithmetic the benchmark reports with: tail percentiles and margins."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

# at least this many samples must lie beyond a reported tail percentile
MIN_BEYOND = 10
# residuals and deviations below this count as this when taking a margin,
# so an exact 0 gives a finite headroom (one decade under double rounding)
MARGIN_FLOOR = 1e-17


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: Sequence[float], want: float = 90.0,
                    min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """(pct, value): the wanted percentile when at least min_beyond samples
    lie beyond it, else the highest whole percentile that has min_beyond
    samples beyond it (never below the median)."""
    n = len(samples)
    best = math.floor(100.0 * (n - min_beyond) / n) if n else 0
    pct = max(50.0, min(want, float(best)))
    return pct, percentile(samples, pct)


def margin_dec(gate: float, value: float) -> float:
    """Decades of headroom of value under gate: log10(gate / value), with
    value floored at MARGIN_FLOOR.  Negative when value exceeds the gate;
    NaN and inf count as zero headroom."""
    if not math.isfinite(value):
        return 0.0
    return math.log10(gate / max(value, MARGIN_FLOOR))


def median(xs: List[float]) -> float:
    return percentile(xs, 50.0)


def margin_pairs(ops: Iterable[dict], which: int) -> Iterator[Tuple[str, float]]:
    """(family, margin) pairs of a run's operations: one per scenario of a
    verify operation (which: 0 residual, 1 cross-check), else one per
    operation.  A family's mean over scenarios is steadier from seed to
    seed than its mean over operations, each of which is a scenario
    maximum."""
    key = ("residual_margin_dec", "xcheck_margin_dec")[which]
    for op in ops:
        scen = op.get("scenario_margins")
        if scen:
            for pair in scen:
                yield op["family"], pair[which]
        else:
            yield op["family"], op[key]


def family_margin(margins: Iterable[Tuple[str, float]]) -> float:
    """Min over families of each family's mean margin, from (family,
    margin) pairs.  The minimum keeps one family's loss from being diluted
    by the others; the mean over a family's operations is steadier from
    seed to seed than their median or minimum."""
    by_family: Dict[str, List[float]] = {}
    for family, m in margins:
        by_family.setdefault(family, []).append(m)
    return min(sum(ms) / len(ms) for ms in by_family.values())
