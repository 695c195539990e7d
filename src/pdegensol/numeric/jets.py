"""Truncated multivariate Taylor data ("jets") over batches of points.

A JetBatch holds, for each of N evaluation points, the value and the raw
partial derivatives of one scalar quantity for every multi-index in a fixed
downward-closed IndexSet.  Data layout is (K, N): row k is the derivative
for the k-th multi-index, row 0 is the value.

All derivative propagation is table-driven:

* products use the generalized Leibniz rule,
* smooth unary functions use Faa di Bruno over set partitions of the
  derivative "positions" (at most 3, so at most 5 partitions),
* function applications f(u1..um) use the same partitions with blocks
  assigned to argument slots,
* integrals with a variable upper limit use the boundary tables built
  here and the quadrature of the integrand's own jet.

Value-only (K=1) batches skip the Leibniz and Faa di Bruno tables: mul
returns the plain product a * b, bit-identical to the table-driven result,
and compose and chain return their value row itself as the (1, n) jet, a
view rather than a copy, when that row is a fresh, full-width, writeable
array (a ufunc result made for the call); a row that is a view, a
broadcast or narrower is copied, so no result shares memory with an
input.

Each elementary function returns its jet and the mask of the columns
outside its domain, or None when there are none (always None for exp, sin
and cos).  A guarded function poisons those columns with NaN.  An
overflowed column keeps its infinite values; callers detect overflow and
record the causes."""

from __future__ import annotations

import itertools
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Index = Tuple[int, ...]


def set_partitions(items: Sequence[int]):
    """All partitions of a small sequence of distinct labels."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _downward_closure(indices: Iterable[Index], nvars: int) -> List[Index]:
    seen = set()
    stack = [tuple(i) for i in indices]
    stack.append((0,) * nvars)
    while stack:
        mi = stack.pop()
        if mi in seen:
            continue
        seen.add(mi)
        for v in range(nvars):
            if mi[v] > 0:
                stack.append(mi[:v] + (mi[v] - 1,) + mi[v + 1 :])
    return sorted(seen, key=lambda m: (sum(m), m))


class IndexSet:
    """Ordered, downward-closed multi-index set over named variables, plus
    the propagation tables used by JetBatch arithmetic."""

    _cache: Dict[tuple, "IndexSet"] = {}

    def __new__(cls, variables: Tuple[str, ...], indices: Iterable[Index]):
        variables = tuple(variables)
        closed = tuple(_downward_closure(indices, len(variables)))
        key = (variables, closed)
        got = cls._cache.get(key)
        if got is not None:
            return got
        self = super().__new__(cls)
        self._build(variables, closed)
        cls._cache[key] = self
        return self

    def _build(self, variables: Tuple[str, ...], closed: Tuple[Index, ...]):
        self.variables = variables
        self.indices = closed
        self.pos = {mi: k for k, mi in enumerate(closed)}
        self.K = len(closed)
        self.max_order = max(sum(mi) for mi in closed)
        self._positions = {mi: self._mk_positions(mi) for mi in closed}
        self._build_mul()
        self._build_compose()
        self._chain_cache: Dict[int, list] = {}
        self._build_boundary()

    @staticmethod
    def _mk_positions(mi: Index) -> Tuple[int, ...]:
        pos: List[int] = []
        for v, c in enumerate(mi):
            pos.extend([v] * c)
        return tuple(pos)

    def value_only(self) -> "IndexSet":
        return IndexSet(self.variables, [(0,) * len(self.variables)])

    def var_row(self, name: str) -> Optional[int]:
        """Row of the first-order index for a variable, if present."""
        nv = len(self.variables)
        v = self.variables.index(name)
        mi = tuple(1 if j == v else 0 for j in range(nv))
        return self.pos.get(mi)

    # -- Leibniz ------------------------------------------------------------

    def _build_mul(self):
        out_rows, i_rows, j_rows, coeffs = [], [], [], []
        for k, alpha in enumerate(self.indices):
            for beta in self.indices:
                if any(b > a for b, a in zip(beta, alpha)):
                    continue
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                j = self.pos.get(gamma)
                if j is None:
                    continue
                c = 1
                for a, b in zip(alpha, beta):
                    c *= comb(a, b)
                out_rows.append(k)
                i_rows.append(self.pos[beta])
                j_rows.append(j)
                coeffs.append(float(c))
        order = np.argsort(np.asarray(out_rows, dtype=np.int64), kind="stable")
        self._mul_out = np.asarray(out_rows, dtype=np.int64)[order]
        self._mul_i = np.asarray(i_rows, dtype=np.int64)[order]
        self._mul_j = np.asarray(j_rows, dtype=np.int64)[order]
        self._mul_c = np.asarray(coeffs)[order][:, None]
        # contiguous segments per output row (every row has the beta=0 entry)
        starts = np.searchsorted(self._mul_out, np.arange(self.K))
        self._mul_starts = starts.astype(np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.K == 1:
            # the one table entry is 1.0 * a[0] * b[0], an exact identity
            return a * b
        prod = a[self._mul_i] * b[self._mul_j]
        if self._mul_c.size:
            prod = prod * self._mul_c
        return np.add.reduceat(prod, self._mul_starts, axis=0)

    # -- set partitions of derivative positions -----------------------------

    def _partition_rows(self, pos: Index, labels: Sequence[int]):
        """For each partition of the position labels whose every block is a
        multi-index in the set, the block rows in partition order."""
        for part in set_partitions(labels):
            rows = []
            for block in part:
                mi = [0] * len(self.variables)
                for p in block:
                    mi[pos[p]] += 1
                r = self.pos.get(tuple(mi))
                if r is None:
                    break
                rows.append(r)
            else:
                yield tuple(rows)

    # -- Faa di Bruno for unary composition --------------------------------

    def _build_compose(self):
        # per row k: list of (#blocks, tuple of block rows)
        table: List[List[Tuple[int, Tuple[int, ...]]]] = []
        for alpha in self.indices:
            pos = self._positions[alpha]
            table.append([
                (len(rows), tuple(sorted(rows)))
                for rows in self._partition_rows(pos, range(len(pos)))
            ] if pos else [])
        self._compose_table = table

    def compose(self, phis: List[np.ndarray], u: np.ndarray) -> np.ndarray:
        """phis[r] = phi^(r) evaluated at u's value row; returns jet of
        phi(u)."""
        if self.K == 1:
            return _value_row(phis[0], u.shape[1:])
        out = np.empty_like(u)
        out[0] = phis[0]
        for k in range(1, self.K):
            acc = None
            for r, rows in self._compose_table[k]:
                term = phis[r]
                for b in rows:
                    term = term * u[b]
                acc = term if acc is None else acc + term
            out[k] = acc if acc is not None else 0.0
        return out

    # -- multivariate chain rule for f(u1..um) ------------------------------

    def chain_table(self, m: int) -> list:
        """Per row k: list of (gamma, ((arg, block_row), ...)) where gamma is
        the per-argument derivative order tuple for the outer function."""
        got = self._chain_cache.get(m)
        if got is not None:
            return got
        table = []
        for alpha in self.indices:
            pos = self._positions[alpha]
            entries = []
            if pos:
                for rows in self._partition_rows(pos, range(len(pos))):
                    for assign in itertools.product(range(m), repeat=len(rows)):
                        gamma = [0] * m
                        for a in assign:
                            gamma[a] += 1
                        entries.append(
                            (tuple(gamma), tuple(zip(assign, rows)))
                        )
            table.append(entries)
        self._chain_cache[m] = table
        return table

    def needed_gammas(self, m: int):
        gammas = {(0,) * m}
        for entries in self.chain_table(m):
            for gamma, _ in entries:
                gammas.add(gamma)
        return sorted(gammas)

    def chain(self, f_at: Dict[Tuple[int, ...], np.ndarray], us: List[np.ndarray]) -> np.ndarray:
        """f_at[gamma] = outer derivative values at the argument values."""
        m = len(us)
        table = self.chain_table(m)
        f0 = f_at[(0,) * m]
        # sized from f_at: an argument may be a width-1 constant
        if self.K == 1:
            return _value_row(f0, np.shape(f0))
        out = np.empty((self.K,) + np.shape(f0))
        out[0] = f0
        for k in range(1, self.K):
            acc = None
            for gamma, blocks in table[k]:
                term = f_at[gamma]
                for arg, row in blocks:
                    term = term * us[arg][row]
                acc = term if acc is None else acc + term
            out[k] = acc if acc is not None else 0.0
        return out

    # -- integral boundary terms -------------------------------------------

    def _build_boundary(self):
        # per row k (k>=1): entries (phi_order_k, beta_row, U_block_rows):
        # d^alpha I gains  g_k[beta] * prod U[rows]  where g_k is the k-th
        # dummy-derivative of the integrand at the limit, beta covers the
        # positions outside S, and the blocks partition S.
        table: List[List[Tuple[int, int, Tuple[int, ...]]]] = []
        for alpha in self.indices:
            pos = self._positions[alpha]
            entries: List[Tuple[int, int, Tuple[int, ...]]] = []
            n = len(pos)
            if n:
                for mask in range(1, 1 << n):
                    S = [p for p in range(n) if mask & (1 << p)]
                    rest = [p for p in range(n) if not mask & (1 << p)]
                    beta = [0] * len(self.variables)
                    for p in rest:
                        beta[pos[p]] += 1
                    beta_row = self.pos.get(tuple(beta))
                    if beta_row is None:
                        continue
                    for rows in self._partition_rows(pos, S):
                        entries.append((len(rows) - 1, beta_row, rows))
            table.append(entries)
        self._boundary_table = table
        self.max_endpoint_order = max(
            (e[0] for row in table for e in row), default=-1
        )

    def boundary_accumulate(
        self, out: np.ndarray, endpoint_jets: List[np.ndarray], u: np.ndarray
    ):
        """Add the variable-upper-limit terms into out (in place).
        endpoint_jets[k] is the jet of the k-th dummy-derivative of the
        integrand at the limit; u is the limit's jet."""
        for k in range(1, self.K):
            acc = None
            for order, beta_row, rows in self._boundary_table[k]:
                term = endpoint_jets[order][beta_row]
                for b in rows:
                    term = term * u[b]
                acc = term if acc is None else acc + term
            if acc is not None:
                out[k] += acc


def _value_row(v, shape) -> np.ndarray:
    """The (1, n) jet of a value-only result: v itself as its one row when
    v owns its memory, is writeable and has the full width (a ufunc result
    made for this call), else a copy of v, so the jet never shares memory
    with an input."""
    if (isinstance(v, np.ndarray) and v.base is None and v.flags.writeable
            and v.shape == shape and v.dtype == np.float64):
        return v.reshape((1,) + shape)
    out = np.empty((1,) + shape)
    out[0] = v
    return out


# ---------------------------------------------------------------------------
# Jet batches


class JetBatch:
    __slots__ = ("iset", "data")

    def __init__(self, iset: IndexSet, data: np.ndarray):
        self.iset = iset
        self.data = data

    @classmethod
    def constants(cls, iset: IndexSet, values) -> "JetBatch":
        values = np.asarray(values, dtype=float)
        data = np.zeros((iset.K, values.size))
        data[0] = values
        return cls(iset, data)

    @classmethod
    def variable(cls, iset: IndexSet, name: str, values) -> "JetBatch":
        jb = cls.constants(iset, values)
        row = iset.var_row(name)
        if row is not None:
            jb.data[row] = 1.0
        return jb

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def value(self) -> np.ndarray:
        return self.data[0]

    def gather(self, cols: np.ndarray) -> "JetBatch":
        return JetBatch(self.iset, self.data[:, cols])

    def value_rows(self) -> "JetBatch":
        vo = self.iset.value_only()
        return JetBatch(vo, self.data[0:1])


def jb_sub(a: JetBatch, b: JetBatch) -> JetBatch:
    return JetBatch(a.iset, a.data - b.data)


def jb_mul(a: JetBatch, b: JetBatch) -> JetBatch:
    return JetBatch(a.iset, a.iset.mul(a.data, b.data))


def jb_reciprocal(a: JetBatch, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    v = a.data[0]
    bad = np.abs(v) < guard
    safe = np.where(bad, 1.0, v)
    inv = 1.0 / safe
    phis = [inv]
    p = inv
    for r in range(1, a.iset.max_order + 1):
        p = p * inv * (-r)
        # p after the update equals (-1)^r r! v^-(r+1)
        phis.append(p)
    return _compose1(a, phis, bad)


def jb_div(a: JetBatch, b: JetBatch, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    inv, bad = jb_reciprocal(b, guard)
    return jb_mul(a, inv), bad


def jb_powi(a: JetBatch, n: int, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    if n == 0:
        return JetBatch.constants(a.iset, np.ones(a.n)), None
    if n < 0:
        inv, bad = jb_reciprocal(a, guard)
        out = _powi_pos(inv, -n)
        return out, bad
    return _powi_pos(a, n), None


def _powi_pos(a: JetBatch, n: int) -> JetBatch:
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else jb_mul(result, base)
        n >>= 1
        if n:
            base = jb_mul(base, base)
    return result


def _compose1(a: JetBatch, phis: List[np.ndarray], bad: np.ndarray) -> Tuple[JetBatch, Optional[np.ndarray]]:
    """phi(a) with the bad columns poisoned, and bad, or None when no
    column is bad."""
    out = a.iset.compose(phis, a.data)
    if bad.any():
        out[:, bad] = np.nan
        return JetBatch(a.iset, out), bad
    return JetBatch(a.iset, out), None


def jb_exp(a: JetBatch) -> Tuple[JetBatch, None]:
    v = a.data[0]
    phis = [np.exp(v)] * (a.iset.max_order + 1)
    return JetBatch(a.iset, a.iset.compose(phis, a.data)), None


def jb_ln(a: JetBatch, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    v = a.data[0]
    bad = v < guard
    safe = np.where(bad, 1.0, v)
    inv = 1.0 / safe
    phis = [np.log(safe)]
    p = inv.copy()
    for r in range(1, a.iset.max_order + 1):
        phis.append(p)
        p = p * inv * (-r)
    return _compose1(a, phis, bad)


def jb_sqrt(a: JetBatch, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    v = a.data[0]
    bad = v < guard
    safe = np.where(bad, 1.0, v)
    s = np.sqrt(safe)
    phis = [s]
    c = 0.5
    p = s / safe  # s^-1 * s = safe^{-1/2}
    for r in range(1, a.iset.max_order + 1):
        phis.append(c * p)
        p = p / safe
        c = c * (0.5 - r)
    return _compose1(a, phis, bad)


def jb_powc(a: JetBatch, c: float, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    """a**c for non-integer constant c; requires a positive base."""
    v = a.data[0]
    bad = v < guard
    safe = np.where(bad, 1.0, v)
    phis = []
    coef = 1.0
    for r in range(a.iset.max_order + 1):
        with np.errstate(invalid="ignore"):
            phis.append(coef * safe ** (c - r))
        coef = coef * (c - r)
    return _compose1(a, phis, bad)


def jb_sin(a: JetBatch) -> Tuple[JetBatch, None]:
    v = a.data[0]
    s, co = np.sin(v), np.cos(v)
    cycle = [s, co, -s, -co]
    phis = [cycle[r % 4] for r in range(a.iset.max_order + 1)]
    return JetBatch(a.iset, a.iset.compose(phis, a.data)), None


def jb_cos(a: JetBatch) -> Tuple[JetBatch, None]:
    v = a.data[0]
    s, co = np.sin(v), np.cos(v)
    cycle = [co, -s, -co, s]
    phis = [cycle[r % 4] for r in range(a.iset.max_order + 1)]
    return JetBatch(a.iset, a.iset.compose(phis, a.data)), None


def jb_tan(a: JetBatch, guard: float) -> Tuple[JetBatch, Optional[np.ndarray]]:
    v = a.data[0]
    # distance from the nearest pole pi/2 + k*pi
    dist = np.abs((v / np.pi) % 1.0 - 0.5) * np.pi
    bad = dist < guard
    safe = np.where(bad, 0.0, v)
    T = np.tan(safe)
    T2 = T * T
    phis = [T, 1 + T2, 2 * T * (1 + T2), (1 + T2) * (2 + 6 * T2)]
    # above third order, tan^(r) = P_r(T) with P_{r+1} = P_r' (1 + T^2);
    # c holds P_r's coefficients, lowest degree first, from P_3
    c = [2.0, 0.0, 8.0, 0.0, 6.0]
    while len(phis) <= a.iset.max_order:
        d = [k * ck for k, ck in enumerate(c)][1:] + [0.0, 0.0]
        c = [d[k] + (d[k - 2] if k >= 2 else 0.0) for k in range(len(d))]
        phis.append(np.polyval(c[::-1], T))
    return _compose1(a, phis, bad)
