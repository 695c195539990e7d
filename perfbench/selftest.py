"""Self-tests of the benchmark's own arithmetic.

    python3 perfbench/selftest.py

run.py runs them before every measurement; they do not import the
package.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import CAL_REF_S, Speedometer  # noqa: E402
from stats import (MARGIN_FLOOR, family_margin, margin_dec,  # noqa: E402
                   margin_pairs, percentile, tail_percentile)
from tracer import Tracer, coverage_problems, span_times  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"benchmark self-test failed: {what}")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_self_time_nested_tree():
    # quadrature [0, 10] > integrand [1, 9] > root solve [2, 8] >
    # root body [3, 7] > quadrature [4, 6] > integrand [4.5, 5.5]
    Q, I, R, B = ("quad", "integrand", "root", "body")
    spans = [(6, 5, I, 4.5, 5.5), (5, 4, Q, 4.0, 6.0), (4, 3, B, 3.0, 7.0),
             (3, 2, R, 2.0, 8.0), (2, 1, I, 1.0, 9.0), (1, 0, Q, 0.0, 10.0)]
    st = span_times(spans)
    check(st[Q]["calls"] == 2, "calls counted per span")
    check(close(st[Q]["self_s"], (10 - 8) + (2 - 1)), "quad self time")
    check(close(st[Q]["s"], 10.0), "nested quad counted once inclusive")
    check(close(st[I]["self_s"], (8 - 6) + 1.0), "integrand self time")
    check(close(st[I]["s"], 8.0), "nested integrand counted once")
    check(close(st[R]["self_s"], 6 - 4), "root self time")
    check(close(st[B]["self_s"], 4 - 2), "body self time")
    total_self = sum(d["self_s"] for d in st.values())
    check(close(total_self, 10.0), "self times add up to the root span")


class _Arr(list):
    """The little of numpy arrays the wrappers use: .size and != / .sum()."""

    size = property(len)

    def __ne__(self, other):
        return _Arr(x != other for x in self)

    def sum(self):
        return sum(bool(x) for x in self)


def test_wrappers_count_nodes_by_depth():
    # fake solvers: a quadrature that calls its integrand once on 15 nodes,
    # a root solve that calls its body once on all columns
    tr = Tracer()

    def fake_quad(evalfn, lo, hi, K, cfg, on_noconv=None):
        return evalfn(_Arr([0.0] * 15), None)

    def fake_root(fval, fprime, seeds, cfg):
        fval(seeds, None)
        return seeds, _Arr([0] * len(seeds))

    quad = tr._quadrature(fake_quad)
    root = tr._rootfind(fake_root, 0)

    def body(zs, cols):
        return quad(lambda xs, c: 0.0, None, None, 1, None)

    def integrand(xs, cols):
        return root(body, None, _Arr([1.0, 2.0]), None)

    quad(integrand, None, None, 1, None)
    c = tr.counts
    check(c["numeric.quadrature.nodes.d1"] == 15, "depth-1 nodes")
    check(c["numeric.quadrature.nodes.d2"] == 15,
          "quadrature inside a root body inside quadrature is depth 2")
    check(c["numeric.rootfind.body_evals"] == 2, "body column evaluations")
    check(c["numeric.rootfind.bracket_bisect_newton.cols"] == 2, "root cols")
    check(c["numeric.rootfind.failed_cols"] == 0, "no failed columns")
    check(tr._quad_depth == 0 and tr._stack == [0], "stacks unwound")
    names = [s[2] for s in sorted(tr.spans)]
    check(names == ["numeric.quadrature.adaptive_gk_batched",
                    "numeric.engine.integrand_eval",
                    "numeric.rootfind.bracket_bisect_newton",
                    "numeric.engine.root_body",
                    "numeric.quadrature.adaptive_gk_batched",
                    "numeric.engine.integrand_eval"], "span nesting order")


def test_coverage_from_spans():
    # a kernel fires through its sized span name; a wrapper with no span
    # never fired; a jet size the metrics do not name is unreported
    tr = Tracer()
    tr.installed = ["numeric.jets.IndexSet.mul", "cli.main"]
    tr.spans = [(1, 0, "numeric.jets.IndexSet.mul.k4", 0.0, 1.0),
                (2, 0, "numeric.jets.IndexSet.mul.k3", 1.0, 2.0)]
    check(coverage_problems(tr) == [
        "wrapper never fired: cli.main",
        "unreported kernel size: numeric.jets.IndexSet.mul.k3"],
        "coverage problems")


def test_tail_percentile_rule():
    for n, want in ((100, 90.0), (200, 90.0), (50, 80.0), (20, 50.0),
                    (12, 50.0), (1, 50.0)):
        xs = [float(i) for i in range(n)]
        pct, val = tail_percentile(xs)
        check(pct == want, f"n={n}: p{pct} reported, p{want} expected")
        if n >= 20:
            check(sum(x > val for x in xs) >= 10,
                  f"n={n}: ten samples beyond p{pct}")
    check(percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5, "interpolation")


def test_margin_of_exact_zero():
    check(close(margin_dec(1e-6, 0.0), math.log10(1e-6 / MARGIN_FLOOR)),
          "a residual of exactly 0 has a finite margin")
    check(close(margin_dec(1e-4, 1e-6), 2.0), "two decades")
    check(margin_dec(1e-6, 1e-5) < 0, "a residual over its gate is negative")
    check(margin_dec(1e-6, math.nan) == 0.0, "NaN has no headroom")


def test_one_family_losing_accuracy_shows():
    # 17 families at 9 decades; one family loses 4 decades on every
    # operation: the metric drops by the full 4, not by 4/17
    ops = [(f"f{i}", 9.0) for i in range(17) for _ in range(40)]
    check(family_margin(ops) == 9.0, "all families equal")
    ops = [(f, m - 4.0 if f == "f3" else m) for f, m in ops]
    check(family_margin(ops) == 5.0, "one family's loss is not diluted")
    check(close(family_margin([("a", 9.0), ("a", 6.0), ("b", 8.0)]), 7.5),
          "a family's mean margin")
    # verify operations count once per scenario, sample operations once
    ops = [{"family": "a", "residual_margin_dec": 1.0,
            "xcheck_margin_dec": 2.0, "scenario_margins": [(5.0, 3.0),
                                                          (7.0, 1.0)]},
           {"family": "b", "residual_margin_dec": 4.0,
            "xcheck_margin_dec": 6.0}]
    check(list(margin_pairs(ops, 0)) == [("a", 5.0), ("a", 7.0), ("b", 4.0)],
          "residual margins per scenario")
    check(family_margin(margin_pairs(ops, 1)) == 2.0,
          "cross-check margin: mean of family a's scenarios")


def test_reference_seconds():
    # kernel samples (midpoint, seconds): the machine runs at half the
    # reference speed around [10, 12]
    sp = Speedometer()
    k = 2 * CAL_REF_S
    sp.samples = [(9.5, k), (12.5, k), (19.5, CAL_REF_S / 4)]
    check(close(sp.scaled(10.0, 12.0), 1.0), "time halved")
    check(close(sp.scaled(20.0, 20.1), 0.1 * 4), "only nearby samples count")


def run_all() -> None:
    test_self_time_nested_tree()
    test_wrappers_count_nodes_by_depth()
    test_coverage_from_spans()
    test_tail_percentile_rule()
    test_margin_of_exact_zero()
    test_one_family_losing_accuracy_shows()
    test_reference_seconds()


if __name__ == "__main__":
    run_all()
    print("benchmark self-tests passed")
