"""Outside-in tracer for the pdegensol benchmark.

The tracer patches the package from outside: it rebinds each traced
function on every module of the package that binds it, and wraps the
integrand and root-body callbacks that the engine hands to the quadrature
and root-finding routines.  Every wrapped call becomes a span (id, parent
id, name, start, end) kept in memory; self time is computed from the spans
when the run ends.  Counts (integrand nodes per nesting depth, root-body
column evaluations, ...) are recorded at the same boundaries.

Nothing here runs unless a traced run calls Tracer.install(); the untraced
run never imports the package through this module.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

# (span id, parent id, name, start, end)
Span = Tuple[int, int, str, float, float]

KERNEL_KS = (1, 4, 6, 8)  # jet index-set sizes the catalog produces
MAX_DEPTH = 5  # deepest quadrature nesting in the catalog


class Tracer:
    """Spans and counts for one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.installed: List[str] = []  # every wrapper name install() set up
        self._stack = [0]
        self._ids = itertools.count(1)
        self._quad_depth = 0
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn, *args, **kw):
        """Run fn(*args, **kw) inside a span called name."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result) records counts from the result."""
        self.installed.append(name)

        def traced(*args, **kw):
            out = self.call(name, fn, *args, **kw)
            if after is not None:
                after(out)
            return out
        return traced

    # -- patching -----------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> int:
        """Rebind every pdegensol module attribute that is `original`."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pdegensol"
                                   or modname.startswith("pdegensol.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, replacement)
                    n += 1
        if n == 0:
            raise RuntimeError(f"no module binds {original!r}")
        return n

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from pdegensol import catalog, cli, expr_core, verifier
        from pdegensol.numeric import engine, funcs, jets, quadrature, rootfind

        # functions, on every namespace that binds them
        plain = [
            (catalog.load_catalog, "catalog.load_catalog"),
            (expr_core.simplify, "expr_core.simplify"),
            (expr_core.differentiate, "expr_core.differentiate"),
            (engine.eval_batch, "numeric.engine.eval_batch"),
            (verifier.crosscheck_derivatives,
             "verifier.crosscheck_derivatives"),
            (cli.main, "cli.main"),
        ]
        for fn, name in plain:
            self._rebind_everywhere(fn, self._wrap(name, fn))
        c = self.counts

        def drawn(scn):
            c["verifier.draw_attempts"] += scn.sampling_attempts

        def resampled(out):
            c["verifier.resampled_points"] += int(out[3])

        self._rebind_everywhere(verifier.draw_scenario, self._wrap(
            "verifier.draw_scenario", verifier.draw_scenario, drawn))
        self._rebind_everywhere(verifier.scenario_residuals, self._wrap(
            "verifier.scenario_residuals", verifier.scenario_residuals,
            resampled))
        self._rebind_everywhere(
            quadrature.adaptive_gk_batched,
            self._quadrature(quadrature.adaptive_gk_batched))
        self._rebind_everywhere(
            rootfind.bracket_bisect_newton,
            self._rootfind(rootfind.bracket_bisect_newton, rootfind.OK))

        # methods
        for meth in ("mul", "compose", "chain", "boundary_accumulate"):
            self._patch_attr(jets.IndexSet, meth,
                             self._kernel(meth, getattr(jets.IndexSet, meth)))
        const = jets.JetBatch.__dict__["constants"].__func__
        self._patch_attr(jets.JetBatch, "constants", classmethod(
            self._wrap("numeric.jets.JetBatch.constants", const)))
        self._patch_attr(funcs.FunctionInstance, "eval", self._wrap(
            "numeric.funcs.FunctionInstance.eval",
            funcs.FunctionInstance.eval))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- layer-specific wrappers ----------------------------------------------

    def _kernel(self, meth: str, fn):
        names: Dict[int, str] = {}
        self.installed.append(f"numeric.jets.IndexSet.{meth}")

        def traced(iset, *args, **kw):
            name = names.get(iset.K)
            if name is None:
                name = names[iset.K] = f"numeric.jets.IndexSet.{meth}.k{iset.K}"
            return self.call(name, fn, iset, *args, **kw)
        return traced

    def _quadrature(self, fn):
        name = "numeric.quadrature.adaptive_gk_batched"
        cb_name = "numeric.engine.integrand_eval"
        self.installed += [name, cb_name]

        def traced(evalfn, lo, hi, K, cfg, on_noconv=None):
            depth = self._quad_depth + 1
            nodes_key = f"numeric.quadrature.nodes.d{depth}"

            def integrand(xs, cols):
                self.counts[nodes_key] += int(xs.size)
                return self.call(cb_name, evalfn, xs, cols)

            def noconv(mask):
                self.counts["numeric.quadrature.noconv_cols"] += int(
                    mask.sum())
                if on_noconv is not None:
                    on_noconv(mask)

            self._quad_depth = depth
            try:
                return self.call(name, fn, integrand, lo, hi, K, cfg, noconv)
            finally:
                self._quad_depth = depth - 1
        return traced

    def _rootfind(self, fn, ok_status):
        name = "numeric.rootfind.bracket_bisect_newton"
        cb_name = "numeric.engine.root_body"
        self.installed += [name, cb_name]

        def counted(body, extra=None):
            def f(zs, cols):
                self.counts["numeric.rootfind.body_evals"] += int(zs.size)
                if extra:
                    self.counts[extra] += int(zs.size)
                return self.call(cb_name, body, zs, cols)
            return f

        def traced(fval, fprime, seeds, cfg):
            fp = None
            if fprime is not None:
                fp = counted(fprime, "numeric.rootfind.fprime_evals")
            roots, status = self.call(name, fn, counted(fval), fp, seeds, cfg)
            self.counts["numeric.rootfind.bracket_bisect_newton.cols"] += int(
                status.size)
            self.counts["numeric.rootfind.failed_cols"] += int(
                (status != ok_status).sum())
            return roots, status
        return traced


# ---------------------------------------------------------------------------
# Span arithmetic


def span_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only the outermost span of a name, so
    a name that nests inside itself (quadrature inside a root body inside
    quadrature) is not counted twice."""
    by_id = {s[0]: s for s in spans}
    child = Counter()
    for sid, parent, _name, t0, t1 in spans:
        child[parent] += t1 - t0
    out: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, t0, t1 in spans:
        d = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        d["calls"] += 1
        d["self_s"] += (t1 - t0) - child[sid]
        p = parent
        while p and by_id[p][2] != name:
            p = by_id[p][1]
        if not p:
            d["s"] += t1 - t0
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by name (0 when a layer
    never ran)."""
    st = span_times(tracer.spans)
    c = tracer.counts

    def get(name, key):
        return st.get(name, {}).get(key, 0.0)

    m: Dict[str, float] = {}
    v = "verifier."
    for phase in ("draw_scenario", "scenario_residuals",
                  "crosscheck_derivatives"):
        m[f"{v}{phase}.calls"] = get(v + phase, "calls")
        m[f"{v}{phase}.s"] = get(v + phase, "s")
    m[v + "draw_attempts"] = c["verifier.draw_attempts"]
    m[v + "resampled_points"] = c["verifier.resampled_points"]

    r = "numeric.rootfind."
    cols = c[r + "bracket_bisect_newton.cols"]
    m[r + "bracket_bisect_newton.calls"] = get(r + "bracket_bisect_newton",
                                               "calls")
    m[r + "bracket_bisect_newton.cols"] = cols
    m[r + "bracket_bisect_newton.self_s"] = get(r + "bracket_bisect_newton",
                                                "self_s")
    m[r + "body_evals"] = c[r + "body_evals"]
    m[r + "fprime_evals"] = c[r + "fprime_evals"]
    m[r + "evals_per_col"] = c[r + "body_evals"] / cols if cols else 0.0
    m[r + "failed_cols"] = c[r + "failed_cols"]
    m[r + "body_s"] = get("numeric.engine.root_body", "s")

    q = "numeric.quadrature."
    m[q + "adaptive_gk_batched.calls"] = get(q + "adaptive_gk_batched",
                                             "calls")
    m[q + "adaptive_gk_batched.self_s"] = get(q + "adaptive_gk_batched",
                                              "self_s")
    m[q + "integrand_calls"] = get("numeric.engine.integrand_eval", "calls")
    for d in range(1, MAX_DEPTH + 1):
        m[f"{q}nodes.d{d}"] = c[f"{q}nodes.d{d}"]
    m[q + "noconv_cols"] = c[q + "noconv_cols"]

    j = "numeric.jets."
    for meth in ("mul", "compose", "chain", "boundary_accumulate"):
        for k in KERNEL_KS:
            if meth == "boundary_accumulate" and k == 1:
                continue  # value-only jets carry no boundary terms
            name = f"{j}IndexSet.{meth}.k{k}"
            m[name + ".calls"] = get(name, "calls")
            m[name + ".self_s"] = get(name, "self_s")
    m[j + "JetBatch.constants.calls"] = get(j + "JetBatch.constants", "calls")
    m[j + "JetBatch.constants.self_s"] = get(j + "JetBatch.constants",
                                             "self_s")

    e = "numeric.engine."
    m[e + "eval_batch.calls"] = get(e + "eval_batch", "calls")
    m[e + "eval_batch.self_s"] = get(e + "eval_batch", "self_s")
    m[e + "integrand_eval.self_s"] = get(e + "integrand_eval", "self_s")
    m[e + "root_body.self_s"] = get(e + "root_body", "self_s")

    f = "numeric.funcs.FunctionInstance.eval"
    m[f + ".calls"] = get(f, "calls")
    m[f + ".self_s"] = get(f, "self_s")

    for fn in ("simplify", "differentiate"):
        m[f"expr_core.{fn}.calls"] = get(f"expr_core.{fn}", "calls")
        m[f"expr_core.{fn}.s"] = get(f"expr_core.{fn}", "s")
    m["catalog.load_catalog.s"] = get("catalog.load_catalog", "s")
    m["cli.main.calls"] = get("cli.main", "calls")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    return m


# count metrics: exact, and required to repeat between runs of one seed
COUNT_SUFFIXES = (".calls", ".cols", "_evals", "evals_per_col",
                  "failed_cols", "noconv_cols", "draw_attempts",
                  "resampled_points", "integrand_calls")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or ".nodes.d" in name


def coverage_problems(tracer: Tracer) -> List[str]:
    """Wrappers that never fired, and work the layer metrics do not report
    (a jet size or nesting depth outside KERNEL_KS / MAX_DEPTH).  Either
    would leave a layer metric silently reading 0."""
    names = {s[2] for s in tracer.spans}
    # a kernel wrapper's spans carry its jet size: <name>.k<K>
    kernels = {n for n in names if ".IndexSet." in n}
    fired = names | {n.rpartition(".k")[0] for n in kernels}
    bad = [f"wrapper never fired: {n}" for n in tracer.installed
           if n not in fired]
    reported = layer_metrics(tracer)
    bad += [f"unreported kernel size: {n}" for n in sorted(kernels)
            if n + ".calls" not in reported]
    bad += [f"unreported nesting depth: {k}" for k in tracer.counts
            if ".nodes.d" in k and k not in reported]
    return bad


def unit_of(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    if name.endswith("evals_per_col"):
        return "evals/col"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"
