"""Engine configuration."""

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    # adaptive Gauss-Kronrod settings
    quad_rel_tol: float = 1e-10
    quad_abs_tol: float = 1e-12
    quad_max_depth: int = 30
    # panel budgets: a divergent integrand (integration path crossing a
    # pole) would otherwise double its worklist every refinement round
    quad_max_panels_per_col: int = 500
    quad_max_panels_total: int = 500_000
    # structural cap on quadrature nesting; deepest catalog entry needs 5
    nest_limit: int = 6
    # implicit-root solving
    root_tol: float = 1e-12
    root_span: float = 8.0
    degenerate_tol: float = 1e-10
    # poison guards (runtime); the verifier pre-scan uses wider margins
    den_guard: float = 1e-13
    pos_guard: float = 1e-13
    tan_guard: float = 1e-8

    def with_(self, **kw) -> "NumericConfig":
        from dataclasses import replace

        return replace(self, **kw)
