"""Engine configuration: the three tolerances a verification report
records.  The engine's other limits are constants of the module that
applies them (quadrature.py, rootfind.py, engine.py)."""

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    # adaptive Gauss-Kronrod tolerances
    quad_rel_tol: float = 1e-10
    quad_abs_tol: float = 1e-12
    # implicit-root residual tolerance
    root_tol: float = 1e-12
