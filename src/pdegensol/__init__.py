"""Nonlinear PDE families with closed-form general solutions, and the
numerical machinery to verify them."""

__version__ = "0.1.0"

from .expr_core import (  # noqa: F401
    Env,
    Expr,
    ParseError,
    differentiate,
    parse,
    simplify,
    substitute,
    to_text,
)
from .catalog import PdeFamily, family_ids, get_family  # noqa: F401
from .verifier import (  # noqa: F401
    VerificationReport,
    verify_catalog,
    verify_family,
)
