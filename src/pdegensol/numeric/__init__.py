"""Numeric evaluation: jets, quadrature, implicit roots, batch engine."""

from .config import NumericConfig  # noqa: F401
from .errors import (  # noqa: F401
    DegenerateRoot,
    DomainError,
    EvalError,
    NestLimitExceeded,
    QuadratureNonconvergence,
    RootNotFound,
    SamplingExhausted,
)
from .funcs import FunctionInstance, polynomial  # noqa: F401
from .jets import IndexSet, Jet, JetBatch  # noqa: F401
from .quadrature import integrate  # noqa: F401
from .rootfind import find_root  # noqa: F401
from .engine import EvalContext, eval_batch, eval_jet  # noqa: F401
