"""Numeric evaluation: jets, quadrature, implicit roots, batch engine."""

from .config import NumericConfig  # noqa: F401
from .errors import EvalError, NestLimitExceeded, SamplingExhausted  # noqa: F401
from .funcs import FunctionInstance, polynomial  # noqa: F401
from .jets import IndexSet, JetBatch  # noqa: F401
from .engine import CFG, EvalContext, eval_batch  # noqa: F401
