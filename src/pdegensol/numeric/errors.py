"""Typed evaluation failures.

Evaluation does not raise for a failure in its columns: it poisons them
with NaN and records a cause kind on the context.  These are raised only
where no column can go on: a malformed tree, nesting past the structural
limit, or a scenario that cannot be drawn."""


class EvalError(Exception):
    """Base class for numeric evaluation failures."""


class NestLimitExceeded(EvalError):
    """Quadrature nesting exceeded the structural limit engine.NEST_LIMIT."""


class SamplingExhausted(EvalError):
    """No scenario draw satisfied the family's admissibility predicate."""
