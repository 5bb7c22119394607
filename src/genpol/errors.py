"""Exception hierarchy shared across the package."""


class GenpolError(Exception):
    """Base class for all errors raised by this package."""


class PddlError(GenpolError):
    """Malformed PDDL input; carries the source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class UnsupportedPddlError(PddlError):
    """Input uses a PDDL construct outside the supported STRIPS fragment."""


class LimitExceededError(GenpolError):
    """A configured resource cap (states, transitions, actions, pool) was hit."""


class ArityError(GenpolError):
    """Feature generation was asked to handle a predicate of arity > 2."""


class SolverTimeoutError(GenpolError):
    """The solve budget ran out before the optimum was proven."""

    def __init__(self, message: str, best_cost: int | None = None, best_model: list | None = None):
        super().__init__(message)
        self.best_cost = best_cost
        self.best_model = best_model


class PolicyError(GenpolError):
    """A policy file or policy operation is invalid."""


class InternalInvariantError(GenpolError):
    """An internal consistency check failed; indicates a bug, not bad input."""
