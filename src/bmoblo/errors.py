"""Exception types, and the integer check, shared across the package."""


class BmobloError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BmobloError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(BmobloError, ArithmeticError):
    """A bracketed root search failed to reach its residual target."""


class StructureError(BmobloError, ValueError):
    """A weighted tree violates the alpha-tree axioms.

    Carries the path of the offending node (root = "root", children addressed
    by index, e.g. "root/2/0") so callers can point at the bad input.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _integer(x, name: str) -> int:
    """x as an int if it is integral (3 or 3.0, not a bool), else a DomainError naming it."""
    import numbers  # here, so that importing the package loads nothing more
    try:  # bool is a numbers.Real, and numpy's bool_ is not
        if type(x) is not bool and isinstance(x, numbers.Real) and x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {x!r}")
