"""Exception types shared across the package."""


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

