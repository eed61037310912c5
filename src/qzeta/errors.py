"""Exception types shared across the library."""


class QZetaError(Exception):
    """Base class for all library errors."""


class DivisionByZero(QZetaError):
    """Evaluation at q = 0 with negative exponents present, or division by zero."""


class NotAUnit(QZetaError):
    """Series inversion requested for a series whose constant term is not invertible."""


class ExactDivisionError(QZetaError):
    """A division that was required to be exact left a nonzero remainder."""


class BudgetExceeded(QZetaError):
    """A computation was refused because it exceeds the configured size budget."""


class DivergentSum(QZetaError):
    """A formal infinite sum has an s-independent term with nonzero coefficient."""


class FitFailed(QZetaError):
    """No (g, h) pair found within the attempted degree bounds."""


class NoSolution(QZetaError):
    """An exact linear system is inconsistent."""


class CriterionFailed(QZetaError):
    """An acceptance criterion's check did not hold."""
