"""Semantic exception hierarchy shared by all modules, and ordered array checks."""

import numpy as np


class SqccError(Exception):
    """Base class for all package errors."""


class DomainError(SqccError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(SqccError, ArithmeticError):
    """A numerical procedure failed (non-convergence, indefinite matrix, ...)."""


class ConvergenceError(NumericError):
    """An iteration did not converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class PhysicalityError(SqccError, ValueError):
    """A state or channel violates the uncertainty-principle bound."""


class Checks:
    """Ordered error checks of an array computation over elements of one shape.

    Each check names where it fails (a boolean array broadcasting to the
    shape, or one flag for every element) and the error raised there.  An
    element reports the first check it fails: the error that the same
    computation on that element alone raises first.  Later checks may read
    values that an earlier failure spoiled; they cannot change the report.
    """

    def __init__(self, shape=()):
        self.shape = tuple(shape)
        self._count = 0  # a check's number is its position, from 1
        self._sites = {}  # number -> (error, message, args) of each check that fails
        # 1 + the index of each element's first failed check; 0 where none fails
        self.code = np.zeros(self.shape, np.intp)

    def add(self, failed, error, message: str = "", *args) -> None:
        """Record a check; the message is ``message.format`` of each argument's element.

        ``error`` may instead hold one exception (or None) per element, for
        errors found before the computation, such as per-row constants.
        """
        self._count += 1
        if (isinstance(failed, np.ndarray) or failed) and np.count_nonzero(failed):
            self._sites[self._count] = (error, message, args)
            self.code = np.where((self.code == 0) & failed, self._count, self.code)

    def error(self, index=()) -> SqccError | None:
        """The error of the element at ``index``, or None."""
        number = int(self.code[index]) if self._sites else 0
        if number == 0:
            return None
        error, message, args = self._sites[number]
        if not isinstance(error, type):
            return self._item(error, index)
        return error(message.format(*(self._item(arg, index) for arg in args)))

    def raise_first(self) -> None:
        """Raise the error of a single-element computation, if it has one."""
        error = self.error()
        if error is not None:
            raise error

    def _item(self, value, index):
        item = np.broadcast_to(value, self.shape)[index]
        return item.item() if isinstance(item, np.generic) else item
