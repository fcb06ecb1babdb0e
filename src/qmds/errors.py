"""Exception taxonomy.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map error categories onto exit codes and tests can assert on
the precise failure.  ``QmdsError`` is the common base; ``UsageError`` marks
problems with how an operation was invoked (bad parameter types/values) as
opposed to a mathematical hypothesis that failed to hold.
"""

from __future__ import annotations


class QmdsError(Exception):
    """Base class for all package-specific errors."""


class UsageError(QmdsError):
    """Malformed invocation: wrong flag combination, bad literal, etc."""


# --- field construction / arithmetic -----------------------------------------

class NotPrime(UsageError):
    """A value required to be prime (or a prime power) is not."""


class CapacityExceeded(QmdsError):
    """Requested object is larger than the supported size bounds."""


class Overflow(QmdsError):
    """Integer input outside the supported 64-bit range."""


class DivisionByZero(QmdsError):
    """Multiplicative inverse of the zero element requested."""


class NotInSubfield(QmdsError):
    """Element is not a nonzero element of the designated subfield."""


# --- hypothesis / precondition failures --------------------------------------

class HypothesisViolated(QmdsError):
    """A construction's arithmetic precondition does not hold."""


class BadDivisor(HypothesisViolated):
    """Parameter must divide the relevant group order but does not."""


class NotChar2(HypothesisViolated):
    """Operation only defined in characteristic two."""


class NotCoprime(HypothesisViolated):
    """Parameters must be coprime but are not."""


class WeightSumVanishes(HypothesisViolated):
    """Sum of multiplicities is divisible by the characteristic."""


class NoValidH(HypothesisViolated):
    """No subfield shift makes the shared-point weights nonzero."""


class DimensionExceedsOracle(HypothesisViolated):
    """Requested dimension is larger than the proven self-orthogonal range."""


class DimensionTooLarge(QmdsError):
    """Requested dimension exceeds the code length."""


# --- verification -------------------------------------------------------------

class BudgetExceeded(QmdsError):
    """Requested exhaustive check is larger than the allowed budget."""


class InvalidDims(QmdsError):
    """Parameters (n, k) do not describe a valid code."""
