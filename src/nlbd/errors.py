"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`NlbdError`, so callers
(including the CLI, which maps error classes to exit codes) can distinguish
library failures from programming errors.
"""

from __future__ import annotations


class NlbdError(Exception):
    """Base class for all library errors."""


class InvalidBox(NlbdError):
    """A distribution failed box validation (negativity, normalization, signalling)."""


class UnknownKind(NlbdError, ValueError):
    """Unrecognized named-box kind."""


class ArityMismatch(NlbdError, ValueError):
    """Objects that must share a player count or copy count do not."""


class BudgetExceeded(NlbdError):
    """An enumeration or grid request exceeds the documented desk-scale budget."""


class FormatError(NlbdError, ValueError):
    """A box/protocol file or serialization string does not parse."""


class NoRealFactorization(NlbdError):
    """The target polynomial has complex roots, so no affine factorization over the reals exists."""


class RangeInfeasible(NlbdError):
    """No distribution of the leading coefficient keeps every affine factor inside [-1, 1] on [0, 1]."""


class InvalidConstructedBox(NlbdError):
    """A factor assignment produced a box that fails validation at some sampled parameter."""


class VerificationFailed(NlbdError):
    """A computed result failed its own check: a replay, a postcondition or an identity."""
