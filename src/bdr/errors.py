"""Exception types shared across the package."""


class BdrError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BdrError, ValueError):
    """Malformed degree sequence or rational on input."""


class InvalidMoveError(BdrError):
    """A hinge-flip whose precondition does not hold."""


class InfeasibleClassError(BdrError):
    """A degree class D(n, sigma, d, delta) that contains no sequence."""


class InvalidPairError(BdrError):
    """A class pair whose degree sums differ."""


class InputOutOfClassError(BdrError):
    """A sequence handed to the decider that violates its degree bounds."""


class BudgetExceededError(BdrError):
    """An exact search that examined more candidates (``what``, plural) than
    its budget ``limit``; raised instead of a possibly wrong verdict."""

    def __init__(self, limit: int, examined: int, what: str):
        super().__init__(f"examined more than {limit} {what}")
        self.limit, self.examined = limit, examined


class SizeLimitError(BdrError):
    """An input past a stated size limit, refused before the work it sizes."""


class NotInHardRegionError(BdrError):
    """Reduction requested for bounds outside the conditionally hard region."""


class ReductionPreconditionError(BdrError):
    """Source sequence violates a precondition of the padding construction."""


class InvariantError(BdrError):
    """A condition that a proof guarantees fails; this signals a bug.

    A typed exception, so the check also runs under ``python -O``.
    """


class ReductionInvariantError(InvariantError):
    """A derived constant or the lift audit of the padding construction fails."""


class ProjectionAuditError(BdrError):
    """Residual-degree audit failure while projecting a padded realization.

    This firing would contradict the backward direction of the reduction.
    It carries a message only, naming the failed check and the degrees or
    counts it found.
    """
