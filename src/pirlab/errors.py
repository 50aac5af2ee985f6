"""Exception hierarchy shared by all pirlab modules.

Every error raised on a contract violation derives from PirError so that
callers (and the CLI exit-code logic) can distinguish library failures from
programming bugs.
"""


class PirError(Exception):
    """Base class for all pirlab errors."""


class ParamError(PirError):
    """Parameters violate a protocol or operation precondition."""


class NonUnit(PirError):
    """Inversion was requested for zero or a zero divisor."""


class NoSuchElement(PirError):
    """No element with the requested multiplicative order exists."""


class DimensionMismatch(PirError):
    """Vector or matrix operands have incompatible shapes."""


class NiceSetError(PirError):
    """No nonempty dual set exists for the requested parity constraints."""


class DecodingPolyInvalid(PirError):
    """A decoding polynomial fails its root or normalization identities."""


class InterpolationSetInvalid(PirError):
    """An evaluation set fails the constant-term interpolation property."""


class MalformedQuery(PirError):
    """Query bytes do not decode under the scheme's level codec."""


class InconsistentAnswer(PirError):
    """Reconstruction produced a value outside {0, omega}; an answer was
    corrupted or belongs to a different query."""


class CheckFailure(PirError):
    """An exhaustive structural check found a counterexample."""


class OAFailure(CheckFailure):
    """An array is not an orthogonal array at the requested strength."""


class SpanFailure(CheckFailure):
    """Reconstruction coefficients do not span the required unit vector."""


class Mismatch(CheckFailure):
    """Measured transcript sizes disagree with the predicted codec widths."""


class CapExceeded(PirError):
    """A materialization cap would be exceeded; refuse rather than sample."""


class BudgetExceeded(PirError):
    """An exhaustive suite would exceed its work budget."""


class Exhausted(PirError):
    """A search ran out of candidates (or budget) below its target."""


class TransportError(PirError):
    """A network-level failure (refused connection, protocol violation)."""


class Timeout(TransportError):
    """A server did not answer within the configured deadline."""


class ParamDigestMismatch(TransportError):
    """Client and server disagree on protocol parameters."""
