"""Exception types shared across the package."""


class PiordError(Exception):
    """Base class for all library errors."""


class MalformedChain(PiordError):
    """A collapsing series ended before reaching the top regular term."""


class UndefinedOnZero(PiordError):
    """Head/tail data requested for the zero exponent."""


class BadDelta(PiordError):
    """K_delta subscript must be zero, the top term, or a psi term."""


class NotMahloTerm(PiordError):
    """Operation requires a psi term with a non-zero coefficient vector."""


class ComparisonUndecided(PiordError):
    """Neither direction of the term order could be established."""


class InvalidTerm(PiordError):
    """A term failed validation where a validated term was required."""


class ValidationError(PiordError):
    """Raised by builders when the constructed term fails validation."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.first_failure() or "validation failed")


class OutOfRange(PiordError):
    """Omega index must be strictly between zero and the top term."""


class BudgetExceeded(PiordError):
    """Enumeration exceeded its term budget."""


class LimitExceeded(PiordError):
    """An input number lies outside its stated limits."""


class OrdSyntaxError(PiordError):
    """Parse failure, with the offending position."""

    def __init__(self, message, pos):
        self.message = message
        self.pos = pos
        super().__init__("%s (at position %d)" % (message, pos))


class ArityError(OrdSyntaxError):
    """A coefficient vector had the wrong length for the configured N."""
