"""Exception types shared across the package."""


class PrecisionExhausted(ArithmeticError):
    """Raised when a computation cannot be certified within its precision budget.

    Recoverable: `partial` carries whatever prefix of the result was
    certified before the budget ran out, such as a ContinuedFraction or a
    list of hits.  It is never an Enclosure: a theta spec returns the
    enclosure its data supports, and only the callers that need more raise.
    """

    def __init__(self, message, last_certified=None, partial=None):
        super().__init__(message)
        self.last_certified = last_certified
        self.partial = partial


class ResourceLimit(RuntimeError):
    """Raised when a requested computation exceeds a memory/time budget."""

    def __init__(self, message, suggested_cap=None):
        super().__init__(message)
        self.suggested_cap = suggested_cap


class ConstructionInfeasible(RuntimeError):
    """Raised when a number construction cannot meet its target (e.g. the
    growth function is too slow for a Jarnik-style construction)."""


class PsiParseError(ValueError):
    """Malformed growth-function expression; `position` is the offset of the
    offending token in the input string."""

    def __init__(self, message, position=0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ThetaParseError(ValueError):
    """Malformed theta expression; `position` as in PsiParseError."""

    def __init__(self, message, position=0):
        super().__init__(f"{message} (at position {position})")
        self.position = position
