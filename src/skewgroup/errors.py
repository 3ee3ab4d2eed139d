"""Exception hierarchy.

Validation errors carry a short witness (offending indices or residual) so
reports can point at the exact failure.
"""


class SkewGroupError(Exception):
    """Base class for all library errors."""


class InvalidInput(SkewGroupError):
    pass


class ParseError(SkewGroupError):
    pass


class ValidationError(SkewGroupError):
    """Base for construction-time validation failures."""


class AssociativityViolation(ValidationError):
    pass


class UnitViolation(ValidationError):
    pass


class ClosureViolation(ValidationError):
    pass


class NotIdempotent(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class NoIdentity(ValidationError):
    pass


class NoInverse(ValidationError):
    pass


class NotHomomorphism(ValidationError):
    pass


class NotAutomorphism(ValidationError):
    pass


class NotASubgroup(ValidationError):
    pass


class NotARepresentation(ValidationError):
    pass


class AlgebraMismatch(ValidationError):
    pass


class NotSemisimple(SkewGroupError):
    pass


class NotSimple(SkewGroupError):
    pass


class NotProjective(SkewGroupError):
    pass


class CocycleMismatch(ValidationError):
    pass


class NumericalInconsistency(SkewGroupError):
    """Two independent computations of the same quantity disagree."""


class DegenerateSample(SkewGroupError):
    """A randomized sample failed a genericity requirement."""


class UnknownFixture(SkewGroupError):
    pass
