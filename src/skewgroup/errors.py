"""Exception hierarchy.

Validation errors carry a short witness (offending indices or residual) so
reports can point at the exact failure.
"""

import reprlib

# The most characters of an offending value that a message quotes.
_REPR_LIMIT = 80
# repr for a value nested too deeply for the builtin one: each bound lies
# past the cut, so what survives the cut reads as the builtin repr would.
_DEEP = reprlib.Repr()
for _bound in ("maxlevel", "maxtuple", "maxlist", "maxdict", "maxset",
               "maxfrozenset"):
    setattr(_DEEP, _bound, _REPR_LIMIT)
_DEEP.maxstring = _DEEP.maxlong = _DEEP.maxother = 2 * _REPR_LIMIT + 3


def brief(value) -> str:
    """repr(value) for an error message to quote, cut to _REPR_LIMIT
    characters, the last three "...", when it is longer."""
    try:
        text = repr(value)
    except RecursionError:
        text = _DEEP.repr(value)
    return text if len(text) <= _REPR_LIMIT else text[:_REPR_LIMIT - 3] + "..."


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
