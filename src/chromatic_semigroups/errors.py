"""Exception types shared across the package."""


class SemigroupError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SemigroupError):
    """Operands live in different ambient dimensions."""


class NotPointedError(SemigroupError):
    """An operation that needs a pointed cone/semigroup received one with a line."""


class PointNotInConeError(SemigroupError):
    """The given point lies outside the cone of the semigroup."""


class NotPrimitiveError(SemigroupError):
    """A numerical-semigroup operation needs gcd 1 over the generators."""


class HypothesisUnmetError(SemigroupError):
    """A search whose success is only guaranteed under a hypothesis failed
    on an input that does not satisfy it."""


class CaseAssertionError(SemigroupError):
    """A family's case assertion is inconsistent with its members."""


class TheoremContractError(SemigroupError):
    """A computation contradicted an identity that must hold; this signals a
    bug (or a bad caller assertion), never a normal negative answer."""


class InstanceParseError(SemigroupError):
    """Instance document is not syntactically valid JSON."""


class InstanceValidationError(SemigroupError):
    """Instance document parsed but violates the schema."""
