"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A value violates one of the documented structural invariants."""


class InvariantViolation(Exception):
    """An internal consistency check failed: a fault in kzero, not bad input."""


class ParseError(ValueError):
    """Malformed job input (CLI flags or a JSON job document)."""


class BaseMismatch(ValidationError):
    """Two values that must live over the same base space do not."""


class NotAUnit(ValidationError):
    """Inversion was requested for a class whose rank is not +1 or -1."""


class RankConstraintViolation(ValidationError):
    """A bundle class has the wrong rank for its slot."""


class NonUnitConstantTerm(ValidationError):
    """Series inversion needs an invertible constant coefficient."""


class NegativeExponent(ValidationError):
    """A power-series operation received a Laurent polynomial with T^-k terms."""
