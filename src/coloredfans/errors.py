"""Exception types shared across the toolkit."""


class InputFileError(Exception):
    """Base for problems with user-supplied files or arguments (CLI exit code 2)."""


class SchemaError(InputFileError):
    """A file does not match the documented schema."""


class SemanticError(InputFileError):
    """A file parses but violates a structural invariant (named in the message)."""


class UnknownColorError(ValueError):
    """A color label does not belong to the ambient datum."""


class InvalidColoredConeError(ValueError):
    """A colored cone failed axiom validation where a validated one is required."""


class InvalidFanError(ValueError):
    """A colored fan failed axiom validation where a validated one is required."""


class NotInvolutionError(ValueError):
    """The supplied automorphism matrix does not square to the identity."""


class ClosureCapError(ValueError):
    """Group closure exceeded the configured size cap."""


class DoubleDescriptionCapError(ValueError):
    """A double description tested more candidate ray pairs than its cap."""


class EliminationCapError(ValueError):
    """Fourier-Motzkin elimination was asked for more variables than its cap."""


class MonoidConeError(ValueError):
    """Cone construction violated a monoid-cone axiom (the axiom is named)."""
