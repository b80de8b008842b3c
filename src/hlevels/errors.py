"""Exception types shared across the package."""


class HlevelsError(Exception):
    """Base class for all computational errors raised by this package."""


class SupercriticalCharge(HlevelsError):
    """Z*alpha exceeds the angular-momentum bound; the level ceases to exist."""


class NoBoundRegion(HlevelsError):
    """The radial radicand is nowhere positive: no classically allowed region."""


class QuadratureFailure(HlevelsError):
    """Adaptive quadrature did not reach the requested accuracy."""


class IllConditionedBasis(HlevelsError):
    """Variational basis overlap matrix is numerically singular."""


class ParseError(HlevelsError):
    """Malformed input (state label or reference CSV line)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateState(HlevelsError):
    """The same quantum state appears twice in a reference dataset."""
