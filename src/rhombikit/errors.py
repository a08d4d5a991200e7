"""Exception types shared across the package."""


class RhombikitError(Exception):
    """Base class for all package errors."""


class ValidationError(RhombikitError):
    """An input violates a documented invariant (bad lattice position,
    empty configuration, malformed layout, ...)."""


class PairingError(RhombikitError):
    """Two face layouts brought into contact do not pair up magnet for
    magnet within tolerance."""


class UnsupportedSymmetry(ValidationError):
    """The docking scheme requires at least two-fold rotational face
    symmetry; raised for k < 2."""


class IllegalMove(RhombikitError):
    """A pivot move failed its legality check.

    Attributes
    ----------
    reason : kinematics.MoveLegality
        The specific failure.
    index : int or None
        Position of the offending move when replaying a move sequence.
    """

    def __init__(self, message, reason=None, index=None):
        super().__init__(message)
        self.reason = reason
        self.index = index


class ParseError(ValidationError):
    """A structure/plan/layout/trajectory file failed to parse.

    Carries enough location info (file, line or JSON field) to point the
    user at the offending spot; message is the text without them.
    """

    def __init__(self, message, source=None, location=None):
        detail = message
        if location is not None:
            detail = f"{location}: {message}"
        if source is not None:
            detail = f"{source}: {detail}"
        super().__init__(detail)
        self.message = message
        self.source = source
        self.location = location
