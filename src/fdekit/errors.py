"""Exception hierarchy shared by all fdekit modules."""


class FdekitError(Exception):
    """Base class for all errors raised by fdekit."""


class InvalidInputError(FdekitError, ValueError):
    """A matrix, signature or definability query is malformed; also a
    `ValueError`."""


class ParseError(FdekitError):
    """Concrete-syntax error, with a 0-based character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownConnectiveError(ParseError):
    """A connective keyword was used that is absent from the signature."""


class ArityMismatchError(FdekitError):
    """An application does not match the connective's declared arity."""


class UnboundVariableError(FdekitError):
    """Evaluation hit a variable outside the assignment's domain."""


class SignatureMismatchError(FdekitError):
    """A formula mentions a connective the matrix does not interpret."""


class NotClosedError(FdekitError):
    """A carrier subset is not closed under some table; names the entry."""


class DegenerateDesignatedError(FdekitError):
    """Restriction would leave an empty or full designated set."""


class DuplicateConnectiveError(FdekitError):
    """Expansion would overwrite an existing connective."""


class ArityCapError(FdekitError):
    """Requested clone arity is outside 0..`matrix.MAX_CLONE_ARITY`."""


class NotSimpleError(FdekitError):
    """Operation requires a simple matrix and the given one is not."""


class NotBdExpansionError(FdekitError):
    """Operation requires an expansion of the four-valued base matrix."""


class NotCommonExpansionError(FdekitError):
    """The supposed common expansion does not expand both logics."""


class NotStronglyRegularError(FdekitError):
    """Encoding requires a strongly regular four-valued matrix."""


class IndexOutOfRangeError(FdekitError):
    """A family index is outside the valid range."""


class UnknownNameError(FdekitError):
    """An unrecognized connective, rule, law, or preset name."""
