"""Exception hierarchy shared by all webflat modules.

Two families matter to the CLI: parse/usage problems (exit code 1) and
domain problems (exit code 2).  Every domain error has a stable name --
the class name -- which the CLI prints on stderr.
"""


class WebflatError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WebflatError):
    """A mathematically invalid request (CLI exit code 2)."""


class DivisionByZero(DomainError, ZeroDivisionError):
    pass


class FieldMismatch(DomainError):
    pass


class NotQuadratic(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


class DegreeTooLow(DomainError):
    pass


class DegenerateWeb(DomainError):
    pass


class DegreeExceeded(DomainError):
    pass


class SingularPoint(DomainError):
    pass


class InvariantViolated(DomainError):
    pass


class ZeroField(DomainError):
    pass


class NotSingular(DomainError):
    pass


class NonHomogeneous(DomainError):
    pass


class DegenerateParameter(DomainError):
    pass


# Invalid arguments to library calls.  Each keeps the builtin base that
# callers caught before it had a name.


class InvalidField(DomainError, ValueError):
    pass


class NotConstant(DomainError, ValueError):
    pass


class NegativePower(DomainError, ValueError):
    pass


class InexactDivision(DomainError, ValueError):
    pass


class SlopeIsBaseVariable(DomainError, ValueError):
    pass


class MissingValue(DomainError, KeyError):
    pass


class ReadOnlyAttribute(DomainError, AttributeError):
    pass


class ParseError(WebflatError):
    """Source text rejected by the expression grammar (CLI exit code 1).

    `offset` is the byte offset of the offending token; `expected` lists
    the token kinds that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


class UnknownVariable(ParseError):
    pass


class ThetaWithoutField(ParseError):
    pass


class UsageError(WebflatError):
    """Bad command line (CLI exit code 1)."""
