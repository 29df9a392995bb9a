"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit codes):
ParseError for input text that cannot be understood, ValidationError for
well-formed input that violates an algebraic requirement.
"""

from __future__ import annotations


class SingquandleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SingquandleError):
    """Input text could not be parsed or resolved."""


class TermSyntaxError(ParseError):
    """Bad term syntax; carries the offset and what was expected."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownOperatorError(ParseError):
    """A call-style operator other than R1 or R2 appeared in a term."""


class UnknownLabelError(ParseError):
    """An element label does not belong to the structure."""


class DuplicatePortError(ParseError):
    """A semi-arc label used twice as input or twice as output."""


class DanglingArcError(ParseError):
    """A semi-arc label whose input and output uses do not pair up."""


class UnknownIdError(ParseError, KeyError):
    """Corpus lookup for an id that does not exist."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep the message readable
        return self.args[0] if self.args else ""


class ValidationError(SingquandleError):
    """Well-formed input that fails an algebraic requirement."""


class MalformedTableError(ValidationError):
    """Operation table with wrong shape or out-of-range entries."""


class ReportedError(ValidationError):
    """Validation failure carrying the full violation report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.describe())


class NotAQuandleError(ReportedError):
    """Star table breaks a quandle axiom."""


class NotASingquandleError(ReportedError):
    """Tables break one of the five singular compatibility identities."""


class ModulusMismatchError(ValidationError):
    """Formulas over different moduli combined into one structure."""


class FrontierTooLargeError(ValidationError):
    """A coloring search step whose frontier would exceed its memory bound."""


class NotInvertibleError(ValidationError):
    """Affine parameter t with gcd(t, n) != 1."""


class NotABijectionError(ValidationError):
    """Relabeling map that is not a permutation of the carrier."""


class NotASubsingquandleError(ValidationError):
    """Subset that is empty or not closed under the three operations."""


class UnboundGeneratorError(ParseError):
    """A presentation's relation uses a generator that it does not declare."""
