"""Exception types shared across the toolkit."""

from __future__ import annotations


class FdesError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FdesError):
    """A document is malformed: bad JSON, missing field, wrong type."""


class RangeError(ParseError):
    """A membership degree falls outside [0, 1]."""


class ShapeError(ParseError):
    """Vector/matrix dimensions are inconsistent with the declared states."""


class DimensionError(FdesError):
    """Operands of an algebra operation have incompatible dimensions."""


class UnknownEvent(FdesError):
    """A string refers to an event the automaton does not declare."""


class AlphabetMismatch(FdesError):
    """Two automata (or an automaton and an attribute map) disagree on events."""


class SemanticsMismatch(FdesError):
    """An operation requires a semantics the given automaton does not have."""


class NotCrisp(FdesError):
    """A crisp-only operation received a degree outside {0, 1}."""


class StringNotInLanguage(FdesError):
    """A crisp automaton cannot execute the given string."""


class MNotPrefixClosed(FdesError):
    """The bounding language passed to a lattice operation is not prefix-closed."""


class KNotContainedInM(FdesError):
    """The language passed to the infimal operation is not a sublanguage of the bound."""


class DepthExceeded(FdesError):
    """Enumeration failed to close within the depth bound.

    ``frontier`` holds the labels that were still producing new states when
    the bound was hit, so callers can report what was left open.
    """

    def __init__(self, depth: int, frontier: list):
        self.depth = depth
        self.frontier = frontier
        super().__init__(
            f"state enumeration did not close within depth {depth}; "
            f"{len(frontier)} label(s) still open"
        )
