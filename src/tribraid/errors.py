"""Exception types shared across the package, the strand-count check and
how a message echoes a caller's value."""


class TribraidError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(TribraidError):
    """Operands built for different strand counts were combined."""


class InvalidN(TribraidError):
    """Strand count outside the supported range (n >= 4)."""


class BadTriple(TribraidError):
    """Strand or triple indices repeated or out of range, or a strand, word,
    letter or state of the wrong type."""


class InvalidMove(TribraidError):
    """A move that violates its applicability constraints."""


class UnsupportedN(TribraidError):
    """A census requested outside what it covers: an n outside the feasible
    range of its lemma, or a lemma that has no census."""


class WordParseError(TribraidError):
    """Malformed word text."""


class ProgramParseError(TribraidError):
    """A malformed motion program: its JSON, a coordinate's text or a part's type."""


class GenericityError(TribraidError):
    """A motion or configuration violates genericity: coincident points,
    collinear rest positions, a moving strand meeting a static one, or a
    full twist of strands off one circle about the origin."""


class NotClosed(TribraidError):
    """A program that must return home does not: the base of a power, a JSON
    document that says it is closed, or a `compile --check-closed` input."""


class ConstructionFailure(TribraidError):
    """A generator gadget found no valid motion: every shear is blocked."""


class NotRealisable(TribraidError):
    """An operation that requires a realisable word received one with bad
    letters."""


class AdjacencyViolation(TribraidError):
    """A ray swap between strands that are not adjacent in the running
    cyclic order."""


class InvalidBudget(TribraidError):
    """A budget is negative: a search's expansion depth or word length, or
    a sampled census's state count."""


class AboveCeiling(TribraidError):
    """A command-line size argument is above its documented ceiling, or a
    value a command computes has more digits than Python prints."""


def clip(value: object, spec: str = "") -> str:
    """`value` as a message echoes it: its repr, or its format under `spec`,
    cut to 40 characters; an int too long for Python to print shows its bit
    length."""
    try:
        text = format(value, spec) if spec else repr(value)
    except ValueError:  # Python prints no int of over 4,300 digits
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 40 else text[:40] + "..."


def check_n(n: object, error: type[TribraidError] = InvalidN) -> None:
    """Refuse a strand count that is not an int >= 4 (a bool is not one)."""
    if type(n) is not int or n < 4:
        raise error(f"strand count must be >= 4, got {clip(n)}")
