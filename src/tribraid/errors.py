"""Exception types shared across the package."""


class TribraidError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(TribraidError):
    """Operands built for different strand counts were combined."""


class InvalidN(TribraidError):
    """Strand count outside the supported range (n >= 4)."""


class BadTriple(TribraidError):
    """Strand or triple indices repeated or out of range."""


class InvalidMove(TribraidError):
    """A move that violates its applicability constraints."""


class UnsupportedN(TribraidError):
    """A census requested outside what it covers: an n outside the feasible
    range of its lemma, or a lemma that has no census."""


class WordParseError(TribraidError):
    """Malformed word text."""


class ProgramParseError(TribraidError):
    """Malformed motion-program JSON."""


class GenericityError(TribraidError):
    """A motion or configuration violates genericity: coincident points,
    collinear rest positions, a moving strand meeting a static one, or a
    full twist of strands off one circle about the origin."""


class NotClosed(TribraidError):
    """A program marked closed does not return to its initial configuration."""


class ConstructionFailure(TribraidError):
    """A deterministic constructor found no valid motion: every shear of a
    generator gadget is blocked, or a seeded random program ran out of
    draws."""


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
    """A command-line size argument is above its documented ceiling."""
