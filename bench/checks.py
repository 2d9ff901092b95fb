"""What a workload hands the runner: operations and their output checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class CheckFailure(Exception):
    """An output disagrees with the reference or a property the method
    guarantees; the run stops without a result."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def gword(tb, n: int, letters):
    """tribraid's word for a tuple of sorted triples."""
    return tb.GWord(n, tuple(tb.GenTriple(n, t) for t in letters))


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    `run` makes the timed calls into tribraid and returns their outputs;
    `check` verifies them untimed and returns True only when the operation
    hit the workload's named fault (a counted failure).  `units` is the
    work the operation represents for the per-kind rate (letters, rows or
    simply 1).
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    units: float = 1
