"""Exception types shared across the package.

A bad argument (an unmet hypothesis such as p dividing the order, or an
invalid spec parameter) raises a plain ValueError. The types here are
the refusals that carry data or name a different outcome.
"""

from __future__ import annotations


class SylowLabError(Exception):
    """Base class for every package-specific error."""


class ParseError(SylowLabError):
    """Group-spec text failed to parse.

    Carries the byte offset and the set of tokens that were expected there.
    """

    def __init__(self, text: str, position: int, expected: set[str]):
        self.position = position
        self.expected = sorted(expected)
        shown = ", ".join(self.expected)
        super().__init__(f"parse error at offset {position} in {text!r}: expected {shown}")


class NotAGroup(SylowLabError):
    """A multiplication table violates a group axiom.

    Carries the violated axiom name ("identity", "inverse" or
    "associativity") and a witness index tuple.
    """

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a group: {axiom} axiom fails at {witness}")


class ClosureExceedsCap(SylowLabError):
    """Generator closure discovered more elements than the construction cap."""


class EnumerationCapExceeded(SylowLabError):
    """Group order is above the subgroup or automorphism enumeration cap."""
