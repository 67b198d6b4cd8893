"""Exception types shared across the package."""

from __future__ import annotations


class SylowLabError(Exception):
    """Base class for every package-specific error."""


class InvalidPermutation(SylowLabError):
    """A sequence of images is not a bijection, or generator degrees disagree."""


class ClosureExceedsCap(SylowLabError):
    """Generator closure discovered more elements than the construction cap."""


class NotAGroup(SylowLabError):
    """A multiplication table violates a group axiom.

    Carries the violated axiom name ("identity", "inverse" or
    "associativity") and a witness index tuple.
    """

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a group: {axiom} axiom fails at {witness}")


class EnumerationCapExceeded(SylowLabError):
    """Group order is above the subgroup or automorphism enumeration cap."""


class ParentMismatch(SylowLabError):
    """Two subgroup sets do not live in the same parent group."""


class NotNormal(SylowLabError):
    """A subgroup required to be normal is not."""


class NotAPGroup(SylowLabError):
    """Group order is not a power of the expected prime."""


class NotAPSubgroup(SylowLabError):
    """Subgroup order is not a power of the expected prime."""


class TrivialSubgroup(SylowLabError):
    """A nontrivial subgroup was required."""


class NotCoprime(SylowLabError):
    """Two integers required to be coprime are not."""


class OrderMismatch(SylowLabError):
    """An element's order does not match the requested factorization."""


class PrimeDoesNotDivideOrder(SylowLabError):
    """The prime p does not divide the group order."""


class PrimePowerDoesNotDivideOrder(SylowLabError):
    """The prime power p^k does not divide the group order."""


class ParseError(SylowLabError):
    """Group-spec text failed to parse.

    Carries the byte offset and the set of tokens that were expected there.
    """

    def __init__(self, text: str, position: int, expected: set[str]):
        self.position = position
        self.expected = sorted(expected)
        shown = ", ".join(self.expected)
        super().__init__(f"parse error at offset {position} in {text!r}: expected {shown}")


class ValidationError(SylowLabError):
    """Group-spec parsed but its parameters are invalid for the kind."""
