"""Constructive procedures on p-subgroups and coprime element decompositions.

sylow_chain builds a full tower p, p^2, ..., p^lambda by the class-equation
recursion, run on cosets inside the group's own table: A starts as the group
and N as 1. Each level takes the least a in A outside N with a^p in N whose
centralizer modulo N, {b in A : a^-1 b^-1 a b in N}, has full p-valuation,
adds the cosets Na, ..., Na^(p-1) to N and shrinks A to that centralizer.
In a p-group that holds exactly when Na is central in A/N, so the tower
without its top is a chief series.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .groups import ElementIndex, FiniteGroup, _check_element, power
from .numtheory import is_prime, prime_power_base, valuation
from .subgroups import SubgroupSet, is_normal


@dataclass(frozen=True)
class SylowChain:
    """Nested subgroups of orders p, p^2, ..., p^lambda."""

    prime: int
    chain: tuple[SubgroupSet, ...]

    @property
    def top(self) -> SubgroupSet:
        return self.chain[-1]


@dataclass(frozen=True)
class ChiefSeries:
    """Normal subgroups of orders p, ..., p^(lambda-1) inside a p-group."""

    series: tuple[SubgroupSet, ...]


@dataclass(frozen=True)
class CoprimeDecomposition:
    """An element split as a product of commuting parts of coprime orders."""

    a_part: ElementIndex
    b_part: ElementIndex
    a: int
    b: int
    alpha: int
    beta: int


def _chain_members(group: FiniteGroup, p: int, lam: int) -> list[np.ndarray]:
    """Membership vectors of a Sylow tower of group, orders p^1..p^lam."""
    table, inverse, powers = group.table, group.inverse, group.powers
    ambient = np.arange(group.order, dtype=np.int32)  # A, ascending
    inside = ambient == 0                              # N, as a membership vector
    members = []
    for _ in range(lam):
        for a in ambient[inside[powers[p, ambient]] & ~inside[ambient]]:  # Na of order p in A/N, least a first
            comm = table[table[table[inverse[a], inverse[ambient]], a], ambient]  # a^-1 b^-1 a b
            cent = ambient[inside[comm]]  # the preimage in A of Na's centralizer in A/N
            if valuation(cent.size, p) == lam:
                break
        else:  # impossible by the class-equation count of order-p cosets
            raise RuntimeError(f"no order-{p} element with full-valuation centralizer found")
        inside[table[np.flatnonzero(inside)[:, None], powers[1:p, a]]] = True  # Na, ..., Na^(p-1)
        members.append(inside.copy())
        ambient = cent
    return members


def _require_prime(group: FiniteGroup, p: int) -> None:
    if p <= group.order and not is_prime(p):  # a larger p cannot divide; no trial division
        raise ValueError(f"{p} is not prime")


def _require_prime_divides(group: FiniteGroup, p: int) -> None:
    _require_prime(group, p)
    if group.order % p != 0:
        raise ValueError(f"{p} does not divide {group.order}")


def sylow_chain(group: FiniteGroup, p: int) -> SylowChain:
    """A tower of p-subgroups of orders p, p^2, ..., up to a full Sylow p-subgroup."""
    _require_prime_divides(group, p)
    members = _chain_members(group, p, valuation(group.order, p))
    return SylowChain(prime=p, chain=tuple(SubgroupSet._of_vector(group, present) for present in members))


def chief_series(pgroup: FiniteGroup) -> ChiefSeries:
    """Normal subgroups of orders p..p^(lambda-1), each inside the next.

    In a p-group every level of the Sylow tower picks a central coset of
    order p, so the tower below its top is the series.
    """
    p = prime_power_base(pgroup.order)
    if p is None:
        raise ValueError(f"order {pgroup.order} is not a prime power")
    return ChiefSeries(series=sylow_chain(pgroup, p).chain[:-1])


def central_element_of_order_p(pgroup: FiniteGroup, n: SubgroupSet) -> ElementIndex:
    """An order-p element of N that is central in the whole p-group.

    Scans N in index order for its first central non-identity element (the
    class-equation argument guarantees one) and takes the power that
    reduces its order to exactly p.
    """
    p = prime_power_base(pgroup.order)
    if p is None:
        raise ValueError(f"order {pgroup.order} is not a prime power")
    if n.parent is not pgroup:
        raise ValueError("subgroup does not belong to the given group")
    if n.is_trivial():
        raise ValueError("need a nontrivial normal subgroup")
    if not is_normal(n):
        raise ValueError("subgroup is not normal in the parent")
    central = pgroup.central_mask()
    for x in n._arr:
        x = int(x)
        if x != 0 and central[x]:
            mu = valuation(int(pgroup.elem_order[x]), p)
            return power(pgroup, x, p ** (mu - 1))
    raise RuntimeError("normal subgroup misses the center; engine invariant broken")


def coprime_decomposition(group: FiniteGroup, c: ElementIndex, a: int, b: int) -> CoprimeDecomposition:
    """Split c of order a*b into commuting parts of orders a and b.

    With a x + b y = 1, the parts are c^(b y) and c^(a x); exponents are
    canonicalized so 0 <= beta < a*b. The decomposition is unique.
    """
    _check_element(group, c)
    if a < 1 or b < 1:
        raise ValueError("part orders must be positive")
    if gcd(a, b) != 1:
        raise ValueError(f"{a} and {b} are not coprime")
    ab = a * b
    if int(group.elem_order[c]) != ab:
        raise ValueError(f"element has order {int(group.elem_order[c])}, expected {a}*{b}={ab}")
    beta = (a * pow(a, -1, b)) % ab if ab > 1 else 0
    alpha = (1 - beta) % ab
    a_part = power(group, c, alpha)
    b_part = power(group, c, beta)
    if group.table[a_part, b_part] != c or group.table[a_part, b_part] != group.table[b_part, a_part]:
        raise RuntimeError("decomposition arithmetic broke; engine invariant violated")
    return CoprimeDecomposition(a_part=a_part, b_part=b_part, a=a, b=b, alpha=alpha, beta=beta)
