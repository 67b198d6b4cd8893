"""Finite groups as dense multiplication tables over 0-based element indices.

A group of order h is an h x h numpy table plus derived arrays (inverse,
element orders, and the power table powers[k, x] = x^k for k up to the
largest element order). Element 0 is always the identity. Permutation
composition reads left to right: compose(a, b) means "apply a, then b".
Conjugation is t^-1 x t throughout.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CAPS
from .errors import ClosureExceedsCap, InvalidPermutation, NotAGroup

# Element indices are plain ints in [0, h); kept as an alias for signatures.
ElementIndex = int

_ASSOC_CHUNK = 32  # rows of the h^3 associativity tensor checked per step


class Permutation:
    """Bijection on points 0..degree-1, the construction-time form of generators."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(v) for v in images)
        n = len(imgs)
        seen = [False] * n
        for v in imgs:
            if v < 0 or v >= n or seen[v]:
                raise InvalidPermutation(f"images {imgs} are not a bijection on 0..{n - 1}")
            seen[v] = True
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def compose(self, other: "Permutation") -> "Permutation":
        """Apply self, then other."""
        if other.degree != self.degree:
            raise InvalidPermutation("cannot compose permutations of different degree")
        return Permutation(other.images[v] for v in self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 0-based points, each starting at its smallest point."""
        out = []
        done = [False] * self.degree
        for start in range(self.degree):
            if done[start] or self.images[start] == start:
                done[start] = True
                continue
            cyc = []
            p = start
            while not done[p]:
                done[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation; the identity renders as "e"."""
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


class FiniteGroup:
    """Immutable finite group given by its full multiplication table.

    Construct through group_from_table, group_from_generators or
    catalog.build; the constructor itself trusts the table to be
    associative and only derives inverses, the power table and element
    orders.
    """

    def __init__(
        self,
        table: np.ndarray,
        *,
        label: str | None = None,
        element_names: Sequence[str] | None = None,
        perms: Sequence[Permutation] | None = None,
    ):
        table = np.ascontiguousarray(table, dtype=np.int32)
        h = table.shape[0]
        if table.ndim != 2 or table.shape[1] != h:
            raise ValueError(f"table must be square, got shape {table.shape}")
        self.order: int = h
        self.table = table
        self.identity: ElementIndex = 0
        rng = np.arange(h, dtype=np.int32)
        if not (np.array_equal(table[0], rng) and np.array_equal(table[:, 0], rng)):
            bad = int(np.argmax(table[0] != rng)) if not np.array_equal(table[0], rng) else int(np.argmax(table[:, 0] != rng))
            raise NotAGroup("identity", (bad,))
        has_inv = (table == 0).any(axis=1)
        if not has_inv.all():
            raise NotAGroup("inverse", (int(np.argmin(has_inv)),))
        self.inverse = np.argmax(table == 0, axis=1).astype(np.int32)
        self.powers = _power_table(table)
        self.elem_order = np.argmax(self.powers[1:] == 0, axis=0).astype(np.int32) + 1
        self.label = label if label is not None else f"group{h}"
        self.element_names = tuple(element_names) if element_names is not None else None
        self.perms = tuple(perms) if perms is not None else None
        self.table.flags.writeable = False
        self.inverse.flags.writeable = False
        self.powers.flags.writeable = False
        self.elem_order.flags.writeable = False
        self._cache: dict = {}

    # -- element arithmetic --

    def mul(self, a: ElementIndex, b: ElementIndex) -> ElementIndex:
        return int(self.table[a, b])

    def inv(self, a: ElementIndex) -> ElementIndex:
        return int(self.inverse[a])

    def name_of(self, x: ElementIndex) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    # -- cached whole-group facts --

    def memo(self, key, compute):
        """The group's one cache: the value under key, made by compute() on a miss, ndarrays read-only."""
        if key not in self._cache:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]

    def conj_table(self) -> np.ndarray:
        """conj[t, a] = t^-1 a t, as an h x h array, computed on each call."""
        return conjugates(self, np.arange(self.order), np.arange(self.order))

    def central_mask(self) -> np.ndarray:
        """Boolean mask of the elements that commute with every element."""
        return (self.table == self.table.T).all(axis=1)

    def is_abelian(self) -> bool:
        return bool(self.central_mask().all())

    def exponent(self) -> int:
        """Least common multiple of all element orders."""
        return int(np.lcm.reduce(self.elem_order))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def _power_table(table: np.ndarray) -> np.ndarray:
    """powers[k, x] = x^k for k = 0..m, m the largest element order: rows until every x has met the identity."""
    h = table.shape[0]
    idx = np.arange(h, dtype=np.int32)
    rows = [np.zeros(h, dtype=np.int32), idx]
    met = idx == 0
    while not met.all():
        rows.append(table[rows[-1], idx])
        met |= rows[-1] == 0
        if len(rows) > h + 1:  # row h+1 reached: unreachable for a true group table; guards bad input
            raise NotAGroup("inverse", (int(np.argmin(met)),))
    return np.array(rows)


def _check_associativity(table: np.ndarray) -> None:
    """Exhaustive check of (ij)k = i(jk); raises with the first witness triple."""
    h = table.shape[0]
    for start in range(0, h, _ASSOC_CHUNK):
        rows = slice(start, min(start + _ASSOC_CHUNK, h))
        lhs = table[table[rows]]       # lhs[i, j, k] = (i*j)*k
        rhs = table[rows][:, table]    # rhs[i, j, k] = i*(j*k)
        bad = lhs != rhs
        if bad.any():
            i, j, k = np.argwhere(bad)[0]
            raise NotAGroup("associativity", (int(i) + start, int(j), int(k)))


def group_from_table(table: Sequence[Sequence[int]] | np.ndarray, cap: int | None = None, label: str | None = None) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    A table above the construction cap is rejected. The FiniteGroup
    constructor checks the identity and inverse axioms; associativity is
    then checked exhaustively.
    """
    cap = DEFAULT_CAPS.construction if cap is None else cap
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"table must be a nonempty square array, got shape {arr.shape}")
    h = arr.shape[0]
    if h > cap:
        raise ClosureExceedsCap(f"table order {h} exceeds construction cap {cap}")
    if arr.min() < 0 or arr.max() >= h:
        raise ValueError("table entries must lie in [0, h)")
    group = FiniteGroup(arr.astype(np.int32), label=label)
    _check_associativity(group.table)
    return group


def group_from_generators(
    gens: Sequence[Permutation],
    cap: int | None = None,
    label: str | None = None,
) -> FiniteGroup:
    """Close a generator list under composition into a concrete group.

    Element 0 is the identity; the rest are indexed in breadth-first
    discovery order, right-multiplying by the generators in the given
    order, which makes the numbering reproducible.
    """
    cap = DEFAULT_CAPS.construction if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not gens:
        return FiniteGroup(np.zeros((1, 1), dtype=np.int32), label=label,
                           element_names=["e"], perms=[Permutation.identity(1)])
    degree = gens[0].degree
    for g in gens:
        if not isinstance(g, Permutation):
            raise InvalidPermutation(f"generator {g!r} is not a Permutation")
        if g.degree != degree:
            raise InvalidPermutation("generators must share one degree")

    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    gen_images = [g.images for g in gens]
    right: list[int] = []                  # right[i * len(gens) + k]: element i, then generator k
    reached: list[tuple[int, int]] = []    # reached[b - 1]: the (i, k) that first gave b
    for i, cur in enumerate(elems):        # elems grows while it is walked
        for k, g in enumerate(gen_images):
            nxt = tuple(g[v] for v in cur)
            if nxt not in index:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure of generators exceeds cap {cap}")
                index[nxt] = len(elems)
                elems.append(nxt)
                reached.append((i, k))
            right.append(index[nxt])

    h = len(elems)
    right_arr = np.array(right, dtype=np.int32).reshape(h, len(gens))
    table = np.empty((h, h), dtype=np.int32)
    table[:, 0] = np.arange(h, dtype=np.int32)
    for b, (a, k) in enumerate(reached, start=1):
        table[:, b] = right_arr[table[:, a], k]  # x (a g) = (x a) g
    perms = [Permutation(row) for row in elems]
    names = [p.cycle_string() for p in perms]
    return FiniteGroup(table, label=label, element_names=names, perms=perms)


def _check_element(group: FiniteGroup, x: ElementIndex) -> None:
    """ValueError unless x is an element index of the group, in [0, h)."""
    if not 0 <= x < group.order:
        raise ValueError(f"element index {x} out of range for order {group.order}")


def element_order(group: FiniteGroup, x: ElementIndex) -> int:
    """Smallest m >= 1 with x^m equal to the identity; ValueError on an index out of range."""
    _check_element(group, x)
    return int(group.elem_order[x])


def power(group: FiniteGroup, x: ElementIndex, k: int) -> ElementIndex:
    """x^k for any integer k, reduced mod the element order; ValueError on an index out of range."""
    _check_element(group, x)
    return int(group.powers[k % int(group.elem_order[x]), x])


def conjugates(group: FiniteGroup, actors, members) -> np.ndarray:
    """t^-1 x t for every actor t (one row each) and member x (one column each): the one conjugation formula."""
    t = np.asarray(actors)[:, None]
    return group.table[group.table[group.inverse[t], members], t]


def conjugate(group: FiniteGroup, x: ElementIndex, t: ElementIndex) -> ElementIndex:
    """t^-1 x t; ValueError on an index out of range."""
    _check_element(group, x)
    _check_element(group, t)
    return int(conjugates(group, [t], [x])[0, 0])
