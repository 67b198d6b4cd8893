"""Finite groups as dense multiplication tables over 0-based element indices.

A group of order h is an h x h numpy table plus derived arrays (inverse,
element orders, and the power table powers[k, x] = x^k for k up to the
largest element order). Element 0 is always the identity. A product of
permutation generators reads left to right: a b means "apply a, then b".
Conjugation is t^-1 x t throughout.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import DEFAULT_CAPS
from .errors import ClosureExceedsCap, NotAGroup

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
                raise ValueError(f"images {imgs} are not a bijection on 0..{n - 1}")
            seen[v] = True
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

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
    orders. element_names may be given as a function that makes them; it
    runs on the first read of the attribute, and must not refer to the
    group it builds, so that the group is freed with its last reference.
    """

    def __init__(
        self,
        table: np.ndarray,
        *,
        label: str | None = None,
        element_names: Sequence[str] | Callable[[], Sequence[str]] | None = None,
    ):
        table = np.ascontiguousarray(table, dtype=np.int32)
        h = table.shape[0]
        if table.ndim != 2 or table.shape[1] != h:
            raise ValueError(f"table must be square, got shape {table.shape}")
        self.order: int = h
        self.table = table
        self.inverse = _inverse(table)
        self.powers, self.elem_order = _power_table(table)
        self.label = label if label is not None else f"group{h}"
        self._names = element_names
        self.table.flags.writeable = False
        self.inverse.flags.writeable = False
        self.powers.flags.writeable = False
        self.elem_order.flags.writeable = False
        self._cache: dict = {}

    @cached_property
    def element_names(self) -> tuple[str, ...] | None:
        """Each element's name, or None; made on first read, which drops the function that made them."""
        names = self.__dict__.pop("_names")
        names = names() if callable(names) else names
        return None if names is None else tuple(names)

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


def _inverse(table: np.ndarray) -> np.ndarray:
    """inverse[x], once the identity axiom (element 0) and then the inverse axiom hold; NotAGroup with a witness otherwise."""
    rng = np.arange(table.shape[0], dtype=np.int32)
    for line in (table[0], table[:, 0]):
        if not np.array_equal(line, rng):
            raise NotAGroup("identity", (int(np.argmax(line != rng)),))
    has_inv = (table == 0).any(axis=1)
    if not has_inv.all():
        raise NotAGroup("inverse", (int(np.argmin(has_inv)),))
    return np.argmax(table == 0, axis=1).astype(np.int32)


def _power_table(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(powers, orders): powers[k, x] = x^k for k = 0..m, m the largest element order, and the order of each x.

    Built by doubling: with rows 0..k known, rows k+1..2k are x^k x^j for
    j = 1..k, one gather per step, until every x has met the identity.
    That needs an associative table, which group_from_table checks first.
    """
    h = table.shape[0]
    flat = table.ravel()
    powers = np.zeros((2, h), dtype=np.int32)
    powers[1] = np.arange(h)
    met = powers[1] == 0
    k = 1
    while not met.all():
        if k >= h:  # unreachable for a group table, where every order divides h; guards bad input
            raise NotAGroup("inverse", (int(np.argmin(met)),))
        doubled = flat.take(powers[k] * h + powers[1:])  # doubled[j - 1, x] = x^k x^j = x^(k+j)
        met |= (doubled == 0).any(axis=0)
        powers = np.concatenate((powers, doubled))
        k *= 2
    orders = np.argmax(powers[1:] == 0, axis=0).astype(np.int32) + 1
    return powers[:orders.max() + 1], orders


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

    A table above the construction cap is rejected. The identity and
    inverse axioms are checked first, then associativity, exhaustively.
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
    arr = arr.astype(np.int32)
    _inverse(arr)
    _check_associativity(arr)  # before the power table, which is built by doubling
    return FiniteGroup(arr, label=label)


def group_from_generators(
    gens: Sequence[Permutation],
    cap: int | None = None,
    label: str | None = None,
) -> FiniteGroup:
    """Close a generator list under composition into a concrete group.

    Element 0 is the identity; the rest are indexed in breadth-first
    discovery order, right-multiplying by the generators in the given
    order, which makes the numbering reproducible. The closure is the
    orbit algorithm (Butler, Fundamental Algorithms for Permutation
    Groups, 1991; Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, 4.1) run one level at a time: a level's products in
    (element, generator) order are new elements in the order they are
    first met, exactly as one product at a time would meet them.
    """
    cap = DEFAULT_CAPS.construction if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be at least 1")
    degree = gens[0].degree if gens else 1
    for g in gens:
        if not isinstance(g, Permutation):
            raise ValueError(f"generator {g!r} is not a Permutation")
        if g.degree != degree:
            raise ValueError("generators must share one degree")
    if not gens or degree == 0:
        return FiniteGroup(np.zeros((1, 1), dtype=np.int32), label=label, element_names=["e"])

    n = len(gens)
    images = np.array([g.images for g in gens], dtype=np.min_scalar_type(degree - 1))
    each = np.arange(n)[:, None]
    frontier = np.arange(degree, dtype=images.dtype)[None, :]
    index = {frontier.tobytes(): 0}        # an element's images, as bytes -> its index
    levels, right, sources = [frontier], [], []
    while frontier.size:                   # one breadth-first level at a time
        known = len(index)
        prods = images[each, frontier[:, None]].reshape(-1, degree)  # element i, then generator k, in (i, k) order
        keys = prods.view(f"V{prods.itemsize * degree}").ravel().tolist()
        found = np.array([index.setdefault(key, len(index)) for key in keys])
        if len(index) > cap:
            raise ClosureExceedsCap(f"closure of generators exceeds cap {cap}")
        new = found >= known
        source = np.empty(len(index) - known, dtype=np.intp)
        source[found[new] - known] = np.flatnonzero(new)  # source[j]: a product that gave new element known + j
        right.append(found)
        sources.append(source)
        frontier = prods[source]
        levels.append(frontier)

    right_arr = np.concatenate(right).reshape(-1, n)  # right_arr[a, k]: element a, then generator k
    h = len(index)
    table = np.empty((h, h), dtype=np.int32)
    table[:, 0] = np.arange(h, dtype=np.int32)
    lo = 0                                 # the first index of the level that gave the next one
    for level, source in zip(levels, sources):
        a, k = np.divmod(source, n)
        hi = lo + len(level)
        table[:, hi:hi + source.size] = right_arr[table[:, lo + a], k]  # x (a g) = (x a) g
        lo = hi
    elems = np.concatenate(levels)
    return FiniteGroup(table, label=label, element_names=lambda: [Permutation(row).cycle_string() for row in elems.tolist()])


def _check_element(group: FiniteGroup, x: ElementIndex) -> None:
    """ValueError unless x is an element index of the group: an integer, not a bool, a float or a string, in [0, h)."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):  # numpy reads a bool index as a mask
        raise ValueError(f"element index {x!r} is not an integer")
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
