"""Subgroup-level machinery: closure, lattice enumeration, normality,
centralizers, quotients, conjugacy classes and automorphisms.

Subgroups are bitsets over the parent's element indices. All heavy scans
go through the parent's cached conjugation table, so a normality or
normalizer query is a single vectorized lookup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CAPS
from .errors import EnumerationCapExceeded, NotNormal, ParentMismatch
from .groups import ElementIndex, FiniteGroup
from .numtheory import prime_power_base


def _mask_of(arr: np.ndarray) -> int:
    mask = 0
    for i in arr:
        mask |= 1 << int(i)
    return mask


class ComplexSet:
    """An arbitrary subset of a group's elements (no closure requirement)."""

    __slots__ = ("parent", "_arr", "mask", "size")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        arr = np.unique(np.fromiter((int(m) for m in members), dtype=np.int32))
        if arr.size and (arr[0] < 0 or arr[-1] >= parent.order):
            raise ValueError("members out of range for parent group")
        self.parent = parent
        self._arr = arr
        self.mask = _mask_of(arr)
        self.size = int(arr.size)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self._arr)

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> int(x)) & 1)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"ComplexSet(size={self.size}, members={self.members})"


class SubgroupSet:
    """Membership bitset of a subgroup of a fixed parent group."""

    __slots__ = ("parent", "_arr", "mask", "size")

    def __init__(self, parent: FiniteGroup, members: Iterable[int], check: bool = True):
        arr = np.unique(np.fromiter((int(m) for m in members), dtype=np.int32))
        self.parent = parent
        self._arr = arr
        self.mask = _mask_of(arr)
        self.size = int(arr.size)
        if check:
            self._validate()

    def _validate(self) -> None:
        if self.size == 0 or self._arr[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")
        if self._arr[-1] >= self.parent.order:
            raise ValueError("members out of range for parent group")
        prods = self.parent.table[np.ix_(self._arr, self._arr)]
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[self._arr] = True
        if not inside[prods].all():
            raise ValueError("member set is not closed under the group product")

    @classmethod
    def _unchecked(cls, parent: FiniteGroup, arr: np.ndarray) -> "SubgroupSet":
        obj = object.__new__(cls)
        obj.parent = parent
        obj._arr = arr
        obj.mask = _mask_of(arr)
        obj.size = int(arr.size)
        return obj

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self._arr)

    def member_array(self) -> np.ndarray:
        return self._arr.copy()

    def is_trivial(self) -> bool:
        return self.size == 1

    def is_whole_group(self) -> bool:
        return self.size == self.parent.order

    def contains_subgroup(self, other: "SubgroupSet") -> bool:
        return (other.mask & ~self.mask) == 0

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> int(x)) & 1)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupSet)
            and self.parent is other.parent
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        shown = ",".join(str(i) for i in self._arr[:12])
        more = "..." if self.size > 12 else ""
        return f"SubgroupSet(order={self.size}, members=[{shown}{more}])"


def _require_same_parent(a, b) -> None:
    if a.parent is not b.parent:
        raise ParentMismatch("operands live in different parent groups")


def _closure_arr(group: FiniteGroup, seed: np.ndarray) -> np.ndarray:
    """Members of the subgroup generated by seed, as a sorted index array."""
    table = group.table
    present = np.zeros(group.order, dtype=bool)
    present[seed] = True
    present[0] = True
    members = np.flatnonzero(present).astype(np.int32)
    frontier = members
    while frontier.size:
        prods = np.concatenate(
            (table[np.ix_(frontier, members)].ravel(), table[np.ix_(members, frontier)].ravel())
        )
        new = np.unique(prods)
        new = new[~present[new]]
        if new.size == 0:
            break
        present[new] = True
        members = np.flatnonzero(present).astype(np.int32)
        frontier = new.astype(np.int32)
    return members


def _extend_subgroup(
    group: FiniteGroup, sub_arr: np.ndarray, gen_arr: np.ndarray, gen_closed: bool = False
) -> np.ndarray:
    """Closure of an already-closed subgroup plus extra generators."""
    table = group.table
    present = np.zeros(group.order, dtype=bool)
    present[sub_arr] = True
    frontier = gen_arr[~present[gen_arr]]
    if frontier.size == 0:
        return sub_arr
    if group.is_abelian():
        # HK is already a subgroup when everything commutes.
        karr = gen_arr if gen_closed else _closure_arr(group, gen_arr)
        return np.unique(table[np.ix_(sub_arr, karr)]).astype(np.int32)
    present[frontier] = True
    members = np.flatnonzero(present).astype(np.int32)
    while frontier.size:
        prods = np.concatenate(
            (table[np.ix_(frontier, members)].ravel(), table[np.ix_(members, frontier)].ravel())
        )
        new = np.unique(prods)
        new = new[~present[new]]
        if new.size == 0:
            break
        present[new] = True
        members = np.flatnonzero(present).astype(np.int32)
        frontier = new.astype(np.int32)
    return members


def closure_of(s: ComplexSet) -> SubgroupSet:
    """Smallest subgroup containing the given complex (empty gives trivial)."""
    return SubgroupSet._unchecked(s.parent, _closure_arr(s.parent, s._arr))


def trivial_subgroup(group: FiniteGroup) -> SubgroupSet:
    return SubgroupSet._unchecked(group, np.zeros(1, dtype=np.int32))


def whole_group(group: FiniteGroup) -> SubgroupSet:
    return SubgroupSet._unchecked(group, np.arange(group.order, dtype=np.int32))


def generated_subgroup(group: FiniteGroup, gens: Iterable[int]) -> SubgroupSet:
    """Subgroup generated by the given element indices."""
    arr = np.unique(np.fromiter((int(g) for g in gens), dtype=np.int32))
    return SubgroupSet._unchecked(group, _closure_arr(group, arr))


def cyclic_subgroup(group: FiniteGroup, x: ElementIndex) -> SubgroupSet:
    """The powers of one element."""
    table = group.table
    members = [0]
    cur = int(x)
    while cur != 0:
        members.append(cur)
        cur = int(table[cur, x])
    return SubgroupSet._unchecked(group, np.array(sorted(members), dtype=np.int32))


def _prime_power_cyclics(group: FiniteGroup) -> list[tuple[int, np.ndarray, int]]:
    """One (generator, member array, mask) per cyclic subgroup of prime-power order.

    Every subgroup is reachable from a chain of one-element extensions by
    prime-power-order elements, so these are the only extension candidates
    the lattice enumeration needs.
    """
    cached = group._cache.get("pp_cyclics")
    if cached is not None:
        return cached
    out: list[tuple[int, np.ndarray, int]] = []
    seen: set[int] = set()
    orders = group.elem_order
    for g in range(1, group.order):
        if prime_power_base(int(orders[g])) is None:
            continue
        sub = cyclic_subgroup(group, g)
        if sub.mask not in seen:
            seen.add(sub.mask)
            out.append((g, sub._arr, sub.mask))
    group._cache["pp_cyclics"] = out
    return out


def _require_lattice_cap(order: int, cap: int | None) -> None:
    cap = DEFAULT_CAPS.subgroups if cap is None else cap
    if order > cap:
        raise EnumerationCapExceeded(
            f"group order {order} exceeds the subgroup enumeration cap {cap}"
        )


def all_subgroups(group: FiniteGroup, cap: int | None = None) -> list[SubgroupSet]:
    """Every subgroup exactly once, sorted by (order, member list).

    Cyclic extension on conjugacy-class representatives (Neubueser's
    method; Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005). Only one subgroup per conjugacy class is queued, and it
    is grown by every cyclic prime-power subgroup not yet inside it. When
    an extension finds a new subgroup, its whole conjugation orbit joins
    the result, deduplicated on the membership bitset, but only that one
    subgroup is queued. So the found set is always a union of whole
    classes with one queued representative each.

    Nothing is missed: every subgroup L > 1 is <M, C> for a proper
    subgroup M and a cyclic prime-power C, and if M^t is the queued
    representative of M's class then extending it by C^t gives L^t,
    because <M, C>^t = <M^t, C^t>. In an abelian group every class is a
    single subgroup, so the orbit step is skipped.
    """
    _require_lattice_cap(group.order, cap)
    cached = group._cache.get("subgroups")
    if cached is None:
        conj = None if group.is_abelian() else group.conj_table()
        trivial = np.zeros(1, dtype=np.int32)
        found: dict[int, np.ndarray] = {1: trivial}
        work: deque[tuple[int, np.ndarray]] = deque([(1, trivial)])
        candidates = _prime_power_cyclics(group)
        while work:
            hmask, harr = work.popleft()
            for _, carr, cmask in candidates:
                if cmask & hmask == cmask:
                    continue
                karr = _extend_subgroup(group, harr, carr, gen_closed=True)
                kmask = _mask_of(karr)
                if kmask in found:
                    continue
                found[kmask] = karr
                if conj is not None:
                    for row in np.unique(np.sort(conj[:, karr], axis=1), axis=0):
                        found.setdefault(_mask_of(row), row)
                if karr.size < group.order:
                    work.append((kmask, karr))
        subs = [SubgroupSet._unchecked(group, arr) for arr in found.values()]
        subs.sort(key=lambda s: (s.size, s.members))
        cached = subs
        group._cache["subgroups"] = cached
    return list(cached)


def subgroups_of_order(group: FiniteGroup, m: int, cap: int | None = None) -> list[SubgroupSet]:
    """The subgroups of one given order, in enumeration order."""
    return [s for s in all_subgroups(group, cap) if s.size == m]


def is_normal(a: SubgroupSet) -> bool:
    """True iff t^-1 A t = A for every t in the parent."""
    conj = a.parent.conj_table()
    inside = np.zeros(a.parent.order, dtype=bool)
    inside[a._arr] = True
    return bool(inside[conj[:, a._arr]].all())


def is_normal_within(a: SubgroupSet, ambient: SubgroupSet) -> bool:
    """True iff every element of ambient conjugates A to itself."""
    _require_same_parent(a, ambient)
    conj = a.parent.conj_table()
    inside = np.zeros(a.parent.order, dtype=bool)
    inside[a._arr] = True
    return bool(inside[conj[np.ix_(ambient._arr, a._arr)]].all())


def normalizer(a: SubgroupSet) -> SubgroupSet:
    """All t with t^-1 A t = A; a subgroup containing A."""
    conj = a.parent.conj_table()
    inside = np.zeros(a.parent.order, dtype=bool)
    inside[a._arr] = True
    rows = inside[conj[:, a._arr]].all(axis=1)
    return SubgroupSet._unchecked(a.parent, np.flatnonzero(rows).astype(np.int32))


def centralizer(group: FiniteGroup, x: ElementIndex) -> SubgroupSet:
    """All t with t x = x t."""
    rows = group.table[:, x] == group.table[x, :]
    return SubgroupSet._unchecked(group, np.flatnonzero(rows).astype(np.int32))


def center(group: FiniteGroup) -> SubgroupSet:
    """Elements commuting with the whole group."""
    rows = (group.table == group.table.T).all(axis=1)
    return SubgroupSet._unchecked(group, np.flatnonzero(rows).astype(np.int32))


@dataclass(frozen=True)
class ConjugacyClassPartition:
    """Partition of element indices into conjugacy classes.

    class_of[x] is the class id of x; representatives[c] is the smallest
    element index inside class c, and classes are numbered by increasing
    representative.
    """

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    class_sizes: tuple[int, ...]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.representatives]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return out


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassPartition:
    """Orbits of the conjugation action, smallest element as representative."""
    conj = group.conj_table()
    h = group.order
    class_of = np.full(h, -1, dtype=np.int64)
    reps: list[int] = []
    sizes: list[int] = []
    for x in range(h):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(conj[:, x])
        class_of[orbit] = len(reps)
        reps.append(x)
        sizes.append(int(orbit.size))
    return ConjugacyClassPartition(
        class_of=tuple(int(c) for c in class_of),
        representatives=tuple(reps),
        class_sizes=tuple(sizes),
    )


def intersect(a: SubgroupSet, b: SubgroupSet) -> SubgroupSet:
    """Set intersection, automatically a subgroup."""
    _require_same_parent(a, b)
    arr = np.intersect1d(a._arr, b._arr).astype(np.int32)
    return SubgroupSet._unchecked(a.parent, arr)


def join(a: SubgroupSet, b: SubgroupSet) -> SubgroupSet:
    """Subgroup generated by the union."""
    _require_same_parent(a, b)
    return SubgroupSet._unchecked(a.parent, _extend_subgroup(a.parent, a._arr, b._arr, gen_closed=True))


def conjugate_subgroup(a: SubgroupSet, t: ElementIndex) -> SubgroupSet:
    """t^-1 A t."""
    conj = a.parent.conj_table()
    arr = np.sort(conj[t, a._arr]).astype(np.int32)
    return SubgroupSet._unchecked(a.parent, arr)


@dataclass(frozen=True)
class Quotient:
    """Quotient group with its coset bookkeeping.

    to_coset maps a parent element index to its coset index; section maps
    a coset index back to its minimal representative element.
    """

    group: FiniteGroup
    to_coset: np.ndarray
    section: np.ndarray


def quotient(group: FiniteGroup, n: SubgroupSet) -> Quotient:
    """Group of cosets of a normal subgroup.

    Cosets are indexed by increasing minimal representative, so coset 0 is
    N itself and the quotient's identity.
    """
    if n.parent is not group:
        raise ParentMismatch("subgroup does not belong to the given group")
    if not is_normal(n):
        raise NotNormal("quotient requires a normal subgroup")
    table = group.table
    rep = table[n._arr].min(axis=0)                # rep[x] = min of the coset N x
    section = np.unique(rep).astype(np.int32)      # sorted minimal representatives
    lookup = np.full(group.order, -1, dtype=np.int32)
    lookup[section] = np.arange(section.size, dtype=np.int32)
    to_coset = lookup[rep]
    qtable = to_coset[table[np.ix_(section, section)]]
    names = None
    if group.element_names is not None:
        names = [f"[{group.element_names[int(r)]}]" for r in section]
    qgroup = FiniteGroup(qtable, label=f"{group.label}/N{n.size}", element_names=names)
    to_coset = to_coset.astype(np.int32)
    to_coset.flags.writeable = False
    section.flags.writeable = False
    return Quotient(group=qgroup, to_coset=to_coset, section=section)


def as_group(a: SubgroupSet) -> tuple[FiniteGroup, np.ndarray]:
    """Reindex a subgroup as a standalone group.

    Returns the group and the embedding array mapping its element indices
    back to parent indices (ascending, so identity stays at 0).
    """
    parent = a.parent
    pos = np.full(parent.order, -1, dtype=np.int32)
    pos[a._arr] = np.arange(a.size, dtype=np.int32)
    table = pos[parent.table[np.ix_(a._arr, a._arr)]]
    names = None
    if parent.element_names is not None:
        names = [parent.element_names[int(i)] for i in a._arr]
    grp = FiniteGroup(table, label=f"{parent.label}|sub{a.size}", element_names=names)
    emb = a._arr.copy()
    emb.flags.writeable = False
    return grp, emb


def subgroups_within(a: SubgroupSet, cap: int | None = None) -> list[SubgroupSet]:
    """Subgroups of A, returned as subgroup sets of A's parent.

    Filters the parent's lattice when it is already cached; otherwise
    enumerates A as a standalone group. Both give the same order, because
    the embedding is ascending.
    """
    lattice = a.parent._cache.get("subgroups")
    if lattice is not None:
        _require_lattice_cap(a.size, cap)
        return [s for s in lattice if a.contains_subgroup(s)]
    grp, emb = as_group(a)
    return [
        SubgroupSet._unchecked(a.parent, np.sort(emb[s._arr]).astype(np.int32))
        for s in all_subgroups(grp, cap)
    ]


def subgroup_conjugacy_classes(
    subs: Sequence[SubgroupSet], acting: SubgroupSet | None = None
) -> list[list[int]]:
    """Orbits of conjugation on the given subgroup list.

    Returns positions into subs, one list per orbit, orbits ordered by
    first occurrence. acting restricts the conjugating elements to a
    subgroup (defaults to the whole parent).
    """
    if not subs:
        return []
    parent = subs[0].parent
    for s in subs:
        _require_same_parent(s, subs[0])
    if acting is not None:
        _require_same_parent(acting, subs[0])
    actors = acting._arr if acting is not None else np.arange(parent.order, dtype=np.int32)
    conj = parent.conj_table()
    by_mask = {s.mask: i for i, s in enumerate(subs)}
    assigned = [False] * len(subs)
    orbits: list[list[int]] = []
    for i, s in enumerate(subs):
        if assigned[i]:
            continue
        images = np.sort(conj[np.ix_(actors, s._arr)], axis=1)
        orbit_positions = set()
        for row in np.unique(images, axis=0):
            pos = by_mask.get(_mask_of(row))
            if pos is not None:
                orbit_positions.add(pos)
        orbit = sorted(orbit_positions)
        for p in orbit:
            assigned[p] = True
        orbits.append(orbit)
    return orbits


def _generating_sequence(group: FiniteGroup) -> list[int]:
    """Greedy smallest-index generator chain covering the whole group."""
    gens: list[int] = []
    current = np.zeros(1, dtype=np.int32)
    present = np.zeros(group.order, dtype=bool)
    present[0] = True
    while current.size < group.order:
        g = int(np.argmin(present))
        gens.append(g)
        current = _extend_subgroup(group, current, np.array([g], dtype=np.int32))
        present[:] = False
        present[current] = True
    return gens


def automorphisms(group: FiniteGroup, cap: int | None = None) -> list[tuple[int, ...]]:
    """All product-preserving element bijections, by generator-image backtracking."""
    cap = DEFAULT_CAPS.automorphisms if cap is None else cap
    if group.order > cap:
        raise EnumerationCapExceeded(
            f"group order {group.order} exceeds the automorphism cap {cap}"
        )
    cached = group._cache.get("automorphisms")
    if cached is not None:
        return list(cached)
    h = group.order
    if h == 1:
        result = [(0,)]
        group._cache["automorphisms"] = result
        return list(result)
    gens = _generating_sequence(group)
    table = group.table
    orders = group.elem_order
    candidates = [np.flatnonzero(orders == orders[g]).astype(np.int32) for g in gens]

    found: list[tuple[int, ...]] = []

    def extend(phi: np.ndarray, used: int, level: int) -> int | None:
        """Propagate phi over the next closure layer; None on conflict."""
        done = np.zeros(h, dtype=bool)
        done[0] = True
        queue = deque([0])
        gen_idx = gens[: level + 1]
        while queue:
            x = queue.popleft()
            for g in gen_idx:
                z = int(table[x, g])
                pz = int(table[phi[x], phi[g]])
                if phi[z] == -1:
                    if (used >> pz) & 1:
                        return None
                    phi[z] = pz
                    used |= 1 << pz
                elif phi[z] != pz:
                    return None
                if not done[z]:
                    done[z] = True
                    queue.append(z)
        return used

    def search(level: int, phi: np.ndarray, used: int) -> None:
        if level == len(gens):
            found.append(tuple(int(v) for v in phi))
            return
        g = gens[level]
        for y in candidates[level]:
            y = int(y)
            if (used >> y) & 1:
                continue
            phi2 = phi.copy()
            phi2[g] = y
            used2 = extend(phi2, used | (1 << y), level)
            if used2 is not None:
                search(level + 1, phi2, used2)

    phi0 = np.full(h, -1, dtype=np.int32)
    phi0[0] = 0
    search(0, phi0, 1)
    found.sort()
    group._cache["automorphisms"] = found
    return list(found)


def is_characteristic(a: SubgroupSet, cap: int | None = None) -> bool:
    """True iff every automorphism of the parent maps A onto itself."""
    target = a.members
    for phi in automorphisms(a.parent, cap):
        image = tuple(sorted(phi[i] for i in a._arr))
        if image != target:
            return False
    return True


def is_cyclic(group: FiniteGroup) -> bool:
    """True iff some element has order equal to the group order."""
    return bool((group.elem_order == group.order).any())
