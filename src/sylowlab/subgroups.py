"""Subgroup-level machinery: closure, lattice enumeration, normality,
centralizers, quotients, conjugacy classes and automorphisms.

Subgroups are bitsets over the parent's element indices. Every conjugation
is groups.conjugates, gathered from the multiplication table for just the
acting elements and members it needs; nothing caches a conjugation table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_CAPS
from .errors import EnumerationCapExceeded
from .groups import ElementIndex, FiniteGroup, _check_element, conjugates
from .numtheory import prime_power_base


def _packed(vector: np.ndarray) -> int:
    """The bitset of a membership vector, bit i set where vector[i] is True, packed in one call at any length."""
    return int.from_bytes(np.packbits(vector, bitorder="little"), "little")


def _vector(indices, h: int) -> np.ndarray:
    """Boolean membership vector over h elements, True at each index given (repeats allowed)."""
    vector = np.zeros(h, dtype=bool)
    vector.put(indices, True)  # unlike vector[indices] = True, no slow path for int32 indices
    return vector


def subgroup_orbit(group: FiniteGroup, actors: np.ndarray, arr: np.ndarray) -> tuple[list[SubgroupSet], np.ndarray, np.ndarray]:
    """The distinct conjugates of the subgroup with members arr under actors, as (subs, first, which).

    Each conjugate is one row of an (actors x h) membership matrix, keyed
    by its packed bitset, the key of every subgroup. subs are in no
    particular order; actors[first[i]] gives subs[i], and actors[j] gives
    subs[which[j]].
    """
    conj = conjugates(group, actors, arr)
    present = np.zeros((len(conj), group.order), dtype=bool)
    present[np.arange(len(conj))[:, None], conj] = True
    keys = np.packbits(present, axis=1, bitorder="little")
    _, first, which = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True)
    return [SubgroupSet._of_vector(group, row) for row in present[first]], first, which


class ComplexSet:
    """An arbitrary subset of a group's elements (no closure requirement)."""

    __slots__ = ("parent", "_arr", "mask", "size")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self._store(parent, members)

    def _store(self, parent: FiniteGroup, members: Iterable[int]) -> np.ndarray:
        """Set the fields from integer members, deduplicated and sorted; returns their membership vector."""
        if not isinstance(members, np.ndarray):
            members = list(members)  # a member that is not an integer makes an object array, refused below
            members = np.array(members, dtype=np.int64 if all(isinstance(x, (int, np.integer)) for x in members) else object)
        if members.ndim != 1 or members.dtype.kind not in "iu":
            raise ValueError("members must be integer element indices")
        if members.size and (members.min() < 0 or members.max() >= parent.order):
            raise ValueError("members out of range for parent group")
        present = _vector(members, parent.order)
        self._fill(parent, present)
        return present

    @classmethod
    def _of_vector(cls, parent: FiniteGroup, present: np.ndarray) -> "ComplexSet":
        """The set of this class with the given membership vector, unchecked."""
        obj = object.__new__(cls)
        obj._fill(parent, present)
        return obj

    def _fill(self, parent: FiniteGroup, present: np.ndarray) -> None:
        """Set the fields from a membership vector."""
        self.parent = parent
        self._arr = present.nonzero()[0].astype(np.int32)
        self.mask = _packed(present)
        self.size = int(self._arr.size)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self._arr)

    def __contains__(self, x) -> bool:
        """True only for an integer index in [0, h) whose bit is set."""
        if not isinstance(x, (int, np.integer)) or x < 0:
            return False
        return bool((self.mask >> int(x)) & 1)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"ComplexSet(size={self.size}, members={self.members})"


class SubgroupSet(ComplexSet):
    """Membership bitset of a subgroup of a fixed parent group."""

    __slots__ = ()

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        present = self._store(parent, members)
        if not present[0]:
            raise ValueError("a subgroup must contain the identity (index 0)")
        if not present[parent.table[np.ix_(self._arr, self._arr)]].all():
            raise ValueError("member set is not closed under the group product")

    def is_trivial(self) -> bool:
        return self.size == 1

    def contains_subgroup(self, other: "SubgroupSet") -> bool:
        return (other.mask & ~self.mask) == 0

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


def _extend_subgroup(group: FiniteGroup, sub_arr: np.ndarray, gen_arr: np.ndarray) -> np.ndarray:
    """Membership vector of the closure of an already-closed subgroup H plus extra generators.

    Dimino-style growth by one irredundant generator at a time (Butler,
    Fundamental Algorithms for Permutation Groups, 1991; Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, 4.1). The right
    multipliers start as H's non-identity members. For each generator g
    not yet inside, g, g^2, g^4, ... join the multipliers (up to the
    identity or a repeat, so a cyclic piece of order m takes about log2 m
    levels), and the members are closed under right multiplication by
    the multipliers, one breadth-first level at a time, each level
    filtered through the boolean membership vector. This gives <H, g>:
    the identity is in H, and in a finite group g^-1 is a positive power
    of g, so products of multipliers reach every element.

    A subgroup of more than h/2 elements is the whole group (Lagrange), so
    the growth stops as soon as the elements known to lie in the closure
    pass h/2: H with the generators on entry, then the members after each
    level. An index-2 subgroup has exactly h/2, hence the strict bound.
    """
    h = group.order
    table = group.table
    present = _vector(sub_arr, h)
    outside = (_vector(gen_arr, h) & ~present).nonzero()[0]
    if outside.size == 0:
        return present
    count = sub_arr.size
    if 2 * (count + outside.size) > h:
        return np.ones(h, dtype=bool)
    multipliers = sub_arr[sub_arr != 0]
    members = sub_arr
    for g in outside:
        if present[g]:
            continue
        powers = [int(g)]
        square = int(table[g, g])
        while square != 0 and square not in powers:
            powers.append(square)
            square = int(table[square, square])
        multipliers = np.concatenate((multipliers, powers))
        prods = table[np.ix_(members, powers)].ravel()
        frontier = (_vector(prods, h) & ~present).nonzero()[0]
        while frontier.size:
            present[frontier] = True
            count += frontier.size
            if 2 * count > h:
                return np.ones(h, dtype=bool)
            prods = table[np.ix_(frontier, multipliers)].ravel()
            frontier = (_vector(prods, h) & ~present).nonzero()[0]
        members = present.nonzero()[0]
    return present


def closure_of(s: ComplexSet) -> SubgroupSet:
    """Smallest subgroup containing the given complex (empty gives trivial), memoised per complex."""
    return s.parent.memo(("closure", s.mask), lambda: SubgroupSet._of_vector(
        s.parent, _extend_subgroup(s.parent, np.zeros(1, dtype=np.int32), s._arr)))


def trivial_subgroup(group: FiniteGroup) -> SubgroupSet:
    return SubgroupSet._of_vector(group, _vector(0, group.order))


def whole_group(group: FiniteGroup) -> SubgroupSet:
    return SubgroupSet._of_vector(group, np.ones(group.order, dtype=bool))


def cyclic_subgroup(group: FiniteGroup, x: ElementIndex) -> SubgroupSet:
    """The powers of one element; ValueError on an index out of range."""
    _check_element(group, x)
    return SubgroupSet._of_vector(group, _vector(group.powers[:group.elem_order[x], x], group.order))


@dataclass(frozen=True, eq=False)
class Lattice:
    """Every subgroup of one group, with the structure the lattice checks read.

    subs is sorted by (order, member list); row i of each read-only array
    describes subs[i]. One order is one slice of sizes, of_order(m). index
    maps a bitset to its row; contains[i, j] says subs[i] contains subs[j].
    class_id numbers the conjugacy classes by first occurrence; normal is
    class_size == 1; normalizer_order is h / class_size (orbit-stabilizer),
    so conjugates share it. action[i, t] is the row of t^-1 subs[i] t, so
    the elements fixing row i make up N(subs[i]).
    """

    subs: tuple[SubgroupSet, ...]
    sizes: np.ndarray
    index: Mapping[int, int]
    contains: np.ndarray
    class_id: np.ndarray
    class_size: np.ndarray
    normal: np.ndarray
    normalizer_order: np.ndarray
    action: np.ndarray

    def of_order(self, m: int) -> slice:
        """The rows of the subgroups of order m."""
        lo, hi = self.sizes.searchsorted((m, m + 1)).tolist()
        return slice(lo, hi)


# The most subgroups a lattice may hold. elab:2^6, the largest lattice under
# the default caps, has 2825; at 4096 the n x n contains matrix is 16 MB, and
# the n x h int32 action table at most 8 MB for h up to 512.
MAX_LATTICE_SIZE = 4096


def lattice(group: FiniteGroup, cap: int | None = None) -> Lattice:
    """The group's subgroup lattice, built once and memoised under "subgroups".

    Extension on conjugacy-class representatives (Neubueser's method;
    Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    Only one subgroup per conjugacy class is queued. When an extension
    finds a new subgroup, its whole conjugation orbit joins the result,
    deduplicated on the membership bitset, but only that one subgroup is
    queued. So the found set is always a union of whole classes with one
    queued representative each, and each added orbit is one class of the
    record, with the moves its action table is read from. In an abelian
    group every subgroup is a class fixed by every element, so the orbit
    step is skipped.

    A queued H is extended by every prime-power element g outside H with
    g^p in H, p the prime of g's order. That misses no subgroup. Every
    L > 1 has a maximal subgroup M, and L = <M, g> for every g in L \\ M.
    One such g has prime-power order and g^p in M: take x in L \\ M; x is
    the product of its prime-power parts, so one of them, y, lies outside
    M; then g is the last power y^(p^i) still outside M. If M^t is the
    queued representative of M's class, g^t extends it to L^t, because
    <M, g>^t = <M^t, g^t>.

    If g normalises H, H has index p in <H, g> = H, Hg, ..., Hg^(p-1),
    read off p columns of the table. Otherwise <H, g> takes one closure.
    The first round takes only the table steps. A solvable L > 1 has a
    normal M of prime index, and then the g above normalises M, so the
    argument holds with such an M; and every subgroup this round reaches
    is solvable. So it reaches the whole group exactly when the group is
    solvable, and then the lattice is complete. Otherwise a second round
    re-queues one member of every class found so far, with closures on,
    and finds the rest. Nothing starts over.

    Raises EnumerationCapExceeded above the subgroup cap, and during
    enumeration once the found set passes MAX_LATTICE_SIZE subgroups.
    """
    cap = DEFAULT_CAPS.subgroups if cap is None else cap
    if group.order > cap:
        raise EnumerationCapExceeded(
            f"group order {group.order} exceeds the subgroup enumeration cap {cap}"
        )
    return group.memo("subgroups", lambda: _lattice(group))


def all_subgroups(group: FiniteGroup, cap: int | None = None) -> list[SubgroupSet]:
    """Every subgroup exactly once, sorted by (order, member list): the lattice's subs."""
    return list(lattice(group, cap).subs)


def _lattice(group: FiniteGroup) -> Lattice:
    """The lattice record, as lattice describes: one queue, a round without closures, then one with.

    found maps each bitset to its subgroup. A class is its members' bitsets
    and moves[i, t], the position in found of member i conjugated by t.
    inside marks H and every subgroup already taken from H, whose elements
    would give it again.
    """
    h, table, powers = group.order, group.table, group.powers
    abelian, everything = group.is_abelian(), np.arange(h)
    base_of = {m: prime_power_base(m) or 0 for m in set(group.elem_order.tolist())}
    base = np.array([base_of[m] for m in group.elem_order.tolist()])  # 0 off the prime-power orders
    elems = np.flatnonzero(base)
    base = base[elems]
    pth = powers[base, elems]
    found: dict[int, SubgroupSet] = {1: trivial_subgroup(group)}
    classes: list[tuple[list[int], np.ndarray]] = [([1], np.zeros((1, h), dtype=np.intp))]
    for closures in (False, True):
        if (1 << h) - 1 in found:  # after the first round: the group is solvable, the lattice complete
            break
        work = deque(masks[0] for masks, _ in classes)
        while work:
            harr = found[work.popleft()]._arr
            inside = _vector(harr, h)
            keep = ~inside[elems] & inside[pth]
            cand, primes = elems[keep], base[keep]
            normalises = np.ones(cand.size, dtype=bool) if abelian else inside[conjugates(group, cand, harr)].all(axis=1)
            if not closures:
                cand, primes, normalises = cand[normalises], primes[normalises], normalises[normalises]
            for g, p, normal in zip(cand.tolist(), primes.tolist(), normalises.tolist()):
                if inside[g]:
                    continue
                if normal:
                    present = _vector(table[harr[:, None], powers[:p, g]], h)
                    inside |= present
                else:
                    present = _extend_subgroup(group, harr, np.array([g]))
                    inside[powers[:, g]] = True
                mask = _packed(present)
                if mask in found:
                    continue
                if abelian:  # every element fixes K
                    subs, moves = [SubgroupSet._of_vector(group, present)], np.full((1, h), len(found))
                else:
                    subs, first, which = subgroup_orbit(group, everything, present.nonzero()[0])
                    moves = len(found) + which[table[first]]  # (K^s)^t = K^(st)
                masks = [s.mask for s in subs]
                found.update(zip(masks, subs))
                classes.append((masks, moves))
                if len(found) > MAX_LATTICE_SIZE:
                    raise EnumerationCapExceeded(
                        f"{group.label} has more than {MAX_LATTICE_SIZE} subgroups, the lattice size bound"
                    )
                if not present.all():
                    work.append(mask)
    return _lattice_record(group, found, classes)


def _lattice_record(group: FiniteGroup, found: dict[int, SubgroupSet], classes: list[tuple[list[int], np.ndarray]]) -> Lattice:
    """The Lattice record of the found subgroups and their classes; moves give positions in found."""
    subs = sorted(found.values(), key=lambda s: (s.size, s._arr.tolist()))
    n = len(subs)
    sizes = np.array([s.size for s in subs])
    index = MappingProxyType({s.mask: i for i, s in enumerate(subs)})
    rows = np.array([index[m] for m in found], dtype=np.int32)  # the row of each found subgroup
    action = np.empty((n, group.order), dtype=np.int32)
    action[rows] = rows[np.concatenate([moves for _, moves in classes])]
    lengths = np.array([len(masks) for masks, _ in classes])
    least = np.minimum.reduceat(rows, np.cumsum(lengths) - lengths)  # found holds each class in one run
    class_id = np.empty(n, dtype=np.intp)
    class_id[rows] = np.repeat(least.argsort().argsort(), lengths)  # numbered by least row, that is by first row
    class_size = np.bincount(class_id)[class_id]
    nbytes = 8 * -(-group.order // 64)
    words = np.frombuffer(b"".join(s.mask.to_bytes(nbytes, "little") for s in subs), dtype="<u8").reshape(n, -1).T
    contains = np.ones((n, n), dtype=bool)
    for lo in range(0, n, 256):  # S_j has no bit outside S_i, one 64-bit word at a time, in row blocks
        block = contains[lo:lo + 256]
        for word in words:
            block &= (~word[lo:lo + 256, None] & word) == 0
    normal = class_size == 1
    normalizer_order = group.order // class_size
    for arr in (sizes, contains, class_id, class_size, normal, normalizer_order, action):
        arr.flags.writeable = False
    return Lattice(tuple(subs), sizes, index, contains, class_id, class_size, normal, normalizer_order, action)


def subgroups_of_order(group: FiniteGroup, m: int, cap: int | None = None) -> list[SubgroupSet]:
    """The subgroups of one given order, in lattice order: one slice of the record."""
    lat = lattice(group, cap)
    return list(lat.subs[lat.of_order(m)])


def is_normal(a: SubgroupSet) -> bool:
    """True iff t^-1 A t = A for every t in the parent."""
    return normalizer(a).size == a.parent.order


def _is_normal_of_prime_index(a: SubgroupSet, b: SubgroupSet) -> bool:
    """True iff A is normal in B, for A inside B of prime index: iff t^-1 A t lies in A, t the least member of B \\ A.

    B = <A, t> by Lagrange. Test the index and the nesting first: with B \\ A empty, t is -1, numpy's last element.
    """
    outside = b.mask & ~a.mask
    t = (outside & -outside).bit_length() - 1
    return bool(_vector(a._arr, a.parent.order)[conjugates(a.parent, [t], a._arr)].all())


def normalizer(a: SubgroupSet) -> SubgroupSet:
    """All t with t^-1 A t = A; a subgroup containing A, one scan of A's conjugates."""
    h = a.parent.order
    rows = _vector(a._arr, h)[conjugates(a.parent, np.arange(h), a._arr)].all(axis=1)
    return SubgroupSet._of_vector(a.parent, rows)


def centralizer(group: FiniteGroup, x: ElementIndex) -> SubgroupSet:
    """All t with t x = x t; ValueError on an index out of range."""
    _check_element(group, x)
    return SubgroupSet._of_vector(group, group.table[:, x] == group.table[x, :])


def center(group: FiniteGroup) -> SubgroupSet:
    """Elements commuting with the whole group."""
    return SubgroupSet._of_vector(group, group.central_mask())


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
    least = group.conj_table().min(axis=0)  # least[x] is the least conjugate of x, which names its class
    first = least == np.arange(group.order)
    class_of = (np.cumsum(first) - 1)[least]
    return ConjugacyClassPartition(
        class_of=tuple(class_of.tolist()),
        representatives=tuple(np.flatnonzero(first).tolist()),
        class_sizes=tuple(np.bincount(class_of).tolist()),
    )


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
        raise ValueError("subgroup does not belong to the given group")
    if not is_normal(n):
        raise ValueError("quotient requires a normal subgroup")
    table = group.table
    rep = table[n._arr].min(axis=0)                # rep[x] = min of the coset N x
    section = np.flatnonzero(rep == np.arange(group.order)).astype(np.int32)  # minimal representatives
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

    Enumerates A as a standalone group, so the cap applies to A's order
    and the parent may lie above it. The order is that of the parent's
    lattice filtered by containment, because the embedding is ascending.
    """
    grp, emb = as_group(a)
    return [SubgroupSet._of_vector(a.parent, _vector(emb[s._arr], a.parent.order)) for s in all_subgroups(grp, cap)]


def subgroup_conjugacy_classes(subs: Sequence[SubgroupSet]) -> list[list[int]]:
    """Orbits of conjugation by the whole parent on the given subgroup list.

    Returns positions into subs, one list per orbit, orbits ordered by
    first occurrence.
    """
    if not subs:
        return []
    parent = subs[0].parent
    if any(s.parent is not parent for s in subs):
        raise ValueError("operands live in different parent groups")
    actors = np.arange(parent.order)
    by_mask = {s.mask: i for i, s in enumerate(subs)}
    orbits: list[list[int]] = []
    done: set[int] = set()
    for i, s in enumerate(subs):
        if i not in done:
            orbits.append(sorted(by_mask[o.mask] for o in subgroup_orbit(parent, actors, s._arr)[0] if o.mask in by_mask))
            done.update(orbits[-1])
    return orbits


def automorphisms(group: FiniteGroup, cap: int | None = None) -> np.ndarray:
    """All product-preserving element bijections, one row per automorphism.

    Generator-image search (Cannon and Holt, J. Symb. Comput. 35, 2003),
    run one generator at a time over every partial map at once. The
    subgroup H grows by its smallest missing index g; each surviving map
    on H is extended by every same-order image of g outside phi(H), then
    along <H, g> by products of two mapped elements (log-many levels on a
    cyclic piece). A row survives if it respects every generator edge and
    has trivial kernel. The result is a read-only (n_aut, order) int32
    array, computed on each call and not cached, in ascending
    lexicographic order with no sort: each new
    generator is the least index outside the mapped subgroup, so rows
    agree on every earlier column; the expansion keeps the parent rows'
    order and takes each row's candidate images in ascending order, and
    the filters keep order.

    Raises EnumerationCapExceeded above the automorphism cap, and during
    the search once a level would hold more than MAX_AUTOMORPHISM_MAPS
    partial maps.
    """
    _check_automorphism_cap(group, cap)
    autos = _automorphism_search(group)
    autos.flags.writeable = False
    return autos


def _check_automorphism_cap(group: FiniteGroup, cap: int | None) -> None:
    cap = DEFAULT_CAPS.automorphisms if cap is None else cap
    if group.order > cap:
        raise EnumerationCapExceeded(
            f"group order {group.order} exceeds the automorphism cap {cap}"
        )


# The most partial maps one level of the automorphism search may hold. Under
# the default caps the largest Aut(G) is elab:2^4's 20,160 maps. verify never
# builds it: S2.III searches only when a closure is neither 1 nor G, which
# on the catalog up to 24 reaches 192 maps at most (prod(cyclic:2,q8)).
# elab:2^5 would need 624,960 maps at its fourth level and 9,999,360 at its
# fifth.
MAX_AUTOMORPHISM_MAPS = 1 << 18


def _automorphism_search(group: FiniteGroup) -> np.ndarray:
    h, orders = group.order, group.elem_order
    table = group.table.astype(np.min_scalar_type(h - 1))  # smallest dtype: small row temporaries
    maps = np.zeros((1, h), dtype=table.dtype)
    inside = _vector(0, h)
    gens: list[int] = []
    while not inside.all():
        g = int(np.argmin(inside))
        gens.append(g)
        members = np.flatnonzero(inside)
        cands = np.flatnonzero(orders == orders[g])
        # every map is injective on H and keeps orders, so each row has the same number of free candidates
        expanded = len(maps) * (cands.size - int(np.count_nonzero(orders[members] == orders[g])))
        if expanded > MAX_AUTOMORPHISM_MAPS:
            raise EnumerationCapExceeded(
                f"{group.label} needs more than {MAX_AUTOMORPHISM_MAPS} partial automorphism maps, "
                "the automorphism search bound"
            )
        free = np.ones((len(maps), h), dtype=bool)
        free[np.arange(len(maps))[:, None], maps[:, members]] = False
        rows, picks = np.nonzero(free[:, cands])
        maps = maps[rows]
        maps[:, g] = cands[picks]
        inside[g] = True
        frontier = np.flatnonzero(inside)
        while frontier.size:
            mapped = np.flatnonzero(inside)
            prods = table[np.ix_(frontier, mapped)].ravel()
            new, first = np.unique(prods, return_index=True)
            keep = ~inside[new]
            new, first = new[keep], first[keep]
            inside[new] = True
            src, via = frontier[first // mapped.size], mapped[first % mapped.size]
            maps[:, new] = table[maps[:, src], maps[:, via]]
            frontier = new
        sub = np.flatnonzero(inside)
        for x in gens:
            maps = maps[(maps[:, table[sub, x]] == table[maps[:, sub], maps[:, [x]]]).all(axis=1)]
        maps = maps[(maps[:, sub[1:]] != 0).all(axis=1)]
    return maps.astype(np.int32)


def is_characteristic(a: SubgroupSet, cap: int | None = None) -> bool:
    """True iff every automorphism of the parent maps A onto itself."""
    return _characteristic(a.parent, [a], cap)[0]


def _characteristic(group: FiniteGroup, subs: Sequence[SubgroupSet], cap: int | None = None) -> list[bool]:
    """is_characteristic for each of the group's subgroups, with at most one automorphism search.

    1 and G are characteristic by definition: an automorphism fixes the
    identity and is a bijection of G. They are answered with no search,
    and Aut(G) is built only if some other subgroup is asked about.
    """
    h = group.order
    if all(s.size in (1, h) for s in subs):
        _check_automorphism_cap(group, cap)  # refused above the cap all the same
        return [True] * len(subs)
    autos = automorphisms(group, cap)
    return [s.size in (1, h) or bool(_vector(s._arr, h)[autos[:, s._arr]].all()) for s in subs]


def is_cyclic(group: FiniteGroup) -> bool:
    """True iff some element has order equal to the group order."""
    return bool((group.elem_order == group.order).any())
