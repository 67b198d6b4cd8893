"""Independent brute-force oracles used to cross-check the engine.

Everything here is deliberately naive: plain Python loops over the raw
multiplication table, no reuse of the engine's closure or lattice code.
The exceptions are closure_by_products, subgroups_by_layered_extension,
lattice_by_cyclic_extension, automorphisms_by_backtracking,
elab_by_digit_array, elab_by_digit_formula, tower_by_quotients,
table_by_row_index, closure_by_tuples, power_table_by_rows,
is_normal_by_scan, is_normal_within_by_scan, contains_by_member_product,
power_by_squaring, sylow_normals_by_normalizers,
conj_table_by_inverse_rows, class_ids_by_least_action,
dihedral_by_blocks and q8_by_axis_rules, the engine's former closure,
two former lattice enumerators, automorphism search, two elab builders,
Sylow tower, two generator-table builders, power table, normality
scans, containment matrix, element power, Section 5 normalizer
computation, conjugation table, lattice class numbering, dihedral
builder and quaternion builder, kept as references for the code that
replaced them.
lattice_by_cyclic_extension, the former general lattice pass, builds its
record with the engine's _lattice_record, so a comparison of records
checks the enumeration. build_by_oracles builds a parsed spec from the
former builders.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

from sylowlab.catalog import _cycles_to_permutation, _dihedral_names, build
from sylowlab.groups import Permutation
from sylowlab.numtheory import prime_power_base, valuation
from sylowlab.subgroups import (
    SubgroupSet,
    _lattice_record,
    as_group,
    centralizer,
    cyclic_subgroup,
    quotient,
    subgroup_orbit,
)


def bitset(arr) -> int:
    """The bitset of an index array, bit i set for each index i."""
    return sum(1 << int(i) for i in set(arr.tolist()))


def brute_closure(group, seed) -> frozenset[int]:
    """Subgroup generated by seed, via a worklist of pairwise products."""
    members = set(int(x) for x in seed) | {0}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                c = int(group.table[a, b])
                if c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)


def closure_by_products(group, sub_arr, gen_arr, gen_closed=False) -> np.ndarray:
    """Closure of a closed subgroup plus generators, as a sorted member array.

    The engine's former closure: each level multiplies the new elements by
    every member on both sides and deduplicates the products with
    np.unique, so it is quadratic in the subgroup order. gen_closed says
    the generators are a subgroup K; in an abelian group the result is HK.
    """
    table = group.table
    present = np.zeros(group.order, dtype=bool)
    present[sub_arr] = True
    frontier = gen_arr[~present[gen_arr]]
    if frontier.size == 0:
        return sub_arr
    if gen_closed and group.is_abelian():
        return np.unique(table[np.ix_(sub_arr, gen_arr)]).astype(np.int32)
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


def contains_by_member_product(subs, order: int) -> np.ndarray:
    """contains[i, j] = subs[i] contains subs[j], as |S_i & S_j| == |S_j| from a float32 membership product.

    The lattice record's former containment matrix.
    """
    sizes = np.array([s.size for s in subs])
    member = np.zeros((len(subs), order), dtype=np.float32)
    member[np.repeat(np.arange(len(subs)), sizes), np.concatenate([s._arr for s in subs])] = 1
    return member @ member.T == sizes


def power_sequence_by_sets(group, complex_) -> tuple[int, int, frozenset[int]]:
    """(r, s, the group among the powers) for R, R^2, R^3, ..., by frozensets and group.table.

    r and s are least with R^(r+s) = R^r. The powers from R^r on repeat with
    period s, and the one of them that is a group is R^t, t the multiple of s
    in [r, r+s), since R^t R^t = R^(2t) = R^t.
    """
    base = frozenset(int(x) for x in complex_)
    powers = [base]
    while (nxt := frozenset(int(group.table[a, b]) for a in powers[-1] for b in base)) not in powers:
        powers.append(nxt)
    r = powers.index(nxt) + 1
    s = len(powers) + 1 - r
    t = -(-r // s) * s
    return r, s, powers[t - 1]


def is_subgroup_subset(group, subset) -> bool:
    members = set(subset)
    if 0 not in members:
        return False
    for a in members:
        for b in members:
            if int(group.table[a, b]) not in members:
                return False
    return True


def subgroups_by_subsets(group) -> set[frozenset[int]]:
    """All subgroups by testing every subset; only viable for tiny orders."""
    h = group.order
    assert h <= 12, "subset oracle is exponential; keep it tiny"
    rest = list(range(1, h))
    out = set()
    for size in range(h + 1):
        for combo in combinations(rest, size):
            subset = frozenset((0, *combo))
            if h % len(subset) == 0 and is_subgroup_subset(group, subset):
                out.add(subset)
    return out


def subgroups_by_pair_closures(group) -> set[frozenset[int]]:
    """All subgroups generated by at most two elements."""
    h = group.order
    out = {frozenset([0])}
    for a in range(h):
        for b in range(a, h):
            out.add(brute_closure(group, (a, b)))
    return out


def prime_power_cyclics(group) -> dict[int, np.ndarray]:
    """Every cyclic subgroup of prime-power order: bitset -> member array.

    The engine's former candidate list for the general lattice pass.
    """
    out: dict[int, np.ndarray] = {}
    for g in range(1, group.order):
        if prime_power_base(int(group.elem_order[g])) is not None:
            sub = cyclic_subgroup(group, g)
            out.setdefault(sub.mask, sub._arr)
    return out


def subgroups_by_layered_extension(group) -> list[tuple[int, ...]]:
    """Member tuples of every subgroup, sorted by (order, members).

    Extends every subgroup found, not one per conjugacy class, by every
    cyclic prime-power subgroup not yet inside it, closing with
    closure_by_products, so it checks the candidate rule, the
    class-representative bookkeeping and the closure of all_subgroups.
    """
    trivial = np.zeros(1, dtype=np.int32)
    found = {1: trivial}
    work = deque([(1, trivial)])
    candidates = prime_power_cyclics(group)
    while work:
        hmask, harr = work.popleft()
        for cmask, carr in candidates.items():
            if cmask & hmask == cmask:
                continue
            karr = closure_by_products(group, harr, carr, gen_closed=True)
            kmask = bitset(karr)
            if kmask not in found:
                found[kmask] = karr
                if karr.size < group.order:
                    work.append((kmask, karr))
    members = (tuple(int(i) for i in arr) for arr in found.values())
    return sorted(members, key=lambda m: (len(m), m))


def lattice_by_cyclic_extension(group):
    """The Lattice record of the engine's former general pass.

    One queued representative per conjugacy class, each grown by every
    cyclic prime-power subgroup not inside it, one closure_by_products
    each; a new subgroup adds its whole conjugation orbit, with the
    moves the engine's action table is read from. It makes no
    table steps and needs no second round, so it is the reference for
    both rounds of subgroups.lattice.
    """
    abelian, everything = group.is_abelian(), np.arange(group.order)
    trivial = np.zeros(1, dtype=np.int32)
    found = {1: trivial}
    classes = [([1], np.zeros((1, group.order), dtype=np.intp))]
    work = deque([(1, trivial)])
    candidates = prime_power_cyclics(group)
    while work:
        hmask, harr = work.popleft()
        for cmask, carr in candidates.items():
            if cmask & hmask == cmask:
                continue
            karr = closure_by_products(group, harr, carr, gen_closed=True)
            kmask = bitset(karr)
            if kmask in found:
                continue
            if abelian:
                classes.append(([kmask], np.full((1, group.order), len(found))))
                found[kmask] = karr
            else:
                subs, first, which = subgroup_orbit(group, everything, karr)
                classes.append(([s.mask for s in subs], len(found) + which[group.table[first]]))
                found.update((s.mask, s._arr) for s in subs)
            if karr.size < group.order:
                work.append((kmask, karr))
    return _lattice_record(group, {mask: SubgroupSet(group, arr) for mask, arr in found.items()}, classes)


def _generating_sequence(group) -> list[int]:
    """Greedy smallest-index generator chain covering the whole group."""
    gens: list[int] = []
    current = np.zeros(1, dtype=np.int32)
    present = np.zeros(group.order, dtype=bool)
    present[0] = True
    while current.size < group.order:
        g = int(np.argmin(present))
        gens.append(g)
        current = closure_by_products(group, current, np.array([g], dtype=np.int32))
        present[:] = False
        present[current] = True
    return gens


def automorphisms_by_backtracking(group) -> list[tuple[int, ...]]:
    """All automorphisms as sorted tuples, by recursive generator-image backtracking.

    The engine's former automorphism search, one partial map at a time,
    kept as the reference for the array search that replaced it. It picks
    the generator chain with closure_by_products.
    """
    h = group.order
    if h == 1:
        return [(0,)]
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
    return found


def conjugacy_partition(group) -> list[frozenset[int]]:
    """Conjugacy classes via direct elementwise conjugation."""
    h = group.order
    seen = set()
    classes = []
    for x in range(h):
        if x in seen:
            continue
        orbit = set()
        for t in range(h):
            tinv = int(group.inverse[t])
            orbit.add(int(group.table[int(group.table[tinv, x]), t]))
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def conj_table_by_inverse_rows(group) -> np.ndarray:
    """conj[t, a] = t^-1 a t: the engine's former whole-group conjugation table, rows of inverses right-multiplied."""
    return group.table[group.table[group.inverse], np.arange(group.order, dtype=np.int32)[:, None]]


def element_order_oracle(group, x: int) -> int:
    """Order by repeated multiplication."""
    k = 1
    cur = int(x)
    while cur != 0:
        cur = int(group.table[cur, x])
        k += 1
    return k


def power_by_squaring(group, xs: np.ndarray, k: int) -> np.ndarray:
    """x^k for each x in xs and k >= 0, by binary exponentiation on the table."""
    acc, base = np.zeros_like(xs), xs
    while k:
        if k & 1:
            acc = group.table[acc, base]
        base = group.table[base, base]
        k >>= 1
    return acc


def is_hom_bijection(group, phi) -> bool:
    """Check a candidate automorphism the slow way."""
    h = group.order
    if sorted(phi) != list(range(h)):
        return False
    for a in range(h):
        for b in range(h):
            if phi[int(group.table[a, b])] != int(group.table[phi[a], phi[b]]):
                return False
    return True


def elab_by_digit_array(p: int, k: int) -> tuple[np.ndarray, list[str]]:
    """Table and names of (Z/p)^k from an h x h x k array of digit sums.

    The engine's former elab builder; it holds every digit of every
    product at once.
    """
    h = p**k
    digits = np.empty((h, k), dtype=np.int32)
    rest = np.arange(h, dtype=np.int32)
    for d in range(k - 1, -1, -1):
        digits[:, d] = rest % p
        rest //= p
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int32)
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    table = (sums * weights).sum(axis=2).astype(np.int32)
    names = ["(" + ",".join(str(v) for v in row) + ")" for row in digits]
    return table, names


def elab_by_digit_formula(p: int, k: int) -> tuple[np.ndarray, list[str]]:
    """Table and names of (Z/p)^k, one base-p digit at a time: the engine's former elab builder.

    Each pass adds one digit of both factors mod p and weights the sum
    into the table.
    """
    h = p**k
    codes = np.arange(h, dtype=np.int32)
    weights = [p**d for d in range(k - 1, -1, -1)]
    table = np.zeros((h, h), dtype=np.int32)
    for w in weights:
        digit = codes // w % p
        table += (digit[:, None] + digit) % p * w
    names = ["(" + ",".join(str(i // w % p) for w in weights) + ")" for i in range(h)]
    return table, names


def power_table_by_rows(table: np.ndarray) -> np.ndarray:
    """powers[k, x] = x^k for k up to the largest element order: the engine's former power table.

    One row at a time, each the last right-multiplied by x, until every x
    has met the identity.
    """
    h = table.shape[0]
    idx = np.arange(h, dtype=np.int32)
    rows = [np.zeros(h, dtype=np.int32), idx]
    met = idx == 0
    while not met.all():
        rows.append(table[rows[-1], idx])
        met |= rows[-1] == 0
    return np.array(rows)


def closure_by_tuples(gens) -> tuple[np.ndarray, list[Permutation]]:
    """Table and elements of the group generated by permutations: the engine's former generator builder.

    A breadth-first closure over image tuples, one element and one
    generator at a time, then one table column per element, read from
    the closure's own right-multiplication index: x (a g) = (x a) g.
    """
    ident = tuple(range(gens[0].degree))
    elems, index = [ident], {ident: 0}
    right, reached = [], []
    for i, cur in enumerate(elems):
        for k, g in enumerate(gens):
            nxt = tuple(g.images[v] for v in cur)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                reached.append((i, k))
            right.append(index[nxt])
    h = len(elems)
    right_arr = np.array(right, dtype=np.int32).reshape(h, len(gens))
    table = np.empty((h, h), dtype=np.int32)
    table[:, 0] = np.arange(h, dtype=np.int32)
    for b, (a, k) in enumerate(reached, start=1):
        table[:, b] = right_arr[table[:, a], k]
    return table, [Permutation(row) for row in elems]


def dihedral_by_blocks(order: int) -> tuple[np.ndarray, list[str]]:
    """Table and names of the dihedral group of the given order, one quarter block at a time: the engine's former builder.

    Rotations r^i are 0..n-1 and reflections s r^i are n..2n-1.
    """
    n = order // 2
    i = np.arange(n, dtype=np.int32)
    table = np.empty((order, order), dtype=np.int32)
    table[:n, :n] = (i[:, None] + i[None, :]) % n            # rot * rot
    table[:n, n:] = n + (i[None, :] - i[:, None]) % n        # rot then refl
    table[n:, :n] = n + (i[:, None] + i[None, :]) % n        # refl then rot
    table[n:, n:] = (i[None, :] - i[:, None]) % n            # refl then refl
    return table, _dihedral_names(n)


_Q8_MUL = {  # axis products with sign, quaternion rules
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
}


def q8_by_axis_rules() -> tuple[np.ndarray, list[str]]:
    """Table and names of the quaternion group from its sixteen axis products: the engine's former builder."""
    elements = [(sign, axis) for axis in "1ijk" for sign in (1, -1)]
    index = {e: i for i, e in enumerate(elements)}
    table = np.empty((8, 8), dtype=np.int32)
    for a, (sa, xa) in enumerate(elements):
        for b, (sb, xb) in enumerate(elements):
            sign, axis = _Q8_MUL[(xa, xb)]
            table[a, b] = index[(sa * sb * sign, axis)]
    return table, [("" if s > 0 else "-") + a for s, a in elements]


def build_by_oracles(spec) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Table and element names of a parsed spec, from the former builders.

    sym, alt and perm close the engine's generators with
    closure_by_tuples, elab takes elab_by_digit_formula, dihedral takes
    dihedral_by_blocks, q8 takes q8_by_axis_rules, and prod combines its
    factors' oracle tables and names. cyclic keeps the engine's table
    formula, which no change has replaced.
    """
    kind, args = spec.kind, spec.args
    if kind == "prod":
        (ta, na), (tb, nb) = build_by_oracles(args[0]), build_by_oracles(args[1])
        order = len(ta) * len(tb)
        table = (ta[:, None, :, None].astype(np.int64) * len(tb) + tb[None, :, None, :]).reshape(order, order)
        names = None if na is None or nb is None else tuple(f"({x},{y})" for x in na for y in nb)
        return table.astype(np.int32), names
    if kind in ("elab", "dihedral", "q8"):
        table, names = {"elab": elab_by_digit_formula, "dihedral": dihedral_by_blocks, "q8": q8_by_axis_rules}[kind](*args)
        return table, tuple(names)
    if kind in ("sym", "alt", "perm"):
        if kind == "perm":
            degree = max((pt for gen in args for cyc in gen for pt in cyc), default=1)
            gens = [_cycles_to_permutation(gen, degree) for gen in args]
        elif kind == "sym":
            n = args[0]
            gens = [Permutation([(i + 1) % n for i in range(n)]), Permutation([1, 0] + list(range(2, n)))] if n >= 2 else []
        else:
            n = args[0]
            gens = [Permutation([1, k, *range(2, k), 0, *range(k + 1, n)]) for k in range(2, n)]  # (1 2 k+1)
        if not gens:
            return np.zeros((1, 1), dtype=np.int32), ("e",)
        table, perms = closure_by_tuples(gens)
        return table, tuple(p.cycle_string() for p in perms)
    group = build(spec)
    return group.table, group.element_names


def tower_by_quotients(group, p: int, lam: int) -> list[np.ndarray]:
    """Member arrays of a Sylow tower of orders p^1..p^lam, by derived groups.

    The engine's former tower: take the first order-p element whose
    centralizer has full p-valuation, recurse on the quotient of that
    centralizer (as a standalone group) by the element's span, and lift
    each term back through the coset map.
    """
    table = group.table
    witness = next(
        int(x) for x in np.flatnonzero(group.elem_order == p)
        if valuation(int((table[:, x] == table[x, :]).sum()), p) == lam
    )
    span = cyclic_subgroup(group, witness)
    if lam == 1:
        return [span._arr]
    cent_grp, emb = as_group(centralizer(group, witness))
    pos = np.full(group.order, -1, dtype=np.int32)
    pos[emb] = np.arange(emb.size, dtype=np.int32)
    span_in_cent = SubgroupSet(cent_grp, pos[span._arr])
    quot = quotient(cent_grp, span_in_cent)
    rest = tower_by_quotients(quot.group, p, lam - 1)
    lifted = [emb[np.flatnonzero(np.isin(quot.to_coset, arr))] for arr in rest]
    return [span._arr] + [np.sort(arr).astype(np.int32) for arr in lifted]


def table_by_row_index(gens) -> tuple[np.ndarray, list[str]]:
    """Table and element names of the group generated by permutations.

    The engine's former generator builder: the same breadth-first closure,
    then every row of the table looked up product by product in a
    bytes-keyed index of the elements' images.
    """
    ident = tuple(range(gens[0].degree))
    elems = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elems):
        for g in gens:
            nxt = tuple(g.images[v] for v in elems[i])
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
        i += 1
    images = np.array(elems, dtype=np.int32)
    row_index = {row.tobytes(): k for k, row in enumerate(images)}
    table = np.array(
        [[row_index[row.tobytes()] for row in images[:, images[a]]] for a in range(len(elems))],
        dtype=np.int32,
    )
    return table, [Permutation(row).cycle_string() for row in elems]


def _fixes(a, actors) -> np.ndarray:
    """fixes[i]: conjugation by actors[i] maps A into itself, read from the raw table."""
    table = a.parent.table
    inside = np.zeros(a.parent.order, dtype=bool)
    inside[a._arr] = True
    t = np.asarray(actors)[:, None]
    return inside[table[table[a.parent.inverse[t], a._arr], t]].all(axis=1)


def is_normal_by_scan(a) -> bool:
    """The engine's former is_normal: conjugation by every parent element fixes A."""
    return bool(_fixes(a, np.arange(a.parent.order)).all())


def is_normal_within_by_scan(a, ambient) -> bool:
    """The engine's former is_normal_within: conjugation by every member of ambient fixes A."""
    return bool(_fixes(a, ambient._arr).all())


def normalizer_by_scan(a) -> list[int]:
    """The parent elements whose conjugation fixes A, ascending."""
    return np.flatnonzero(_fixes(a, np.arange(a.parent.order))).tolist()


def sylow_normals_by_normalizers(lat, top) -> tuple[int, list[int], list[tuple[int, int]]]:
    """|N(P)|, the rows normal in the Sylow subgroup P, and (h/|N(Q)|, |N(P)|/|N(Q) meet N(P)|) for each.

    The engine's former S5.7 and S5.III computation: an is_normal_within
    filter on the rows below P, then one normalizer per normal subgroup Q,
    met with N(P) member by member.
    """
    h = top.parent.order
    norm_top = set(normalizer_by_scan(top))
    below = np.flatnonzero(lat.contains[lat.index[top.mask]]).tolist()
    rows = [j for j in below if is_normal_within_by_scan(lat.subs[j], top)]
    sides = []
    for j in rows:
        norm_q = normalizer_by_scan(lat.subs[j])
        sides.append((h // len(norm_q), len(norm_top) // len(norm_top.intersection(norm_q))))
    return len(norm_top), rows, sides


def reduced_euler_characteristic_of_p_subgroups(lat, p: int) -> int:
    """mu(0, 1) of the nontrivial p-subgroups with a bottom (the trivial row) and a top adjoined.

    Forward substitution in row order, which lists every subgroup after
    those it contains: mu(0, x) is minus the sum of mu(0, y) over y < x.
    Brown (1975): the value is 0 modulo the p-part of the group order.
    """
    rows = [j for j, size in enumerate(lat.sizes.tolist()) if size == 1 or prime_power_base(size) == p]
    mu = [1]
    for i, x in enumerate(rows[1:], 1):
        mu.append(-sum(mu[k] for k, y in enumerate(rows[:i]) if lat.contains[x, y]))
    return -sum(mu)


def class_ids_by_least_action(lat) -> np.ndarray:
    """The engine's former class ids: each row's least conjugate row, read off the action table, ranked."""
    return np.unique(lat.action.min(axis=1), return_inverse=True)[1]
