"""Subgroup lattice, normality machinery, quotients and automorphisms."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sylowlab.catalog import build, catalog_specs, standard_catalog
from sylowlab.counting import _solutions, complex_power_stabilization
from sylowlab.errors import ClosureExceedsCap, EnumerationCapExceeded
from sylowlab.groups import Permutation, conjugate, conjugates, element_order, group_from_generators, power
from sylowlab.numtheory import divisors, is_prime, prime_factorization, valuation
from sylowlab.subgroups import (
    MAX_LATTICE_SIZE,
    ComplexSet,
    SubgroupSet,
    _is_normal_of_prime_index,
    _packed,
    _vector,
    all_subgroups,
    automorphisms,
    center,
    centralizer,
    closure_of,
    conjugacy_classes,
    cyclic_subgroup,
    is_characteristic,
    is_cyclic,
    is_normal,
    lattice,
    normalizer,
    quotient,
    subgroup_conjugacy_classes,
    subgroup_orbit,
    subgroups_of_order,
    subgroups_within,
    trivial_subgroup,
    whole_group,
)
from sylowlab import subgroups as subgroups_module
from sylowlab.sylow import coprime_decomposition, sylow_chain

from oracles import (
    automorphisms_by_backtracking,
    brute_closure,
    class_ids_by_least_action,
    closure_by_products,
    conj_table_by_inverse_rows,
    conjugacy_partition,
    contains_by_member_product,
    is_hom_bijection,
    is_normal_by_scan,
    is_normal_within_by_scan,
    lattice_by_cyclic_extension,
    normalizer_by_scan,
    power_sequence_by_sets,
    subgroups_by_layered_extension,
    subgroups_by_pair_closures,
    subgroups_by_subsets,
    table_by_row_index,
    tower_by_quotients,
)
from test_sylow import LARGE_SPECS


def by_names(group, *names):
    return [group.element_names.index(n) for n in names]


def test_packed_mask_matches_the_shift_loop():
    """A membership vector packs to the bitset the sum of shifted bits gives its index array, at any size up to 512."""
    rng = np.random.default_rng(23)
    for h in (1, 7, 8, 63, 64, 65, 120, 360, 512):
        group = build(f"cyclic:{h}")
        for size in sorted({0, 1, h // 2, h - 1, h, *rng.integers(0, h + 1, size=8).tolist()}):
            arr = np.sort(rng.choice(h, size=size, replace=False)).astype(np.int32)
            expected = sum(1 << int(i) for i in arr)
            assert _packed(_vector(arr, h)) == expected, (h, size)
            assert ComplexSet(group, arr).mask == expected
            if size:
                assert SubgroupSet._of_vector(group, _vector(arr, h)).mask == expected


def test_membership_holds_only_for_an_integer_index_whose_bit_is_set():
    """x in s is True only for a Python or numpy integer in [0, h) whose bit is set; no shift error, no truncation."""
    c6 = build("cyclic:6")
    sub = cyclic_subgroup(c6, 2)
    assert sub.members == (0, 2, 4)
    for s in (sub, ComplexSet(c6, sub._arr)):
        assert 2 in s and np.int64(2) in s
        for x in (-1, 6, 99, 2.9, "2", np.int64(-1), 1):
            assert x not in s, x


def test_complex_set_takes_any_iterable_of_indices():
    group = build("cyclic:12")
    sources = [[7, 3, 1, 5, 3], {1, 3, 5, 7}, range(1, 8, 2), (x for x in (5, 1, 7, 3)),
               np.array([7, 5, 3, 1], dtype=np.int32), np.array([7, 1, 5, 7, 3, 1, 3], dtype=np.int64)]
    for members in sources:
        c = ComplexSet(group, members)
        assert c.members == (1, 3, 5, 7) and c.mask == 0b10101010 and c._arr.dtype == np.int32
    for bad in ([2**40], [-1], [12]):
        with pytest.raises(ValueError):
            ComplexSet(group, bad)


@pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:60", "prod(q8,elab:2^6)"])
def test_complex_set_sorted_array_fast_path_matches_the_general_path(spec):
    """A solution array gives the same record as the same indices in a list."""
    group = build(spec)
    for n in divisors(group.order):
        sols = _solutions(group, n)._arr
        fast, general = ComplexSet(group, sols), ComplexSet(group, sols.tolist())
        assert np.array_equal(fast._arr, general._arr) and fast._arr.dtype == np.int32
        assert (fast.mask, fast.size) == (general.mask, general.size)
        assert fast._arr is not sols
    for bad in (np.array([0, group.order], dtype=np.int64), np.array([-1, 0], dtype=np.int32),
                np.array([0, 2**40], dtype=np.int64)):
        with pytest.raises(ValueError):
            ComplexSet(group, bad)
    unsorted = ComplexSet(group, np.array([3, 1, 3, 0], dtype=np.int32))
    assert unsorted.members == (0, 1, 3)


def test_generated_subgroup_rejects_out_of_range_indices():
    s3 = build("sym:3")
    for bad in ([-1], [6], [1, 2**40]):
        with pytest.raises(ValueError):
            closure_of(ComplexSet(s3, bad))


@pytest.mark.parametrize("members", [
    [1.5], np.array([2.7]), ["3"], np.array([True, False, True]), [np.float64(2)], [np.True_], [[0, 1]], np.array(0),
], ids=["float", "float-array", "string", "bool-array", "numpy-float", "numpy-bool", "nested", "0-d-array"])
def test_element_sets_refuse_members_that_are_not_integers(members):
    """No float is truncated to an index, no string parsed as one, and no boolean mask read as the indices it marks."""
    c6 = build("cyclic:6")
    for make in (ComplexSet, SubgroupSet, lambda group, gens: closure_of(ComplexSet(group, gens))):
        with pytest.raises(ValueError, match="^members must be integer element indices$"):
            make(c6, members)


@pytest.mark.parametrize("members, expected", [
    ([True, 0], (0, 1)),
    ([np.int8(3), 0], (0, 3)),
    (np.array([0, 3], dtype=np.uint8), (0, 3)),
    (np.array([4, 2, 0, 2], dtype=np.int16), (0, 2, 4)),
    (range(0, 6, 3), (0, 3)),
    ((x for x in (0, 2, 4)), (0, 2, 4)),
    ([], ()),
], ids=["bool-scalar", "numpy-int", "uint8-array", "int16-array", "range", "generator", "empty"])
def test_element_sets_take_integers_of_any_kind(members, expected):
    """Python ints (bool scalars too, as membership does), numpy integer scalars and arrays of any width."""
    assert ComplexSet(build("cyclic:6"), members).members == expected


@pytest.mark.parametrize("x", [1.5, np.float64(1), "1", True], ids=["float", "numpy-float", "string", "bool"])
@pytest.mark.parametrize("call", [
    lambda group, x: element_order(group, x),
    lambda group, x: power(group, x, 2),
    lambda group, x: conjugate(group, x, 0),
    lambda group, x: conjugate(group, 0, x),
    lambda group, x: cyclic_subgroup(group, x),
    lambda group, x: centralizer(group, x),
    lambda group, x: coprime_decomposition(group, x, 2, 3),
], ids=["element_order", "power", "conjugate_x", "conjugate_t", "cyclic_subgroup", "centralizer",
        "coprime_decomposition"])
def test_element_indices_must_be_integers(call, x):
    """A float, a string or a bool never reaches a numpy index, where it would raise IndexError or be read as a mask."""
    with pytest.raises(ValueError, match="is not an integer$"):
        call(build("cyclic:6"), x)


def test_subgroup_set_validation():
    s3 = build("sym:3")
    for members in ([1, 2], []):
        with pytest.raises(ValueError, match=r"^a subgroup must contain the identity \(index 0\)$"):
            SubgroupSet(s3, members)
    with pytest.raises(ValueError, match="^member set is not closed under the group product$"):
        SubgroupSet(s3, [0, 1])
    with pytest.raises(ValueError, match="^members out of range for parent group$"):
        SubgroupSet(s3, [0, 6])
    ok = SubgroupSet(s3, [0, 1, 3])
    assert ok.size == 3 and 3 in ok and 2 not in ok


def test_closure_examples():
    c6 = build("cyclic:6")
    assert closure_of(ComplexSet(c6, [0])).size == 1
    assert closure_of(ComplexSet(c6, [1])).size == 6
    assert closure_of(ComplexSet(c6, [])).size == 1
    s4 = build("sym:4")
    seed = by_names(s4, "(1 2)", "(3 4)")
    sub = closure_of(ComplexSet(s4, seed))
    assert sub.size == 4
    assert set(sub.members) == set(brute_closure(s4, seed))


@pytest.mark.parametrize(
    "spec",
    [spec for spec, _ in standard_catalog(60)] + ["alt:6", "dihedral:512", "prod(q8,elab:2^6)"],
)
def test_closure_matches_oracles_on_solution_sets(spec):
    group = build(spec)
    trivial = np.zeros(1, dtype=np.int32)
    for n in divisors(group.order):
        sols = _solutions(group, n)
        got = closure_of(sols)
        assert np.array_equal(got._arr, closure_by_products(group, trivial, sols._arr)), n
        assert set(got.members) == brute_closure(group, sols._arr), n


def test_closure_is_idempotent():
    s4 = build("sym:4")
    sub = closure_of(ComplexSet(s4, by_names(s4, "(1 2 3)")))
    again = closure_of(ComplexSet(s4, sub.members))
    assert again == sub


@pytest.mark.parametrize(
    "spec, expected",
    [("cyclic:6", 4), ("sym:3", 6), ("cyclic:12", 6), ("q8", 6), ("dihedral:8", 10)],
)
def test_all_subgroups_against_subset_oracle(spec, expected):
    group = build(spec)
    got = {frozenset(s.members) for s in all_subgroups(group)}
    assert got == subgroups_by_subsets(group)
    assert len(got) == expected


def test_all_subgroups_sym4_against_pair_oracle():
    s4 = build("sym:4")
    got = {frozenset(s.members) for s in all_subgroups(s4)}
    assert got == subgroups_by_pair_closures(s4)
    assert len(got) == 30


@pytest.fixture(scope="module")
def lattice_groups():
    """standard_catalog(60), which includes elab:2^5, plus dihedral:64."""
    return [group for _, group in standard_catalog(60)] + [build("dihedral:64")]


def assert_represented(group, s):
    """int32 strictly ascending members, their bitset and count, and a closed member set."""
    assert s._arr.dtype == np.int32 and (np.diff(s._arr) > 0).all(), (group.label, s)
    assert s.mask == sum(1 << int(i) for i in s._arr) and s.size == len(s._arr), (group.label, s)
    assert SubgroupSet(group, s._arr) == s  # re-validates closure


def test_all_subgroups_sorted_and_valid(lattice_groups):
    """Every route to a subgroup keeps the one representation, sorted lattices included.

    The routes: the lattice, subgroup_orbit's conjugates, and the vector
    routes closure_of, sylow_chain, centralizer, cyclic_subgroup and
    subgroups_within. A wrong bit order or an unsorted read-back on any
    of them fails here.
    """
    for group in [build("sym:4")] + lattice_groups:
        h, subs = group.order, all_subgroups(group)
        keys = [(s.size, s.members) for s in subs]
        assert keys == sorted(keys)
        routes = list(subs)
        for s in subs:
            assert 0 in s and h % s.size == 0
            routes += subgroup_orbit(group, np.arange(h), s._arr)[0]
        routes += [closure_of(_solutions(group, n)) for n in divisors(h)]
        routes += [s for p in prime_factorization(h) for s in sylow_chain(group, p).chain]
        routes += [f(group, x) for x in range(h) for f in (centralizer, cyclic_subgroup)]
        routes += subgroups_within(subs[-2] if len(subs) > 1 else subs[0])
        for s in routes:
            assert_represented(group, s)


def test_all_subgroups_matches_layered_extension_oracle(lattice_groups):
    assert {g.is_abelian() for g in lattice_groups} == {True, False}
    for group in lattice_groups:
        got = [s.members for s in all_subgroups(group)]
        assert got == subgroups_by_layered_extension(group), group.label


def test_class_ids_match_the_least_action_oracle(lattice_groups):
    """Class ids numbered from the lattice's classes list agree with ranking each action row's least entry."""
    for group in lattice_groups + [build("cyclic:64")]:
        lat = lattice(group)
        assert np.array_equal(lat.class_id, class_ids_by_least_action(lat)), group.label


def closure_calls(monkeypatch, specs):
    """The labels of the groups, built fresh from specs, whose lattice calls _extend_subgroup.

    Only the second round, with closures on, calls it; the first takes table steps alone.
    """
    groups = [build(spec) for spec in specs]
    calls = []
    extend = subgroups_module._extend_subgroup

    def counted(*args, **kwargs):
        calls.append(args[0].label)
        return extend(*args, **kwargs)

    monkeypatch.setattr(subgroups_module, "_extend_subgroup", counted)
    for group in groups:
        lattice(group, cap=group.order)
    monkeypatch.undo()
    return groups, list(dict.fromkeys(calls))


def assert_same_record(a, b, label):
    assert [s.mask for s in a.subs] == [s.mask for s in b.subs], label
    assert [s._arr.tolist() for s in a.subs] == [s._arr.tolist() for s in b.subs], label
    assert dict(a.index) == dict(b.index), label
    for name in ("sizes", "contains", "class_id", "class_size", "normal", "normalizer_order", "action"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (label, name)


# The pgroups benchmark groups that standard_catalog(60) lacks.
EXTRA_PGROUPS = ["cyclic:64", "dihedral:64", "perm:(1 4 7)(2 5 8)(3 6 9);(4 5 6)(7 9 8)",
                 "perm:(1 2 3 4 5 6 7 8 9);(2 8 5)(3 6 9)"]


def test_prime_index_pass_matches_the_general_pass(monkeypatch):
    """Every group here but alt:5 is done after the first round, and each record is the former general pass's."""
    specs = [spec for spec, _ in standard_catalog(60)] + ["dihedral:64"] + EXTRA_PGROUPS
    groups, non_solvable = closure_calls(monkeypatch, specs)
    assert non_solvable == ["alt:5"]
    for group in groups:
        assert_same_record(lattice(group), lattice_by_cyclic_extension(group), group.label)


def test_solvable_lattices_make_no_closure_call(monkeypatch):
    """A solvable group's lattice is read off the table; only a non-solvable one reaches the closure."""
    _, calls = closure_calls(monkeypatch, ["sym:4", "dihedral:60", "prod(cyclic:2,q8)", "elab:2^4", "alt:5"])
    assert calls == ["alt:5"]


PSL27 = "perm:(1 2 3 4 5 6 7);(1 2)(3 6)"


@pytest.mark.parametrize("spec, count", [
    ("alt:5", 59), ("sym:5", 156), ("prod(alt:5,cyclic:2)", 164), (PSL27, 179),
])
def test_non_solvable_groups_take_the_second_round(monkeypatch, spec, count):
    """The first round stops short of the whole group; the second, with closures, completes the record.

    PSL(2,7) is simple, and 60 does not divide its order 168, so it contains no alt:5.
    """
    (group,), calls = closure_calls(monkeypatch, [spec])
    lat = lattice(group, cap=group.order)
    assert calls == [group.label] and len(lat.subs) == count
    assert_same_record(lat, lattice_by_cyclic_extension(group), spec)
    assert_record_matches_per_subgroup_routines(group, cap=group.order)


@pytest.mark.parametrize("spec, count", [("elab:2^4", 67), ("dihedral:60", 80), ("alt:5", 59)])
def test_lattice_size_bound_refuses_during_enumeration(monkeypatch, spec, count):
    """Either round refuses once the found set passes the bound, and a lattice at the bound is kept."""
    monkeypatch.setattr(subgroups_module, "MAX_LATTICE_SIZE", count - 1)
    with pytest.raises(EnumerationCapExceeded, match=f"more than {count - 1} subgroups"):
        lattice(build(spec))
    monkeypatch.setattr(subgroups_module, "MAX_LATTICE_SIZE", count)
    assert len(lattice(build(spec)).subs) == count


@pytest.mark.parametrize("spec, cap", [(spec, None) for spec in EXTRA_PGROUPS] + [(PSL27, 168), ("elab:2^6", None)])
def test_contains_is_the_subset_relation_of_the_bitsets(spec, cap):
    """contains against the former float product, and against contains_subgroup pairs below 500 subgroups.

    PSL(2,7) spreads each bitset over three 64-bit words; elab:2^6, with
    2825 subgroups, over many row blocks.
    """
    group = build(spec)
    lat = lattice(group, cap)
    assert np.array_equal(lat.contains, contains_by_member_product(lat.subs, group.order)), spec
    if len(lat.subs) < 500:
        assert_record_matches_per_subgroup_routines(group, cap)


def test_lattice_size_bound_is_above_every_default_cap_lattice():
    assert len(lattice(build("elab:2^6")).subs) == 2825 < MAX_LATTICE_SIZE


@pytest.mark.parametrize("spec", ["dihedral:64", "alt:5", "prod(cyclic:2,q8)"])
def test_subgroup_orbit_names_each_conjugate_and_its_first_actor(spec):
    """subs are the distinct conjugates; actors[first[i]] gives subs[i], actors[j] gives subs[which[j]]."""
    group = build(spec)
    conj = conj_table_by_inverse_rows(group)
    for actors in (np.arange(group.order), sylow_chain(group, 2).top._arr):
        for sub in lattice(group).subs:
            subs, first, which = subgroup_orbit(group, actors, sub._arr)
            rows = np.array([s._arr for s in subs])
            conjugates = np.sort(conj[actors][:, sub._arr], axis=1)
            assert len({row.tobytes() for row in rows}) == len(rows) == len({row.tobytes() for row in conjugates})
            assert np.array_equal(rows, conjugates[first]) and np.array_equal(rows[which], conjugates), (spec, sub)


# Every group the action table is checked on, with its subgroup cap.
ACTION_SPECS = ([(spec, None) for spec, _ in standard_catalog(60)] + [(spec, None) for spec in EXTRA_PGROUPS]
                + [("sym:5", 120), (PSL27, 168), ("alt:6", 360)])


def test_action_is_conjugation_of_the_rows():
    """action[i, t] is the row of t^-1 subs[i] t, and the elements fixing row i make up N(subs[i]).

    Every t is checked up to order 120, and every seventh t above it.
    """
    for spec, cap in ACTION_SPECS:
        group = build(spec)
        lat = lattice(group, cap)
        acting = range(0, group.order, 1 if group.order <= 120 else 7)
        for i, sub in enumerate(lat.subs):
            rows = [lat.index[_packed(_vector(row, group.order))] for row in conjugates(group, acting, sub._arr)]
            assert lat.action[i, acting].tolist() == rows, (spec, i)
            assert np.array_equal(np.flatnonzero(lat.action[i] == i), normalizer(sub)._arr), (spec, i)


def test_all_subgroups_is_closed_under_conjugation(lattice_groups):
    for group in lattice_groups:
        subs = all_subgroups(group)
        member_sets = {frozenset(s.members) for s in subs}
        conj = group.conj_table()
        for s in subs:
            for row in conj[:, s._arr]:
                assert frozenset(row.tolist()) in member_sets, (group.label, s)


def positions_by_class_id(group):
    """Lattice positions grouped by the record's class_id, classes in id order."""
    by_id: dict[int, list[int]] = {}
    for i, c in enumerate(lattice(group).class_id.tolist()):
        by_id.setdefault(c, []).append(i)
    assert list(by_id) == list(range(len(by_id)))  # numbered by first occurrence
    return list(by_id.values())


def assert_record_matches_per_subgroup_routines(group, cap=None):
    """The lattice record against the per-subgroup routines and oracles it stands in for."""
    lat = lattice(group, cap)
    subs = all_subgroups(group, cap)
    assert list(lat.subs) == subs and [lat.index[s.mask] for s in subs] == list(range(len(subs)))
    pairs = np.array([[a.contains_subgroup(b) for b in subs] for a in subs], dtype=bool)
    assert np.array_equal(lat.contains, pairs), group.label
    assert lat.normal.tolist() == [is_normal_by_scan(s) for s in subs], group.label
    assert lat.normalizer_order.tolist() == [normalizer(s).size for s in subs], group.label
    for m in divisors(group.order) + [group.order + 1]:
        assert list(lat.subs[lat.of_order(m)]) == [s for s in subs if s.size == m], (group.label, m)
    arrays = (lat.sizes, lat.contains, lat.class_id, lat.class_size, lat.normal, lat.normalizer_order, lat.action)
    assert not any(a.flags.writeable for a in arrays)


def test_lattice_record_matches_per_subgroup_routines(lattice_groups):
    """contains, normal, the normalizer orders and the order slices, on all of standard_catalog(60)."""
    for group in lattice_groups:
        assert_record_matches_per_subgroup_routines(group)


def test_subgroup_class_ids_match_conjugacy_classes(lattice_groups):
    for group in lattice_groups:
        expected = subgroup_conjugacy_classes(all_subgroups(group))
        assert positions_by_class_id(group) == expected, group.label
    with pytest.raises(ValueError):
        lattice(lattice_groups[0]).class_id[1] = 5


def test_subgroup_class_ids_need_no_prior_all_subgroups(monkeypatch):
    """The ids come from the one lattice entry, not from a side effect of all_subgroups."""
    group = build("sym:4")

    def no_call(*args, **kwargs):
        raise AssertionError("the lattice went through all_subgroups")

    monkeypatch.setattr(subgroups_module, "all_subgroups", no_call)
    ids = lattice(group).class_id
    monkeypatch.undo()
    assert lattice(group).class_id is ids
    assert positions_by_class_id(group) == subgroup_conjugacy_classes(all_subgroups(group))


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:16", "alt:5", "prod(cyclic:2,q8)", "elab:2^4"])
def test_subgroups_within_same_with_and_without_parent_lattice(spec):
    """The standalone enumeration of A equals the parent's lattice filtered by containment in A."""
    group = build(spec)
    lattice = all_subgroups(group)
    for a in lattice:
        assert subgroups_within(a) == [s for s in lattice if a.contains_subgroup(s)], a
    with pytest.raises(EnumerationCapExceeded):
        subgroups_within(whole_group(group), cap=group.order - 1)


def test_enumeration_cap():
    big = build("elab:3^4")
    with pytest.raises(EnumerationCapExceeded):
        all_subgroups(big)
    with pytest.raises(EnumerationCapExceeded):
        lattice(big)
    assert len(all_subgroups(big, cap=81)) == 212
    assert len(lattice(big, cap=81).class_id) == 212


def test_subgroups_of_order():
    s4 = build("sym:4")
    assert len(subgroups_of_order(s4, 3)) == 4
    assert subgroups_of_order(s4, 1) == [trivial_subgroup(s4)]
    c6 = build("cyclic:6")
    assert subgroups_of_order(c6, 4) == []


def test_is_normal_examples():
    s3 = build("sym:3")
    assert is_normal(subgroups_of_order(s3, 3)[0])
    assert not is_normal(subgroups_of_order(s3, 2)[0])
    c12 = build("cyclic:12")
    assert all(is_normal(s) for s in all_subgroups(c12))


def test_normalizer_examples():
    s3 = build("sym:3")
    assert normalizer(subgroups_of_order(s3, 3)[0]).size == 6
    swap = closure_of(ComplexSet(s3, by_names(s3, "(1 2)")))
    assert normalizer(swap) == swap
    s4 = build("sym:4")
    sylow3 = subgroups_of_order(s4, 3)[0]
    assert normalizer(sylow3).size == 6


def test_normalizer_and_is_normal_match_the_former_scans(lattice_groups):
    """normalizer and is_normal agree with the former table scans on every lattice subgroup."""
    for group in lattice_groups:
        for s in all_subgroups(group):
            assert list(normalizer(s).members) == normalizer_by_scan(s), (group.label, s)
            assert is_normal(s) == is_normal_by_scan(s), (group.label, s)


def assert_is_normal_within_matches(group, subs):
    """On every ordered pair, the former scan and the normalizer containment that replaced it agree.

    On every pair of prime index, the one-row test S3.I uses agrees too.
    Returns the number of prime-index pairs and how many are not normal.
    """
    norms = [normalizer(a) for a in subs]
    pairs = not_normal = 0
    for a, norm in zip(subs, norms):
        for b in subs:
            expected = is_normal_within_by_scan(a, b)
            assert expected == norm.contains_subgroup(b), (group.label, a, b)
            if b.contains_subgroup(a) and b.size % a.size == 0 and is_prime(b.size // a.size):
                assert _is_normal_of_prime_index(a, b) == expected, (group.label, a, b)
                pairs += 1
                not_normal += not expected
    return pairs, not_normal


def test_is_normal_within_matches_the_former_scan():
    """Lattice subgroups up to order 24, and the terms of every Sylow tower, also above the lattice cap.

    The one-row test sees non-normal pairs on the lattices, such as <(1 2)> < sym:3,
    and every step of every tower, each of prime index.
    """
    counts = [assert_is_normal_within_matches(group, all_subgroups(group)) for _, group in standard_catalog(24)]
    assert tuple(map(sum, zip(*counts))) == (834, 110)
    for group in [g for _, g in standard_catalog(60)] + [build(spec) for spec in LARGE_SPECS]:
        for p in prime_factorization(group.order):
            chain = sylow_chain(group, p).chain
            assert assert_is_normal_within_matches(group, chain) == (len(chain) - 1, 0), (group.label, p)


@pytest.mark.parametrize("x", [-1, 6])
@pytest.mark.parametrize("call", [
    lambda group, x: centralizer(group, x),
], ids=["centralizer"])
def test_subgroup_constructions_refuse_an_index_out_of_range(call, x):
    """-1 would wrap around to the last element, and h would raise a bare IndexError."""
    with pytest.raises(ValueError, match="out of range for order 6"):
        call(build("sym:3"), x)


def test_centralizer_examples():
    s3 = build("sym:3")
    assert centralizer(s3, 0).size == 6
    rot = by_names(s3, "(1 2 3)")[0]
    assert set(centralizer(s3, rot).members) == set(cyclic_subgroup(s3, rot).members)
    c8 = build("cyclic:8")
    assert all(centralizer(c8, x).size == 8 for x in range(8))


def test_center_examples():
    assert center(build("cyclic:9")).size == 9
    assert center(build("sym:3")).size == 1
    assert center(build("q8")).size == 2


def test_conjugacy_classes():
    c5 = build("cyclic:5")
    assert conjugacy_classes(c5).class_sizes == (1,) * 5
    s3 = build("sym:3")
    part = conjugacy_classes(s3)
    assert sorted(part.class_sizes) == [1, 2, 3]
    q8 = build("q8")
    assert sorted(conjugacy_classes(q8).class_sizes) == [1, 1, 2, 2, 2]


def test_conjugacy_classes_match_oracle_and_class_equation():
    for group in [group for _, group in standard_catalog(60)] + [build("sym:5"), build("alt:6")]:
        part = conjugacy_classes(group)
        classes = part.classes()
        assert {frozenset(c) for c in classes} == set(conjugacy_partition(group)), group.label
        assert sum(part.class_sizes) == group.order
        reps = part.representatives
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for c, (rep, size) in enumerate(zip(reps, part.class_sizes)):
            assert part.class_of[rep] == c and min(classes[c]) == rep and len(classes[c]) == size
            assert size * centralizer(group, rep).size == group.order


def test_quotient_by_trivial_is_identity_relabeling():
    s3 = build("sym:3")
    q = quotient(s3, trivial_subgroup(s3))
    assert np.array_equal(q.group.table, s3.table)
    assert q.section.tolist() == list(range(6))


def test_quotient_examples():
    s3 = build("sym:3")
    q = quotient(s3, subgroups_of_order(s3, 3)[0])
    assert q.group.order == 2
    q8 = build("q8")
    quo = quotient(q8, center(q8))
    assert quo.group.order == 4
    assert sorted(quo.group.elem_order.tolist()) == [1, 2, 2, 2]
    with pytest.raises(ValueError, match="quotient requires a normal subgroup"):
        quotient(s3, subgroups_of_order(s3, 2)[0])


def test_quotient_map_is_surjective_homomorphism():
    s4 = build("sym:4")
    v4 = next(s for s in subgroups_of_order(s4, 4) if is_normal(s))
    q = quotient(s4, v4)
    assert q.group.order == 6
    assert sorted(set(q.to_coset.tolist())) == list(range(6))
    for a in range(s4.order):
        for b in range(s4.order):
            lhs = q.to_coset[s4.table[a, b]]
            rhs = q.group.table[q.to_coset[a], q.to_coset[b]]
            assert lhs == rhs
    # section picks the minimal representative of each coset
    for c in range(q.group.order):
        members = np.flatnonzero(q.to_coset == c)
        assert q.section[c] == members.min()


def test_subgroup_conjugacy_classes():
    s4 = build("sym:4")
    sylow3 = subgroups_of_order(s4, 3)
    assert subgroup_conjugacy_classes(sylow3) == [[0, 1, 2, 3]]
    v4 = [s for s in subgroups_of_order(s4, 4) if is_normal(s)]
    assert subgroup_conjugacy_classes(v4) == [[0]]
    twos = subgroups_of_order(s4, 2)
    classes = subgroup_conjugacy_classes(twos)
    assert sorted(len(c) for c in classes) == [3, 6]
    for orbit in classes:
        for pos in orbit:
            assert len(orbit) * normalizer(twos[pos]).size == s4.order
    with pytest.raises(ValueError, match="operands live in different parent groups"):
        subgroup_conjugacy_classes(sylow3 + [trivial_subgroup(build("sym:3"))])


def test_automorphism_counts():
    assert len(automorphisms(build("cyclic:2"))) == 1
    assert len(automorphisms(build("cyclic:3"))) == 2
    assert len(automorphisms(build("elab:2^2"))) == 6
    assert len(automorphisms(build("sym:3"))) == 6
    assert len(automorphisms(build("q8"))) == 24


def test_automorphisms_are_honest_and_capped():
    group = build("dihedral:8")
    autos = automorphisms(group)
    assert len(autos) == 8
    assert len({tuple(r) for r in autos}) == len(autos)
    for phi in autos:
        assert is_hom_bijection(group, phi)
    with pytest.raises(EnumerationCapExceeded):
        automorphisms(build("cyclic:25"))


def test_automorphism_search_bound_refuses_at_its_edge(monkeypatch):
    """elab:2^4's largest level, 20,160 partial maps, is the largest under the default caps."""
    assert 20160 < subgroups_module.MAX_AUTOMORPHISM_MAPS < 624960  # elab:2^5's fourth level
    monkeypatch.setattr(subgroups_module, "MAX_AUTOMORPHISM_MAPS", 20159)
    with pytest.raises(EnumerationCapExceeded, match="more than 20159 partial automorphism maps"):
        automorphisms(build("elab:2^4"))
    monkeypatch.setattr(subgroups_module, "MAX_AUTOMORPHISM_MAPS", 20160)
    assert len(automorphisms(build("elab:2^4"))) == 20160


@pytest.mark.parametrize(
    "group",
    [g for _, g in standard_catalog(24)] + [build(spec) for spec in ("cyclic:48", "cyclic:64", "dihedral:64")],
    ids=lambda g: g.label,
)
def test_automorphisms_match_backtracking_oracle(group):
    """Row for row on the catalog up to 24, which includes prod(cyclic:2,q8), and on
    three larger groups with long cyclic pieces."""
    autos = automorphisms(group, cap=128)
    assert autos.dtype == np.int32 and autos.shape[1] == group.order
    assert [tuple(int(v) for v in row) for row in autos] == automorphisms_by_backtracking(group)
    assert np.array_equal(automorphisms(group, cap=128), autos)
    assert not autos.flags.writeable
    with pytest.raises(ValueError):
        autos[0, 0] = 1


@pytest.mark.parametrize("group", [g for _, g in standard_catalog(24)], ids=lambda g: g.label)
def test_characteristic_verdicts_match_the_automorphism_oracle(group):
    """Every lattice subgroup, 1 and G included, against Aut(G) as the backtracking oracle finds it,
    and the batched core against one call per subgroup."""
    autos = automorphisms_by_backtracking(group)
    assert [tuple(int(v) for v in row) for row in automorphisms(group)] == autos
    subs = lattice(group).subs
    single = [is_characteristic(s) for s in subs]
    assert single == [all({phi[x] for x in s.members} == set(s.members) for phi in autos) for s in subs]
    assert subgroups_module._characteristic(group, subs, 24) == single


@pytest.mark.parametrize("spec", catalog_specs(24) + ["elab:2^4"])
def test_automorphisms_come_out_sorted_without_a_sort(spec):
    """The search yields its rows in ascending lexicographic order, as a lexsort of them would."""
    autos = automorphisms(build(spec))
    assert np.array_equal(autos, autos[np.lexsort(autos.T[::-1])])


permutations_up_to_6 = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
)
element_picks = st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(permutations_up_to_6, element_picks, element_picks)
def test_random_permutation_groups_match_oracles(images, picks_a, picks_b):
    gens = [Permutation(p) for p in images]
    try:
        group = group_from_generators(gens, cap=24)
    except ClosureExceedsCap:
        assume(False)
    table, names = table_by_row_index(gens)
    assert np.array_equal(group.table, table) and list(group.element_names) == names
    for p in prime_factorization(group.order):
        tower = [s._arr for s in sylow_chain(group, p).chain]
        expected = tower_by_quotients(group, p, valuation(group.order, p))
        assert [a.tolist() for a in tower] == [a.tolist() for a in expected]
    autos = automorphisms(group)
    assert [tuple(int(v) for v in row) for row in autos] == automorphisms_by_backtracking(group)
    for row in autos:
        assert is_hom_bijection(group, row)
    trivial = np.zeros(1, dtype=np.int32)
    gens_a = np.unique(np.array(picks_a, dtype=np.int32) % group.order)
    gens_b = np.unique(np.array(picks_b, dtype=np.int32) % group.order)
    a = closure_of(ComplexSet(group, gens_a))
    b = closure_of(ComplexSet(group, gens_b))
    assert np.array_equal(a._arr, closure_by_products(group, trivial, gens_a))
    assert np.array_equal(b._arr, closure_by_products(group, trivial, gens_b))
    joined = subgroups_module._extend_subgroup(group, a._arr, b._arr)
    assert np.array_equal(np.flatnonzero(joined), closure_by_products(group, a._arr, b._arr, gen_closed=True))
    assert positions_by_class_id(group) == subgroup_conjugacy_classes(all_subgroups(group))
    assert_record_matches_per_subgroup_routines(group)
    assert_same_record(lattice(group), lattice_by_cyclic_extension(group), group.label)
    if group.order <= 12:
        assert {frozenset(s.members) for s in all_subgroups(group)} == subgroups_by_subsets(group)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(permutations_up_to_6, st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=6),
       st.booleans(), st.booleans())
def test_complex_powers_match_the_set_oracle(images, picks, with_identity, complement):
    """Random complexes with and without e: (r, s) and the stabilised group equal the frozenset oracle's.

    complement draws the group minus the picks instead, mostly more than
    h/2 elements, where a product reaches the whole group by pigeonhole.
    """
    try:
        group = group_from_generators([Permutation(p) for p in images], cap=24)
    except ClosureExceedsCap:
        assume(False)
    members = {x % group.order for x in picks}
    if complement:
        members = set(range(group.order)) - members
    members = members | {0} if with_identity else members - {0}
    assume(members)
    r, s, stab = complex_power_stabilization(ComplexSet(group, members))
    assert (r, s, frozenset(stab.members)) == power_sequence_by_sets(group, members)
    if with_identity:
        assert s == 1 and frozenset(stab.members) == brute_closure(group, members)


@pytest.mark.parametrize("spec", ["cyclic:2", "elab:2^3", "q8", "sym:4", "dihedral:12", "prod(sym:3,cyclic:4)"])
def test_index_two_subgroups_sit_on_the_half_order_boundary(spec):
    """|A| = h/2 gives A^2 = A, not the whole group: both shortcuts need more than h/2 elements.

    A is its own closure and its own extension by its members, and its coset G \\ A squares to A.
    """
    group = build(spec)
    halves = subgroups_of_order(group, group.order // 2)
    assert halves
    for a in halves:
        assert complex_power_stabilization(ComplexSet(group, a._arr)) == (1, 1, a)
        assert closure_of(ComplexSet(group, a.members)) == a
        assert np.array_equal(np.flatnonzero(subgroups_module._extend_subgroup(group, a._arr, a._arr)), a._arr)
        assert np.array_equal(np.flatnonzero(subgroups_module._extend_subgroup(group, a._arr, a._arr[1:])), a._arr)
        coset = np.setdiff1d(np.arange(group.order), a._arr)
        r, s, stab = complex_power_stabilization(ComplexSet(group, coset))
        assert (r, s, stab) == (1, 2, a)
        assert (r, s, frozenset(stab.members)) == power_sequence_by_sets(group, coset)
        outside = int(coset[0])
        assert subgroups_module._extend_subgroup(group, a._arr, np.array([outside])).all()


@pytest.mark.parametrize("spec", ["sym:4", "alt:4", "dihedral:12", "q8", "cyclic:10", "prod(sym:3,cyclic:2)"])
def test_closures_of_complexes_around_half_the_order_match_the_oracle(spec):
    """Complexes of h/2 - 1, h/2 and h/2 + 1 elements, with and without e, against brute_closure."""
    group = build(spec)
    rng = np.random.default_rng(7)
    rest = np.arange(1, group.order)
    for size in (group.order // 2 - 1, group.order // 2, group.order // 2 + 1):
        for with_identity in (False, True):
            for _ in range(8):
                picks = rng.choice(rest, size=size - with_identity, replace=False)
                members = np.append(picks, 0) if with_identity else picks
                got = closure_of(ComplexSet(group, members))
                assert frozenset(got.members) == brute_closure(group, members), (size, members)
                if size > group.order // 2:
                    assert got.size == group.order


def test_is_characteristic():
    d8 = build("dihedral:8")
    assert is_characteristic(center(d8))
    assert is_characteristic(whole_group(d8))
    klein = build("elab:2^2")
    assert not is_characteristic(closure_of(ComplexSet(klein, [1])))
    assert is_characteristic(trivial_subgroup(klein))


def test_is_cyclic():
    assert is_cyclic(build("cyclic:12"))
    assert not is_cyclic(build("elab:2^2"))
    assert is_cyclic(build("cyclic:1"))


def test_coprime_permutable_subgroups_commute_elementwise():
    # two subgroups of coprime order, each normalizing the other, commute
    for spec in ("cyclic:6", "prod(sym:3,cyclic:2)", "cyclic:12", "alt:4"):
        group = build(spec)
        subs = all_subgroups(group)
        for a in subs:
            for b in subs:
                if np.gcd(a.size, b.size) != 1:
                    continue
                if not normalizer(a).contains_subgroup(b) or not normalizer(b).contains_subgroup(a):
                    continue
                for x in a.members:
                    for y in b.members:
                        assert group.table[x, y] == group.table[y, x]
