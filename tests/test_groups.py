"""Group construction, element arithmetic and their axioms."""

import math
from pathlib import Path

import numpy as np
import pytest

import sylowlab
from sylowlab.catalog import build, catalog_specs, parse_spec, standard_catalog
from sylowlab.errors import ClosureExceedsCap, NotAGroup
from sylowlab.groups import (
    Permutation,
    conjugate,
    conjugates,
    element_order,
    group_from_generators,
    group_from_table,
    power,
)

from sylowlab.subgroups import cyclic_subgroup

from oracles import (
    brute_closure,
    build_by_oracles,
    closure_by_tuples,
    conj_table_by_inverse_rows,
    element_order_oracle,
    power_by_squaring,
    power_table_by_rows,
)
from test_sylow import LARGE_SPECS

THREE_CYCLE = Permutation([1, 2, 0])      # (1 2 3)
SWAP = Permutation([1, 0, 2])             # (1 2)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError, match=r"images \(0, 0, 1\) are not a bijection on 0..2"):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError, match=r"images \(0, 3, 1\) are not a bijection on 0..2"):
        Permutation([0, 3, 1])


def test_permutation_cycle_rendering():
    assert Permutation([1, 2, 0, 4, 3]).cycle_string() == "(1 2 3)(4 5)"
    assert Permutation(range(4)).cycle_string() == "e"


def test_generators_close_to_sym3():
    group = group_from_generators([THREE_CYCLE, SWAP])
    assert group.order == 6
    assert group.element_names[0] == "e"
    # a b reads left to right, apply (1 2 3) then (1 2): point 1 -> 2 -> 1, point 3 -> 1 -> 2
    a, b = group.element_names.index("(1 2 3)"), group.element_names.index("(1 2)")
    assert group.name_of(group.table[a, b]) == "(2 3)"


def test_empty_generator_list_gives_trivial_group():
    group = group_from_generators([])
    assert group.order == 1
    assert group.element_names == ("e",)


def test_klein_four_from_double_transpositions():
    group = group_from_generators([Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
    assert group.order == 4
    assert sorted(group.elem_order.tolist()) == [1, 2, 2, 2]


def test_generator_closure_matches_orbit_oracle():
    # independent closure: orbits of tuples under repeated generator application
    gens = [THREE_CYCLE.images, SWAP.images]
    seen = {tuple(range(3))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                prod = tuple(g[v] for v in cur)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    group = group_from_generators([THREE_CYCLE, SWAP])
    assert set(group.element_names) == {Permutation(images).cycle_string() for images in seen}


def test_generator_closure_is_deterministic():
    a = group_from_generators([THREE_CYCLE, SWAP])
    b = group_from_generators([THREE_CYCLE, SWAP])
    assert np.array_equal(a.table, b.table)
    assert a.element_names == b.element_names


def test_closure_cap_is_enforced():
    with pytest.raises(ClosureExceedsCap):
        group_from_generators([THREE_CYCLE, SWAP], cap=3)


def test_mixed_degree_generators_rejected():
    with pytest.raises(ValueError, match="generators must share one degree"):
        group_from_generators([THREE_CYCLE, Permutation([1, 0])])


def test_table_group_mod4():
    group = group_from_table(cyclic_table(4))
    assert group.order == 4
    assert group.elem_order.tolist() == [1, 4, 2, 4]
    assert group.inverse.tolist() == [0, 3, 2, 1]


def test_trivial_table():
    assert group_from_table([[0]]).order == 1


def test_table_without_inverse_rejected():
    with pytest.raises(NotAGroup) as err:
        group_from_table([[0, 1], [1, 1]])
    assert err.value.axiom == "inverse"


def test_table_identity_violation_rejected():
    with pytest.raises(NotAGroup) as err:
        group_from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert err.value.axiom == "identity"


def test_table_associativity_violation_rejected():
    # rows/columns at the identity are fine and inverses exist, but
    # (1*1)*2 = 2*2 = 0 while 1*(1*2) = 1*0 = 1
    with pytest.raises(NotAGroup) as err:
        group_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 0]])
    assert err.value.axiom in ("associativity", "inverse")


# A 5-element loop: a Latin square with identity 0 that is not associative.
LOOP5 = [[0, 1, 2, 3, 4], [1, 4, 0, 2, 3], [2, 3, 1, 4, 0], [3, 0, 4, 1, 2], [4, 2, 3, 0, 1]]


def test_table_above_construction_cap_rejected():
    with pytest.raises(ClosureExceedsCap):
        group_from_table(LOOP5, cap=4)
    with pytest.raises(ClosureExceedsCap):
        group_from_table(cyclic_table(5), cap=4)
    with pytest.raises(NotAGroup) as err:
        group_from_table(LOOP5)
    assert err.value.axiom == "associativity"


def test_malformed_tables_rejected():
    with pytest.raises(ValueError):
        group_from_table([[0, 1]])
    with pytest.raises(ValueError):
        group_from_table([[0, 5], [5, 0]])


def test_element_order_examples():
    c12 = group_from_table(cyclic_table(12))
    assert element_order(c12, 0) == 1
    assert element_order(c12, 1) == 12
    g8 = power(c12, 1, 8)
    assert element_order(c12, g8) == 3
    for x in range(c12.order):
        assert element_order(c12, x) == element_order_oracle(c12, x)


def test_power_examples():
    c6 = group_from_table(cyclic_table(6))
    assert power(c6, 4, 0) == 0
    assert power(c6, 1, -3) == 3
    assert power(c6, 1, 7) == 1


def test_power_composition_law():
    group = group_from_generators([THREE_CYCLE, SWAP])
    for x in range(group.order):
        for k in range(-5, 8):
            for m in range(-4, 6):
                assert power(group, power(group, x, k), m) == power(group, x, k * m)


# The pgroups benchmark groups, and two large groups with long and with mixed element orders.
POWER_TABLE_SPECS = [
    "elab:2^4", "elab:2^5", "prod(cyclic:2,q8)", "dihedral:16", "dihedral:32", "dihedral:64",
    "cyclic:64", "elab:3^3", "perm:(1 4 7)(2 5 8)(3 6 9);(4 5 6)(7 9 8)",
    "perm:(1 2 3 4 5 6 7 8 9);(2 8 5)(3 6 9)", "elab:5^2", "q8", "dihedral:512", "prod(sym:5,cyclic:4)",
]


@pytest.fixture(scope="module")
def power_table_groups():
    return [group for _, group in standard_catalog(60)] + [build(spec) for spec in POWER_TABLE_SPECS]


def test_power_table_rows_are_the_powers(power_table_groups):
    """powers[k, x] = x^k for k up to the largest element order, and the array is read-only."""
    for group in power_table_groups:
        table, idx = group.powers, np.arange(group.order, dtype=np.int32)
        assert table.shape == (int(group.elem_order.max()) + 1, group.order), group.label
        for k in range(table.shape[0]):
            assert np.array_equal(table[k], power_by_squaring(group, idx, k)), (group.label, k)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_orders_exponent_and_cyclic_subgroups_read_the_power_table(power_table_groups):
    """Element orders and the exponent match repeated multiplication; <x> matches a brute closure, one x per order."""
    for group in power_table_groups:
        orders = [element_order_oracle(group, x) for x in range(group.order)]
        assert group.elem_order.tolist() == orders, group.label
        assert group.exponent() == math.lcm(*orders), group.label
        for x in np.unique(group.elem_order, return_index=True)[1].tolist():
            assert frozenset(cyclic_subgroup(group, x).members) == brute_closure(group, [x]), (group.label, x)


@pytest.mark.parametrize("spec", list(dict.fromkeys(
    catalog_specs(60) + POWER_TABLE_SPECS + LARGE_SPECS + ["elab:3^5", "elab:5^3", "elab:2^8", "dihedral:2", "dihedral:62"])))
def test_builders_match_the_former_builders(spec):
    """Table, names and power table equal those of the tuple closure, the digit-formula elab table,
    the block-built dihedral table (every order up to 64, and 512), the axis-rule q8 table and the row-by-row power walk."""
    group = build(spec)
    table, names = build_by_oracles(parse_spec(spec))
    assert np.array_equal(group.table, table) and group.element_names == names
    powers = power_table_by_rows(table)
    assert np.array_equal(group.powers, powers)
    assert np.array_equal(group.elem_order, np.argmax(powers[1:] == 0, axis=0) + 1)


def test_generator_builder_keeps_the_former_elements():
    """The elements, named by their cycle strings, come in the order of the one-element-at-a-time closure."""
    for gens in ([THREE_CYCLE, SWAP], [SWAP, THREE_CYCLE], [Permutation([1, 2, 3, 4, 5, 0]), Permutation([1, 0, 3, 2, 5, 4])]):
        expected = tuple(p.cycle_string() for p in closure_by_tuples(gens)[1])
        assert group_from_generators(gens).element_names == expected


@pytest.mark.parametrize("x", [-1, 6])
def test_cyclic_subgroup_refuses_an_index_out_of_range(x):
    """A negative index would otherwise wrap around to the last element."""
    with pytest.raises(ValueError):
        cyclic_subgroup(group_from_table(cyclic_table(6)), x)


@pytest.mark.parametrize("x", [-1, 6])
@pytest.mark.parametrize("call", [
    lambda group, x: element_order(group, x),
    lambda group, x: power(group, x, 2),
    lambda group, x: conjugate(group, x, 1),
    lambda group, x: conjugate(group, 1, x),
], ids=["element_order", "power", "conjugate_x", "conjugate_t"])
def test_element_arithmetic_refuses_an_index_out_of_range(call, x):
    """-1 would wrap around to the last element, and h would raise a bare IndexError."""
    with pytest.raises(ValueError, match="out of range for order 6"):
        call(group_from_table(cyclic_table(6)), x)


def test_conjugate_examples():
    group = group_from_generators([THREE_CYCLE, SWAP])
    names = group.element_names
    assert conjugate(group, 0, 2) == 0
    got = conjugate(group, names.index("(1 2)"), names.index("(1 2 3)"))
    assert names[got] == "(2 3)"
    c6 = group_from_table(cyclic_table(6))
    for x in range(6):
        for t in range(6):
            assert conjugate(c6, x, t) == x


def test_conjugation_preserves_order_and_lagrange():
    group = group_from_generators([THREE_CYCLE, SWAP])
    for x in range(group.order):
        assert group.order % element_order(group, x) == 0
        for t in range(group.order):
            assert element_order(group, conjugate(group, x, t)) == element_order(group, x)


def test_memo_computes_once_and_stores_arrays_read_only():
    group = group_from_table(cyclic_table(4))
    calls = []

    def compute():
        calls.append(1)
        return np.arange(3)

    first = group.memo("key", compute)
    assert group.memo("key", compute) is first and calls == [1]
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0


def test_only_the_groups_module_names_the_group_cache():
    """Every other module caches through FiniteGroup.memo, so the cache layout stays in one place."""
    src = Path(sylowlab.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "groups.py" and "_cache" in p.read_text()]
    assert offenders == []


# PSL(2,7), order 168, as permutations of the seven points of the Fano plane.
CONJUGATION_SPECS = catalog_specs(60) + ["sym:5", "perm:(1 2 3 4 5 6 7);(1 2)(3 6)"]


def test_conjugates_match_the_former_conjugation_table():
    """conj_table and conjugates on random actor and member subsets agree with the former whole-table formula."""
    rng = np.random.default_rng(21)
    for spec in CONJUGATION_SPECS:
        group = build(spec)
        expected = conj_table_by_inverse_rows(group)
        assert np.array_equal(group.conj_table(), expected), spec
        for _ in range(3):
            actors = rng.choice(group.order, size=rng.integers(1, group.order + 1), replace=False)
            members = rng.choice(group.order, size=rng.integers(1, group.order + 1), replace=False)
            assert np.array_equal(conjugates(group, actors, members), expected[np.ix_(actors, members)]), spec
