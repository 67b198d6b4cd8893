"""Group construction, element arithmetic and their axioms."""

from pathlib import Path

import numpy as np
import pytest

import sylowlab
from sylowlab.errors import ClosureExceedsCap, InvalidPermutation, NotAGroup
from sylowlab.groups import (
    Permutation,
    conjugate,
    element_order,
    group_from_generators,
    group_from_table,
    power,
)

from oracles import element_order_oracle

THREE_CYCLE = Permutation([1, 2, 0])      # (1 2 3)
SWAP = Permutation([1, 0, 2])             # (1 2)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_permutation_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        Permutation([0, 0, 1])
    with pytest.raises(InvalidPermutation):
        Permutation([0, 3, 1])


def test_permutation_cycle_rendering():
    assert Permutation([1, 2, 0, 4, 3]).cycle_string() == "(1 2 3)(4 5)"
    assert Permutation.identity(4).cycle_string() == "e"
    assert Permutation([1, 0, 2]).inverse() == Permutation([1, 0, 2])


def test_compose_reads_left_to_right():
    # apply (1 2 3) then (1 2): point 1 -> 2 -> 1, point 3 -> 1 -> 2
    both = THREE_CYCLE.compose(SWAP)
    assert both.images == (0, 2, 1)
    with pytest.raises(InvalidPermutation):
        SWAP.compose(Permutation([1, 0]))


def test_generators_close_to_sym3():
    group = group_from_generators([THREE_CYCLE, SWAP])
    assert group.order == 6
    assert group.identity == 0
    assert group.perms[0].is_identity()


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
    assert set(p.images for p in group.perms) == seen


def test_generator_closure_is_deterministic():
    a = group_from_generators([THREE_CYCLE, SWAP])
    b = group_from_generators([THREE_CYCLE, SWAP])
    assert np.array_equal(a.table, b.table)
    assert a.element_names == b.element_names


def test_closure_cap_is_enforced():
    with pytest.raises(ClosureExceedsCap):
        group_from_generators([THREE_CYCLE, SWAP], cap=3)


def test_mixed_degree_generators_rejected():
    with pytest.raises(InvalidPermutation):
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
    for arr in (first, group.conj_table(), group.central_mask()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_only_the_groups_module_names_the_group_cache():
    """Every other module caches through FiniteGroup.memo, so the cache layout stays in one place."""
    src = Path(sylowlab.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "groups.py" and "_cache" in p.read_text()]
    assert offenders == []
