"""Sylow towers, chief series, central witnesses, coprime decompositions."""

from math import gcd

import numpy as np
import pytest

from sylowlab.catalog import EXTRASPECIAL_27_EXP9_SPEC, HEISENBERG_3_SPEC, build, standard_catalog
from sylowlab.groups import element_order
from sylowlab.numtheory import divisors, prime_factorization, valuation
from sylowlab.subgroups import (
    ComplexSet,
    center,
    closure_of,
    cyclic_subgroup,
    is_normal,
    subgroups_of_order,
    whole_group,
)
from sylowlab.sylow import (
    central_element_of_order_p,
    chief_series,
    coprime_decomposition,
    sylow_chain,
)

from oracles import is_normal_within_by_scan, tower_by_quotients

# Groups of order 120-512, above the lattice and automorphism caps.
LARGE_SPECS = [
    "sym:5", "alt:6", "prod(sym:4,dihedral:12)", "prod(sym:5,cyclic:3)", "prod(sym:4,elab:2^4)",
    "prod(alt:5,dihedral:8)", "prod(sym:5,cyclic:4)", "dihedral:512", "elab:2^9",
    "prod(q8,elab:2^6)",
]

P_GROUP_SPECS = [
    "elab:2^4", "elab:2^5", "prod(cyclic:2,q8)", "dihedral:16", "dihedral:32", "dihedral:64",
    "cyclic:64", "elab:3^3", HEISENBERG_3_SPEC, EXTRASPECIAL_27_EXP9_SPEC, "elab:5^2", "q8",
]


def assert_valid_chain(group, p, chain):
    lam = valuation(group.order, p)
    assert [s.size for s in chain.chain] == [p ** (i + 1) for i in range(lam)]
    for small, big in zip(chain.chain, chain.chain[1:]):
        assert big.contains_subgroup(small) and small.size < big.size
        assert is_normal_within_by_scan(small, big)


def test_sylow_chain_sym4():
    s4 = build("sym:4")
    three = sylow_chain(s4, 3)
    assert [s.size for s in three.chain] == [3]
    assert three.top in subgroups_of_order(s4, 3)
    two = sylow_chain(s4, 2)
    assert_valid_chain(s4, 2, two)
    assert two.top in subgroups_of_order(s4, 8)


def test_sylow_chain_cyclic8_unique():
    c8 = build("cyclic:8")
    chain = sylow_chain(c8, 2)
    assert_valid_chain(c8, 2, chain)
    for term in chain.chain:
        assert subgroups_of_order(c8, term.size) == [term]


def test_sylow_chain_errors():
    s4 = build("sym:4")
    with pytest.raises(ValueError, match="5 does not divide 24"):
        sylow_chain(s4, 5)
    with pytest.raises(ValueError):
        sylow_chain(s4, 6)


def test_sylow_chain_catalog_sweep():
    for _, group in standard_catalog(24):
        for p in prime_factorization(group.order):
            chain = sylow_chain(group, p)
            assert_valid_chain(group, p, chain)
            assert chain.top in subgroups_of_order(group, chain.top.size)


@pytest.mark.parametrize(
    "group",
    [g for _, g in standard_catalog(60)] + [build(spec) for spec in LARGE_SPECS],
    ids=lambda g: g.label,
)
def test_sylow_chain_matches_the_quotient_recursion(group):
    """Member arrays equal those of the former recursion through derived groups."""
    for p in prime_factorization(group.order):
        chain = sylow_chain(group, p)
        expected = tower_by_quotients(group, p, valuation(group.order, p))
        assert len(chain.chain) == len(expected)
        for term, arr in zip(chain.chain, expected):
            assert term._arr.dtype == np.int32 and np.array_equal(term._arr, arr)


def test_cached_sylow_chain_equals_a_fresh_build():
    """The tower is not memoised; a second build, on a freshly built group, gives the same members."""
    for name, group in standard_catalog(24):
        for p in prime_factorization(group.order):
            cached = sylow_chain(group, p)
            fresh = sylow_chain(build(name), p)
            assert [s.members for s in cached.chain] == [s.members for s in fresh.chain]


def test_chief_series_prime_order_is_empty():
    assert chief_series(build("cyclic:7")).series == ()


def test_chief_series_quaternion():
    q8 = build("q8")
    series = chief_series(q8).series
    assert [t.size for t in series] == [2, 4]
    assert series[0] == center(q8)
    for term in series:
        assert is_normal(term)
    for small, big in zip(series, series[1:]):
        assert big.contains_subgroup(small)


def test_chief_series_elab9():
    e9 = build("elab:3^2")
    series = chief_series(e9).series
    assert [t.size for t in series] == [3]
    assert is_normal(series[0])


def test_chief_series_catalog_p_groups():
    for spec in ("dihedral:16", "cyclic:27", "elab:2^4", "prod(cyclic:2,q8)"):
        group = build(spec)
        p = next(iter(prime_factorization(group.order)))
        series = chief_series(group).series
        lam = valuation(group.order, p)
        assert [t.size for t in series] == [p**i for i in range(1, lam)]
        assert all(is_normal(t) for t in series)


@pytest.mark.parametrize("spec", P_GROUP_SPECS)
def test_chief_series_is_the_sylow_tower_below_its_top(spec):
    group = build(spec)
    p = next(iter(prime_factorization(group.order)))
    series = chief_series(group).series
    assert series == sylow_chain(group, p).chain[:-1]
    assert all(is_normal(t) for t in series)


def test_chief_series_rejects_non_p_group():
    with pytest.raises(ValueError, match="order 6 is not a prime power"):
        chief_series(build("sym:3"))


def test_central_element_quaternion():
    q8 = build("q8")
    witness = central_element_of_order_p(q8, whole_group(q8))
    assert q8.element_names[witness] == "-1"


def test_central_element_in_center_itself():
    for spec in ("q8", "dihedral:8", "cyclic:27", "elab:3^3"):
        group = build(spec)
        z = center(group)
        witness = central_element_of_order_p(group, z)
        assert witness in z
        assert element_order(group, witness) in prime_factorization(group.order)


def test_central_element_dihedral_klein():
    d8 = build("dihedral:8")
    klein = closure_of(ComplexSet(d8, [2, 4]))  # r^2 and s
    assert klein.size == 4
    witness = central_element_of_order_p(d8, klein)
    assert d8.element_names[witness] == "r^2"
    assert witness in center(d8)


def test_central_element_errors():
    d8 = build("dihedral:8")
    with pytest.raises(ValueError, match="need a nontrivial normal subgroup"):
        central_element_of_order_p(d8, closure_of(ComplexSet(d8, [])))
    with pytest.raises(ValueError, match="subgroup is not normal in the parent"):
        central_element_of_order_p(d8, closure_of(ComplexSet(d8, [4])))
    with pytest.raises(ValueError, match="order 6 is not a prime power"):
        central_element_of_order_p(build("sym:3"), whole_group(build("sym:3")))
    with pytest.raises(ValueError, match="does not belong to the given group"):
        central_element_of_order_p(d8, whole_group(build("dihedral:8")))


def test_coprime_decomposition_identity():
    c6 = build("cyclic:6")
    dec = coprime_decomposition(c6, 0, 1, 1)
    assert (dec.a_part, dec.b_part) == (0, 0)


def test_coprime_decomposition_cyclic6():
    c6 = build("cyclic:6")
    dec = coprime_decomposition(c6, 1, 2, 3)
    assert (dec.alpha, dec.beta) == (3, 4)
    assert (dec.a_part, dec.b_part) == (3, 4)
    assert element_order(c6, dec.a_part) == 2
    assert element_order(c6, dec.b_part) == 3
    assert c6.table[dec.a_part, dec.b_part] == 1


def test_coprime_decomposition_cyclic12():
    c12 = build("cyclic:12")
    dec = coprime_decomposition(c12, 1, 4, 3)
    assert (dec.alpha, dec.beta) == (9, 4)
    assert (dec.a_part, dec.b_part) == (9, 4)
    assert element_order(c12, dec.a_part) == 4
    assert element_order(c12, dec.b_part) == 3


def test_coprime_decomposition_errors():
    c6 = build("cyclic:6")
    with pytest.raises(ValueError, match="2 and 2 are not coprime"):
        coprime_decomposition(c6, 1, 2, 2)
    with pytest.raises(ValueError, match=r"element has order 6, expected 3\*4=12"):
        coprime_decomposition(c6, 1, 3, 4)


@pytest.mark.parametrize("x", [6, -1])
def test_decompositions_refuse_an_element_out_of_range(x):
    """Index h would read past elem_order, and -1 would wrap round to the last element."""
    c6 = build("cyclic:6")
    message = f"element index {x} out of range for order 6"
    with pytest.raises(ValueError, match=message):
        coprime_decomposition(c6, x, 2, 3)


def test_decomposition_parts_live_in_the_cyclic_span():
    for spec in ("cyclic:12", "prod(sym:3,cyclic:2)", "cyclic:15"):
        group = build(spec)
        for c in range(group.order):
            m = element_order(group, c)
            for a in divisors(m):
                b = m // a
                if gcd(a, b) != 1:
                    continue
                dec = coprime_decomposition(group, c, a, b)
                span = cyclic_subgroup(group, c)
                assert dec.a_part in span and dec.b_part in span
                assert group.table[dec.a_part, dec.b_part] == c
                assert group.table[dec.a_part, dec.b_part] == group.table[dec.b_part, dec.a_part]
                assert element_order(group, dec.a_part) == a
                assert element_order(group, dec.b_part) == b


def test_uniqueness_of_decomposition_cyclic6():
    c6 = build("cyclic:6")
    pairs = [
        (x, y)
        for x in range(6)
        for y in range(6)
        if element_order(c6, x) == 2 and element_order(c6, y) == 3
        and c6.table[x, y] == 1 and c6.table[x, y] == c6.table[y, x]
    ]
    dec = coprime_decomposition(c6, 1, 2, 3)
    assert pairs == [(dec.a_part, dec.b_part)]

