"""The counting checks: solution counts, congruences, kinds, fusion."""

import dataclasses
import json
import time
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sylowlab import cli, counting, subgroups
from sylowlab.catalog import build, standard_catalog
from sylowlab.config import Caps
from sylowlab.counting import (
    classify_kinds,
    complex_power_stabilization,
    congruence7,
    count_containing,
    count_elements_of_order,
    count_normal_within,
    count_p_subgroups,
    count_solutions,
    incidence_check,
    normal_fusion_check,
    power_stabilization_check,
    select_checks,
    solution_subgroup,
    sylow_chain_check,
    sylow_single_class,
    theorem_suite,
    verify_coprime_product,
    verify_divisibility,
    verify_order_p_form,
)
from sylowlab.errors import ClosureExceedsCap
from sylowlab.groups import FiniteGroup, Permutation, conjugates, group_from_generators
from sylowlab.numtheory import divisors, prime_factorization, valuation
from sylowlab.subgroups import (
    ComplexSet,
    SubgroupSet,
    all_subgroups,
    as_group,
    closure_of,
    is_normal,
    normalizer,
    subgroups_of_order,
    trivial_subgroup,
    whole_group,
)
from sylowlab.sylow import sylow_chain

from oracles import (
    is_normal_within_by_scan,
    reduced_euler_characteristic_of_p_subgroups,
    subgroups_by_layered_extension,
    sylow_normals_by_normalizers,
)
from test_subgroups import EXTRA_PGROUPS, PSL27
from test_sylow import LARGE_SPECS


def test_count_solutions_examples():
    s3 = build("sym:3")
    assert count_solutions(s3, 1) == 1
    assert count_solutions(s3, 2) == 4
    for spec in ("sym:3", "cyclic:12", "q8"):
        group = build(spec)
        assert count_solutions(group, group.order) == group.order


def test_count_solutions_reduces_to_gcd_with_exponent():
    for spec in ("sym:4", "cyclic:18", "dihedral:12"):
        group = build(spec)
        e = group.exponent()
        for n in range(1, 2 * group.order + 1):
            assert count_solutions(group, n) == count_solutions(group, gcd(n, e))


def test_verify_divisibility_examples():
    s3 = build("sym:3")
    assert verify_divisibility(s3, 2).passed
    assert verify_divisibility(s3, 1).counted == 1
    report = verify_divisibility(build("cyclic:12"), 8)
    assert report.counted == 4 and report.passed


def test_count_elements_of_order():
    assert count_elements_of_order(build("cyclic:5"), 1) == 1
    assert count_elements_of_order(build("sym:3"), 3) == 2
    assert count_elements_of_order(build("alt:5"), 5) == 24


def test_verify_order_p_form():
    rep = verify_order_p_form(build("sym:3"), 3)
    assert rep.passed and rep.counted == 2 and rep.params["n"] == 0
    rep = verify_order_p_form(build("sym:3"), 2)
    assert rep.passed and rep.counted == 3 and rep.params["n"] == 1
    rep = verify_order_p_form(build("alt:5"), 5)
    assert rep.passed and rep.counted == 24 and rep.params["n"] == 1
    rep = verify_order_p_form(build("cyclic:7"), 7)
    assert rep.passed and rep.counted == 6 and rep.params["n"] == 0
    s3 = build("sym:3")
    for p in (5, 7):
        with pytest.raises(ValueError, match=f"{p} does not divide 6"):
            verify_order_p_form(s3, p)
    for p in (0, 1, 4, -2):  # refused before p - 1 divides anything
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            verify_order_p_form(s3, p)


def test_solution_subgroup():
    s3 = build("sym:3")
    whole = solution_subgroup(s3, 6)
    assert whole.passed and whole.counted == 6
    rep3 = solution_subgroup(s3, 3)
    assert rep3.passed and rep3.counted == 3
    rep2 = solution_subgroup(s3, 2)
    assert rep2.passed and rep2.counted == 6  # transpositions generate everything
    with pytest.raises(ValueError):
        solution_subgroup(s3, 4)


def test_solution_subgroup_skips_characteristic_above_cap():
    big = build("elab:2^5")
    report = solution_subgroup(big, 2)
    assert report.passed and "skipped" in report.relation


def test_power_stabilization_on_subgroup_and_identity():
    s3 = build("sym:3")
    sub = closure_of(ComplexSet(s3, [1]))
    r, s, stab = complex_power_stabilization(ComplexSet(s3, sub.members))
    assert (r, s) == (1, 1) and stab == sub
    r, s, stab = complex_power_stabilization(ComplexSet(s3, [0]))
    assert (r, s) == (1, 1) and stab.size == 1


def test_power_stabilization_without_identity():
    c3 = build("cyclic:3")
    r, s, stab = complex_power_stabilization(ComplexSet(c3, [1]))
    assert (r, s) == (1, 3)
    assert stab.size == 1  # the only group in the power sequence is {e}


def test_power_stabilization_transpositions():
    s3 = build("sym:3")
    sols = [x for x in range(6) if s3.elem_order[x] <= 2]
    r, s, stab = complex_power_stabilization(ComplexSet(s3, sols))
    assert s == 1 and stab.size == 6


def test_power_stabilization_check_over_divisors():
    for spec in ("sym:3", "cyclic:12", "q8", "alt:4"):
        group = build(spec)
        for n in divisors(group.order):
            report = power_stabilization_check(group, n)
            assert report.passed, report.text_line()


def test_s2_closes_each_distinct_solution_set_once(monkeypatch):
    """S2.III and S2.power do their work once per distinct solution set, not once per divisor.

    One closure and one power sequence per set, shared by both rows and
    by complex_power_stabilization's invariant, and one S2.III witness
    string per distinct closure.
    """
    calls = {"extend": 0, "powers": 0, "witnesses": 0}

    def counting_calls(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(subgroups, "_extend_subgroup", counting_calls("extend", subgroups._extend_subgroup))
    monkeypatch.setattr(counting, "complex_power_stabilization",
                        counting_calls("powers", counting.complex_power_stabilization))
    monkeypatch.setattr(counting, "_members_str", counting_calls("witnesses", counting._members_str))
    group = build("sym:4")
    reports = theorem_suite(group, selected=select_checks("S2"))
    ns = [r.params["n"] for r in reports if r.theorem_id == "S2.III"]
    assert ns == divisors(group.order)
    assert [r.params["n"] for r in reports if r.theorem_id == "S2.power"] == ns
    # n = 4, 8 share one solution set and n = 12, 24 another: 6 distinct sets for 8 divisors
    assert len({counting._solutions(group, n).mask for n in ns}) == 6
    # they close onto 3 subgroups, the trivial one, A4 and S4, so S2.III formats 3 witnesses
    assert len({closure_of(counting._solutions(group, n)).mask for n in ns}) == 3
    assert calls == {"extend": 6, "powers": 6, "witnesses": 3}


def test_power_stabilization_disagreeing_with_closure_is_an_engine_fault(monkeypatch, capsys):
    """The equality with the closure stays an invariant: a wrong closure raises, and the CLI exits 3."""
    monkeypatch.setattr(counting, "closure_of", lambda s: whole_group(s.parent))
    s3 = build("sym:3")
    with pytest.raises(RuntimeError):
        complex_power_stabilization(ComplexSet(s3, [0, 1]))
    assert cli.main(["verify", "sym:3", "--theorems", "S2.power"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: internal invariant broken: ")


def test_verify_coprime_product():
    assert verify_coprime_product(build("cyclic:6"), 2, 3).passed
    na = verify_coprime_product(build("sym:3"), 2, 3)
    assert not na.applicable and na.passed and na.counted == [4, 3]
    trivial = verify_coprime_product(build("cyclic:6"), 1, 1)
    assert trivial.applicable and trivial.passed and trivial.counted == 1
    with pytest.raises(ValueError, match="2 and 4 are not coprime"):
        verify_coprime_product(build("cyclic:12"), 2, 4)
    with pytest.raises(ValueError):
        verify_coprime_product(build("cyclic:6"), 4, 3)


@pytest.mark.parametrize("check, args, message", [
    (solution_subgroup, (0,), "n must be positive"),
    (solution_subgroup, (-2,), "n must be positive"),
    (power_stabilization_check, (0,), "n must be positive"),
    (power_stabilization_check, (-3,), "n must be positive"),
    (verify_coprime_product, (0, 1), "r must be positive"),
    (verify_coprime_product, (1, 0), "s must be positive"),
    (verify_coprime_product, (-1, 1), "r must be positive"),
])
def test_section_2_checks_refuse_a_parameter_below_one(check, args, message):
    """A zero or negative exponent is refused before any division or gcd, never reported on."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(build("cyclic:6"), *args)


def test_count_p_subgroups_spot_values():
    s4 = build("sym:4")
    assert [count_p_subgroups(s4, 2, k).counted for k in (1, 2, 3)] == [9, 7, 3]
    assert count_p_subgroups(s4, 3, 1).counted == 4
    assert all(count_p_subgroups(s4, p, k).passed for p, k in ((2, 1), (2, 2), (2, 3), (3, 1)))
    c27 = build("cyclic:27")
    for k in (1, 2, 3):
        rep = count_p_subgroups(c27, 3, k)
        assert rep.counted == 1 and rep.passed
    with pytest.raises(ValueError, match=r"2\^4 does not divide 24"):
        count_p_subgroups(s4, 2, 4)


def test_count_containing():
    s4 = build("sym:4")
    reduced = count_containing(s4, trivial_subgroup(s4), 2, 2)
    assert reduced.counted == count_p_subgroups(s4, 2, 2).counted
    double = closure_of(ComplexSet(s4, [s4.element_names.index("(1 2)(3 4)")]))
    rep = count_containing(s4, double, 2, 2)
    assert rep.counted == 3 and rep.passed
    same = count_containing(s4, double, 2, 1)
    assert same.counted == 1 and same.passed
    with pytest.raises(ValueError, match="subgroup order 6 is not a power of 2"):
        count_containing(s4, subgroups_of_order(s4, 6)[0], 2, 3)


@pytest.mark.parametrize("spec", ["sym:4", "dihedral:16", "prod(cyclic:2,q8)", "alt:5", "elab:3^3"])
def test_suite_s4_ii_reports_equal_the_public_count_containing(spec):
    """S4.II runs count_containing's core on pre-validated arguments; its reports are the public function's."""
    group = build(spec)
    lat = subgroups.lattice(group)
    expected = [
        count_containing(group, sub, p, kappa)
        for p in sorted(prime_factorization(group.order))
        for theta in range(1, valuation(group.order, p) + 1)
        for sub in lat.subs[lat.of_order(p**theta)]
        for kappa in range(theta, valuation(group.order, p) + 1)
    ]
    got = theorem_suite(group, selected=frozenset({"S4.II"}))
    assert got == expected and len(got) > 0


def test_incidence_check():
    s4 = build("sym:4")
    rep = incidence_check(s4, 2, 2)
    assert rep.passed
    suma, sumb = rep.counted
    assert suma == sumb
    q8 = build("q8")
    rep = incidence_check(q8, 2, 2)
    assert rep.passed and rep.counted == [3, 3]
    assert incidence_check(s4, 2, 1).passed
    assert incidence_check(s4, 3, 1).passed


def test_incidence_check_names_the_first_bad_position_in_each_order_slice(monkeypatch):
    """A dropped containment shows as one bad a and one bad b, indexed inside their order slices."""
    s4 = build("sym:4")
    record = subgroups.lattice(s4)
    upper, lower = record.of_order(4), record.of_order(2)
    b, a = np.argwhere(record.contains[upper, lower])[-1]
    contains = record.contains.copy()
    contains[upper.start + b, lower.start + a] = False
    monkeypatch.setattr(counting, "lattice", lambda group, cap=None: dataclasses.replace(record, contains=contains))
    rep = incidence_check(s4, 2, 2)
    total = int(record.contains[upper, lower].sum())
    assert not rep.passed and rep.counted == [total - 1, total - 1]
    assert rep.witnesses == [f"bad a at index {a}", f"bad b at index {b}"]


def test_classify_kinds_spot_values():
    s4 = build("sym:4")
    kinds, rep = classify_kinds(s4, 2, 1)
    assert rep.passed
    assert len(kinds.first_kind) == 3 and len(kinds.second_kind) == 6
    for sub in kinds.first_kind:
        assert normalizer(sub).size % 8 == 0
    # top level: every Sylow subgroup is first kind
    kinds, rep = classify_kinds(s4, 2, 3)
    assert rep.passed and len(kinds.first_kind) == 3 and not kinds.second_kind
    kinds, rep = classify_kinds(build("cyclic:12"), 2, 1)
    assert rep.passed and len(kinds.first_kind) == 1


def test_classify_kinds_agrees_with_sylow_membership():
    # first kind iff normal in some Sylow p-subgroup
    for spec in ("sym:4", "alt:4", "dihedral:12", "prod(sym:3,cyclic:2)"):
        group = build(spec)
        for p in prime_factorization(group.order):
            lam = valuation(group.order, p)
            sylows = subgroups_of_order(group, p**lam)
            for kappa in range(1, lam + 1):
                kinds, _ = classify_kinds(group, p, kappa)
                for sub in kinds.first_kind:
                    assert any(
                        s.contains_subgroup(sub) and is_normal_within_by_scan(sub, s)
                        for s in sylows
                    )
                for sub in kinds.second_kind:
                    assert not any(
                        s.contains_subgroup(sub) and is_normal_within_by_scan(sub, s)
                        for s in sylows
                    )


def test_kind_partition_sizes_sum_to_subgroup_count():
    s4 = build("sym:4")
    for p, kappa in ((2, 1), (2, 2), (2, 3), (3, 1)):
        kinds, _ = classify_kinds(s4, p, kappa)
        total = count_p_subgroups(s4, p, kappa).counted
        assert len(kinds.first_kind) + len(kinds.second_kind) == total


def test_count_normal_within_spot_values():
    q8 = build("q8")
    cyclic4 = subgroups_of_order(q8, 4)[0]
    rep = count_normal_within(q8, cyclic4, 2, 1)
    assert rep.counted == 1 and rep.passed
    d8 = build("dihedral:8")
    klein = closure_of(ComplexSet(d8, [2, 4]))
    rep = count_normal_within(d8, klein, 2, 1)
    assert rep.counted == 1 and rep.passed
    e9 = build("elab:3^2")
    rep = count_normal_within(e9, whole_group(e9), 3, 1)
    assert rep.counted == 4 and rep.passed


def test_prime_arguments_above_the_order_are_refused_before_trial_division():
    """2^61 - 1 is prime, but trial division on it would run for seconds; it cannot divide 24 or 8."""
    big = 2**61 - 1
    s4, d8 = build("sym:4"), build("dihedral:8")
    start = time.perf_counter()
    for refuse in (lambda: verify_order_p_form(s4, big), lambda: sylow_chain(s4, big)):
        with pytest.raises(ValueError, match=f"{big} does not divide 24"):
            refuse()
    with pytest.raises(ValueError, match=rf"{big}\^1 does not divide 24"):
        count_p_subgroups(s4, big, 1)
    with pytest.raises(ValueError, match=f"ambient order 8 is not a power of {big}"):
        count_normal_within(d8, whole_group(d8), big, 1)
    assert time.perf_counter() - start < 0.5


def test_count_normal_within_errors():
    d8 = build("dihedral:8")
    with pytest.raises(ValueError, match="the containing subgroup must be normal"):
        count_normal_within(d8, closure_of(ComplexSet(d8, [4])), 2, 1)
    s4 = build("sym:4")
    v4 = next(s for s in subgroups_of_order(s4, 4) if is_normal(s))
    with pytest.raises(ValueError, match="ambient order 24 is not a power of 2"):
        count_normal_within(s4, v4, 2, 1)
    with pytest.raises(ValueError, match=r"2\^2 does not divide the subgroup order 2"):
        count_normal_within(d8, closure_of(ComplexSet(d8, [2])), 2, 2)


def test_congruence7_sym4():
    rep = congruence7(build("sym:4"), 2)
    assert rep.passed and rep.applicable
    assert rep.params == {"p": 2, "lambda": 3, "delta": 2}
    assert rep.counted == 6  # normal subgroups of the dihedral Sylow subgroup
    rep3 = congruence7(build("sym:4"), 3)
    assert rep3.passed and rep3.applicable and rep3.params["delta"] == 0


def test_congruence7_not_applicable_when_sylow_normal():
    rep = congruence7(build("sym:3"), 3)
    assert not rep.applicable and rep.passed
    rep = congruence7(build("q8"), 2)
    assert not rep.applicable


def test_normal_fusion_check():
    assert normal_fusion_check(build("sym:4"), 2).passed
    for spec in ("alt:4", "alt:5"):  # the three order-2 subgroups of V4 are conjugate: 6 pairs
        rep = normal_fusion_check(build(spec), 2)
        assert rep.passed and rep.counted == 6
    assert normal_fusion_check(build("prod(sym:3,cyclic:2)"), 2).passed


def test_normal_fusion_check_fails_without_normalizer_fusion(monkeypatch):
    """With alt:4's order-2 rows fixed by every element, its six fused pairs show as witnesses.

    Only the action table is patched: class_id still puts the three
    order-2 subgroups of V4 in one class, while N(P) = alt:4 now leaves
    each of them alone in its orbit.
    """
    group = build("alt:4")

    def unfused(group, cap=None):
        record = subgroups.lattice(group, cap)
        action = record.action.copy()
        twos = np.arange(len(record.subs))[record.of_order(2)]
        action[twos] = twos[:, None]
        return dataclasses.replace(record, action=action)

    monkeypatch.setattr(counting, "lattice", unfused)
    rep = normal_fusion_check(group, 2)
    assert not rep.passed and rep.counted == 6
    pairs = [w for w in rep.witnesses if w.startswith("pair ")]
    assert len(pairs) == 6 and all(w.endswith("not conjugate in the Sylow normalizer") for w in pairs)


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "dihedral:16"])
def test_s5_congruence_and_fusion_scan_no_normalizer(monkeypatch, spec):
    """S5.7 and S5.III read P-normality, N(P) and the N(P)-orbits off the lattice's action table."""

    def no_scan(a):
        raise AssertionError(f"normalizer scan of a subgroup of order {a.size}")

    monkeypatch.setattr(subgroups, "normalizer", no_scan)
    reports = theorem_suite(build(spec), selected=select_checks("S5.7,S5.III"))
    assert {r.theorem_id for r in reports} == {"S5.7", "S5.III"} and all(r.passed for r in reports), spec


@pytest.mark.parametrize("spec", ["dihedral:512", "elab:2^9", "prod(q8,elab:2^6)", "prod(alt:5,dihedral:8)",
                                  "sym:4", "alt:5", "dihedral:16", "prod(cyclic:2,q8)"])
def test_suite_above_the_lattice_cap_builds_no_conjugation_table(monkeypatch, spec):
    """No check reads the whole conjugation table, above the lattice cap or below it.

    S3.I conjugates inside the tower; the lattice conjugates only the
    candidates and subgroups it tests, through groups.conjugates.
    """

    def no_table(self):
        raise AssertionError(f"conjugation table of {self.label}")

    monkeypatch.setattr(FiniteGroup, "conj_table", no_table)
    reports = theorem_suite(build(spec))
    assert reports and all(r.passed for r in reports), spec


def test_sylow_normals_match_the_normalizer_computation():
    """P's normal subgroups and both orbit lengths of S5.7 against the former per-subgroup normalizers.

    h/q' is the lattice class size and p'/r the length of the N(P)-orbit.
    Every Sylow p-subgroup row is tried as P, not only the first one the
    suite takes.
    """
    specs = [(spec, None) for spec, _ in standard_catalog(60)] + [(spec, None) for spec in EXTRA_PGROUPS]
    for spec, cap in specs + [("sym:5", 120), (PSL27, 168)]:
        group = build(spec)
        lat = subgroups.lattice(group, cap)
        for p, lam in prime_factorization(group.order).items():
            for top_row in range(len(lat.subs))[lat.of_order(p**lam)]:
                p_prime, rows, local = counting._sylow_normals(lat, top_row)
                sides = list(zip(lat.class_size[rows].tolist(), np.bincount(local)[local].tolist()))
                expected = sylow_normals_by_normalizers(lat, lat.subs[top_row])
                assert (p_prime, rows.tolist(), sides) == expected, (spec, p, top_row)


def test_sylow_single_class():
    rep = sylow_single_class(build("alt:5"), 5)
    assert rep.passed and rep.counted == 6
    rep = sylow_single_class(build("sym:4"), 2)
    assert rep.passed and rep.counted == 3
    rep = sylow_single_class(build("q8"), 2)
    assert rep.passed and rep.counted == 1


def test_sylow_single_class_fails_on_split_classes(monkeypatch):
    def split_classes(group, cap=None):
        record = subgroups.lattice(group, cap)
        return dataclasses.replace(record, class_id=np.arange(len(record.subs)))

    monkeypatch.setattr(counting, "lattice", split_classes)
    rep = sylow_single_class(build("sym:4"), 2)
    assert not rep.passed and rep.counted == 3


def test_sylow_chain_check_catalog():
    for _, group in standard_catalog(24):
        for p in prime_factorization(group.order):
            assert sylow_chain_check(group, p).passed


@pytest.mark.parametrize("spec", ["sym:4", "sym:5", "elab:2^9", "dihedral:512"])
def test_broken_towers_fail_s3i_on_both_sides_of_the_lattice_cap(monkeypatch, spec):
    """A tower with its top dropped, a level repeated or its terms reversed fails S3.I, and nothing raises.

    sym:4 is under the lattice cap; the other three are above it, where the
    orders alone show a missing top. A repeated level leaves B \\ A empty,
    which the one-row normality test must never see.
    """
    group = build(spec)
    real = {p: sylow_chain(group, p) for p in prime_factorization(group.order)}
    for p, tower in real.items():
        chain = tower.chain
        for broken in {chain[:-1], chain[:1] + chain, chain[::-1]} - {chain}:
            monkeypatch.setattr(counting, "sylow_chain", lambda g, q: dataclasses.replace(real[q], chain=broken))
            rep = sylow_chain_check(group, p)
            assert not rep.passed, (spec, p, [s.size for s in broken])
            assert rep.params == {"p": p, "lambda": len(chain)} and rep.counted == len(chain)


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "dihedral:12", "prod(sym:3,cyclic:2)"])
def test_a_broken_tower_fails_s3i_alone(monkeypatch, spec):
    """S5.7 and S5.III take their Sylow subgroup from the lattice, so a broken tower shows in S3.I only.

    Each tower has its top dropped or its terms reversed; every S5.7 and
    S5.III report stays equal to the one from the unbroken tower.
    """
    group = build(spec)
    selected = frozenset({"S3.I", "S5.7", "S5.III"})
    sound = theorem_suite(group, selected=selected)
    assert all(r.passed for r in sound)
    real = {p: sylow_chain(group, p) for p in prime_factorization(group.order)}
    for p, tower in real.items():
        chain = tower.chain
        for broken in {chain[:-1], chain[::-1]} - {chain}:
            monkeypatch.setattr(counting, "sylow_chain", lambda g, q: dataclasses.replace(
                real[q], chain=broken if q == p else real[q].chain))
            reports = theorem_suite(group, selected=selected)
            assert [r.passed for r in reports if r.theorem_id == "S3.I"] == [q != p for q in real], (spec, p)
            assert [r for r in reports if r.theorem_id != "S3.I"] == [r for r in sound if r.theorem_id != "S3.I"]


random_generators = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
)
small_generators = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
)


def assert_every_theorem_holds(group, case):
    """Every report passes; up to order 64 the lattice is every subgroup the
    layered-extension oracle finds and obeys Brown's congruence for every p;
    and the reports, less what names an element index, do not change when
    the elements are renumbered.
    """
    reports = theorem_suite(group)
    assert reports and [r.text_line() for r in reports if not r.passed] == [], case
    if group.order <= 64:
        lat = subgroups.lattice(group)
        assert [s.members for s in lat.subs] == subgroups_by_layered_extension(group), case
        for p, lam in prime_factorization(group.order).items():
            assert reduced_euler_characteristic_of_p_subgroups(lat, p) % p**lam == 0, (case, p)
    rng = np.random.default_rng(len(reports))
    assert report_multiset(theorem_suite(relabelled(group, rng))) == report_multiset(reports), case


@settings(derandomize=True, deadline=None, max_examples=100)
@given(random_generators)
def test_random_permutation_groups_pass_every_theorem(images):
    """Every check is a theorem, so each report passes on any group.

    The groups are generated by 1-3 random permutations of degree 3-7,
    built at construction cap 512. Their element numbering reaches Sylow
    subgroups that the catalog does not, such as a first Sylow row that
    is not the tower's top.
    """
    try:
        group = group_from_generators([Permutation(p) for p in images], cap=512)
    except ClosureExceedsCap:
        assume(False)
    assert_every_theorem_holds(group, images)


def perm_spec(images) -> str:
    return "perm:" + ";".join(Permutation(p).cycle_string() for p in images)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_generators, small_generators)
def test_products_of_random_permutation_groups_pass_every_theorem(a, b):
    """As above, on prod( of two perm: groups drawn from 1-2 permutations of degree 2-4, of product order at most 64.

    The product's numbering, (x, y) at x |B| + y, is one no single
    generator closure gives.
    """
    assume(build(perm_spec(a)).order * build(perm_spec(b)).order <= 64)
    spec = f"prod({perm_spec(a)},{perm_spec(b)})"
    assert_every_theorem_holds(build(spec), spec)


@pytest.mark.parametrize("spec", ["elab:2^9", "dihedral:512"])
def test_s3i_conjugates_one_row_per_tower_step(monkeypatch, spec):
    """Each step A < B of the tower takes one conjugates call with one actor, not one row per member of B."""
    group = build(spec)
    steps = len(sylow_chain(group, 2).chain) - 1
    actors = []

    def counted(group, acting, members):
        actors.append(len(acting))
        return conjugates(group, acting, members)

    monkeypatch.setattr(subgroups, "conjugates", counted)
    assert sylow_chain_check(group, 2).passed
    assert actors == [1] * steps == [1] * 8


def test_ambient_characteristic_form():
    # solution closures inside a subgroup are fixed by its ambient normalizer
    s4 = build("sym:4")
    for sub in all_subgroups(s4):
        if sub.size in (1, s4.order):
            continue
        inner, emb = as_group(sub)
        for n in divisors(inner.order):
            sols = [int(emb[x]) for x in range(inner.order) if n % inner.elem_order[x] == 0]
            gen = closure_of(ComplexSet(s4, sols))
            for t in normalizer(sub).members:
                assert SubgroupSet(s4, conjugates(s4, [t], gen._arr)[0]) == gen


def test_order_p_count_equals_subgroup_count_times_p_minus_1():
    # each order-p subgroup contributes p-1 elements and overlaps trivially
    for name, group in standard_catalog(24):
        for p in prime_factorization(group.order):
            r1 = count_p_subgroups(group, p, 1).counted
            assert count_elements_of_order(group, p) == (p - 1) * r1, name


def test_report_json_golden_line():
    rep = count_p_subgroups(build("sym:4"), 3, 1)
    assert rep.json_line() == (
        '{"theorem_id":"S4.I","group":"sym:4","params":{"p":3,"kappa":1},'
        '"counted":4,"relation":"4 == 1 (mod 3)","passed":true,"witnesses":[]}'
    )


def test_report_serialization_shape():
    rep = count_p_subgroups(build("sym:4"), 2, 1)
    payload = json.loads(rep.json_line())
    assert list(payload) == ["theorem_id", "group", "params", "counted", "relation", "passed", "witnesses"]
    assert payload["theorem_id"] == "S4.I"
    assert payload["group"] == "sym:4"
    assert payload["params"] == {"p": 2, "kappa": 1}
    assert payload["counted"] == 9
    assert payload["passed"] is True
    assert isinstance(payload["witnesses"], list)


def test_theorem_suite_all_pass_and_deterministic():
    group = build("sym:3")
    first = [r.json_line() for r in theorem_suite(group)]
    second = [r.json_line() for r in theorem_suite(build("sym:3"))]
    assert first == second
    assert all(r.passed for r in theorem_suite(group))


def test_theorem_suite_skips_lattice_checks_above_cap():
    caps = Caps(construction=512, subgroups=8, automorphisms=8)
    reports = theorem_suite(build("sym:4"), caps)
    ids = {r.theorem_id for r in reports}
    assert "S4.I" not in ids and "intro.gcd" in ids


def test_headline_sweep_uses_divisors_above_limit():
    group = build("cyclic:65")
    gcd_reports = [r for r in theorem_suite(group) if r.theorem_id == "intro.gcd"]
    assert [r.params["n"] for r in gcd_reports] == [1, 5, 13, 65]


@pytest.fixture(scope="module")
def full_suite24():
    return {name: theorem_suite(group) for name, group in standard_catalog(24)}


@pytest.mark.parametrize("raw", ["S4.I", "S5", "intro", "intro.gcd,S2.IV"])
def test_filtered_suite_equals_filtered_full_suite(raw, full_suite24):
    selected = select_checks(raw)
    for name, group in standard_catalog(24):  # fresh groups: nothing cached by the full run
        filtered = [r.json_line() for r in theorem_suite(group, selected=selected)]
        full = [r.json_line() for r in full_suite24[name] if r.theorem_id in selected]
        assert filtered == full, name


def test_empty_selection_runs_nothing():
    with pytest.raises(ValueError):
        select_checks("nosuch")
    assert theorem_suite(build("sym:4"), selected=frozenset()) == []


def test_select_checks_ids_and_prefixes():
    assert select_checks("S4.I") == {"S4.I"}
    assert select_checks("S5") == {"S5.I", "S5.II", "S5.7", "S5.III"}
    assert select_checks(" intro.gcd , S2.IV,intro.gcd,, ") == {"intro.gcd", "S2.IV"}
    assert select_checks("S3,S3.I") == {"S3.I"}
    all_ids = {check.theorem_id for check in counting._SUITE}
    assert select_checks(",".join(sorted(all_ids))) == all_ids


def test_select_checks_rejects_unknown_and_empty_lists():
    with pytest.raises(ValueError, match=r"^unknown theorem id\(s\): S4\.l, S9$"):
        select_checks("S9,S4.I,S4.l")
    for raw in ("", ",", " , "):
        with pytest.raises(ValueError, match=r"^unknown theorem id\(s\): "):
            select_checks(raw)


@pytest.mark.parametrize("selection", ["S5.III", "S5.7"])
def test_sylow_local_checks_read_the_lattice(monkeypatch, selection):
    """S5.7 and S5.III take the Sylow subgroup's normal subgroups from the lattice, not a second enumeration."""
    def no_standalone(a):
        raise AssertionError("the Sylow subgroup was enumerated as a standalone group")

    monkeypatch.setattr(subgroups, "as_group", no_standalone)
    reports = theorem_suite(build("sym:4"), selected=select_checks(selection))
    assert [r.theorem_id for r in reports] == [selection, selection]
    assert all(r.passed for r in reports)


def test_lattice_free_selection_skips_lattice_and_automorphisms():
    """Only the lattice checks and S3.I's cross-check enumerate subgroups; S3.I's only under the subgroup cap."""
    group = build("sym:4")
    reports = theorem_suite(group, selected=select_checks("intro.gcd,intro.pcount,S2.IV"))
    assert {r.theorem_id for r in reports} == {"intro.gcd", "intro.pcount", "S2.IV"}
    assert "subgroups" not in group._cache and "automorphisms" not in group._cache
    theorem_suite(group, selected=select_checks("intro.gcd,intro.pcount,S2.III,S2.power,S2.IV"))
    assert "subgroups" not in group._cache and "automorphisms" in group._cache
    theorem_suite(group, selected=select_checks("S4.I"))
    assert "subgroups" in group._cache
    tower_only = build("sym:4")
    assert all(r.passed for r in theorem_suite(tower_only, selected=select_checks("S3.I")))
    assert set(tower_only._cache) == {"subgroups"}
    above_cap = build("elab:2^7")
    assert all(r.passed for r in theorem_suite(above_cap, selected=select_checks("S3.I")))
    assert above_cap._cache == {}


def relabelled(group, rng):
    """The same group with its non-identity elements renumbered at random, rebuilt from its table.

    A renumbered group table is associative, so the table is not checked again.
    """
    perm = np.concatenate(([0], 1 + rng.permutation(group.order - 1)))  # old index x becomes perm[x]
    old = np.argsort(perm)  # the old index of each new one
    return FiniteGroup(perm[group.table[np.ix_(old, old)]], label=group.label)


def report_multiset(reports):
    """(theorem id, params, counted, relation, passed) per report, sorted: what does not name an element index."""
    return sorted(
        (r.theorem_id, tuple(r.params.items()), json.dumps(r.counted), r.relation, r.passed) for r in reports
    )


@pytest.fixture(scope="module")
def suites():
    """(spec, group, theorem_suite(group)) for standard_catalog(60), dihedral:64 and cyclic:64 (pgroups specs it lacks)."""
    groups = standard_catalog(60) + [(spec, build(spec)) for spec in ("dihedral:64", "cyclic:64")]
    return [(spec, group, theorem_suite(group)) for spec, group in groups]


def test_reports_are_invariant_under_relabelling(suites):
    """The suite counts the mathematics, not the element numbering.

    Witnesses and the order of per-subgroup reports follow element
    indices, so only the multiset of the rest must agree. The batched
    rows read index order too: witness order and row slices.
    """
    rng = np.random.default_rng(9)
    for spec, group, reports in suites:
        assert report_multiset(theorem_suite(relabelled(group, rng))) == report_multiset(reports), spec


def only(reports, theorem_id):
    return [r for r in reports if r.theorem_id == theorem_id]


def test_batched_rows_match_their_single_report_functions(suites):
    """intro.gcd, S4.II and S5.II count all of one group's reports at once.

    Each report must be the one its single-report function gives, in the
    order of the former per-report loops, and each count the naive one.
    """
    for spec, group, reports in suites:
        h, lat = group.order, subgroups.lattice(group)
        ns = range(1, h + 1) if h <= counting.FULL_SWEEP_LIMIT else divisors(h)
        assert only(reports, "intro.gcd") == [verify_divisibility(group, n) for n in ns], spec
        assert [r.counted for r in only(reports, "intro.gcd")] == [count_solutions(group, n) for n in ns], spec
        containing = []
        for p in sorted(prime_factorization(h)):
            lam = valuation(h, p)
            for theta in range(1, lam + 1):
                for sub in subgroups_of_order(group, p**theta):
                    for kappa in range(theta, lam + 1):
                        containing.append(count_containing(group, sub, p, kappa))
                        above = subgroups_of_order(group, p**kappa)
                        assert containing[-1].counted == sum(s.contains_subgroup(sub) for s in above), (spec, sub)
        assert only(reports, "S4.II") == containing, spec
        normal_within = []
        if len(prime_factorization(h)) == 1:
            (p,) = prime_factorization(h)
            normal = {s.mask for s in lat.subs if is_normal(s)}
            for sub in [s for s in lat.subs[1:] if s.mask in normal]:
                for kappa in range(1, valuation(sub.size, p) + 1):
                    normal_within.append(count_normal_within(group, sub, p, kappa))
                    below = subgroups_of_order(group, p**kappa)
                    naive = sum(sub.contains_subgroup(q) and q.mask in normal for q in below)
                    assert normal_within[-1].counted == naive, (spec, sub)
        assert only(reports, "S5.II") == normal_within, spec


def assert_s2_rows_match_single_reports(spec, reports):
    """The suite's S2.III and S2.power lines equal those of the single-report functions on a fresh build."""
    group = build(spec)
    ns = divisors(group.order)
    assert [r.json_line() for r in only(reports, "S2.III")] == [solution_subgroup(group, n).json_line() for n in ns]
    assert [r.json_line() for r in only(reports, "S2.power")] == [
        power_stabilization_check(group, n).json_line() for n in ns
    ]


def test_batched_s2_rows_match_their_single_report_functions(suites):
    """The S2 rows, with one closure and one power sequence per distinct solution set, give the single reports."""
    for spec, _, reports in suites:
        assert_s2_rows_match_single_reports(spec, reports)


@pytest.mark.parametrize("spec", LARGE_SPECS)
def test_batched_s2_rows_on_large_groups(spec):
    """Above the automorphism cap too, where S2.III skips the characteristic check."""
    reports = theorem_suite(build(spec), selected=select_checks("S2.III,S2.power"))
    assert_s2_rows_match_single_reports(spec, reports)


@pytest.mark.parametrize("spec", LARGE_SPECS)
def test_batched_divisibility_on_large_groups(spec):
    """Above FULL_SWEEP_LIMIT intro.gcd counts the divisors of h, as verify_divisibility and count_solutions do."""
    group = build(spec)
    ns = divisors(group.order)
    reports = theorem_suite(group, selected=frozenset({"intro.gcd"}))
    assert reports == [verify_divisibility(group, n) for n in ns]
    assert [r.counted for r in reports] == [count_solutions(group, n) for n in ns]


def test_json_line_is_json_dumps_of_the_payload(suites):
    """The line template is byte-identical to json.dumps with ASCII escapes and compact separators."""
    for spec, _, reports in suites:
        for report in reports:
            payload = dataclasses.asdict(report)
            del payload["applicable"]
            assert report.json_line() == json.dumps(payload, ensure_ascii=True, separators=(",", ":")), spec
