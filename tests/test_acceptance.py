"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All checks are exact integer assertions; the only tolerances are the two
wall-clock budgets in criteria 1 and 10.
"""

import io
import time
from contextlib import redirect_stdout
from math import gcd

import pytest

from sylowlab import cli
from sylowlab.catalog import build, standard_catalog
from sylowlab.counting import (
    classify_kinds,
    congruence7,
    count_normal_within,
    count_p_subgroups,
    count_solutions,
    normal_fusion_check,
    power_stabilization_check,
    sylow_chain_check,
    sylow_single_class,
    verify_order_p_form,
)
from sylowlab.groups import element_order
from sylowlab.numtheory import divisors, prime_factorization, prime_power_base, valuation
from sylowlab.sylow import central_element_of_order_p, chief_series, coprime_decomposition
from sylowlab.subgroups import (
    ComplexSet,
    all_subgroups,
    center,
    closure_of,
    is_cyclic,
    is_normal,
    subgroups_of_order,
    whole_group,
)

ENUM_CAP_81 = 81


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def catalog60():
    return standard_catalog(60)


@pytest.fixture(scope="module")
def catalog24():
    return standard_catalog(24)


def test_criterion_01_headline_divisibility_sweep(catalog60):
    start = time.perf_counter()
    failures = []
    for name, group in catalog60:
        h = group.order
        for n in range(1, h + 1):
            count = count_solutions(group, n)
            if count % gcd(n, h) != 0:
                failures.append((name, n, count))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _verdict(1, f"headline gcd divisibility sweep ({elapsed:.2f}s)", ok)
    assert not failures, failures[:5]
    assert elapsed < 10.0


def test_criterion_02_order_p_count_form(catalog60):
    failures = []
    for name, group in catalog60:
        for p in prime_factorization(group.order):
            report = verify_order_p_form(group, p)
            if not report.passed:
                failures.append((name, p))
    spot1 = verify_order_p_form(build("sym:3"), 3)
    spot2 = verify_order_p_form(build("alt:5"), 5)
    spots_ok = (
        spot1.counted == 2 and spot1.params["n"] == 0
        and spot2.counted == 24 and spot2.params["n"] == 1
    )
    ok = not failures and spots_ok
    _verdict(2, "(p-1)(np+1) element count form", ok)
    assert not failures, failures[:5]
    assert spots_ok


def test_criterion_03_subgroup_count_congruences(catalog60):
    failures = []
    for name, group in catalog60:
        for p, lam in prime_factorization(group.order).items():
            for kappa in range(1, lam + 1):
                if not count_p_subgroups(group, p, kappa).passed:
                    failures.append((name, p, kappa))
            if not sylow_single_class(group, p).passed:
                failures.append((name, p, "sylow-class"))
    s4 = build("sym:4")
    golden = [count_p_subgroups(s4, 2, k).counted for k in (1, 2, 3)]
    spots_ok = golden == [9, 7, 3] and count_p_subgroups(s4, 3, 1).counted == 4
    ok = not failures and spots_ok
    _verdict(3, "Sylow counting congruences with frozen spot values", ok)
    assert not failures, failures[:5]
    assert spots_ok, golden


def test_criterion_04_sylow_chain_construction(catalog60):
    failures = []
    for name, group in catalog60:
        for p in prime_factorization(group.order):
            if not sylow_chain_check(group, p).passed:
                failures.append((name, p))
    ok = not failures
    _verdict(4, "constructive Sylow chains validate everywhere", ok)
    assert not failures, failures[:5]


def test_criterion_05_p_group_suite():
    failures = []
    for name, group in standard_catalog(81):
        p = prime_power_base(group.order)
        if p is None or group.order == 1:
            continue
        lam = valuation(group.order, p)
        subs = all_subgroups(group, cap=ENUM_CAP_81)
        z = center(group)
        maximal = 0
        for sub in subs:
            if sub.size == group.order // p:
                maximal += 1
                if not is_normal(sub):
                    failures.append((name, "index-p subgroup not normal"))
            if sub.size == p and is_normal(sub) and not z.contains_subgroup(sub):
                failures.append((name, "normal order-p subgroup not central"))
            if sub.size > 1 and is_normal(sub):
                witness = central_element_of_order_p(group, sub)
                if not (witness in sub and witness in z and element_order(group, witness) == p):
                    failures.append((name, "central witness broken"))
        series = chief_series(group).series
        if [t.size for t in series] != [p**i for i in range(1, lam)]:
            failures.append((name, "chief series orders"))
        if not all(is_normal(t) for t in series):
            failures.append((name, "chief series normality"))
        if is_cyclic(group):
            if maximal != 1:
                failures.append((name, "cyclic maximal count"))
        elif maximal % p != 1 or maximal <= 1:
            failures.append((name, "maximal count congruence"))
    ok = not failures
    _verdict(5, "p-group suite on catalog orders up to 81", ok)
    assert not failures, failures[:5]


def test_criterion_06_coprime_decomposition_uniqueness(catalog24):
    failures = []
    for name, group in catalog24:
        for c in range(group.order):
            m = element_order(group, c)
            for a in divisors(m):
                b = m // a
                if a == 1 or b == 1 or gcd(a, b) != 1:
                    continue
                brute = [
                    (x, y)
                    for x in range(group.order)
                    if element_order(group, x) == a
                    for y in range(group.order)
                    if element_order(group, y) == b
                    and group.table[x, y] == c
                    and group.table[x, y] == group.table[y, x]
                ]
                dec = coprime_decomposition(group, c, a, b)
                if brute != [(dec.a_part, dec.b_part)]:
                    failures.append((name, c, a, b, brute))
    ok = not failures
    _verdict(6, "coprime decomposition unique and matched by brute force", ok)
    assert not failures, failures[:5]


def test_criterion_07_solution_power_stabilization(catalog24):
    failures = []
    for name, group in catalog24:
        for n in divisors(group.order):
            report = power_stabilization_check(group, n)
            if not (report.passed and report.params["s"] == 1):
                failures.append((name, n))
    ok = not failures
    _verdict(7, "solution sets stabilize at their closure with s=1", ok)
    assert not failures, failures[:5]


def test_criterion_08_kind_classification_and_fusion(catalog60):
    failures = []
    applicable_congruences = 0
    for name, group in catalog60:
        for p, lam in prime_factorization(group.order).items():
            for kappa in range(1, lam + 1):
                if not classify_kinds(group, p, kappa)[1].passed:
                    failures.append((name, p, kappa, "kinds"))
            report = congruence7(group, p)
            if report.applicable:
                applicable_congruences += 1
                if not report.passed:
                    failures.append((name, p, "congruence7"))
            if not normal_fusion_check(group, p).passed:
                failures.append((name, p, "fusion"))
    kinds, _ = classify_kinds(build("sym:4"), 2, 1)
    spot_kinds = len(kinds.first_kind) == 3 and len(kinds.second_kind) == 6
    q8 = build("q8")
    spot_q8 = count_normal_within(q8, subgroups_of_order(q8, 4)[0], 2, 1).counted == 1
    d8 = build("dihedral:8")
    klein = closure_of(ComplexSet(d8, [2, 4]))
    spot_d8 = count_normal_within(d8, klein, 2, 1).counted == 1
    e9 = build("elab:3^2")
    spot_e9 = count_normal_within(e9, whole_group(e9), 3, 1).counted == 4
    spots_ok = spot_kinds and spot_q8 and spot_d8 and spot_e9
    ok = not failures and spots_ok and applicable_congruences > 0
    _verdict(8, "kind classification, congruence (7.) and fusion checks", ok)
    assert not failures, failures[:5]
    assert spots_ok and applicable_congruences > 0


def test_criterion_09_verify_output_is_byte_identical():
    def run():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(["verify", "--catalog", "24", "--json"])
        return code, buffer.getvalue().encode()

    code1, out1 = run()
    code2, out2 = run()
    ok = code1 == code2 == 0 and out1 == out2 and out1
    _verdict(9, "verify --catalog 24 --json is byte-identical across runs", bool(ok))
    assert code1 == 0 and code2 == 0
    assert out1 == out2 and out1


def test_criterion_10_performance_budgets():
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--catalog", "60"])
    verify_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    fresh = build("alt:5")
    count = len(all_subgroups(fresh))
    lattice_elapsed = time.perf_counter() - start

    ok = code == 0 and verify_elapsed < 60.0 and count == 59 and lattice_elapsed < 10.0
    _verdict(
        10,
        f"performance (catalog verify {verify_elapsed:.1f}s, alt:5 lattice {lattice_elapsed:.2f}s)",
        ok,
    )
    assert code == 0
    assert verify_elapsed < 60.0
    assert count == 59
    assert lattice_elapsed < 10.0
