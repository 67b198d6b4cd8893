"""Counting theorems as verifiable computations.

Every check returns a VerificationReport carrying the counted quantity,
the asserted relation, a pass flag and witnesses, instead of raising on a
mathematical failure; callers decide severity. Check ids are stable tags
like "S4.I" or "S5.7" (equation-level checks get the equation number).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote  # the C routine json.dumps(ensure_ascii=True) calls
from math import gcd
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .groups import FiniteGroup
from .numtheory import divisors, prime_factorization, prime_power_base, valuation
from .subgroups import (
    ComplexSet,
    Lattice,
    SubgroupSet,
    _characteristic,
    _is_normal_of_prime_index,
    _vector,
    all_subgroups,  # unused here; perfbench's tracer test patches counting.all_subgroups
    closure_of,
    lattice,
)
from .sylow import _require_prime, _require_prime_divides, sylow_chain


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one theorem check on one group."""

    theorem_id: str
    group: str
    params: dict[str, int]
    counted: int | list[int]
    relation: str
    passed: bool
    witnesses: list[str] = field(default_factory=list)
    applicable: bool = True

    def json_line(self) -> str:
        """Serialize as one JSON object with a fixed key order.

        The line is byte-identical to json.dumps of the same dict with
        ensure_ascii=True and separators=(",", ":"), filled into one template.
        """
        params = ",".join(f"{_quote(k)}:{v}" for k, v in self.params.items())
        counted = self.counted if isinstance(self.counted, int) else f"[{','.join(map(str, self.counted))}]"
        return (
            f'{{"theorem_id":{_quote(self.theorem_id)},"group":{_quote(self.group)},"params":{{{params}}},'
            f'"counted":{counted},"relation":{_quote(self.relation)},"passed":{"true" if self.passed else "false"},'
            f'"witnesses":[{",".join(map(_quote, self.witnesses))}]}}'
        )

    def text_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if not self.applicable:
            tag = "SKIP"
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        counted = self.counted if isinstance(self.counted, int) else ",".join(map(str, self.counted))
        middle = f" {params}" if params else ""
        return f"{tag} {self.theorem_id} {self.group}{middle} counted={counted} :: {self.relation}"


@dataclass(frozen=True)
class KindClassification:
    """Subgroups of one prime-power order split by normalizer valuation."""

    first_kind: list[SubgroupSet]
    second_kind: list[SubgroupSet]


def _members_str(indices) -> str:
    return "{" + ",".join(map(str, np.asarray(indices).tolist())) + "}"


def _solutions(group: FiniteGroup, n: int) -> ComplexSet:
    """The complex of every x with x^n = identity (order of x divides n)."""
    return ComplexSet._of_vector(group, n % group.elem_order == 0)


def _require_positive(**params: int) -> None:
    for name, value in params.items():
        if value < 1:
            raise ValueError(f"{name} must be positive")


def count_solutions(group: FiniteGroup, n: int) -> int:
    """Number of elements whose order divides n."""
    _require_positive(n=n)
    return int((n % group.elem_order == 0).sum())


def count_elements_of_order(group: FiniteGroup, m: int) -> int:
    """Number of elements of order exactly m."""
    _require_positive(m=m)
    return int((group.elem_order == m).sum())


def verify_divisibility(group: FiniteGroup, n: int) -> VerificationReport:
    """gcd(n, h) divides the number of solutions of x^n = identity."""
    _require_positive(n=n)
    return _divisibility_reports(group, [n])[0]


def _order_divides(group: FiniteGroup, ns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Which distinct element orders divide each n in ns (one row per n), and how many elements have each order."""
    tally = np.bincount(group.elem_order)
    orders = np.flatnonzero(tally)
    return np.asarray(ns)[:, None] % orders == 0, tally[orders]


def _divisibility_reports(group: FiniteGroup, ns: Sequence[int]) -> list[VerificationReport]:
    """verify_divisibility for each n in ns, every count from one tally of the element orders."""
    h = group.order
    divides, tally = _order_divides(group, ns)
    counts = (divides @ tally).tolist()
    return [
        VerificationReport(
            "intro.gcd", group.label, {"n": n}, count, f"gcd({n},{h})={g} divides {count}", count % g == 0
        )
        for n, g, count in zip(ns, np.gcd(ns, h).tolist(), counts)
    ]


def _solution_sets(group: FiniteGroup, ns: Sequence[int]) -> tuple[list[ComplexSet], list[int]]:
    """The distinct solution sets of x^n = identity over n in ns, and the position of each n's set among them.

    An n's set depends only on which element orders divide n, so n with
    the same row of _order_divides share one set, built once.
    """
    position: dict[bytes, int] = {}
    which = [position.setdefault(row.tobytes(), len(position)) for row in _order_divides(group, ns)[0]]
    return [_solutions(group, ns[which.index(i)]) for i in range(len(position))], which


def verify_order_p_form(group: FiniteGroup, p: int) -> VerificationReport:
    """The count of order-p elements has the shape (p-1)(np+1)."""
    _require_prime_divides(group, p)
    count = count_elements_of_order(group, p)
    q, rem = divmod(count, p - 1)
    params: dict[str, int] = {"p": p}
    passed = rem == 0 and q >= 1 and (q - 1) % p == 0
    if passed:
        params["n"] = (q - 1) // p
    return VerificationReport(
        theorem_id="intro.pcount",
        group=group.label,
        params=params,
        counted=count,
        relation=f"{count} = ({p}-1)*(n*{p}+1) for integer n >= 0",
        passed=passed,
    )


def solution_subgroup(group: FiniteGroup, n: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """Solutions of x^n = identity generate a characteristic subgroup of order divisible by n.

    The characteristic check runs only while the group order is within the
    automorphism cap; above it the report says so and checks divisibility
    alone.
    """
    _require_positive(n=n)
    if group.order % n != 0:
        raise ValueError(f"n={n} must divide the group order {group.order}")
    return _solution_subgroup_reports(group, [n], caps)[0]


def _solution_subgroup_reports(group: FiniteGroup, ns: Sequence[int], caps: Caps) -> list[VerificationReport]:
    """solution_subgroup for each n in ns, divisors of h, with one closure per distinct solution set.

    The characteristic check and the witness string are made once per
    distinct closure; only the divisibility and the text depend on n. The
    checks share one search of Aut(G), made only if some closure is
    neither 1 nor G.
    """
    sets, which = _solution_sets(group, ns)
    closures = [closure_of(s) for s in sets]
    distinct = {k.mask: k for k in closures}
    witness = {mask: _members_str(k._arr) for mask, k in distinct.items()}
    check_char = group.order <= caps.automorphisms
    verdicts = _characteristic(group, list(distinct.values()), caps.automorphisms) if check_char else []
    characteristic = dict(zip(distinct, verdicts))
    reports = []
    for n, i in zip(ns, which):
        generated = closures[i]
        size_ok = generated.size % n == 0
        if check_char:
            char_ok = characteristic[generated.mask]
            relation = f"n={n} divides closure order {generated.size}; characteristic={'yes' if char_ok else 'no'}"
            passed = size_ok and char_ok
        else:
            relation = f"n={n} divides closure order {generated.size}; characteristic check skipped (cap)"
            passed = size_ok
        reports.append(VerificationReport(
            "S2.III", group.label, {"n": n}, generated.size, relation, passed, [witness[generated.mask]]
        ))
    return reports


def complex_power_stabilization(r_set: ComplexSet) -> tuple[int, int, SubgroupSet]:
    """First repetition in the power sequence R, R^2, R^3, ...

    Returns the least (r, s) with R^(r+s) = R^r, together with the unique
    group among the powers. When the identity lies in R that group is the
    closure of R and s = 1, certified by equality with closure_of(R).

    A product AB of complexes is the whole group once |A| + |B| > h: for
    every g, the |B| elements of gB^-1 cannot all miss A, and a = gb^-1
    gives g = ab. Such a power is set to the whole group without a product.
    """
    if r_set.size == 0:
        raise ValueError("the complex must be nonempty")
    group = r_set.parent
    table = group.table
    base = r_set._arr
    present = _vector(base, group.order)
    seq: list[np.ndarray] = []
    seen: dict[bytes, int] = {}
    k = 1
    while (key := present.tobytes()) not in seen:  # present holds R^k
        seen[key] = k
        seq.append(present.nonzero()[0])
        if seq[-1].size + base.size > group.order:
            present = np.ones(group.order, dtype=bool)
        else:
            present = _vector(table[np.ix_(seq[-1], base)], group.order)
        k += 1
    rr = seen[key]
    ss = k - rr
    t = ((rr + ss - 1) // ss) * ss  # the multiple of s in [r, r+s)
    if 0 not in r_set:
        return rr, ss, SubgroupSet(group, seq[t - 1])
    stabilized = closure_of(r_set)
    if ss != 1 or not np.array_equal(seq[t - 1], stabilized._arr):  # R^t R = R^t gives R^t R^t = R^t
        raise RuntimeError("power sequence of a complex containing the identity "
                           "did not stabilize onto its closure")
    return rr, ss, stabilized


def power_stabilization_check(group: FiniteGroup, n: int) -> VerificationReport:
    """Powers of the solution set of x^n = identity stabilize at its closure."""
    _require_positive(n=n)
    if group.order % n != 0:
        raise ValueError(f"n={n} must divide the group order {group.order}")
    return _power_stabilization_reports(group, [n])[0]


def _power_stabilization_reports(group: FiniteGroup, ns: Sequence[int]) -> list[VerificationReport]:
    """power_stabilization_check for each n in ns, divisors of h: one power sequence per distinct solution set."""
    sets, which = _solution_sets(group, ns)
    runs = [complex_power_stabilization(s) for s in sets]  # e is in every set, so each run certifies its closure
    return [VerificationReport(
        "S2.power", group.label, {"n": n, "r": rr, "s": ss}, stabilized.size,
        f"R^{rr}=R^{rr + 1} equals the closure; order divisible by {n}", stabilized.size % n == 0,
    ) for n, (rr, ss, stabilized) in zip(ns, [runs[i] for i in which])]


def verify_coprime_product(group: FiniteGroup, r: int, s: int) -> VerificationReport:
    """With exactly r solutions of x^r = e and s of x^s = e, all rs products are distinct solutions of x^(rs) = e."""
    _require_positive(r=r, s=s)
    if gcd(r, s) != 1:
        raise ValueError(f"{r} and {s} are not coprime")
    h = group.order
    if h % r != 0 or h % s != 0:
        raise ValueError(f"both {r} and {s} must divide the group order {h}")
    a_arr = (r % group.elem_order == 0).nonzero()[0]  # the solutions of x^r = e
    b_arr = (s % group.elem_order == 0).nonzero()[0]
    count_r, count_s = a_arr.size, b_arr.size
    params = {"r": r, "s": s}
    if count_r != r or count_s != s:
        return VerificationReport(
            theorem_id="S2.IV",
            group=group.label,
            params=params,
            counted=[count_r, count_s],
            relation=f"not applicable: solution counts ({count_r},{count_s}) differ from ({r},{s})",
            passed=True,
            applicable=False,
        )
    prods = group.table[np.ix_(a_arr, b_arr)]
    commuting = bool((prods == group.table[np.ix_(b_arr, a_arr)].T).all())
    distinct = np.count_nonzero(_vector(prods, group.order)) == r * s
    count_rs = count_solutions(group, r * s)
    passed = commuting and distinct and count_rs == r * s
    return VerificationReport(
        theorem_id="S2.IV",
        group=group.label,
        params=params,
        counted=count_rs,
        relation=f"{r}*{s}={r * s} commuting distinct products solve x^{r * s}=e",
        passed=passed,
    )


def _require_prime_power_divides(group: FiniteGroup, p: int, kappa: int) -> None:
    _require_prime(group, p)
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if valuation(group.order, p) < kappa:
        raise ValueError(f"{p}^{kappa} does not divide {group.order}")


def count_p_subgroups(group: FiniteGroup, p: int, kappa: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """The number of subgroups of order p^kappa is congruent to 1 mod p."""
    _require_prime_power_divides(group, p, kappa)
    rows = lattice(group, caps.subgroups).of_order(p**kappa)
    counted = rows.stop - rows.start
    return VerificationReport(
        theorem_id="S4.I",
        group=group.label,
        params={"p": p, "kappa": kappa},
        counted=counted,
        relation=f"{counted} == 1 (mod {p})",
        passed=counted % p == 1,
    )


def count_containing(
    group: FiniteGroup, p_sub: SubgroupSet, p: int, kappa: int, caps: Caps = DEFAULT_CAPS
) -> VerificationReport:
    """The number of order-p^kappa subgroups containing a fixed p-subgroup is 1 mod p."""
    if p_sub.parent is not group:
        raise ValueError("subgroup does not belong to the given group")
    _require_prime_power_divides(group, p, kappa)
    if p_sub.size > 1 and prime_power_base(p_sub.size) != p:
        raise ValueError(f"subgroup order {p_sub.size} is not a power of {p}")
    theta = valuation(p_sub.size, p)
    if theta > kappa:
        raise ValueError(f"subgroup order {p}^{theta} exceeds target order {p}^{kappa}")
    lat = lattice(group, caps.subgroups)
    return _containing_reports(group, lat, p, [lat.index[p_sub.mask]], [kappa])[0]


def _containing_reports(
    group: FiniteGroup, lat: Lattice, p: int, rows: Sequence[int], kappas: Sequence[int]
) -> list[VerificationReport]:
    """count_containing on arguments known valid, for each p-subgroup row and each kappa at or above its exponent.

    The counts for one kappa are column sums of contains over the
    order-p^kappa rows, one for all the given rows at once.
    """
    counts = [lat.contains[lat.of_order(p**kappa), rows].sum(axis=0).tolist() for kappa in kappas]
    reports = []
    for i, row in enumerate(rows):
        sub = lat.subs[row]
        theta = valuation(sub.size, p)
        witness = f"P={_members_str(sub._arr)}"
        for kappa, column in zip(kappas, counts):
            if kappa >= theta:
                counted = column[i]
                reports.append(VerificationReport(
                    "S4.II", group.label, {"p": p, "kappa": kappa, "theta": theta}, counted,
                    f"{counted} == 1 (mod {p})", counted % p == 1, [witness],
                ))
    return reports


def incidence_check(group: FiniteGroup, p: int, kappa: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """Pair counts between orders p^(kappa-1) and p^kappa agree and are 1 mod p each."""
    _require_prime_power_divides(group, p, kappa)
    lat = lattice(group, caps.subgroups)
    incidence = lat.contains[lat.of_order(p**kappa), lat.of_order(p ** (kappa - 1))]  # [b, a]: b contains a
    a_counts, b_counts = incidence.sum(axis=0).tolist(), incidence.sum(axis=1).tolist()
    pairs = sum(a_counts)  # the b side sums the same matrix, so it cannot differ
    bad = {side: [i for i, c in enumerate(counts) if c % p != 1] for side, counts in (("a", a_counts), ("b", b_counts))}
    witnesses = [f"bad {side} at index {where[0]}" for side, where in bad.items() if where]
    return VerificationReport(
        theorem_id="S4.4",
        group=group.label,
        params={"p": p, "kappa": kappa},
        counted=[pairs, pairs],
        relation=f"pair count both ways ({pairs}={pairs}); every a,b == 1 (mod {p})",
        passed=not witnesses,
        witnesses=witnesses,
    )


def classify_kinds(
    group: FiniteGroup, p: int, kappa: int, caps: Caps = DEFAULT_CAPS
) -> tuple[KindClassification, VerificationReport]:
    """Split order-p^kappa subgroups by whether p^lambda divides their normalizer order."""
    _require_prime_power_divides(group, p, kappa)
    lat = lattice(group, caps.subgroups)
    rows = lat.of_order(p**kappa)
    kind = lat.normalizer_order[rows] % p ** valuation(group.order, p) == 0  # first kind
    first = [s for s, k in zip(lat.subs[rows], kind) if k]
    second = [s for s, k in zip(lat.subs[rows], kind) if not k]
    report = VerificationReport(
        theorem_id="S5.I",
        group=group.label,
        params={"p": p, "kappa": kappa},
        counted=[len(first), len(second)],
        relation=f"first kind {len(first)} == 1 (mod {p}), second kind {len(second)} == 0 (mod {p})",
        passed=len(first) % p == 1 and len(second) % p == 0,
    )
    return KindClassification(first_kind=first, second_kind=second), report


def count_normal_within(
    pgroup: FiniteGroup,
    normal_sub: SubgroupSet,
    p: int,
    kappa: int,
    caps: Caps = DEFAULT_CAPS,
) -> VerificationReport:
    """Order-p^kappa subgroups of a normal subgroup that are normal in the whole group number 1 mod p.

    Stated for a p-group ambient.
    """
    _require_prime(pgroup, p)
    if prime_power_base(pgroup.order) != p:
        raise ValueError(f"ambient order {pgroup.order} is not a power of {p}")
    if normal_sub.parent is not pgroup:
        raise ValueError("subgroup does not belong to the given group")
    lat = lattice(pgroup, caps.subgroups)
    if not lat.normal[lat.index[normal_sub.mask]]:
        raise ValueError("the containing subgroup must be normal")
    if kappa < 1 or normal_sub.size % p**kappa != 0:
        raise ValueError(f"{p}^{kappa} does not divide the subgroup order {normal_sub.size}")
    return _normal_within_reports(pgroup, lat, p, [lat.index[normal_sub.mask]], [kappa])[0]


def _normal_within_reports(
    pgroup: FiniteGroup, lat: Lattice, p: int, rows: Sequence[int], kappas: Sequence[int]
) -> list[VerificationReport]:
    """count_normal_within on arguments known valid, for each normal row and each kappa with p^kappa dividing its order.

    The counts for one kappa are row sums of contains over the normal
    order-p^kappa subgroups, one for all the given rows at once.
    """
    counts = [
        (lat.contains[rows, order] & lat.normal[order]).sum(axis=1).tolist()
        for order in (lat.of_order(p**kappa) for kappa in kappas)
    ]
    reports = []
    for i, row in enumerate(rows):
        sub = lat.subs[row]
        witness = f"G={_members_str(sub._arr)}"
        for kappa, column in zip(kappas, counts):
            if sub.size % p**kappa == 0:
                counted = column[i]
                reports.append(VerificationReport(
                    "S5.II", pgroup.label, {"p": p, "kappa": kappa, "normal_order": sub.size}, counted,
                    f"{counted} == 1 (mod {p})", counted % p == 1, [witness],
                ))
    return reports


def _sylow_normals(lat: Lattice, top_row: int) -> tuple[int, np.ndarray, np.ndarray]:
    """|N(P)|, the rows of the subgroups normal in the Sylow subgroup P at top_row, and their N(P)-orbits.

    All three are slices of the lattice's action table: Q <= P is normal in
    P iff every element of P fixes Q's row; N(P), the elements fixing P's
    row, permutes those Q, and each of its orbits is named by its least row.
    """
    below = np.flatnonzero(lat.contains[top_row])
    rows = below[(lat.action[below[:, None], lat.subs[top_row]._arr] == below[:, None]).all(axis=1)]
    norm_top = np.flatnonzero(lat.action[top_row] == top_row)
    return norm_top.size, rows, lat.action[rows[:, None], norm_top].min(axis=1)


def congruence7(group: FiniteGroup, p: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """h/q' == p'/r modulo p^(lambda-delta), for every normal subgroup Q of a Sylow subgroup P.

    Both sides are orbit lengths (orbit-stabilizer): h/q' = h/|N(Q)| is the
    number of Q's conjugates in G, its lattice class size, and p'/r =
    |N(P)|/|N(Q) meet N(P)| the number of its conjugates under N(P).

    P is the first order-p^lambda row of the lattice (all Sylow p-subgroups
    are conjugate). Not applicable when the Sylow p-subgroup is normal:
    there is no proper conjugate to define delta.
    """
    _require_prime_divides(group, p)
    h = group.order
    lam = valuation(h, p)
    lat = lattice(group, caps.subgroups)
    top_row = lat.of_order(p**lam).start
    if lat.normal[top_row]:
        return VerificationReport(
            theorem_id="S5.7",
            group=group.label,
            params={"p": p},
            counted=0,
            relation="not applicable: the Sylow p-subgroup is normal",
            passed=True,
            applicable=False,
        )
    conjugates = np.flatnonzero(lat.class_id == lat.class_id[top_row])
    top_mask = lat.subs[top_row].mask
    delta = max(valuation((lat.subs[j].mask & top_mask).bit_count(), p) for j in conjugates if j != top_row)
    modulus = p ** (lam - delta)
    p_prime, normals, local = _sylow_normals(lat, top_row)
    h_q = lat.class_size[normals]  # h/q': Q's conjugates in G
    p_r = np.bincount(local)[local]  # p'/r: Q's conjugates under N(P)
    if (h % h_q).any() or (p_prime % p_r).any():
        raise RuntimeError("conjugacy orbit lengths do not divide the acting group order; engine invariant broken")
    witnesses = []
    passed = True
    for q_size, lhs, rhs in zip(lat.sizes[normals].tolist(), h_q.tolist(), p_r.tolist()):
        ok = (lhs - rhs) % modulus == 0
        passed = passed and ok
        witnesses.append(f"|Q|={q_size} h/q'={lhs} p'/r={rhs}{'' if ok else ' MISMATCH'}")
    return VerificationReport(
        theorem_id="S5.7",
        group=group.label,
        params={"p": p, "lambda": lam, "delta": delta},
        counted=len(normals),
        relation=f"h/q' == p'/r (mod {modulus}) for all normal subgroups of the Sylow subgroup",
        passed=passed,
        witnesses=witnesses,
    )


def normal_fusion_check(group: FiniteGroup, p: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """H-conjugacy between normal subgroups of a Sylow subgroup is realized in its normalizer.

    Also checks the class-count corollary: first-kind subgroups of each
    order fall into as many H-classes as the Sylow subgroup's normal
    subgroups do under its normalizer. The Sylow subgroup is the first
    lattice row of its order.
    """
    _require_prime_divides(group, p)
    lam = valuation(group.order, p)
    lat = lattice(group, caps.subgroups)
    _, rows, local = _sylow_normals(lat, lat.of_order(p**lam).start)
    normals = [lat.subs[j] for j in rows]
    ids = lat.class_id[rows]
    fused = np.flatnonzero(np.bincount(ids)[ids] > 1)  # positions H-conjugate to another normal subgroup
    same = ids[fused][:, None] == ids[fused]  # H-conjugate pairs, each with itself too
    pairs_checked = int(same.sum()) - len(fused)
    witnesses = [
        f"pair {_members_str(normals[i]._arr)} ~H~ {_members_str(normals[k]._arr)} not conjugate in the Sylow normalizer"
        for i, k in fused[np.argwhere(same & (local[fused][:, None] != local[fused]))]
    ]
    # class-count corollary, per subgroup order
    for kappa in range(1, lam + 1):
        kappa_rows = lat.of_order(p**kappa)
        first = lat.normalizer_order[kappa_rows] % p**lam == 0
        h_classes = len(set(lat.class_id[kappa_rows][first].tolist()))
        local_classes = len(set(local[lat.sizes[rows] == p**kappa].tolist()))
        if h_classes != local_classes:
            witnesses.append(
                f"kappa={kappa}: {h_classes} H-classes vs {local_classes} normalizer classes"
            )
    return VerificationReport(
        theorem_id="S5.III",
        group=group.label,
        params={"p": p},
        counted=pairs_checked,
        relation="every H-conjugate pair of Sylow-normal subgroups fuses in the normalizer; "
        "class counts agree",
        passed=not witnesses,
        witnesses=witnesses,
    )


def sylow_single_class(group: FiniteGroup, p: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """Sylow p-subgroups form one conjugacy class; their count is 1 mod p and divides h."""
    _require_prime_divides(group, p)
    h = group.order
    lam = valuation(h, p)
    lat = lattice(group, caps.subgroups)
    rows = lat.of_order(p**lam)
    counted = rows.stop - rows.start
    passed = len(set(lat.class_id[rows].tolist())) == 1 and counted % p == 1 and h % counted == 0
    return VerificationReport(
        theorem_id="intro.sylow",
        group=group.label,
        params={"p": p, "lambda": lam},
        counted=counted,
        relation=f"one conjugacy class; {counted} == 1 (mod {p}); {counted} divides {h}",
        passed=passed,
    )


def sylow_chain_check(group: FiniteGroup, p: int, caps: Caps = DEFAULT_CAPS) -> VerificationReport:
    """The Sylow tower has orders p..p^lambda, each term inside the next and normal in it, and tops out in the lattice.

    lambda is the p-valuation of h. The orders and the nesting make each step of index p, which the one-row
    normality test needs; the lattice check runs under the cap only.
    """
    chain = sylow_chain(group, p)
    lam = valuation(group.order, p)
    steps = list(zip(chain.chain, chain.chain[1:]))
    ok_orders = [s.size for s in chain.chain] == [p**k for k in range(1, lam + 1)]
    passed = (ok_orders and all(b.contains_subgroup(a) for a, b in steps)
              and all(_is_normal_of_prime_index(a, b) for a, b in steps))
    lattice_note = "lattice cross-check skipped (cap)"
    if group.order <= caps.subgroups:
        in_lattice = ok_orders and chain.top.mask in lattice(group, caps.subgroups).index
        lattice_note = f"top found in the enumerated order-{p**lam} list: {'yes' if in_lattice else 'no'}"
        passed = passed and in_lattice
    return VerificationReport(
        "S3.I", group.label, {"p": p, "lambda": lam}, lam,
        f"chain orders p..p^{lam}, each normal in the next; {lattice_note}", passed,
        [_members_str(s._arr) for s in chain.chain],
    )


FULL_SWEEP_LIMIT = 64  # intro.gcd sweeps every n in 1..h up to this order, the divisors of h above


@dataclass(frozen=True)
class _Check:
    """One row of the suite table.

    reports(group, caps, p) makes every report of the row for one group,
    calling its check functions through the module globals at call time.
    Consecutive per_prime rows share one loop over the primes and receive
    its p; other rows get p=None.
    """

    theorem_id: str
    needs_lattice: bool
    reports: Callable[[FiniteGroup, Caps, int | None], list[VerificationReport]]
    per_prime: bool = False


def _primes(group: FiniteGroup) -> list[int]:
    return sorted(prime_factorization(group.order))


def _moduli(group: FiniteGroup) -> Sequence[int]:
    h = group.order
    return range(1, h + 1) if h <= FULL_SWEEP_LIMIT else divisors(h)


def _coprime_pairs(group: FiniteGroup) -> list[tuple[int, int]]:
    divs = divisors(group.order)
    return [(r, s) for i, r in enumerate(divs) for s in divs[i + 1:] if r > 1 and gcd(r, s) == 1]


def _kappas(group: FiniteGroup, p: int) -> range:
    return range(1, valuation(group.order, p) + 1)


def _p_subgroup_reports(group, caps, p):
    """S4.II for each nontrivial p-subgroup, with each exponent from its own up to the Sylow one."""
    lat = lattice(group, caps.subgroups)
    kappas = _kappas(group, p)
    rows = np.flatnonzero(p ** kappas[-1] % lat.sizes == 0)[1:]  # orders dividing p^lambda; row 0 is trivial
    return _containing_reports(group, lat, p, rows.tolist(), kappas)


def _normal_subgroup_reports(group, caps, p):
    """S5.II for each nontrivial normal subgroup with each exponent up to its own, in p-groups only."""
    primes = _primes(group)
    if len(primes) != 1:
        return []
    lat = lattice(group, caps.subgroups)
    rows = np.flatnonzero(lat.normal)[1:]  # row 0 is the trivial subgroup
    return _normal_within_reports(group, lat, primes[0], rows.tolist(), _kappas(group, primes[0]))


_SUITE = (
    _Check("intro.gcd", False, lambda g, caps, p: _divisibility_reports(g, _moduli(g))),
    _Check("intro.pcount", False, lambda g, caps, p: [verify_order_p_form(g, q) for q in _primes(g)]),
    _Check("intro.sylow", True, lambda g, caps, p: [sylow_single_class(g, q, caps) for q in _primes(g)]),
    _Check("S3.I", False, lambda g, caps, p: [sylow_chain_check(g, q, caps) for q in _primes(g)]),
    _Check("S2.III", False, lambda g, caps, p: _solution_subgroup_reports(g, divisors(g.order), caps)),
    _Check("S2.power", False, lambda g, caps, p: _power_stabilization_reports(g, divisors(g.order))),
    _Check("S2.IV", False, lambda g, caps, p: [verify_coprime_product(g, r, s) for r, s in _coprime_pairs(g)]),
    _Check("S4.I", True, lambda g, caps, p: [count_p_subgroups(g, p, k, caps) for k in _kappas(g, p)], per_prime=True),
    _Check("S4.II", True, _p_subgroup_reports, per_prime=True),
    _Check("S4.4", True, lambda g, caps, p: [incidence_check(g, p, k, caps) for k in _kappas(g, p)], per_prime=True),
    _Check("S5.I", True, lambda g, caps, p: [classify_kinds(g, p, k, caps)[1] for k in _kappas(g, p)], per_prime=True),
    _Check("S5.II", True, _normal_subgroup_reports),
    _Check("S5.7", True, lambda g, caps, p: [congruence7(g, q, caps) for q in _primes(g)]),
    _Check("S5.III", True, lambda g, caps, p: [normal_fusion_check(g, q, caps) for q in _primes(g)]),
)


def select_checks(raw: str) -> frozenset[str]:
    """The check ids a comma-separated --theorems list names.

    Each item is an exact id or a section prefix ("S5" selects S5.I,
    S5.II, ...). Raises ValueError on an empty list or an item that names
    no check.
    """
    sections = {check.theorem_id: check.theorem_id.split(".")[0] for check in _SUITE}
    wanted = {part.strip() for part in raw.split(",")} - {""}
    unknown = sorted(wanted - set(sections) - set(sections.values())) if wanted else [repr(raw)]
    if unknown:
        raise ValueError(f"unknown theorem id(s): {', '.join(unknown)}")
    return frozenset(tid for tid, section in sections.items() if tid in wanted or section in wanted)


def theorem_suite(
    group: FiniteGroup, caps: Caps = DEFAULT_CAPS, selected: frozenset[str] | None = None
) -> list[VerificationReport]:
    """Run every applicable row of the suite table, in table order.

    The headline divisibility check sweeps every n in 1..h while h is at
    most FULL_SWEEP_LIMIT and the divisors of h above it. Checks that need
    the subgroup lattice are skipped for groups over the enumeration cap.
    selected, from select_checks, holds the theorem ids to run (None runs
    them all); a check outside it is not computed, parameters included.
    """
    lattice_ok = group.order <= caps.subgroups
    reports: list[VerificationReport] = []
    for per_prime, rows in groupby(_SUITE, key=attrgetter("per_prime")):
        block = [c for c in rows if (lattice_ok or not c.needs_lattice)
                 and (selected is None or c.theorem_id in selected)]
        for p in _primes(group) if per_prime else (None,):
            for check in block:
                reports.extend(check.reports(group, caps, p))
    return reports
