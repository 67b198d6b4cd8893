"""The fixed argv lists the benchmark drives through ``sylowlab.cli.main``.

Every workload is a list of ``verify`` calls, one per group. The lists are
literal so that a change to ``standard_catalog`` cannot change what is
measured; ``run.py --check-golden`` confirms that the per-group calls of
``catalog60`` and ``filtered`` concatenate to the ``--catalog 60`` output.
The seed only shuffles call order. Why each workload exists is recorded in
``BENCHMARK.json``; which layer each one stresses is in ``README.md``.
"""

from __future__ import annotations

HEISENBERG_27 = "perm:(1 4 7)(2 5 8)(3 6 9);(4 5 6)(7 9 8)"
EXTRASPECIAL_27_EXP9 = "perm:(1 2 3 4 5 6 7 8 9);(2 8 5)(3 6 9)"

# standard_catalog(60), in catalog order.
CATALOG60 = (
    [f"cyclic:{n}" for n in range(1, 61)]
    + [f"dihedral:{m}" for m in range(4, 61, 2)]
    + ["sym:3", "sym:4", "alt:4", "alt:5", "q8"]
    + ["elab:2^2", "elab:2^3", "elab:2^4", "elab:2^5", "elab:3^2", "elab:3^3", "elab:5^2"]
    + [HEISENBERG_27, EXTRASPECIAL_27_EXP9]
    + ["prod(cyclic:2,cyclic:4)", "prod(cyclic:2,q8)", "prod(sym:3,cyclic:2)"]
)

PGROUPS = [
    "elab:2^4", "elab:2^5", "prod(cyclic:2,q8)", "dihedral:16", "dihedral:32", "dihedral:64",
    "cyclic:64", "elab:3^3", HEISENBERG_27, EXTRASPECIAL_27_EXP9, "elab:5^2", "q8",
]

LARGE = [
    "sym:5", "alt:6", "prod(sym:4,dihedral:12)", "prod(sym:5,cyclic:3)", "prod(sym:4,elab:2^4)",
    "prod(alt:5,dihedral:8)", "prod(sym:5,cyclic:4)", "dihedral:512", "elab:2^9",
    "prod(q8,elab:2^6)",
]

FILTER = "intro.gcd,intro.pcount,S2.IV"


def _verify(specs: list[str], *extra: str) -> list[list[str]]:
    return [["verify", spec, "--json", *extra] for spec in specs]


WORKLOADS: dict[str, list[list[str]]] = {
    "catalog60": _verify(CATALOG60),
    "pgroups": _verify(PGROUPS),
    "large": _verify(LARGE),
    "filtered": _verify(CATALOG60, "--theorems", FILTER),
}

# Whole-catalog calls whose stdout must equal the concatenation, in list
# order, of the per-group calls of the named workload.
CATALOG_EQUIVALENTS: dict[str, list[str]] = {
    "catalog60": ["verify", "--catalog", "60", "--json"],
    "filtered": ["verify", "--catalog", "60", "--json", "--theorems", FILTER],
}
