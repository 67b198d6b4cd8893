"""Span tracer that wraps sylowlab's public functions from outside the package.

``Tracer.install`` replaces each target function, in every ``sylowlab``
module namespace that holds it (``counting.all_subgroups`` as well as
``subgroups.all_subgroups``), by a wrapper that records one span per call:
name, start, end, the index of the enclosing span and the index of the
CLI call it belongs to. Spans stay in memory until ``write_spans``.
Nothing in ``src/`` knows about the tracer, so it is off unless installed.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# Theorem id -> the counting function that produces its reports.
CHECKS = {
    "intro.gcd": "verify_divisibility",
    "intro.pcount": "verify_order_p_form",
    "intro.sylow": "sylow_single_class",
    "S2.III": "solution_subgroup",
    "S2.power": "power_stabilization_check",
    "S2.IV": "verify_coprime_product",
    "S3.I": "sylow_chain_check",
    "S4.I": "count_p_subgroups",
    "S4.II": "count_containing",
    "S4.4": "incidence_check",
    "S5.I": "classify_kinds",
    "S5.II": "count_normal_within",
    "S5.7": "congruence7",
    "S5.III": "normal_fusion_check",
}

# Span name -> (defining module, attribute path). A dotted path names a
# method, which is patched on its class.
TARGETS = {
    "cli.main": ("sylowlab.cli", "main"),
    "catalog.parse_spec": ("sylowlab.catalog", "parse_spec"),
    "catalog.build": ("sylowlab.catalog", "build"),
    "groups.group_from_generators": ("sylowlab.groups", "group_from_generators"),
    "groups.conj_table": ("sylowlab.groups", "FiniteGroup.conj_table"),
    "subgroups.all_subgroups": ("sylowlab.subgroups", "all_subgroups"),
    "subgroups.subgroups_within": ("sylowlab.subgroups", "subgroups_within"),
    "subgroups.automorphisms": ("sylowlab.subgroups", "automorphisms"),
    "subgroups.is_characteristic": ("sylowlab.subgroups", "is_characteristic"),
    "subgroups.closure_of": ("sylowlab.subgroups", "closure_of"),
    "subgroups.normalizer": ("sylowlab.subgroups", "normalizer"),
    "subgroups.subgroup_conjugacy_classes": ("sylowlab.subgroups", "subgroup_conjugacy_classes"),
    "subgroups.quotient": ("sylowlab.subgroups", "quotient"),
    "sylow.sylow_chain": ("sylowlab.sylow", "sylow_chain"),
    "counting.theorem_suite": ("sylowlab.counting", "theorem_suite"),
    "counting.complex_power_stabilization": ("sylowlab.counting", "complex_power_stabilization"),
    "counting.json_line": ("sylowlab.counting", "VerificationReport.json_line"),
    **{f"counting.{tid}": ("sylowlab.counting", fn) for tid, fn in CHECKS.items()},
}

# Per-group cache entries the engine keeps in ``FiniteGroup._cache``; a call
# that finds its entry missing computes the result instead of reusing it.
CACHE_KEYS = {
    "groups.conj_table": "conj",
    "subgroups.all_subgroups": "subgroups",
    "subgroups.automorphisms": "automorphisms",
}

COUNTERS = (
    "cli.reports_computed",
    "groups.conj_table_computed",
    "subgroups.lattice_size",
    "subgroups.automorphisms_found",
)


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the time its child spans cover.

    ``spans`` is a sequence of (name, start, end, parent, ...) records where
    parent is the index of the enclosing span or -1. Child intervals are
    clipped to the parent and merged, so overlapping children count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


class Tracer:
    """Records spans and counts for the functions in ``TARGETS``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call = -1  # index of the CLI call in progress, shared by its spans
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sylow_keys: set[tuple[int, int]] = set()
        self._sylow_groups: list = []  # keeps ids in _sylow_keys from being reused

    def install(self) -> None:
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "sylowlab" or mod_name.startswith("sylowlab."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        cache_key = CACHE_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fresh = cache_key is not None and cache_key not in args[0]._cache
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.call])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            self._observe(name, args, result, fresh)
            return result

        return traced

    def _observe(self, name: str, args, result, fresh: bool) -> None:
        if name == "counting.theorem_suite":
            self.counts["cli.reports_computed"] += len(result)
            for report in result:
                self.counts[f"counting.{report.theorem_id}_reports"] += 1
        elif name == "groups.conj_table" and fresh:
            self.counts["groups.conj_table_computed"] += 1
        elif name == "subgroups.all_subgroups" and fresh:
            self.counts["subgroups.lattice_size"] += len(result)
        elif name == "subgroups.automorphisms" and fresh:
            self.counts["subgroups.automorphisms_found"] += len(result)
        elif name == "sylow.sylow_chain":
            self._sylow_keys.add((id(args[0]), int(args[1])))
            self._sylow_groups.append(args[0])

    def metrics(self) -> dict[str, float]:
        """Self seconds and call count per span name, plus the counters."""
        out: dict[str, float] = {}
        times = self_times(self.spans)
        calls = Counter(span[0] for span in self.spans)
        for name in TARGETS:
            out[f"{name}_s"] = times.get(name, 0.0)
            out[f"{name}_calls"] = calls[name]
        for tid in CHECKS:
            out[f"counting.{tid}_reports"] = self.counts[f"counting.{tid}_reports"]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        chains = calls["sylow.sylow_chain"]
        out["sylow.sylow_chain_repeat_frac"] = 1 - len(self._sylow_keys) / chains if chains else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "call": call}) + "\n")
