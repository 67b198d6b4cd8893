"""Command-line front end: argv parsing, dispatch and exit codes.

The argparse parser is built once per process, on the first main call.
Check selection belongs to the engine: counting.select_checks parses
--theorems. Exit codes: 0 all good, 1 at least one verification check
failed, 2 usage, parse or build errors or out of memory, 3 an engine
invariant broke (a bug, not a failed check), 141 (128 + SIGPIPE) stdout
was closed before all output was written, as by `| head`. Reports go to stdout,
diagnostics to stderr. The SYLOWLAB_CAPS env var
("construction,subgroups,automorphisms") overrides the three size caps.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .catalog import build, catalog_specs
from .config import Caps, caps_from_env
from .counting import _members_str, select_checks, theorem_suite
from .errors import SylowLabError
from .subgroups import center, conjugacy_classes, is_cyclic, lattice
from .sylow import coprime_decomposition, sylow_chain


def _cmd_info(args, caps: Caps) -> int:
    group = build(args.group, cap=caps.construction)
    orders, counts = np.unique(group.elem_order, return_counts=True)
    histogram = " ".join(f"{int(o)}:{int(c)}" for o, c in zip(orders, counts))
    print(f"group: {group.label}")
    print(f"order: {group.order}")
    print(f"abelian: {'yes' if group.is_abelian() else 'no'}")
    print(f"cyclic: {'yes' if is_cyclic(group) else 'no'}")
    print(f"center order: {center(group).size}")
    print(f"exponent: {group.exponent()}")
    print(f"element orders: {histogram}")
    if args.elements:
        for i in range(group.order):
            print(f"{i}: {group.name_of(i)}")
    return 0


def _cmd_subgroups(args, caps: Caps) -> int:
    if args.order is not None and args.order < 1:
        raise ValueError(f"--order needs a positive order, got {args.order}")
    group = build(args.group, cap=caps.construction)
    lat = lattice(group, caps.subgroups)
    for sub, normal, norm_order in zip(lat.subs, lat.normal, lat.normalizer_order.tolist()):
        if args.order is not None and sub.size != args.order:
            continue
        if args.normal and not normal:
            continue
        print(
            f"order={sub.size} members={_members_str(sub._arr)} "
            f"normal={'yes' if normal else 'no'} normalizer={norm_order}"
        )
    return 0


def _cmd_classes(args, caps: Caps) -> int:
    group = build(args.group, cap=caps.construction)
    partition = conjugacy_classes(group)
    print(f"classes: {len(partition.representatives)}")
    for c, members in enumerate(partition.classes()):
        rep = partition.representatives[c]
        print(
            f"class {c}: size={partition.class_sizes[c]} rep={rep} ({group.name_of(rep)}) "
            f"members={_members_str(members)}"
        )
    return 0


def _cmd_sylow(args, caps: Caps) -> int:
    group = build(args.group, cap=caps.construction)
    chain = sylow_chain(group, args.prime)
    print(f"prime: {chain.prime}")
    print("chain orders: " + ",".join(str(s.size) for s in chain.chain))
    for sub in chain.chain:
        print(f"order={sub.size} members={_members_str(sub._arr)}")
    return 0


def _cmd_decompose(args, caps: Caps) -> int:
    group = build(args.group, cap=caps.construction)
    dec = coprime_decomposition(group, args.element, args.a, args.b)
    print(f"element: {args.element} ({group.name_of(args.element)})")
    print(f"alpha={dec.alpha} beta={dec.beta}")
    print(f"a_part={dec.a_part} ({group.name_of(dec.a_part)}) order={dec.a}")
    print(f"b_part={dec.b_part} ({group.name_of(dec.b_part)}) order={dec.b}")
    return 0


def _cmd_verify(args, caps: Caps) -> int:
    if args.catalog is not None and args.group is not None:
        raise ValueError("give either a group spec or --catalog, not both")
    if args.catalog is None and args.group is None:
        raise ValueError("verify needs a group spec or --catalog")
    if args.catalog is not None and args.catalog < 1:
        raise ValueError(f"--catalog needs a positive order, got {args.catalog}")
    selected = None if args.theorems is None else select_checks(args.theorems)
    specs = [args.group] if args.catalog is None else catalog_specs(args.catalog, caps.construction)
    failed = False
    for text in specs:  # one group built at a time, dropped before the next
        for report in theorem_suite(build(text, cap=caps.construction), caps, selected):
            print(report.json_line() if args.json else report.text_line())
            if not report.passed:
                failed = True
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylowlab",
        description="Inspect small finite groups and verify their counting theorems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="order, abelian/cyclic flags, center, exponent")
    p_info.add_argument("group", help="group spec, e.g. sym:4 or prod(cyclic:2,q8)")
    p_info.add_argument("--elements", action="store_true", help="list each element index with its name")
    p_info.set_defaults(func=_cmd_info)

    p_subs = sub.add_parser("subgroups", help="enumerate the full subgroup lattice")
    p_subs.add_argument("group")
    p_subs.add_argument("--order", type=int, default=None, help="only subgroups of this order")
    p_subs.add_argument("--normal", action="store_true", help="only normal subgroups")
    p_subs.set_defaults(func=_cmd_subgroups)

    p_classes = sub.add_parser("classes", help="conjugacy classes with sizes and representatives")
    p_classes.add_argument("group")
    p_classes.set_defaults(func=_cmd_classes)

    p_sylow = sub.add_parser("sylow", help="constructive Sylow subgroup tower")
    p_sylow.add_argument("group")
    p_sylow.add_argument("--prime", type=int, required=True)
    p_sylow.set_defaults(func=_cmd_sylow)

    p_dec = sub.add_parser("decompose", help="split an element into commuting coprime-order parts")
    p_dec.add_argument("group")
    p_dec.add_argument("--element", type=int, required=True, help="element index")
    p_dec.add_argument("--a", type=int, required=True, help="order of the first part")
    p_dec.add_argument("--b", type=int, required=True, help="order of the second part")
    p_dec.set_defaults(func=_cmd_decompose)

    p_verify = sub.add_parser("verify", help="run every applicable theorem check")
    p_verify.add_argument("group", nargs="?", default=None)
    p_verify.add_argument("--catalog", type=int, default=None, metavar="MAX_ORDER",
                          help="verify the whole standard catalog up to this order")
    p_verify.add_argument("--theorems", default=None,
                          help="comma-separated check ids or section prefixes, e.g. S4.I,S5")
    p_verify.add_argument("--json", action="store_true", help="one JSON object per report line")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args, caps_from_env())
    except (SylowLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


EXIT_BROKEN_PIPE = 141


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so the interpreter's
        # final flush of the unwritten buffer does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
