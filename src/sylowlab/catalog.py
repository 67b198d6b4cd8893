"""Deterministic constructors for the standard test groups, and the parser
for the textual group-spec and cycle-notation formats.

Grammar:

    spec   := kind ':' args | 'q8' | 'prod(' spec ',' spec ')'
              | 'perm:' cycles (';' cycles)* | 'table:@' filepath
    cycles := '(' int (' ' int)+ ')'+ | 'e'

Cycle points are 1-based in text and 0-based internally. Whitespace is
ignored everywhere except inside cycle parentheses, where it separates
points. Fixed points are never written.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS
from .errors import ClosureExceedsCap, ParseError
from .groups import FiniteGroup, Permutation, group_from_generators, group_from_table
from .numtheory import is_prime

_KINDS = {"cyclic", "dihedral", "sym", "alt", "q8", "elab", "prod", "perm", "table"}

# Nonabelian groups of order 27 as permutations on 9 points: the exponent-3
# group (two commuting-up-to-center translations of the 3x3 grid) and the
# exponent-9 group (a 9-cycle twisted by an order-3 multiplier).
HEISENBERG_3_SPEC = "perm:(1 4 7)(2 5 8)(3 6 9);(4 5 6)(7 9 8)"
EXTRASPECIAL_27_EXP9_SPEC = "perm:(1 2 3 4 5 6 7 8 9);(2 8 5)(3 6 9)"

# The deepest prod( nesting a spec may have. Parsing, building and rendering recurse
# once per level, so a deeper spec is a parse error, well before the recursion limit.
MAX_PROD_DEPTH = 256


@dataclass(frozen=True)
class GroupSpec:
    """Parsed description of a catalog group or generator list.

    args by kind: cyclic/dihedral/sym/alt hold (n,); elab holds (p, k);
    q8 holds (); prod holds two sub-specs; perm holds one tuple of
    canonical cycles per generator; table holds (filepath,).
    """

    kind: str
    args: tuple


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, expected: set[str]):
        raise ParseError(self.text, self.pos, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail({f"'{ch}'"})
        self.pos += 1

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()):
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.fail({"integer"})
        return int(self.text[start:self.pos])

    def parse(self) -> GroupSpec:
        spec = self.spec()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail({"end of input"})
        return spec

    def spec(self, depth: int = 0) -> GroupSpec:
        self.skip_ws()
        at_kind = self.pos
        kind = self.ident()
        if kind not in _KINDS:
            self.pos = at_kind
            self.fail(_KINDS)
        if kind == "q8":
            return GroupSpec("q8", ())
        if kind == "prod":
            if depth == MAX_PROD_DEPTH:
                self.pos = at_kind
                self.fail({f"a spec other than prod (prod nests at most {MAX_PROD_DEPTH} deep)"})
            self.skip_ws()
            self.expect("(")
            first = self.spec(depth + 1)
            self.skip_ws()
            self.expect(",")
            second = self.spec(depth + 1)
            self.skip_ws()
            self.expect(")")
            return GroupSpec("prod", (first, second))
        self.skip_ws()
        self.expect(":")
        if kind == "perm":
            gens = [self.cycles()]
            self.skip_ws()
            while self.peek() == ";":
                self.pos += 1
                gens.append(self.cycles())
                self.skip_ws()
            return GroupSpec("perm", tuple(gens))
        if kind == "table":
            self.skip_ws()
            self.expect("@")
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in ",)" and not self.text[self.pos].isspace():
                self.pos += 1
            path = self.text[start:self.pos]
            if not path:
                self.fail({"filepath"})
            return GroupSpec("table", (path,))
        if kind == "elab":
            self.skip_ws()
            p = self.integer()
            self.skip_ws()
            self.expect("^")
            self.skip_ws()
            k = self.integer()
            return _validated(GroupSpec("elab", (p, k)))
        self.skip_ws()
        n = self.integer()
        return _validated(GroupSpec(kind, (n,)))

    def cycles(self) -> tuple:
        """One generator: a canonicalized cycle tuple, or () for 'e'."""
        self.skip_ws()
        if self.peek() == "e":
            self.pos += 1
            return ()
        if self.peek() != "(":
            self.fail({"'('", "'e'"})
        raw: list[tuple[int, ...]] = []
        seen_points: set[int] = set()
        while True:
            self.skip_ws()
            if self.peek() != "(":
                break
            self.pos += 1
            points = [self.cycle_point(seen_points)]
            while True:
                had_ws = self.pos < len(self.text) and self.text[self.pos].isspace()
                self.skip_ws()
                if self.peek() == ")":
                    self.pos += 1
                    break
                if not had_ws:
                    self.fail({"' '", "')'"})
                points.append(self.cycle_point(seen_points))
            if len(points) < 2:
                self.fail({"a cycle of at least two points"})
            raw.append(tuple(points))
        return _canonical_cycles(raw)

    def cycle_point(self, seen: set[int]) -> int:
        at = self.pos
        value = self.integer()
        if value < 1:
            self.pos = at
            self.fail({"point >= 1"})
        if value in seen:
            raise ValueError(f"point {value} repeated within one generator")
        seen.add(value)
        return value


def _canonical_cycles(raw: list[tuple[int, ...]]) -> tuple:
    """Rotate each cycle to start at its least point; sort cycles by that point."""
    out = []
    for cyc in raw:
        k = cyc.index(min(cyc))
        out.append(cyc[k:] + cyc[:k])
    return tuple(sorted(out))


def _validated(spec: GroupSpec) -> GroupSpec:
    kind, args = spec.kind, spec.args
    if kind in ("cyclic", "sym", "alt") and args[0] < 1:
        raise ValueError(f"{kind} needs a positive parameter, got {args[0]}")
    if kind == "dihedral":
        if args[0] < 2 or args[0] % 2 != 0:
            raise ValueError(f"dihedral order must be even and >= 2, got {args[0]}")
    if kind == "elab":
        p, k = args
        if p >= 2**31:
            raise ValueError(f"elab base {p} is 2^31 or more, too large for an int32 table")
        if not is_prime(p):
            raise ValueError(f"elab base {p} is not prime")
        if k < 1:
            raise ValueError(f"elab exponent must be >= 1, got {k}")
    return spec


def parse_spec(text: str) -> GroupSpec:
    """Parse a group-spec string; errors carry the offset and expected tokens."""
    return _Parser(text).parse()


def render(spec: GroupSpec) -> str:
    """Canonical text of a spec; parse_spec(render(s)) == s."""
    kind, args = spec.kind, spec.args
    if kind == "q8":
        return "q8"
    if kind in ("cyclic", "dihedral", "sym", "alt"):
        return f"{kind}:{args[0]}"
    if kind == "elab":
        return f"elab:{args[0]}^{args[1]}"
    if kind == "prod":
        return f"prod({render(args[0])},{render(args[1])})"
    if kind == "perm":
        rendered = []
        for gen in args:
            if not gen:
                rendered.append("e")
            else:
                rendered.append("".join("(" + " ".join(map(str, cyc)) + ")" for cyc in gen))
        return "perm:" + ";".join(rendered)
    if kind == "table":
        return f"table:@{args[0]}"
    raise ValueError(f"unknown spec kind {kind!r}")


def _cycles_to_permutation(gen: tuple, degree: int) -> Permutation:
    images = list(range(degree))
    for cyc in gen:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return Permutation(images)


def _build_cyclic(n: int, label: str) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, label=label, element_names=lambda: _cyclic_names(n))


def _cyclic_names(n: int) -> list[str]:
    return ["e"] + ["g" if i == 1 else f"g^{i}" for i in range(1, n)]


def _build_dihedral(order: int, label: str) -> FiniteGroup:
    """Element k n + i is s^k r^i; as r^i s = s r^-i, (s^k r^i)(s^l r^j) = s^(k xor l) r^(j + (1 - 2 l) i).

    The table is filled in place, so no h x h temporary outlives one step.
    """
    n = order // 2
    k, i = np.divmod(np.arange(order, dtype=np.int32), n)
    table = (1 - 2 * k) * i[:, None]  # (1 - 2 l) i, row s^k r^i, column s^l r^j
    table += i
    table %= n
    np.add(table, n, out=table, where=k[:, None] != k)  # k xor l
    return FiniteGroup(table, label=label, element_names=lambda: _dihedral_names(n))


def _dihedral_names(n: int) -> list[str]:
    names = ["e"] + [f"r^{k}" if k > 1 else "r" for k in range(1, n)]
    return names + ["s"] + [f"s r^{k}" if k > 1 else "s r" for k in range(1, n)]


def _build_sym(n: int, label: str, cap: int) -> FiniteGroup:
    gens = []
    if n >= 2:
        gens.append(Permutation([(i + 1) % n for i in range(n)]))
        gens.append(Permutation([1, 0] + list(range(2, n))))
    return group_from_generators(gens, cap=cap, label=label)


def _build_alt(n: int, label: str, cap: int) -> FiniteGroup:
    gens = []
    for k in range(2, n):  # the 3-cycles (1 2 k+1)
        images = list(range(n))
        images[0], images[1], images[k] = images[1], images[k], images[0]
        gens.append(Permutation(images))
    return group_from_generators(gens, cap=cap, label=label)


def _build_q8(label: str) -> FiniteGroup:
    """Element 2 a + s is (-1)^s times the a-th of 1, i, j, k.

    A product's axis is a xor b; its sign flips for i^2 = j^2 = k^2 = -1
    (a = b > 0) and for the anticyclic products ji, kj, ik (b - a = 2 mod 3).
    """
    a, s = np.divmod(np.arange(8, dtype=np.int32), 2)
    left = a[:, None]
    flip = (left > 0) & (a > 0) & ((left == a) | ((a - left) % 3 == 2))
    table = 2 * (left ^ a) + (s[:, None] ^ s ^ flip)
    return FiniteGroup(table, label=label, element_names=[sign + axis for axis in "1ijk" for sign in ("", "-")])


def _build_elab(p: int, k: int, label: str) -> FiniteGroup:
    """(Z/p)^k with element i coded by its base-p digits, added digit by digit mod p.

    The table is the k-fold direct product of Z/p's: each factor puts one
    more digit in front, as the most significant.
    """
    digit = np.arange(p, dtype=np.int32)
    step = (digit[:, None] + digit) % p
    table = step
    for _ in range(k - 1):
        table = _product_table(step, table)
    return FiniteGroup(table, label=label, element_names=lambda: _elab_names(p, k))


def _elab_names(p: int, k: int) -> list[str]:
    weights = [p**d for d in range(k - 1, -1, -1)]
    return ["(" + ",".join(str(i // w % p) for w in weights) + ")" for i in range(p**k)]


def _product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The direct product's table, with (x, y) at index x * |B| + y."""
    order = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b.shape[0] + b[None, :, None, :]).reshape(order, order)


def _build_prod(a: FiniteGroup, b: FiniteGroup, label: str, cap: int) -> FiniteGroup:
    order = a.order * b.order
    if order > cap:
        raise ClosureExceedsCap(f"product order {order} exceeds cap {cap}")
    return FiniteGroup(_product_table(a.table, b.table), label=label, element_names=lambda: _prod_names(a, b))


def _prod_names(a: FiniteGroup, b: FiniteGroup) -> list[str] | None:
    if a.element_names is None or b.element_names is None:
        return None
    return [f"({na},{nb})" for na in a.element_names for nb in b.element_names]


def build(spec: GroupSpec | str, cap: int | None = None) -> FiniteGroup:
    """Construct the concrete group a spec describes, with deterministic indexing."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    _validated(spec)
    cap = DEFAULT_CAPS.construction if cap is None else cap
    kind, args = spec.kind, spec.args
    if kind == "prod":  # labelled from the built factors, so each node is rendered once
        a, b = build(args[0], cap), build(args[1], cap)
        return _build_prod(a, b, f"prod({a.label},{b.label})", cap)
    label = render(spec)
    if kind == "cyclic":
        _check_order(args[0], cap)
        return _build_cyclic(args[0], label)
    if kind == "dihedral":
        _check_order(args[0], cap)
        return _build_dihedral(args[0], label)
    if kind in ("sym", "alt"):
        _check_degree(args[0], cap)
        _check_factorial(args[0], kind == "alt", cap)
        return (_build_sym if kind == "sym" else _build_alt)(args[0], label, cap)
    if kind == "q8":
        _check_order(8, cap)
        return _build_q8(label)
    if kind == "elab":
        if args[1] > cap.bit_length():  # p^k >= 2^k > cap, refused without computing p^k
            raise ClosureExceedsCap(f"group order {args[0]}^{args[1]} exceeds construction cap {cap}")
        _check_order(args[0] ** args[1], cap)
        return _build_elab(args[0], args[1], label)
    if kind == "perm":
        degree = max((pt for gen in args for cyc in gen for pt in cyc), default=1)
        _check_degree(degree, cap)
        gens = [_cycles_to_permutation(gen, degree) for gen in args]
        return group_from_generators(gens, cap=cap, label=label)
    if kind == "table":
        try:
            width = _table_width(args[0], cap)  # before numpy reads the file, which is then a rectangle
            with warnings.catch_warnings():  # numpy warns that max_rows skips blank and comment rows
                warnings.simplefilter("ignore", UserWarning)
                raw = np.loadtxt(args[0], dtype=np.int64, max_rows=width + 1, ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read table file: {exc}") from exc
        return group_from_table(raw, cap=cap, label=label)
    raise ValueError(f"unknown spec kind {kind!r}")


def _table_width(path: str, cap: int) -> int:
    """Number of fields in a table file's first data row, once its first width + 1 data rows all have that many.

    Fields split as in np.loadtxt: on whitespace, "#" starts a comment, and
    rows without fields are skipped. Rows are read in pieces, and reading
    stops at the first piece past the bound, which is refused: the cap for
    the first row, the first row's width for the others. A later row that
    ends short is refused too, as is a file with no data row. Reading at
    most width + 1 rows then shows a table with too many rows.
    """
    width = rows = count = 0  # rows: data rows read; count: fields so far in the current row
    joined = comment = False  # joined: a field runs on into the next piece
    with open(path) as f:
        while rows <= width:
            piece = f.readline(1 << 16)  # at most 64 Ki characters at a time
            if not comment:
                text, hash_, _ = piece.partition("#")
                comment = bool(hash_)
                count += len(text.split()) - (joined and text[:1].strip() != "")
                joined = text[-1:].strip() != ""
            ended = piece.endswith("\n") or not piece  # the row, or the file, ends here
            shown = count if ended else f"over {width or cap}"
            if not rows and count > cap:
                raise ClosureExceedsCap(f"table order {shown} exceeds construction cap {cap}")
            if rows and (count > width or ended and 0 < count < width):
                raise ValueError(f"table row {rows + 1} has {shown} entries, the first row has {width}")
            if ended:
                rows, width = rows + (count > 0), width or count
                if not piece:
                    break
                count, joined, comment = 0, False, False
    if not rows:
        raise ValueError("table file has no rows")
    return width


def _check_order(order: int, cap: int) -> None:
    if order > cap:
        raise ClosureExceedsCap(f"group order {order} exceeds construction cap {cap}")


def _check_degree(degree: int, cap: int) -> None:
    if degree > cap:
        raise ClosureExceedsCap(f"permutation degree {degree} exceeds construction cap {cap}")


def _check_factorial(n: int, halved: bool, cap: int) -> None:
    """Refuse sym:n (order n!) or alt:n (n!/2) above the cap, before any permutation is built.

    The product grows one factor at a time and stops once it passes the cap.
    """
    order = 1
    for k in range(3 if halved else 2, n + 1):  # n!/2 = 3 * 4 * ... * n, and alt:1, alt:2 have order 1
        order *= k
        if order > cap:
            raise ClosureExceedsCap(f"group order {n}!{'/2' if halved else ''} exceeds construction cap {cap}")


def catalog_specs(max_order: int, cap: int | None = None) -> list[str]:
    """The spec strings of the fixed family of test groups, filtered by order, each already canonical.

    Cyclic groups of every order up to the bound, dihedral groups from
    order 4 up, small symmetric and alternating groups, the quaternion
    group, elementary abelian groups for p in {2, 3, 5}, the nonabelian
    groups of order p^3 for p in {2, 3}, and three direct products.
    """
    bound = min(max_order, DEFAULT_CAPS.construction if cap is None else cap)
    specs: list[str] = []
    specs += [f"cyclic:{n}" for n in range(1, bound + 1)]
    specs += [f"dihedral:{m}" for m in range(4, bound + 1, 2)]
    specs += [f"sym:{n}" for n, size in ((3, 6), (4, 24), (5, 120)) if size <= bound]
    specs += [f"alt:{n}" for n, size in ((4, 12), (5, 60)) if size <= bound]
    if 8 <= bound:
        specs.append("q8")
    for p, top in ((2, 5), (3, 4), (5, 2)):
        specs += [f"elab:{p}^{k}" for k in range(2, top + 1) if p**k <= bound]
    if 27 <= bound:
        specs.append(HEISENBERG_3_SPEC)
        specs.append(EXTRASPECIAL_27_EXP9_SPEC)
    for spec_text, size in (
        ("prod(cyclic:2,cyclic:4)", 8),
        ("prod(cyclic:2,q8)", 16),
        ("prod(sym:3,cyclic:2)", 12),
    ):
        if size <= bound:
            specs.append(spec_text)
    return specs


def standard_catalog(max_order: int, cap: int | None = None) -> list[tuple[str, FiniteGroup]]:
    """The catalog_specs groups, built, as (spec string, group) pairs."""
    return [(text, build(text, cap=cap)) for text in catalog_specs(max_order, cap)]
