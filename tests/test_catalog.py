"""Group-spec grammar, builders and the standard catalog."""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowlab import catalog, cli
from sylowlab.catalog import (
    EXTRASPECIAL_27_EXP9_SPEC,
    HEISENBERG_3_SPEC,
    MAX_PROD_DEPTH,
    GroupSpec,
    build,
    catalog_specs,
    parse_spec,
    render,
    standard_catalog,
)
from sylowlab.errors import ClosureExceedsCap, NotAGroup, ParseError
from sylowlab.groups import group_from_table
from sylowlab.subgroups import center, is_cyclic

from oracles import build_by_oracles, elab_by_digit_array, power_table_by_rows


@pytest.mark.parametrize(
    "text",
    [
        "cyclic:6",
        "dihedral:8",
        "sym:4",
        "alt:5",
        "q8",
        "elab:3^2",
        "prod(cyclic:2,cyclic:2)",
        "prod(prod(cyclic:2,cyclic:3),q8)",
        "perm:(1 2 3)(4 5);(1 2)",
        "perm:e",
        "table:@/tmp/some_table.txt",
        HEISENBERG_3_SPEC,
        EXTRASPECIAL_27_EXP9_SPEC,
    ],
)
def test_parse_render_round_trip(text):
    spec = parse_spec(text)
    assert parse_spec(render(spec)) == spec


def test_parse_is_whitespace_insensitive_outside_cycles():
    assert parse_spec("  prod( cyclic:2 ,\tq8 )  ") == parse_spec("prod(cyclic:2,q8)")
    assert parse_spec("perm: (1 2) ; (3 4)") == parse_spec("perm:(1 2);(3 4)")
    assert parse_spec("elab: 3 ^ 2") == parse_spec("elab:3^2")


def test_cycle_canonicalization():
    assert parse_spec("perm:(2 3 1)") == parse_spec("perm:(1 2 3)")
    assert render(parse_spec("perm:(4 5)(1 2 3)")) == "perm:(1 2 3)(4 5)"


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_spec("nosuch:1")
    assert err.value.position == 0 and "cyclic" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse_spec("cyclic:")
    assert err.value.position == 7 and err.value.expected == ["integer"]
    with pytest.raises(ParseError) as err:
        parse_spec("cyclic:6 junk")
    assert err.value.position == 9
    with pytest.raises(ParseError) as err:
        parse_spec("prod(cyclic:2 cyclic:3)")
    assert err.value.expected == ["','"]
    with pytest.raises(ParseError):
        parse_spec("perm:(1)")
    with pytest.raises(ParseError):
        parse_spec("perm:(1 2")
    with pytest.raises(ParseError):
        parse_spec("table:@")


@pytest.mark.parametrize("text, offset", [
    ("cyclic:\u00b2", 7),       # superscript two
    ("cyclic:\u0663", 7),       # Arabic-Indic three
    ("elab:\u0663^2", 5),
    ("perm:(1 \u0662)", 8),     # Arabic-Indic two
])
def test_numerals_are_ascii_digits_only(capsys, text, offset):
    """Other Unicode digits are a parse error at their offset, from the parser and from the CLI alike."""
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.position == offset and err.value.expected == ["integer"]
    assert cli.main(["info", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: parse error at offset {offset} ") and captured.err.count("\n") == 1


def test_validation_errors():
    with pytest.raises(ValueError, match="dihedral order must be even and >= 2, got 7"):
        parse_spec("dihedral:7")
    with pytest.raises(ValueError, match="elab base 4 is not prime"):
        parse_spec("elab:4^2")
    with pytest.raises(ValueError, match="elab exponent must be >= 1, got 0"):
        parse_spec("elab:3^0")
    with pytest.raises(ValueError, match="cyclic needs a positive parameter, got 0"):
        parse_spec("cyclic:0")
    with pytest.raises(ValueError, match="point 2 repeated within one generator"):
        parse_spec("perm:(1 2)(2 3)")


def test_build_basic_orders():
    assert build("cyclic:1").order == 1
    assert build("sym:4").order == 24
    assert build("perm:(1 2 3)(4 5);(1 2)").order == 12
    assert build("dihedral:2").order == 2
    assert build("prod(cyclic:2,cyclic:4)").order == 8
    assert build("alt:5").order == 60


def test_build_is_deterministic():
    a = build("prod(sym:3,cyclic:2)")
    b = build("prod(sym:3,cyclic:2)")
    assert np.array_equal(a.table, b.table)
    assert a.element_names == b.element_names
    assert a.label == "prod(sym:3,cyclic:2)"


def test_build_renders_each_node_of_a_nested_prod_once(monkeypatch):
    """A prod( label is joined from its built factors' labels, not rendered again per level."""
    text = "prod(" * MAX_PROD_DEPTH + "cyclic:1" + ",cyclic:1)" * MAX_PROD_DEPTH
    spec = parse_spec(text)
    calls = []

    def counted(node):
        calls.append(node)
        return render(node)

    monkeypatch.setattr(catalog, "render", counted)
    group = build(spec)
    monkeypatch.undo()
    assert len(calls) <= 2 * MAX_PROD_DEPTH + 1
    assert group.label == render(spec)


def test_build_respects_construction_cap():
    with pytest.raises(ClosureExceedsCap):
        build("cyclic:30", cap=24)
    with pytest.raises(ClosureExceedsCap):
        build("sym:5", cap=100)
    with pytest.raises(ClosureExceedsCap):
        build("perm:(1 2)(3 30)", cap=24)
    assert build("perm:(1 2)(3 24)", cap=24).order == 2


def test_sym_and_alt_orders_meet_the_cap_exactly():
    """sym:n is refused when n! exceeds the cap and alt:n when n!/2 does; alt:1 and alt:2 are trivial."""
    assert [build(f"alt:{n}", cap=2).order for n in (1, 2)] == [1, 1]
    assert build("sym:5", cap=120).order == 120 and build("alt:5", cap=60).order == 60
    with pytest.raises(ClosureExceedsCap, match=r"^group order 5! exceeds construction cap 119$"):
        build("sym:5", cap=119)
    with pytest.raises(ClosureExceedsCap, match=r"^group order 5!/2 exceeds construction cap 59$"):
        build("alt:5", cap=59)
    with pytest.raises(ClosureExceedsCap, match=r"^group order 4!/2 exceeds construction cap 11$"):
        build("alt:4", cap=11)


def test_cyclic_indexing_is_modular_addition():
    c6 = build("cyclic:6")
    assert all(c6.table[i, j] == (i + j) % 6 for i in range(6) for j in range(6))


def test_dihedral_structure():
    d8 = build("dihedral:8")
    assert sorted(d8.elem_order.tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert center(d8).members == (0, 2)
    assert d8.element_names[:4] == ("e", "r", "r^2", "r^3")


def test_dihedral_satisfies_the_defining_relations():
    from sylowlab.groups import conjugate, element_order
    from sylowlab.subgroups import ComplexSet, closure_of

    for order in (4, 6, 8, 14, 24):
        n = order // 2
        group = build(f"dihedral:{order}")
        r, s = 1 if n > 1 else 0, n
        assert element_order(group, r) == n or n == 1
        assert element_order(group, s) == 2
        assert conjugate(group, r, s) == group.inverse[r]
        assert closure_of(ComplexSet(group, [r, s])).size == order


def test_q8_structure():
    q8 = build("q8")
    assert sorted(q8.elem_order.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert center(q8).size == 2
    assert q8.element_names == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def test_elab_structure():
    e8 = build("elab:2^3")
    assert e8.order == 8 and max(e8.elem_order) == 2
    assert e8.element_names[0] == "(0,0,0)"
    e9 = build("elab:3^2")
    assert e9.order == 9 and max(e9.elem_order) == 3


@pytest.mark.parametrize("p,k", [(2, 1), (2, 9), (3, 4), (3, 5), (5, 2), (7, 3)])
def test_elab_builder_matches_digit_array_oracle(p, k):
    group = build(f"elab:{p}^{k}")
    table, names = elab_by_digit_array(p, k)
    assert np.array_equal(group.table, table)
    assert group.element_names == tuple(names)


def test_heisenberg_invariants():
    heis = build(HEISENBERG_3_SPEC)
    assert heis.order == 27
    assert heis.exponent() == 3
    assert center(heis).size == 3
    assert not heis.is_abelian()


def test_second_nonabelian_27_group():
    other = build(EXTRASPECIAL_27_EXP9_SPEC)
    assert other.order == 27
    assert other.exponent() == 9
    assert center(other).size == 3
    assert not other.is_abelian()


def test_table_file_round_trip(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("0 1 2\n1 2 0\n2 0 1\n")
    group = build(f"table:@{path}")
    assert group.order == 3 and is_cyclic(group)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 1\n")
    with pytest.raises(NotAGroup):
        build(f"table:@{bad}")


def test_standard_catalog_membership():
    tiny = standard_catalog(1)
    assert [name for name, _ in tiny] == ["cyclic:1"]
    names = [name for name, _ in standard_catalog(8)]
    for expected in ("q8", "dihedral:8", "cyclic:8", "elab:2^3", "prod(cyclic:2,cyclic:4)"):
        assert expected in names
    assert "sym:3" in names and "sym:4" not in names
    big = [name for name, _ in standard_catalog(27)]
    assert HEISENBERG_3_SPEC in big and EXTRASPECIAL_27_EXP9_SPEC in big


def test_standard_catalog_is_deterministic_and_valid():
    first = standard_catalog(16)
    second = standard_catalog(16)
    assert [n for n, _ in first] == [n for n, _ in second]
    for (name, group), (_, other) in zip(first, second):
        assert np.array_equal(group.table, other.table)
        assert name == render(parse_spec(name)) == group.label
        assert group.order <= 16
        group_from_table(group.table)  # re-validates the axioms


def test_catalog_orders_within_bound():
    for name, group in standard_catalog(60):
        assert group.order <= 60, name


def test_sym5_enters_catalog_only_when_caps_allow():
    names = [name for name, _ in standard_catalog(120)]
    assert "sym:5" in names
    assert "sym:5" not in [name for name, _ in standard_catalog(119)]
    assert "sym:5" not in [name for name, _ in standard_catalog(120, cap=100)]


def test_catalog_specs_are_canonical():
    """Every spec text is its own rendering, so standard_catalog builds from the text as it stands."""
    specs = catalog_specs(512)
    assert len(specs) == len(set(specs)) == 786
    assert all(text == render(parse_spec(text)) for text in specs)


def test_standard_catalog_60_names_and_tables_are_pinned():
    """The 106 names and multiplication tables, digested in catalog order, are those the catalog has always built."""
    digest = hashlib.sha256()
    catalog60 = standard_catalog(60)
    for name, group in catalog60:
        assert name == group.label
        digest.update(name.encode() + b"\n" + group.table.astype("<i4").tobytes())
    assert len(catalog60) == 106
    assert digest.hexdigest() == "24c4855ecca5bf7ebfbc4e9e1b3647ecc29076207e397d2ac494d9d625ce752c"


# Numerals up to 600, most of them small enough to build.
numerals = st.one_of(st.integers(0, 12), st.integers(0, 600))
points = st.one_of(st.integers(1, 9), st.integers(1, 600))
cycles = st.lists(points, min_size=2, max_size=5, unique=True).map(lambda pts: "(" + " ".join(map(str, pts)) + ")")
generators = st.one_of(st.just("e"), st.lists(cycles, min_size=1, max_size=3).map("".join))
leaf_specs = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["cyclic", "dihedral", "sym", "alt"]), numerals),
    st.just("q8"),
    st.builds("elab:{}^{}".format, numerals, numerals),
    st.lists(generators, min_size=1, max_size=3).map(lambda gens: "perm:" + ";".join(gens)),
)


def nested_specs(depth: int):
    """Spec texts with prod( nested at most depth deep."""
    if depth == 0:
        return leaf_specs
    inner = nested_specs(depth - 1)
    return st.one_of(leaf_specs, st.builds("prod({},{})".format, inner, inner))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(nested_specs(3))
def test_info_on_any_spec_exits_0_or_2_and_builds_as_the_oracles(text):
    """Over the spec grammar: one error line or a group equal to the former builders' table, powers and names."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["info", text])
    err = err.getvalue()
    assert code in (0, 2), (text, code, err)
    assert "Traceback" not in err and err.count("error:") <= 1, (text, err)
    if code == 0:
        group = build(text)
        table, names = build_by_oracles(parse_spec(text))
        assert np.array_equal(group.table, table) and group.element_names == names, text
        assert np.array_equal(group.powers, power_table_by_rows(table)), text
