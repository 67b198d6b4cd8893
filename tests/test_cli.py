"""Command-line behavior: outputs, exit codes, caps env, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylowlab import catalog, cli
from sylowlab.catalog import MAX_PROD_DEPTH, build
from sylowlab.config import ENV_CAPS
from sylowlab.counting import VerificationReport, theorem_suite
from sylowlab.groups import Permutation


ROOT = Path(__file__).resolve().parents[1]


def env_with_src():
    """The environment with this checkout's src/ first on PYTHONPATH, for subprocesses."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_cyclic(capsys):
    code, out, err = run_cli(capsys, "info", "cyclic:6")
    assert code == 0 and err == ""
    assert "order: 6" in out
    assert "cyclic: yes" in out
    assert "abelian: yes" in out


def test_info_sym4_and_q8(capsys):
    code, out, _ = run_cli(capsys, "info", "sym:4")
    assert code == 0 and "center order: 1" in out and "order: 24" in out
    code, out, _ = run_cli(capsys, "info", "q8")
    assert code == 0 and "center order: 2" in out


def test_info_elements_listing(capsys):
    code, out, _ = run_cli(capsys, "info", "sym:3", "--elements")
    assert code == 0
    assert "0: e" in out and "(1 2 3)" in out


def test_subgroups_lines(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "sym:3")
    assert code == 0 and len(out.strip().splitlines()) == 6
    code, out, _ = run_cli(capsys, "subgroups", "sym:3", "--order", "2")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 3
    assert all("normal=no" in line and "normalizer=2" in line for line in lines)
    code, out, _ = run_cli(capsys, "subgroups", "cyclic:1")
    assert code == 0 and len(out.strip().splitlines()) == 1
    code, out, _ = run_cli(capsys, "subgroups", "sym:3", "--normal")
    assert code == 0 and len(out.strip().splitlines()) == 3


def test_classes_output(capsys):
    code, out, _ = run_cli(capsys, "classes", "sym:3")
    assert code == 0
    assert "classes: 3" in out
    assert "size=3" in out


def test_sylow_output(capsys):
    code, out, _ = run_cli(capsys, "sylow", "sym:4", "--prime", "2")
    assert code == 0 and "chain orders: 2,4,8" in out
    code, out, _ = run_cli(capsys, "sylow", "sym:4", "--prime", "3")
    assert code == 0 and "chain orders: 3" in out
    code, out, _ = run_cli(capsys, "sylow", "cyclic:9", "--prime", "3")
    assert code == 0 and "chain orders: 3,9" in out
    code, _, err = run_cli(capsys, "sylow", "sym:4", "--prime", "5")
    assert code == 2 and err != ""
    code, _, err = run_cli(capsys, "sylow", "sym:4", "--prime", "4")
    assert code == 2 and "prime" in err


def test_decompose_output_and_errors(capsys):
    code, out, _ = run_cli(capsys, "decompose", "cyclic:6", "--element", "1", "--a", "2", "--b", "3")
    assert code == 0
    assert "alpha=3 beta=4" in out
    assert "a_part=3" in out and "b_part=4" in out
    code, out, _ = run_cli(capsys, "decompose", "cyclic:6", "--element", "0", "--a", "1", "--b", "1")
    assert code == 0 and "a_part=0" in out
    code, _, err = run_cli(capsys, "decompose", "cyclic:6", "--element", "1", "--a", "2", "--b", "2")
    assert code == 2 and "coprime" in err


@pytest.mark.parametrize("element", ["6", "-1"])
def test_decompose_refuses_an_element_out_of_range(capsys, element):
    code, out, err = run_cli(capsys, "decompose", "cyclic:6", "--element", element, "--a", "2", "--b", "3")
    assert (code, out, err) == (2, "", f"error: element index {element} out of range for order 6\n")


def test_verify_single_group_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "sym:4")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines and all(line.startswith(("PASS", "SKIP")) for line in lines)


def test_verify_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "nosuch:1")
    assert code == 2 and out == "" and "parse error" in err


def nested_prod(depth):
    return "prod(" * depth + "cyclic:1" + ",cyclic:1)" * depth


@pytest.mark.parametrize("depth", [MAX_PROD_DEPTH + 1, 2000])
def test_deeply_nested_prod_is_a_parse_error(capsys, depth):
    """A spec nested past the bound exits 2 with one line, not 3 from a RecursionError."""
    code, out, err = run_cli(capsys, "info", nested_prod(depth))
    assert code == 2 and out == ""
    assert err.startswith("error: parse error at offset ") and err.count("\n") == 1
    assert f"prod nests at most {MAX_PROD_DEPTH} deep" in err


@pytest.mark.parametrize("depth", [1, 40, MAX_PROD_DEPTH])
def test_nested_prod_within_the_bound_builds(capsys, depth):
    code, out, err = run_cli(capsys, "info", nested_prod(depth))
    assert code == 0 and err == "" and "order: 1\n" in out


def test_verify_missing_table_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", f"table:@{tmp_path / 'missing.txt'}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing.txt" in err


def test_empty_table_file_gives_one_error_line(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "sylowlab.cli", "info", f"table:@{empty}"],
        capture_output=True, text=True, env=env_with_src(), timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


NUMPY_MA_PROBE = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    raise SystemExit("preloaded")
from sylowlab import cli
for argv in (["info", "sym:4"], ["classes", "sym:4"], ["subgroups", "sym:4"], ["sylow", "sym:4", "--prime", "2"],
             ["decompose", "cyclic:6", "--element", "1", "--a", "2", "--b", "3"],
             ["verify", "sym:4"], ["verify", "alt:5"], ["verify", "cyclic:12"], ["verify", "dihedral:120"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_commands_never_import_numpy_ma():
    """Element sets are deduplicated through membership vectors; a plain np.unique would import numpy.ma."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE],
                          capture_output=True, text=True, env=env_with_src(), timeout=120)
    if proc.stderr == "preloaded\n":
        pytest.skip("import numpy alone loads numpy.ma")
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


# The stdout of the demos whose output holds no timing.
DEMO_DIGESTS = {
    "01_building_groups.py": "c825fac8494e67ddeb87179fb3131cb25381584fa07d4e8eddac0e3c07335257",
    "02_subgroup_lattice.py": "8b7a91010bfc8950132faf9ef95421769dc4f7fb36966fe97795b94aaa74971e",
    "03_sylow_towers.py": "7aeb4f85bb904b349e381b1786466f2fa22a03ff4bc53a8f0078ffb8dce6f976",
    "04_counting_theorems.py": "8339eaad4ddf04ed02a0ffaf558a87bde568bc7436f6799e65cb2793c27e4d3e",
    "05_kinds_and_fusion.py": "6836e9ab0f5c42efd5c14bbc7e812bf003c3b1f3cced00df7a59770d08975882",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_standalone(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env_with_src(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo in DEMO_DIGESTS:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_DIGESTS[demo]


def test_closed_stdout_exits_141_quietly():
    """A reader that closes the pipe early, as `| head` does, gets no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sylowlab.cli", "verify", "sym:3", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env_with_src(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and err != ""
    code, _, err = run_cli(capsys, "verify", "sym:3", "--catalog", "8")
    assert code == 2 and err != ""


@pytest.mark.parametrize("max_order", ["0", "-5"])
def test_verify_empty_catalog_exits_2(capsys, max_order):
    code, out, err = run_cli(capsys, "verify", "--catalog", max_order)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("order", ["0", "-1"])
def test_subgroups_order_below_one_exits_2(capsys, order):
    code, out, err = run_cli(capsys, "subgroups", "cyclic:6", "--order", order)
    assert code == 2 and out == ""
    assert err == f"error: --order needs a positive order, got {order}\n"


@pytest.mark.parametrize("argv, message", [
    (["info", "perm:(1 1000000)"], "permutation degree 1000000 exceeds construction cap 512"),
    (["info", "sym:100000"], "permutation degree 100000 exceeds construction cap 512"),
    (["info", "alt:3000"], "permutation degree 3000 exceeds construction cap 512"),
    (["info", "elab:2^1000000000"], "group order 2^1000000000 exceeds construction cap 512"),
    (["info", "elab:2305843009213693951^2"],
     "elab base 2305843009213693951 is 2^31 or more, too large for an int32 table"),
    (["sylow", "sym:4", "--prime", "2305843009213693951"], "2305843009213693951 does not divide 24"),
], ids=["perm-degree", "sym-degree", "alt-degree", "elab-order", "elab-base", "sylow-prime"])
def test_permutation_degree_above_cap_exits_2_fast(capsys, argv, message):
    """Oversized inputs are refused from their parameters, before any table or trial division."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ("alt:3000", "group order 3000!/2 exceeds construction cap 5000"),
    ("sym:3000", "group order 3000! exceeds construction cap 5000"),
    ("sym:8", "group order 8! exceeds construction cap 5000"),
])
def test_sym_and_alt_above_the_cap_by_order_exit_2_fast(monkeypatch, capsys, spec, message):
    """Under a raised cap sym:n and alt:n are refused by n! or n!/2, before any permutation is built."""
    monkeypatch.setenv(ENV_CAPS, "5000,,")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "info", spec)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_lattice_past_the_size_bound_exits_2_fast(monkeypatch, capsys):
    """Under a raised subgroup cap, elab:2^7 (29,212 subgroups) is refused before its contains matrix exists."""
    monkeypatch.setenv(ENV_CAPS, ",128,")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "elab:2^7")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: elab:2^7 has more than 4096 subgroups, the lattice size bound\n"


def test_lattice_past_the_size_bound_is_refused_within_400_mb():
    """The refusal needs no n x n contains matrix: it fits in an address space below that matrix's 853 MB."""
    limit = 400 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sylowlab.cli", "verify", "elab:2^7"],
        capture_output=True, env={**env_with_src(), ENV_CAPS: ",128,"}, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: elab:2^7 has more than 4096 subgroups, the lattice size bound\n"


def test_running_out_of_memory_exits_2_with_one_line():
    """A 1.5 GB table in a 600 MB address space: exit 2 and one error line, not a traceback and exit 1."""
    limit = 600 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sylowlab.cli", "info", "cyclic:20000"],
        capture_output=True, env={**env_with_src(), ENV_CAPS: "20000,,"}, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")


AUT_REFUSAL = "error: elab:2^5 needs more than 262144 partial automorphism maps, the automorphism search bound\n"


def test_automorphism_search_past_its_bound_exits_2_fast(monkeypatch, capsys):
    """Under a raised automorphism cap, elab:2^5 (|GL(5,2)| = 9,999,360 maps) is refused at its fourth level."""
    monkeypatch.setenv(ENV_CAPS, ",,32")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "elab:2^5", "--theorems", "S2.III")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == AUT_REFUSAL


def test_automorphism_search_past_its_bound_is_refused_within_400_mb():
    """The refusal comes before the level's maps exist: no numpy memory error, no exit 1."""
    limit = 400 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sylowlab.cli", "verify", "elab:2^5", "--theorems", "S2.III"],
        capture_output=True, env={**env_with_src(), ENV_CAPS: ",,32"}, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == AUT_REFUSAL.encode()


@pytest.mark.parametrize("argv, message", [
    (["info", "elab:2^10"], "group order 1024 exceeds construction cap 512"),
    (["sylow", "sym:3", "--prime", "4"], "4 is not prime"),
])
def test_small_refusals_keep_their_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_verify_json_lines_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "cyclic:6", "--json")
    assert code == 0
    for line in out.strip().splitlines():
        payload = json.loads(line)
        assert list(payload) == ["theorem_id", "group", "params", "counted", "relation", "passed", "witnesses"]
        assert payload["group"] == "cyclic:6"


def test_verify_json_escapes_the_group_label(capsys, tmp_path):
    """A table:@ path with a quote, a backslash and a non-ASCII letter is escaped as json.dumps escapes it."""
    folder = tmp_path / 'q"b\\\u00e9'
    folder.mkdir()
    path = folder / "c3.txt"
    path.write_text("0 1 2\n1 2 0\n2 0 1\n")
    spec = f"table:@{path}"
    code, out, _ = run_cli(capsys, "verify", spec, "--json")
    reports = theorem_suite(build(spec))
    assert code == 0 and out.isascii() and out.count("\n") == len(reports) > 0
    for line, report in zip(out.splitlines(), reports):
        payload = json.loads(line)
        expected = dataclasses.asdict(report)
        del expected["applicable"]
        assert payload == expected and payload["group"] == spec
        assert line == json.dumps(payload, ensure_ascii=True, separators=(",", ":"))


def test_verify_theorem_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "sym:3", "--theorems", "S4.I", "--json")
    assert code == 0
    ids = {json.loads(line)["theorem_id"] for line in out.strip().splitlines()}
    assert ids == {"S4.I"}
    code, out, _ = run_cli(capsys, "verify", "sym:3", "--theorems", "S5", "--json")
    ids = {json.loads(line)["theorem_id"] for line in out.strip().splitlines()}
    assert ids and all(i.startswith("S5.") for i in ids)


@pytest.mark.parametrize("selection", ["S4.l", ","])
def test_verify_unknown_theorem_ids_exit_2(capsys, selection):
    code, out, err = run_cli(capsys, "verify", "sym:3", "--theorems", selection)
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown theorem id(s): ") and err.count("\n") == 1


def test_verify_catalog_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--catalog", "12", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "--catalog", "12", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failure_exit_code(monkeypatch, capsys):
    bogus = VerificationReport(
        theorem_id="S4.I", group="cyclic:2", params={}, counted=0,
        relation="forced failure", passed=False,
    )
    monkeypatch.setattr(cli, "theorem_suite", lambda group, caps, selected: [bogus])
    code, out, _ = run_cli(capsys, "verify", "cyclic:2")
    assert code == 1 and out.startswith("FAIL")


def test_broken_invariant_exits_3(monkeypatch, capsys):
    def broken(group, caps, selected):
        raise RuntimeError("normalizer sizes fail Lagrange")

    monkeypatch.setattr(cli, "theorem_suite", broken)
    code, out, err = run_cli(capsys, "verify", "cyclic:2")
    assert code == 3 and out == ""
    assert err == "error: internal invariant broken: normalizer sizes fail Lagrange\n"


def test_table_above_cap_exits_2(monkeypatch, capsys, tmp_path):
    """A non-associative 5-element loop above the construction cap is refused, not run."""
    path = tmp_path / "loop5.txt"
    path.write_text("0 1 2 3 4\n1 4 0 2 3\n2 3 1 4 0\n3 0 4 1 2\n4 2 3 0 1\n")
    monkeypatch.setenv(ENV_CAPS, "4,,")
    code, out, err = run_cli(capsys, "verify", f"table:@{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "cap 4" in err


def test_table_above_cap_is_refused_from_its_first_row(monkeypatch, capsys, tmp_path):
    """The cap is checked on the first row, before the rest of the file is parsed."""
    path = tmp_path / "wide.txt"
    path.write_text("0 1 2 3 4\nnot a table row\n")
    monkeypatch.setenv(ENV_CAPS, "4,,")
    code, out, err = run_cli(capsys, "info", f"table:@{path}")
    assert code == 2 and out == ""
    assert err == "error: table order 5 exceeds construction cap 4\n"


def test_table_row_past_the_cap_is_refused_before_conversion(monkeypatch, capsys, tmp_path):
    """Fields are counted, not converted: a bad token after cap + 1 entries still gets the cap error."""
    path = tmp_path / "wide_bad.txt"
    path.write_text("# a comment line\n\n0 1 2 3 4 x\n")
    monkeypatch.setenv(ENV_CAPS, "4,,")
    code, out, err = run_cli(capsys, "info", f"table:@{path}")
    assert code == 2 and out == ""
    assert err == "error: table order 6 exceeds construction cap 4\n"


def test_overlong_table_row_is_refused_from_its_first_piece(monkeypatch, capsys, tmp_path):
    """A row longer than one read piece is refused without reading to its end."""
    path = tmp_path / "long_row.txt"
    path.write_text("0 " * 100_000 + "\n")
    monkeypatch.setenv(ENV_CAPS, "4,,")
    code, out, err = run_cli(capsys, "info", f"table:@{path}")
    assert code == 2 and out == ""
    assert err == "error: table order over 4 exceeds construction cap 4\n"


def test_tall_table_is_read_only_one_row_past_its_width(capsys, tmp_path):
    """A table with more rows than columns is refused from its first width + 1 rows."""
    path = tmp_path / "tall.txt"
    path.write_text("0 1\n1 0\n0 1\nx y\n")
    code, out, err = run_cli(capsys, "info", f"table:@{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "got shape (3, 2)" in err


@pytest.mark.parametrize("text, message", [
    ("0 1 2\n1 2\n2 0 1\n", "table row 2 has 2 entries, the first row has 3"),
    ("0 1 2\n# a comment\n1 2 0 1 2\n2 0 1\n", "table row 2 has 5 entries, the first row has 3"),
    ("0 1 2\n1 2 0\n2 0 # 1\n", "table row 3 has 2 entries, the first row has 3"),
    ("", "table file has no rows"),
    ("# a comment\n\n   \n#\n", "table file has no rows"),
])
def test_ragged_or_empty_table_file_gets_the_engine_diagnostic(capsys, tmp_path, text, message):
    """Every data row read is checked against the first, so numpy only ever reads a rectangle."""
    path = tmp_path / "table.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "info", f"table:@{path}")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_overlong_later_table_row_is_refused_within_400_mb(tmp_path):
    """A 40 MB second row is refused at its first piece past the first row's width, not parsed by numpy."""
    limit = 400 * 2**20
    path = tmp_path / "long_second_row.txt"
    path.write_text("0 1 2\n" + "0 " * 20_000_000 + "\n2 0 1\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "sylowlab.cli", "info", f"table:@{path}"],
        capture_output=True, env=env_with_src(), preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: table row 2 has over 3 entries, the first row has 3\n"


def test_verify_catalog_24_json_digest(capsys):
    """The report stream is pinned: a refactor of the suite must not change one byte."""
    code, out, _ = run_cli(capsys, "verify", "--catalog", "24", "--json")
    assert code == 0 and out.count("\n") == 2644
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "80896d86be7879aa08970e07a3a30498bc0dd8157074ad69c1d7a9fcfe8215b7"


@pytest.mark.parametrize("extra, lines, digest", [
    ((), 10687, "2b0e7b3863c8c3465cf36238c3ff0955b8dcb493d6e374b517bcb81c7505d848"),
    (("--theorems", "intro.gcd,intro.pcount,S2.IV"), 3416,
     "fa97592dba2a5f8f681adba6d50b2eef33647e54add8ed6012eda8af661b7010"),
], ids=["all", "filtered"])
def test_verify_catalog_60_json_is_the_output_contract(capsys, extra, lines, digest):
    """The behavioural contract: verify --catalog 60 --json, whole and filtered, byte for byte."""
    code, out, _ = run_cli(capsys, "verify", "--catalog", "60", "--json", *extra)
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs the CLI in-process with the given argv, then writes its own peak RSS to stderr: VmHWM, in kB,
# the high-water mark of the memory this process mapped after exec. ru_maxrss would not do: on Linux
# it also counts the parent's resident pages at fork and exec, so a large test runner would hide
# the CLI's own peak.
PEAK_RSS_PROBE = """
import sys
from sylowlab import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
raise SystemExit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="the peak RSS probe reads /proc/self/status")
def test_verify_catalog_holds_one_group_at_a_time():
    """verify --catalog builds each group on its turn, so its peak stays far below the whole catalog's.

    Holding all 402 groups of --catalog 256 at once adds about 72 MB to
    the peak of a one-group run; one group at a time adds about 24 MB.
    """
    runs = {}
    for argv in (["verify", "cyclic:1", "--json"], ["verify", "--catalog", "256", "--json"]):
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, *argv], capture_output=True,
                              env=env_with_src(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[argv[1]] = (int(proc.stderr.split()[-1]) / 1024, proc.stdout)
    (baseline, _), (peak, out) = runs["cyclic:1"], runs["--catalog"]
    assert out.count(b"\n") == 20141
    assert hashlib.sha256(out).hexdigest() == "33c61dcbe3b982be995d60f7518d52b10d42060d9bf65c22f2c170a916d5263a"
    assert peak - baseline < 45, f"peak {peak:.0f} MB against {baseline:.0f} MB for one group"


@pytest.mark.parametrize("argv, digest", [
    (("info", "sym:4", "--elements"), "a35a077268fc8020f62b09b7ccacabc7983c45f974c971847fa241f59574dc9c"),
    (("classes", "sym:4"), "ca6e07f92d5bcf0683d30103dd5c2d5d8718c21b3ffe5f8007536ac45765cf53"),
    (("info", "alt:5", "--elements"), "ceeffad23d01ee176db637cb18eb07f6281a998518e55a1daac6b290db4b0804"),
    (("classes", "alt:5"), "3b89371aba8b5f189d935a631dcc99209547f3a13fcc07cbe5fe437522e32cab"),
    (("info", "q8", "--elements"), "48c21bffcbe679b7cace779a0e5855dcd75e92b5fcc0507d872676d84624161e"),
    (("classes", "q8"), "3ad784a7440414517dedf78ac8766ca2472c9fbb2aedcbbc654f21856145f57f"),
])
def test_element_names_print_as_pinned(capsys, argv, digest):
    """Names made on first read print the same as names made with the group."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_makes_no_element_names(monkeypatch, capsys):
    """No verify check reads a name: with every name maker refusing, the outputs stay the same."""
    def refuse(*args):
        raise AssertionError("an element name was made")

    for maker in ("_cyclic_names", "_dihedral_names", "_elab_names", "_prod_names"):
        monkeypatch.setattr(catalog, maker, refuse)
    monkeypatch.setattr(Permutation, "cycle_string", refuse)
    monkeypatch.delenv(ENV_CAPS, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--catalog", "60", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "2b0e7b3863c8c3465cf36238c3ff0955b8dcb493d6e374b517bcb81c7505d848"
    calls = json.loads((ROOT / "perfbench" / "golden.json").read_text())["calls"]["large"]
    for call in calls:
        code, out, _ = run_cli(capsys, *call["argv"])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == call["sha256"], call["argv"]
    with pytest.raises(AssertionError, match="an element name was made"):
        build("prod(cyclic:2,q8)").element_names


@pytest.mark.parametrize("workload", ["pgroups", "large"])
def test_benchmark_golden_digests_hold_in_process(monkeypatch, capsys, workload):
    """The p-groups up to order 64 and the groups of order 120-512 give the benchmark's recorded output.

    perfbench/golden.json is read, never written: every call's exit code and
    stdout sha256, at the default caps.
    """
    calls = json.loads((ROOT / "perfbench" / "golden.json").read_text())["calls"][workload]
    monkeypatch.delenv(ENV_CAPS, raising=False)
    got = []
    for call in calls:
        code, out, _ = run_cli(capsys, *call["argv"])
        got.append((call["argv"], code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == [(call["argv"], call["rc"], call["sha256"]) for call in calls]
    assert len(calls) == {"pgroups": 12, "large": 10}[workload]


def test_caps_env_override(monkeypatch, capsys):
    monkeypatch.setenv(ENV_CAPS, "16,8,8")
    code, _, err = run_cli(capsys, "info", "sym:4")
    assert code == 2 and "cap" in err
    code, _, err = run_cli(capsys, "subgroups", "sym:4")
    assert code == 2 and "cap" in err
    monkeypatch.setenv(ENV_CAPS, ",128,")
    code, out, _ = run_cli(capsys, "subgroups", "sym:4")
    assert code == 0


def test_caps_env_malformed(monkeypatch, capsys):
    monkeypatch.setenv(ENV_CAPS, "not,numbers")
    code, _, err = run_cli(capsys, "info", "cyclic:2")
    assert code == 2 and ENV_CAPS in err


def test_one_process_calls_match_fresh_processes(capsys):
    """Calls sharing one cached parser give what each gives in a fresh interpreter."""
    calls = [["verify", "sym:3", "--bogus"], ["verify", "sym:3", "--theorems", "S4"], ["info", "q8"]]
    cli.build_parser.cache_clear()
    in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = [
        subprocess.run([sys.executable, "-m", "sylowlab.cli", *argv], capture_output=True,
                       text=True, env=env_with_src(), timeout=120)
        for argv in calls
    ]
    assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]
    assert [code for code, _ in in_process] == [2, 0, 0]


def test_usage_error_exit_code(capsys):
    assert cli.main(["bogus-command"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# SYLOWLAB_CAPS values: three or 0-5 fields, each blank, zero, negative, huge, in range or not an integer.
cap_fields = st.one_of(
    st.just(""),
    st.integers(1, 600).map(str),
    st.sampled_from([" ", "0", "-1", "-600", str(2**70), "x", "1.5", "1e3", "+7", "0x10"]),
)
caps_values = st.one_of(
    st.lists(cap_fields, min_size=3, max_size=3).map(",".join),
    st.lists(cap_fields, max_size=5).map(",".join),
)

# A loop of order 5 (a Latin square with identity 0) that is no group: 1 * 1 = 0, so 1 would have order 2.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@st.composite
def table_texts(draw):
    """Small table:@ file contents: group tables and near-misses of them, with comments and blank lines."""
    h = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["cyclic", "loop5", "rows", "bad-identity", "out-of-range", "ragged", "token", "empty"]))
    rows = [[(i + j) % h for j in range(h)] for i in range(h)]
    if kind == "loop5":
        rows = [row[:] for row in LOOP5]
    elif kind == "rows":  # row i a permutation starting with i: the identity row and column hold, columns may repeat
        rows = [[i] + draw(st.permutations([x for x in range(h) if x != i])) for i in range(h)]
    elif kind == "bad-identity":
        rows[0] = draw(st.permutations(range(h)))
    elif kind == "out-of-range":  # off the identity row and column where h > 1, past the identity test
        body = st.integers(min(1, h - 1), h - 1)
        rows[draw(body)][draw(body)] = draw(st.sampled_from([h, h + 1, -1, 2**40]))
    elif kind == "ragged":
        row = draw(st.integers(0, h - 1))
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + [0]
        if draw(st.booleans()):
            rows = rows[:-1] if len(rows) > 1 else rows + [[0]]
    elif kind == "token":
        rows[draw(st.integers(0, h - 1))][-1] = draw(st.sampled_from(["x", "1.5", "--", "0,1"]))
    elif kind == "empty":
        rows = []
    lines = [" ".join(map(str, row)) for row in rows]
    comments = draw(st.lists(st.sampled_from(["", "# a comment", "   ", "#"]), max_size=2))
    at = draw(st.integers(0, len(lines)))
    lines[at:at] = comments
    if lines and draw(st.booleans()):
        lines[-1] += " # trailing"
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


def six_commands(spec, prime, element, parts):
    a, b = parts
    return [["info", spec, "--elements"], ["subgroups", spec], ["classes", spec], ["sylow", spec, "--prime", str(prime)],
            ["decompose", spec, "--element", str(element), "--a", str(a), "--b", str(b)], ["verify", spec]]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(caps_values, table_texts(), st.sampled_from([2, 3, 4, 5, 7]), st.integers(-1, 6),
       st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (2, 2)]))
def test_every_command_survives_any_caps_value_and_small_table_file(caps, text, prime, element, parts):
    """Over SYLOWLAB_CAPS strings and table:@ files of order at most 6, each command gives a result or one error line.

    Each file is read with the variable unset, then with the drawn value.
    The exit code is 0, 1 or 2, never 3 (an engine fault), and 1 only with
    a FAIL report on stdout; stderr is empty or one line starting with
    "error:"; each call returns within two seconds.
    """
    saved = os.environ.get(ENV_CAPS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_text(text)
        try:
            for value in (None, caps):
                if value is None:
                    os.environ.pop(ENV_CAPS, None)
                else:
                    os.environ[ENV_CAPS] = value
                for argv in six_commands(f"table:@{path}", prime, element, parts):
                    out, err = io.StringIO(), io.StringIO()
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    elapsed = time.perf_counter() - start
                    out, err = out.getvalue(), err.getvalue()
                    case = (value, text, argv[0], code, err)
                    assert code in (0, 1, 2), case
                    assert code != 1 or any(line.startswith("FAIL ") for line in out.splitlines()), case
                    assert "Traceback" not in err and len(err.splitlines()) <= 1, case
                    assert err == "" or err.startswith("error:"), case
                    assert elapsed < 2.0, case
        finally:
            if saved is None:
                os.environ.pop(ENV_CAPS, None)
            else:
                os.environ[ENV_CAPS] = saved
