"""Guards for the benchmark tooling that reaches into sylowlab from outside, and for what the package exports."""

import ast
import contextlib
import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

from sylowlab import cli
from sylowlab.groups import FiniteGroup

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    """perfbench/<name>.py as a fresh module object, imported from its file and left unregistered."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """A traced function that is renamed or deleted would otherwise only show as a crash of a traced run."""
    targets = load_perfbench("tracer").TARGETS
    assert targets
    missing = []
    for span, (module_name, path) in targets.items():
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{span}: {module_name}.{path}")
    assert missing == []


def test_every_memo_key_kind_is_read_again_on_the_catalog(monkeypatch):
    """The group cache keeps only what is read again: each key kind stored gets a hit, on three argv lists.

    The lists are verify --catalog 60 and the pgroups and large benchmark
    calls, one group each. A kind is the key itself, or its first item for
    a tuple key such as ("closure", mask). A kind with misses and no hits
    only costs memory. The large groups are above the lattice cap, so they
    store closures alone. Aut(G) has no key: S2.III, its one reader,
    searches it at most once per group.
    """
    misses, hits = Counter(), Counter()
    memo = FiniteGroup.memo

    def counted(self, key, compute):
        kind = key[0] if isinstance(key, tuple) else key
        (hits if key in self._cache else misses)[kind] += 1
        return memo(self, key, compute)

    monkeypatch.setattr(FiniteGroup, "memo", counted)
    workloads = load_perfbench("workloads").WORKLOADS
    lattice_kinds = {"subgroups", "closure"}
    for name, argvs, kinds in (
        ("catalog60", [["verify", "--catalog", "60", "--json"]], lattice_kinds),
        ("pgroups", workloads["pgroups"], lattice_kinds),
        ("large", workloads["large"], {"closure"}),
    ):
        misses.clear()
        hits.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert cli.main(argv) == 0, argv
        audit = {kind: (misses[kind], hits[kind]) for kind in misses}
        assert all(hit > 0 for _, hit in audit.values()), (name, audit)
        assert set(audit) == kinds, (name, audit)


def test_traced_construction_layers_are_reached():
    """verify reaches catalog.build and groups.group_from_generators by the names the tracer wraps.

    A builder restructured around them would leave catalog.build_s or
    groups.group_from_generators_s at 0 without failing anything else.
    """
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for spec in ("alt:6", "elab:2^9"):
                assert cli.main(["verify", spec, "--json"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["catalog.build_calls"] == 2 and metrics["catalog.build_s"] > 0
    assert metrics["groups.group_from_generators_calls"] == 1 and metrics["groups.group_from_generators_s"] > 0


def referenced_names(path):
    """Every identifier a file reads: names, attribute names and imported names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_public_name_is_reached_outside_the_tests():
    """Each public function, and each public method or property of a public class, in src/sylowlab has a reader outside tests/test_*.py.

    A reader is a name, an attribute or an imported name in the package's
    modules (not counting __init__.py's re-exports), the demos or
    tests/oracles.py, or a dotted string target in perfbench/tracer.py.
    A name that only tests reach is API kept for its own tests. The rule
    goes by name alone, so a name that another identifier shares passes
    unseen: it could not catch join, inverse, mul, perms or identity,
    which str.join, the FiniteGroup.inverse array, an oracle's group.mul
    and local perms, and the Permutation.identity call for the trivial
    group read by the same name.
    """
    src = ROOT / "src" / "sylowlab"
    defined = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [node]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for item in members:
                if not item.name.startswith("_"):
                    qualified = item.name if item is node else f"{node.name}.{item.name}"
                    defined.setdefault(item.name, []).append(f"{path.stem}.{qualified}")
    readers = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    readers += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "oracles.py"]
    reached = set().union(*map(referenced_names, readers))
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "tracer.py").read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            reached.update(node.value.split("."))
    assert defined
    assert sorted(where for name, places in defined.items() if name not in reached for where in places) == []


KEPT_ERRORS = {"SylowLabError", "ParseError", "NotAGroup", "ClosureExceedsCap", "EnumerationCapExceeded"}


def test_a_bad_argument_is_refused_with_value_error():
    """The package raises ValueError, RuntimeError, SystemExit or one of the five error types that carry data or name another outcome.

    An unmet hypothesis or an invalid parameter is a ValueError; a type of
    its own would be one more way to refuse that no caller tells apart.
    """
    package = ROOT / "src" / "sylowlab"
    allowed = {"ValueError", "RuntimeError", "SystemExit"} | KEPT_ERRORS
    strays = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(raised) not in allowed:
                    strays.append(f"{path.name}:{node.lineno}: raise {ast.unparse(raised)}")
    assert strays == []
    tree = ast.parse((package / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == KEPT_ERRORS
