"""Guards for the benchmark tooling that reaches into sylowlab from outside."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    """perfbench/tracer.py as a fresh module object, imported from its file and left unregistered."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """A traced function that is renamed or deleted would otherwise only show as a crash of a traced run."""
    targets = load_tracer().TARGETS
    assert targets
    missing = []
    for span, (module_name, path) in targets.items():
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{span}: {module_name}.{path}")
    assert missing == []
