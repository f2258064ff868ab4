"""The package's top-level names are exactly the entry points the README
lists, and every name the benchmark traces still exists."""

import importlib
import importlib.util
import re
from pathlib import Path

import blindqc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def documented_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    return [tok for tok in re.findall(r"`([^`]+)`", section)
            if tok.isidentifier()]


def test_all_is_the_documented_list():
    names = documented_names()
    assert len(names) == len(set(names))
    assert sorted(blindqc.__all__) == sorted(names)


def test_every_name_resolves():
    for name in blindqc.__all__:
        assert getattr(blindqc, name) is not None


def test_star_import_exposes_nothing_else():
    namespace: dict = {}
    exec("from blindqc import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(blindqc.__all__)


def test_traced_boundaries_resolve():
    # the benchmark wraps these names from outside; a rename must fail here
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BOUNDARIES
    for _, module, attr in tracing.BOUNDARIES:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}:{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}:{attr} is not callable"
