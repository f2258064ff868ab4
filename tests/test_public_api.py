"""The package's top-level names are exactly the entry points the README lists."""

import re
from pathlib import Path

import blindqc

README = Path(__file__).resolve().parent.parent / "README.md"


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
