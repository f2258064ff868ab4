"""The package's top-level names are exactly the entry points the README
lists, every name the benchmark traces still exists, and the package
defines nothing, top-level name or method, that only tests reach."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import blindqc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "blindqc"


def documented_names(text: str | None = None) -> list[str]:
    """The names the ``* group: ...`` bullets of the README's Python API
    section list; backticked names in its prose are not exports."""
    if text is None:
        text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    # a bullet runs on over the lines indented under it
    bullets = re.findall(r"^\* [^:`\n]+:.*(?:\n  .*)*", section, re.M)
    return [tok for bullet in bullets
            for tok in re.findall(r"`([^`]+)`", bullet) if tok.isidentifier()]


def test_documented_names_read_only_the_group_bullets():
    text = ("# Title\n\n## Python API\n\nThe package exports `Circuit`\n"
            "and more:\n\n* circuits: `Circuit`, `parse`;\n"
            "* cost model: `sweep`,\n  `sweep_csv`.\n\n"
            "Reading `.rounds` raises `ProtocolError`; each is a `Round`.\n"
            "* not a group `Round`\n\n## Next\n\n* cli: `main`\n")
    assert documented_names(text) == ["Circuit", "parse", "sweep",
                                       "sweep_csv"]


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


def traced_boundaries():
    """(span, module, attribute path) of each name the benchmark wraps."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


def test_traced_boundaries_resolve():
    # the benchmark wraps these names from outside; a rename must fail here
    boundaries = traced_boundaries()
    assert boundaries
    for _, module, attr in boundaries:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}:{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}:{attr} is not callable"


# Definitions kept although no root reaches them: top-level names, and
# methods keyed "Class.name".  No method needs a place here yet.
ALLOWED_UNREACHED = {
    ("__init__", "__version__"),  # package metadata, public by convention
    # the gate factories x ... u stay one set, for circuits built in memory
    ("statevec", "s"),  # lowers to rz(pi/2); circuit files parse to GateOp
    ("statevec", "t"),  # lowers to rz(pi/4); circuit files parse to GateOp
    ("statevec", "ccx"),  # lowers to the six-cx ladder
    ("statevec", "measure"),  # the client measures; files parse to GateOp
    ("statevec", "u"),  # raw 2x2 unitaries exist only in memory
}


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Module:
    """One source file: its top-level definitions, the methods of its
    classes, the names it imports from sibling modules, the external
    modules it imports, and its statements that run on import.

    A method other than a dunder is keyed ``Class.name`` beside the
    top-level names; a class's own code is its body without those
    methods, and Python calls its dunders wherever the class is used."""

    def __init__(self, path: Path):
        self.defs, self.imports, self.aliases, self.loose = {}, {}, {}, []
        self.external = set()
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for a in stmt.names:
                    if stmt.module:  # from .mod import name
                        self.imports[a.asname or a.name] = (stmt.module, a.name)
                    else:  # from . import mod
                        self.aliases[a.asname or a.name] = a.name
            elif isinstance(stmt, ast.Import):
                self.external |= {(a.asname or a.name).split(".")[0]
                                  for a in stmt.names}
            elif _defined_names(stmt):
                for name in _defined_names(stmt):
                    self.defs[name] = stmt
                if isinstance(stmt, ast.ClassDef):
                    for node in stmt.body:
                        if (isinstance(node, ast.FunctionDef)
                                and not _is_dunder(node.name)):
                            self.defs[f"{stmt.name}.{node.name}"] = node
            elif not isinstance(stmt, ast.ImportFrom):
                self.loose.append(stmt)
        self.methods = {node for name, node in self.defs.items() if "." in name}


def _walk(node, skip):
    """``ast.walk`` that does not enter the nodes in ``skip``."""
    todo = [node]
    while todo:
        n = todo.pop()
        yield n
        todo.extend(c for c in ast.iter_child_nodes(n) if c not in skip)


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _unreached() -> set[tuple[str, str]]:
    """(module, name) of each top-level definition and method in the
    package that no root reaches.  The roots are ``cli.main``, ``__all__``
    and the names the benchmark traces.  A reached definition reaches every
    name its code loads, minus its own parameters and locals, resolved
    through sibling-module imports, and every method named by an attribute
    its code reads off anything but a module."""
    mods = {p.stem: _Module(p) for p in PACKAGE.glob("*.py")}
    by_attr = {}
    for mod, m in mods.items():
        for name in m.defs:
            if "." in name:
                by_attr.setdefault(name.split(".")[1], []).append((mod, name))

    def resolve(mod, name):
        if name in mods[mod].defs:
            return (mod, name)
        if name in mods[mod].imports:
            return resolve(*mods[mod].imports[name])
        return None

    def loads(mod, node):
        m = mods[mod]
        skip = m.methods - {node}
        local = {a.arg for a in _walk(node, skip) if isinstance(a, ast.arg)}
        local |= {n.id for n in _walk(node, skip) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)} - set(_defined_names(node))
        for n in _walk(node, skip):
            if isinstance(n, ast.Name) and n.id not in local:
                yield resolve(mod, n.id)
            elif isinstance(n, ast.Attribute):
                root = _root(n)
                if root in m.aliases and isinstance(n.value, ast.Name):
                    yield resolve(m.aliases[root], n.attr)
                elif root not in m.aliases and root not in m.external:
                    yield from by_attr.get(n.attr, ())

    todo = [("cli", "main"), ("__init__", "__all__")]
    todo += [resolve("__init__", name) for name in blindqc.__all__]
    for _, module, attr in traced_boundaries():
        mod, path = module.rpartition(".")[2], attr.split(".")
        todo += [resolve(mod, path[0]), resolve(mod, ".".join(path[:2]))]
    todo += [r for mod, m in mods.items() for stmt in m.loose
             for r in loads(mod, stmt)]
    seen = set()
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo += loads(key[0], mods[key[0]].defs[key[1]])
    return {(mod, name) for mod, m in mods.items() for name in m.defs} - seen


def test_every_definition_is_reachable_from_the_commands():
    # code only tests use belongs in tests/oracles.py
    unreached = _unreached()
    extra = sorted(f"{mod}.{name}" for mod, name in unreached - ALLOWED_UNREACHED)
    assert not extra, "only tests reach " + ", ".join(extra)
    # an allow-listed name that became reachable comes off the list
    assert ALLOWED_UNREACHED <= unreached
