"""Every module of src/cavreg other than the package's export list, and
every module of tests/, uses each name it imports, every private
module-level function, class or constant is used somewhere in src/cavreg,
every parameter of a src/cavreg function is read by its body, every
dataclass field of src/cavreg is read somewhere in src/cavreg, tests/
or bench/, every public function of tests/oracles.py is named by a test
module, every code name README.md quotes still exists in src/cavreg or
tests/, and no function of harness.py but `_sweep` names `stream`."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "cavreg"
TESTS = ROOT / "tests"
# the modules whose imports are checked, by the name each test id shows
MODULES = {
    **{p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"},
    **{f"tests/{p.name}": p for p in TESTS.glob("*.py")},
}


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\nfrom dataclasses import dataclass, field\n"
        "import numpy as np\n\n@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["field"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_uses_every_import(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def unused_private_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level `_name` functions, classes and assigned names of
    `sources` (module name to source text) that no top-level statement but
    their own definition reads, as `module._name`."""
    statements = []  # (module, top-level statement, the names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):  # imported by another module
                    names.add(node.name)
            statements.append((module, stmt, names))
    return sorted(
        f"{module}.{name}"
        for module, stmt, _ in statements
        for name in _defined_names(stmt)
        if name.startswith("_")
        and not any(name in names for _, other, names in statements if other is not stmt)
    )


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level def, class or plain assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_unused_private_helper_is_found():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\n"
             "class _Dead:\n    pass\n\ndef public():\n    return _used()\n\n"
             "_ORPHAN = 0.5\n_READ: float = 2.0\n_SELF = _SELF_TOO = 1\nx = _READ\n",
        "b": "from .a import _imported\nfrom . import a\nx = a._by_attribute\n",
        "c": "def _imported():\n    pass\n\ndef _by_attribute():\n    pass\n",
    }
    # a helper or constant read only by itself, or by nothing, is dead
    assert unused_private_helpers(sources) == [
        "a._Dead", "a._ORPHAN", "a._SELF", "a._SELF_TOO", "a._dead"
    ]


def test_every_private_helper_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unused_private_helpers(sources) == []


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """The parameters of the functions, methods and lambdas of `sources`
    (module name to source text) that their body never reads, as
    `module.function.parameter` (`<lambda>` for a lambda).  `self`, `cls`
    and `_`-prefixed names are exempt; a read in a nested function counts."""
    unread = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                      if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [
                f"{module}.{getattr(node, 'name', '<lambda>')}.{p}" for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")
            ]
    return sorted(unread)


def test_unread_parameter_is_found():
    sources = {
        "a": "def f(used, unused, *args, key=1, **kwargs):\n    return used, args, kwargs\n\n"
             "def g(n, m):\n    def inner():\n        return n\n    m = 2\n    return inner\n\n"
             "class A:\n    def method(self, x, _ignored):\n        return 1\n\n"
             "    @classmethod\n    def make(cls, y, z=lambda w: 0):\n        return y\n\n"
             "h = lambda _: 0\nk = lambda v, u: v\n",
    }
    # a parameter read only by a nested function is read; one only assigned is not
    assert unread_parameters(sources) == [
        "a.<lambda>.u", "a.<lambda>.w", "a.f.key", "a.f.unused", "a.g.m", "a.make.z",
        "a.method.x",
    ]


def test_every_parameter_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_parameters(sources) == []


def unread_dataclass_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The fields of the @dataclass classes of `sources` (module name to
    source text) that no source of `readers` reads as an attribute or quotes
    as an identifier-shaped string, as `module.Class.field`."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    read.add(node.value)
    unread = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                unread += [
                    f"{module}.{cls.name}.{stmt.target.id}" for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read
                ]
    return sorted(unread)


def _is_dataclass(decorator: ast.expr) -> bool:
    """Whether a class decorator is `dataclass` or `dataclasses.dataclass`,
    called or bare."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def test_unread_dataclass_field_is_found():
    sources = {
        "a": "import dataclasses\nfrom dataclasses import dataclass\n\n"
             "@dataclass(frozen=True)\nclass A:\n    read: int\n    quoted: str\n"
             "    written: int\n    unread: int = 0\n\n"
             "@dataclasses.dataclass\nclass B:\n    lost: float\n\n"
             "class Plain:\n    skipped: int\n",
        "b": "def f(a):\n    a.written = 1\n    return a.read, getattr(a, 'quoted')\n",
    }
    # a field only written, or only declared, is never read
    assert unread_dataclass_fields(sources, list(sources.values())) == [
        "a.A.unread", "a.A.written", "a.B.lost"
    ]


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    readers = [
        p.read_text(encoding="utf-8")
        for folder in (SRC, TESTS, ROOT / "bench") for p in folder.glob("*.py")
    ]
    assert unread_dataclass_fields(sources, readers) == []


def code_names(source: str) -> set[str]:
    """The names a module defines or reads: names, attributes, functions,
    classes and identifier-shaped string constants (config keys, CSV
    condition names)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def quoted_code_names(markdown: str) -> set[str]:
    """The parts of backticked (dotted) identifiers that hold an underscore
    or mix upper and lower case."""
    quoted = set()
    for span in re.findall(r"`([^`\n]+)`", markdown):
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span):
            quoted |= {
                part for part in span.split(".")
                if "_" in part or (part.lower() != part and part.upper() != part)
            }
    return quoted


def test_quoted_code_names_are_found():
    markdown = (
        "`loss_rounds` and `cavreg.repcode` and `readout.measurement_rates` and "
        "`LifetimeResult` and `F1` and `VACANT` and `round_hazard(d, p)` and "
        "`bits & subset` and `--out`"
    )
    assert quoted_code_names(markdown) == {"loss_rounds", "measurement_rates", "LifetimeResult"}


def test_readme_names_only_existing_code():
    names = set()
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        if path.name != Path(__file__).name:  # its own examples name deleted code
            names |= code_names(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sorted(quoted_code_names(readme) - names) == []


def unnamed_oracles(oracles: str, tests: list[str]) -> list[str]:
    """The public top-level functions of the `oracles` source that no
    source of `tests` names."""
    named = set().union(*map(code_names, tests))
    return sorted(
        node.name for node in ast.parse(oracles).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_") and node.name not in named
    )


def test_unnamed_oracle_is_found():
    oracles = (
        "def called(n):\n    return n\n\ndef by_attribute():\n    pass\n\n"
        "def dead():\n    return called(1)\n\ndef _helper():\n    pass\n"
    )
    tests = ["from oracles import called\nx = called(2)\n",
             "import oracles\ny = oracles.by_attribute()\n"]
    # an oracle that only another oracle calls checks nothing
    assert unnamed_oracles(oracles, tests) == ["dead"]


def test_every_oracle_is_named_by_a_test():
    tests = [p.read_text(encoding="utf-8") for p in TESTS.glob("test_*.py")]
    assert unnamed_oracles((TESTS / "oracles.py").read_text(encoding="utf-8"), tests) == []


def stream_users(source: str, driver: str = "_sweep") -> list[str]:
    """The top-level statements of a module, other than the `driver`
    function, that name `stream` (a call, `streams.stream` or a hand-off
    such as `partial(stream, ...)`), by the name they define; module-level
    code reads `<module>`."""
    users = set()
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", "<module>")
        if name != driver and any(
            getattr(node, "id", getattr(node, "attr", None)) == "stream"
            for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))
        ):
            users.add(name)
    return sorted(users)


def test_stream_user_is_found():
    source = (
        "from functools import partial\nfrom . import streams\n"
        "from .streams import stream\n\n"
        "def _sweep(spec):\n    def chunk(i):\n        return stream(spec, i)\n"
        "    return chunk(0)\n\n"
        "def run_a(spec):\n    return stream(spec, 0, 0)\n\n"
        "def run_b(spec):\n    return streams.stream(spec, 2)\n\n"
        "def run_c(spec):\n    return _sweep(partial(stream, spec))\n\n"
        "def run_d(spec):\n    return _sweep(spec).upstream\n\n"
        "class Runner:\n    def go(self):\n        return stream(1)\n\n"
        "FIRST = stream(0)\n"
    )
    # _sweep's nested chunk function is _sweep's; a hand-off counts as a call
    assert stream_users(source) == ["<module>", "Runner", "run_a", "run_b", "run_c"]


def test_only_the_sweep_driver_keys_streams():
    # every stream of a run is keyed by its point's position in `_sweep`'s list
    assert stream_users((SRC / "harness.py").read_text(encoding="utf-8")) == []
