"""The import contract: each subcommand loads only the scipy it calls.

Start-up dominates a small run, and the first scipy submodule imported
costs more than a whole ``bounds`` evaluation, so the library imports
scipy's submodules inside the functions that call them.  The subprocess
tests check what a fresh interpreter has loaded after each run; the AST
test keeps a module-level submodule import from coming back.  A second AST
walk fails on a module-level private helper that nothing in the package
reads, a third on a module-level public function, class or constant that
only tests read, a fourth on a public method or property whose name no
attribute access outside the tests reads, two more on a dataclass field
that nothing reads outside its own ``__post_init__`` and on a function
parameter that its body never reads, and another on an error class that
nothing in the package raises.  One more reads the benchmark tracer's
table of wrapped functions, so removing a name it binds fails here rather
than in a traced bench run.
The last parses the package and the demos with the grammar of the oldest
Python that ``pyproject.toml`` declares.
"""

import ast
import importlib
import json
import re

import pytest

from helpers import ROOT, run_python
from qselci.cli import cli_dispatch
from qselci.fcidump import serialize_fcidump
from qselci.fixtures import hubbard_chain_table

SRC = ROOT / "src" / "qselci"

# Eigensolvers, sparse matrices, the optimizer, special functions, and the
# array-API shim the first of them pulls in (numpy.f2py, numpy.testing, ...).
HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.optimize", "scipy.special",
         "scipy._lib._array_api")

# Runs the CLI in-process, then prints the loaded module names as JSON on
# the last line of stdout.  With no arguments it only imports the CLI.
PROBE = (
    "import json, sys\n"
    "from qselci.cli import cli_dispatch\n"
    "code = cli_dispatch(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)


def loaded_modules(argv):
    proc = run_python(["-c", PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == 0, proc.stderr
    return set(probe["modules"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A sampled (not FCI) wavefunction of hubbard4 and an FCIDUMP file."""
    root = tmp_path_factory.mktemp("imports")
    wf, fcidump = root / "wf.json", root / "h4.fcidump"
    assert cli_dispatch(
        ["qsci", "--fixture", "hubbard4", "--shots", "2000", "--seed", "3",
         "--save-wf", str(wf), "--out", str(root / "qsci.json")]
    ) == 0
    fcidump.write_text(serialize_fcidump(hubbard_chain_table()))
    return {"wf": str(wf), "fcidump": str(fcidump), "out": str(root / "r.json")}


LIGHT_RUNS = {
    "import": [],
    "bounds": ["bounds", "--preset", "cas10-10"],
    "analyze": ["analyze", "--in", "{wf}"],
    "pt2": ["pt2", "--fixture", "hubbard4", "--in", "{wf}"],
    "fcidump-info": ["fcidump-info", "--fcidump", "{fcidump}"],
}


@pytest.mark.parametrize("argv", LIGHT_RUNS.values(), ids=LIGHT_RUNS.keys())
def test_light_subcommands_load_no_heavy_scipy(inputs, argv):
    argv = [a.format(**inputs) for a in argv]
    if argv:
        argv += ["--out", inputs["out"]]
    # numpy.ma (about 10 ms) comes in with a plain np.unique or a unique
    # over rows (axis=0), which check for masked arrays
    assert loaded_modules(argv).isdisjoint(HEAVY + ("numpy.ma",))


def test_qsci_without_optimize_loads_no_optimizer(inputs):
    modules = loaded_modules(
        ["qsci", "--fixture", "hubbard4", "--shots", "2000",
         "--out", inputs["out"]]
    )
    assert "scipy.sparse" in modules  # the probe sees what a run loads
    assert modules.isdisjoint(("scipy.optimize", "scipy.special"))


def _module_level_scipy_imports(tree):
    """(line, text) of each scipy import that runs when the module loads,
    that is, outside any function body, other than a bare ``import scipy``."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.startswith("scipy.")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "scipy" or node.module.startswith("scipy.")
        ):
            found.append((node.lineno, f"from {node.module} import ..."))
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_submodule_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _module_level_scipy_imports(tree) == []


def test_guard_sees_nested_module_level_imports():
    tree = ast.parse(
        "import scipy\n"
        "try:\n    import scipy.sparse\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy.linalg import eigh\n"
        "def f():\n    import scipy.optimize\n"
    )
    assert sorted(_module_level_scipy_imports(tree)) == [
        (3, "import scipy.sparse"), (7, "from scipy.linalg import ..."),
    ]


def _unread_definitions(sources, outside, selects):
    """Module-level definitions (functions, classes, assigned names) of the
    ``{module name: source}`` map that ``selects(name, statement)`` picks
    and that no statement outside their own definition reads, in the
    package or in the ``outside`` sources, as sorted ``module.name``
    strings."""
    bodies = {module: ast.parse(text).body for module, text in sources.items()}
    statements = [s for body in bodies.values() for s in body]
    statements += [s for text in outside for s in ast.parse(text).body]
    readers = {}
    for stmt in statements:
        for node in ast.walk(stmt):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or isinstance(node, ast.alias) and node.name)
            if name:
                readers.setdefault(name, []).append(stmt)
    found = []
    for module, body in bodies.items():
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [f"{module}.{n}" for n in names if selects(n, stmt)
                      and all(s is stmt for s in readers.get(n, []))]
    return sorted(found)


def _unread_private_names(sources):
    """Module-level private functions, classes and constants that no code
    outside their own definition reads."""
    return _unread_definitions(
        sources, [], lambda name, _stmt: name.startswith("_")
        and not name.endswith("__"))


def _test_only_public_names(sources, outside):
    """Module-level public functions, classes and constants that nothing
    reads outside their own definition, in the package or in ``outside``.
    Methods are out of reach: a name scan cannot tell one class's ``total``
    from another's."""
    return _unread_definitions(
        sources, outside, lambda name, _stmt: not name.startswith("_"))


def _package_and_outside_sources():
    """The package's ``{module name: source}`` map, and the sources of the
    demos and the benchmarks other than their tests."""
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    outside = [p.read_text(encoding="utf-8")
               for folder in ("demos", "benchmarks")
               for p in sorted((ROOT / folder).rglob("*.py"))
               if "tests" not in p.relative_to(ROOT).parts]
    return sources, outside


def test_no_unread_private_helper():
    sources, _outside = _package_and_outside_sources()
    assert _unread_private_names(sources) == []


def test_guard_sees_unread_private_helpers():
    sources = {
        "a": "_TABLE = {}\n"
             "def _product(x):\n    return _TABLE, _product(x)\n"
             "def _used():\n    pass\n"
             "class _Alone:\n    pass\n",
        "b": "from .a import _used\n",
    }
    assert _unread_private_names(sources) == ["a._Alone", "a._product"]


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _test_only_public_names(*_package_and_outside_sources()) == []


def test_guard_sees_public_names_only_tests_read():
    sources = {
        "a": "def alone(x):\n    return alone(x)\n"
             "def chained():\n    return helper()\n"
             "def helper():\n    pass\n"
             "class Shown:\n    def method(self):\n        pass\n"
             "def _private():\n    pass\n"
             "LIMIT = 3\nUNREAD = LIMIT\n_HIDDEN = 1\n",
        "b": "from .a import chained\n",
    }
    outside = ["import a\nprint(a.Shown().method())\n"]
    assert _test_only_public_names(sources, outside) == ["a.UNREAD",
                                                         "a.alone"]


def _attribute_loads(trees):
    """``{name: [each attribute load of that name]}`` over ``trees``."""
    readers = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                readers.setdefault(node.attr, []).append(node)
    return readers


def _test_only_public_methods(sources, outside):
    """Public methods and properties of the module-level classes of the
    ``{module name: source}`` map whose name no attribute access reads
    outside their own body, in the package or in ``outside``, as sorted
    ``module.Class.name`` strings.  A read of the name on any object
    counts, so a method shares its readers with every attribute of that
    name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers = _attribute_loads([*trees.values(), *map(ast.parse, outside)])
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or (
                        method.name.startswith("_")):
                    continue
                own = set(map(id, ast.walk(method)))
                if all(id(n) in own for n in readers.get(method.name, [])):
                    found.append(f"{module}.{cls.name}.{method.name}")
    return sorted(found)


def test_every_public_method_has_a_reader_outside_the_tests():
    assert _test_only_public_methods(*_package_and_outside_sources()) == []


def test_guard_sees_methods_only_tests_read():
    sources = {
        "a": "class Box:\n"
             "    def used(self):\n        return self.alone()\n"
             "    @property\n    def shown(self):\n        return 1\n"
             "    def alone(self):\n        return 2\n"
             "    def again(self):\n        return self.again()\n"
             "    def _private(self):\n        pass\n"
             "    def __len__(self):\n        return 0\n"
             "    def called(self):\n        pass\n"
             "def called():\n    pass\n"
             "print(Box().used(), called())\n",
    }
    outside = ["import a\nprint(a.Box().shown)\n"]
    assert _test_only_public_methods(sources, outside) == ["a.Box.again",
                                                           "a.Box.called"]


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _unread_fields(sources, outside):
    """Fields of the dataclasses of the ``{module name: source}`` map whose
    name no attribute load reads outside their class's own
    ``__post_init__``, in the package or in ``outside``, as sorted
    ``module.Class.field`` strings.  A read of the name on any object
    counts, and a class whose body calls ``asdict(self)`` reads every
    field."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers = _attribute_loads([*trees.values(), *map(ast.parse, outside)])
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            if any(isinstance(n, ast.Call)
                   and getattr(n.func, "id", None) == "asdict"
                   and [getattr(a, "id", None) for a in n.args] == ["self"]
                   for n in ast.walk(cls)):
                continue
            own = {id(n) for stmt in cls.body
                   if isinstance(stmt, ast.FunctionDef)
                   and stmt.name == "__post_init__" for n in ast.walk(stmt)}
            found += [f"{module}.{cls.name}.{stmt.target.id}"
                      for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                      and all(id(n) in own
                              for n in readers.get(stmt.target.id, []))]
    return sorted(found)


def test_every_dataclass_field_has_a_reader():
    assert _unread_fields(*_package_and_outside_sources()) == []


def test_guard_sees_fields_only_their_post_init_reads():
    sources = {
        "a": "from dataclasses import asdict, dataclass\n"
             "@dataclass\nclass Model:\n"
             "    used: float = 0.0\n    checked: float = 0.0\n"
             "    alone: int = None\n    shown: int = 0\n"
             "    def __post_init__(self):\n"
             "        self.used = self.checked + self.used\n"
             "    def total(self):\n        return self.used\n"
             "@dataclass(frozen=True)\nclass Frozen:\n    kept: int\n"
             "    lost: int\n"
             "@dataclass\nclass Report:\n    anything: int = 0\n"
             "    def to_dict(self):\n        return asdict(self)\n"
             "class Plain:\n    skipped: int = 0\n"
             "Frozen(1, 2).kept\n",
    }
    outside = ["import a\nprint(a.Model().shown)\n"]
    assert _unread_fields(sources, outside) == [
        "a.Frozen.lost", "a.Model.alone", "a.Model.checked"]


# ``sampling.sample`` accepts ``noise`` without reading it, because the
# bench's ``sample-20q`` op passes it; it leaves with that benchmark change
# (ROADMAP D1 slice 1b).
UNREAD_PARAMETERS = ["sampling.sample.noise"]


def _unread_parameters(sources):
    """Parameters of every function, method and lambda of the ``{module
    name: source}`` map that no name load in its body reads, other than
    ``self``, ``cls`` and ``_``-prefixed ones, as sorted
    ``module.function.parameter`` strings (``module.Class.method.parameter``
    for a method, ``<lambda>`` for a lambda's name)."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                body = child.body if isinstance(child.body, list) else [
                    child.body]
                loads = {n.id for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load)}
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *filter(None, (a.vararg, a.kwarg))]
                found.extend(f"{prefix}{name}.{p.arg}" for p in params
                             if p.arg not in loads | {"self", "cls"}
                             and not p.arg.startswith("_"))
                visit(child, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for module, text in sources.items():
        visit(ast.parse(text), f"{module}.")
    return sorted(found)


def test_every_parameter_is_read():
    sources, _outside = _package_and_outside_sources()
    assert _unread_parameters(sources) == UNREAD_PARAMETERS


def test_guard_sees_unread_parameters():
    sources = {
        "a": "def f(x, y, *args, z=1, _w=2, **kw):\n"
             "    return x, kw, [args for _ in ()]\n"
             "class Box:\n"
             "    def m(self, used, unused):\n"
             "        def inner(v):\n            return used\n"
             "        return inner\n"
             "    @classmethod\n    def make(cls, n):\n        n = 1\n"
             "        return cls\n"
             "key = lambda item, _rest: 0\n",
    }
    assert _unread_parameters(sources) == [
        "a.<lambda>.item", "a.Box.m.inner.v", "a.Box.m.unused",
        "a.Box.make.n", "a.f.y", "a.f.z"]


def _unraised_error_classes(errors_text, sources):
    """Exception classes defined in ``errors_text``, other than the
    ``QselciError`` base, that no ``raise`` in ``sources`` names."""
    raised = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return [stmt.name for stmt in ast.parse(errors_text).body
            if isinstance(stmt, ast.ClassDef) and stmt.name != "QselciError"
            and stmt.name not in raised]


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    errors_text = (SRC / "errors.py").read_text(encoding="utf-8")
    assert _unraised_error_classes(errors_text, sources) == []


def test_guard_sees_unraised_error_classes():
    errors_text = ("class QselciError(Exception):\n    pass\n"
                   "class Base(QselciError):\n    pass\n"
                   "class Named(Base):\n    pass\n"
                   "class Bare(Base):\n    pass\n"
                   "class Dotted(Base):\n    pass\n")
    sources = [errors_text,
               "from .errors import Base, Named\n"
               "def f(x):\n    if x:\n        raise Named('x')\n"
               "    raise errors.Dotted\n"
               "try:\n    f(0)\nexcept Base:\n    raise\n"]
    assert _unraised_error_classes(errors_text, sources) == ["Base", "Bare"]


def _tracer_bindings(text):
    """The (module, attribute) pairs listed in the WRAPPED and COUNTED_ONLY
    tables of the benchmark tracer's source."""
    pairs = []
    for stmt in ast.parse(text).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("WRAPPED", "COUNTED_ONLY")
            for t in stmt.targets
        ):
            pairs += [(row.elts[0].value, row.elts[1].value)
                      for row in stmt.value.elts]
    return pairs


def test_benchmark_tracer_bindings_resolve():
    text = (ROOT / "benchmarks" / "spans.py").read_text(encoding="utf-8")
    pairs = _tracer_bindings(text)
    assert ("hamiltonian", "slater_condon") in pairs
    missing = [f"qselci.{module}.{attr}" for module, attr in pairs
               if not hasattr(importlib.import_module(f"qselci.{module}"), attr)]
    assert missing == []


def _python_floor():
    """The (major, minor) of ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize(
    "path", sorted([*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_sources_parse_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_python_floor())


def test_floor_guard_rejects_newer_grammar():
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert _python_floor() == (3, 10)
    ast.parse(text, feature_version=(3, 11))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(text, feature_version=_python_floor())
