"""Every name the benchmark reaches into the package for still resolves,
and the package defines no name, and its classes no field, method or
property, that only the tests read.

``perfbench/tracing.py`` patches the functions in its ``TARGETS`` by name
and raises when one is missing, and ``perfbench/checks.py`` imports a few
names directly; a missing one makes ``perfbench/run.py`` exit non-zero.
These tests read the benchmark's files and change nothing in them.
Cross-check routes and the constants only they read belong in
``tests/reference_routes.py``.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbgpair"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclasses in it look their module up
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("name,module,attr", [t[:3] for t in TRACING.TARGETS])
def test_trace_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:  # a method, looked up on its class as install() does
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth]), name
    else:
        assert callable(getattr(owner, attr)), name


def test_tracer_installs_and_restores():
    for _, module, _, _ in TRACING.TARGETS:
        importlib.import_module(module)
    from pbgpair import inversion, transform

    original = inversion.amplitudes_analytic
    # the previous route is defined in transform and re-exported by
    # inversion, where the targets name it: both bindings are patched
    route = {name: getattr(transform, name) for name in ("residue_sum", "cut_discontinuity")}
    methods = {name: vars(transform.CutIntegrator)[name] for name in ("__init__", "evaluate")}
    with TRACING.Tracer().installed():
        assert inversion.amplitudes_analytic is not original
        for name, fn in route.items():
            assert getattr(inversion, name) is getattr(transform, name), name
            assert getattr(transform, name).__wrapped__ is fn, name
        for name, fn in methods.items():
            assert vars(inversion.CutIntegrator)[name].__wrapped__ is fn, name
    assert inversion.amplitudes_analytic is original
    for name, fn in route.items():
        assert getattr(inversion, name) is fn and getattr(transform, name) is fn, name
    for name, fn in methods.items():
        assert vars(transform.CutIntegrator)[name] is fn, name


def _package_imports(path):
    """(module, name) of every ``from pbgpair... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "pbgpair"
            for alias in node.names}


def test_checks_imports_resolve():
    names = _package_imports(PERFBENCH / "checks.py")
    assert {("pbgpair.inversion", "amplitudes_analytic"), ("pbgpair.config", "SystemConfig"),
            ("pbgpair.config", "preset_initial"), ("pbgpair.presets", "get_preset")} <= names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), (module, name)


def _top_level_names(tree):
    """Names a module binds at its top level: defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_src_defines_nothing_only_the_tests_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    benchmark = {(module.rpartition(".")[2], attr.split(".")[0])
                 for _, module, attr, _ in TRACING.TARGETS}
    benchmark |= {(module.rpartition(".")[2], name)
                  for module, name in _package_imports(PERFBENCH / "checks.py")}
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _top_level_names(tree)
              if name not in loaded and (module, name) not in benchmark
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == [], "move what only the tests read to tests/reference_routes.py"


def _class_members(tree):
    """(class, member) of every annotated field, method and property of a
    class: what its instances offer as attributes, dunders aside."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name


def _attributes_read(paths):
    """Every attribute name the files read: ``x.name`` in a load context."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_src_classes_carry_nothing_only_the_tests_read():
    sources = sorted(SRC.glob("*.py"))
    read = _attributes_read(sources) | _attributes_read(sorted(PERFBENCH.glob("*.py")))
    read |= {attr.split(".")[1] for _, _, attr, _ in TRACING.TARGETS if "." in attr}
    unused = [f"{cls}.{name}" for path in sources
              for cls, name in _class_members(ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    assert unused == [], "move what only the tests read to tests/reference_routes.py"
