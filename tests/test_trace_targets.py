"""Every name the benchmark reaches into the package for still resolves.

``perfbench/tracing.py`` patches the functions in its ``TARGETS`` by name
and raises when one is missing, and ``perfbench/checks.py`` imports a few
names directly; a missing one makes ``perfbench/run.py`` exit non-zero.
These tests read the benchmark's files and change nothing in them.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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
    from pbgpair import inversion

    original = inversion.amplitudes_analytic
    with TRACING.Tracer().installed():
        assert inversion.amplitudes_analytic is not original
    assert inversion.amplitudes_analytic is original


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
