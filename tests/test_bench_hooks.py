"""The benchmark tracer (perfbench/tracer.py) binds to library functions by
name, and a metric whose target is gone reads 0 without failing the run.
These tests resolve every target the tracer names, so a rename fails here.
The tracer is parsed, not imported: nothing under perfbench/ is written."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from dadim.certify import CertificateChain
from dadim.groupoid import TransformationGroupoid
from dadim.symbolic import ClopenSet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    """Module-level assignments of the tracer, as AST nodes by name."""
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                out[target.id] = node.value
    return out


TABLES = _tables()


def _targets() -> set:
    names = set()
    for spans in ast.literal_eval(TABLES["SELF_TIME"]).values():
        names.update(spans)
    names.update(ast.literal_eval(TABLES["CALLS"]).values())
    names.update(ast.literal_eval(TABLES["INCLUSIVE"]).values())
    names.update(ast.literal_eval(TABLES["COUNTED_ONLY"]))
    names.update(ast.literal_eval(key) for key in TABLES["ON_RESULT"].keys)
    return names


TARGETS = _targets()


@pytest.mark.parametrize("name", sorted(n for n in TARGETS if n.count(".") == 1))
def test_traced_function_resolves(name):
    """The tracer wraps public, non-generator functions defined in their
    layer module; any other target is skipped by its install loop."""
    layer, fname = name.split(".")
    assert layer in ast.literal_eval(TABLES["LAYERS"])
    mod = importlib.import_module(f"dadim.{layer}")
    fn = getattr(mod, fname, None)
    assert not fname.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
    assert not inspect.isgeneratorfunction(fn)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def test_traced_methods_resolve():
    assert {n for n in TARGETS if n.count(".") != 1} == {
        "certify.CertificateChain.verify_directory"
    }
    assert isinstance(CertificateChain.__dict__["verify_directory"], classmethod)
    assert inspect.isfunction(TransformationGroupoid.__dict__["compose"])
    for op in ast.literal_eval(TABLES["CLOPEN_OPS"]):
        assert any(
            inspect.isfunction(cls.__dict__.get(op)) for cls in _subclasses(ClopenSet)
        ), op
