"""The benchmark tracer (perfbench/tracer.py) binds to library functions by
name, and a metric whose target is gone reads 0 without failing the run.
These tests resolve every target the tracer names, so a rename fails here.
The benchmark's jobs (perfbench/jobs.py) call the library by name too:
every name they read must resolve, and the groupoid stage they rebuild
by hand must still pass.  The tracer's counting hooks read what the
library returns, and must count alike whatever form it takes.  Both
files are parsed, not imported: nothing under perfbench/ is written."""

import ast
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import dadim
import dadim.cli  # noqa: F401  (jobs.py imports it, which loads every layer)
from dadim import certify
from dadim.certify import CertificateChain
from dadim.groupoid import TransformationGroupoid
from dadim.symbolic import ClopenSet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
JOBS = ast.parse((PERFBENCH / "jobs.py").read_text())


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


def _jobs_reads() -> list:
    """Every dotted name jobs.py reads off ``dadim`` or off a dadim module
    it imports by name, such as ``dadim.cli.main``."""
    roots = {}
    for node in ast.walk(JOBS):
        if isinstance(node, ast.Import):
            roots.update((a.name.split(".")[0], "dadim") for a in node.names
                         if a.name.split(".")[0] == "dadim")
        elif isinstance(node, ast.ImportFrom) and node.module == "dadim":
            roots.update((a.asname or a.name, f"dadim.{a.name}") for a in node.names)
    chains = set()
    for node in ast.walk(JOBS):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            chains.add((roots[node.id], tuple(reversed(parts))))
    return sorted(chains)


@pytest.mark.parametrize("module, attrs", _jobs_reads(),
                         ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_jobs_read_names_that_resolve(module, attrs):
    obj = importlib.import_module(module)
    for attr in attrs:
        assert hasattr(obj, attr), f"{module}.{'.'.join(attrs)}"
        obj = getattr(obj, attr)


def test_jobs_groupoid_stage_runs_on_the_library(tmp_path):
    """The groupoid-stage job, compiled from jobs.py's own source: the
    rotation built as ``transformation_groupoid(q, range(q))``, K as the
    pairs ``(e % q, x)`` of the stored E read in Z, and seeds as arrow
    lists.  On a dyadic chain at quotient depth 6, with the colors rotated,
    the rebuilt report matches the stored one and is accepted."""
    wanted = {"_load", "canonical", "_diffs", "run_groupoid_stage", "check_groupoid_stage"}
    defs = [n for n in JOBS.body if isinstance(n, ast.FunctionDef) and n.name in wanted]
    assert {n.name for n in defs} == wanted
    calls = {ast.unparse(n) for n in ast.walk(ast.Module(defs, [])) if isinstance(n, ast.Call)}
    assert "dadim.transformation_groupoid(q, range(q))" in calls
    namespace = {"dadim": dadim, "certify": certify, "json": json, "Path": Path}
    exec(compile(ast.Module(defs, []), "perfbench/jobs.py", "exec"), namespace)

    system = tmp_path / "system.json"
    system.write_text(json.dumps({"kind": "odometer", "base": [2], "depth_limit": 12}))
    assert dadim.run_pipeline(system, 1, 6, 4, tmp_path / "chain").green
    ctx = SimpleNamespace(path=lambda name: str(tmp_path / name))
    for rotation in (0, 5):
        out = namespace["run_groupoid_stage"]({"chain": "chain", "rotation": rotation}, ctx)
        assert out["report"]["accepted"]
        assert namespace["check_groupoid_stage"]({}, out, ctx) == ([], None)


def test_tracer_counts_the_arrows_of_moves_as_of_their_frozenset():
    """The ``pou.arrows_checked`` hook, compiled from tracer.py's own
    source, adds len(K) per accepted ``verify_pou``: the moves of E that
    the library hands it count as many arrows as the frozenset of them."""
    defs = [n for n in ast.parse(TRACER.read_text()).body
            if isinstance(n, ast.FunctionDef) and n.name == "_pou_arrows"]
    assert len(defs) == 1
    namespace: dict = {}
    exec(compile(ast.Module(defs, []), "perfbench/tracer.py", "exec"), namespace)
    arcs = [frozenset(range(7)), frozenset({6, 7, 8, 9, 10, 11, 0})]
    G, K, _, pou = dadim.pou_from_group_action(12, [-1, 0, 1], arcs, 16, None)
    counts = []
    for form in (K, frozenset(K)):
        counters: Counter = Counter()
        namespace["_pou_arrows"](counters, (G, form, pou), dadim.verify_pou(G, form, pou))
        counts.append(counters["pou.arrows_checked"])
    assert counts == [36, 36]
