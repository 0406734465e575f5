"""Every public function and class of the library, and every public
method and property of its public classes, has a caller outside the tests:
its own module beyond its definition, another library module, or the
benchmark under perfbench/.  The benchmark counts by what its code reads:
its names, attributes and imports, and the dotted parts of its string
constants that are identifiers (the tracer names its targets
``layer.name``); a word in a comment or a docstring keeps nothing alive.
A surface that only the tests reach belongs in tests/helpers.py.

Definitions, ``__all__`` lists, the re-exports of ``dadim/__init__.py`` and
references inside the name's own definition do not count as uses.  A
method counts as used wherever its name is read as an attribute, on any
object, since calls are not resolved to classes.  ``cli.cmd_*`` is exempt:
``main`` looks the commands up by name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _uses(tree, skip=None) -> set:
    """Names loaded or read as attributes in ``tree``, outside ``__all__``
    and outside the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


# test-only methods kept where they are
KEPT: set = set()


def _public_defs(tree):
    """(qualified name, node) for each public top-level function or class,
    and for each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def bench_names(texts) -> set:
    """What the benchmark's sources read: names, attributes and imported
    names, plus each dotted part of a string constant that is a dotted
    identifier."""
    out = set()
    for text in texts:
        tree = ast.parse(text)
        out |= _uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                out.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(
                r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value
            ):
                out.update(node.value.split("."))
    return out


def unreferenced(sources: dict, bench: set) -> list:
    """``module.name`` for each public top-level function or class, and
    ``module.Class.name`` for each public method or property, of the
    modules in ``sources`` (module name -> source text) that nothing but
    its own definition refers to; ``bench`` is what the benchmark reads
    (``bench_names``)."""
    trees = {mod: ast.parse(text) for mod, text in sources.items() if mod != "__init__"}
    uses = {mod: _uses(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in trees.items():
        for qualname, node in _public_defs(tree):
            name = node.name
            if mod == "cli" and name.startswith("cmd_") or f"{mod}.{qualname}" in KEPT:
                continue
            if not (
                name in _uses(tree, skip=node)
                or any(name in u for other, u in uses.items() if other != mod)
                or name in bench
            ):
                out.append(f"{mod}.{qualname}")
    return out


def _library_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / "dadim").glob("*.py"))}


def _bench_texts() -> list:
    return [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced(_library_sources(), bench_names(_bench_texts())) == []


def test_the_guard_flags_a_planted_unused_function():
    """A function that only calls itself and a class, both re-exported from
    the package and listed in ``__all__``, are flagged."""
    sources = _library_sources()
    sources["nerve"] += (
        "\n\ndef planted_unused(mu):\n    return planted_unused(mu)\n"
        "\n\nclass PlantedUnused:\n    pass\n"
        '\n\n__all__ = ["planted_unused", "PlantedUnused"]\n'
    )
    sources["__init__"] += "\nfrom .nerve import PlantedUnused, planted_unused\n"
    assert unreferenced(sources, bench_names(_bench_texts())) == [
        "nerve.planted_unused", "nerve.PlantedUnused",
    ]


def test_a_word_in_a_benchmark_comment_or_docstring_keeps_nothing_alive():
    """A planted function that the benchmark names only in a comment and a
    docstring is flagged; read as a name, an attribute or a traced
    ``layer.name`` string, it is not."""
    sources = _library_sources()
    sources["nerve"] += "\n\ndef planted_unused(mu):\n    return mu\n"
    bench = _bench_texts()
    mentioned = '"""Calls planted_unused."""\n# planted_unused keeps going\n'
    assert unreferenced(sources, bench_names(bench + [mentioned])) == ["nerve.planted_unused"]
    reads = ("planted_unused(1)\n", "dadim.nerve.planted_unused\n", 'T = ["nerve.planted_unused"]\n')
    for read in reads:
        assert unreferenced(sources, bench_names(bench + [read])) == []


def test_the_guard_flags_a_planted_unused_method_and_property():
    """A method and a property of a used class that only refer to
    themselves are flagged; the class is not."""
    sources = _library_sources()
    sources["nerve"] += (
        "\n\nclass PlantedHost:\n"
        "    def planted_method(self):\n        return self.planted_method()\n\n"
        "    @property\n    def planted_property(self):\n        return self.planted_property\n"
        "\n\nHOST = PlantedHost()\n"
    )
    assert unreferenced(sources, bench_names(_bench_texts())) == [
        "nerve.PlantedHost.planted_method", "nerve.PlantedHost.planted_property",
    ]


def test_every_kept_method_is_still_test_only():
    """A method on the kept list leaves it once something calls it."""
    sources = _library_sources()
    kept = set(KEPT)
    KEPT.clear()
    try:
        assert kept <= set(unreferenced(sources, bench_names(_bench_texts())))
    finally:
        KEPT.update(kept)
