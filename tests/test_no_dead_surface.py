"""Every public function and class of the library, and every public
method and property of its public classes, has a caller outside the tests:
its own module beyond its definition, another library module, or the
benchmark under perfbench/ (whose tracer names its targets ``layer.name``).
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


# test-only methods kept where they are: coarse.py stays as it is until the
# next change to the coarse layer, which moves this one to tests/helpers.py
KEPT = {"coarse.FiniteMetricSpace.diameter"}


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


def unreferenced(sources: dict, bench_text: str) -> list:
    """``module.name`` for each public top-level function or class, and
    ``module.Class.name`` for each public method or property, of the
    modules in ``sources`` (module name -> source text) that nothing but
    its own definition refers to."""
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
                or re.search(rf"\b{name}\b", bench_text)
            ):
                out.append(f"{mod}.{qualname}")
    return out


def _library_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / "dadim").glob("*.py"))}


def _bench_text() -> str:
    return "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py")))


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced(_library_sources(), _bench_text()) == []


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
    assert unreferenced(sources, _bench_text()) == ["nerve.planted_unused", "nerve.PlantedUnused"]


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
    assert unreferenced(sources, _bench_text()) == [
        "nerve.PlantedHost.planted_method", "nerve.PlantedHost.planted_property",
    ]


def test_every_kept_method_is_still_test_only():
    """A method on the kept list leaves it once something calls it."""
    sources = _library_sources()
    kept = set(KEPT)
    KEPT.clear()
    try:
        assert kept <= set(unreferenced(sources, _bench_text()))
    finally:
        KEPT.update(kept)
