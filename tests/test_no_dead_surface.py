"""Every public function and class of the library has a caller outside the
tests: its own module beyond its definition, another library module, or the
benchmark under perfbench/ (whose tracer names its targets ``layer.name``).
A surface that only the tests reach belongs in tests/helpers.py.

Definitions, ``__all__`` lists, the re-exports of ``dadim/__init__.py`` and
references inside the name's own definition do not count as uses.
``cli.cmd_*`` is exempt: ``main`` looks the commands up by name.
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


def unreferenced(sources: dict, bench_text: str) -> list:
    """``module.name`` for each public top-level function or class of the
    modules in ``sources`` (module name -> source text) that nothing but
    its own definition refers to."""
    trees = {mod: ast.parse(text) for mod, text in sources.items() if mod != "__init__"}
    uses = {mod: _uses(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or mod == "cli" and name.startswith("cmd_"):
                continue
            if not (
                name in _uses(tree, skip=node)
                or any(name in u for other, u in uses.items() if other != mod)
                or re.search(rf"\b{name}\b", bench_text)
            ):
                out.append(f"{mod}.{name}")
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
