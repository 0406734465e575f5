"""Every check in the library is exhaustive: no module of src/dadim draws
random numbers, so a sampled check cannot come back unnoticed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dadim"


def _random_uses(tree) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names if a.name.split(".")[0] == "random"
                    or a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod.split(".")[0] == "random" or mod.startswith("numpy.random"):
                out.append(mod)
            elif mod == "numpy":
                out += [f"numpy.{a.name}" for a in node.names if a.name == "random"]
        elif (
            isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ):
            out.append(f"{node.value.id}.random")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_random_numbers_in_the_library(path):
    assert _random_uses(ast.parse(path.read_text())) == []


def test_the_guard_sees_samplers():
    code = (
        "import random\nfrom random import Random\nimport numpy.random\n"
        "from numpy import random\nrng = np.random.default_rng(7)\n"
    )
    assert len(_random_uses(ast.parse(code))) == 5
