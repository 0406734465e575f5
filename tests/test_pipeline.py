"""The pipeline's groupoid stages at a quotient depth where q^2 arrows
would dominate."""

import json

from dadim.groupoid import TransformationGroupoid
from dadim.pipeline import run_pipeline


def test_pipeline_never_builds_the_arrow_tuple(tmp_path, monkeypatch):
    """Dyadic quotient depth 8 (q = 256, 65 536 arrows): every stage reads
    the action table, so the chain is green without the arrow tuple."""

    def refuse(self):
        raise AssertionError("TransformationGroupoid.arrows was built")

    monkeypatch.setattr(TransformationGroupoid, "arrows", property(refuse))
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"kind": "odometer", "base": [2], "depth_limit": 12}))
    chain = run_pipeline(system, 1, 8, 4, tmp_path / "out")
    assert chain.green
    decomposition = json.loads((tmp_path / "out" / "07_decomposition.json").read_text())
    assert [pc["block_sizes"] for pc in decomposition["decomposition"]["per_color"]] == [[256]] * 2
