"""The pipeline's groupoid stages at a quotient depth where q^2 arrows
would dominate, and the chain it records."""

import json

import pytest

from dadim import certify, pipeline
from dadim.certify import CertificateChain, canonical_json
from dadim.groupoid import TransformationGroupoid
from dadim.pipeline import run_pipeline
from helpers import PIPELINE_LINKS, TwoStepChain, refuse_generation


def _dyadic(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"kind": "odometer", "base": [2], "depth_limit": 12}))
    return system


def test_pipeline_never_builds_the_arrow_tuple(tmp_path, monkeypatch):
    """Dyadic quotient depth 8 (q = 256, 65 536 arrows): every stage reads
    the action table, so the chain is green without the arrow tuple.  K^3
    comes from the offsets of K and each stage records the hash its
    certificate was written with, so no arrow is composed and no file is
    hashed either.  The decomposition stage and its norms read blocks as
    label arrays: they generate no subgroupoid and build no ``BlockArrows``."""

    def refuse(*args):
        raise AssertionError("called while building the chain")

    decompose = pipeline.decompose_via_pou

    def decompose_generating_nothing(f, pou):
        with monkeypatch.context() as m:
            refuse_generation(m)
            return decompose(f, pou)

    monkeypatch.setattr(TransformationGroupoid, "arrows", property(refuse))
    monkeypatch.setattr(TransformationGroupoid, "compose", refuse)
    monkeypatch.setattr(certify, "file_hash", refuse)
    monkeypatch.setattr(pipeline, "decompose_via_pou", decompose_generating_nothing)
    chain = run_pipeline(_dyadic(tmp_path), 1, 8, 4, tmp_path / "out")
    assert chain.green
    decomposition = json.loads((tmp_path / "out" / "07_decomposition.json").read_text())
    assert [pc["block_sizes"] for pc in decomposition["decomposition"]["per_color"]] == [[256]] * 2
    monkeypatch.undo()
    assert CertificateChain.verify_directory(tmp_path / "out")["green"]


@pytest.mark.parametrize("depth", [4, 6])
def test_chain_matches_the_two_step_oracle(tmp_path, depth):
    """chain.json as the two-step chain wrote it: every hash read back from
    disk, every stage linked by the hand-written input and output files."""
    out = tmp_path / "out"
    run_pipeline(_dyadic(tmp_path), 1, depth, 4, out)
    chain = json.loads((out / "chain.json").read_text())
    assert len(chain["stages"]) == len(PIPELINE_LINKS)
    oracle = TwoStepChain(out)
    for (kind, inputs, outputs), stage in zip(PIPELINE_LINKS, chain["stages"]):
        oracle.add_stage(kind, inputs, outputs, stage["status"], stage["details"])
    want = {"stages": oracle.stages, "green": True}
    assert certify._strip_volatile(chain) == json.loads(canonical_json(want))
