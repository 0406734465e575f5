"""Canonical serialization, hashing, determinism, and corpus plumbing."""

import json
import shutil
from fractions import Fraction

import pytest

from dadim.certify import (
    canonical_json,
    compare_artifacts,
    content_hash,
    corpus_dir,
    file_hash,
    rational_str,
    write_certificate,
)
from dadim.errors import InvalidInput
from dadim.pipeline import corpus_check
from dadim.pou import pou_from_group_action
from dadim.symbolic import Odometer
from dadim.witness import construct_minimal_z_witness


def test_canonical_json_normalization():
    obj = {
        "q": Fraction(3, 12),
        "f": 0.123456789012345,
        "s": {frozenset({2, 1})},
        "t": (1, 2),
    }
    text = canonical_json(obj)
    assert '"q":"1/4"' in text
    assert '"t":[1,2]' in text
    assert json.loads(text)["f"] == float(f"{0.123456789012345:.12g}")
    assert rational_str(Fraction(-4, 8)) == "-1/2"


def test_content_hash_ignores_timestamps():
    a = {"x": 1, "created": "2026-01-01T00:00:00"}
    b = {"x": 1, "created": "2030-12-31T23:59:59"}
    assert content_hash(a) == content_hash(b)
    assert content_hash({"x": 1}) != content_hash({"x": 2})


def test_compare_artifacts_float_tolerance():
    assert compare_artifacts({"n": 1.0}, {"n": 1.0 + 1e-12}) == []
    assert compare_artifacts({"n": 1.0}, {"n": 1.0 + 1e-6}) != []
    assert compare_artifacts({"a": [1, 2]}, {"a": [1, 2, 3]}) != []
    assert compare_artifacts({"created": "x"}, {"created": "y"}) == []


def test_exact_artifacts_are_deterministic():
    dyadic = Odometer([2], depth_limit=12)
    w1 = construct_minimal_z_witness(dyadic, 2)
    w2 = construct_minimal_z_witness(dyadic, 2)
    assert canonical_json(w1.to_json()) == canonical_json(w2.to_json())

    arcs = [frozenset(range(0, 7)), frozenset(list(range(6, 12)) + [0])]
    _, _, _, p1 = pou_from_group_action(12, [-1, 0, 1], arcs, 8, None)
    _, _, _, p2 = pou_from_group_action(12, [-1, 0, 1], arcs, 8, None)
    assert canonical_json(p1.to_json()) == canonical_json(p2.to_json())


def test_corpus_env_override_and_missing_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DADIM_CORPUS", str(tmp_path / "nowhere"))
    with pytest.raises(InvalidInput):
        corpus_dir()

    # a real override with an edited golden file must report a diff
    monkeypatch.delenv("DADIM_CORPUS")
    real = corpus_dir()
    work = tmp_path / "corpus"
    shutil.copytree(real, work)
    cases = json.loads((work / "cases.json").read_text())
    cases["cases"] = [c for c in cases["cases"] if c["name"] == "block_sizes_123"]
    (work / "cases.json").write_text(json.dumps(cases))
    golden = work / "blocks_123.json"
    data = json.loads(golden.read_text())
    data["sizes"] = [1, 2, 99]
    golden.write_text(json.dumps(data))
    monkeypatch.setenv("DADIM_CORPUS", str(work))
    summary = corpus_check()
    assert not summary["green"]
    assert "block_sizes_123" in summary["failures"]


def test_write_certificate_stamps_and_roundtrips(tmp_path):
    path = tmp_path / "c.json"
    obj = {"value": Fraction(1, 3), "s": {frozenset({2, 1})}, "t": (0.1, None)}
    write_certificate(path, obj)
    data = json.loads(path.read_text())
    assert data["value"] == "1/3"
    assert "created" in data
    # the file hashes as the object does: the stamp is volatile
    assert file_hash(path) == content_hash(obj)
    del data["created"]
    assert path.read_text() != json.dumps(data, sort_keys=True, indent=1) + "\n"
    write_certificate(path, obj, stamp=False)
    assert path.read_text() == json.dumps(data, sort_keys=True, indent=1) + "\n"
