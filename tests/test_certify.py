"""Canonical serialization, hashing, determinism, and corpus plumbing."""

import json
import math
import shutil
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadim import certify
from dadim.certify import (
    CertificateChain,
    canonical_json,
    compare_artifacts,
    corpus_dir,
    file_hash,
    rational_str,
    write_certificate,
)
from dadim.errors import HashMismatch, InvalidInput
from dadim.pipeline import corpus_check
from dadim.pou import pou_from_group_action
from dadim.symbolic import Odometer
from dadim.witness import construct_minimal_z_witness
from helpers import content_hash


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
    assert compare_artifacts({"a": [(1, 2)]}, {"a": [[1, 2]]}) == []
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


def _rounding_edge(digits, exponent, step):
    """A float at, or one ulp beside, a tie of the 12-digit rounding."""
    x = float(f"{digits}5e{exponent}")
    return x if step == 0 else math.nextafter(x, step * math.inf)


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(_rounding_edge, st.integers(10**11, 10**12 - 1),
              st.integers(-330, 300), st.sampled_from([-1, 0, 1])),
)
HASHABLE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), FLOATS,
    st.fractions(),
)
# volatile keys at any depth, and keys that only contain one
KEYS = st.one_of(
    st.text(max_size=3), st.integers(-5, 5),
    st.sampled_from(["created", "timestamp", "elapsed_seconds", 'x"created', "created:"]),
)
PAYLOADS = st.recursive(
    HASHABLE,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(HASHABLE, max_size=4),
        st.sets(st.frozensets(st.integers(-3, 3), max_size=3), max_size=3),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(payload=st.one_of(PAYLOADS, st.dictionaries(KEYS, PAYLOADS, max_size=4)),
       stamp=st.booleans())
def test_written_data_hashes_as_read_back(tmp_path_factory, payload, stamp):
    """The data write_certificate returns hashes as file_hash of what it
    wrote: the read-back JSON, not normalized again, hashes as the written
    data does, and the stamp and every other volatile key are left out of
    both."""
    path = tmp_path_factory.getbasetemp() / "hash_read_back.json"
    written = write_certificate(path, payload, stamp)
    assert certify._digest(written) == file_hash(path) == content_hash(payload)


def test_a_float_edited_below_the_12th_digit_breaks_the_hash(tmp_path):
    """file_hash reads an artifact's data as written, without rounding its
    floats to 12 digits again, so an edit below the 12th significant digit
    is a HashMismatch."""
    chain = CertificateChain(tmp_path)
    chain.add_stage("decomposition", "decomposition", "07_decomposition.json",
                    {"decomposition": {"defect": 0.0249273399711}}, "verified")
    chain.write()
    assert CertificateChain.verify_directory(tmp_path)["green"]
    path = tmp_path / "07_decomposition.json"
    text = path.read_text()
    assert '"defect": 0.0249273399711' in text
    path.write_text(text.replace("0.0249273399711", "0.02492733997114"))
    with pytest.raises(HashMismatch):
        CertificateChain.verify_directory(tmp_path)


def _normalize_oracle(obj):
    """One call per value, leaves included: the normalization that
    ``certify._normalize`` computes with fewer calls."""
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _normalize_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_oracle(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_normalize_oracle(v) for v in obj), key=json.dumps)
    raise InvalidInput(f"cannot serialize {type(obj).__name__}")


@settings(max_examples=300, deadline=None)
@given(payload=PAYLOADS)
@example(payload=((1, 2), (3, -4), (2**70, 0)))
@example(payload=[(1, 2), [3]])
@example(payload=[[1, 2], [True, 3]])
@example(payload=((1,), (False,)))
@example(payload=[[1], [], [2]])
@example(payload=[[1], [2.5]])
def test_normalize_matches_the_per_leaf_oracle(payload):
    # repr tells lists from tuples and shows nan, which == would not match
    assert repr(_as_lists(certify._normalize(payload))) == repr(_normalize_oracle(payload))


def _as_lists(data, in_rows=False):
    """Normalized data with each tuple made a list.  The one tuple the
    normalizer may leave is a row of ints in a list of such rows."""
    if isinstance(data, dict):
        return {k: _as_lists(v) for k, v in data.items()}
    if isinstance(data, list):
        rows = bool(data) and all(
            type(r) in (list, tuple) and r and {type(x) for x in r} == {int} for r in data
        )
        return [_as_lists(v, rows) for v in data]
    if isinstance(data, tuple):
        assert in_rows, data
        return list(data)
    return data


def test_int_rows_pass_through_uncopied():
    """A list of int rows is normalized to itself, and a tuple of them to a
    list of the same row objects."""
    rows = [(1, 2), [3, -4], (2**70, 0)]
    assert certify._normalize({"rows": rows})["rows"] is rows
    out = certify._normalize(tuple(rows))
    assert type(out) is list and all(a is b for a, b in zip(out, rows))


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63, max_value=2**200),
    FLOATS, st.text(max_size=6),
)
# normalized trees: str keys, lists, and rows of ints that the emitter
# joins in one step next to rows it must not (bools are ints to isinstance);
# the examples add lists of more rows than one piece holds, and rows that
# are tuples, as the normalizer passes them through
NORMALIZED = st.recursive(
    st.one_of(
        SCALARS,
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=5),
        st.lists(st.booleans(), max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=30,
)


# more int rows than the emitter encodes in one piece
MANY_ROWS = [[i, -i, 2**64 + i][: 1 + i % 3] for i in range(2 * certify._BATCH + 7)]


@settings(max_examples=500, deadline=None)
@given(data=NORMALIZED)
@example(data={"é\x00\x1f \U0001f600\ud800": [[], {}, [1, True], [-(2**80), 0]]})
@example(data=[math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
@example(data=MANY_ROWS)
@example(data={"rows": MANY_ROWS, "x": [[1]]})
@example(data=[[{"a": [MANY_ROWS, [[0, 1]]]}]])
@example(data=[[1, 2], [True, 3], [4]])
@example(data=[[1, 2], [False], [4]])
@example(data=[[1, 2], [], [4]])
@example(data=[[1, 2], [3.0], [4]])
@example(data=[[1, 2], [3], ["]],\n  ["]])
@example(data=[(i, -i, 2**64) for i in range(2 * certify._BATCH + 7)])
@example(data={"rows": [(1, 2**70)] * certify._BATCH, "x": [[(0,), (-1,)]]})
def test_indented_text_is_json_dump_indent_1(data):
    """``json.dumps(sort_keys=True, indent=1)`` is the oracle of the
    certificate emitter."""
    assert "".join(certify._indented(data)) == json.dumps(data, sort_keys=True, indent=1)


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_int_rows_are_emitted_a_batch_at_a_time(depth):
    """A list of int rows is written in pieces of at most ``_BATCH`` rows:
    a piece holds one opening bracket per row, and the first also the
    list's own."""
    data = MANY_ROWS
    for _ in range(depth):
        data = [data]
    pieces = list(certify._indented(data))
    assert "".join(pieces) == json.dumps(data, sort_keys=True, indent=1)
    assert max(p.count("[") for p in pieces) <= certify._BATCH + 1
    assert len(pieces) > len(MANY_ROWS) // certify._BATCH


@pytest.mark.parametrize(
    "golden", sorted(p.name for p in corpus_dir().glob("*.json") if p.name != "cases.json")
)
def test_corpus_golden_rewrites_to_the_same_bytes(tmp_path, golden):
    """Every golden is write_certificate output without a stamp (cases.json
    is written by hand), so writing what it holds gives it back byte for
    byte."""
    src = corpus_dir() / golden
    write_certificate(tmp_path / golden, json.loads(src.read_text()), stamp=False)
    assert (tmp_path / golden).read_bytes() == src.read_bytes()
