"""Command-line surface: every subcommand, exit codes, chain integrity."""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dadim.cli
import dadim.nerve
from dadim.certify import corpus_dir, write_certificate
from dadim.cli import main
from dadim.coarse import MAX_TABLE_POINTS, Grid2dSpace
from dadim.errors import (
    ALL_ERRORS,
    BlowupExceeded,
    DepthExceeded,
    EquivarianceTooWeak,
    FiniteSetMismatch,
    HashMismatch,
    InvalidInput,
    MissingSample,
    NormalizationDefect,
    NotAnAction,
    OscillationExceeded,
    SeparationViolation,
    StepBoundViolation,
    StepValueOutOfRange,
    SupportViolation,
    TooLarge,
    VerificationFailed,
)
from dadim.groupoid import MAX_COMPOSABLE_TRIPLES
from dadim.symbolic import _Subshift, clopen_from_json, system_from_json
from dadim.witness import construct_minimal_z_witness
from helpers import construct_grid_witness_oracle, z2_pair_groupoid_json


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "system.json").write_text(
        json.dumps({"kind": "odometer", "base": [2], "depth_limit": 12})
    )
    (tmp_path / "space1d.json").write_text(json.dumps({"grid": {"dims": [200]}}))
    (tmp_path / "colors.json").write_text(
        json.dumps([[0, 1, 2, 3, 4, 5, 6], [6, 7, 8, 9, 10, 11, 0]])
    )
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_construct_verify_roundtrip(workdir):
    wit = workdir / "wit.json"
    assert run(["construct", "--system", workdir / "system.json", "--N", 1, "-o", wit]) == 0
    assert run(["verify", "--system", workdir / "system.json", "--witness", wit]) == 0

    data = json.loads(wit.read_text())
    data["finite_sets"][0] = [0]
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    code = run(["verify", "--system", workdir / "system.json", "--witness", bad])
    assert code == FiniteSetMismatch.exit_code


def test_construct_verify_subshift_roundtrip(workdir):
    sysfile = workdir / "fib.json"
    sysfile.write_text(json.dumps({
        "kind": "subshift", "alphabet": ["a", "b"],
        "substitution": {"a": "ab", "b": "a"}, "depth_limit": 64,
    }))
    wit = workdir / "fibwit.json"
    assert run(["construct", "--system", sysfile, "--N", 1, "-o", wit]) == 0
    assert run(["verify", "--system", sysfile, "--witness", wit]) == 0


def test_verify_subshift_color_with_infinite_component(workdir, capsys, monkeypatch):
    """A silver (a -> aab, b -> a) witness whose color 1 also takes in every
    point with an a at 0, and whose E widens to [-2, 2] so that steps jump
    the isolated b's: the a's of a point then form one infinite component.
    (Under E = [-1, 1] a color of a minimal system with an infinite
    component is the whole space, which is a BlowupExceeded.)  Under the
    default bound the word walk reaches the depth limit at once."""
    sysdata = {
        "kind": "subshift", "alphabet": ["a", "b"],
        "substitution": {"a": "aab", "b": "a"}, "depth_limit": 64,
    }
    system = system_from_json(sysdata)
    data = construct_minimal_z_witness(system, 1).to_json()
    color = clopen_from_json(system, data["colors"][1]).union(system.cylinder("a"))
    data["colors"][1] = color.to_json()
    data["E"] = [-2, -1, 0, 1, 2]
    (workdir / "silver.json").write_text(json.dumps(sysdata))
    (workdir / "tampered.json").write_text(json.dumps(data))
    groupings = _Subshift._groupings
    calls = []
    monkeypatch.setattr(
        _Subshift, "_groupings", lambda self, length: calls.append(length) or groupings(self, length)
    )
    code = run([
        "verify", "--system", workdir / "silver.json", "--witness", workdir / "tampered.json",
    ])
    # one call per expanded state: the walk expands 5 926 states, up to
    # word length 113, before a target leaves the depth limit of 64
    assert len(calls) <= 7500
    assert code == DepthExceeded.exit_code
    assert "DepthExceeded" in capsys.readouterr().err


def test_verify_blowup_exit_code(workdir):
    wit = {
        "E": [-1, 0, 1],
        "colors": [{"cylinders": [""]}],
        "finite_sets": [[0]],
        "meta": {},
    }
    bad = workdir / "whole.json"
    bad.write_text(json.dumps(wit))
    code = run([
        "verify", "--system", workdir / "system.json", "--witness", bad,
        "--blowup-bound", 50,
    ])
    assert code == BlowupExceeded.exit_code


@pytest.mark.parametrize("flag, value", [
    ("--blowup-bound", 0), ("--blowup-bound", -5), ("--size-bound", 0), ("--size-bound", -3),
])
def test_bound_flags_must_be_positive(workdir, capsys, flag, value):
    """A bound flag below 1 is refused as InvalidInput, like the file
    fields it stands beside (a witness's meta.blowup_bound)."""
    if flag == "--blowup-bound":
        wit = workdir / "wit.json"
        assert run(["construct", "--system", workdir / "system.json", "--N", 1, "-o", wit]) == 0
        argv = ["verify", "--system", workdir / "system.json", "--witness", wit]
    else:
        argv = ["pou-build", "--order", 12, "--E", -1, 0, 1, "--colors", workdir / "colors.json",
                "--N", 8, "-o", workdir / "pou.json"]
    capsys.readouterr()
    assert run(argv + [flag, value]) == InvalidInput.exit_code
    assert f"expected a positive {flag} value (a JSON integer), got {value}" in capsys.readouterr().err
    assert run(argv + [flag, 10**6]) == 0


def test_asdim_commands(workdir):
    aw = workdir / "aw.json"
    assert run(["asdim-construct", "--space", workdir / "space1d.json", "--R", 10, "-o", aw]) == 0
    assert run(["asdim-verify", "--space", workdir / "space1d.json", "--witness", aw]) == 0
    assert run(["bridge", "--space", workdir / "space1d.json", "--witness", aw]) == 0

    data = json.loads(aw.read_text())
    data["families"][0].append(data["families"][1].pop(0))
    bad = workdir / "badaw.json"
    bad.write_text(json.dumps(data))
    code = run(["asdim-verify", "--space", workdir / "space1d.json", "--witness", bad])
    assert code == SeparationViolation.exit_code

    # a class with a gap wider than R is not one K-block
    space = workdir / "space12.json"
    space.write_text(json.dumps({"grid": {"dims": [12]}}))
    gap = workdir / "gapaw.json"
    gap.write_text(json.dumps({
        "scale_R": 2, "bound_S": 11,
        "families": [[[0, 1, 2, 10, 11]], [[3, 4, 5, 6, 7, 8, 9]]],
    }))
    assert run(["asdim-verify", "--space", space, "--witness", gap]) == 0
    assert run(["bridge", "--space", space, "--witness", gap]) == VerificationFailed.exit_code


def test_asdim_commands_refuse_a_negative_scale(workdir):
    """At R = -1 two touching classes in one family used to pass
    ``asdim-verify`` (exit 0) and fail ``bridge`` (28); both now refuse the
    file (2).  At R = 0 the classes are apart, and only the bridge fails:
    a class of several points is no 0-component."""
    space = workdir / "space10.json"
    space.write_text(json.dumps({"grid": {"dims": [10]}}))
    aw = workdir / "aw.json"
    for R, codes in ((-1, [InvalidInput.exit_code] * 2), (0, [0, VerificationFailed.exit_code])):
        aw.write_text(json.dumps({
            "scale_R": R, "bound_S": 4, "families": [[[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]],
        }))
        assert [run([cmd, "--space", space, "--witness", aw])
                for cmd in ("asdim-verify", "bridge")] == codes


def test_grid_chain_bytes_at_80x80(workdir):
    """On the 80 x 80 grid at R = 5 the witness file is the text of
    ``json.dump(sort_keys=True, indent=1)``, holds the witness of the
    per-point dict construction, and bridges to the same report."""
    space = workdir / "space80.json"
    space.write_text(json.dumps({"grid": {"dims": [80, 80]}}))
    aw, oracle_aw = workdir / "aw.json", workdir / "oracle_aw.json"
    assert run(["asdim-construct", "--space", space, "--R", 5, "-o", aw]) == 0
    text = aw.read_text()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=1) + "\n"
    write_certificate(oracle_aw, construct_grid_witness_oracle(Grid2dSpace(80, 80), 5).to_json())
    bridged = []
    for witness in (aw, oracle_aw):
        out = workdir / f"bridge_{witness.stem}.json"
        assert run(["bridge", "--space", space, "--witness", witness, "-o", out]) == 0
        bridged.append(json.loads(out.read_text()))
        del bridged[-1]["created"]
    oracle = json.loads(oracle_aw.read_text())
    del parsed["created"], oracle["created"]
    assert parsed == oracle
    assert bridged[0] == bridged[1]


def test_nerve_command(workdir):
    out = workdir / "nerve.json"
    assert run(["nerve", "--denominator", 12, "-o", out]) == 0
    cert = json.loads(out.read_text())
    assert cert["separation_ok"] and cert["samples"] == 91


def test_nerve_command_custom_complex(workdir):
    cx = workdir / "square.json"
    cx.write_text(json.dumps({
        "vertices": ["p", "q", "r", "s"],
        "maximal_faces": [["p", "q"], ["q", "r"], ["r", "s"], ["s", "p"]],
    }))
    out = workdir / "nerve2.json"
    assert run(["nerve", "--complex", cx, "--denominator", 10, "-o", out]) == 0
    cert = json.loads(out.read_text())
    assert cert["separation_ok"]
    # 4 edges, 11 samples each, shared vertices deduplicated by piece count
    assert cert["samples"] == 44


def test_asdim_2d_cli(workdir):
    sp = workdir / "space2d.json"
    sp.write_text(json.dumps({"grid": {"dims": [40, 40]}}))
    aw = workdir / "aw2.json"
    assert run(["asdim-construct", "--space", sp, "--R", 2, "-o", aw]) == 0
    assert run(["asdim-verify", "--space", sp, "--witness", aw]) == 0
    assert run(["bridge", "--space", sp, "--witness", aw]) == 0


@pytest.mark.parametrize("points", [["a", 1, "b"], ["a", "c", "b"]])
def test_bridge_on_an_edge_space_of_mixed_points(workdir, points):
    """An edge-list path whose points mix strings and ints bridges as one
    of strings does: the tube seeds order a pair by the points' places in
    the space, never by comparing two points."""
    sp = workdir / "path.json"
    sp.write_text(json.dumps({"points": points, "edges": [points[:2], points[1:]]}))
    aw = workdir / "aw.json"
    aw.write_text(json.dumps({"scale_R": 1, "bound_S": 2, "families": [[points]]}))
    out = workdir / "bridged.json"
    assert run(["asdim-verify", "--space", sp, "--witness", aw]) == 0
    assert run(["bridge", "--space", sp, "--witness", aw, "-o", out]) == 0
    assert json.loads(out.read_text())["generated_sizes"] == [9]


@pytest.mark.parametrize("generators", [[[10**9]], [[10**9, 0], [0, 10**9]]])
def test_group_ball_with_long_generators(workdir, generators):
    """A radius-1 ball is 1 + 2k points however long its generators are;
    it is checked point by point, never over its bounding box."""
    sp = workdir / "ball.json"
    sp.write_text(json.dumps({"group_ball": {"generators": generators, "radius": 1}}))
    k = len(generators)
    points = [[0] * k] + [[s * c for c in g] for g in generators for s in (1, -1)]
    aw = workdir / "aw.json"
    aw.write_text(json.dumps({
        "scale_R": 1, "bound_S": 0, "families": [[[p]] for p in points],
    }))
    assert run(["asdim-verify", "--space", sp, "--witness", aw]) == 0
    assert run(["bridge", "--space", sp, "--witness", aw]) == 0


def test_pou_commands(workdir):
    pou = workdir / "pou.json"
    assert run([
        "pou-build", "--order", 12, "--E", -1, 0, 1,
        "--colors", workdir / "colors.json", "--N", 8, "-o", pou,
    ]) == 0
    assert run(["pou-verify", "--pou", pou]) == 0
    assert run(["pou-verify", "--pou", pou, "--epsilon", "2/1"]) == 0
    assert run(["pou-verify", "--pou", pou, "--epsilon", "1/1000"]) != 0
    assert run(["decompose", "--pou", pou]) == 0

    # decompose an explicit element supported in K
    elt = workdir / "elt.json"
    elt.write_text(json.dumps({
        "coeffs": [[[1, x], "1", "0"] for x in range(12)]
        + [[[11, x], "1", "0"] for x in range(12)]
    }))
    assert run(["decompose", "--pou", pou, "--element", elt]) == 0

    # tampering with a step value breaks the exact step bound
    data = json.loads(pou.read_text())
    first_color = data["pou"]["psi"][0]
    key = sorted(first_color)[0]
    first_color[key] = "1/1000"
    bad = workdir / "badpou.json"
    bad.write_text(json.dumps(data))
    assert run(["pou-verify", "--pou", bad]) != 0


def test_pou_build_from_epsilon(workdir):
    pou = workdir / "pou_eps.json"
    assert run([
        "pou-build", "--order", 12, "--E", -1, 0, 1,
        "--colors", workdir / "colors.json", "--epsilon", "1/2", "-o", pou,
    ]) == 0
    data = json.loads(pou.read_text())
    assert data["pou"]["N"] >= 3
    assert run(["pou-verify", "--pou", pou, "--epsilon", "1/2"]) == 0


@pytest.mark.parametrize("groupoid, coeffs, norm", [
    # 1 + u for the rotation u of Z/4: eigenvalues 1 + i^k, the largest 2
    ({"action": {"cyclic": 4}}, [[[g, x], "1", "0"] for g in (0, 1) for x in range(4)], 2.0),
    # Z/2 x the pair groupoid on 2 units, with isotropy: every arrow at 1
    # makes each pi_x(f) the all-ones 4 x 4 matrix
    (z2_pair_groupoid_json(2), [[a, "1", "0"] for a in range(8)], 4.0),
], ids=["free_z4", "isotropic_z2_pair"])
def test_norm_command(workdir, capsys, groupoid, coeffs, norm):
    """``dadim norm`` prints the reduced norm: by support blocks on the
    free Z/4, by one unit per orbit on the groupoid with isotropy."""
    g = workdir / "g.json"
    e = workdir / "e.json"
    g.write_text(json.dumps(groupoid))
    e.write_text(json.dumps({"coeffs": coeffs}))
    assert run(["norm", "--groupoid", g, "--element", e]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["support"] == len(coeffs)
    assert out["reduced_norm"] == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("groupoid, key", [
    ({"action": {"cyclic": 4}}, [4, 0]),
    ({"action": {"cyclic": 4}}, [1, 4]),
    ({"action": {"cyclic": 4}}, [1, 0, 0]),
    ({"action": {"cyclic": 4}}, [1]),
    ({"action": {"cyclic": 4}}, 1),
    ({"action": {"cyclic": 4}}, "ab"),
    (z2_pair_groupoid_json(2), 99),
    (z2_pair_groupoid_json(2), [0, 1]),
    # a key is a JSON integer or a list of them; all of these but
    # [1.5, 0] used to name an arrow and exit 0
    ({"action": {"cyclic": 4}}, [True, 0]),
    ({"action": {"cyclic": 4}}, [1.0, 0]),
    ({"action": {"cyclic": 4}}, [1, 0.0]),
    ({"action": {"cyclic": 4}}, [1.5, 0]),
    (z2_pair_groupoid_json(2), True),
    (z2_pair_groupoid_json(2), 1.0),
])
def test_norm_rejects_unknown_arrows(workdir, groupoid, key):
    """An element key that is not made of JSON integers, or that the
    groupoid's structure maps refuse, is an unknown arrow."""
    g = workdir / "g.json"
    e = workdir / "e.json"
    g.write_text(json.dumps(groupoid))
    e.write_text(json.dumps({"coeffs": [[key, "1", "0"]]}))
    assert run(["norm", "--groupoid", g, "--element", e]) == InvalidInput.exit_code


@pytest.mark.parametrize("second", [[1, 0], [True, 0], [1.0, 0]])
def test_norm_refuses_an_arrow_named_twice(workdir, capsys, second):
    """An element file that names one arrow twice is refused, where the
    last coefficient used to replace the first."""
    g = workdir / "g.json"
    e = workdir / "e.json"
    g.write_text(json.dumps({"action": {"cyclic": 12}}))
    e.write_text(json.dumps({"coeffs": [[[1, 0], "1", "0"], [second, "2", "0"]]}))
    assert run(["norm", "--groupoid", g, "--element", e]) == InvalidInput.exit_code
    assert capsys.readouterr().out == ""


def test_decompose_refuses_an_arrow_named_twice(workdir, capsys):
    pou = workdir / "pou.json"
    assert run([
        "pou-build", "--order", 12, "--E", -1, 0, 1,
        "--colors", workdir / "colors.json", "--N", 8, "-o", pou,
    ]) == 0
    capsys.readouterr()
    elt = workdir / "elt.json"
    elt.write_text(json.dumps({"coeffs": [[[1, 0], "1", "0"], [[1, 0], "2", "0"]]}))
    assert run(["decompose", "--pou", pou, "--element", elt]) == InvalidInput.exit_code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("repeat", ["arrow", "compose"])
def test_norm_refuses_a_repeated_arrow_id_or_compose_pair(workdir, capsys, repeat):
    """An explicit Z/2 file that names arrow id 1 twice, or repeats the
    compose row [1, 1, 0], is refused with exit 2, where the readers used
    to merge the rows and exit 0."""
    data = {
        "units": [0],
        "arrows": [{"id": 0, "s": 0, "r": 0}, {"id": 1, "s": 0, "r": 0}],
        "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "inverse": {"0": 0, "1": 1},
    }
    g = workdir / "g.json"
    e = workdir / "e.json"
    e.write_text(json.dumps({"coeffs": [[1, "1", "0"]]}))
    g.write_text(json.dumps(data))
    assert run(["norm", "--groupoid", g, "--element", e]) == 0
    if repeat == "arrow":
        data["arrows"].append({"id": 1, "s": 0, "r": 0})
    else:
        data["compose"].append([1, 1, 0])
    g.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["norm", "--groupoid", g, "--element", e]) == InvalidInput.exit_code
    assert "twice" in capsys.readouterr().err


def test_a_witness_that_names_a_key_twice_is_refused(workdir, capsys):
    """``"scale_R": 1000, "scale_R": 10`` in a coarse witness is refused
    with exit 2, where the last key used to win and the witness passed."""
    aw = workdir / "aw.json"
    assert run(["asdim-construct", "--space", workdir / "space1d.json", "--R", 10, "-o", aw]) == 0
    text = aw.read_text()
    assert text.count('"scale_R": 10') == 1
    aw.write_text(text.replace('"scale_R": 10', '"scale_R": 1000, "scale_R": 10'))
    capsys.readouterr()
    assert run(["asdim-verify", "--space", workdir / "space1d.json", "--witness", aw]) == 2
    assert "duplicate key 'scale_R'" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400", "-1e400"])
def test_an_element_coefficient_that_is_not_finite_is_refused(workdir, capsys, number):
    """A coefficient of Infinity, NaN or a literal that overflows a float
    is refused with exit 2, where it used to end in a traceback (exit 1)."""
    g = workdir / "g.json"
    e = workdir / "e.json"
    g.write_text(json.dumps({"action": {"cyclic": 4}}))
    e.write_text('{"coeffs": [[[1, 0], %s, "0"]]}' % number)
    assert run(["norm", "--groupoid", g, "--element", e]) == InvalidInput.exit_code
    assert "Traceback" not in capsys.readouterr().err


def test_norm_rejects_non_associative_groupoid(workdir):
    g = workdir / "g.json"
    e = workdir / "e.json"
    g.write_text(json.dumps(z2_pair_groupoid_json(15, corrupt=True)))
    e.write_text(json.dumps({"coeffs": [[1, "1", "0"]]}))
    assert run(["norm", "--groupoid", g, "--element", e]) == InvalidInput.exit_code == 2


def test_norm_refuses_a_groupoid_with_too_many_triples(workdir):
    """Z/2 x the pair groupoid on 20 units has 8 * 20^4 = 1 280 000
    composable triples, above the limit: the file is refused before any
    triple is checked, so its wrong composite (an associativity fault,
    exit 2 when checked) is never reached."""
    assert 8 * 20**4 > MAX_COMPOSABLE_TRIPLES
    g = workdir / "g.json"
    e = workdir / "e.json"
    g.write_text(json.dumps(z2_pair_groupoid_json(20, corrupt=True)))
    e.write_text(json.dumps({"coeffs": [[1, "1", "0"]]}))
    assert run(["norm", "--groupoid", g, "--element", e]) == TooLarge.exit_code == 14


def test_asdim_verify_refuses_an_edge_space_above_the_cap(workdir):
    n = MAX_TABLE_POINTS + 1
    space = workdir / "path.json"
    space.write_text(json.dumps({
        "points": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
    }))
    wit = workdir / "w.json"
    wit.write_text(json.dumps({"scale_R": 1, "bound_S": n, "families": [[list(range(n))]]}))
    assert run(["asdim-verify", "--space", space, "--witness", wit]) == TooLarge.exit_code == 14


def test_blr_command(workdir):
    cx = workdir / "cx.json"
    mp = workdir / "map.json"
    act = workdir / "act.json"
    n = 12
    cx.write_text(json.dumps({
        "vertices": list(range(n)),
        "maximal_faces": [[i, (i + 1) % n] for i in range(n)],
    }))
    mp.write_text(json.dumps({
        "samples": {str(x): {str(x): "3/5", str((x + 1) % n): "2/5"} for x in range(n)}
    }))
    act.write_text(json.dumps({"cyclic": n}))
    assert run([
        "blr-check", "--action", act, "--map", mp, "--complex", cx,
        "--E", 1, "--witness",
    ]) == 0


def test_blr_witness_matches_corpus_golden(workdir):
    """``blr-check --witness`` on the Z/96 ring writes the corpus case
    ``blr_ring_z96``: the same equivariance report, colors, moving set
    and verification."""
    paths = blr_files(workdir, 96)
    out = workdir / "blr.json"
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", 1, "--witness", "-o", out,
    ]) == 0
    got = json.loads(out.read_text())
    golden = json.loads((corpus_dir() / "blr_ring_z96.json").read_text())
    assert got["equivariance"] == golden["equivariance"]
    assert got["witness"] == {
        key: golden[key] for key in ("colors", "moving_set", "verification")
    }


def test_blr_witness_measures_equivariance_once(workdir, monkeypatch):
    """``blr-check --witness`` takes the map's discrepancy once and builds
    both verdicts, the printed one and the witness's, from it."""
    calls = []
    measure = dadim.nerve.check_equivariance

    def counting(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(dadim.cli, "check_equivariance", counting)
    monkeypatch.setattr(dadim.nerve, "check_equivariance", counting)
    paths = blr_files(workdir, 12)
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", 1, "--witness",
    ]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("samples, E, error", [
    ("even", 2, NotAnAction),  # closed under E, but not the points of Z/12
    ("even", 1, MissingSample),  # the sample x + 1 is missing
    ("extra", 1, NotAnAction),  # "100" is not a point of Z/12
])
def test_blr_witness_rejects_bad_sample_sets(workdir, capsys, samples, E, error):
    paths = blr_files(workdir, 12)
    data = json.loads(paths["map"].read_text())
    if samples == "even":
        data["samples"] = {x: w for x, w in data["samples"].items() if int(x) % 2 == 0}
    else:
        data["samples"]["100"] = {"0": "1"}
    paths["map"].write_text(json.dumps(data))
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", E, "--witness",
    ]) == error.exit_code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where, key", [
    ("sample", "01"), ("sample", " 2"), ("sample", "+1"), ("sample", "1.0"),
    ("vertex", "01"), ("vertex", " 2"), ("vertex", "+1"),
])
def test_blr_check_reads_keys_as_canonical_integers(workdir, capsys, where, key):
    """Sample and vertex keys are canonical decimal integers; "01", " 2"
    and "+1" are refused with exit 2, where they used to be read as 1, 2
    and 1 and to replace the weights of those samples."""
    paths = blr_files(workdir, 6)
    data = json.loads(paths["map"].read_text())
    if where == "sample":
        data["samples"][key] = {"0": "1"}
    else:
        data["samples"]["3"] = {"3": "3/5", key: "2/5"}
    paths["map"].write_text(json.dumps(data))
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", 1,
    ]) == InvalidInput.exit_code
    assert capsys.readouterr().out == ""


def test_blr_check_refuses_a_sample_named_twice(workdir, capsys):
    """On the Z/6 ring, extra keys "01" and " 2" name samples 1 and 2 a
    second time: the file is refused with exit 2 before any check (it used
    to exit 21, EquivarianceTooWeak, on the replaced weights)."""
    paths = blr_files(workdir, 6)
    data = json.loads(paths["map"].read_text())
    data["samples"]["01"] = {"0": "1"}
    data["samples"][" 2"] = {"5": "1"}
    paths["map"].write_text(json.dumps(data))
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", 1,
    ]) == InvalidInput.exit_code
    assert capsys.readouterr().out == ""


def test_blr_check_refuses_samples_outside_the_group(workdir, capsys):
    """Without --witness too, a sample outside Z/n is refused before the
    equivariance check, which would pass it over."""
    paths = blr_files(workdir, 12)
    data = json.loads(paths["map"].read_text())
    data["samples"]["100"] = dict(data["samples"]["4"])
    paths["map"].write_text(json.dumps(data))
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", 1,
    ]) == NotAnAction.exit_code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["string complex", "complex vertex 7", "map vertex 7"])
@pytest.mark.parametrize("witness", [False, True])
def test_blr_check_refuses_vertices_outside_z_n(workdir, capsys, where, witness):
    """Z/3 rotates the residues 0, 1, 2.  A complex on "a", "b", "c" (which
    ended in a TypeError traceback under --witness), a complex vertex 7 or a
    map vertex 7 (which Z/3 folded onto 1) is refused with NotAnAction."""
    paths = blr_files(workdir, 3)
    if where == "string complex":
        paths["complex"].write_text(json.dumps({
            "vertices": ["a", "b", "c"], "maximal_faces": [["a", "b"], ["b", "c"], ["c", "a"]],
        }))
    elif where == "complex vertex 7":
        data = json.loads(paths["complex"].read_text())
        data["vertices"].append(7)
        paths["complex"].write_text(json.dumps(data))
    else:
        data = json.loads(paths["map"].read_text())
        data["samples"]["1"] = {"1": "3/5", "7": "2/5"}
        paths["map"].write_text(json.dumps(data))
    assert run([
        "blr-check", "--action", paths["action"], "--map", paths["map"],
        "--complex", paths["complex"], "--E", 1,
    ] + (["--witness"] if witness else [])) == NotAnAction.exit_code
    assert capsys.readouterr().out == ""


def test_pipeline_and_tamper(workdir):
    out = workdir / "chain"
    assert run(["pipeline", "--system", workdir / "system.json", "--N", 1, "-o", out]) == 0
    assert run(["pipeline", "--check", out]) == 0

    target = out / "06_pou.json"
    data = json.loads(target.read_text())
    data["pou"]["N"] = 999
    target.write_text(json.dumps(data))
    assert run(["pipeline", "--check", out]) == HashMismatch.exit_code


@pytest.fixture(scope="module")
def stored_chain(tmp_path_factory):
    """A green dyadic chain at quotient depth 4, copied by each test."""
    root = tmp_path_factory.mktemp("stored")
    system = root / "system.json"
    system.write_text(json.dumps({"kind": "odometer", "base": [2], "depth_limit": 12}))
    assert run(["pipeline", "--system", system, "--quotient-depth", 4, "-o", root / "chain"]) == 0
    return root / "chain"


def _edit_chain(chain, edit):
    data = json.loads((chain / "chain.json").read_text())
    edit(data)
    (chain / "chain.json").write_text(json.dumps(data))


def _link_outside(chain, where):
    """Point stage 0's output, and so stage 1's input, at an identical copy
    of 01_system.json outside the chain directory: every link and recorded
    hash still matches."""
    outside = chain.parent / "outside.json"
    outside.write_bytes((chain / "01_system.json").read_bytes())
    path = str(outside) if where == "absolute" else "../outside.json"

    def edit(data):
        data["stages"][0]["output_files"].update(system=path)
        data["stages"][1]["input_files"].update(system=path)
    _edit_chain(chain, edit)


def _rewire(data):
    """Feed stage 3 the first stage's output, under that output's true hash."""
    first = data["stages"][0]
    data["stages"][3].update(inputs=first["outputs"], input_files=first["output_files"])


def _nudge_defect(chain):
    """Append a 13th significant digit to the decomposition's defect."""
    path = chain / "07_decomposition.json"
    text = path.read_text()
    value = json.loads(text)["decomposition"]["defect"]
    assert len(repr(value).lstrip("0.")) == 12
    path.write_text(text.replace(f'"defect": {value!r}', f'"defect": {value!r}4'))


def _last_failed(data):
    data["stages"][-1]["status"] = "failed"


BROKEN_CHAINS = {
    "missing_chain": (lambda c: (c / "chain.json").unlink(), InvalidInput),
    "chain_not_json": (lambda c: (c / "chain.json").write_text("{stages"), InvalidInput),
    "stage_without_input_files": (
        lambda c: _edit_chain(c, lambda d: d["stages"][2].pop("input_files")), InvalidInput,
    ),
    "deleted_artifact": (lambda c: (c / "05_towers.json").unlink(), HashMismatch),
    "artifact_not_json": (lambda c: (c / "04_enlarged.json").write_text("[1,"), HashMismatch),
    # the parsed value would keep the last "N" and hash as before
    "artifact_names_a_key_twice": (
        lambda c: (c / "06_pou.json").write_text(
            (c / "06_pou.json").read_text().replace('"N": 4', '"N": 1000, "N": 4')
        ),
        HashMismatch,
    ),
    # a float that rounds to the written one at 12 digits
    "float_edited_below_the_12th_digit": (_nudge_defect, HashMismatch),
    "absolute_artifact_path": (lambda c: _link_outside(c, "absolute"), InvalidInput),
    "artifact_path_leaves_directory": (lambda c: _link_outside(c, "relative"), InvalidInput),
    "input_rewired": (lambda c: _edit_chain(c, _rewire), InvalidInput),
    "green_despite_a_failed_stage": (lambda c: _edit_chain(c, _last_failed), InvalidInput),
    "green_flag_cleared": (lambda c: _edit_chain(c, lambda d: d.update(green=False)), InvalidInput),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CHAINS))
def test_pipeline_check_on_a_broken_chain(stored_chain, tmp_path, capsys, case):
    """pipeline --check rejects a broken chain with its error class; a path
    outside the directory is refused even when the file there matches."""
    chain = tmp_path / "case" / "chain"
    shutil.copytree(stored_chain, chain)
    assert run(["pipeline", "--check", chain]) == 0
    capsys.readouterr()
    breaks, error = BROKEN_CHAINS[case]
    breaks(chain)
    assert run(["pipeline", "--check", chain]) == error.exit_code
    assert "Traceback" not in capsys.readouterr().err


EMITTERS = {
    "bridge": lambda w: ["bridge", "--space", w / "space1d.json", "--witness", w / "aw.json"],
    "nerve": lambda w: ["nerve", "--denominator", 12],
    "blr-check": lambda w: [
        "blr-check", "--action", w / "action.json", "--map", w / "map.json",
        "--complex", w / "complex.json", "--E", 1, "--witness",
    ],
    "norm": lambda w: ["norm", "--groupoid", w / "g.json", "--element", w / "e.json"],
    "decompose": lambda w: ["decompose", "--pou", w / "pou.json"],
}


@pytest.mark.parametrize("command", sorted(EMITTERS))
def test_printed_and_written_certificates_agree(workdir, capsys, command):
    """A command's -o file is its stdout plus the creation stamp, and its
    stdout is the same with or without -o."""
    blr_files(workdir)
    (workdir / "g.json").write_text(json.dumps({"action": {"cyclic": 4}}))
    (workdir / "e.json").write_text(json.dumps({"coeffs": [[[1, x], "1", "0"] for x in range(4)]}))
    assert run(["asdim-construct", "--space", workdir / "space1d.json", "--R", 10,
                "-o", workdir / "aw.json"]) == 0
    assert run(["pou-build", "--order", 12, "--E", -1, 0, 1, "--colors", workdir / "colors.json",
                "--N", 8, "-o", workdir / "pou.json"]) == 0
    args = EMITTERS[command](workdir)
    capsys.readouterr()
    assert run(args) == 0
    printed = capsys.readouterr().out
    out = workdir / "out.json"
    assert run(args + ["-o", out]) == 0
    assert capsys.readouterr().out == printed
    text = out.read_text()
    stamp = f' "created": {json.dumps(json.loads(text)["created"])},\n'
    assert stamp in text and text.replace(stamp, "") == printed


def test_main_reuses_its_parser_without_carrying_state(workdir, monkeypatch):
    """main builds its parser once per process: no option or default of
    one call reaches the next, and a command is looked up when it runs."""
    space, aw, out = workdir / "space1d.json", workdir / "aw.json", workdir / "bridge.json"
    assert run(["asdim-construct", "--space", space, "--R", 10, "-o", aw]) == 0
    assert run(["bridge", "--space", space, "--witness", aw, "-o", out]) == 0
    out.unlink()
    before = sorted(workdir.iterdir())
    assert run(["bridge", "--space", space, "--witness", aw]) == 0
    assert sorted(workdir.iterdir()) == before

    calls = []
    monkeypatch.setattr(dadim.cli, "cmd_pipeline", lambda args: calls.append(vars(args)))
    monkeypatch.setattr(dadim.cli, "cmd_nerve", lambda args: calls.append(vars(args)))
    assert run(["pipeline", "--system", "s.json", "--N", 3, "--quotient-depth", 5,
                "--pou-depth", 2, "-o", "elsewhere", "--check", "chain"]) == 0
    assert run(["pipeline"]) == 0
    assert run(["nerve", "--denominator", 6]) == 0
    assert calls[1] == {"command": "pipeline", "system": None, "N": 1, "quotient_depth": 6,
                        "pou_depth": 4, "output": "pipeline-out", "check": None}
    assert calls[2] == {"command": "nerve", "complex": None, "denominator": 6, "output": None}


def _printed(parse, argv, capsys):
    """What parsing ``argv`` prints and the code it exits with."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", list(dadim.cli._COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(command, capsys):
    """main builds only the parser of the command it runs; its help, its
    unknown-option error (with the top-level usage line that lists every
    command) and its missing-value error are the full parser's, byte for
    byte, and exit with the same codes (0 and 2)."""
    full = dadim.cli.build_parser().parse_args
    one = dadim.cli.build_parser(command).parse_args
    assert len(dadim.cli.build_parser(command)._subparsers._group_actions[0].choices) == 1
    given = [
        a for flags, kw in dadim.cli._COMMANDS[command][1] if kw.get("required")
        for a in (flags[-1], "1")
    ]
    for tail in (["--help"], ["--no-such-option"], ["-o"], [*given, "--no-such-option"]):
        want = _printed(full, [command, *tail], capsys)
        assert _printed(one, [command, *tail], capsys) == want
        assert _printed(main, [command, *tail], capsys) == want
    code, _, err = want
    assert code == 2 and err.startswith("usage: dadim [-h]")
    assert "{" + ",".join(dadim.cli._COMMANDS) + "}" in err


def test_corpus_command():
    assert run(["corpus"]) == 0


def test_missing_file_exit_code(workdir):
    code = run(["verify", "--system", workdir / "system.json", "--witness", workdir / "nope.json"])
    assert code == 2


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "BlowupExceeded" in out and "HashMismatch" in out


def test_finite_set_mismatch_exit_code(workdir):
    wit = workdir / "wit.json"
    assert run(["construct", "--system", workdir / "system.json", "--N", 1, "-o", wit]) == 0
    data = json.loads(wit.read_text())
    data["finite_sets"][1] = data["finite_sets"][1][1:]
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    code = run(["verify", "--system", workdir / "system.json", "--witness", bad])
    assert code == FiniteSetMismatch.exit_code == 31


@pytest.mark.parametrize("change", ["drop_colors", "non_digit_word"])
def test_verify_malformed_witness_exit_code(workdir, capsys, change):
    wit = workdir / "wit.json"
    assert run(["construct", "--system", workdir / "system.json", "--N", 1, "-o", wit]) == 0
    data = json.loads(wit.read_text())
    if change == "drop_colors":
        del data["colors"]
    else:
        data["colors"][0]["cylinders"][0] = "0a1"
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    code = run(["verify", "--system", workdir / "system.json", "--witness", bad])
    assert code == InvalidInput.exit_code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("system", [
    {"kind": "odometer"},
    {"kind": "odometer", "base": ["x"]},
    {"kind": "subshift", "substitution": {"a": "ab", "b": "a"}},
    [],
])
def test_malformed_system_exit_code(workdir, system):
    sysfile = workdir / "bad_system.json"
    sysfile.write_text(json.dumps(system))
    code = run(["construct", "--system", sysfile, "--N", 1, "-o", workdir / "w.json"])
    assert code == InvalidInput.exit_code


@pytest.mark.parametrize("command", ["pou-verify", "decompose"])
@pytest.mark.parametrize("change", ["drop_order", "drop_E", "text_order"])
def test_pou_malformed_certificate_exit_code(workdir, command, change):
    pou = workdir / "pou.json"
    assert run([
        "pou-build", "--order", 12, "--E", -1, 0, 1,
        "--colors", workdir / "colors.json", "--N", 8, "-o", pou,
    ]) == 0
    data = json.loads(pou.read_text())
    if change == "drop_order":
        del data["order"]
    elif change == "drop_E":
        del data["E"]
    else:
        data["order"] = "twelve"
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    assert run([command, "--pou", bad]) == InvalidInput.exit_code


def blr_files(workdir, n=6):
    """Action, complex and map files for a valid blr-check on Z/n."""
    paths = {k: workdir / f"{k}.json" for k in ("action", "complex", "map")}
    paths["action"].write_text(json.dumps({"cyclic": n}))
    paths["complex"].write_text(json.dumps({
        "vertices": list(range(n)),
        "maximal_faces": [[i, (i + 1) % n] for i in range(n)],
    }))
    paths["map"].write_text(json.dumps({
        "samples": {str(x): {str(x): "3/5", str((x + 1) % n): "2/5"} for x in range(n)}
    }))
    return paths


def malformed_command(workdir, case):
    """A command whose one malformed input file is read by the named reader."""
    def write(name, data):
        path = workdir / name
        path.write_text(json.dumps(data))
        return path

    if case.startswith("pou_"):
        colors = workdir / "colors.json"
        build = ["pou-build", "--order", 12, "--E", -1, 0, 1, "-o", workdir / "pou.json"]
        if case == "pou_colors":
            return build + ["--colors", write("bad.json", [1, 2]), "--N", 8]
        if case == "pou_order":
            return ["pou-build", "--order", 0, "--E", 1, "--colors", colors, "--N", 8,
                    "-o", workdir / "pou.json"]
        if case in ("pou_epsilon_text", "pou_epsilon_zero"):
            eps = "abc" if case == "pou_epsilon_text" else "0"
            return build + ["--colors", colors, "--epsilon", eps]
        if case.startswith("pou_color_entry_"):
            bad = {
                "mixed": [[0, 1, 2, 3, 4, 5, 6, 99, "a", -1], [6, 7, 8, 9, 10, 11, 0]],
                "true": [[0, True, 2, 3, 4, 5, 6], [6, 7, 8, 9, 10, 11, 0]],
                "order": [[0, 1, 2, 3, 4, 5, 6, 12], [6, 7, 8, 9, 10, 11, 0]],
            }[case.rsplit("_", 1)[1]]
            return build + ["--colors", write("bad.json", bad), "--N", 8]
        assert run(build + ["--colors", colors, "--N", 8]) == 0
        if case.startswith("pou_psi_"):
            cert = json.loads((workdir / "pou.json").read_text())
            psi = cert["pou"]["psi"][0]
            key = sorted(psi)[0]
            psi[key] = {"float": float(Fraction(psi[key])), "bool": True}[case.rsplit("_", 1)[1]]
            return ["pou-verify", "--pou", write("bad.json", cert)]
        return ["pou-verify", "--pou", workdir / "pou.json", "--epsilon", "abc"]
    group = write("g.json", {"action": {"cyclic": 4}})
    element = write("e.json", {"coeffs": [[[1, 0], "1", "0"]]})
    if case == "element_empty":
        return ["norm", "--groupoid", group, "--element", write("bad.json", {})]
    if case == "element_coefficient":
        bad = write("bad.json", {"coeffs": [[[1, 0], "x", "0"]]})
        return ["norm", "--groupoid", group, "--element", bad]
    if case.startswith("element_part_"):
        part = {"float": 0.1, "bool": True, "null": None}[case.rsplit("_", 1)[1]]
        bad = write("bad.json", {"coeffs": [[[1, 0], part, "0"]]})
        return ["norm", "--groupoid", group, "--element", bad]
    if case == "groupoid_units":
        bad = write("bad.json", {"arrows": [], "compose": [], "inverse": {}})
        return ["norm", "--groupoid", bad, "--element", element]
    if case.startswith("groupoid_cyclic_order"):
        bad = write("bad.json", {"action": {"cyclic": int(case.rsplit("_", 1)[1])}})
        return ["norm", "--groupoid", bad, "--element", write("e0.json", {"coeffs": []})]
    if case == "nerve_complex":
        return ["nerve", "--complex", write("bad.json", {}), "--denominator", 4]
    blr = blr_files(workdir)
    if case in ("blr_action", "blr_order"):
        blr["action"] = write("bad.json", {"cyclic": "x" if case == "blr_action" else 0})
    elif case in ("blr_complex", "blr_map"):
        blr[case[4:]] = write("bad.json", {})
    elif case == "blr_float_weight":
        samples = json.loads(blr["map"].read_text())["samples"]
        samples["0"] = {"0": 0.5, "1": "1/2"}  # 0.5 is binary-exact, so the sum is 1
        blr["map"] = write("bad.json", {"samples": samples})
    if case.startswith("blr_"):
        return [
            "blr-check", "--action", blr["action"], "--map", blr["map"],
            "--complex", blr["complex"], "--E", 1, "--witness",
        ] + (["--epsilon", "abc"] if case == "blr_epsilon" else [])
    if case == "grid_dims":
        return ["asdim-construct", "--space", write("bad.json", {"grid": {}}),
                "--R", 10, "-o", workdir / "aw.json"]
    aw = workdir / "aw.json"
    assert run(["asdim-construct", "--space", workdir / "space1d.json", "--R", 10, "-o", aw]) == 0
    if case in ("space_dims", "space_group_ball"):
        bad = write("bad.json", {"grid": {}} if case == "space_dims" else {"group_ball": {}})
        return ["asdim-verify", "--space", bad, "--witness", aw]
    data = json.loads(aw.read_text())
    del data["scale_R"]
    command = case.split("_")[1]
    return [command, "--space", workdir / "space1d.json", "--witness", write("bad.json", data)]


@pytest.mark.parametrize("case", [
    "element_empty", "element_coefficient", "groupoid_units", "groupoid_cyclic_order_0",
    "groupoid_cyclic_order_-3", "nerve_complex",
    "blr_complex", "blr_map", "blr_action", "blr_order", "grid_dims", "space_dims",
    "space_group_ball", "witness_asdim-verify", "witness_bridge", "blr_epsilon",
    "pou_colors", "pou_order", "pou_epsilon_text", "pou_epsilon_zero", "pou_verify_epsilon",
    "element_part_float", "element_part_bool", "element_part_null", "blr_float_weight",
    "pou_color_entry_mixed", "pou_color_entry_true", "pou_color_entry_order",
    "pou_psi_float", "pou_psi_bool",
])
def test_malformed_input_exit_code(workdir, capsys, case):
    code = run(malformed_command(workdir, case))
    assert code == InvalidInput.exit_code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("tamper, error", [
    ("support", SupportViolation),
    ("normalization", NormalizationDefect),
    ("normalization_empty_E", NormalizationDefect),
    ("step", StepBoundViolation),
    ("epsilon", OscillationExceeded),
    ("range", StepValueOutOfRange),
])
def test_pou_verify_rejection_exit_codes(workdir, tamper, error):
    """Each rejection of pou-verify exits with its own code."""
    pou = workdir / "pou.json"
    assert run([
        "pou-build", "--order", 12, "--E", -1, 0, 1,
        "--colors", workdir / "colors.json", "--N", 8, "-o", pou,
    ]) == 0
    data = json.loads(pou.read_text())
    psi, levels = data["pou"]["psi"], data["pou"]["tower_levels"]
    if tamper == "support":
        # a unit where phi_0 is positive leaves the top level of its tower
        levels[0][-1].remove(sorted(psi[0])[0])
    elif tamper.startswith("normalization"):
        # no step function is left at unit 3; an empty E still leaves the
        # unit arrows in K, so every unit is checked
        for p in psi:
            p.pop("3", None)
        if tamper == "normalization_empty_E":
            data["E"] = []
    elif tamper == "step":
        psi[0][sorted(psi[0])[0]] = "1/1000"
    elif tamper == "range":
        # psi_0 = 2 and psi_1 = -1 on all of Z/12: sum psi_i^2 = S and no
        # oscillation, but phi_1 = -1/sqrt(5) < 0
        data["pou"]["psi"] = [{str(x): v for x in range(12)} for v in ("2", "-1")]
        levels[0][-1] = [str(x) for x in range(12)]
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    extra = ["--epsilon", "1/1000"] if tamper == "epsilon" else []
    assert run(["pou-verify", "--pou", bad] + extra) == error.exit_code


def test_decompose_verifies_the_partition_of_unity(workdir, capsys):
    """ψ_0 = 2 at unit 3 of a Z/12 certificate is out of range: decompose
    exits with pou-verify's code and prints nothing, where it used to print
    an accepted decomposition and exit 0."""
    pou = workdir / "pou.json"
    assert run([
        "pou-build", "--order", 12, "--E", -1, 0, 1,
        "--colors", workdir / "colors.json", "--N", 8, "-o", pou,
    ]) == 0
    data = json.loads(pou.read_text())
    data["pou"]["psi"][0]["3"] = "2"
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(data))
    elt = workdir / "elt.json"
    elt.write_text(json.dumps({"coeffs": [[[1, x], "1", "0"] for x in range(12)]}))
    capsys.readouterr()
    assert run(["pou-verify", "--pou", bad]) == StepValueOutOfRange.exit_code
    capsys.readouterr()
    for extra in ([], ["--element", elt]):
        assert run(["decompose", "--pou", bad] + extra) == StepValueOutOfRange.exit_code
        assert capsys.readouterr().out == ""


def test_exit_codes_are_distinct():
    codes = [cls.exit_code for cls in ALL_ERRORS]
    assert len(set(codes)) == len(codes) and not {0, 1} & set(codes)


def test_closed_stdout_ends_quietly(workdir):
    """A reader that has closed the pipe before the report is written, as
    ``| head -1`` may, ends the command with exit 1 and no traceback."""
    wit = workdir / "wit.json"
    assert run(["construct", "--system", workdir / "system.json", "--N", 1, "-o", wit]) == 0
    src = str(Path(dadim.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dadim.cli", "verify",
             "--system", workdir / "system.json", "--witness", wit],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_decompose_and_diameters_leave_numpy_ma_unimported(tmp_path):
    """``numpy.ma`` is imported lazily by ``np.unique`` and costs 11-15 ms
    on first use; a group-ball diameter and ``dadim decompose`` on the z12
    corpus certificate, run in one fresh interpreter, never import it."""
    golden = json.loads((corpus_dir() / "z12_pou_n16.json").read_text())
    cert = tmp_path / "pou.json"
    cert.write_text(json.dumps({"order": 12, "E": [-1, 0, 1], "pou": golden["pou"]}))
    src = str(Path(dadim.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from dadim.cli import main\n"
        "from dadim.coarse import GroupBallSpace\n"
        "X = GroupBallSpace([[1, 0], [0, 1], [1, 1]], 3)\n"
        "assert X.subset_diameter(X.points) == 6\n"
        f"assert main(['decompose', '--pou', {str(cert)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stderr) == (0, "False\n")


def test_commands_import_nothing_that_the_cli_import_did_not(workdir):
    """A module that a command imports on first use is a cold cost that
    every CLI process pays.  In one fresh interpreter, after ``import
    dadim.cli``, each command below runs on small inputs (a 2-D witness
    with its classes' rows shuffled among them, so that the reader sorts)
    and exits 0, and none imports a module that was not loaded already,
    except ``locale`` and ``_locale``, which argparse's gettext reads."""
    w = workdir
    blr_files(w)
    assert run(["pou-build", "--order", 12, "--E", -1, 0, 1, "--colors", w / "colors.json",
                "--N", 8, "-o", w / "pou.json"]) == 0
    (w / "space2d.json").write_text(json.dumps({"grid": {"dims": [12, 9]}}))
    assert run(["asdim-construct", "--space", w / "space2d.json", "--R", 1, "-o", w / "aw2.json"]) == 0
    data = json.loads((w / "aw2.json").read_text())
    for fam in data["families"]:
        for cls in fam:
            cls.reverse()
    (w / "aw2.json").write_text(json.dumps(data))
    commands = [
        ["construct", "--system", w / "system.json", "--N", 1, "-o", w / "wit.json"],
        ["verify", "--system", w / "system.json", "--witness", w / "wit.json"],
        ["asdim-construct", "--space", w / "space1d.json", "--R", 10, "-o", w / "aw.json"],
        ["asdim-verify", "--space", w / "space1d.json", "--witness", w / "aw.json"],
        ["asdim-verify", "--space", w / "space2d.json", "--witness", w / "aw2.json"],
        ["bridge", "--space", w / "space1d.json", "--witness", w / "aw.json"],
        ["bridge", "--space", w / "space2d.json", "--witness", w / "aw2.json"],
        ["nerve", "--denominator", 12],
        ["blr-check", "--action", w / "action.json", "--map", w / "map.json",
         "--complex", w / "complex.json", "--E", 1, "--witness"],
        ["pou-verify", "--pou", w / "pou.json"],
        ["decompose", "--pou", w / "pou.json"],
        ["pipeline", "--system", w / "system.json", "--quotient-depth", 4, "-o", w / "chain"],
        ["pipeline", "--check", w / "chain"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import dadim.cli\n"
        "loaded = set(sys.modules) | {'locale', '_locale'}\n"
        "late = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        exit_code = dadim.cli.main(argv)\n"
        "    late.append([argv[0], exit_code, sorted(set(sys.modules) - loaded)])\n"
        "print(json.dumps(late))\n"
    )
    src = str(Path(dadim.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = json.dumps([[str(a) for a in c] for c in commands])
    proc = subprocess.run(
        [sys.executable, "-c", code, argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=w,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [[c[0], 0, []] for c in commands]


# ---------------------------------------------------------------------------
# no input file ends in a traceback

FIELD_VALUES = [None, 0, -1, 1.5, True, "x", "1/0", [], {}, [[]]]


def _fields(data, path=()):
    """Paths to every field of ``data``: each value of a dict, and the first
    element of each list."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data[:1])
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _reader_commands(w):
    """One valid file per reader, and the commands that read it: each
    command names its files as "@<reader>", and its other files are valid."""
    blr = blr_files(w, 6)
    files = {
        "system": {"kind": "odometer", "base": [2], "depth_limit": 12},
        "space": {"grid": {"dims": [12]}},
        "ball": {"group_ball": {"generators": [[1, 0], [0, 1]], "radius": 2}},
        "edges": {"points": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
        "colors": [[0, 1, 2, 3], [3, 4, 5, 0]],
        "action": json.loads(blr["action"].read_text()),
        "map": json.loads(blr["map"].read_text()),
        "complex": json.loads(blr["complex"].read_text()),
        "groupoid": z2_pair_groupoid_json(1),
        "element": {"coeffs": [[1, "1", "0"]]},
        "cyclic": {"action": {"cyclic": 4}},
        "arrow": {"coeffs": [[[1, 0], "1/2", "0"]]},
    }
    for name, data in files.items():
        (w / f"{name}.json").write_text(json.dumps(data))
    for built in (
        ["construct", "--system", w / "system.json", "--N", 1, "-o", w / "witness.json"],
        ["asdim-construct", "--space", w / "space.json", "--R", 1, "-o", w / "aw.json"],
        ["pou-build", "--order", 6, "--E", -1, 0, 1, "--colors", w / "colors.json",
         "--N", 3, "-o", w / "pou.json"],
    ):
        assert run(built) == 0
    for name in ("witness", "aw", "pou"):
        files[name] = json.loads((w / f"{name}.json").read_text())
    blr_check = ["blr-check", "--action", "@action", "--map", "@map",
                 "--complex", "@complex", "--E", 1]
    commands = [
        ["construct", "--system", "@system", "--N", 1, "-o", w / "out.json"],
        ["verify", "--system", "@system", "--witness", "@witness"],
        ["asdim-construct", "--space", "@space", "--R", 1, "-o", w / "out.json"],
        ["asdim-verify", "--space", "@space", "--witness", "@aw"],
        ["asdim-verify", "--space", "@ball", "--witness", "@aw"],
        ["asdim-verify", "--space", "@edges", "--witness", "@aw"],
        ["bridge", "--space", "@space", "--witness", "@aw"],
        ["nerve", "--complex", "@complex", "--denominator", 3],
        ["pou-build", "--order", 6, "--E", 1, "--colors", "@colors", "--N", 3,
         "-o", w / "out.json"],
        ["pou-verify", "--pou", "@pou"],
        ["decompose", "--pou", "@pou"],
        blr_check,
        blr_check + ["--witness"],
        ["norm", "--groupoid", "@groupoid", "--element", "@element"],
        ["norm", "--groupoid", "@cyclic", "--element", "@arrow"],
    ]
    return files, commands


def _escape(argv):
    """What escapes ``main``: an exception, or a code no error class has."""
    try:
        code = run(argv)
    except Exception as exc:  # noqa: BLE001 - the escape is the finding
        return repr(exc)
    if code not in {0} | {cls.exit_code for cls in ALL_ERRORS}:
        return f"exit {code}"
    return None


BROKEN_FILES = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not UTF-8": lambda path: path.write_bytes(b'{"kind": "\xff"}'),
    "not JSON": lambda path: path.write_text("{kind"),
    "null": lambda path: path.write_text("null"),
    "list": lambda path: path.write_text("[1]"),
    "number": lambda path: path.write_text("7"),
}


FIBONACCI = {"kind": "subshift", "alphabet": ["a", "b"],
             "substitution": {"a": "ab", "b": "a"}, "depth_limit": 64}


def test_malformed_files_never_escape(workdir, capsys, monkeypatch):
    """Every reader, given one field replaced by a value of the wrong kind,
    or a file that is missing, a directory, not UTF-8, not JSON or not an
    object, exits 0 or with an error class's code: nothing escapes as a
    traceback.  So does ``pipeline`` with neither --system nor --check.
    An integer field given a float or a numeric string exits 2, and a
    positive one given a bool, zero or a negative number too."""
    monkeypatch.chdir(workdir)
    files, commands = _reader_commands(workdir)
    bad = workdir / "bad.json"

    escapes = []

    def argv(command, slot):
        """``command`` with the bad file at ``slot`` and valid files elsewhere."""
        return [bad if a == slot else workdir / f"{a[1:]}.json" if str(a).startswith("@") else a
                for a in command]

    def check(command, slot, case):
        """Run ``command`` with the bad file at ``slot``; record an escape."""
        found = _escape(argv(command, slot))
        if found is not None:
            escapes.append((command[0], slot, case, found))

    for command in commands:
        for slot in (a for a in command if str(a).startswith("@")):
            data = files[slot[1:]]
            for path in _fields(data):
                for value in FIELD_VALUES:
                    bad.write_text(json.dumps(_replaced(data, path, value)))
                    check(command, slot, (path, value))
            for kind, make in BROKEN_FILES.items():
                shutil.rmtree(bad, ignore_errors=True)
                bad.unlink(missing_ok=True)
                make(bad)
                check(command, slot, kind)
            shutil.rmtree(bad, ignore_errors=True)
    found = _escape(["pipeline"])

    files["subshift"] = FIBONACCI
    files["subwitness"] = construct_minimal_z_witness(system_from_json(FIBONACCI), 1).to_json()
    for name in ("subshift", "subwitness"):
        (workdir / f"{name}.json").write_text(json.dumps(files[name]))
    verify = ["verify", "--system", "@system", "--witness", "@witness"]
    integer_fields = [
        (verify, "@system", ("depth_limit",)),
        (verify, "@system", ("base", 0)),
        (verify, "@witness", ("E", 0)),
        (verify, "@witness", ("finite_sets", 0, 0)),
        (["verify", "--system", "@subshift", "--witness", "@subwitness"], "@subwitness",
         ("colors", 0, "left")),
        (["asdim-verify", "--space", "@space", "--witness", "@aw"], "@aw", ("scale_R",)),
        (["asdim-verify", "--space", "@space", "--witness", "@aw"], "@aw", ("bound_S",)),
        (["pou-verify", "--pou", "@pou"], "@pou", ("E", 0)),
        (["asdim-verify", "--space", "@ball", "--witness", "@aw"], "@ball",
         ("group_ball", "radius")),
        (["asdim-verify", "--space", "@ball", "--witness", "@aw"], "@ball",
         ("group_ball", "generators", 0, 0)),
    ]
    # positive integers: also refused as a bool, zero or negative
    positive_fields = [
        (["asdim-construct", "--space", "@space", "--R", 1, "-o", workdir / "out.json"],
         "@space", ("grid", "dims", 0)),
        (["asdim-verify", "--space", "@space", "--witness", "@aw"], "@space",
         ("grid", "dims", 0)),
        (verify, "@witness", ("meta", "blowup_bound")),
    ]
    not_refused = []
    for fields, values in ((integer_fields, (1.5, "1", 2.5, "2")),
                           (positive_fields, (1.5, "1", 2.5, "2", True, 0, -5))):
        for command, slot, path in fields:
            for value in values:
                bad.write_text(json.dumps(_replaced(files[slot[1:]], path, value)))
                code = run(argv(command, slot))
                if code != InvalidInput.exit_code:
                    not_refused.append((command[0], path, value, code))
    capsys.readouterr()
    assert (escapes, found, not_refused) == ([], None, [])
