"""Cover enlargement, nested towers, and the squared partition of unity."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadim.certify import corpus_dir
from dadim.cli import main
from dadim.errors import (
    ALL_ERRORS,
    InvalidInput,
    PropagationEscapesColor,
    TowerInvalid,
    WitnessInsufficient,
)
from dadim.exactmath import (
    diff_lt_osc_bound,
    diff_lt_rational,
    least_pou_depth,
    osc_bound_float,
    sqrt_pair_float,
)
from dadim.groupoid import (
    block_union_pair_groupoid,
    cyclic_rotation_groupoid,
    generate_subgroupoid,
)
from dadim.pou import (
    PartitionOfUnity,
    _envelope_holds,
    _Moves,
    build_pou,
    build_tower,
    enlarge_cover,
    pou_from_group_action,
    verify_pou,
)
from helpers import (
    action_groupoid_oracle,
    arrow_set_power,
    as_set_pou,
    block_labels,
    build_pou_oracle,
    build_tower_oracle,
    cyclic_group,
    enlarge_cover_oracle,
    holds,
    phi_pair,
    seed_in_color,
    set_towers,
    symmetrize_arrows,
    unit_sets,
    verify_pou_oracle,
)

F = Fraction


@pytest.fixture(scope="module")
def z12():
    G = cyclic_rotation_groupoid(12)
    K = G.moves([11, 0, 1])
    arcs = [frozenset(range(0, 7)), frozenset(list(range(6, 12)) + [0])]
    return G, K, arcs


def test_enlarge_units_only_keeps_colors():
    G = cyclic_rotation_groupoid(6)
    K = frozenset((0, x) for x in range(6))  # unit arrows only
    colors = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    enlarged, report = enlarge_cover(G, K, colors, size_bound=100)
    assert unit_sets(enlarged) == colors  # partial orbits are singletons


def test_enlarge_z12_contains_partial_orbits(z12):
    G, K, arcs = z12
    enlarged, report = enlarge_cover(G, K, arcs, size_bound=2000)
    for x in range(12):
        orbit = {G.source(a) for a in K if G.range(a) == x}
        assert len(orbit) == 3
        assert any(orbit <= u for u in unit_sets(enlarged))


def test_enlarge_insufficient_for_k3(z12):
    G, K, arcs = z12
    with pytest.raises(WitnessInsufficient):
        enlarge_cover(G, K, arcs, size_bound=30)


def test_tower_units_only_is_constant():
    G = cyclic_rotation_groupoid(6)
    K = frozenset((0, x) for x in range(6))
    colors = [frozenset(range(6))]
    towers = build_tower(G, K, colors, 4, size_bound=100)
    assert towers[0].levels.shape == (6, 6) and towers[0].levels.all()


def test_tower_growth_and_propagation(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=2000)
    towers = build_tower(G, K, enlarged, 4, size_bound=None)
    for t in set_towers(towers):
        for n in range(len(t.levels) - 1):
            lvl, nxt = t.levels[n], t.levels[n + 1]
            assert lvl <= nxt
            moved = {G.source(a) for a in K if G.range(a) in lvl}
            assert moved <= nxt
        # arcs grow by one unit per side per level until saturation
        assert len(t.levels[1]) == min(12, len(t.levels[0]) + 2)


def test_tower_escape_guard(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=2000)
    with pytest.raises(PropagationEscapesColor):
        build_tower(G, K, enlarged, 8, size_bound=100)


def test_tower_needs_cover():
    G = cyclic_rotation_groupoid(6)
    K = G.moves([1])
    with pytest.raises(TowerInvalid):
        build_tower(G, K, [frozenset({0, 1})], 3, None)


def test_single_color_constant_pou():
    G = cyclic_rotation_groupoid(6)
    K = G.moves([1])
    towers = build_tower(G, K, [frozenset(range(6))], 3, None)
    pou = build_pou(G, K, towers)
    report = verify_pou(G, K, pou, eps=F(1, 1000))
    assert report.accepted
    assert report.details["max_oscillation_float"] == 0.0
    assert all(phi_pair(pou, 0, x) == (1, 1) for x in range(6))


@pytest.mark.parametrize("N", [4, 16, 64])
def test_z12_pou_bounds(z12, N):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=2000)
    towers = build_tower(G, K, enlarged, N, size_bound=None)
    pou = build_pou(G, K, towers)
    report = verify_pou(G, K, pou)  # exact squared comparison to the depth bound
    assert report.accepted
    assert report.details["max_oscillation_float"] < osc_bound_float(1, N)

    # psi-step bound and normalizer lower bound, exhaustively and exactly
    pou = as_set_pou(pou)
    for a in K:
        for i in range(2):
            step = abs(
                pou.psi[i].get(G.source(a), F(0)) - pou.psi[i].get(G.range(a), F(0))
            )
            assert step <= F(2, N)
    for x in range(12):
        assert sum((p.get(x, F(0)) for p in pou.psi), F(0)) >= 1
        total = sum((p.get(x, F(0)) ** 2 for p in pou.psi), F(0))
        assert total / pou.norm_sq[x] == 1


def test_constant_overlap_normalization():
    # two identical colors: phi_i = 1/sqrt(2) each, oscillation 0
    G = cyclic_rotation_groupoid(4)
    K = G.moves([1])
    whole = frozenset(range(4))
    towers = build_tower(G, K, [whole, whole], 3, None)
    pou = build_pou(G, K, towers)
    report = verify_pou(G, K, pou, eps=F(1, 10**6))
    assert report.accepted
    p, S = phi_pair(pou, 0, 0)
    assert (p, S) == (1, 2)  # 1/sqrt(2)


def test_support_violation_detected(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=2000)
    towers = build_tower(G, K, enlarged, 4, None)
    pou = build_pou(G, K, towers)
    # clip the declared color so a positive value leaks outside it
    top = pou.towers[0].top
    top[np.flatnonzero(top)[3:]] = False
    report = verify_pou(G, K, pou)
    assert not report.accepted and report.code == "SupportViolation"


def test_values_outside_the_unit_interval_rejected():
    """psi_0 = 2 and psi_1 = -1 everywhere pass normalization (4 + 1 = S)
    and have no oscillation, but phi_1 = -1/sqrt(5) is no partition of
    unity into [0, 1]."""
    G, K, towers, pou = pou_from_group_action(
        12, [0, 1, 11],
        [frozenset(range(12)), frozenset(range(6, 12)) | {0}], 4, None,
    )
    data = pou.to_json()
    data["psi"] = [{str(x): v for x in range(12)} for v in ("2", "-1")]
    tampered = PartitionOfUnity.from_json(G, K, data)
    report = verify_pou(G, K, tampered)
    assert not report.accepted and report.code == "StepValueOutOfRange"
    assert report.details == {"color": 0, "unit": "0", "value": "2"}
    data["psi"][0] = {str(x): "1" for x in range(12)}
    report = verify_pou(G, K, PartitionOfUnity.from_json(G, K, data))
    assert report.code == "StepValueOutOfRange" and report.details["value"] == "-1"


@pytest.fixture(scope="module")
def built_pous():
    """Certificates of two- and three-color partitions of unity on Z/12
    and Z/16, by averaging depth."""
    out = []
    for q, arcs in [
        (12, [range(0, 7), [*range(6, 12), 0]]),
        (16, [range(0, 7), range(5, 12), [*range(10, 16), 0, 1]]),
    ]:
        for N in (3, 8):
            G, K, _, pou = pou_from_group_action(q, [-1, 0, 1], list(map(frozenset, arcs)), N, None)
            out.append((G, K, pou.to_json()))
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verify_pou_memo_matches_arrow_loop(built_pous, data):
    """Checks decided once per distinct pair of endpoint values against the
    per-(arrow, color) loop, on tampered certificates: the same report,
    first violation and max_oscillation_float included."""
    G, K, cert = data.draw(st.sampled_from(built_pous))
    cert = json.loads(json.dumps(cert))
    value = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=16)
    for _ in range(data.draw(st.integers(0, 3))):
        psi = cert["psi"][data.draw(st.integers(0, len(cert["psi"]) - 1))]
        unit = str(data.draw(st.integers(0, len(G.units) - 1)))
        if data.draw(st.booleans()):
            psi.pop(unit, None)
        else:
            psi[unit] = str(data.draw(value))
    if data.draw(st.integers(0, 4)) == 0:
        top = data.draw(st.sampled_from(cert["tower_levels"]))[-1]
        top.remove(data.draw(st.sampled_from(top)))
    cert["N"] = data.draw(st.sampled_from([cert["N"], 3, 4, 16, 64]))
    pou = PartitionOfUnity.from_json(G, K, cert)
    eps = data.draw(st.one_of(st.none(), st.fractions(min_value=F(1, 100), max_value=1)))
    want = verify_pou_oracle(G, K, as_set_pou(pou), eps)
    assert verify_pou(G, K, pou, eps).to_json() == want.to_json()


def _outcome(fn, *args):
    """("ok", result) or ("raise", error class, message)."""
    try:
        return ("ok", fn(*args))
    except (InvalidInput, PropagationEscapesColor, TowerInvalid, WitnessInsufficient) as exc:
        return ("raise", type(exc), str(exc))


def _stages_against_oracles(G, K, K_raw, colors, bound, N, eps):
    """Each array stage on K = moves(E) against the set oracle that
    symmetrizes the raw E-arrows itself and rescans them: the same
    enlarged colors and report, tower levels, psi and norm_sq, and
    verify_pou report, or the same error."""
    enlarged = _outcome(enlarge_cover, G, K, colors, bound)
    want = _outcome(enlarge_cover_oracle, G, K_raw, colors, bound)
    if enlarged[0] == "ok":
        assert want[0] == "ok" and unit_sets(enlarged[1][0]) == want[1][0]
        assert enlarged[1][1].to_json() == want[1][1].to_json()
        colors = want[1][0]
    else:
        assert enlarged == want

    towers = _outcome(build_tower, G, K, colors, N, bound)
    want = _outcome(build_tower_oracle, G, K_raw, colors, N, bound)
    if towers[0] != "ok":
        assert towers == want
        return
    assert [t.levels for t in set_towers(towers[1])] == [t.levels for t in want[1]]

    pou = _outcome(build_pou, G, K, towers[1])
    want = _outcome(build_pou_oracle, G, K_raw, want[1])
    if pou[0] != "ok":
        assert pou == want
        return
    got = as_set_pou(pou[1])
    assert got.psi == want[1].psi and got.norm_sq == want[1].norm_sq
    assert verify_pou(G, K, pou[1], eps).to_json() == verify_pou_oracle(G, K, got, eps).to_json()


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 16), data=st.data())
def test_stages_match_symmetrizing_oracles(q, data):
    """Each stage, reading K = moves(E) as its offsets, against the set
    oracle that symmetrizes the raw E-arrows itself and rescans them."""
    G = cyclic_rotation_groupoid(q)
    E = data.draw(st.frozensets(st.integers(0, q - 1), min_size=1, max_size=3))
    K = G.moves(E)
    K_raw = frozenset((e, x) for e in E for x in range(q))
    units = st.frozensets(st.integers(0, q - 1), max_size=q)
    colors = data.draw(st.lists(units, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        colors[0] |= frozenset(range(q)) - frozenset().union(*colors)
    bound = data.draw(st.one_of(st.none(), st.integers(0, 3 * q * q)))
    N = data.draw(st.integers(1, 6))
    eps = data.draw(st.one_of(st.none(), st.fractions(min_value=F(1, 100), max_value=1)))
    _stages_against_oracles(G, K, K_raw, colors, bound, N, eps)


@st.composite
def arcs_and_scattered(draw, q):
    """One to four colors on Z/q: arcs, scattered residues, or a mix."""
    colors = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            start, length = draw(st.integers(0, q - 1)), draw(st.integers(1, q))
            colors.append(frozenset((start + t) % q for t in range(length)))
        else:
            colors.append(draw(st.frozensets(st.integers(0, q - 1), max_size=q)))
    return colors


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 64), data=st.data())
def test_array_stages_match_the_set_oracles_up_to_z64(q, data):
    """The differential test on Z/q for q <= 64: random colors (arcs or
    scattered residues, covering or not), random E of any integers, and
    averaging depth N from 3 to 8."""
    G = cyclic_rotation_groupoid(q)
    E = data.draw(st.lists(st.integers(-2 * q, 2 * q), min_size=1, max_size=3))
    K = G.moves(E)
    K_raw = frozenset((e % q, x) for e in E for x in range(q))
    colors = data.draw(arcs_and_scattered(q))
    if data.draw(st.integers(0, 3)):
        colors[0] |= frozenset(range(q)) - frozenset().union(*colors)
    bound = data.draw(st.one_of(st.none(), st.integers(0, 3 * q * q)))
    N = data.draw(st.integers(3, 8))
    eps = data.draw(st.one_of(st.none(), st.fractions(min_value=F(1, 100), max_value=1)))
    _stages_against_oracles(G, K, K_raw, colors, bound, N, eps)


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 24), data=st.data())
def test_enlarge_cover_k3_from_offset_sums_matches_composed_k3(q, data):
    """K^3 as the sums of one, two or three offsets of K, wrapping round
    Z/q, gives the enlarged colors and report (or the error) of the
    oracle that composes K^3 arrow by arrow, for any symmetric K that
    holds its units."""
    G = cyclic_rotation_groupoid(q)
    E = data.draw(st.frozensets(st.integers(0, q - 1), max_size=4))
    K = G.moves(E)
    units = st.frozensets(st.integers(0, q - 1))
    colors = data.draw(st.lists(units, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        colors.append(frozenset(range(q)).difference(*colors))
    bound = data.draw(st.one_of(st.none(), st.integers(0, 2 * q * q)))
    got = _outcome(enlarge_cover, G, K, colors, bound)
    want = _outcome(enlarge_cover_oracle, G, K, colors, bound)
    if got[0] == "ok":
        assert want[0] == "ok" and unit_sets(got[1][0]) == want[1][0]
        assert got[1][1].to_json() == want[1][1].to_json()
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 16), data=st.data())
def test_verify_pou_needs_no_symmetrization(q, data):
    """verify_pou accepts or rejects alike on the raw E-arrows and on their
    symmetrization, with the same max_oscillation_float: both checks on
    an arrow are symmetric in its endpoints, and unit arrows pass."""
    G = cyclic_rotation_groupoid(q)
    E = data.draw(st.frozensets(st.integers(0, q - 1), max_size=3))
    K_raw = frozenset((e, x) for e in E for x in range(q))
    colors = data.draw(st.lists(st.frozensets(st.integers(0, q - 1)), min_size=1, max_size=3))
    colors[0] |= frozenset(range(q)) - frozenset().union(*colors)
    K = G.moves(E)
    towers = build_tower(G, K, colors, data.draw(st.integers(3, 8)), None)
    cert = build_pou(G, K, towers).to_json()
    for _ in range(data.draw(st.integers(0, 2))):
        psi = data.draw(st.sampled_from(cert["psi"]))
        psi[str(data.draw(st.integers(0, q - 1)))] = str(
            data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
        )
    pou = PartitionOfUnity.from_json(G, K, cert)
    eps = data.draw(st.one_of(st.none(), st.fractions(min_value=F(1, 100), max_value=1)))
    raw = verify_pou(G, K_raw, pou, eps)
    sym = verify_pou(G, symmetrize_arrows(G, K_raw), pou, eps)
    assert raw.accepted == sym.accepted
    if raw.accepted:
        assert raw.details == sym.details


def compose_arrow_sets(G, A, B):
    """{ab : a in A, b in B composable}: the envelope oracle."""
    by_range: dict = {}
    for b in B:
        by_range.setdefault(G.range(b), []).append(b)
    out = set()
    for a in A:
        for b in by_range.get(G.source(a), ()):
            c = G.compose(a, b)
            if c is not None:
                out.add(c)
    return frozenset(out)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(1, 16), data=st.data())
def test_block_envelope_matches_composed_envelope(q, data):
    """gen <= K.G_i.K read from the component labels against the composed
    arrow sets, with G_i generated by K^3 in a color (as in enlarge_cover)
    or by any arrows."""
    G = cyclic_rotation_groupoid(q)
    units = st.frozensets(st.integers(0, q - 1))
    E = data.draw(st.frozensets(st.integers(0, q - 1), max_size=3))
    K = G.moves(E)
    if data.draw(st.booleans()):
        seed_i = seed_in_color(G, arrow_set_power(G, K, 3), data.draw(units))
    else:
        seed_i = data.draw(st.sets(st.sampled_from(G.arrows), max_size=6))
    G_i = generate_subgroupoid(G, seed_i)
    gen = generate_subgroupoid(G, seed_in_color(G, K, data.draw(units)))
    envelope = compose_arrow_sets(
        G, compose_arrow_sets(G, K, [a for a in G.arrows if holds(G_i, G, a)]), K
    )
    held = frozenset(a for a in G.arrows if holds(gen, G, a))
    got = _envelope_holds(_Moves.of(G, K), block_labels(q, G_i), block_labels(q, gen))
    assert got == (held <= envelope)


def test_pou_stages_need_the_rotation_groupoid():
    """The stages run on Z/q rotating its residues, with K a union of full
    offset classes; any other groupoid (with isotropy, or a free explicit
    one) and any other K are refused as InvalidInput."""
    colors = [frozenset({0, 1})]
    iso = action_groupoid_oracle(cyclic_group(4), [0, 1], lambda g, x: (x + g) % 2)
    pairs = block_union_pair_groupoid([[0, 1]])
    for G, K in ((iso, frozenset((1, x) for x in (0, 1))), (pairs, frozenset(pairs.arrows))):
        for stage in (enlarge_cover, lambda G, K, c, b: build_tower(G, K, c, 3, b)):
            with pytest.raises(InvalidInput, match="Z/q"):
                stage(G, K, colors, None)
    G = cyclic_rotation_groupoid(4)
    towers = build_tower(G, G.moves([1]), [frozenset(range(4))], 3, None)
    pou = build_pou(G, G.moves([1]), towers)
    for K in ({(1, 0), (1, 1)}, {(1, 0, 0)}, {(1, 4)}, {(1.0, x) for x in range(4)}, {3}):
        with pytest.raises(InvalidInput, match="K must"):
            verify_pou(G, K, pou)
        with pytest.raises(InvalidInput, match="K must"):
            enlarge_cover(G, K, [frozenset(range(4))], None)


def test_group_wrapper_matches_direct_path(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=None)
    towers = build_tower(G, K, enlarged, 8, None)
    direct = as_set_pou(build_pou(G, K, towers))
    G2, K2, tw2, wrapped = pou_from_group_action(12, [-1, 0, 1], arcs, 8, None)
    wrapped = as_set_pou(wrapped)
    assert wrapped.psi == direct.psi
    assert wrapped.norm_sq == direct.norm_sq


def test_exact_comparators_agree_with_floats():
    cases = [
        (F(1, 2), F(5, 4), F(1, 3), F(2, 1), 1, 4),
        (F(3, 4), F(1, 1), F(1, 4), F(9, 8), 2, 16),
        (F(1, 1), F(1, 1), F(0, 1), F(1, 1), 1, 3),
        (F(7, 16), F(33, 16), F(5, 16), F(35, 16), 3, 25),
    ]
    for p, S, q, T, d, N in cases:
        lhs = abs(sqrt_pair_float(p, S) - sqrt_pair_float(q, T))
        rhs = osc_bound_float(d, N)
        if abs(lhs - rhs) > 1e-9:
            assert diff_lt_osc_bound(p, S, q, T, d, N) == (lhs < rhs)
        for eps in (F(1, 100), F(1, 2), F(3, 2)):
            if abs(lhs - float(eps)) > 1e-9:
                assert diff_lt_rational(p, S, q, T, eps) == (lhs < float(eps))


def test_least_pou_depth():
    # least N >= 3 with sqrt(2)(1+sqrt(d+1))/sqrt(N) < eps, by brute float scan
    for d in (0, 1, 2):
        for eps in (F(1, 2), F(1, 5), F(1, 20)):
            N = least_pou_depth(d, eps)
            assert N >= 3
            assert osc_bound_float(d, N) < float(eps)
            if N > 3:
                assert osc_bound_float(d, N - 1) >= float(eps)


def test_depth_derived_from_eps(z12):
    G, K, arcs = z12
    G2, K2, towers, pou = pou_from_group_action(
        12, [-1, 0, 1], arcs, N=None, size_bound=None, eps=F(1, 2)
    )
    assert pou.N == least_pou_depth(1, F(1, 2))
    report = verify_pou(G2, K2, pou, eps=F(1, 2))
    assert report.accepted


def test_build_pou_requires_depth_three(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, None)
    towers = build_tower(G, K, enlarged, 2, None)
    with pytest.raises(TowerInvalid):
        build_pou(G, K, towers)


def test_z12_corpus_pou_json_roundtrip():
    corpus = corpus_dir()
    case = next(
        c for c in json.loads((corpus / "cases.json").read_text())["cases"]
        if c["name"] == "z12_pou_n16"
    )
    data = json.loads((corpus / case["golden"]).read_text())["pou"]
    order = case["params"]["order"]
    G = cyclic_rotation_groupoid(order)
    K = G.moves(e % order for e in case["params"]["E"])
    pou = PartitionOfUnity.from_json(G, K, data)
    assert pou.to_json() == data
    assert verify_pou(G, K, pou).accepted
    # the normalizer matches the one build_pou computes
    read, built = as_set_pou(pou), as_set_pou(build_pou(G, K, pou.towers))
    assert read.psi == built.psi and read.norm_sq == built.norm_sq

    stray = json.loads(json.dumps(data))
    stray["psi"][0]["99"] = "1"
    with pytest.raises(InvalidInput):
        PartitionOfUnity.from_json(G, K, stray)
    garbled = json.loads(json.dumps(data))
    garbled["psi"][0]["3"] = "abc"
    with pytest.raises(InvalidInput):
        PartitionOfUnity.from_json(G, K, garbled)
    with pytest.raises(InvalidInput):
        PartitionOfUnity.from_json(G, K, {k: v for k, v in data.items() if k != "N"})


ERROR_CLASS = {cls.__name__: cls for cls in ALL_ERRORS}


def _pou_verify_exit(order: int, E, pou_json, eps) -> int:
    """``dadim pou-verify`` on a certificate file of ``pou_json``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pou.json"
        path.write_text(json.dumps({"order": order, "E": E, "pou": pou_json}))
        extra = [] if eps is None else ["--epsilon", str(eps)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(["pou-verify", "--pou", str(path)] + extra)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_psi_tables_match_the_oracle(built_pous, data):
    """One mutation of a built certificate's psi table or tower top: a
    value off the 1/N grid, above 1 or below 0, an explicit zero, a
    positive value outside the tower top, or a unit whose values no longer
    normalize.  verify_pou gives the oracle's report, and pou-verify exits
    with the code of the oracle's error class (0 when it accepts)."""
    G, K, cert = data.draw(st.sampled_from(built_pous))
    cert = json.loads(json.dumps(cert))
    q, psi = G.n, cert["psi"]
    i = data.draw(st.integers(0, len(psi) - 1))
    x = str(data.draw(st.integers(0, q - 1)))
    kind = data.draw(st.sampled_from(
        ["off_grid", "above_one", "below_zero", "zero", "outside_top", "normalization"]
    ))
    unit = st.fractions(min_value=0, max_value=1, max_denominator=13)
    if kind == "off_grid":
        psi[i][x] = str(data.draw(unit))
    elif kind == "above_one":
        psi[i][x] = str(1 + data.draw(unit.filter(bool)))
    elif kind == "below_zero":
        psi[i][x] = str(-data.draw(unit.filter(bool)))
    elif kind == "zero":
        psi[i][x] = "0"
    elif kind == "outside_top":
        top = cert["tower_levels"][i][-1]
        top.remove(data.draw(st.sampled_from(sorted(psi[i]))))
    else:
        for p in psi:
            if data.draw(st.booleans()):
                p.pop(x, None)
            else:
                p[x] = str(data.draw(unit) / len(psi))
    pou = PartitionOfUnity.from_json(G, K, cert)
    eps = data.draw(st.one_of(st.none(), st.fractions(min_value=F(1, 100), max_value=1)))
    got, want = verify_pou(G, K, pou, eps), verify_pou_oracle(G, K, as_set_pou(pou), eps)
    assert got.to_json() == want.to_json()
    code = 0 if want.accepted else ERROR_CLASS[want.code].exit_code
    assert _pou_verify_exit(q, [-1, 0, 1], cert, eps) == code


def test_an_off_grid_certificate_passes():
    """Z/12 with N = 16, psi_0 = 1 and psi_1 = 1/3 on every unit: 1/3 is
    off the 1/16 grid, and the tables are a partition of unity (S = 10/9,
    no oscillation), so pou-verify accepts it and exits 0."""
    units = [str(x) for x in sorted(range(12), key=str)]
    cert = {
        "N": 16,
        "colors": [units, units],
        "psi": [{u: "1" for u in units}, {u: "1/3" for u in units}],
        "tower_levels": [[units], [units]],
    }
    G = cyclic_rotation_groupoid(12)
    K = G.moves([-1, 0, 1])
    pou = PartitionOfUnity.from_json(G, K, cert)
    assert pou.tuples == [(F(1), F(1, 3), F(10, 9))]
    report = verify_pou(G, K, pou)
    assert report.accepted and report.details["max_oscillation_float"] == 0.0
    assert report.to_json() == verify_pou_oracle(G, K, as_set_pou(pou)).to_json()
    assert _pou_verify_exit(12, [-1, 0, 1], cert, None) == 0
