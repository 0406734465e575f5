"""Cover enlargement, nested towers, and the squared partition of unity."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadim.certify import corpus_dir
from dadim.errors import (
    InvalidInput,
    NotFree,
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
    _seed_in_color,
    block_union_pair_groupoid,
    cyclic_rotation_groupoid,
    generate_subgroupoid,
)
from dadim.pou import (
    PartitionOfUnity,
    _in_envelope,
    _neighbours,
    build_pou,
    build_tower,
    enlarge_cover,
    pou_from_group_action,
    verify_pou,
)
from helpers import (
    action_groupoid_oracle,
    arrow_set_power,
    build_pou_oracle,
    build_tower_oracle,
    cyclic_group,
    enlarge_cover_oracle,
    symmetrize_arrows,
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
    assert enlarged == colors  # partial orbits are singletons


def test_enlarge_z12_contains_partial_orbits(z12):
    G, K, arcs = z12
    enlarged, report = enlarge_cover(G, K, arcs, size_bound=2000)
    for x in range(12):
        orbit = {G.source(a) for a in K if G.range(a) == x}
        assert len(orbit) == 3
        assert any(orbit <= u for u in enlarged)


def test_enlarge_insufficient_for_k3(z12):
    G, K, arcs = z12
    with pytest.raises(WitnessInsufficient):
        enlarge_cover(G, K, arcs, size_bound=30)


def test_tower_units_only_is_constant():
    G = cyclic_rotation_groupoid(6)
    K = frozenset((0, x) for x in range(6))
    colors = [frozenset(range(6))]
    towers = build_tower(G, K, colors, 4, size_bound=100)
    assert all(lvl == frozenset(range(6)) for lvl in towers[0].levels)


def test_tower_growth_and_propagation(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=2000)
    towers = build_tower(G, K, enlarged, 4, size_bound=None)
    for t in towers:
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
    assert all(pou.phi_pair(0, x) == (1, 1) for x in range(6))


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
    p, S = pou.phi_pair(0, 0)
    assert (p, S) == (1, 2)  # 1/sqrt(2)


def test_support_violation_detected(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=2000)
    towers = build_tower(G, K, enlarged, 4, None)
    pou = build_pou(G, K, towers)
    # clip the declared color so a positive value leaks outside it
    pou.towers[0].levels[-1] = frozenset(list(pou.towers[0].levels[-1])[:3])
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
    assert verify_pou(G, K, pou, eps).to_json() == verify_pou_oracle(G, K, pou, eps).to_json()


def _outcome(fn, *args):
    """("ok", result) or ("raise", error class, message)."""
    try:
        return ("ok", fn(*args))
    except (InvalidInput, PropagationEscapesColor, TowerInvalid, WitnessInsufficient) as exc:
        return ("raise", type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 16), data=st.data())
def test_stages_match_symmetrizing_oracles(q, data):
    """Each stage, reading K = moves(E) through one neighbour map, against
    the old stage that symmetrizes the raw E-arrows itself and rescans
    them: the same enlarged colors and report, tower levels, psi and
    norm_sq, and verify_pou report, or the same error."""
    G = cyclic_rotation_groupoid(q)
    E = data.draw(st.frozensets(st.integers(0, q - 1), min_size=1, max_size=3))
    K = G.moves(E)
    K_raw = frozenset((e, x) for e in E for x in range(q))
    units = st.frozensets(st.integers(0, q - 1), max_size=q)
    colors = data.draw(st.lists(units, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        colors[0] |= frozenset(range(q)) - frozenset().union(*colors)
    bound = data.draw(st.one_of(st.none(), st.integers(0, 3 * q * q)))

    enlarged = _outcome(enlarge_cover, G, K, colors, bound)
    want = _outcome(enlarge_cover_oracle, G, K_raw, colors, bound)
    if enlarged[0] == "ok":
        assert want[0] == "ok" and enlarged[1][0] == want[1][0]
        assert enlarged[1][1].to_json() == want[1][1].to_json()
        colors = enlarged[1][0]
    else:
        assert enlarged == want

    N = data.draw(st.integers(1, 6))
    towers = _outcome(build_tower, G, K, colors, N, bound)
    want = _outcome(build_tower_oracle, G, K_raw, colors, N, bound)
    if towers[0] != "ok":
        assert towers == want
        return
    assert [t.levels for t in towers[1]] == [t.levels for t in want[1]]

    pou = _outcome(build_pou, G, K, towers[1])
    want = _outcome(build_pou_oracle, G, K_raw, towers[1])
    if pou[0] != "ok":
        assert pou == want
        return
    assert pou[1].psi == want[1].psi and pou[1].norm_sq == want[1].norm_sq
    eps = data.draw(st.one_of(st.none(), st.fractions(min_value=F(1, 100), max_value=1)))
    assert verify_pou(G, K, pou[1], eps).to_json() == verify_pou_oracle(G, K, pou[1], eps).to_json()


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3), data=st.data())
def test_enlarge_cover_k3_off_neighbours_matches_composed_k3(sizes, data):
    """On pair groupoids over disjoint blocks, with any symmetric K that
    holds its units: K^3 read off the neighbour map gives the enlarged
    colors and report (or the error) of the oracle that composes K^3."""
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    G = block_union_pair_groupoid(
        [range(o, o + n) for o, n in zip(offsets, sizes)]
    )
    # steps along each block make units three K-steps apart common
    steps = [(u + 1, u) for u in G.units if (u + 1, u) in G.arrows]
    drawn = data.draw(st.sets(st.sampled_from(steps), max_size=8)) if steps else set()
    drawn |= data.draw(st.sets(st.sampled_from(G.arrows), max_size=3))
    K = symmetrize_arrows(G, drawn)
    units = st.frozensets(st.sampled_from(G.units))
    colors = data.draw(st.lists(units, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        colors.append(frozenset(G.units).difference(*colors))
    bound = data.draw(st.one_of(st.none(), st.integers(0, 2 * len(G.arrows))))
    got = _outcome(enlarge_cover, G, K, colors, bound)
    want = _outcome(enlarge_cover_oracle, G, K, colors, bound)
    if got[0] == "ok":
        assert want[0] == "ok" and got[1][0] == want[1][0]
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
    """gen <= K.G_i.K read from the blocks against the composed arrow sets,
    with G_i generated by K^3 in a color (as in enlarge_cover) or by any
    arrows."""
    G = cyclic_rotation_groupoid(q)
    units = st.frozensets(st.integers(0, q - 1))
    E = data.draw(st.frozensets(st.integers(0, q - 1), max_size=3))
    K = G.moves(E)
    if data.draw(st.booleans()):
        seed_i = _seed_in_color(G, arrow_set_power(G, K, 3), data.draw(units))
    else:
        seed_i = data.draw(st.sets(st.sampled_from(G.arrows), max_size=6))
    G_i = generate_subgroupoid(G, seed_i)
    gen = generate_subgroupoid(G, _seed_in_color(G, K, data.draw(units)))
    envelope = compose_arrow_sets(
        G, compose_arrow_sets(G, K, [a for a in G.arrows if G_i.holds(G, a)]), K
    )
    held = frozenset(a for a in G.arrows if gen.holds(G, a))
    assert _in_envelope(_neighbours(G, K), G_i, gen) == (held <= envelope)


def test_enlarge_cover_needs_a_free_groupoid():
    G = action_groupoid_oracle(cyclic_group(4), [0, 1], lambda g, x: (x + g) % 2)
    K = frozenset((1, x) for x in (0, 1))
    with pytest.raises(NotFree):
        enlarge_cover(G, K, [frozenset({0, 1})], None)


def test_group_wrapper_matches_direct_path(z12):
    G, K, arcs = z12
    enlarged, _ = enlarge_cover(G, K, arcs, size_bound=None)
    towers = build_tower(G, K, enlarged, 8, None)
    direct = build_pou(G, K, towers)
    G2, K2, tw2, wrapped = pou_from_group_action(12, [-1, 0, 1], arcs, 8, None)
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
    built = build_pou(G, K, pou.towers)
    assert pou.psi == built.psi and pou.norm_sq == built.norm_sq

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
