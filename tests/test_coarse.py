"""Single-scale coarse covers, the exhaustive oracle, and the bridge."""

import copy
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadim.coarse import (
    AsdimWitness,
    FiniteMetricSpace,
    Grid1dSpace,
    Grid2dSpace,
    GroupBallSpace,
    TableMetricSpace,
    asdim_witness_from_json,
    bridge_to_groupoid,
    construct_grid_witness,
    space_from_json,
    verify_asdim_witness,
)
from dadim.errors import InvalidInput, TooLarge, VerificationFailed
from dadim.groupoid import (
    BlockArrows,
    GroupoidDadWitness,
    TubeArrows,
    TubePairGroupoid,
    _connected_components,
    _seed_in_color,
    generate_subgroupoid,
    verify_groupoid_dad,
)
from helpers import construct_grid_witness_oracle, exhaustive_min_colors_with_witness


def path_graph(n):
    return TableMetricSpace.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def test_verify_examples():
    X = Grid1dSpace(0, 199)
    fams = [
        [frozenset(range(100 * k, 100 * k + 50)) for k in range(2)],
        [frozenset(range(100 * k + 50, 100 * k + 100)) for k in range(2)],
    ]
    assert verify_asdim_witness(X, AsdimWitness(10, 49, fams)).accepted

    # one class covering a bounded space
    Y = path_graph(6)
    w = AsdimWitness(3, 5, [[frozenset(range(6))]])
    assert verify_asdim_witness(Y, w).accepted

    # tiling with one family: adjacent intervals violate separation
    bad = AsdimWitness(10, 49, [[frozenset(range(50 * k, 50 * k + 50)) for k in range(4)]])
    report = verify_asdim_witness(X, bad)
    assert not report.accepted and report.code == "SeparationViolation"


def test_verify_diameter_violation():
    X = Grid1dSpace(0, 99)
    w = AsdimWitness(5, 10, [[frozenset(range(100))]])
    report = verify_asdim_witness(X, w)
    assert not report.accepted and report.code == "DiameterViolation"


def test_verify_cover_gap():
    X = Grid1dSpace(0, 9)
    w = AsdimWitness(2, 9, [[frozenset(range(5))]])
    report = verify_asdim_witness(X, w)
    assert not report.accepted and report.code == "CoverGap"


@pytest.mark.parametrize("R", [1, 3, 10, 25])
def test_construct_1d_sweep(R):
    X = Grid1dSpace(0, 999)
    w = construct_grid_witness(X, R)
    assert len(w.families) == 2 and w.bound_S == 5 * R - 1
    assert verify_asdim_witness(X, w).accepted


def test_construct_1d_large_scale_sample():
    # upper end of the sampled sweep: R = 50 on a long interval
    X = Grid1dSpace(0, 49999)
    w = construct_grid_witness(X, 50)
    assert verify_asdim_witness(X, w).accepted


def test_construct_1d_degenerate():
    w = construct_grid_witness(Grid1dSpace(5, 5), 5)
    assert len(w.families) == 2
    assert sum(len(f) for f in w.families) == 1


@pytest.mark.parametrize("R,side", [(1, 30), (2, 60), (5, 200)])
def test_construct_2d_sweep(R, side):
    X = Grid2dSpace(side, side)
    w = construct_grid_witness(X, R)
    assert len(w.families) == 3
    assert verify_asdim_witness(X, w).accepted


@settings(max_examples=200, deadline=None)
@given(
    X=st.one_of(
        st.builds(lambda lo, n: Grid1dSpace(lo, lo + n - 1), st.integers(-80, 10), st.integers(1, 150)),
        st.builds(Grid2dSpace, st.integers(1, 70), st.integers(1, 70)),
    ),
    R=st.integers(1, 6),
)
def test_construction_matches_the_dict_oracle(X, R):
    """The array construction gives the classes of the per-point dict
    loop, family by family in the same order, with the same meta."""
    w, oracle = construct_grid_witness(X, R), construct_grid_witness_oracle(X, R)
    assert (w.scale_R, w.bound_S, w.families) == (oracle.scale_R, oracle.bound_S, oracle.families)
    assert w.meta == {**oracle.meta, "verified": True}


def test_exhaustive_examples():
    P12 = path_graph(12)
    assert exhaustive_min_colors_with_witness(P12, 2, 4)[0] == 2
    assert exhaustive_min_colors_with_witness(P12, 3, 11)[0] == 1  # diameter <= S
    two = TableMetricSpace.from_edges([0, 1], [(0, 1)])
    assert exhaustive_min_colors_with_witness(two, 3, 0)[0] == 2
    with pytest.raises(TooLarge):
        exhaustive_min_colors_with_witness(Grid1dSpace(0, 99), 1, 1)


def test_oracle_consistency_small_spaces():
    """Any accepted witness uses at least as many families as the oracle,
    and the oracle's witness achieves the minimum."""
    rng = random.Random(11)
    P8 = path_graph(8)
    diam = P8.diameter()
    for R in range(1, diam + 1, 2):
        for S in range(1, diam + 1, 2):
            k, w = exhaustive_min_colors_with_witness(P8, R, S)
            assert verify_asdim_witness(P8, w).accepted
            assert len([f for f in w.families if f]) <= k
            # randomized valid witnesses: random family assignments that
            # happen to verify must use >= k families
            for _ in range(10):
                kk = rng.randint(1, 4)
                assignment = [rng.randrange(kk) for _ in range(8)]
                fams = []
                for fam in range(kk):
                    members = [p for p, a in zip(P8.points, assignment) if a == fam]
                    comps = []
                    rem = set(members)
                    while rem:
                        seed = rem.pop()
                        comp = {seed}
                        grew = True
                        while grew:
                            grew = False
                            for q in list(rem):
                                if any(P8.dist(q, c) <= R for c in comp):
                                    comp.add(q)
                                    rem.discard(q)
                                    grew = True
                        comps.append(frozenset(comp))
                    fams.append(comps)
                cand = AsdimWitness(R, S, fams)
                if verify_asdim_witness(P8, cand).accepted:
                    used = sum(1 for f in fams if f)
                    assert used >= k


def test_bridge_roundtrip_1d():
    X = Grid1dSpace(0, 199)
    w = construct_grid_witness(X, 10)
    G, gw, report = bridge_to_groupoid(X, w)
    assert report.accepted
    assert isinstance(gw.generated[0], BlockArrows)
    # all generated arrows stay within the bound_S tube
    for gen in gw.generated:
        for b in gen.blocks:
            assert X.subset_diameter(b) <= w.bound_S
    # each family comes back as the blocks of its color's subgroupoid
    assert [gen.blocks for gen in gw.generated] == list(map(frozenset, w.families))


def test_bridge_bounded_space_single_color():
    Y = path_graph(5)
    w = AsdimWitness(2, 4, [[frozenset(range(5))]])
    G, gw, report = bridge_to_groupoid(Y, w)
    assert report.accepted and len(gw.colors) == 1


def test_bridge_rejects_corruption():
    X = Grid1dSpace(0, 199)
    w = construct_grid_witness(X, 10)
    fams = [list(f) for f in w.families]
    fams[0].append(fams[1].pop(0))  # adjacent classes now share a family
    bad = AsdimWitness(w.scale_R, w.bound_S, fams)
    with pytest.raises(VerificationFailed) as exc:
        bridge_to_groupoid(X, bad)
    assert exc.value.report.code == "SeparationViolation"
    # the tube witness of the same families, past the coarse check
    blocks = [BlockArrows(frozenset(map(frozenset, fam))) for fam in fams]
    tube = GroupoidDadWitness(
        TubeArrows(bad.scale_R), [frozenset().union(*fam) for fam in fams], blocks
    )
    report = verify_groupoid_dad(TubePairGroupoid(X, bad.bound_S), tube, max(map(len, blocks)))
    assert not report.accepted and report.code in {"SizeExceeded", "NotClosed"}


def test_bridge_rejects_class_that_is_not_r_connected():
    """The class {0, 1, 2, 10, 11} passes the coarse checks (one class per
    family, diameter 11 <= S) but its gap of 8 > R splits it into two
    K-blocks, so the declared blocks differ from the generated ones."""
    X = Grid1dSpace(0, 11)
    w = AsdimWitness(2, 11, [[frozenset({0, 1, 2, 10, 11})], [frozenset(range(3, 10))]])
    assert verify_asdim_witness(X, w).accepted
    with pytest.raises(VerificationFailed) as exc:
        bridge_to_groupoid(X, w)
    assert exc.value.report.code == "NotClosed"
    assert exc.value.report.details == {"color": 0}


def test_group_ball_word_metric():
    gb = GroupBallSpace([[1, 0], [0, 1]], 3)
    gb.check_metric_axioms()
    assert gb.dist((0, 0), (1, 1)) == 2
    # tube semantics: pairs in the radius-r tube realize exactly the word
    # ball of differences (sums of at most r generators), a finite set; no
    # two points of the radius-3 ball are more than 6 apart
    letters = [(0, 0), *gb.generators]
    for r in (1, 2, 3, 6, 7):
        diffs = {
            tuple(b - a for a, b in zip(x, y))
            for x in gb.points
            for y in gb.points
            if gb.dist(x, y) <= r
        }
        words = {tuple(map(sum, zip(*w))) for w in product(letters, repeat=min(r, 6))}
        assert diffs == words


@st.composite
def word_balls(draw):
    k = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-3, 3), st.sampled_from([10**9, -(2**40), 2**61]))
    gens = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=3))
    return GroupBallSpace(gens, draw(st.integers(0, 4)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_word_ball_diameter_matches_pairwise_loop(data):
    """The chunked numpy diameter of a word-metric ball subset equals the
    pairwise ``dist`` loop's, also on sparse balls, on subsets with a point
    outside the ball (both raise) and where codes would overflow int64."""
    gb = data.draw(word_balls())
    subset = data.draw(st.sets(st.sampled_from(gb.points)))
    if data.draw(st.booleans()):
        subset = subset | {tuple(3 * gb.radius + 1 for _ in gb.points[0])}

    def outcome(diameter):
        try:
            return diameter(gb, subset)
        except InvalidInput as exc:
            return str(exc)

    assert outcome(GroupBallSpace.subset_diameter) == outcome(FiniteMetricSpace.subset_diameter)


def test_metric_axioms_catch_bad_table():
    pts = [0, 1]
    table = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}
    with pytest.raises(InvalidInput):
        TableMetricSpace(pts, table)


def test_word_ball_oracle_witness_flow():
    """Word-metric ball of Z^2: the exhaustive oracle's witness verifies
    and bridges, with the tube semantics of the word metric."""
    gb = GroupBallSpace([[1, 0], [0, 1]], 2)
    assert len(gb.points) == 13
    k, w = exhaustive_min_colors_with_witness(gb, 1, 2, max_points=16)
    assert verify_asdim_witness(gb, w).accepted
    G, gw, report = bridge_to_groupoid(gb, w)
    assert report.accepted
    assert [gen.blocks for gen in gw.generated] == list(map(frozenset, w.families))


def test_grid2d_subset_diameter_matches_bruteforce():
    X = Grid2dSpace(7, 5)
    rng = random.Random(3)
    for _ in range(20):
        subset = rng.sample(X.points, rng.randint(1, 12))
        brute = max(
            (X.dist(a, b) for a in subset for b in subset), default=0
        )
        assert X.subset_diameter(subset) == brute


def test_space_and_witness_serialization():
    sp = space_from_json({"grid": {"dims": [50]}})
    assert isinstance(sp, Grid1dSpace)
    sp2 = space_from_json({"grid": {"dims": [4, 6]}})
    assert isinstance(sp2, Grid2dSpace)
    sp3 = space_from_json({"group_ball": {"generators": [[1]], "radius": 4}})
    assert isinstance(sp3, GroupBallSpace)
    sp4 = space_from_json({"points": [0, 1, 2], "edges": [[0, 1], [1, 2]]})
    assert sp4.dist(0, 2) == 2

    w = construct_grid_witness(Grid1dSpace(0, 99), 5)
    back = asdim_witness_from_json(w.to_json())
    assert back.scale_R == w.scale_R and back.bound_S == w.bound_S
    assert [sorted(map(repr, f)) for f in back.families[0]] == [
        sorted(map(repr, f)) for f in w.families[0]
    ]


def test_metric_axioms_checked_on_every_triple():
    """600 points on a path, with d(0, 2) = 5 > d(0, 1) + d(1, 2): the
    triangle check runs over every triple at this size."""
    n = 600
    table = {(i, j): abs(i - j) for i in range(n) for j in range(n)}
    assert len(TableMetricSpace(range(n), dict(table)).points) == n
    table[0, 2] = table[2, 0] = 5
    with pytest.raises(InvalidInput, match="triangle"):
        TableMetricSpace(range(n), table)


# -- the lattice path against the kept ball scan ----------------------------


def scanned(X):
    """X with its lattice switched off, so verification and generation take
    the ball scan over all points (the base ``iter_ball``)."""
    Y = copy.copy(X)
    Y.__dict__["lattice"] = None
    return Y


SPACES = st.one_of(
    st.builds(lambda lo, n: Grid1dSpace(lo, lo + n - 1), st.integers(-3, 3), st.integers(1, 12)),
    st.builds(Grid2dSpace, st.integers(1, 6), st.integers(1, 6)),
)
CASES = ("cover", "foreign", "two_classes", "gap", "meet_at_R", "diameter")


def _foreign_points(X):
    """Points no class may use: outside the box, of the wrong arity, not
    integers."""
    p = X.points[-1]
    if isinstance(p, int):
        return [X.points[0] - 1, p + 1, (p,), 0.5, "a", None]
    return [
        tuple(c + 1 for c in p), tuple(c - 100 for c in p), p[:-1] or (0, 0), p + (0,),
        (0.5,) * len(p), 0, None,
    ]


@st.composite
def space_and_witness(draw):
    X = draw(SPACES)
    pts = list(X.points)
    R = draw(st.integers(-1, 3))
    S = draw(st.integers(0, 6))
    case = draw(st.sampled_from(CASES))
    nfam = draw(st.integers(1, 3))
    fams = [[set() for _ in range(draw(st.integers(1, 3)))] for _ in range(nfam)]
    for p in pts:
        fi = draw(st.integers(0, nfam - 1))
        draw(st.sampled_from(fams[fi])).add(p)
    if case == "foreign":
        draw(st.sampled_from(draw(st.sampled_from(fams)))).add(
            draw(st.sampled_from(_foreign_points(X)))
        )
    elif case == "two_classes":
        fam = draw(st.sampled_from(fams))
        draw(st.sampled_from(fam)).add(draw(st.sampled_from(pts)))
    elif case == "gap":
        for cls in draw(st.sampled_from(fams)):
            cls.discard(draw(st.sampled_from(pts)))
    elif case == "meet_at_R":
        # a first family whose two classes meet only at distance exactly R,
        # in any direction
        p = draw(st.sampled_from(pts))
        at_R = [q for q in pts if X.dist(p, q) == R]
        if at_R:
            fams.insert(0, [{p}, {draw(st.sampled_from(at_R))}])
    elif case == "diameter":
        S = draw(st.integers(0, 2))
    if draw(st.booleans()):
        # an object equal to a point (1.0 for 1, (1.0, 0) for (1, 0)) is that point
        p = draw(st.sampled_from(pts))
        for fam in fams:
            for cls in fam:
                if p in cls:
                    cls.discard(p)
                    cls.add(float(p) if isinstance(p, int) else (float(p[0]),) + p[1:])
    return case, X, AsdimWitness(R, S, [[frozenset(c) for c in fam] for fam in fams])


@settings(max_examples=400, deadline=None)
@given(space_and_witness())
# the lattice measures a class holding 0.0 as 1 wide; the report gives the
# space's own diameter, 1.0, as the scan does
@example(("diameter", Grid1dSpace(0, 3),
          AsdimWitness(0, 0, [[frozenset({0.0, 1}), frozenset({2}), frozenset({3})]])))
@example(("diameter", Grid2dSpace(2, 2),
          AsdimWitness(0, 0, [[frozenset({(0.0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})]])))
def test_lattice_verification_matches_the_ball_scan(drawn):
    case, X, w = drawn
    assert X.lattice is not None
    report = verify_asdim_witness(X, w)
    assert report == verify_asdim_witness(scanned(X), w)
    if case == "foreign":
        assert report.code == "CoverGap" and "unknown points" in report.message


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        SPACES,
        st.builds(lambda lo, n: Grid1dSpace(lo, lo + n - 1), st.integers(-50, 0), st.integers(1, 60)),
        st.builds(Grid2dSpace, st.integers(1, 25), st.integers(1, 25)),
    ),
    st.data(),
)
def test_lattice_diameters_match_subset_diameter(X, data):
    row = data.draw(st.lists(st.sets(st.sampled_from(X.points)), max_size=5))
    lat = X.lattice
    assert lat.diameters([lat.cells_of(c) for c in row]) == [X.subset_diameter(c) for c in row]


@settings(max_examples=200, deadline=None)
@given(SPACES, st.integers(-1, 4), st.data())
def test_lattice_tube_blocks_match_union_find(X, R, data):
    color = data.draw(st.sets(st.sampled_from(X.points)))
    G = TubePairGroupoid(X, 2 * max(R, 0))
    seed = _seed_in_color(G, TubeArrows(R), color)
    oracle = BlockArrows(frozenset(frozenset(c) for c in _connected_components(iter(seed))))
    assert generate_subgroupoid(G, seed) == oracle
    plain = TubePairGroupoid(scanned(X), G.radius)
    assert generate_subgroupoid(plain, _seed_in_color(plain, TubeArrows(R), color)) == oracle
