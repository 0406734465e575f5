"""Single-scale coarse covers, the exhaustive oracle, and the bridge."""

import copy
import gc
import json
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
from dadim import certify
from dadim.errors import InvalidInput, TooLarge, VerificationFailed, malformed
from dadim.groupoid import (
    BlockArrows,
    GroupoidDadWitness,
    TubeArrows,
    TubePairGroupoid,
    _component_labels,
    _seed_in_color,
    generate_subgroupoid,
    verify_groupoid_dad,
)
from helpers import (
    construct_grid_witness_oracle,
    exhaustive_min_colors_with_witness,
    space_diameter,
)


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
    diam = space_diameter(P8)
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


def test_reading_verifying_and_bridging_take_few_collector_passes():
    """Reading, verifying and bridging the 80 x 80 brick witness build one
    tuple per point, the classes' points, and no other object per point:
    the grid's points are never built, cells come from arrays, and the
    tube blocks are labels.  Objects are what start the cyclic collector,
    so its passes count them: at most 10, where building the points, a
    point -> cell dict and a set per tube block took 14 young passes and 1
    middle one."""
    text = json.dumps(certify._normalize(construct_grid_witness(Grid2dSpace(80, 80), 5).to_json()))
    data = json.loads(text)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        X = space_from_json({"grid": {"dims": [80, 80]}})
        w = asdim_witness_from_json(data)
        assert verify_asdim_witness(X, w).accepted
        bridge_to_groupoid(X, w)
    finally:
        gc.callbacks.remove(count)
    assert len(passes) <= 10, passes


@pytest.mark.parametrize("cls", [
    [[0, 1], [2, 3]], [], [3, 4], [[0, 1], 5], [[0, 1], "a"], [[1.5, True]], [[0, [1]]],
    [{"a": 1}], "ab", 7, None,
])
def test_reader_reads_a_class_as_the_per_entry_conversion(cls):
    """A class of lists becomes one frozenset of tuples in one call; any
    other class keeps the per-entry conversion, and its errors."""
    def outcome(read):
        try:
            return read()
        except InvalidInput as exc:
            return str(exc)

    def per_entry():
        with malformed("coarse witness"):
            return frozenset([tuple(p) if isinstance(p, list) else p for p in cls])

    data = {"scale_R": 1, "bound_S": 1, "families": [[cls]]}
    assert outcome(lambda: asdim_witness_from_json(data).families[0][0]) == outcome(per_entry)


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
    integers, or a sequence of ints that is not a tuple."""
    p = X.points[-1]
    if isinstance(p, int):
        return [X.points[0] - 1, p + 1, (p,), 0.5, "a", None, range(1)]
    return [
        tuple(c + 1 for c in p), tuple(c - 100 for c in p), p[:-1] or (0, 0), p + (0,),
        (0.5,) * len(p), 0, None, range(2),
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
# range(2) is a sequence of the ints 0, 1 but no point: (0, 1) is uncovered
@example(("foreign", Grid2dSpace(2, 2),
          AsdimWitness(1, 2, [[frozenset({(0, 0), (1, 0), (1, 1), range(2)})]])))
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
    """Each color's r-components labelled over its cells are the blocks
    that the union-find generates from the color's tube seed: with one
    propagation for disjoint colors holding every point, and one per color
    when the colors overlap."""
    if data.draw(st.booleans()):
        n = len(X.points)
        owner = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        colors = [frozenset(p for p, o in zip(X.points, owner) if o == i) for i in range(3)]
    else:
        colors = data.draw(st.lists(st.frozensets(st.sampled_from(X.points)), max_size=2))
        colors.append(frozenset(X.points))  # the cover check has put every point in a color
    G = TubePairGroupoid(X, 2 * max(R, 0))
    lat = X.lattice
    cells = [lat.cells_of(c) for c in colors]
    for color, labels in zip(colors, _component_labels(lat, cells, R)):
        blocks: dict = {}
        for p, least in zip(color, labels.tolist()):
            blocks.setdefault(least, set()).add(p)
        oracle = generate_subgroupoid(G, _seed_in_color(G, TubeArrows(R), color))
        assert BlockArrows(frozenset(map(frozenset, blocks.values()))) == oracle


# -- the array path at larger sizes against the per-point oracles ----------


def _ball_walk(X, p, r):
    """The points within r of ``p`` in point order, walking the l1 ball
    alone; p equals a point of X (its coordinates may be 0.0 or True)."""
    if isinstance(X, Grid1dSpace):
        c = int(p)
        yield from range(max(X.lo, c - r), min(X.hi, c + r) + 1)
        return
    x, y = map(int, p)
    for a in range(max(0, x - r), min(X.w - 1, x + r) + 1):
        s = r - abs(a - x)
        yield from ((a, b) for b in range(max(0, y - s), min(X.h - 1, y + s) + 1))


def walked(X):
    """``scanned(X)`` whose ball scan walks the ball instead of testing
    every point, which gives the same points in the same order: the
    per-point paths at sizes where a scan over all points is too slow."""
    Y = scanned(X)
    Y.__dict__["iter_ball"] = lambda p, r: _ball_walk(X, p, r)
    return Y


@settings(max_examples=60, deadline=None)
@given(SPACES, st.integers(-1, 4), st.data())
def test_ball_walk_matches_the_scan(X, r, data):
    p = data.draw(st.sampled_from(X.points))
    assert list(walked(X).iter_ball(p, r)) == list(scanned(X).iter_ball(p, r))


GRIDS = st.one_of(
    st.builds(lambda lo, n: Grid1dSpace(lo, lo + n - 1), st.integers(-5, 5), st.integers(1, 40)),
    st.builds(Grid2dSpace, st.integers(1, 40), st.integers(1, 40)),
)
MUTATIONS = ("none", "drop", "two_classes", "float", "bool", "outside")


def _equal_non_int(p, kind):
    """An object equal to the point p that is no int point: 0.0 or True
    for 0 or 1 (a bool only where p is 0 or 1), or one such coordinate."""
    if kind == "bool":
        if isinstance(p, int):
            return bool(p) if p in (0, 1) else p
        return (bool(p[0]),) + p[1:] if p[0] in (0, 1) else p
    return float(p) if isinstance(p, int) else (float(p[0]),) + p[1:]


@st.composite
def grid_witnesses(draw):
    """A grid, R and an asdim witness: the constructed one or a random
    assignment of points to classes, then one mutation."""
    X = draw(GRIDS)
    R = draw(st.integers(1, 4))
    if draw(st.booleans()):
        w = construct_grid_witness(X, R)
        fams = [[set(c) for c in fam] for fam in w.families]
        S = draw(st.sampled_from([w.bound_S, max(w.bound_S - 2, 0)]))
    else:
        rng = draw(st.randoms(use_true_random=False))
        nfam = draw(st.integers(1, 3))
        fams = [[set() for _ in range(draw(st.integers(1, 4)))] for _ in range(nfam)]
        for p in X.points:
            rng.choice(rng.choice(fams)).add(p)
        S = draw(st.integers(0, 40))
    classes = [c for fam in fams for c in fam]
    mutation = draw(st.sampled_from(MUTATIONS))
    p = draw(st.sampled_from(X.points))
    home = next(c for c in classes if p in c)
    if mutation == "drop":
        home.discard(p)
    elif mutation == "two_classes":
        fam = next(f for f in fams if home in f)
        draw(st.sampled_from(fam)).add(p)
    elif mutation in ("float", "bool"):
        home.discard(p)
        home.add(_equal_non_int(p, mutation))
    elif mutation == "outside":
        home.add(draw(st.sampled_from(_foreign_points(X))))
    return X, AsdimWitness(R, S, [[frozenset(c) for c in fam] for fam in fams])


def _bridged(X, w):
    """The bridge's report and generated sizes, or the report it raised."""
    try:
        G, gw, report = bridge_to_groupoid(X, w)
    except VerificationFailed as exc:
        return exc.report
    return report, [len(g) for g in gw.generated]


@settings(max_examples=120, deadline=None)
@given(grid_witnesses())
def test_array_paths_match_the_per_point_oracles(drawn):
    """Verification and bridge on label arrays give the reports of the
    ball scan and of ``generate_subgroupoid`` over the tube seeds."""
    X, w = drawn
    Y = walked(X)
    assert verify_asdim_witness(X, w) == verify_asdim_witness(Y, w)
    assert _bridged(X, w) == _bridged(Y, w)


@st.composite
def tube_witnesses(draw):
    """A grid, a tube witness over it (colors that overlap or not, and the
    declared blocks of each, generated and then perhaps changed), the
    ambient radius and a size bound."""
    X = draw(GRIDS)
    r = draw(st.integers(-1, 3))
    Y = walked(X)
    G = TubePairGroupoid(Y, 0)
    n = len(X.points)
    rng = draw(st.randoms(use_true_random=False))
    owner = [rng.randrange(3) for _ in range(n)]
    colors = [{p for p, o in zip(X.points, owner) if o == i} for i in range(3)]
    if draw(st.booleans()):
        colors[0] |= draw(st.sets(st.sampled_from(X.points), max_size=5))
    declared = [
        generate_subgroupoid(G, _seed_in_color(G, TubeArrows(r), frozenset(c))) for c in colors
    ]
    i = draw(st.integers(0, 2))
    p = draw(st.sampled_from(X.points))
    # largest first, so that a change that needs a block of two points finds one
    blocks = sorted(map(set, declared[i].blocks), key=len, reverse=True)
    change = draw(st.sampled_from(
        ["none", "merge", "merge_and_empty", "split", "move", "copy", "extra", "float",
         "empty", "foreign", "unknown_color", "uncovered", "undeclared", "arrows", "clear",
         "whole"]
    ))
    if change == "clear":
        blocks = []
    elif change == "whole" and colors[i]:
        blocks = [set(colors[i])]
    elif change.startswith("merge") and len(blocks) > 1:
        blocks[0] |= blocks.pop()
        if change == "merge_and_empty":
            blocks.append(set())
    elif change == "split" and blocks and len(blocks[0]) > 1:
        blocks.append({blocks[0].pop()})
    elif change in ("move", "copy") and len(blocks) > 1 and len(blocks[0]) > 1:
        q = next(iter(blocks[0]))
        blocks[1].add(q)
        if change == "move":
            blocks[0].discard(q)
    elif change == "extra" and blocks and len(colors[i]) < n:
        blocks[0].add(draw(st.sampled_from(sorted(set(X.points) - colors[i]))))
    elif change == "float" and blocks:
        q = next(iter(blocks[0]))
        blocks[0] = (blocks[0] - {q}) | {_equal_non_int(q, "float")}
    elif change == "empty":
        blocks.append(set())
    elif change == "foreign" and blocks:
        blocks[0].add(draw(st.sampled_from(_foreign_points(X))))
    elif change == "unknown_color":
        colors[i].add(draw(st.sampled_from(_foreign_points(X))))
    elif change == "uncovered":
        for c in colors:
            c.discard(p)
    declared[i] = BlockArrows(frozenset(map(frozenset, blocks)))
    if change == "undeclared":
        declared[i] = None
    elif change == "arrows":
        declared[i] = frozenset()
    witness = GroupoidDadWitness(TubeArrows(r), [frozenset(c) for c in colors], declared)
    if draw(st.booleans()):
        return X, witness, 80, None  # no block leaves this tube, and no bound
    return X, witness, draw(st.integers(-1, 8)), draw(st.one_of(st.none(), st.integers(0, 2 * n)))


@settings(max_examples=150, deadline=None)
@given(tube_witnesses())
# a point moved between the two blocks of a color: as many blocks, holding
# every cell once, but not the components
@example((Grid1dSpace(0, 4), GroupoidDadWitness(
    TubeArrows(1), [frozenset({0, 1, 3, 4}), frozenset({2})],
    [BlockArrows(frozenset({frozenset({0}), frozenset({1, 3, 4})})), None]), 80, None))
def test_tube_verification_on_cells_matches_generation(drawn):
    """``verify_groupoid_dad`` on a grid's tube reports as it does with the
    grid's lattice off, where each color generates its subgroupoid by the
    union-find.  When several blocks leave the ambient tube the two may
    name different ones: then both name the same color and a diameter over
    the radius."""
    X, witness, radius, bound = drawn
    got = verify_groupoid_dad(TubePairGroupoid(X, radius), witness, bound)
    want = verify_groupoid_dad(TubePairGroupoid(walked(X), radius), witness, bound)
    if "ambient tube" in want.message:
        assert (got.code, got.details["color"]) == (want.code, want.details["color"])
        assert got.details["diameter"] > radius
    else:
        assert got == want
