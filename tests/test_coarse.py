"""Single-scale coarse covers, the exhaustive oracle, and the bridge."""

import contextlib
import copy
import gc
import io
import json
import random
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadim.coarse import (
    AsdimWitness,
    FiniteMetricSpace,
    Grid1dSpace,
    Grid2dSpace,
    GroupBallSpace,
    Lattice,
    PointRows,
    TableMetricSpace,
    asdim_witness_from_json,
    bridge_to_groupoid,
    construct_grid_witness,
    space_from_json,
    verify_asdim_witness,
)
from dadim import certify, cli, coarse, groupoid
from dadim.errors import DadimError, InvalidInput, TooLarge, VerificationFailed, malformed
from dadim.groupoid import (
    BlockArrows,
    GroupoidDadWitness,
    TubeArrows,
    TubePairGroupoid,
    _box_labels,
    generate_subgroupoid,
    verify_groupoid_dad,
)
from helpers import (
    _connected_components,
    asdim_witness_from_json_oracle,
    construct_grid_witness_oracle,
    exhaustive_min_colors_with_witness,
    seed_in_color,
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
    """The box construction gives the classes of the per-point dict
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
    """Reading, verifying and bridging the 80 x 80 brick witness build no
    object per point: each class is its rows, the grid's points are never
    built, cells come from arrays, the tube blocks are labels, and the
    bridge's colors and declared blocks are the classes themselves.
    Objects are what start the cyclic collector, so its passes count
    them: at most 2 (none on CPython 3.11), where a tuple and a frozenset
    per point took 9 young passes, and also building the points, a point
    -> cell dict and a set per tube block 14 young passes and 1 middle
    one."""
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
    assert len(passes) <= 2, passes


def test_grid_witness_chain_reads_cells_from_rows(monkeypatch):
    """The 80 x 80 brick witness at R = 5 is built, written, read, verified
    and bridged with every class a ``PointRows``: every read into cells is
    of rows (a class's, or a bridge color's classes'), never of point
    objects through the point -> cell dict, and no command builds the
    grid's points.  The bridge reads each class three times, for the asdim
    check, its color and its declared block."""
    def refuse(*args):
        raise AssertionError("a point object was read into a cell")

    read = []
    cells_of = Lattice.cells_of
    monkeypatch.setattr(Lattice, "cells_of", lambda lat, pts: read.append(type(pts)) or cells_of(lat, pts))
    monkeypatch.setattr(Lattice, "_index", property(refuse))

    X = Grid2dSpace(80, 80)
    w = construct_grid_witness(X, 5)
    assert "points" not in vars(X)
    assert all(type(c) is PointRows for fam in w.families for c in fam)
    data = json.loads(json.dumps(certify._normalize(w.to_json())))
    for check, classes in ((verify_asdim_witness, 5), (bridge_to_groupoid, 15)):
        read.clear()
        Y = space_from_json({"grid": {"dims": [80, 80]}})
        check(Y, asdim_witness_from_json(data))
        assert "points" not in vars(Y)
        assert read.count(PointRows) == classes and set(read) <= {PointRows, coarse._Color}


@pytest.mark.parametrize("space, families", [
    ({"grid": {"dims": [10]}}, [[[0, 1, 2, 3, 4], []], [[5, 6, 7, 8, 9]]]),
    ({"grid": {"dims": [4, 3]}},
     [[[], [[x, y] for x in (0, 1) for y in range(3)]], [[[x, y] for x in (2, 3) for y in range(3)]]]),
    ({"points": list(range(10)), "edges": [[i, i + 1] for i in range(9)]},
     [[[0, 1, 2, 3, 4], []], [[5, 6, 7, 8, 9]], []]),
])
def test_bridge_declares_only_the_non_empty_classes(space, families):
    """An empty class covers nothing and generates no block: a witness with
    one is accepted by the verifier and bridged, its color's declared
    blocks being the non-empty classes (an empty declared block never
    equals a generated one)."""
    X = space_from_json(space)
    w = asdim_witness_from_json({"scale_R": 1, "bound_S": 9, "families": families})
    assert verify_asdim_witness(X, w).accepted
    G, gw, report = bridge_to_groupoid(X, w)
    assert report.accepted
    assert [gen.blocks for gen in gw.generated] == [
        frozenset(c for c in fam if c) for fam in w.families
    ]


WITNESS_MUTATIONS = (
    "none", "duplicate", "bool", "float", "arity", "outside", "empty", "string", "nested_empty",
)


@st.composite
def witness_files(draw):
    """A grid space file and the file of its constructed witness, as
    written, then one mutation of one point or family and perhaps a class
    listed in reverse order or a smaller S."""
    space = draw(st.sampled_from([{"grid": {"dims": [30]}}, {"grid": {"dims": [12, 9]}}]))
    X = space_from_json(space)
    w = construct_grid_witness(X, draw(st.integers(1, 2)))
    data = json.loads(json.dumps(certify._normalize(w.to_json())))
    fam = draw(st.sampled_from([f for f in data["families"] if f]))
    cls = draw(st.sampled_from(fam))
    j = draw(st.integers(0, len(cls) - 1))
    p = cls[j]
    flat = isinstance(p, int)
    mutation = draw(st.sampled_from(WITNESS_MUTATIONS))
    if mutation == "duplicate":
        cls.insert(draw(st.integers(0, len(cls))), copy.copy(p))
    elif mutation == "bool":
        cls[j] = bool(p % 2) if flat else [bool(p[0] % 2), p[1]]
    elif mutation == "float":
        cls[j] = float(p) if flat else [p[0], float(p[1])]
    elif mutation == "arity":
        cls[j] = [p] if flat else draw(st.sampled_from([p[:1], p + [0]]))
    elif mutation == "outside":
        cls[j] = p + 1000 if flat else [p[0] + 100, p[1]]
    elif mutation == "empty":
        fam.insert(draw(st.integers(0, len(fam))), [])
    elif mutation == "string":
        cls[j] = draw(st.sampled_from(["a", str(p)]))
    elif mutation == "nested_empty":
        cls[j] = []
    if draw(st.booleans()):
        cls.reverse()
    if draw(st.booleans()):
        data["bound_S"] = draw(st.integers(0, data["bound_S"]))
    return space, data


def _outcome(f):
    """(accepted, code) of a report that ``f`` returns or raises, "read"
    for a witness, or the type and message of the error it raises."""
    try:
        r = f()
    except VerificationFailed as exc:
        r = exc.report
    except (DadimError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(r, AsdimWitness):
        return "read"
    r = r[2] if isinstance(r, tuple) else r
    return r.accepted, r.code


def _exit_codes(space, data, read):
    """The exit codes of ``asdim-verify`` and ``bridge`` on the files, with
    ``read`` as the CLI's witness reader."""
    with tempfile.TemporaryDirectory() as d:
        sp, aw = Path(d, "space.json"), Path(d, "aw.json")
        sp.write_text(json.dumps(space))
        aw.write_text(json.dumps(data))
        quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
        with mock.patch.object(cli, "asdim_witness_from_json", read), quiet[0], quiet[1]:
            return [cli.main([c, "--space", str(sp), "--witness", str(aw)])
                    for c in ("asdim-verify", "bridge")]


def _text(w):
    """The written text of a witness, or the type of the error writing
    it raises (sorting a frozenset of ints and strings)."""
    try:
        return "".join(certify._indented(certify._normalize(w.to_json())))
    except TypeError as exc:
        return type(exc).__name__


@settings(max_examples=150, deadline=None)
@given(witness_files())
def test_reader_matches_the_point_reader_oracle(drawn):
    """On mutated grid witness files, the ``PointRows`` reader and the
    point-by-point reader it replaced give the verifier and the bridge the
    same verdict and code, the two commands the same exit codes, and the
    same written text; an unmutated file is written back byte for byte."""
    space, data = drawn
    X = space_from_json(space)
    read = _outcome(lambda: asdim_witness_from_json(data))
    assert read == _outcome(lambda: asdim_witness_from_json_oracle(data))
    if read != "read":
        return
    new, old = asdim_witness_from_json(data), asdim_witness_from_json_oracle(data)
    assert _outcome(lambda: verify_asdim_witness(X, new)) == _outcome(
        lambda: verify_asdim_witness(X, old))
    assert _outcome(lambda: bridge_to_groupoid(X, new)) == _outcome(
        lambda: bridge_to_groupoid(X, old))
    assert _exit_codes(space, data, asdim_witness_from_json) == _exit_codes(
        space, data, asdim_witness_from_json_oracle)
    assert _text(new) == _text(old)
    if verify_asdim_witness(X, new).accepted and not any(
        isinstance(c, frozenset) for fam in new.families for c in fam
    ):
        again = asdim_witness_from_json(json.loads(_text(new)))
        assert _text(again) == _text(new)


@pytest.mark.parametrize("R", [-1, -5])
def test_reader_refuses_a_negative_scale(R):
    """No two points, nor a point and itself, lie within a negative R, so
    a witness at such a scale is refused, not half-checked; R = 0 stays."""
    fams = [[[0, 1]], [[2, 3]]]
    assert asdim_witness_from_json({"scale_R": 0, "bound_S": 1, "families": fams}).scale_R == 0
    with pytest.raises(InvalidInput, match="scale_R"):
        asdim_witness_from_json({"scale_R": R, "bound_S": 1, "families": fams})


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
@given(SPACES, st.integers(-1, 13), st.data())
def test_lattice_tube_blocks_match_union_find(X, R, data):
    """Each color's R-components, labelled over its cells by the one shift
    kernel (``Offsets.components`` on the lattice's R-ball, through the
    verifier's ``_box_labels``), against the union-find of the color's
    pairs within R: disjoint colors holding every point share one layer,
    overlapping ones take a layer each, and each cell carries its block's
    least cell.  R runs past the box's reach, and for R < 0 no cell is on
    a block."""
    if data.draw(st.booleans()):
        n = len(X.points)
        owner = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        colors = [frozenset(p for p, o in zip(X.points, owner) if o == i) for i in range(3)]
    else:
        colors = data.draw(st.lists(st.frozensets(st.sampled_from(X.points)), max_size=2))
        colors.append(frozenset(X.points))  # the cover check has put every point in a color
    lat = X.lattice
    cells = [lat.cells_of(c) for c in colors]
    for color, labels in zip(colors, _box_labels(lat.ball(R), cells)):
        got: dict = {}
        for p, least in zip(color, labels.tolist()):
            if least >= 0:
                got.setdefault(lat.point(least), set()).add(p)
        pairs = [(p, q) for p in color for q in color if X.dist(p, q) <= R]
        assert got == {min(c): set(c) for c in _connected_components(pairs)}


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


def as_rows(cls):
    """The ``PointRows`` of a class of int points, as the reader builds it,
    or the class itself when it holds another point."""
    pts = sorted(cls, key=repr)
    rows = PointRows.read([list(p) if isinstance(p, tuple) else p for p in pts])
    return cls if rows is None else rows


@settings(max_examples=100, deadline=None)
@given(grid_witnesses())
def test_array_paths_match_the_per_point_oracles_on_point_rows(drawn):
    """With each class of int points a ``PointRows``, as read from JSON,
    the array paths still report as the ball scan and the union-find do,
    and accept or reject as they do on the frozensets of the points, with
    the same code, and with the same report where it names no point of
    a class (a separation fault names the first in the class's order)."""
    X, w = drawn
    rows = AsdimWitness(w.scale_R, w.bound_S, [list(map(as_rows, fam)) for fam in w.families])
    Y = walked(X)
    got = verify_asdim_witness(X, rows)
    assert got == verify_asdim_witness(Y, rows)
    assert _bridged(X, rows) == _bridged(Y, rows)
    want = verify_asdim_witness(X, w)
    assert (got.accepted, got.code) == (want.accepted, want.code)
    if not {"point", "points"} & set(got.details):
        assert got == want


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
        generate_subgroupoid(G, seed_in_color(G, TubeArrows(r), frozenset(c))) for c in colors
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


@settings(max_examples=100, deadline=None)
@given(tube_witnesses(), st.randoms(use_true_random=False))
@example((Grid1dSpace(0, 9), GroupoidDadWitness(
    TubeArrows(1), [frozenset({0, 1, 2, 3, 4, 99}), frozenset(range(5, 10))], [None, None]),
    5, None), random.Random(1))
def test_tube_check_on_the_bridge_views_reports_alike(drawn, rng):
    """The bridge hands the tube check each color as its classes read as
    one set and its declared blocks as a set of those classes, each class
    of int points a ``PointRows``: so given, the check reports as it does
    on the frozensets, naming the same points."""
    X, witness, radius, bound = drawn
    lat = X.lattice

    def parts(color):
        """The color cut into up to three classes at random cells."""
        pts = sorted(color, key=repr)
        cuts = sorted(rng.sample(range(len(pts) + 1), min(2, len(pts) + 1)))
        return [as_rows(frozenset(pts[a:b])) for a, b in zip([0, *cuts], [*cuts, len(pts)])]

    views = GroupoidDadWitness(
        witness.K,
        [coarse._Color(parts(c)) for c in witness.colors],
        [BlockArrows(coarse._Blocks(map(as_rows, d.blocks))) if isinstance(d, BlockArrows) else d
         for d in witness.generated],
    )
    G = TubePairGroupoid(X, radius)
    assert lat is not None
    assert verify_groupoid_dad(G, views, bound) == verify_groupoid_dad(G, witness, bound)


@st.composite
def bridge_witnesses(draw):
    """A grid and an asdim witness for the bridge: the constructed one at
    its scale or a smaller one, with S as built or large, then one change.
    A merged class, a smaller scale and a split class can pass the coarse
    checks and fail the tube check; an empty class passes both."""
    X = draw(GRIDS)
    R = draw(st.integers(1, 4))
    w = construct_grid_witness(X, R)
    fams = [[set(c) for c in fam] for fam in w.families]
    scale = draw(st.sampled_from([R, R - 1, 0]))
    S = draw(st.sampled_from([w.bound_S, 200]))
    fam = draw(st.sampled_from([f for f in fams if f]))
    change = draw(st.sampled_from(["none", "merge", "split", "empty", "float", "move", "drop"]))
    if change == "merge" and len(fam) > 1:
        fam[0] |= fam.pop()
    elif change == "split" and len(fam[0]) > 1:
        fam.append({max(fam[0])})
        fam[0].discard(max(fam[0]))
    elif change == "empty":
        fam.insert(draw(st.integers(0, len(fam))), set())
    elif change == "float":
        p = draw(st.sampled_from(sorted(fam[0])))
        fam[0] = (fam[0] - {p}) | {_equal_non_int(p, "float")}
    elif change == "move" and sum(map(bool, fams)) > 1:
        p = draw(st.sampled_from(sorted(fam[0])))
        fam[0].discard(p)
        draw(st.sampled_from([f for f in fams if f and f is not fam]))[0].add(p)
    elif change == "drop":
        fam[0].discard(draw(st.sampled_from(sorted(fam[0]))))
    return X, AsdimWitness(scale, S, [[frozenset(c) for c in f] for f in fams])


@settings(max_examples=150, deadline=None)
@given(bridge_witnesses())
def test_bridge_reports_as_the_standalone_verifier(drawn):
    """The bridge hands its asdim check's cells to its tube check; that
    changes no verdict and no message.  Its report, or the one it raises,
    is the asdim report on a rejected witness, and otherwise that of
    ``verify_groupoid_dad``, reading every point itself, on the witness
    it builds: K the R-tube, the colors the families' unions, and their
    non-empty classes as declared blocks, bounded by the largest."""
    X, w = drawn
    try:
        G, gw, got = bridge_to_groupoid(X, w)
    except VerificationFailed as exc:
        got, gw = exc.report, None
    asdim = verify_asdim_witness(X, w)
    if not asdim:
        assert got == asdim
        return
    built = GroupoidDadWitness(
        TubeArrows(w.scale_R),
        [frozenset().union(*fam) for fam in w.families],
        [BlockArrows(frozenset(c for c in fam if c)) for fam in w.families],
    )
    if gw is not None:
        assert (gw.K, gw.colors, gw.generated) == (built.K, built.colors, built.generated)
    bound = max(map(len, built.generated), default=0)
    assert got == verify_groupoid_dad(TubePairGroupoid(X, w.bound_S), built, bound)
