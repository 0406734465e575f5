"""Finite groupoids, subgroupoid generation, and the groupoid verifier."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadim import groupoid
from dadim.coarse import Grid1dSpace, TableMetricSpace, _Blocks
from dadim.errors import InvalidInput, NotAnAction
from dadim.groupoid import (
    BlockArrows,
    FiniteGroupoid,
    GroupoidDadWitness,
    Moves,
    Offsets,
    TransformationGroupoid,
    TubeArrows,
    TubePairGroupoid,
    _closure,
    _edge_components,
    _seeds,
    block_union_pair_groupoid,
    cyclic_rotation_groupoid,
    generate_subgroupoid,
    groupoid_from_json,
    pair_groupoid,
    symmetrized,
    transformation_groupoid,
    verify_groupoid_dad,
)
from dadim.nerve import (
    SimplicialComplex,
    SimplicialPoint,
    check_equivariance,
    dad_witness_from_blr,
    inner_radius,
)
from dadim.pipeline import project_witness_to_quotient
from dadim.symbolic import Odometer
from dadim.witness import DadWitness, construct_minimal_z_witness, verify_dad_witness
from helpers import (
    FiniteGroup,
    _connected_components,
    action_groupoid_oracle,
    cyclic_group,
    holds,
    seed_in_color,
    symmetrize_arrows,
    verify_action_oracle,
    whole,
    z2_pair_groupoid_json,
)


def least_labels(n: int, comps) -> np.ndarray:
    """Components as the kernel's labels: each node's least component mate,
    -1 for a node in none."""
    out = np.full(n, -1, np.intp)
    for c in comps:
        out[list(c)] = min(c)
    return out


def oracle_blocks(G, arrows) -> frozenset:
    """The components of the graph with an edge s(a) -- r(a) per arrow, by
    the dict union-find."""
    edges = ((G.source(a), G.range(a)) for a in arrows)
    return frozenset(map(frozenset, _connected_components(edges)))


def oracle_orbits(G) -> tuple:
    edges = ((G.source(a), G.range(a)) for a in G.arrows)
    return tuple(map(frozenset, _connected_components(edges, G.units)))


def held(G, gen):
    """The arrows of G that a block-form subgroupoid holds."""
    return frozenset(a for a in G.arrows if holds(gen, G, a))


def test_transformation_groupoid_examples():
    G2 = transformation_groupoid(2, [0, 1])
    assert len(G2.arrows) == 4 and G2.is_free()

    # the trivial group on five points, as an explicit groupoid
    trivial = action_groupoid_oracle(
        FiniteGroup((0,), lambda a, b: 0, lambda a: 0, 0), range(5), lambda g, x: x
    )
    assert len(trivial.arrows) == 5
    assert all(trivial.source(a) == trivial.range(a) for a in trivial.arrows)

    G12 = cyclic_rotation_groupoid(12)
    assert len(G12.arrows) == 144 and G12.is_free()
    # transitive: one orbit
    seeds = [(1, x) for x in range(12)]
    assert len(generate_subgroupoid(G12, seeds)) == 144
    # a group part or a point outside 0..11 is no arrow
    for arrow in [(12, 0), (-1, 0), (0, 12), (0, -1), (1.5, 0), (0, "a")]:
        with pytest.raises(KeyError):
            G12.range(arrow)
    # the rotation acts on the residues 0..n-1 in order, and on no other points
    for n, points in [(2, [0, 0]), (3, [5, 5, 5]), (3, [0, 1]), (2, [0, 1, 2]),
                      (3, [2, 1, 0]), (2, ["p1", "p0"])]:
        with pytest.raises(NotAnAction):
            transformation_groupoid(n, points)


FOREIGN_ARROWS = st.one_of(
    st.tuples(st.sampled_from([-1, 64, 2**70]), st.integers(0, 63)),
    st.tuples(st.integers(0, 63), st.sampled_from([-1, 64, 2**70])),
    st.tuples(st.sampled_from([1.5, "a", None]), st.integers(0, 63)),
)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_moves_are_the_symmetrized_arrows(n, data):
    """moves(E) is the symmetrization of the E-arrows with every unit arrow
    added (they are already there unless E is empty), and is closed under
    inverse; E is read in Z, and ``symmetrized`` agrees with the oracle
    group's on E reduced mod n.  As a set it behaves as the frozenset of
    those arrows: the same ``len``, the same members, ``==`` both ways,
    set operators that give frozensets, and iteration offset by offset,
    then by residue; ``in`` holds for its
    arrows alone among G's, and is False, raising nothing, for an arrow
    outside Z/n, a pair of no ints, or no pair at all."""
    G = cyclic_rotation_groupoid(n)
    E = data.draw(st.lists(st.integers(-2 * n, 2 * n), max_size=3))
    reduced = [e % n for e in E]
    K = G.moves(E)
    raw = frozenset((e, x) for e in reduced for x in G.units)
    oracle = symmetrize_arrows(G, raw) | {G.unit_arrow(x) for x in G.units}
    assert K == oracle and oracle == K and not K != oracle
    assert len(K) == len(oracle) and set(K) == oracle
    assert list(K) == sorted(oracle)
    assert K & oracle == oracle and K - oracle == frozenset() and K | {(0, 0)} == oracle | {(0, 0)}
    assert all(G.inverse(a) in K for a in K)
    assert [a in K for a in G.arrows] == [a in oracle for a in G.arrows]
    for a in [data.draw(FOREIGN_ARROWS), (0,), (0, 0, 0), [0, 0], ([0], 0), 3, None]:
        assert a not in K
    assert symmetrized(n, E) == cyclic_group(n).symmetrized(reduced)


@pytest.mark.parametrize("n", range(1, 13))
def test_rotation_formula_is_a_free_action(n):
    """The rotation's residue arithmetic passes the exhaustive action
    check, and every arrow (g, x) ends at x + g mod n."""
    G = cyclic_rotation_groupoid(n)
    verify_action_oracle(cyclic_group(n), G.units, lambda g, x: G.range((g, x)))
    assert G.is_free() and len(G.arrows) == n * n
    assert G.units == tuple(range(n)) and G.orbits == (frozenset(range(n)),)
    # n and what derives from it: no point labels, no lookup tables
    assert set(vars(G)) <= {"n", "units", "unit_set", "_free", "arrows", "orbits"}
    assert all(G.range((g, x)) == (x + g) % n for g in range(n) for x in range(n))


def test_generate_subgroupoid_examples():
    P3 = pair_groupoid([1, 2, 3])
    assert generate_subgroupoid(P3, []) == BlockArrows(frozenset())
    assert generate_subgroupoid(P3, [(1, 2), (2, 3)]).blocks == {frozenset({1, 2, 3})}
    assert generate_subgroupoid(P3, [(2, 2)]).blocks == {frozenset({2})}
    for seed in ([], [(1, 2), (2, 3)], [(2, 2)], [(1, 3)]):
        gen, closure = generate_subgroupoid(P3, seed), _closure(P3, seed)
        assert held(P3, gen) == closure and len(gen) == len(closure)


@settings(max_examples=40, deadline=None)
@given(
    seed1=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=6),
    seed2=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=6),
)
def test_generation_is_a_closure_operator(seed1, seed2):
    G = cyclic_rotation_groupoid(10)
    s1 = {(g % 10, x) for g, x in seed1}
    s2 = {(g % 10, x) for g, x in seed2}
    g1 = held(G, generate_subgroupoid(G, s1))
    assert g1 == _closure(G, s1)
    # extensive, idempotent, monotone
    assert s1 <= g1
    assert held(G, generate_subgroupoid(G, g1)) == g1
    if s1 <= s2:
        assert g1 <= held(G, generate_subgroupoid(G, s2))
    assert g1 <= held(G, generate_subgroupoid(G, s1 | s2))


@settings(max_examples=60, deadline=None)
@given(
    radius=st.integers(0, 7),
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8),
    chords=st.none() | st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
    color=st.frozensets(st.integers(0, 7)),
)
def test_tube_blocks_match_worklist_closure(radius, pairs, chords, color):
    """Block form on the tube pair groupoid, of a grid or of an edge-list
    space off the lattice (a path with chords), against the worklist
    closure on the explicit pair groupoid of the same points and against
    the union-find; a color's tube seed generates the union-find
    components of its pairs within the radius."""
    if chords is None:
        X = Grid1dSpace(0, 7)
    else:
        X = TableMetricSpace.from_edges(range(8), [(i, i + 1) for i in range(7)] + chords)
    G = TubePairGroupoid(X, radius)
    seed = [(x, y) for x, y in pairs if X.dist(x, y) <= radius]
    blocks = generate_subgroupoid(G, seed)
    P = pair_groupoid(X.points)
    closure = _closure(P, seed)
    assert held(P, blocks) == closure
    assert len(blocks) == len(closure)
    assert blocks.blocks == oracle_blocks(G, seed)
    within = [(x, y) for x in color for y in color if X.dist(x, y) <= radius]
    want = frozenset(map(frozenset, _connected_components(within, color)))
    assert generate_subgroupoid(G, seed_in_color(G, TubeArrows(radius), color)).blocks == want


@st.composite
def edge_lists(draw):
    """n <= 40 nodes and an edge list on them: none at all, loops, repeated
    edges and nodes on no edge all come up."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges += [(x, x) for x in draw(st.lists(node, max_size=4))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    return n, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
@example(case=(5, []))
@example(case=(3, [(1, 1), (2, 2), (1, 1)]))
def test_edge_components_match_the_union_find_oracle(case):
    """The hook-and-jump kernel against the dict union-find: each node's
    least component mate, -1 for a node on no edge."""
    n, edges = case
    a = np.array([x for x, _ in edges], np.intp)
    b = np.array([y for _, y in edges], np.intp)
    got = _edge_components(n, a, b)
    assert got.tolist() == least_labels(n, _connected_components(edges)).tolist()


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 64), data=st.data())
@example(q=1, data=None)
@example(q=2, data=None)
def test_stacked_layer_components_match_the_union_find_oracle(q, data):
    """The shift kernel, ``Moves.components``, on a (layers, q) stack of
    masks, each layer its own graph x -- x + g over the offsets g joining
    two residues of its mask, against the union-find of each layer alone.
    The offsets may omit 0 (a residue on no edge is in no block), hold
    both g and q - g, or hold g with 2g = q; q = 1 and q = 2 come up."""
    if data is None:  # every offset on every mask of Z/1 or Z/2
        offsets = np.arange(q)
        masks = np.array([[(m >> x) & 1 for x in range(q)] for m in range(2**q)], bool)
    else:
        offsets = data.draw(st.sets(st.integers(0, q - 1), max_size=4))
        if data.draw(st.booleans()):
            offsets |= {-g % q for g in offsets}
        if q % 2 == 0 and data.draw(st.booleans()):
            offsets.add(q // 2)
        offsets = np.array(sorted(offsets), np.int64)
        layers = data.draw(st.integers(1, 4))
        row = st.lists(st.booleans(), min_size=q, max_size=q)
        masks = np.array(data.draw(st.lists(row, min_size=layers, max_size=layers)), bool)
    got = Moves(q, offsets).components(masks)
    assert got.shape == masks.shape
    for mask, row in zip(masks, got):
        edges = [(x, (x + g) % q) for g in offsets.tolist() for x in range(q)
                 if mask[x] and mask[(x + g) % q]]
        assert row.tolist() == least_labels(q, _connected_components(edges)).tolist()


def draw_k(G, data):
    """A form of K on Z/q, with its name: ``moves(E)``, its arrows as a
    frozenset or as a shuffled list, or a partial K, a random set of
    arrows as a list or a frozenset with perhaps one foreign arrow (an int
    past q or past int64, or no int at all)."""
    q = G.n
    form = data.draw(st.sampled_from(["moves", "frozenset", "list", "partial"]))
    K = G.moves(data.draw(st.lists(st.integers(-2 * q, 2 * q), max_size=3)))
    if form == "frozenset":
        K = frozenset(K)
    elif form == "list":
        K = data.draw(st.permutations(list(K)))
    elif form == "partial":
        arrow = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        K = data.draw(st.lists(arrow, max_size=3 * q, unique=True))
        if data.draw(st.booleans()):
            K.insert(data.draw(st.integers(0, len(K))), data.draw(FOREIGN_ARROWS))
        K = data.draw(st.sampled_from([K, frozenset(K)]))
    return form, K


def read_as_the_verifier(G, K):
    """K as ``verify_groupoid_dad`` reads it on the rotation."""
    moves = Moves.read(G.n, K)
    return K if moves is None else moves


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 64), data=st.data())
def test_rotation_seeds_match_the_per_arrow_scan(q, data):
    """The Z/q seeds of a few colors from K as the verifier reads it,
    against the scan of K as drawn (``draw_k``) with one ``source`` and one
    ``range`` call per arrow and color: the same arrows, the same blocks
    generated from them, and the same ``KeyError`` at the same color for
    an arrow outside Z/q whose source lies in the color (others are
    skipped, as the scan skips them).  The three forms of ``moves(E)`` are
    read as the same ``Moves`` and seeded from its ``to`` rows, in the
    order of the scan of ``moves(E)``; a partial K is read only when it
    happens to be a union of full classes."""
    G = cyclic_rotation_groupoid(q)
    form, K = draw_k(G, data)
    colors = data.draw(st.lists(st.frozensets(st.integers(-1, q)), min_size=1, max_size=3))
    read = read_as_the_verifier(G, K)
    if form != "partial":
        assert isinstance(read, Moves) and read == frozenset(K) and (form != "moves" or read is K)
    elif isinstance(read, Moves):
        assert set(read) == set(K)

    def outcomes(seeds):
        out = []
        try:
            for seed in seeds:
                rows = [tuple(a) for a in seed.tolist()] if isinstance(seed, np.ndarray) else seed
                out.append((rows, generate_subgroupoid(G, seed)))
        except KeyError as exc:
            out.append(exc.args)
        return out

    got = outcomes(_seeds(G, read, colors))
    want = outcomes([a for a in K if G.source(a) in c and G.range(a) in c] for c in colors)
    if form == "moves":
        assert got == want
    in_any_order = [(sorted(o[0], key=repr), o[1]) if len(o) == 2 else o for o in want]
    assert [(sorted(o[0], key=repr), o[1]) if len(o) == 2 else o for o in got] == in_any_order


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 40), data=st.data())
def test_verifier_reports_alike_for_every_form_of_k(q, data):
    """``verify_groupoid_dad`` on Z/q, K drawn in each form of ``draw_k``,
    gives the report (or raises the ``KeyError``) of the per-arrow path:
    the same arrows as a list, with ``Moves.read`` patched to refuse every
    K, so that the cover check scans K for s(K) u r(K) and each color
    scans it for its seed.  The three forms of ``moves(E)`` are read once
    and never scanned: ``range`` is not called.  The colors are arcs that
    cover Z/q, perhaps with a residue dropped from the first or a unit
    outside Z/q added to the last; each declared subgroupoid is none, the
    one that ``moves([1])`` generates in the color, or the empty one; the
    size bound is none or drawn."""
    G = cyclic_rotation_groupoid(q)
    form, K = draw_k(G, data)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, q - 1)), max_size=3)) - {q})
    colors = [frozenset(range(a, b)) for a, b in zip([0, *cuts], [*cuts, q])]
    fault = data.draw(st.sampled_from(["none", "gap", "stray"]))
    if fault == "gap":
        colors[0] -= {data.draw(st.integers(0, q - 1))}
    elif fault == "stray":
        colors[-1] |= {data.draw(st.sampled_from([-1, q]))}
    declared = []
    for c in colors:
        kind = data.draw(st.sampled_from(["none", "generated", "empty"]))
        if kind == "none":
            declared.append(None)
        elif kind == "generated":
            arrows = [a for a in G.moves([1]) if G.source(a) in c and G.range(a) in c]
            declared.append(generate_subgroupoid(G, arrows))
        else:
            declared.append(BlockArrows(frozenset()))
    bound = data.draw(st.one_of(st.none(), st.integers(0, 2 * q * q)))

    def report(K):
        try:
            return verify_groupoid_dad(G, GroupoidDadWitness(K, colors, declared), bound)
        except KeyError as exc:
            return exc.args

    scanned = []
    per_arrow = TransformationGroupoid.range
    with mock.patch.object(TransformationGroupoid, "range",
                           lambda self, a: scanned.append(a) or per_arrow(self, a)):
        got = report(K)
    assert form == "partial" or not scanned
    with mock.patch.object(Moves, "read", lambda n, K: None):
        assert got == report(list(K))


def box_and_scan(space):
    """The box path and the per-arrow path of one question on 0..7: Z/8
    with K = ``moves([1])``, read as its ``Moves`` and as a list that
    ``Moves.read`` refuses; or the tube of radius 1 on the grid 0..7 and
    on the same path as an edge-list space, off the lattice."""
    if space == "rotation":
        G = cyclic_rotation_groupoid(8)

        def scan(w, bound):
            with mock.patch.object(Moves, "read", lambda n, K: None):
                return verify_groupoid_dad(G, GroupoidDadWitness(list(w.K), w.colors, w.generated), bound)

        return G, G.moves([1]), scan
    path = TableMetricSpace.from_edges(range(8), [(i, i + 1) for i in range(7)])
    return (TubePairGroupoid(Grid1dSpace(0, 7), 10), TubeArrows(1),
            lambda w, bound: verify_groupoid_dad(TubePairGroupoid(path, 10), w, bound))


DECLARED = {  # color 0 = {0, 1, 3, 4}, whose blocks are {0, 1} and {3, 4}
    "honest": [{0, 1}, {3, 4}],
    "a unit of the other color added": [{0, 1, 2}, {3, 4}],
    "two blocks merged": [{0, 1, 3, 4}],
    "a unit moved to the other block": [{0, 1, 3}, {4}],
    "a unit swapped for one outside": [{0, 2}, {3, 4}],
    "an empty block last": [{0, 1, 3, 4}, set()],
    "an empty block first": [set(), {0, 1, 3, 4}],
    "a unit that is none": [{0, 1}, {3, 99}],
}


@pytest.mark.parametrize("space", ["rotation", "grid"])
@pytest.mark.parametrize("fault", sorted(DECLARED))
def test_box_paths_refuse_declared_blocks_that_are_not_the_components(space, fault):
    """The declared blocks of a color are matched on cells against the
    shift kernel's components: each way of getting them wrong is refused
    with NotClosed, as the per-arrow path refuses it, and the honest ones
    pass on both.  The blocks are held in the order given (as the coarse
    bridge holds its classes)."""
    G, K, scan = box_and_scan(space)
    colors = [frozenset({0, 1, 3, 4}), frozenset({2, 5, 6, 7})]
    declared = BlockArrows(_Blocks(map(frozenset, DECLARED[fault])))
    w = GroupoidDadWitness(K, colors, [declared, None])
    report = verify_groupoid_dad(G, w, 64)
    assert report == scan(w, 64)
    assert report.accepted == (fault == "honest")
    assert report.accepted or (report.code, report.details) == ("NotClosed", {"color": 0})


@pytest.mark.parametrize("offsets", [[], [1]])
def test_rotation_k_without_offset_zero(offsets):
    """K on Z/5 without the offset 0: a residue on no arrow of K inside its
    color is in no block, and without any offset s(K) u r(K) is empty, so
    the colors need cover nothing; both paths report alike."""
    G = cyclic_rotation_groupoid(5)
    K = [(g, x) for g in offsets for x in range(5)]
    colors = [frozenset({0, 2}), frozenset({1, 3, 4})] if offsets else [frozenset({1})]
    declared = [BlockArrows(frozenset()), BlockArrows(frozenset({frozenset({3, 4})}))][:len(colors)]
    w = GroupoidDadWitness(K, colors, declared)
    report = verify_groupoid_dad(G, w, None)
    with mock.patch.object(Moves, "read", lambda n, K: None):
        assert report == verify_groupoid_dad(G, w, None)
    assert report.accepted, report
    assert report.details["sizes"] == ([0, 4] if offsets else [0])
    gap = GroupoidDadWitness(K, colors[1:], declared[1:])
    assert verify_groupoid_dad(G, gap, None).accepted == (not offsets)


def z2_involution_data():
    # Z/2 as a one-unit groupoid: unit arrow 0 and an involution 1
    return {
        "units": ["u"],
        "arrows": [{"id": 0, "s": "u", "r": "u"}, {"id": 1, "s": "u", "r": "u"}],
        "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "inverse": {"0": 0, "1": 1},
    }


def z4_action(space, act):
    return action_groupoid_oracle(cyclic_group(4), space, act)


@st.composite
def free_groupoids(draw):
    kind = draw(st.sampled_from(["cyclic", "blocks", "orbits"]))
    if kind == "cyclic":
        return cyclic_rotation_groupoid(draw(st.integers(1, 12)))
    if kind == "blocks":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        return block_union_pair_groupoid(
            [list(range(b, b + n)) for b, n in zip(starts, sizes)]
        )
    # Z/4 rotating the first coordinate of Z/4 x {0, 1}: two orbits
    return z4_action(
        [(i, j) for i in range(4) for j in (0, 1)],
        lambda g, x: ((x[0] + g) % 4, x[1]),
    )


@settings(max_examples=80, deadline=None)
@given(G=free_groupoids(), data=st.data())
def test_free_generation_matches_worklist_closure(G, data):
    """The components path against the worklist closure and the union-find
    on free groupoids (Z/q, and explicit ones), and the orbits, in order,
    against the union-find over every arrow."""
    assert G.is_free()
    seed = data.draw(st.sets(st.sampled_from(G.arrows), max_size=8))
    gen, closure = generate_subgroupoid(G, seed), _closure(G, seed)
    assert isinstance(gen, BlockArrows)
    assert held(G, gen) == closure and len(gen) == len(closure)
    assert gen.blocks == oracle_blocks(G, seed)
    assert G.orbits == oracle_orbits(G)


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(["z4_via_z2", "z2_involution"]), data=st.data())
def test_isotropy_generation_keeps_the_worklist(which, data):
    """With isotropy an arrow is not fixed by its endpoints, so generation
    must not take the components path."""
    if which == "z4_via_z2":
        G = z4_action([0, 1], lambda g, x: (x + g) % 2)
        seeded, iso = [(1, 0), (1, 1)], (2, 0)
    else:
        G = groupoid_from_json(z2_involution_data())
        seeded, iso = [1], 1
    assert not G.is_free()
    assert G.orbits == oracle_orbits(G)
    seed = data.draw(st.sets(st.sampled_from(G.arrows), max_size=4))
    assert generate_subgroupoid(G, seed) == _closure(G, seed)
    gen = generate_subgroupoid(G, seeded)
    assert isinstance(gen, frozenset)
    assert iso in gen and gen == _closure(G, seeded)
    # a lone unit generates no isotropy, although its component holds some
    unit = G.unit_arrow(G.units[0])
    assert generate_subgroupoid(G, [unit]) == frozenset({unit})


def test_verify_groupoid_dad_block_example():
    blocks = [[0, 1, 2], [3, 4], [5]]
    B = block_union_pair_groupoid(blocks)
    declared = BlockArrows(frozenset(map(frozenset, blocks)))
    w = GroupoidDadWitness(frozenset(B.arrows), [frozenset(B.units)], [declared])
    report = verify_groupoid_dad(B, w, 100)
    assert report.accepted  # locally finite: one color suffices
    merged = BlockArrows(frozenset({frozenset(range(5)), frozenset({5})}))
    w = GroupoidDadWitness(frozenset(B.arrows), [frozenset(B.units)], [merged])
    report = verify_groupoid_dad(B, w, 100)
    assert not report.accepted and report.code == "NotClosed"


def test_verify_groupoid_dad_arcs():
    G = cyclic_rotation_groupoid(12)
    K = frozenset((g % 12, x) for g in (-1, 0, 1) for x in range(12))
    arcs = [frozenset(range(0, 6)), frozenset(range(6, 12))]
    gens = [
        generate_subgroupoid(
            G, [a for a in K if G.source(a) in c and G.range(a) in c]
        )
        for c in arcs
    ]
    w = GroupoidDadWitness(K, arcs, gens)
    assert verify_groupoid_dad(G, w, 100).accepted
    # generated subgroupoids are pair-groupoid-sized over the arcs
    assert all(len(g) == 36 for g in gens)

    single = GroupoidDadWitness(K, [frozenset(range(12))], [None])
    report = verify_groupoid_dad(G, single, 100)
    assert not report.accepted and report.code == "SizeExceeded"


def test_verify_groupoid_dad_cover_gap():
    G = cyclic_rotation_groupoid(6)
    K = frozenset((1, x) for x in range(6)) | frozenset((0, x) for x in range(6))
    w = GroupoidDadWitness(K, [frozenset({0, 1})], [None])
    report = verify_groupoid_dad(G, w, 100)
    assert not report.accepted and report.code == "CoverGap"


def test_verify_groupoid_dad_not_closed():
    G = cyclic_rotation_groupoid(6)
    K = G.moves([1])
    colors = [frozenset(range(6))]
    declared = [frozenset({(1, 0)})]  # not a subgroupoid
    w = GroupoidDadWitness(K, colors, declared)
    report = verify_groupoid_dad(G, w, 1000)
    assert not report.accepted and report.code == "NotClosed"


def test_action_groupoid_verifier_consistency():
    """Symbolic acceptance must match the transformation-groupoid check,
    with identical element sets, on the finite quotient."""
    dyadic = Odometer([2], depth_limit=12)
    w = construct_minimal_z_witness(dyadic, 1)
    assert verify_dad_witness(dyadic, w).accepted

    depth = 6
    q, colors_q = project_witness_to_quotient(dyadic, w, depth)
    G = cyclic_rotation_groupoid(q)
    K = G.moves(e % q for e in w.generator_set)
    generated = [
        generate_subgroupoid(
            G, [a for a in K if G.source(a) in c and G.range(a) in c]
        )
        for c in colors_q
    ]
    M = w.meta["M"]
    gw = GroupoidDadWitness(K, colors_q, generated)
    assert verify_groupoid_dad(G, gw, (2 * (M + 1) + 1) * q).accepted
    for gen, F in zip(generated, w.finite_sets):
        assert {a[0] for a in held(G, gen)} == {n % q for n in F}

    # converse direction: a rejected symbolic witness is rejected here too
    one_color = DadWitness(
        colors=[whole(dyadic)], generator_set=(-1, 0, 1),
        finite_sets=[frozenset({0})],
    )
    assert not verify_dad_witness(dyadic, one_color, 100).accepted
    single = GroupoidDadWitness(K, [frozenset(range(q))], [None])
    assert not verify_groupoid_dad(G, single, 100).accepted


# -- the rotation verifier checks declared blocks with its own kernel -------


def dyadic_stage2():
    """Stage 2 of ``dadim pipeline`` on the dyadic odometer at quotient
    depth 6, as the pipeline builds it: K = ``G.moves(E)``, each color's
    declared blocks by ``generate_subgroupoid``; (G, witness, size bound)."""
    dyadic = Odometer([2], depth_limit=12)
    w = construct_minimal_z_witness(dyadic, 1)
    q, colors = project_witness_to_quotient(dyadic, w, 6)
    G = cyclic_rotation_groupoid(q)
    K = G.moves(w.generator_set)
    generated = [generate_subgroupoid(G, seed) for seed in _seeds(G, K, colors)]
    return G, GroupoidDadWitness(K, colors, generated), (2 * (w.meta["M"] + 1) + 1) * q


def blr_ring_z96():
    """The corpus case ``blr_ring_z96`` through ``dad_witness_from_blr``,
    which builds the declared blocks by ``generate_subgroupoid``."""
    n, t = 96, Fraction(2, 5)
    G = cyclic_rotation_groupoid(n)
    C = SimplicialComplex(range(n), [{i, (i + 1) % n} for i in range(n)])
    f = {x: SimplicialPoint({x: 1 - t, (x + 1) % n: t}) for x in range(n)}
    eq = check_equivariance(f, n, symmetrized(n, [1]), inner_radius(C.dimension))
    res = dad_witness_from_blr(f, [1], C, G, eq)
    return G, res.groupoid_witness, len(res.moving_set) * n


def merged(label: np.ndarray) -> np.ndarray:
    """Least-member labels with the two least components made one."""
    label = label.copy()
    roots = np.flatnonzero(label == np.arange(len(label)))
    if len(roots) > 1:
        label[label == roots[1]] = roots[0]
    return label


def edges_split_by_parity(n, a, b):
    keep = a % 2 == b % 2
    return _edge_components(n, a[keep], b[keep])


def edges_merge_two(n, a, b):
    return merged(_edge_components(n, a, b))


def edges_drop_one(n, a, b):
    """Without the first edge that joins two nodes, in both directions."""
    k = np.flatnonzero(a != b)[:1]
    if not k.size:
        return _edge_components(n, a, b)
    gone = ((a == a[k]) & (b == b[k])) | ((a == b[k]) & (b == a[k]))
    return _edge_components(n, a[~gone], b[~gone])


SHIFT_COMPONENTS = Offsets.components
SHIFT_PAIRS = Offsets.pairs.func


def shifts_split_by_parity(self, group):
    if group.dtype == bool:
        group = np.where(group, 0, -1)
    return SHIFT_COMPONENTS(self, np.where(group >= 0, 2 * group + np.arange(self.size) % 2, -1))


def shifts_merge_two(self, group):
    labels = SHIFT_COMPONENTS(self, group)
    return np.array([merged(row) for row in labels.reshape(-1, self.size)]).reshape(labels.shape)


def shifts_drop_one(self):
    """The first slice pair without its first cell: the edge from the
    box's first cell along the first offset."""
    (a, b), *rest = SHIFT_PAIRS(self)
    return [tuple((*p[:-1], slice(p[-1].start + 1, p[-1].stop)) for p in (a, b)), *rest]


PLANTED = {
    "parity split": (
        mock.patch.object(groupoid, "_edge_components", edges_split_by_parity),
        mock.patch.object(Offsets, "components", shifts_split_by_parity),
    ),
    "merge of two components": (
        mock.patch.object(groupoid, "_edge_components", edges_merge_two),
        mock.patch.object(Offsets, "components", shifts_merge_two),
    ),
    "dropped edge": (
        mock.patch.object(groupoid, "_edge_components", edges_drop_one),
        mock.patch.object(Offsets, "pairs", property(shifts_drop_one)),
    ),
}


@pytest.mark.parametrize("build", [dyadic_stage2, blr_ring_z96])
@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_rotation_verifier_refuses_blocks_of_a_planted_kernel_fault(build, fault):
    """The verifier on Z/q labels blocks with the shift kernel, and the
    constructors (stage 2, ``dad_witness_from_blr``) with the edge-list
    kernel of ``generate_subgroupoid``.  A fault planted in the edge-list
    kernel changes the declared blocks, and the verifier refuses them; the
    same fault planted in the shift kernel refuses the honest blocks.  On
    the Z/96 ring the one non-empty color is a single block, the whole
    cycle, which a merge or one dropped edge leaves as it is: there the
    witness stands."""
    G, honest, bound = build()
    assert verify_groupoid_dad(G, honest, bound).accepted
    edge_fault, shift_fault = PLANTED[fault]
    with edge_fault:
        G, planted, bound = build()
        report = verify_groupoid_dad(G, planted, bound)
    changed = planted.generated != honest.generated
    assert changed == (build is dyadic_stage2 or fault == "parity split")
    assert report.code in ("NotClosed", "SizeExceeded") if changed else report.accepted
    with shift_fault:
        report = verify_groupoid_dad(G, honest, bound)
    assert report.code in ("NotClosed", "SizeExceeded") if changed else report.accepted


def test_freeness_matches_bruteforce_isotropy():
    G = action_groupoid_oracle(cyclic_group(2), ["p", "q"], lambda g, x: x)
    assert not G.is_free()
    assert G.isotropy_witness() is not None
    # brute force over arrows
    iso = [
        a for a in G.arrows
        if G.source(a) == G.range(a) and a != G.unit_arrow(G.source(a))
    ]
    assert bool(iso) == (not G.is_free())


def pair_tables(pts):
    """Structure maps and composition table of the full pair groupoid."""
    arrows = tuple((x, y) for x in pts for y in pts)
    source = {a: a[1] for a in arrows}
    range_ = {a: a[0] for a in arrows}
    inverse = {a: (a[1], a[0]) for a in arrows}
    unit_arrow = {u: (u, u) for u in pts}
    compose = {}
    for x, y in arrows:
        for z in pts:
            compose[((x, y), (y, z))] = (x, z)
    return arrows, source, range_, inverse, compose, unit_arrow


def test_explicit_groupoid_axiom_checks():
    pts = (0, 1)
    arrows, source, range_, inverse, compose, unit_arrow = pair_tables(pts)
    FiniteGroupoid(pts, arrows, source, range_, inverse, compose, unit_arrow)

    bad = dict(compose)
    bad[((0, 1), (1, 0))] = (1, 1)  # wrong endpoint
    with pytest.raises(InvalidInput):
        FiniteGroupoid(pts, arrows, source, range_, inverse, bad, unit_arrow)

    missing = dict(compose)
    del missing[((0, 1), (1, 0))]
    with pytest.raises(InvalidInput):
        FiniteGroupoid(pts, arrows, source, range_, inverse, missing, unit_arrow)

    extra = dict(compose)
    extra[((0, 1), (0, 1))] = (0, 1)  # not composable
    with pytest.raises(InvalidInput):
        FiniteGroupoid(pts, arrows, source, range_, inverse, extra, unit_arrow)

    stray = dict(compose)
    stray[((0, 1), (1, 2))] = (0, 2)  # (1, 2) is not an arrow
    with pytest.raises(InvalidInput):
        FiniteGroupoid(pts, arrows, source, range_, inverse, stray, unit_arrow)


def test_axiom_check_reads_every_row_of_a_large_table():
    # 900 arrows: the missing entry sits far from the first row
    pts = tuple(range(30))
    arrows, source, range_, inverse, compose, unit_arrow = pair_tables(pts)
    FiniteGroupoid(pts, arrows, source, range_, inverse, compose, unit_arrow)
    del compose[((29, 28), (28, 27))]
    with pytest.raises(InvalidInput):
        FiniteGroupoid(pts, arrows, source, range_, inverse, compose, unit_arrow)


def test_unit_space_groupoid():
    G = block_union_pair_groupoid([[u] for u in range(4)])
    assert len(G.arrows) == 4 and G.is_free()
    singletons = BlockArrows(frozenset(frozenset({u}) for u in range(4)))
    w = GroupoidDadWitness(frozenset(G.arrows), [frozenset(G.units)], [singletons])
    assert verify_groupoid_dad(G, w, 10).accepted


def test_groupoid_file_roundtrip():
    data = z2_involution_data()
    G = groupoid_from_json(data)
    assert len(G.arrows) == 2
    assert not G.is_free()  # the involution is isotropy
    assert len(groupoid_from_json({"action": {"cyclic": 3}}).arrows) == 9
    for n in (0, -3):
        with pytest.raises(InvalidInput, match="positive order"):
            groupoid_from_json({"action": {"cyclic": n}})
        with pytest.raises(InvalidInput, match="positive order"):
            transformation_groupoid(n, [])

    broken = dict(data)
    broken["compose"] = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    with pytest.raises(InvalidInput):
        groupoid_from_json(broken)


def test_groupoid_file_needs_one_identity_per_unit():
    lonely = z2_involution_data()
    lonely["units"] = ["u", "v"]  # no arrow at v
    with pytest.raises(InvalidInput, match="unit 'v' needs exactly one"):
        groupoid_from_json(lonely)
    # both arrows of the trivial group on two labels are idempotent loops at u
    doubled = z2_involution_data()
    doubled["compose"] = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    with pytest.raises(InvalidInput, match="unit 'u' needs exactly one"):
        groupoid_from_json(doubled)


def test_groupoid_file_with_unhashable_unit():
    data = {
        "units": [{"x": 1}], "arrows": [{"id": 0, "s": {"x": 1}, "r": {"x": 1}}],
        "compose": [[0, 0, 0]], "inverse": {"0": 0},
    }
    with pytest.raises(InvalidInput, match="malformed groupoid"):
        groupoid_from_json(data)


def test_groupoid_file_reads_arrow_ids_as_integers():
    """An arrow id is a JSON integer wherever it stands, so 1.0 and true
    name no arrow; an inverse key is an id's canonical decimal text, so
    "01", " 1" and "+1" cannot name arrow 1 beside "1"."""
    assert len(groupoid_from_json(z2_involution_data()).arrows) == 2
    for key in ("01", " 1", "+1"):
        data = z2_involution_data()
        data["inverse"] = {"0": 0, key: 1, "1": 1}
        with pytest.raises(InvalidInput, match="not a canonical decimal integer"):
            groupoid_from_json(data)
    for value in (1.0, True):
        for place in ("id", "inverse", "compose"):
            data = z2_involution_data()
            if place == "id":
                data["arrows"][1]["id"] = value
            elif place == "inverse":
                data["inverse"]["1"] = value
            else:
                data["compose"][3][0] = value
            with pytest.raises(InvalidInput, match="arrow id as a JSON integer"):
                groupoid_from_json(data)


@pytest.mark.parametrize("n", [3, 15])
def test_associativity_checked_on_every_triple(n):
    """One wrong composite among 8 n^4 composable triples (648 and 405 000)
    is rejected; the correct table is accepted."""
    G = groupoid_from_json(z2_pair_groupoid_json(n))
    assert len(G.arrows) == 2 * n * n and not G.is_free()
    with pytest.raises(InvalidInput, match="associativity"):
        groupoid_from_json(z2_pair_groupoid_json(n, corrupt=True))


def test_freeness_decided_once(monkeypatch):
    G = cyclic_rotation_groupoid(16)
    calls = []
    scan = type(G).isotropy_witness
    monkeypatch.setattr(type(G), "isotropy_witness", lambda self: calls.append(1) or scan(self))
    for k in range(1, 4):
        assert len(generate_subgroupoid(G, [(k, 0)])) > 0
    assert G.is_free() and len(calls) == 1


def test_rotation_keeps_no_quadratic_state():
    """Z/4096, its moves, the subgroupoid of a 10-unit arc and its group
    parts stay far below the 128 MB that one 4096 x 4096 index table takes."""
    tracemalloc.start()
    try:
        G = cyclic_rotation_groupoid(4096)
        K = G.moves([1])
        arc = frozenset(range(10))
        gen = generate_subgroupoid(G, [a for a in K if G.source(a) in arc and G.range(a) in arc])
        parts = G.group_parts(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.blocks == {arc}
    assert parts == set(range(10)) | set(range(4087, 4096))
    assert peak < 16 * 2**20

    # K holds its offsets, not a tuple per arrow: the 196 608 arrows of
    # Z/65536's moves of [-1, 0, 1] in well under the 20 MB of a frozenset
    G = cyclic_rotation_groupoid(65536)
    tracemalloc.start()
    try:
        K = G.moves([-1, 0, 1])
        assert len(K) == 3 * 65536 and (65535, 7) in K and (2, 7) not in K
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
