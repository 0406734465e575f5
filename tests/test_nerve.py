"""l1 simplices, the skeleton cover, and the map/cover conversions."""

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadim import certify
from dadim.cli import main
from dadim import nerve
from dadim.errors import (
    DadimError,
    DepthInsufficient,
    EquivarianceTooWeak,
    InvalidInput,
    MissingSample,
    NoFiniteS,
    NotAnAction,
    NotInComplex,
    TooLarge,
)
from dadim.groupoid import cyclic_rotation_groupoid, symmetrized
from dadim.nerve import (
    SimplicialComplex,
    SimplicialPoint,
    check_equivariance,
    check_simplicial_action,
    dad_witness_from_blr,
    grid_certificate,
    inner_radius,
    l1_distance,
    nice_cover_assign,
)
from helpers import (
    EquivariantCover,
    FractionPoint,
    check_equivariance_oracle,
    check_simplicial_action_oracle,
    compositions,
    cover_from_map,
    cyclic_group,
    faces_of_dim_at_most,
    from_numerators,
    holds,
    is_face_oracle,
    l1_distance_oracle,
    map_from_cover,
    mass_on,
    maximal_faces_oracle,
    nerve_certificate_pair_loop,
    nice_cover_assign_oracle,
    outer_radius,
    perturb_to_finite_support,
    skeleton_mass_oracle,
)

F = Fraction


@pytest.fixture(scope="module")
def triangle():
    return SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])


def rational_points(max_den=20, n_vertices=3):
    def build(parts):
        total = sum(parts)
        return SimplicialPoint({
            v: F(p, total) for v, p in zip("abc", parts) if p
        })

    return st.lists(
        st.integers(0, max_den), min_size=n_vertices, max_size=n_vertices
    ).filter(lambda parts: sum(parts) > 0).map(build)


def test_l1_examples(triangle):
    bary = SimplicialPoint({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
    assert l1_distance(bary, bary) == 0
    assert l1_distance(SimplicialPoint({"a": 1}), SimplicialPoint({"b": 1})) == 2
    half = SimplicialPoint({"a": F(1, 2), "b": F(1, 2)})
    assert l1_distance(half, SimplicialPoint({"a": 1})) == 1


@settings(max_examples=80, deadline=None)
@given(mu=rational_points(), nu=rational_points(), rho=rational_points())
def test_l1_metric_axioms(mu, nu, rho):
    assert l1_distance(mu, nu) == l1_distance(nu, mu)
    assert (l1_distance(mu, nu) == 0) == (mu == nu)
    assert l1_distance(mu, rho) <= l1_distance(mu, nu) + l1_distance(nu, rho)


def skeleton_distance(mu, i):
    """The l1 distance 2 (1 - mass) from mu to the i-skeleton, from the
    library's skeleton mass."""
    return 2 * (1 - F(nerve._skeleton_mass(mu, i), mu.den))


def test_distance_to_skeleton_examples(triangle):
    bary = SimplicialPoint({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
    assert skeleton_distance(bary, 1) == F(2, 3)
    assert skeleton_distance(SimplicialPoint({"a": 1}), 0) == 0
    half = SimplicialPoint({"a": F(1, 2), "b": F(1, 2)})
    assert skeleton_distance(half, 0) == 1
    with pytest.raises(NotInComplex):
        nice_cover_assign(SimplicialPoint({"a": F(1, 2), "d": F(1, 2)}), triangle)


def _distance_to_faces(mu, C, i):
    """The least l1 distance 2 (1 - mass on D) from mu to a face D of
    dimension <= i, over every such face."""
    return min(2 * (1 - mass_on(mu, D)) for D in faces_of_dim_at_most(C, i))


@settings(max_examples=60, deadline=None)
@given(mu=rational_points(), i=st.integers(0, 2))
def test_distance_to_skeleton_vs_bruteforce(mu, i):
    C = SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])
    assert skeleton_distance(mu, i) == _distance_to_faces(mu, C, i)


def test_bruteforce_on_bigger_complex():
    C = SimplicialComplex(
        range(6), [{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}]
    )
    mu = SimplicialPoint({0: F(1, 2), 1: F(1, 4), 2: F(1, 4)})
    for i in range(3):
        assert skeleton_distance(mu, i) == _distance_to_faces(mu, C, i)


def test_nice_cover_examples(triangle):
    bary = SimplicialPoint({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
    assert nice_cover_assign(bary, triangle) == (2, frozenset({"a", "b", "c"}))
    assert nice_cover_assign(SimplicialPoint({"b": 1}), triangle) == (0, frozenset({"b"}))
    near = SimplicialPoint({"a": 1 - F(1, 1000), "b": F(1, 1000)})
    assert nice_cover_assign(near, triangle) == (0, frozenset({"a"}))
    assert nerve._level_membership(bary, 2) and not nerve._level_membership(bary, 1)


def test_nice_cover_grid_cover_and_separation(triangle):
    den = 30
    by_piece = {}
    for a in range(den + 1):
        for b in range(den + 1 - a):
            c = den - a - b
            mu = SimplicialPoint({
                v: F(k, den) for v, k in (("a", a), ("b", b), ("c", c)) if k
            })
            i, delta = nice_cover_assign(mu, triangle)  # cover: no exception
            by_piece.setdefault((i, delta), []).append(mu)
    for (i, d1), pts1 in by_piece.items():
        for (j, d2), pts2 in by_piece.items():
            if i != j or d1 == d2:
                continue
            sep = min(l1_distance(p, q) for p in pts1 for q in pts2)
            assert sep >= inner_radius(i)


def test_radii_values():
    assert inner_radius(0) == F(1, 3)
    assert inner_radius(2) == F(1, 300)
    assert outer_radius(1) == F(1, 4)


def cyclic_setup(n):
    grp = cyclic_group(n)
    act = lambda g, x: (x + g) % n  # noqa: E731
    C = SimplicialComplex(range(n), [{i, (i + 1) % n} for i in range(n)])
    return grp, act, C


def edge_map(n, t):
    return {
        x: SimplicialPoint({x: 1 - t, (x + 1) % n: t}) for x in range(n)
    }


def blr_witness(f, E, C, n):
    """``dad_witness_from_blr`` on Z/n rotating the samples 0..n-1, with the
    map's equivariance measured once."""
    G = cyclic_rotation_groupoid(n)
    eq = check_equivariance(f, n, symmetrized(n, E), inner_radius(C.dimension))
    return dad_witness_from_blr(f, E, C, G, eq)


def test_check_equivariance(triangle):
    f = edge_map(12, F(2, 5))
    rep = check_equivariance(f, 12, [1, 0, 11], F(1, 100))
    assert rep.accepted and rep.details["max_discrepancy"] == "0"

    const = {x: SimplicialPoint({0: 1}) for x in range(12)}
    rep2 = check_equivariance(const, 12, [1], F(2))
    assert not rep2.accepted and rep2.details["max_discrepancy"] == "2"

    partial = {0: SimplicialPoint({0: 1})}
    with pytest.raises(MissingSample):
        check_equivariance(partial, 12, [1], F(1))


def test_perturb_examples():
    grp, act, C = cyclic_setup(12)
    f = edge_map(12, F(2, 5))
    out, rep = perturb_to_finite_support(f, act, act, grp.symmetrized([1]), F(1, 100))
    assert out == f and rep.details["max_perturbation"] == "0"

    # single sample with small tail outside an explicit S
    g = {0: SimplicialPoint({0: 1 - F(1, 1000), 5: F(1, 1000)})}
    ident = lambda gg, x: x  # noqa: E731
    out2, rep2 = perturb_to_finite_support(
        g, ident, ident, [0], F(1, 100), S={0}
    )
    assert rep2.details["max_perturbation"] == str(F(2, 1000))
    assert out2[0] == SimplicialPoint({0: 1})

    # tail mass at least budget/2 for the declared S
    h = {0: SimplicialPoint({0: F(1, 2), 5: F(1, 2)})}
    with pytest.raises(NoFiniteS):
        perturb_to_finite_support(h, ident, ident, [0], F(1, 100), S={0})

    # non-equivariant map has no budget at all
    grp12 = cyclic_group(12)
    const = {x: SimplicialPoint({0: 1}) for x in range(12)}
    with pytest.raises(NoFiniteS):
        perturb_to_finite_support(const, act, act, [1], F(1, 100))


def test_perturbed_map_stays_equivariant():
    grp, act, C = cyclic_setup(12)
    t = F(2, 5)
    eps = F(1, 10)
    # exact equivariant map plus a tiny equivariant tail on the opposite vertex
    f = {
        x: SimplicialPoint({
            x: (1 - t) * F(99, 100),
            (x + 1) % 12: t * F(99, 100),
            (x + 6) % 12: F(1, 100),
        })
        for x in range(12)
    }
    sym = grp.symmetrized([1])
    before = check_equivariance(f, 12, sym, eps)
    assert before.accepted
    out, rep = perturb_to_finite_support(f, act, act, sym, eps)
    after = check_equivariance(out, 12, sym, eps)
    assert after.accepted


def test_cover_from_map_conditions():
    grp, act, C = cyclic_setup(12)
    f = edge_map(12, F(2, 5))
    cover, report = cover_from_map(f, [1], grp, act, act, C)
    assert report.accepted
    assert report.details["multiplicity"] <= C.dimension + 1
    # pieces are permuted by the action
    for U in cover.sets:
        for g in grp.elements:
            gU = cover.act_set(g, U)
            assert gU in set(cover.sets)
            assert gU == U or not (gU & U)


def test_cover_from_map_needs_equivariance():
    grp, act, C = cyclic_setup(12)
    const = {x: SimplicialPoint({0: 1}) for x in range(12)}
    with pytest.raises(EquivarianceTooWeak):
        cover_from_map(const, [1], grp, act, act, C)


def test_map_from_cover_and_partition():
    n = 12
    grp = cyclic_group(n)
    act = lambda g, x: (x + g) % n  # noqa: E731
    arcs = [frozenset((s + k) % n for k in range(8)) for s in (0, 4, 8)]
    sets = [
        frozenset((x, g) for x in range(n) for g in range(n) if (x - g) % n in A)
        for A in arcs
    ]
    cover = EquivariantCover(grp, tuple(range(n)), act, sets)
    assert cover.check_conditions([1]).accepted
    f, nerve_cx, rep = map_from_cover(cover, [1], 2)
    assert rep.accepted
    assert Fraction(rep.details["defect"]) <= Fraction(rep.details["bound"])
    for mu in f.values():
        assert sum(mu.weights.values()) == 1
        assert len(mu.support()) <= cover.multiplicity()
    with pytest.raises(DepthInsufficient):
        map_from_cover(cover, [1], 4)


def test_map_from_cover_single_class_fixed_point():
    grp = cyclic_group(1)
    act = lambda g, x: x  # noqa: E731
    cover = EquivariantCover(grp, ("pt",), act, [frozenset({("pt", 0)})])
    f, nerve_cx, rep = map_from_cover(cover, [0], 3)
    assert rep.accepted and rep.details["defect"] == "0"
    assert len(f) == 1 and nerve_cx.dimension == 0


def test_dad_witness_from_blr():
    C = cyclic_setup(12)[2]
    f = edge_map(12, F(2, 5))
    res = blr_witness(f, [1], C, 12)
    assert res.report.accepted
    # element sets stay inside the moving set
    G = cyclic_rotation_groupoid(12)
    for gen in res.groupoid_witness.generated:
        assert {a[0] for a in G.arrows if holds(gen, G, a)} <= res.moving_set
    assert set().union(*res.colors) == set(range(12))

    const = {x: SimplicialPoint({0: 1}) for x in range(12)}
    with pytest.raises(EquivarianceTooWeak):
        blr_witness(const, [1], C, 12)

    # E is read in Z/12: 13 and -11 are the generator 1
    for E in ([13], [-11], [1, 25]):
        again = blr_witness(f, E, C, 12)
        assert (again.colors, again.moving_set) == (res.colors, res.moving_set)
        assert again.groupoid_witness.K == res.groupoid_witness.K
        assert again.report.to_json() == res.report.to_json()


def test_dad_witness_from_blr_zero_complex_free_action():
    n = 6
    C0 = SimplicialComplex(range(n), [{i} for i in range(n)])
    f = {x: SimplicialPoint({x: 1}) for x in range(n)}
    res = blr_witness(f, [1], C0, n)
    assert res.report.accepted
    # vertex-piece structure forces each color's elements inside F
    assert res.moving_set == frozenset(range(n))


def test_blr_generators_must_be_group_elements():
    """A generator is read in Z/6 through the quotient map: -1 is the
    element 5 and 7 the element 1, so both give the witness of their
    residues."""
    C0 = SimplicialComplex(range(6), [{i} for i in range(6)])
    f = {x: SimplicialPoint({x: 1}) for x in range(6)}
    assert symmetrized(6, [-1]) == symmetrized(6, [5]) == (0, 1, 5)
    assert symmetrized(6, [7, -8]) == symmetrized(6, [1, 4]) == (0, 1, 2, 4, 5)
    G = cyclic_rotation_groupoid(6)
    eq = check_equivariance(f, 6, symmetrized(6, [1]), 1)
    for E, residues in (([-1], [5]), ([7], [1]), ([-1, 13], [5, 1])):
        got, want = (dad_witness_from_blr(f, e, C0, G, eq) for e in (E, residues))
        assert got.groupoid_witness.K == want.groupoid_witness.K == G.moves([1])
        assert got.report.accepted and got.report.to_json() == want.report.to_json()


def test_pullback_of_exact_map_through_one_complex():
    # pullback of the skeleton cover of a 1-complex under an exact
    # equivariant map: all five conditions verified exhaustively
    grp, act, C = cyclic_setup(6)
    f = edge_map(6, F(1, 2))
    cover, report = cover_from_map(f, [1], grp, act, act, C)
    assert report.accepted and report.details["sets"] >= 6


def test_two_arc_nerve_map_equivariance():
    """Nerve map of a two-arc invariant cover: measured discrepancy stays
    within the rational telescoping bound."""
    n = 12
    grp = cyclic_group(n)
    act = lambda g, x: (x + g) % n  # noqa: E731
    arcs = [frozenset(k % n for k in range(0, 11)), frozenset(k % n for k in range(6, 17))]
    sets = [
        frozenset((x, g) for x in range(n) for g in range(n) if (x - g) % n in A)
        for A in arcs
    ]
    cover = EquivariantCover(grp, tuple(range(n)), act, sets)
    f, nerve_cx, rep = map_from_cover(cover, [1], 1)
    assert rep.accepted
    bound = Fraction(rep.details["bound"])
    vertex_act = {U: {g: cover.act_set(g, U) for g in grp.elements} for U in sets}
    eq = check_equivariance_oracle(
        f, act, lambda g, U: vertex_act[U][g], grp.symmetrized([1]), bound
    )
    assert Fraction(eq.details["max_discrepancy"]) == Fraction(rep.details["defect"])


def test_map_cover_map_roundtrip():
    """The two conversions compose: map -> cover -> map stays admissible."""
    grp, act, C = cyclic_setup(12)
    f = edge_map(12, F(2, 5))
    cover, crep = cover_from_map(f, [1], grp, act, act, C)
    assert crep.accepted
    f2, nerve_cx, rep = map_from_cover(cover, [1], 1)
    assert rep.accepted
    assert Fraction(rep.details["defect"]) <= Fraction(rep.details["bound"])
    assert nerve_cx.dimension <= C.dimension
    for mu in f2.values():
        assert nerve_cx.contains(mu)


def test_non_simplicial_action_rejected():
    # path complex 0-1-2 is not invariant under rotation (2-0 is not an edge)
    C = SimplicialComplex(range(3), [{0, 1}, {1, 2}])
    with pytest.raises(InvalidInput):
        check_simplicial_action(C, 3)
    f = {x: SimplicialPoint({x: 1}) for x in range(3)}
    with pytest.raises(InvalidInput):
        blr_witness(f, [1], C, 3)


# ---------------------------------------------------------------------------
# integer points against the Fraction-dict oracle

VERTEX_POOL = (0, 1, 2, 3, "a", "b", "c", (0, 1), "d")


@st.composite
def complexes(draw):
    """Complexes of dimension <= 3 over vertices of mixed types."""
    faces = draw(st.lists(
        st.sets(st.sampled_from(VERTEX_POOL), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    extra = draw(st.sets(st.sampled_from(VERTEX_POOL), max_size=2))
    return SimplicialComplex(set().union(*faces) | extra, faces)


def _spread(draw, vertices, mass: Fraction) -> dict:
    """``mass`` split over ``vertices`` with mixed denominators."""
    parts = [F(draw(st.integers(1, 9)), draw(st.integers(1, 7))) for _ in vertices]
    total = sum(parts)
    return {v: mass * p / total for v, p in zip(vertices, parts)}


@st.composite
def weight_dicts(draw, C):
    """Probability vectors on a face of C (sometimes on a non-face), some
    at distance exactly inner_radius(i) or outer_radius(i) from a face."""
    verts = sorted(C.vertices, key=repr)
    kind = draw(st.sampled_from(["face", "radius", "anywhere"]))
    if kind == "anywhere":
        support = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True))
        w = _spread(draw, support, F(1))
    else:
        face = sorted(draw(st.sampled_from(C.maximal_faces)), key=repr)
        k = draw(st.integers(1, len(face)))
        if kind == "face" or k == len(face):
            w = _spread(draw, face[:k], F(1))
        else:
            i = draw(st.integers(0, 3))
            r = draw(st.sampled_from([inner_radius(i), outer_radius(i)]))
            t = min(r / 2, F(1, 2))  # distance 2t to the simplex on face[:k]
            w = {**_spread(draw, face[:k], 1 - t), **_spread(draw, face[k:], t)}
    if draw(st.booleans()):
        w.setdefault(draw(st.sampled_from(verts)), F(0))  # zero weights are dropped
    return w


def _outcome(fn, *args):
    """The value of fn(*args), or the class and message of its error."""
    try:
        return ("ok", fn(*args))
    except DadimError as exc:
        return (type(exc).__name__, str(exc))


def _as_numerators(w: dict):
    den = math.lcm(*(F(t).denominator for t in w.values()))
    return {v: int(F(t) * den) for v, t in w.items()}, den


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_points_match_fraction_oracle(data):
    C = data.draw(complexes())
    w1 = data.draw(weight_dicts(C))
    w2 = data.draw(weight_dicts(C))
    mu, nu = SimplicialPoint(w1), SimplicialPoint(w2)
    om, on = FractionPoint(w1), FractionPoint(w2)
    assert mu.to_json() == om.to_json() and mu.weights == om.weights
    assert hash(mu) == hash(om)
    assert (mu == nu) == (om == on)
    assert math.gcd(mu.den, *mu.num.values()) == 1
    assert l1_distance(mu, nu) == l1_distance_oracle(om, on)
    # the same point from numerators, also over a multiple of its denominator
    num, den = _as_numerators(w1)
    for scale in (1, 6):
        again = from_numerators({v: k * scale for v, k in num.items()}, den * scale)
        assert again == mu and hash(again) == hash(mu) and again.to_json() == mu.to_json()
    assert _outcome(nice_cover_assign, mu, C) == _outcome(nice_cover_assign_oracle, om, C)
    for delta in C.faces:
        assert mass_on(mu, delta) == om.mass_on(delta)
    # pushing forward merges the weights of identified vertices
    pushed = mu.push(lambda v: repr(v)[0])
    merged: dict = {}
    for v, t in om.weights.items():
        merged[repr(v)[0]] = merged.get(repr(v)[0], F(0)) + t
    assert pushed == SimplicialPoint(merged) and pushed.to_json() == FractionPoint(merged).to_json()


# ---------------------------------------------------------------------------
# the vertex index against the all-faces scans

EIGHT_VERTICES = VERTEX_POOL[:8]


@st.composite
def indexed_complexes(draw):
    """(vertices, faces) on at most 8 vertices: some vertices in no face,
    some faces empty, inside another face or drawn twice."""
    pool = draw(st.lists(st.sampled_from(EIGHT_VERTICES), min_size=1, max_size=8, unique=True))
    faces = draw(st.lists(st.sets(st.sampled_from(pool), max_size=5), max_size=6))
    for f in list(faces):
        if draw(st.booleans()):
            faces.append(draw(st.sets(st.sampled_from(sorted(f, key=repr)))) if f else set())
        if draw(st.booleans()):
            faces.append(set(f))
    return pool, faces


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vertex_index_matches_face_scans(data):
    vertices, faces = data.draw(indexed_complexes())
    C = SimplicialComplex(vertices, faces)
    assert C.maximal_faces == maximal_faces_oracle(vertices, faces)
    # subsets of the vertices, the empty set, and sets with a non-vertex
    pool = sorted(C.vertices, key=repr) + ["z", 99]
    subsets = data.draw(st.lists(st.sets(st.sampled_from(pool), max_size=5), max_size=8))
    for s in subsets + [set()]:
        assert C.is_face(s) == is_face_oracle(C, s)

    w = data.draw(weight_dicts(C))
    mu, om = SimplicialPoint(w), FractionPoint(w)
    assert C.contains(mu) == is_face_oracle(C, om.support())
    if is_face_oracle(C, om.support()):
        for i in range(-1, C.dimension + 2):
            assert F(nerve._skeleton_mass(mu, i), mu.den) == skeleton_mass_oracle(om, C, i)
    assert _outcome(nice_cover_assign, mu, C) == _outcome(nice_cover_assign_oracle, om, C)

    # face images under a vertex action of Z/k: a rotation of the sorted
    # vertices with some images moved to another vertex or off the complex
    k = data.draw(st.integers(1, 3))
    verts = sorted(C.vertices, key=repr)
    table = {(g, v): verts[(j + g) % len(verts)] for g in range(k) for j, v in enumerate(verts)}
    for key in data.draw(st.lists(st.sampled_from(sorted(table, key=repr)), max_size=3)):
        table[key] = data.draw(st.sampled_from(pool))
    for g in range(k):
        for f in C.maximal_faces:
            image = frozenset(table[g, v] for v in f)
            assert C.is_face(image) == is_face_oracle(C, image)


@st.composite
def residue_maps(draw):
    """(n, C, f, E): a complex on residues mod n, and a map from some
    residues to points with residue vertices, so Z/n acts on both."""
    n = draw(st.integers(1, 6))
    residues = st.integers(0, n - 1)
    vertices = draw(st.sets(residues, min_size=1))
    faces = draw(st.lists(st.sets(st.sampled_from(sorted(vertices)), min_size=1), max_size=4))
    samples = draw(st.sets(residues, min_size=1))
    if draw(st.booleans()):
        samples = set(range(n))
    f = {}
    for x in sorted(samples):
        support = draw(st.lists(residues, min_size=1, max_size=3, unique=True))
        num = {v: draw(st.integers(1, 4)) for v in support}
        f[x] = from_numerators(num, sum(num.values()))
    E = draw(st.lists(residues, max_size=3))
    return n, SimplicialComplex(vertices, faces), f, E


@settings(max_examples=200, deadline=None)
@given(case=residue_maps(), eps=st.fractions(min_value=0, max_value=2, max_denominator=6))
def test_residue_checks_match_the_group_oracles(case, eps):
    """``check_simplicial_action`` and ``check_equivariance`` for Z/n on
    residues give the outcome, report or error and message, of the checks
    for any finite group and action, run on Z/n rotating the residues."""
    n, C, f, E = case
    grp, rotate = cyclic_group(n), lambda g, x: (x + g) % n
    assert _outcome(check_simplicial_action, C, n) == _outcome(
        check_simplicial_action_oracle, C, grp, rotate
    )
    assert _outcome(check_equivariance, f, n, E, eps) == _outcome(
        check_equivariance_oracle, f, rotate, rotate, E, eps
    )


@pytest.mark.parametrize("where, label", [
    (where, label) for where in ("sample", "vertex", "complex") for label in (7, -1, "a")
] + [("vertex", True)])
def test_residue_checks_refuse_labels_outside_z_n(where, label):
    """Z/3 rotates 0, 1, 2: a sample, map vertex or complex vertex 7, -1
    or "a", or a map vertex True, is refused with NotAnAction, not folded
    onto a residue."""
    C = SimplicialComplex(range(3), [{0, 1}, {1, 2}, {2, 0}])
    f = {x: SimplicialPoint({x: 1}) for x in range(3)}
    if where == "sample":
        f[label] = SimplicialPoint({0: 1})
    elif where == "vertex":
        f[1] = SimplicialPoint({label: 1})
    else:
        C = SimplicialComplex([0, 1, 2, label], C.maximal_faces)
    with pytest.raises(NotAnAction, match="are not residues mod 3"):
        if where == "complex":
            check_simplicial_action(C, 3)
        else:
            check_equivariance(f, 3, [0, 1, 2], 1)


def test_complex_without_vertices():
    """Its one maximal face is empty, and the empty set is no face."""
    C = SimplicialComplex([], [[]])
    assert C.maximal_faces == maximal_faces_oracle([], [[]]) == (frozenset(),)
    assert not C.is_face(set()) and not is_face_oracle(C, set())
    assert not C.is_face({"a"})


def test_blr_witness_face_work_is_linear(monkeypatch):
    """On the Z/96 ring the witness examines O(|F|) maximal faces, F the
    maximal faces: the action check tests the image of each face under
    rotation by 1 only, each face test looks the subset up among them
    once, and reads the faces at one vertex only when that misses.  A scan
    of every maximal face per test of every rotation examines about
    |G| |F|^2 / 2."""
    n = 96
    C = cyclic_setup(n)[2]
    f = edge_map(n, F(2, 5))
    examined = []

    class CountingIndex(dict):
        def get(self, v, default=None):
            faces = dict.get(self, v, default)
            examined.append(len(faces or ()))
            return faces

        def __getitem__(self, v):
            faces = dict.__getitem__(self, v)
            examined.append(len(faces))
            return faces

    class CountingFaces(frozenset):
        def __contains__(self, s):
            examined.append(1)
            return frozenset.__contains__(self, s)

    monkeypatch.setattr(C, "_at", CountingIndex(C._at))
    monkeypatch.setattr(C, "_maximal", CountingFaces(C._maximal))
    res = blr_witness(f, [1], C, n)
    assert res.report.accepted
    F_max = len(C.maximal_faces)
    # at least one look per face of the action check
    assert F_max <= sum(examined) <= 2 * F_max


@settings(max_examples=200, deadline=None)
@given(
    weights=st.dictionaries(
        st.sampled_from(VERTEX_POOL),
        st.fractions(min_value=-1, max_value=2, max_denominator=12),
        max_size=4,
    ),
)
@example(weights={"a": F(1, 2), "b": F(-1, 2), "c": F(1)})
@example(weights={})
def test_point_rejections_match_fraction_oracle(weights):
    """Both constructors accept and reject what the oracle does, with its
    messages: a negative weight, or weights that do not sum to 1."""
    want = _outcome(lambda: FractionPoint(weights).to_json())
    assert _outcome(lambda: SimplicialPoint(weights).to_json()) == want
    num, den = _as_numerators(weights) if weights else ({}, 1)
    assert _outcome(lambda: from_numerators(num, den).to_json()) == want


def test_from_numerators_rejects_non_integers_and_bad_denominators():
    with pytest.raises(InvalidInput):
        from_numerators({"a": F(1, 2), "b": F(1, 2)}, 1)
    with pytest.raises(InvalidInput):
        from_numerators({"a": 0}, 0)
    with pytest.raises(InvalidInput):
        from_numerators({"a": 1}, 1.0)
    mu = from_numerators({"a": 2, "b": 0, "c": 4}, 6)
    assert (mu.num, mu.den) == ({"a": 1, "c": 2}, 3)


def _oracle_nerve_certificate(C, den) -> dict:
    """The certificate of ``dadim nerve`` computed on Fraction-dict points."""
    counts: dict = {}
    by_piece: dict = {}
    for face in C.maximal_faces:
        verts = sorted(face, key=repr)
        for combo in compositions(den, len(verts)):
            mu = FractionPoint({v: F(k, den) for v, k in zip(verts, combo)})
            i, delta = nice_cover_assign_oracle(mu, C)
            counts[str(i)] = counts.get(str(i), 0) + 1
            by_piece.setdefault((i, delta), []).append(mu)
    seps: dict = {}
    pieces = sorted(by_piece.items(), key=lambda kv: repr(kv[0]))
    for a, ((i, _), pts) in enumerate(pieces):
        for (j, _), pts2 in pieces[a + 1:]:
            if j == i:
                d = min(l1_distance_oracle(p, q) for p in pts for q in pts2)
                seps[str(i)] = min(seps.get(str(i), d), d)
    return {
        "certified_on": "sample-grid",
        "denominator": den,
        "level_counts": counts,
        "min_cross_piece_separation": {i: certify.rational_str(s) for i, s in seps.items()},
        "samples": sum(counts.values()),
        "separation_ok": all(s >= inner_radius(int(i)) for i, s in seps.items()),
    }


@pytest.mark.parametrize("den, cx", [
    (40, None),
    (60, None),
    (12, {"vertices": [0, 1, 2, "a", "b"],
          "maximal_faces": [[0, 1, 2], [2, "a"], ["a", "b", 0], [1, "b"]]}),
])
def test_nerve_certificate_matches_fraction_oracle(tmp_path, den, cx):
    args = ["nerve", "--denominator", str(den), "-o", str(tmp_path / "nerve.json")]
    C = SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])
    if cx is not None:
        (tmp_path / "cx.json").write_text(json.dumps(cx))
        args += ["--complex", str(tmp_path / "cx.json")]
        C = SimplicialComplex(cx["vertices"], [set(f) for f in cx["maximal_faces"]])
    assert main(args) == 0
    cert = json.loads((tmp_path / "nerve.json").read_text())
    cert.pop("created", None)
    assert cert == _oracle_nerve_certificate(C, den)


# ---------------------------------------------------------------------------
# the certificate on the numerator matrix against the pair loops

FIVE_VERTEX = SimplicialComplex("abcde", [set("abc"), set("cd"), set("dea"), set("bd")])


@st.composite
def small_complexes(draw):
    """Complexes on at most 6 vertices, int and str names mixed, with
    maximal faces of at most 4 vertices."""
    pool = draw(st.sets(st.sampled_from((0, 1, 2, "a", "b", "c")), min_size=1, max_size=6))
    faces = draw(st.lists(
        st.sets(st.sampled_from(sorted(pool, key=repr)), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    return SimplicialComplex(pool, faces)


def _grid_samples(C, den) -> int:
    return sum(math.comb(den + len(f) - 1, len(f) - 1) for f in C.maximal_faces)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_grid_certificate_matches_pair_loops(data):
    C = data.draw(small_complexes())
    # the Fraction oracle compares every cross-piece pair: keep the grid small
    top = max(d for d in range(1, 25) if d == 1 or _grid_samples(C, d) <= 300)
    den = data.draw(st.integers(1, top))
    cert = grid_certificate(C, den)
    assert cert == nerve_certificate_pair_loop(C, den) == _oracle_nerve_certificate(C, den)


@pytest.mark.parametrize("C, den, counts, seps", [
    (SimplicialComplex("abc", ["abc"]), 200,
     {"0": 1785, "1": 1614, "2": 16902}, {"0": "67/50", "1": "7/25"}),
    (FIVE_VERTEX, 60,
     {"0": 370, "1": 328, "2": 3206}, {"0": "7/5", "1": "1/3", "2": "1/3"}),
])
def test_grid_certificate_pinned_values(C, den, counts, seps):
    cert = grid_certificate(C, den)
    assert cert["level_counts"] == counts and cert["min_cross_piece_separation"] == seps
    assert cert["separation_ok"] and cert["samples"] == sum(counts.values()) == _grid_samples(C, den)


def test_grid_certificate_sample_order():
    """A face's samples come in the pair loops' order: compositions of the
    denominator, lexicographic over the face's vertices."""
    assert nerve._compositions(3, 3).tolist() == [list(c) for c in compositions(3, 3)]
    assert nerve._compositions(5, 1).tolist() == [[5]]
    assert nerve._compositions(0, 4).tolist() == [[0, 0, 0, 0]]


def test_grid_certificate_rejections(monkeypatch):
    triangle = SimplicialComplex("abc", ["abc"])
    for den in (0, -3):
        with pytest.raises(InvalidInput, match="not positive"):
            grid_certificate(triangle, den)
    with pytest.raises(InvalidInput, match="not an integer"):
        grid_certificate(triangle, 2.5)
    with pytest.raises(TooLarge):
        grid_certificate(SimplicialComplex("a", ["a"]), 2**61)
    # radius bounds that break the cover: every vertex sample is inside
    # every 0-simplex's ball, or no sample is inside any ball
    monkeypatch.setattr(nerve, "_radius_thresholds", lambda den, i: (2 * den, den))
    with pytest.raises(InvalidInput, match=r"^level 0 piece is not unique \(3 candidates\); separation violated$"):
        grid_certificate(triangle, 4)
    monkeypatch.setattr(nerve, "_radius_thresholds", lambda den, i: (0, den))
    with pytest.raises(InvalidInput, match="^point escaped the cover; levels are inconsistent$"):
        grid_certificate(triangle, 4)


def test_nerve_grid_cap_exits_fast(tmp_path):
    """A 6-vertex simplex at denominator 100 has C(105, 5) samples; it is
    refused before the sample matrix is allocated."""
    cx = tmp_path / "simplex.json"
    cx.write_text(json.dumps({"vertices": list("abcdef"), "maximal_faces": [list("abcdef")]}))
    t0 = time.perf_counter()
    code = main(["nerve", "--complex", str(cx), "--denominator", "100"])
    assert code == TooLarge.exit_code == 14
    assert time.perf_counter() - t0 < 1


def test_nerve_pair_cap(monkeypatch, capsys):
    monkeypatch.setattr(nerve, "MAX_SEPARATION_PAIRS", 1000)
    assert main(["nerve", "--denominator", "40"]) == TooLarge.exit_code
    assert "MAX_SEPARATION_PAIRS = 1000" in capsys.readouterr().err


@pytest.mark.parametrize("C, den", [(SimplicialComplex("abc", ["abc"]), 30), (FIVE_VERTEX, 10)])
def test_grid_certificate_in_small_chunks(monkeypatch, C, den):
    """Separations taken a few rows at a time equal the pair loop's."""
    want = nerve_certificate_pair_loop(C, den)
    monkeypatch.setattr(nerve, "_DIFF_CHUNK", 50)
    assert grid_certificate(C, den) == want
