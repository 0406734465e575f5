"""l1 simplices, the skeleton cover, and the map/cover conversions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadim.errors import (
    DepthInsufficient,
    EmptySkeleton,
    EquivarianceTooWeak,
    MissingSample,
    NoFiniteS,
    NotInComplex,
)
from dadim.groupoid import cyclic_group, transformation_groupoid
from dadim.nerve import (
    EquivariantCover,
    SimplicialComplex,
    SimplicialPoint,
    check_equivariance,
    cover_from_map,
    dad_witness_from_blr,
    distance_to_simplex,
    distance_to_skeleton,
    inner_radius,
    l1_distance,
    map_from_cover,
    nice_cover_assign,
    nice_cover_membership,
    outer_radius,
    perturb_to_finite_support,
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
    assert l1_distance(SimplicialPoint.vertex("a"), SimplicialPoint.vertex("b")) == 2
    half = SimplicialPoint({"a": F(1, 2), "b": F(1, 2)})
    assert l1_distance(half, SimplicialPoint.vertex("a")) == 1


@settings(max_examples=80, deadline=None)
@given(mu=rational_points(), nu=rational_points(), rho=rational_points())
def test_l1_metric_axioms(mu, nu, rho):
    assert l1_distance(mu, nu) == l1_distance(nu, mu)
    assert (l1_distance(mu, nu) == 0) == (mu == nu)
    assert l1_distance(mu, rho) <= l1_distance(mu, nu) + l1_distance(nu, rho)


def test_distance_to_skeleton_examples(triangle):
    bary = SimplicialPoint({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
    assert distance_to_skeleton(bary, triangle, 1) == F(2, 3)
    assert distance_to_skeleton(SimplicialPoint.vertex("a"), triangle, 0) == 0
    half = SimplicialPoint({"a": F(1, 2), "b": F(1, 2)})
    assert distance_to_skeleton(half, triangle, 0) == 1
    with pytest.raises(EmptySkeleton):
        distance_to_skeleton(bary, triangle, -1)
    with pytest.raises(NotInComplex):
        distance_to_skeleton(
            SimplicialPoint({"a": F(1, 2), "d": F(1, 2)}),
            triangle, 1,
        )


@settings(max_examples=60, deadline=None)
@given(mu=rational_points(), i=st.integers(0, 2))
def test_distance_to_skeleton_vs_bruteforce(mu, i):
    C = SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])
    closed = distance_to_skeleton(mu, C, i)
    faces = [f for f in C.faces_of_dim_at_most(i)]
    brute = min(distance_to_simplex(mu, f) for f in faces)
    assert closed == brute


def test_bruteforce_on_bigger_complex():
    C = SimplicialComplex(
        range(6), [{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}]
    )
    mu = SimplicialPoint({0: F(1, 2), 1: F(1, 4), 2: F(1, 4)})
    for i in range(3):
        brute = min(
            distance_to_simplex(mu, f) for f in C.faces_of_dim_at_most(i)
        )
        assert distance_to_skeleton(mu, C, i) == brute


def test_nice_cover_examples(triangle):
    bary = SimplicialPoint({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
    assert nice_cover_assign(bary, triangle) == (2, frozenset({"a", "b", "c"}))
    assert nice_cover_assign(SimplicialPoint.vertex("b"), triangle) == (0, frozenset({"b"}))
    near = SimplicialPoint({"a": 1 - F(1, 1000), "b": F(1, 1000)})
    assert nice_cover_assign(near, triangle) == (0, frozenset({"a"}))
    assert nice_cover_membership(bary, triangle, 2, {"a", "b", "c"})
    assert not nice_cover_membership(bary, triangle, 1, {"a", "b"})


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


def test_check_equivariance(triangle):
    grp, act, C = cyclic_setup(12)
    f = edge_map(12, F(2, 5))
    rep = check_equivariance(f, act, act, [1, 0, 11], F(1, 100))
    assert rep.accepted and rep.details["max_discrepancy"] == "0"

    const = {x: SimplicialPoint.vertex(0) for x in range(12)}
    rep2 = check_equivariance(const, act, act, [1], F(2))
    assert not rep2.accepted and rep2.details["max_discrepancy"] == "2"

    partial = {0: SimplicialPoint.vertex(0)}
    with pytest.raises(MissingSample):
        check_equivariance(partial, act, act, [1], F(1))


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
    assert out2[0] == SimplicialPoint.vertex(0)

    # tail mass at least budget/2 for the declared S
    h = {0: SimplicialPoint({0: F(1, 2), 5: F(1, 2)})}
    with pytest.raises(NoFiniteS):
        perturb_to_finite_support(h, ident, ident, [0], F(1, 100), S={0})

    # non-equivariant map has no budget at all
    grp12 = cyclic_group(12)
    const = {x: SimplicialPoint.vertex(0) for x in range(12)}
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
    before = check_equivariance(f, act, act, sym, eps)
    assert before.accepted
    out, rep = perturb_to_finite_support(f, act, act, sym, eps)
    after = check_equivariance(out, act, act, sym, eps)
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
    const = {x: SimplicialPoint.vertex(0) for x in range(12)}
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
    grp, act, C = cyclic_setup(12)
    f = edge_map(12, F(2, 5))
    res = dad_witness_from_blr(f, [1], C, grp, act, act)
    assert res.report.accepted
    # element sets stay inside the moving set
    G = transformation_groupoid(grp, f.keys(), act)
    for gen in res.groupoid_witness.generated:
        assert {a[0] for a in G.arrows if gen.holds(G, a)} <= res.moving_set
    assert set().union(*res.colors) == set(range(12))

    const = {x: SimplicialPoint.vertex(0) for x in range(12)}
    with pytest.raises(EquivarianceTooWeak):
        dad_witness_from_blr(const, [1], C, grp, act, act)


def test_dad_witness_from_blr_zero_complex_free_action():
    n = 6
    grp = cyclic_group(n)
    act = lambda g, x: (x + g) % n  # noqa: E731
    C0 = SimplicialComplex(range(n), [{i} for i in range(n)])
    f = {x: SimplicialPoint.vertex(x) for x in range(n)}
    res = dad_witness_from_blr(f, [1], C0, grp, act, act)
    assert res.report.accepted
    # vertex-piece structure forces each color's elements inside F
    assert res.moving_set == frozenset(range(n))


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
    eq = check_equivariance(
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
    from dadim.nerve import check_simplicial_action
    from dadim.errors import InvalidInput

    grp = cyclic_group(3)
    # path complex 0-1-2 is not invariant under rotation (2-0 is not an edge)
    C = SimplicialComplex(range(3), [{0, 1}, {1, 2}])
    with pytest.raises(InvalidInput):
        check_simplicial_action(C, grp, lambda g, v: (v + g) % 3)
    f = {x: SimplicialPoint.vertex(x) for x in range(3)}
    with pytest.raises(InvalidInput):
        dad_witness_from_blr(f, [1], C, grp, lambda g, x: (x + g) % 3,
                             lambda g, v: (v + g) % 3)
