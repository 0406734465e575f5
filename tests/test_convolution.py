"""Convolution algebra, reduced norms, cut-downs, and block structure."""

import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadim import convolution
from dadim.convolution import (
    NORM_TOL,
    ConvElement,
    block_decompose,
    commutator_report,
    decompose_via_pou,
    reduced_norm,
    regular_representation,
    spectral_norm,
)
from dadim.errors import GroupoidMismatch, InvalidInput, NotFree, SupportLeak
from dadim.groupoid import (
    BlockArrows,
    TransformationGroupoid,
    block_union_pair_groupoid,
    cyclic_rotation_groupoid,
    generate_subgroupoid,
    groupoid_from_json,
    pair_groupoid,
)
from dadim.pou import NestedColorTower, PartitionOfUnity, pou_from_group_action
from helpers import (
    FiniteGroup,
    action_groupoid_oracle,
    adjoint,
    arrow_positions,
    as_set_pou,
    block_classes,
    block_decompose_oracle,
    cmul,
    commutator_report_oracle,
    convolve,
    cutdown,
    cyclic_group,
    decompose_oracle,
    holds,
    matrix_unit_defects,
    phi_float,
    pointwise,
    refuse_generation,
    regular_representation_oracle,
    rep_matrix,
    z2_pair_groupoid_json,
)

F = Fraction


def exact_matmul(A, B):
    n = len(A)
    out = [[(F(0), F(0)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if A[i][k] == (0, 0):
                continue
            for j in range(n):
                p = cmul(A[i][k], B[k][j])
                out[i][j] = (out[i][j][0] + p[0], out[i][j][1] + p[1])
    return out


def frac_elem(G, entries):
    return ConvElement(G, {a: (F(re), F(im)) for a, (re, im) in entries.items()})


def test_convolve_examples():
    P3 = pair_groupoid([1, 2, 3])
    assert convolve(
        ConvElement(P3, {(1, 2): 1}), ConvElement(P3, {(2, 3): 1})
    ).coeffs == {(1, 3): (1, 0)}
    # right multiplication by a unit indicator cuts the source support
    f = ConvElement(P3, {(1, 2): 1, (1, 3): 1})
    du = ConvElement(P3, {(2, 2): 1})
    assert convolve(f, du).coeffs == {(1, 2): (1, 0)}


def test_full_pair_groupoid_is_matrix_multiplication():
    """All 81 products of arrow deltas on 3 points match e_{r,s} algebra."""
    P3 = pair_groupoid(range(3))
    for a in P3.arrows:
        for b in P3.arrows:
            prod = convolve(ConvElement(P3, {a: 1}), ConvElement(P3, {b: 1}))
            if a[1] == b[0]:
                assert prod.coeffs == {(a[0], b[1]): (1, 0)}
            else:
                assert prod.coeffs == {}


def test_groupoid_mismatch():
    P2 = pair_groupoid([0, 1])
    P2b = pair_groupoid([0, 1])
    with pytest.raises(GroupoidMismatch):
        convolve(ConvElement(P2, {(0, 1): 1}), ConvElement(P2b, {(0, 1): 1}))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_star_algebra_axioms_exact(data):
    G = pair_groupoid(range(3))
    arrows = list(G.arrows)

    def rand_elem():
        support = data.draw(st.lists(st.sampled_from(arrows), max_size=4))
        return frac_elem(G, {
            a: (
                data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=6)),
                data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=6)),
            )
            for a in support
        })

    f, g, h = rand_elem(), rand_elem(), rand_elem()
    assert convolve(convolve(f, g), h).coeffs == convolve(f, convolve(g, h)).coeffs
    assert adjoint(convolve(f, g)).coeffs == convolve(adjoint(g), adjoint(f)).coeffs
    assert adjoint(adjoint(f)).coeffs == f.coeffs


def test_regular_representation_multiplicative_exact():
    """pi_x is a *-homomorphism, exactly, on the free Z/6 rotation and on
    Z/2 x the pair groupoid on 3 units, which has isotropy at every unit
    (arrow (g, x, y) is 9g + 3x + y)."""
    C6 = cyclic_rotation_groupoid(6)
    Z2P = groupoid_from_json(z2_pair_groupoid_json(3))
    cases = [
        (frac_elem(C6, {(1, 0): (F(1, 2), F(1, 3)), (2, 3): (F(2, 7), 0), (0, 1): (1, 0)}),
         frac_elem(C6, {(5, 2): (F(1, 5), F(-1, 2)), (1, 1): (F(3, 4), 0)})),
        (frac_elem(Z2P, {1: (F(1, 2), F(1, 3)), 12: (F(2, 7), 0), 0: (1, 0), 17: (-1, F(1, 5))}),
         frac_elem(Z2P, {9: (F(1, 5), F(-1, 2)), 5: (F(3, 4), 0), 10: (0, 1)})),
    ]
    for f1, f2 in cases:
        x = 0
        lhs = rep_matrix(regular_representation(convolve(f1, f2), x))
        A = rep_matrix(regular_representation(f1, x))
        B = rep_matrix(regular_representation(f2, x))
        lhs_norm = [[(F(a), F(b)) for a, b in row] for row in lhs]
        assert lhs_norm == exact_matmul(
            [[(F(a), F(b)) for a, b in row] for row in A],
            [[(F(a), F(b)) for a, b in row] for row in B],
        )
        # *-compatibility: the matrix of f* is the conjugate transpose
        Astar = rep_matrix(regular_representation(adjoint(f1), x))
        n = len(A)
        for i in range(n):
            for j in range(n):
                assert Astar[i][j] == (A[j][i][0], -A[j][i][1])


@st.composite
def actions(draw):
    """A groupoid of a group action and the action, as (group, space,
    act): the Z/n rotation of its residues, or, as an explicit groupoid,
    Z/n on the residues mod a divisor of n (isotropy below n), Z/4
    through Z/2, or a dihedral group on the vertices of a polygon."""
    kind = draw(st.sampled_from(["rotation", "cyclic", "z4_via_z2", "dihedral"]))
    if kind == "rotation":
        n = draw(st.integers(1, 8))
        action = (cyclic_group(n), tuple(range(n)), lambda g, x: (x + g) % n)
        return cyclic_rotation_groupoid(n), action
    if kind == "cyclic":
        n = draw(st.integers(1, 8))
        d = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        action = (cyclic_group(n), tuple(range(d)), lambda g, x: (x + g) % d)
    elif kind == "z4_via_z2":
        action = (cyclic_group(4), (0, 1), lambda g, x: (x + g) % 2)
    else:
        n = draw(st.integers(2, 6))

        def mul(a, b):
            return ((a[0] + (-1) ** a[1] * b[0]) % n, a[1] ^ b[1])

        group = FiniteGroup(
            tuple((r, s) for s in (0, 1) for r in range(n)), mul,
            lambda a: (a[0] if a[1] else -a[0] % n, a[1]), (0, 0),
        )
        action = (group, tuple(range(n)), lambda g, x: (g[0] + (-1) ** g[1] * x) % n)
    return action_groupoid_oracle(*action), action


@settings(max_examples=60, deadline=None)
@given(case=actions(), data=st.data())
def test_action_groupoid_matches_explicit_oracle(case, data):
    """The groupoid of an action against the explicit groupoid with
    per-arrow tables, and the placed regular representation against the
    one-compose-per-entry loop: structure maps, freeness and isotropy
    witnesses, orbits, fibers, the rotation's group parts of blocks,
    pi_x(f) exactly and the reduced norm."""
    G, (group, space, act) = case
    O = action_groupoid_oracle(group, space, act)
    assert G.units == O.units
    for a in O.arrows:
        assert (G.source(a), G.range(a), G.inverse(a)) == (O.source(a), O.range(a), O.inverse(a))
        assert all(G.compose(a, b) == O.compose(a, b) for b in O.arrows)
    assert all(G.unit_arrow(u) == O.unit_arrow(u) for u in O.units)
    assert G.is_free() == O.is_free() and G.isotropy_witness() == O.isotropy_witness()
    at = frozenset(data.draw(st.sets(st.sampled_from(space))) if space else ())
    assert G.isotropy_witness(at) == O.isotropy_witness(at)
    assert set(G.orbits) == {frozenset(act(g, x) for g in group.elements) for x in space}
    assert G.orbits == O.orbits
    assert all(G.fiber(x) == O.fiber(x) for x in space)
    if isinstance(G, TransformationGroupoid):
        gen = generate_subgroupoid(G, data.draw(st.sets(st.sampled_from(O.arrows), max_size=4)))
        assert G.group_parts(gen) == {a[0] for a in O.arrows if holds(gen, O, a)}
    assert G.arrows == O.arrows

    fraction = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    support = data.draw(st.lists(st.sampled_from(O.arrows), max_size=6, unique=True))
    coeffs = {a: (data.draw(fraction), data.draw(fraction)) for a in support}
    fG, fO = frac_elem(G, coeffs), frac_elem(O, coeffs)
    norms = [0.0]
    for x in space:
        rep = regular_representation(fG, x)
        basis, matrix = regular_representation_oracle(fO, x)
        assert rep.basis == basis and rep_matrix(rep) == matrix
        norms.append(spectral_norm(np.array(
            [[complex(float(re), float(im)) for re, im in row] for row in matrix], dtype=complex,
        ).reshape(len(basis), len(basis))))
    assert abs(reduced_norm(fG) - max(norms)) <= 1e-12 * max(1.0, max(norms))


def test_reduced_norm_examples():
    P3 = pair_groupoid(range(3))
    assert abs(reduced_norm(ConvElement(P3, {(0, 0): 1})) - 1) < 1e-12
    assert abs(reduced_norm(ConvElement(P3, {(0, 1): 1})) - 1) < 1e-12
    for n in (2, 5, 9):
        Pn = pair_groupoid(range(n))
        allones = ConvElement(Pn, {a: 1 for a in Pn.arrows})
        assert abs(reduced_norm(allones) - n) < 1e-9 * n


def test_reduced_norm_vs_svd_oracle():
    rng = np.random.default_rng(42)
    for n in (3, 7, 12, 16):
        Pn = pair_groupoid(range(n))
        for _ in range(5):
            coeffs = {
                a: complex(rng.standard_normal(), rng.standard_normal())
                for a in Pn.arrows
                if rng.random() < 0.4
            }
            if not coeffs:
                continue
            f = ConvElement(Pn, coeffs)
            A = np.zeros((n, n), dtype=complex)
            for (x, y), c in f.coeffs.items():
                A[x, y] = complex(float(c[0]), float(c[1]))
            want = float(np.linalg.svd(A, compute_uv=False)[0])
            got = reduced_norm(f)
            assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_spectral_norm_corner_cases():
    assert spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    assert abs(spectral_norm(np.eye(4, dtype=complex)) - 1.0) < 1e-12
    # repeated eigenvalue (no spectral gap)
    assert abs(spectral_norm(2.0 * np.eye(8, dtype=complex)) - 2.0) < 1e-9


def power_iteration_norm(A, iters=2000, seed=0):
    """Largest singular value by power iteration on A^H A: each Rayleigh
    quotient is a lower bound for sigma_max^2 and converges to it."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    B = A.conj().T @ A
    for _ in range(iters):
        w = B @ v
        n = np.linalg.norm(w)
        if n == 0.0:
            return 0.0
        v = w / n
    return float(np.sqrt(np.vdot(v, B @ v).real))


def test_spectral_norm_matches_power_iteration():
    rng = np.random.default_rng(11)
    for n, m in ((1, 1), (3, 3), (5, 2), (8, 8), (12, 12)):
        for _ in range(4):
            A = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            want = power_iteration_norm(A)
            got = spectral_norm(A)
            assert want <= got * (1 + 1e-12)
            assert abs(got - want) <= 1e-9 * max(1.0, got)


def test_cstar_identity_random():
    rng = np.random.default_rng(7)
    P6 = pair_groupoid(range(6))
    for _ in range(30):
        coeffs = {
            a: complex(rng.standard_normal(), rng.standard_normal())
            for a in P6.arrows
            if rng.random() < 0.35
        }
        if not coeffs:
            continue
        f = ConvElement(P6, coeffs)
        n1 = reduced_norm(convolve(adjoint(f), f))
        n2 = reduced_norm(f)
        assert abs(n1 - n2 * n2) <= 1e-8 * max(1.0, n2 * n2)


def test_cutdown_and_commutator_examples():
    P3 = pair_groupoid(range(3))
    f = ConvElement(P3, {(0, 1): 1, (1, 2): (0, 1)})
    assert cutdown(f, {u: 1 for u in range(3)}).coeffs == f.coeffs
    rep = commutator_report(f, np.ones(3))
    assert rep["commutator_norm"] == 0.0

    e01 = ConvElement(P3, {(0, 1): 1})
    rep2 = commutator_report(e01, np.array([1.0, 0.0, 0.0]))
    assert abs(rep2["commutator_norm"] - 1.0) < 1e-12
    assert rep2["oscillation"] == 1.0
    assert rep2["bisection_count"] == 1

    # under isotropy the commutator's norm takes the orbit path: Z/2 x the
    # pair groupoid on 2 units (arrow (g, x, y) is 4g + 2x + y)
    Z2P = groupoid_from_json(z2_pair_groupoid_json(2))
    f = ConvElement(Z2P, {1: (1, 0), 4: (F(1, 2), 1), 6: (0, -1)})
    phi = np.array([0.25, 1.0])
    got = commutator_report(f, phi)
    want = commutator_report_oracle(f, dict(enumerate(phi.tolist())))
    assert got["commutator_norm"] > 0
    assert abs(got["commutator_norm"] - want["commutator_norm"]) <= 1e-12
    assert all(got[k] == want[k] for k in ("oscillation", "bisection_count", "phi_sup"))


def test_bisection_count_vs_bruteforce():
    """The edge-coloring count must equal the brute-force minimum number of
    r/s-injective pieces on small supports."""

    def brute_min_cover(G, arrows):
        arrows = list(arrows)
        for k in range(1, len(arrows) + 1):
            for assign in itertools.product(range(k), repeat=len(arrows)):
                groups = {}
                for a, c in zip(arrows, assign):
                    groups.setdefault(c, []).append(a)
                ok = True
                for grp in groups.values():
                    ss = [G.source(a) for a in grp]
                    rr = [G.range(a) for a in grp]
                    if len(set(ss)) != len(ss) or len(set(rr)) != len(rr):
                        ok = False
                        break
                if ok:
                    return k
        return len(arrows)

    rng = random.Random(9)
    P4 = pair_groupoid(range(4))
    for _ in range(12):
        support = rng.sample(list(P4.arrows), rng.randint(1, 6))
        f = ConvElement(P4, {a: 1 for a in support})
        rep = commutator_report(f, np.full(4, 0.5))
        assert rep["bisection_exact"]
        assert rep["bisection_count"] == brute_min_cover(P4, support)


def test_commutator_bisection_bound_random():
    """||[f, phi]|| <= M * osc * ||f|| on random data."""
    rng = np.random.default_rng(17)
    G = cyclic_rotation_groupoid(8)
    for _ in range(15):
        coeffs = {
            a: complex(rng.standard_normal(), rng.standard_normal())
            for a in G.arrows
            if rng.random() < 0.2
        }
        if not coeffs:
            continue
        f = ConvElement(G, coeffs)
        phi = rng.random(8)
        rep = commutator_report(f, phi)
        bound = rep["bisection_count"] * rep["oscillation"] * reduced_norm(f)
        assert rep["commutator_norm"] <= bound + 1e-9


def test_block_decompose_examples():
    B = block_union_pair_groupoid([[0], [1, 2], [3, 4, 5]])
    bd = block_decompose(B)
    assert sorted(bd.sizes()) == [1, 2, 3]
    assert matrix_unit_defects(bd) == []

    U = block_union_pair_groupoid([[u] for u in range(4)])
    assert sorted(block_decompose(U).sizes()) == [1, 1, 1, 1]

    iso = action_groupoid_oracle(cyclic_group(2), ["p"], lambda g, x: x)
    with pytest.raises(NotFree):
        block_decompose(iso)


def test_matrix_unit_oracle_sees_a_broken_decomposition():
    bd = block_decompose(block_union_pair_groupoid([[0, 1, 2]]))
    assert matrix_unit_defects(bd) == []
    bd.pos[2] = bd.pos[1]
    assert matrix_unit_defects(bd)


def blocks(*bs):
    return BlockArrows(frozenset(frozenset(b) for b in bs))


def test_block_decompose_rejects_non_subgroupoids():
    # a block spanning the two orbits {1, 2} and {3, 4, 5}: no arrow joins them
    B = block_union_pair_groupoid([[0], [1, 2], [3, 4, 5]])
    with pytest.raises(NotFree):
        block_decompose(B, blocks([0], [1, 2, 3]))
    # Z/4 rotating the first coordinate of Z/4 x {0, 1}: two orbits
    Z4x2 = action_groupoid_oracle(
        cyclic_group(4), [(i, j) for i in range(4) for j in (0, 1)],
        lambda g, x: ((x[0] + g) % 4, x[1]),
    )
    with pytest.raises(NotFree):
        block_decompose(Z4x2, blocks([(0, 0), (0, 1)]))
    # Z/4 acting on {0, 1} through Z/2: (2, 0) is isotropy at the block
    Z4 = action_groupoid_oracle(cyclic_group(4), [0, 1], lambda g, x: (x + g) % 2)
    with pytest.raises(NotFree):
        block_decompose(Z4, blocks([0, 1]))
    # an empty block is malformed input, not a traceback
    Z6 = cyclic_rotation_groupoid(6)
    with pytest.raises(InvalidInput, match="at least one unit"):
        block_decompose(Z6, BlockArrows(frozenset({frozenset()})))
    # a block inside one orbit is accepted, and so is a part of one
    bd = block_decompose(Z6, blocks([0, 1]))
    assert bd.sizes() == [2] and matrix_unit_defects(bd) == []
    assert set(arrow_positions(bd)) == {(1, 0), (5, 1), (0, 0), (0, 1)}
    bd = block_decompose(Z4x2, blocks([(0, 0), (1, 0)], [(2, 1)]))
    assert bd.sizes() == [2, 1] and matrix_unit_defects(bd) == []


@st.composite
def decomposable(draw):
    """A groupoid, free or with isotropy, and blocks of its units drawn
    as a partition of some of them; now and then one block overlaps
    another or holds a label that is no unit."""
    kind = draw(st.sampled_from(["action", "pair_blocks", "involution"]))
    if kind == "action":
        G, _ = draw(actions())
    elif kind == "pair_blocks":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        G = block_union_pair_groupoid([list(range(b, b + n)) for b, n in zip(starts, sizes)])
    else:
        G = groupoid_from_json(z2_pair_groupoid_json(draw(st.integers(1, 3))))
    if not G.units or draw(st.booleans()):
        return G, None
    units = draw(st.permutations(G.units))
    units = units[: draw(st.integers(1, len(units)))]
    cuts = sorted(draw(st.sets(st.integers(1, len(units)), max_size=3)) | {len(units)})
    blocks = [units[a:b] for a, b in zip([0] + cuts, cuts) if a < b]
    fault = draw(st.sampled_from(["none", "none", "overlap", "ghost"]))
    if fault == "overlap" and len(blocks) > 1:
        blocks[0] = blocks[0] + blocks[1][:1]
    elif fault == "ghost":
        blocks[-1] = blocks[-1] + ["ghost"]
    return G, BlockArrows(frozenset(frozenset(b) for b in blocks))


def _decomposition_outcome(decompose, G, sub):
    try:
        return decompose(G, sub)
    except NotFree as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(case=decomposable(), data=st.data())
def test_block_decompose_matches_arrow_scan(case, data):
    """Blocks checked through isotropy at their units and orbits, against
    the scan of every arrow: the same classes, or the same NotFree; and the
    block matrices put each coefficient at the coordinates the scan gives
    its arrow, and refuse an arrow the scan places in no block; the
    matrices come in one stack per block size."""
    G, sub = case
    got = _decomposition_outcome(lambda G, sub: block_classes(block_decompose(G, sub)), G, sub)
    want = _decomposition_outcome(block_decompose_oracle, G, sub)
    if isinstance(want, str):
        assert got == want
        return
    classes, pos = want
    assert got == classes
    bd = block_decompose(G, sub)
    support = data.draw(st.lists(st.sampled_from(sorted(pos, key=repr)), unique=True))
    f = ConvElement(G, {a: (n + 1, -n) for n, a in enumerate(support)})
    stacks = bd.stacks(f)
    mats = {k: stack[j] for ids, stack in stacks for j, k in enumerate(ids.tolist())}
    assert sorted(mats) == list(range(len(classes)))
    assert all(stack.shape[1:] == (bd.sizes()[ids[0]],) * 2 for ids, stack in stacks)
    assert all(len(set(bd.sizes()[k] for k in ids)) == 1 for ids, _ in stacks)
    assert sum(int(np.count_nonzero(m)) for m in mats.values()) == len(support)
    for n, a in enumerate(support):
        k, i, j = pos[a]
        assert mats[k][i, j] == complex(n + 1, -n)
    outside = [a for a in G.arrows if a not in pos]
    if outside:
        with pytest.raises(SupportLeak):
            bd.stacks(ConvElement(G, {data.draw(st.sampled_from(outside)): 1}))


def _largest_singular_value(rows) -> float:
    A = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=complex)
    return float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0


@settings(max_examples=150, deadline=None)
@given(case=decomposable(), data=st.data())
def test_reduced_norm_matches_regular_representation_oracle(case, data):
    """The reduced norm, by the blocks of the support on a free groupoid
    and by one unit per orbit under isotropy, against the largest singular
    value of pi_x(f) built by its definition at every unit."""
    G, _ = case
    fraction = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    support = data.draw(st.lists(st.sampled_from(G.arrows), max_size=12, unique=True))
    f = ConvElement(G, {a: (data.draw(fraction), data.draw(fraction)) for a in support})
    want = max(
        (_largest_singular_value(regular_representation_oracle(f, x)[1]) for x in G.units),
        default=0.0,
    )
    assert abs(reduced_norm(f) - want) <= NORM_TOL * max(1.0, want)


def test_reduced_norm_takes_no_svd_beyond_a_support_component(monkeypatch):
    """On Z/256, an element supported where a ramp phi changes, as a
    commutator [f, phi] is, has support components of at most 5 units;
    its reduced norm measures blocks no larger than that, and no regular
    representation, where one orbit's is 256 x 256.  A stack of blocks
    (b, k, k) counts as blocks of k units.  The blocks come from the
    element's arrays: no subgroupoid is generated, and no ``BlockArrows``
    is built."""
    n = 256
    G = cyclic_rotation_groupoid(n)

    def ramp(u):
        return min(max(F(u - 10, 4), F(0)), F(1))

    phi = {u: ramp(u) if u < n // 2 else 1 - ramp(u - 130) for u in G.units}
    f = ConvElement(G, {a: 1 for a in G.moves([1])})
    comm = pointwise(f, lambda g: phi[G.source(g)] - phi[G.range(g)])
    assert max(len(b) for b in generate_subgroupoid(G, comm.coeffs).blocks) == 5

    shapes, reps = [], []
    norm, rep = convolution.spectral_norm, convolution.regular_representation
    monkeypatch.setattr(
        convolution, "spectral_norm", lambda A: shapes.append(A.shape[-2:]) or norm(A)
    )
    monkeypatch.setattr(
        convolution, "regular_representation", lambda f, x: reps.append(x) or rep(f, x)
    )
    refuse_generation(monkeypatch)
    got = reduced_norm(comm)
    assert shapes and max(max(shape) for shape in shapes) <= 5
    assert reps == []

    A = np.zeros((n, n))
    for g, (re, _) in comm.coeffs.items():
        A[G.range(g), G.source(g)] = float(re)
    want = float(np.linalg.svd(A, compute_uv=False)[0])
    assert abs(got - want) <= NORM_TOL * max(1.0, want)


def z12_pou(N):
    arcs = [frozenset(range(0, 7)), frozenset(list(range(6, 12)) + [0])]
    return pou_from_group_action(12, [-1, 0, 1], arcs, N, None)


def test_decompose_single_color_is_exact():
    G, K, towers, pou = pou_from_group_action(
        6, [-1, 0, 1], [frozenset(range(6))], 4, None
    )
    f = ConvElement(G, {a: 1 for a in K})
    rep = decompose_via_pou(f, pou)
    assert rep["accepted"] and rep["defect"] <= 1e-12
    assert rep["summands"] == 1


@pytest.mark.parametrize("N", [4, 16])
def test_decompose_z12(N):
    G, K, towers, pou = z12_pou(N)
    f = ConvElement(G, {a: 1 for a in K})
    rep = decompose_via_pou(f, pou)
    assert rep["accepted"]
    assert rep["defect"] <= rep["triangle_bound"] + 1e-9
    for i, pc in enumerate(rep["per_color"]):
        assert pc["commutator_norm"] <= pc["commutator_bound"] + 1e-9
        assert pc["cutdown_norm"] <= reduced_norm(f) + 1e-9
        # the largest block norm over the color's blocks is the reduced norm
        phi = {u: phi_float(pou, i, u) for u in G.units}
        assert abs(pc["cutdown_norm"] - reduced_norm(cutdown(f, phi))) <= 1e-9
        assert pc["cutdown_block_norm"] == pc["cutdown_norm"]


def test_decompose_support_leak():
    G, K, towers, pou = z12_pou(4)
    # shrink a declared color after the fact: the cut-down escapes it
    pou.towers[0].top[2:] = False
    f = ConvElement(G, {a: 1 for a in K})
    with pytest.raises(SupportLeak, match="escapes its small subgroupoid"):
        decompose_via_pou(f, pou)


def test_decompose_triangle_inequality_random_elements():
    rng = np.random.default_rng(31)
    G, K, towers, pou = z12_pou(8)
    arrows = sorted(K, key=repr)
    for _ in range(5):
        coeffs = {
            a: complex(rng.standard_normal(), rng.standard_normal())
            for a in arrows
            if rng.random() < 0.5
        }
        if not coeffs:
            continue
        f = ConvElement(G, coeffs)
        rep = decompose_via_pou(f, pou)
        assert rep["defect"] <= rep["triangle_bound"] + 1e-7 * max(1.0, rep["norm_f"])


def test_decompose_refuses_isotropy():
    """Z/4 acting on two points through Z/2 has isotropy at both: the
    cut-down decomposition refuses it with NotFree."""
    G = action_groupoid_oracle(cyclic_group(4), (0, 1), lambda g, x: (x + g) % 2)
    K = frozenset(G.arrows)
    tower = NestedColorTower(0, np.ones((1, 2), bool))
    pou = PartitionOfUnity(G, K, [tower], 4, np.zeros(2, np.intp), [(F(1), F(1))], [np.arange(2)])
    with pytest.raises(NotFree):
        decompose_via_pou(ConvElement(G, {a: 1 for a in K}), pou)


@st.composite
def z_q_pous(draw):
    """A partition of unity on Z/q, q <= 24, built from one to three arcs
    that cover the circle (each overlapping the next by 0 to 3 points),
    for E = [-e, e] with e in {1, 2} and averaging depth N in 4..16."""
    q = draw(st.integers(2, 24))
    starts = sorted(draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=min(3, q))))
    arcs = []
    for j, a in enumerate(starts):
        gap = (starts[(j + 1) % len(starts)] - a) % q or q
        length = min(q, gap + draw(st.integers(0, 3)))
        arcs.append(frozenset((a + t) % q for t in range(length)))
    e = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(4, 16))
    return pou_from_group_action(q, range(-e, e + 1), arcs, N, None)


def assert_reports_agree(got, want, path="$"):
    """Equal except for floats, which agree within 1e-9 max(1, |x|)."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_reports_agree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for n, (a, b) in enumerate(zip(got, want)):
            assert_reports_agree(a, b, f"{path}[{n}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@settings(max_examples=80, deadline=None)
@given(case=z_q_pous(), data=st.data())
def test_decompose_matches_the_dict_oracle(case, data):
    """The decomposition on arrays against the one on ConvElement dicts,
    for the K-indicator and for random complex elements in K: the same
    report, floats within 1e-9 (the oracle's defect carries float residues
    of sum_i phi_i^2 - 1 that the arrays leave out)."""
    G, K, _, pou = case
    if data.draw(st.booleans()):
        f = ConvElement(G, {a: 1 for a in K})
    else:
        fraction = st.fractions(min_value=-2, max_value=2, max_denominator=6)
        support = data.draw(st.lists(st.sampled_from(sorted(K, key=repr)), unique=True))
        f = ConvElement(G, {
            a: (data.draw(fraction), data.draw(st.one_of(st.just(F(0)), fraction)))
            for a in support
        })
    assert_reports_agree(decompose_via_pou(f, pou), decompose_oracle(f, as_set_pou(pou)))


@st.composite
def block_stacks(draw):
    """A stack (b, k, k) of one kind: real symmetric, complex Hermitian,
    non-normal real or complex, zero, 1 x 1, or empty (b or k is 0)."""
    kind = draw(st.sampled_from(
        ["symmetric", "hermitian", "real", "complex", "zero", "1x1", "empty"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if kind == "empty":
        b, k = draw(st.sampled_from([(0, k), (b, 0), (0, 0)]))
    elif kind == "1x1":
        k = 1
    A = rng.standard_normal((b, k, k))
    if kind in ("hermitian", "complex", "1x1"):
        A = A + 1j * rng.standard_normal((b, k, k))
    if kind in ("symmetric", "hermitian"):
        A = A + A.conj().swapaxes(-1, -2)
    elif kind == "zero":
        A = np.zeros((b, k, k), dtype=draw(st.sampled_from([float, complex])))
    return A


@settings(max_examples=200, deadline=None)
@given(A=block_stacks())
def test_stacked_spectral_norm_matches_per_block_svd(A):
    """A stack's norm is the largest singular value of any of its blocks,
    each from its own SVD, and each block alone gives its own."""
    per_block = [float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0 for M in A]
    want = max(per_block, default=0.0)
    assert abs(spectral_norm(A) - want) <= NORM_TOL * max(1.0, want)
    for M, w in zip(A, per_block):
        assert abs(spectral_norm(M) - w) <= NORM_TOL * max(1.0, w)


def test_the_library_takes_no_svd():
    """Every norm goes through ``eigvalsh``: no SVD and no matrix 2-norm
    is left in the library's sources."""
    sources = Path(convolution.__file__).parent.glob("*.py")
    text = "\n".join(p.read_text() for p in sources)
    assert re.search(r"\bsvd\b", text) is None
    assert re.search(r"linalg\.norm\(", text) is None
