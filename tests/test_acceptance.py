"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single pass line with the measured quantities (visible
under ``pytest -s``); a failed assertion is the corresponding FAIL.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dadim.coarse import (
    Grid1dSpace,
    Grid2dSpace,
    TableMetricSpace,
    bridge_to_groupoid,
    construct_grid_witness,
    verify_asdim_witness,
)
from dadim.convolution import (
    ConvElement,
    block_decompose,
    reduced_norm,
)
from dadim.exactmath import diff_lt_osc_bound, osc_bound_float
from dadim.groupoid import block_union_pair_groupoid, pair_groupoid
from dadim.nerve import SimplicialComplex, SimplicialPoint, l1_distance, nice_cover_assign
from dadim.pipeline import run_pipeline
from dadim.pou import pou_from_group_action, verify_pou
from dadim.symbolic import Odometer, return_time_report
from dadim.witness import DadWitness, construct_minimal_z_witness, verify_dad_witness
from helpers import (
    adjoint,
    as_set_pou,
    convolve,
    exhaustive_min_colors_with_witness,
    matrix_unit_defects,
    phi_pair,
    whole,
)

F = Fraction


def quotient_bruteforce(q, residues, E, disp_cap):
    """Independent enumeration of broken-orbit elements on the rotation Z/q."""
    E = sorted({e for x in E for e in (x, -x)} | {0})
    reached = set()
    frontier = [(p, 0) for p in residues]
    seen = set(frontier)
    while frontier:
        pos, disp = frontier.pop()
        reached.add(disp)
        for e in E:
            if e == 0:
                continue
            state = ((pos + e) % q, disp + e)
            if abs(state[1]) > disp_cap:
                return None
            if state[0] in residues and state not in seen:
                seen.add(state)
                frontier.append(state)
    return frozenset(reached)


def test_criterion_1_minimal_z_shadow():
    """Minimal Z-system witnesses on the dyadic odometer for N in {1, 2, 3}."""
    dyadic = Odometer([2], depth_limit=12)
    # M is the exact return time of the refinement V; the 5N disjointness
    # radius forces U to depth 3, 4, 4 and V one level deeper
    expected_M = {1: 16, 2: 32, 3: 32}
    for N in (1, 2, 3):
        t0 = time.monotonic()
        w = construct_minimal_z_witness(dyadic, N)
        report = verify_dad_witness(dyadic, w)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"N={N} took {elapsed:.2f}s"
        assert report.accepted
        assert len(w.colors) == 2
        M = w.meta["M"]
        from dadim.symbolic import clopen_from_json

        v = clopen_from_json(dyadic, w.meta["V"])
        rt = return_time_report(v)
        assert M == rt.min_forward_return == rt.max_gap == expected_M[N]
        f0, f1 = w.finite_sets
        assert all(abs(n) <= 3 * N for n in f0)
        assert all(abs(n) <= M + N for n in f1)
        # exact equality with an independent brute force on Z/2^6
        k, q = 6, 64
        for color, want in zip(w.colors, w.finite_sets):
            got = quotient_bruteforce(
                q, color.values_at_depth(k), range(-N, N + 1), 2 * (M + N)
            )
            assert got == want
        print(
            f"[criterion 1] PASS N={N}: M={M}, F0 in [-{3*N},{3*N}], "
            f"F1 in [-{M+N},{M+N}], BFS == brute force, {elapsed:.2f}s"
        )


def test_criterion_2_locally_finite_obstruction():
    """A single whole-space color with E = {-1,0,1} must blow up fast."""
    dyadic = Odometer([2], depth_limit=12)
    bad = DadWitness(
        colors=[whole(dyadic)],
        generator_set=(-1, 0, 1),
        finite_sets=[frozenset({0})],
    )
    t0 = time.monotonic()
    report = verify_dad_witness(dyadic, bad)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert not report.accepted and report.code == "BlowupExceeded"
    print(f"[criterion 2] PASS: BlowupExceeded in {elapsed*1000:.0f}ms")


def test_criterion_3_skeleton_cover_exactness():
    """All 1891 grid points on the 2-simplex are covered and the pieces of
    each level are (1/3)10^-i separated, by exact rational comparison."""
    t0 = time.monotonic()
    C = SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])
    den = 60
    pieces: dict = {}
    count = 0
    for a in range(den + 1):
        for b in range(den + 1 - a):
            c = den - a - b
            mu = SimplicialPoint({
                v: F(k, den) for v, k in (("a", a), ("b", b), ("c", c)) if k
            })
            count += 1
            i, delta = nice_cover_assign(mu, C)  # raises if uncovered
            pieces.setdefault((i, delta), []).append(mu)
    assert count == 1891
    checked_pairs = 0
    for (i, d1), pts1 in pieces.items():
        for (j, d2), pts2 in pieces.items():
            if i != j or d1 >= d2:
                continue
            radius = F(1, 3 * 10**i)
            for mu in pts1:
                for nu in pts2:
                    checked_pairs += 1
                    assert l1_distance(mu, nu) >= radius
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"[criterion 3] PASS: 1891 samples covered, {checked_pairs} "
        f"cross-piece pairs exactly separated, {elapsed:.2f}s"
    )


@pytest.mark.parametrize("N", [4, 16, 64])
def test_criterion_4_pou_constants(N):
    """Oscillation strictly below sqrt(2)(1+sqrt(2))/sqrt(N) as a squared
    rational inequality, and sum phi_i^2 = 1 exactly."""
    arcs = [frozenset(range(0, 7)), frozenset(list(range(6, 12)) + [0])]
    G, K, towers, pou = pou_from_group_action(
        12, [-1, 0, 1], arcs, N, None
    )
    assert pou.d == 1
    report = verify_pou(G, K, pou)  # exact squared comparison inside
    assert report.accepted
    # re-run the exact comparison arrow by arrow, zero tolerance
    for a in K:
        for i in range(2):
            ps, Ss = phi_pair(pou, i, G.source(a))
            pr, Sr = phi_pair(pou, i, G.range(a))
            assert diff_lt_osc_bound(ps, Ss, pr, Sr, 1, N)
    tables = as_set_pou(pou)
    for x in range(12):
        total = sum((p.get(x, F(0)) ** 2 for p in tables.psi), F(0))
        assert total / tables.norm_sq[x] == 1
    print(
        f"[criterion 4] PASS N={N}: max osc "
        f"{report.details['max_oscillation_float']:.6f} < "
        f"{osc_bound_float(1, N):.6f} (exact squared check), sum phi^2 == 1"
    )


def test_criterion_5_bridge():
    """Interval and brick witnesses bridge to accepted groupoid witnesses
    with exact class recovery."""
    t0 = time.monotonic()

    X1 = Grid1dSpace(0, 1999)
    w1 = construct_grid_witness(X1, 10)
    assert verify_asdim_witness(X1, w1).accepted
    G1, gw1, rep1 = bridge_to_groupoid(X1, w1)
    assert rep1.accepted
    assert [gen.blocks for gen in gw1.generated] == list(map(frozenset, w1.families))

    X2 = Grid2dSpace(200, 200)
    w2 = construct_grid_witness(X2, 5)
    assert verify_asdim_witness(X2, w2).accepted
    G2, gw2, rep2 = bridge_to_groupoid(X2, w2)
    assert rep2.accepted
    assert [gen.blocks for gen in gw2.generated] == list(map(frozenset, w2.families))

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"[criterion 5] PASS: 1d (2000 pts) and 2d (200^2) witnesses bridged "
        f"and recovered exactly, {elapsed:.1f}s"
    )


def test_criterion_6_exhaustive_oracle():
    """Oracle pins the path-graph instance and lower-bounds every accepted
    witness across the full (R, S) sweep."""
    t0 = time.monotonic()
    P12 = TableMetricSpace.from_edges(range(12), [(i, i + 1) for i in range(11)])
    assert exhaustive_min_colors_with_witness(P12, 2, 4)[0] == 2

    rng = random.Random(2024)
    spaces = [P12, TableMetricSpace.from_edges(
        [(x, y) for x in range(3) for y in range(3)],
        [((x, y), (x + 1, y)) for x in range(2) for y in range(3)]
        + [((x, y), (x, y + 1)) for x in range(3) for y in range(2)],
    )]
    checked = 0
    for X in spaces:
        diam = X.diameter()
        n = len(X.points)
        for R in range(1, diam + 1):
            for S in range(1, diam + 1):
                k, w = exhaustive_min_colors_with_witness(X, R, S)
                assert verify_asdim_witness(X, w).accepted
                # randomized accepted witnesses never beat the oracle
                for _ in range(3):
                    kk = rng.randint(max(1, k - 1), min(n, k + 2))
                    assignment = [rng.randrange(kk) for _ in range(n)]
                    fams = []
                    for fam in range(kk):
                        members = {
                            p for p, c in zip(X.points, assignment) if c == fam
                        }
                        comps = []
                        while members:
                            seed = members.pop()
                            comp = {seed}
                            grew = True
                            while grew:
                                grew = False
                                for qpt in list(members):
                                    if any(X.dist(qpt, cpt) <= R for cpt in comp):
                                        comp.add(qpt)
                                        members.discard(qpt)
                                        grew = True
                            comps.append(frozenset(comp))
                        fams.append(comps)
                    from dadim.coarse import AsdimWitness

                    cand = AsdimWitness(R, S, fams)
                    if verify_asdim_witness(X, cand).accepted:
                        assert sum(1 for f in fams if f) >= k
                        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"[criterion 6] PASS: P12(R=2,S=4)=2; sweep verified, "
        f"{checked} randomized accepted witnesses >= oracle, {elapsed:.1f}s"
    )


def test_criterion_7_norm_numerics():
    """Reduced norm vs dense spectral norm, the C*-identity, and exact
    block structure on full pair groupoids."""
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    worst_rel = 0.0
    for n in (2, 5, 9, 13, 16):
        Pn = pair_groupoid(range(n))
        for _ in range(4):
            coeffs = {
                a: complex(rng.standard_normal(), rng.standard_normal())
                for a in Pn.arrows
                if rng.random() < 0.35
            }
            if not coeffs:
                continue
            f = ConvElement(Pn, coeffs)
            A = np.zeros((n, n), dtype=complex)
            for (x, y), c in f.coeffs.items():
                A[x, y] = complex(float(c[0]), float(c[1]))
            want = float(np.linalg.svd(A, compute_uv=False)[0])
            got = reduced_norm(f)
            rel = abs(got - want) / max(want, 1e-30)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-9

    P10 = pair_groupoid(range(10))
    worst_cstar = 0.0
    for _ in range(100):
        coeffs = {
            a: complex(rng.standard_normal(), rng.standard_normal())
            for a in P10.arrows
            if rng.random() < 0.25
        }
        if not coeffs:
            continue
        f = ConvElement(P10, coeffs)
        nf = reduced_norm(f)
        nff = reduced_norm(convolve(adjoint(f), f))
        rel = abs(nff - nf * nf) / max(nf * nf, 1e-30)
        worst_cstar = max(worst_cstar, rel)
        assert rel <= 1e-8

    sizes = [1, 4, 2, 7, 2]
    blocks = []
    base = 0
    for s in sizes:
        blocks.append(list(range(base, base + s)))
        base += s
    B = block_union_pair_groupoid(blocks)
    bd = block_decompose(B)
    assert sorted(bd.sizes()) == sorted(sizes)
    assert matrix_unit_defects(bd) == []

    elapsed = time.monotonic() - t0
    print(
        f"[criterion 7] PASS: norm rel err <= {worst_rel:.2e}, C* identity "
        f"rel err <= {worst_cstar:.2e}, blocks {sorted(sizes)} exact, {elapsed:.1f}s"
    )


def test_criterion_8_pipeline_shadow(tmp_path):
    """Full pipeline on the dyadic depth-6 quotient; inequality chain
    logged: defect <= triangle bound, commutators below the bisection
    bound, oscillation below the depth constant."""
    import json

    t0 = time.monotonic()
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({"kind": "odometer", "base": [2], "depth_limit": 12}))
    chain = run_pipeline(sysfile, N=1, quotient_depth=6, pou_depth=4, outdir=tmp_path / "out")
    assert chain.green
    decomp = json.loads((tmp_path / "out" / "07_decomposition.json").read_text())
    d = decomp["decomposition"]
    assert d["accepted"]
    assert d["defect"] <= d["triangle_bound"] + 1e-9
    for pc in d["per_color"]:
        assert pc["commutator_norm"] <= pc["commutator_bound"] + 1e-9
    assert decomp["oscillation_below_bound"]
    assert decomp["pou_oscillation"] < decomp["pou_oscillation_bound"]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"[criterion 8] PASS: defect {d['defect']:.3e} <= bound "
        f"{d['triangle_bound']:.3e}; commutators within {len(d['per_color'])} "
        f"bisection bounds; osc {decomp['pou_oscillation']:.4f} < "
        f"{decomp['pou_oscillation_bound']:.4f}; {elapsed:.1f}s"
    )
