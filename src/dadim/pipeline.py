"""End-to-end certificate pipeline and the regression corpus.

The pipeline chains: symbolic witness construction -> finite-quotient
transformation-groupoid witness -> cover enlargement -> nested towers ->
almost-invariant partition of unity -> cut-down decomposition report.
Each stage writes one certificate, and takes the one before as its input;
the chain records their hashes so tampering is detected on re-verification.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from . import certify
from .certify import CertificateChain, corpus_dir, load_certificate, write_certificate
from .convolution import ConvElement, decompose_via_pou, reduced_norm
from .errors import DepthExceeded, InvalidInput, VerificationFailed
from .exactmath import osc_bound_float
from .groupoid import (
    GroupoidDadWitness,
    _seeds,
    cyclic_rotation_groupoid,
    generate_subgroupoid,
    verify_groupoid_dad,
)
from .pou import build_pou, build_tower, enlarge_cover, verify_pou
from .symbolic import Odometer, system_from_json
from .witness import (
    color_element_sets,
    construct_minimal_z_witness,
    verify_dad_witness,
)

__all__ = ["run_pipeline", "corpus_check", "project_witness_to_quotient"]


def project_witness_to_quotient(system: Odometer, witness, depth: int):
    """Residue sets mod q_depth of the witness colors (exact when every
    color has depth at most ``depth``)."""
    q = system.level_size(depth)
    colors_q = []
    for c in witness.colors:
        if c.depth > depth:
            raise DepthExceeded(
                f"quotient depth {depth} below color depth {c.depth}"
            )
        colors_q.append(frozenset(c.values_at_depth(depth)))
    return q, colors_q


def run_pipeline(
    system_file,
    N: int = 1,
    quotient_depth: int = 6,
    pou_depth: int = 4,
    outdir=None,
) -> CertificateChain:
    """Run every stage on a system file and emit a hash-linked chain."""
    outdir = Path(outdir if outdir is not None else ".")
    outdir.mkdir(parents=True, exist_ok=True)
    chain = CertificateChain(outdir)

    # stage 0: system
    sysdata = load_certificate(system_file)
    system = system_from_json(sysdata)
    chain.add_stage("system", "system", "01_system.json", {
        "system": system.to_json(),
        "minimal": system.minimal,
        "infinite": system.infinite,
    }, "verified")

    # stage 1: symbolic witness
    witness = construct_minimal_z_witness(system, N)
    wrep = verify_dad_witness(system, witness)
    chain.add_stage(
        "witness", "witness", "02_witness.json",
        {"witness": witness.to_json(), "verification": wrep.to_json()},
        "verified" if wrep.accepted else "failed",
        {"M": witness.meta["M"], "sizes": wrep.details.get("sizes")},
    )
    if not wrep.accepted:
        raise VerificationFailed("witness stage failed", wrep)
    if not isinstance(system, Odometer):
        raise InvalidInput("the quotient stages of the pipeline require an odometer")

    # stage 2: quotient transformation-groupoid witness
    M = witness.meta["M"]
    q, colors_q = project_witness_to_quotient(system, witness, quotient_depth)
    G = cyclic_rotation_groupoid(q)
    K = G.moves(witness.generator_set)
    generated = [generate_subgroupoid(G, seed) for seed in _seeds(G, K, colors_q)]
    size_bound = (2 * (M + N) + 1) * q
    gwitness = GroupoidDadWitness(K, colors_q, generated)
    grep = verify_groupoid_dad(G, gwitness, size_bound)
    # action/groupoid consistency: the generated group parts, read off the
    # blocks, must be the symbolic element sets reduced mod q
    parts_match = all(
        G.group_parts(generated[i]) == {n % q for n in witness.finite_sets[i]}
        for i in range(len(colors_q))
    )
    chain.add_stage("groupoid", "groupoid_witness", "03_groupoid_witness.json", {
        "quotient": q,
        "colors": [sorted(c) for c in colors_q],
        "generated_sizes": [len(g) for g in generated],
        "size_bound": size_bound,
        "group_parts_match_symbolic": parts_match,
        "verification": grep.to_json(),
    }, "verified" if grep.accepted and parts_match else "failed")
    if not grep.accepted or not parts_match:
        raise VerificationFailed("groupoid stage failed", grep)

    # stage 3: cover enlargement (witness strength measured against E^3)
    E3 = tuple(range(-3 * N, 3 * N + 1))
    f3 = color_element_sets(system, witness.colors, E3)
    bound_k3 = max(len(F) for F in f3) * q
    enlarged, erep = enlarge_cover(G, K, colors_q, bound_k3)
    chain.add_stage("enlarge", "enlarged", "04_enlarged.json", {
        "colors": [np.flatnonzero(c).tolist() for c in enlarged],
        "k3_element_counts": [len(F) for F in f3],
        "size_bound": bound_k3,
        "report": erep.to_json(),
    }, "verified")

    # stage 4: towers
    towers = build_tower(G, K, enlarged, pou_depth, size_bound=None)
    chain.add_stage("tower", "towers", "05_towers.json", {
        "N": pou_depth,
        "levels": [[np.flatnonzero(lvl).tolist() for lvl in t.levels] for t in towers],
    }, "verified")

    # stage 5: partition of unity
    pou = build_pou(G, K, towers)
    prep = verify_pou(G, K, pou)
    chain.add_stage(
        "pou", "pou", "06_pou.json",
        {"pou": pou.to_json(), "verification": prep.to_json()},
        "verified" if prep.accepted else "failed",
    )
    if not prep.accepted:
        raise VerificationFailed("partition-of-unity stage failed", prep)

    # stage 6: cut-down decomposition of the K-indicator element
    f = ConvElement(G, {a: 1 for a in K})
    drep = decompose_via_pou(f, pou)
    osc_bound = osc_bound_float(pou.d, pou.N)
    osc_ok = prep.details["max_oscillation_float"] < osc_bound
    chain.add_stage("decompose", "decomposition", "07_decomposition.json", {
        "decomposition": drep,
        "pou_oscillation": prep.details["max_oscillation_float"],
        "pou_oscillation_bound": osc_bound,
        "oscillation_below_bound": osc_ok,
    }, "verified" if drep["accepted"] and osc_ok else "failed")
    chain.write()
    if not drep["accepted"]:
        raise VerificationFailed("decomposition stage failed")
    return chain


# ---------------------------------------------------------------------------
# corpus


def _run_corpus_case(case: dict):
    from .coarse import (
        Grid1dSpace,
        Grid2dSpace,
        construct_grid_witness,
        verify_asdim_witness,
    )
    from fractions import Fraction

    from .groupoid import block_union_pair_groupoid, pair_groupoid, symmetrized
    from .convolution import block_decompose
    from .nerve import (
        SimplicialComplex,
        SimplicialPoint,
        check_equivariance,
        dad_witness_from_blr,
        grid_certificate,
        inner_radius,
    )
    from .pou import pou_from_group_action

    kind = case["kind"]
    params = case.get("params", {})
    if kind == "minimal_z_witness":
        system = system_from_json(params["system"])
        w = construct_minimal_z_witness(system, params["N"])
        rep = verify_dad_witness(system, w)
        return {"witness": w.to_json(), "accepted": rep.accepted}
    if kind == "grid_witness":
        box = params["box"]
        X = Grid1dSpace(*box) if params["n"] == 1 else Grid2dSpace(*(hi + 1 for _, hi in box))
        w = construct_grid_witness(X, params["R"])
        rep = verify_asdim_witness(X, w)
        return {"witness": w.to_json(), "accepted": rep.accepted}
    if kind == "z12_pou":
        arcs = [frozenset(a) for a in params["arcs"]]
        G, K, towers, pou = pou_from_group_action(
            params["order"], params["E"], arcs,
            params["N"], None,
        )
        rep = verify_pou(G, K, pou)
        return {"pou": pou.to_json(), "verification": rep.to_json()}
    if kind == "pair_norm":
        n = params["n"]
        G = pair_groupoid(range(n))
        f = ConvElement(G, {a: 1 for a in G.arrows})
        return {"n": n, "all_ones_norm": reduced_norm(f)}
    if kind == "blocks":
        G = block_union_pair_groupoid(_offsets(params["sizes"]))
        bd = block_decompose(G)
        return {"sizes": sorted(bd.sizes())}
    if kind == "nice_cover_grid":
        C = SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])
        cert = grid_certificate(C, params["denominator"])
        return {key: cert[key] for key in ("denominator", "level_counts")}
    if kind == "blr_ring":
        # Z/n rotating the n-cycle; x -> (1 - t) x + t (x + 1) is exactly
        # equivariant, so ``blr-check --witness`` accepts it
        n, t, E = params["order"], Fraction(params["t"]), params["E"]
        G = cyclic_rotation_groupoid(n)
        C = SimplicialComplex(range(n), [{i, (i + 1) % n} for i in range(n)])
        f = {x: SimplicialPoint({x: 1 - t, (x + 1) % n: t}) for x in range(n)}
        eq = check_equivariance(f, n, symmetrized(n, E), inner_radius(C.dimension))
        res = dad_witness_from_blr(f, E, C, G, eq)
        return {
            "equivariance": eq.to_json(),
            "colors": [sorted(c) for c in res.colors],
            "moving_set": sorted(res.moving_set),
            "verification": res.report.to_json(),
        }
    if kind == "pipeline":
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            sysfile = Path(tmp) / "system.json"
            write_certificate(sysfile, params["system"], stamp=False)
            chain = run_pipeline(
                sysfile, params["N"], params["quotient_depth"], params["pou_depth"],
                Path(tmp) / "out",
            )
            decomp = load_certificate(Path(tmp) / "out" / "07_decomposition.json")
            return {
                "green": chain.green,
                "stages": [s["kind"] for s in chain.stages],
                "defect": decomp["decomposition"]["defect"],
                "oscillation_below_bound": decomp["oscillation_below_bound"],
            }
    raise InvalidInput(f"unknown corpus case kind {kind!r}")


def _offsets(sizes):
    # disjoint blocks need disjoint labels
    blocks = []
    base = 0
    for s in sizes:
        blocks.append(list(range(base, base + s)))
        base += s
    return blocks


def corpus_check(write_golden: bool = False) -> dict:
    """Run every bundled case and compare against its golden certificate.

    Exact-arithmetic artifacts must match byte-for-byte (after canonical
    normalization); float fields compare within 1e-9 relative above 1
    and 1e-9 absolute below it (``certify.compare_artifacts``).
    """
    root = corpus_dir()
    cases = load_certificate(root / "cases.json")["cases"]
    results = {}
    failures = {}
    for case in cases:
        name = case["name"]
        t0 = time.monotonic()
        produced = _run_corpus_case(case)
        golden_path = root / case["golden"]
        if write_golden:
            write_certificate(golden_path, produced, stamp=False)
            results[name] = "written"
            continue
        golden = load_certificate(golden_path)
        diffs = certify.compare_artifacts(certify._normalize(produced), golden)
        if diffs:
            failures[name] = diffs[:5]
            results[name] = f"FAIL ({len(diffs)} diffs)"
        else:
            results[name] = f"ok ({time.monotonic() - t0:.2f}s)"
    return {"results": results, "failures": failures, "green": not failures}
