"""Seeded inputs and job lists of the four workloads.

``prepare`` writes every input a pass needs as JSON under ``work/inputs``
and returns the plan: the job list, in the order the seed chose.  The
seed picks only the order and cost-preserving variants (translation of a
witness's colors, rotation of Z/q partitions of unity and colors, which
field a tamper job changes); the library sees the generated files only.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from oracle import rotate_pou, translate_color

WORKLOADS = ("symbolic_witness", "pipeline_chain", "coarse_nerve", "reverify")

SYSTEMS = {
    "dyadic": {"kind": "odometer", "base": [2], "depth_limit": 12},
    "base23": {"kind": "odometer", "base": [2, 3], "depth_limit": 10},
    "triadic": {"kind": "odometer", "base": [3], "depth_limit": 10},
    # a -> aab, b -> a: primitive and aperiodic (Perron root 1 + sqrt 2); its
    # witness costs a tenth of the corpus's Fibonacci one
    "silver": {
        "kind": "subshift", "alphabet": ["a", "b"],
        "substitution": {"a": "aab", "b": "a"}, "depth_limit": 64,
    },
}

# corpus witness goldens by (system, N)
GOLDEN_OF = {("dyadic", 1): "odometer_n1", ("dyadic", 2): "odometer_n2",
             ("dyadic", 3): "odometer_n3", ("base23", 1): "odometer_base23_n1"}
SYSTEM_OF = {case: system for (system, _N), case in GOLDEN_OF.items()}

# job sizes per scale; in every list the last entry is the workload's largest job.
# A full-size pass takes 4-7 s, so a 30 s run holds enough passes for steady medians.
WITNESS_JOBS = {  # (system, N)
    "full": [("dyadic", 1), ("base23", 1), ("triadic", 1), ("silver", 1), ("dyadic", 3)],
    "tiny": [("dyadic", 1), ("base23", 1), ("triadic", 1)],
}
PIPELINE_JOBS = {  # (system, quotient depth, pou depth)
    "full": [("dyadic", 5, 4), ("base23", 4, 4), ("dyadic", 6, 4)],
    "tiny": [("dyadic", 4, 3)],
}
PIPELINE_GOLDEN = {("dyadic", 6, 4): "pipeline_dyadic_depth6"}
COARSE_JOBS = {  # grid dims and R; nerve denominators; order of the cyclic BLR action
    "full": {"grids": [([2000], 10), ([80, 80], 5)], "nerve": [40], "blr": 48},
    "tiny": {"grids": [([2000], 10)], "nerve": [12], "blr": 12},
}
GRID_GOLDEN = {((2000,), 10): "grid1d_r10"}
REVERIFY_JOBS = {  # corpus witnesses, corpus grid witnesses, stored chain
    "full": {"witnesses": ["odometer_n1", "odometer_n2", "odometer_base23_n1", "odometer_n3"],
             "asdim": ["grid1d_r10", "grid2d_r2"],
             "chain": ("dyadic", 6, 4)},
    "tiny": {"witnesses": ["odometer_base23_n1", "odometer_n1"], "asdim": ["grid1d_r10"],
             "chain": ("dyadic", 4, 3)},
}
ASDIM_SPACES = {"grid1d_r10": {"grid": {"dims": [2000]}},
                "grid2d_r2": {"grid": {"dims": [60, 60]}}}

WITNESS_TAMPERS = ("finite_set", "swap_sets", "empty_color", "blowup_bound")
POU_TAMPERS = ("zero", "half", "drop", "depth")
ASDIM_TAMPERS = ("drop_point", "duplicate_point", "bound_S")
# keys that artifact hashes skip (dadim.certify.VOLATILE_KEYS)
VOLATILE = ("created", "timestamp", "elapsed_seconds")
CHAIN_FILES = ("02_witness.json", "03_groupoid_witness.json", "04_enlarged.json",
               "05_towers.json", "06_pou.json", "07_decomposition.json")


def _dump(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def job(job_id, kind, largest=False, **args):
    return {"id": job_id, "kind": kind, "largest": largest, "args": args}


def prepare(workload, seed, scale, work: Path, corpus: Path) -> dict:
    """Write the inputs of one run under ``work/inputs``; return the plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, system in SYSTEMS.items():
        _dump(inputs / f"sys_{name}.json", system)
    jobs = PREPARE[workload](rng, scale, inputs, corpus)
    rng.shuffle(jobs)
    if sum(j["largest"] for j in jobs) != 1:
        raise AssertionError("each workload marks exactly one largest job")
    return {"workload": workload, "seed": seed, "scale": scale, "jobs": jobs}


def _symbolic_witness(rng, scale, inputs, corpus):
    specs = WITNESS_JOBS[scale]
    return [
        job(f"witness-{name}-n{N}", "witness", largest=(name, N) == specs[-1],
            system=f"sys_{name}.json", N=N, golden=GOLDEN_OF.get((name, N)))
        for name, N in specs
    ]


def _pipeline_chain(rng, scale, inputs, corpus):
    return [
        job(f"pipeline-{name}-q{q}-p{p}", "pipeline",
            largest=(name, q, p) == PIPELINE_JOBS[scale][-1],
            system=f"sys_{name}.json", N=1, quotient_depth=q, pou_depth=p,
            witness_golden=GOLDEN_OF[(name, 1)],
            golden=PIPELINE_GOLDEN.get((name, q, p)))
        for name, q, p in PIPELINE_JOBS[scale]
    ]


def _coarse_nerve(rng, scale, inputs, corpus):
    spec = COARSE_JOBS[scale]
    jobs = []
    for dims, R in spec["grids"]:
        tag = "x".join(map(str, dims))
        _dump(inputs / f"space_{tag}.json", {"grid": {"dims": dims}})
        jobs.append(job(f"coarse-{tag}-r{R}", "coarse", largest=(dims, R) == spec["grids"][-1],
                        space=f"space_{tag}.json", R=R,
                        golden=GRID_GOLDEN.get((tuple(dims), R))))
    for den in spec["nerve"]:
        jobs.append(job(f"nerve-d{den}", "nerve", denominator=den))
    n = spec["blr"]
    # the edge map x -> (3/5) x + (2/5) (x+1) is exactly equivariant
    _dump(inputs / "blr_action.json", {"cyclic": n})
    _dump(inputs / "blr_complex.json", {
        "vertices": list(range(n)),
        "maximal_faces": [[i, (i + 1) % n] for i in range(n)],
    })
    _dump(inputs / "blr_map.json", {
        "samples": {str(x): {str(x): "3/5", str((x + 1) % n): "2/5"} for x in range(n)}
    })
    jobs.append(job(f"blr-n{n}", "blr", action="blr_action.json",
                    complex="blr_complex.json", map="blr_map.json", E=[1]))
    return jobs


def _reverify(rng, scale, inputs, corpus):
    spec = REVERIFY_JOBS[scale]
    jobs = []
    for case in spec["witnesses"]:
        system = SYSTEMS[SYSTEM_OF[case]]
        w = dict(_load(corpus / f"{case}.json")["witness"])
        shift = rng.randint(1, 8)
        w["colors"] = [translate_color(system, c, shift) for c in w["colors"]]
        _dump(inputs / f"wit_{case}.json", w)
        jobs.append(job(f"verify-{case}", "verify_witness", largest=case == spec["witnesses"][-1],
                        system=f"sys_{SYSTEM_OF[case]}.json",
                        witness=f"wit_{case}.json", golden=case))
    for case in spec["asdim"]:
        _dump(inputs / f"space_{case}.json", ASDIM_SPACES[case])
        _dump(inputs / f"asdim_{case}.json", _load(corpus / f"{case}.json")["witness"])
        jobs.append(job(f"asdim-{case}", "verify_asdim", space=f"space_{case}.json",
                        witness=f"asdim_{case}.json", golden=case))

    z12 = _load(corpus / "z12_pou_n16.json")
    order = 12
    _dump(inputs / "pou_z12.json", {
        "order": order, "E": [0, 1, 11],
        "pou": rotate_pou(order, z12["pou"], rng.randrange(order)),
        "verification": z12["verification"],
    })
    jobs.append(job("pou-z12", "pou", pou="pou_z12.json", golden="z12_pou_n16"))

    name, q, p = spec["chain"]
    chain = inputs / "chain"
    _stored_chain(inputs / f"sys_{name}.json", q, p, chain)
    pou6 = _load(chain / "06_pou.json")
    E = _load(chain / "02_witness.json")["witness"]["E"]
    order = _load(chain / "03_groupoid_witness.json")["quotient"]
    _dump(inputs / "pou_chain.json", {
        "order": order, "E": sorted({e % order for e in E}),
        "pou": rotate_pou(order, pou6["pou"], rng.randrange(order)),
        "verification": pou6["verification"],
    })
    jobs.append(job(f"pou-chain-q{q}", "pou", pou="pou_chain.json", reference="chain"))
    jobs.append(job(f"groupoid-stage-q{q}", "groupoid_stage", chain="chain",
                    rotation=rng.randrange(order)))

    # tampers: one per artifact kind, the changed field chosen by the seed
    w = dict(_load(corpus / "odometer_n1.json")["witness"])
    w["colors"] = [translate_color(SYSTEMS["dyadic"], c, rng.randint(1, 8)) for c in w["colors"]]
    _dump(inputs / "tamper_witness.json", tamper_witness(w, rng.choice(WITNESS_TAMPERS)))
    jobs.append(job("tamper-witness", "verify_witness", tamper=True,
                    system="sys_dyadic.json", witness="tamper_witness.json"))

    cert = _load(inputs / "pou_z12.json")
    _dump(inputs / "tamper_pou.json", tamper_pou(cert, rng.choice(POU_TAMPERS)))
    jobs.append(job("tamper-pou", "pou", tamper=True, pou="tamper_pou.json"))

    tampered = inputs / "chain_tampered"
    shutil.copytree(chain, tampered)
    target = tampered / rng.choice(CHAIN_FILES)
    _dump(target, mutate_field(_load(target), rng))
    jobs.append(job("tamper-chain", "chain_hashes", tamper=True, chain="chain_tampered"))

    grid = _load(corpus / "grid1d_r10.json")["witness"]
    _dump(inputs / "tamper_asdim.json", tamper_asdim(grid, rng.choice(ASDIM_TAMPERS)))
    jobs.append(job("tamper-asdim", "verify_asdim", tamper=True,
                    space="space_grid1d_r10.json", witness="tamper_asdim.json"))
    return jobs


def _stored_chain(system_file, q, p, outdir):
    """The certificate chain the read path starts from, written with the library."""
    from dadim import run_pipeline

    run_pipeline(system_file, 1, q, p, outdir)


# -- single-field tampers; each must make the verifier reject ---------------


def tamper_witness(w, field):
    w = json.loads(json.dumps(w))
    if field == "finite_set":
        F = w["finite_sets"][1]
        F.append(max(F) + 1)
    elif field == "swap_sets":
        w["finite_sets"].reverse()
    elif field == "empty_color":
        w["colors"][0] = {"cylinders": []}
    else:
        w["meta"]["blowup_bound"] = 1
    return w


def tamper_pou(cert, field):
    cert = json.loads(json.dumps(cert))
    pou = cert["pou"]
    if field == "depth":
        pou["N"] = 999
        return cert
    # lowering phi_0 from 1 breaks either sum phi_i^2 = 1 or the 2/N step
    # bound against the neighbours, whose values are within 2/N of 1
    unit = min((u for u, v in pou["psi"][0].items() if v == "1"), key=int)
    if field == "zero":
        pou["psi"][0][unit] = "0"
    elif field == "half":
        pou["psi"][0][unit] = "1/2"
    else:
        del pou["psi"][0][unit]
    return cert


def tamper_asdim(w, field):
    w = json.loads(json.dumps(w))
    fam = w["families"][0]
    if field == "drop_point":
        fam[0].pop()
    elif field == "duplicate_point":
        fam[1].append(fam[0][0])
    else:
        w["bound_S"] -= 1
    return w


def mutate_field(obj, rng):
    """Change one seeded field of a JSON artifact (never a volatile one)."""
    if isinstance(obj, dict):
        keys = sorted(k for k in obj if k not in VOLATILE)
        if not keys:
            return {**obj, "tampered": True}
        k = rng.choice(keys)
        out = dict(obj)
        out[k] = mutate_field(obj[k], rng)
        return out
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, int):
        return obj + 1
    if isinstance(obj, float):
        return obj * 1.5 + 1.0
    if isinstance(obj, str):
        return obj + "0"
    if isinstance(obj, list):
        return obj[:-1] if obj else [0]
    return "tampered"


PREPARE = {
    "symbolic_witness": _symbolic_witness,
    "pipeline_chain": _pipeline_chain,
    "coarse_nerve": _coarse_nerve,
    "reverify": _reverify,
}
