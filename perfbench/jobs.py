"""What each job runs, and how its output is checked.

Every job calls dadim through a module attribute (``dadim.X``,
``dadim.cli.main``, ``dadim.witness.witness_from_json``) so that the
tracer's rebound wrappers see it.  Checks run outside the timed region:

* a job with a corpus golden must match it through
  ``certify.compare_artifacts`` (byte-exact, floats within 1e-9);
* an odometer witness without a golden must agree with the residue walk
  of ``oracle.py`` and stay inside F_0 within [-3N, 3N], F_1 within [-M-N, M+N];
  a subshift witness without a golden must be accepted by its verifier;
* any other output must match the fingerprint recorded in
  ``expected.json`` (see ``record_expected.py``);
* a tamper job is correct when it is rejected: ``accepted=False``, a
  nonzero exit code, or any ``DadimError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import dadim
import dadim.cli
from dadim import certify, coarse, symbolic, witness

from oracle import check_odometer_witness

CHAIN_ARTIFACTS = ("01_system.json", "02_witness.json", "03_groupoid_witness.json",
                   "04_enlarged.json", "05_towers.json", "06_pou.json",
                   "07_decomposition.json", "chain.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def canonical(obj):
    """The library's canonical form of an output, as plain JSON values."""
    return json.loads(certify.canonical_json(obj))


def fingerprint(obj):
    """Output with volatile keys dropped and every list longer than eight
    entries replaced by its length and the SHA-256 of its canonical JSON;
    short lists and scalars stay, so floats keep their tolerance."""
    if isinstance(obj, dict):
        return {k: fingerprint(v) for k, v in obj.items() if k not in certify.VOLATILE_KEYS}
    if isinstance(obj, list):
        if len(obj) > 8:
            blob = certify.canonical_json(obj).encode()
            return {"len": len(obj), "sha256": hashlib.sha256(blob).hexdigest()}
        return [fingerprint(v) for v in obj]
    return obj


class Context:
    """Paths and preloaded inputs of one pass."""

    def __init__(self, inputs: Path, out: Path, expected: dict, data: dict):
        self.inputs = inputs
        self.out = out
        self.expected = expected
        self.data = data
        self.corpus = certify.corpus_dir()

    def path(self, name) -> str:
        return str(self.inputs / name)

    def outdir(self, job_id) -> Path:
        d = self.out / job_id
        d.mkdir(parents=True, exist_ok=True)
        return d

    def golden(self, case) -> dict:
        return _load(self.corpus / f"{case}.json")

    def cli(self, *argv):
        """Run ``dadim.cli.main`` as a user would; return (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = dadim.cli.main([str(a) for a in argv])
        return code, out.getvalue()


# -- runners: the timed part ------------------------------------------------


def run_witness(a, ctx):
    system = symbolic.system_from_json(ctx.data[a["system"]])
    w = dadim.construct_minimal_z_witness(system, a["N"])
    rep = dadim.verify_dad_witness(system, w)
    return {"witness": w.to_json(), "accepted": rep.accepted}


def run_pipeline(a, ctx):
    out = ctx.outdir(a["id"])
    chain = dadim.run_pipeline(ctx.path(a["system"]), a["N"], a["quotient_depth"],
                               a["pou_depth"], out)
    recheck = certify.CertificateChain.verify_directory(out)
    return {"green": chain.green, "recheck_green": recheck["green"], "dir": out}


def run_coarse(a, ctx):
    out = ctx.outdir(a["id"])
    space, R = ctx.path(a["space"]), a["R"]
    codes = [
        ctx.cli("asdim-construct", "--space", space, "--R", R, "-o", out / "aw.json")[0],
        ctx.cli("asdim-verify", "--space", space, "--witness", out / "aw.json")[0],
        ctx.cli("bridge", "--space", space, "--witness", out / "aw.json",
                "-o", out / "bridge.json")[0],
    ]
    return {"codes": codes, "dir": out}


def run_nerve(a, ctx):
    out = ctx.outdir(a["id"])
    code, _ = ctx.cli("nerve", "--denominator", a["denominator"], "-o", out / "nerve.json")
    return {"codes": [code], "dir": out}


def run_blr(a, ctx):
    out = ctx.outdir(a["id"])
    code, _ = ctx.cli("blr-check", "--action", ctx.path(a["action"]),
                      "--map", ctx.path(a["map"]), "--complex", ctx.path(a["complex"]),
                      "--E", *a["E"], "--witness", "-o", out / "blr.json")
    return {"codes": [code], "dir": out}


def run_verify_witness(a, ctx):
    system = symbolic.system_from_json(ctx.data[a["system"]])
    w = witness.witness_from_json(system, ctx.data[a["witness"]])
    rep = dadim.verify_dad_witness(system, w)
    return {"rejected": not rep.accepted, "accepted": rep.accepted,
            "finite_sets": rep.details.get("finite_sets")}


def run_verify_asdim(a, ctx):
    X = coarse.space_from_json(ctx.data[a["space"]])
    w = coarse.asdim_witness_from_json(ctx.data[a["witness"]])
    rep = dadim.verify_asdim_witness(X, w)
    return {"rejected": not rep.accepted, "accepted": rep.accepted}


def run_pou(a, ctx):
    out = ctx.outdir(a["id"])
    pou = ctx.path(a["pou"])
    code, text = ctx.cli("pou-verify", "--pou", pou)
    if a.get("tamper"):
        return {"rejected": code != 0}
    dcode, _ = ctx.cli("decompose", "--pou", pou, "-o", out / "decomposition.json")
    return {"codes": [code, dcode], "report": json.loads(text), "dir": out}


def run_groupoid_stage(a, ctx):
    """The pipeline's groupoid stage rebuilt from a stored chain, on colors
    rotated by the seed; rotation is an automorphism of Z/q."""
    chain = Path(ctx.path(a["chain"]))
    stage = _load(chain / "03_groupoid_witness.json")
    E = _load(chain / "02_witness.json")["witness"]["E"]
    q, r = stage["quotient"], a["rotation"]
    colors = [frozenset((u + r) % q for u in c) for c in stage["colors"]]
    G = dadim.transformation_groupoid(q, range(q))
    K = frozenset((e % q, x) for e in E for x in range(q))
    generated = [
        dadim.generate_subgroupoid(G, [g for g in K if G.source(g) in c and G.range(g) in c])
        for c in colors
    ]
    rep = dadim.verify_groupoid_dad(G, dadim.GroupoidDadWitness(K, colors, generated),
                                    stage["size_bound"])
    return {"report": rep.to_json(), "stored": stage}


def run_chain_hashes(a, ctx):
    chain = certify.CertificateChain.verify_directory(ctx.path(a["chain"]))
    return {"rejected": not chain["green"]}


# -- checks: untimed; each returns (problems, fingerprint or None) ----------


def _diffs(got, want):
    return certify.compare_artifacts(canonical(got), want)


def _against_expected(job_id, fp, ctx):
    if job_id not in ctx.expected:
        return [f"no expected output recorded for {job_id}"]
    return certify.compare_artifacts(fp, ctx.expected[job_id])


def _codes(out):
    return [f"exit code {c}" for c in out["codes"] if c != 0]


def _dir_fingerprint(d: Path, names):
    return {n: fingerprint(_load(d / n)) for n in names if (d / n).exists()}


def check_witness(a, out, ctx):
    if a["golden"]:
        return _diffs(out, ctx.golden(a["golden"])), None
    problems = [] if out["accepted"] else ["witness not accepted by its verifier"]
    system, w = ctx.data[a["system"]], canonical(out["witness"])
    if system["kind"] == "odometer":
        return problems + check_odometer_witness(system, w), None
    fp = fingerprint(w)
    return problems + _against_expected(a["id"], fp, ctx), fp


def check_pipeline(a, out, ctx):
    d = out["dir"]
    problems = [] if out["green"] and out["recheck_green"] else ["chain not green"]
    w = _load(d / "02_witness.json")["witness"]
    problems += _diffs(w, ctx.golden(a["witness_golden"])["witness"])
    decomp = _load(d / "07_decomposition.json")
    summary = {
        "green": _load(d / "chain.json")["green"],
        "stages": [s["kind"] for s in _load(d / "chain.json")["stages"]],
        "defect": decomp["decomposition"]["defect"],
        "oscillation_below_bound": decomp["oscillation_below_bound"],
    }
    if a["golden"]:
        problems += _diffs(summary, ctx.golden(a["golden"]))
    fp = _dir_fingerprint(d, CHAIN_ARTIFACTS)
    return problems + _against_expected(a["id"], fp, ctx), fp


def check_coarse(a, out, ctx):
    d = out["dir"]
    problems = _codes(out)
    names = ["bridge.json"]
    if a["golden"]:
        problems += _diffs(_load(d / "aw.json"), ctx.golden(a["golden"])["witness"])
    else:
        names.append("aw.json")
    fp = _dir_fingerprint(d, names)
    return problems + _against_expected(a["id"], fp, ctx), fp


def check_cli_output(name):
    def check(a, out, ctx):
        fp = _dir_fingerprint(out["dir"], [name])
        return _codes(out) + _against_expected(a["id"], fp, ctx), fp

    return check


def check_verify_witness(a, out, ctx):
    want = {"accepted": True, "finite_sets": ctx.golden(a["golden"])["witness"]["finite_sets"]}
    return _diffs({"accepted": out["accepted"], "finite_sets": out["finite_sets"]}, want), None


def check_verify_asdim(a, out, ctx):
    return _diffs({"accepted": out["accepted"]},
                  {"accepted": ctx.golden(a["golden"])["accepted"]}), None


def check_pou(a, out, ctx):
    if "golden" in a:
        reference = ctx.golden(a["golden"])["verification"]
    else:
        reference = _load(Path(ctx.path(a["reference"])) / "06_pou.json")["verification"]
    problems = _codes(out) + _diffs(out["report"], reference)
    fp = _dir_fingerprint(out["dir"], ["decomposition.json"])
    return problems + _against_expected(a["id"], fp, ctx), fp


def check_groupoid_stage(a, out, ctx):
    stored = out["stored"]
    problems = _diffs(out["report"], stored["verification"])
    if out["report"]["details"].get("sizes") != stored["generated_sizes"]:
        problems.append("rebuilt subgroupoid sizes differ from the stored chain")
    return problems, None


RUN = {
    "witness": run_witness,
    "pipeline": run_pipeline,
    "coarse": run_coarse,
    "nerve": run_nerve,
    "blr": run_blr,
    "verify_witness": run_verify_witness,
    "verify_asdim": run_verify_asdim,
    "pou": run_pou,
    "groupoid_stage": run_groupoid_stage,
    "chain_hashes": run_chain_hashes,
}
CHECK = {
    "witness": check_witness,
    "pipeline": check_pipeline,
    "coarse": check_coarse,
    "nerve": check_cli_output("nerve.json"),
    "blr": check_cli_output("blr.json"),
    "verify_witness": check_verify_witness,
    "verify_asdim": check_verify_asdim,
    "pou": check_pou,
    "groupoid_stage": check_groupoid_stage,
}
