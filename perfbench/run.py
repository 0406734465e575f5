"""dadim benchmark: four certificate workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dadim is imported from ``src``.  Each
pass runs the workload's job list back to back (a closed loop with one
client) in a fresh interpreter started from serialized inputs, as a CLI
user would.  Passes repeat while the next one is expected to end within
S seconds, and at least twice.  Every job's output is checked (see
``jobs.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the
passes; times are at reference speed (see ``speed.py``), and the lines
before the result give them as measured too.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 2
PASS_TIMEOUT_S = 150
# no pass starts that could end after this many seconds of the run
RUN_DEADLINE_S = 160

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB"}
# the time metrics, which are also reported as measured
RAW = ("setup_s", "wall_s", "largest_job_s")
# BLAS/OpenMP pools pinned to one thread; fixed string hashing so that
# counters and set iteration orders repeat between passes
RUN_CONDITIONS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env.update(RUN_CONDITIONS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def corpus_dir(env) -> Path:
    return Path(env["DADIM_CORPUS"]) if env.get("DADIM_CORPUS") else SRC / "dadim" / "corpus"


def run_pass(plan_path: Path, result_path: Path, env, spans_path=None):
    """One worker process; returns its result dict, or None if it crashed."""
    argv = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
    t0 = time.perf_counter()
    argv.append(repr(t0))
    if spans_path:
        argv.append(str(spans_path))
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"pass failed (exit {proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace, scale="full", extra_env=None):
    """Prepare the inputs, run the passes, and return (summary, pass results)."""
    sys.path.insert(0, str(SRC))
    from inputs import prepare

    env = child_env(extra_env)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.environ.update({k: env[k] for k in RUN_CONDITIONS})
        compileall.compile_dir(str(SRC / "dadim"), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
        plan = prepare(workload, seed, scale, work, corpus_dir(env))
        plan_path = work / "plan.json"
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)

        passes = []  # (traced, result or None)
        start = time.perf_counter()
        longest = 0.0

        def next_end():  # when the next pass, of average length, would end
            elapsed = time.perf_counter() - start
            return elapsed + elapsed / len(passes)

        while len(passes) < MIN_PASSES or next_end() <= seconds:
            traced = bool(trace) and len(passes) % 2 == 1
            k = len(passes)
            spans = WORK / "trace" / f"{workload}-seed{seed}-pass{k}.jsonl" if traced else None
            t = time.perf_counter()
            res = run_pass(plan_path, work / f"pass{k}.json", env, spans)
            longest = max(longest, time.perf_counter() - t)
            shutil.rmtree(work / f"pass{k}-out", ignore_errors=True)
            passes.append((traced, res))
            if time.perf_counter() - start + longest > RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(plan, passes, trace), passes


def _median(values):
    return statistics.median(values) if values else None


def summarize(plan, passes, trace) -> dict:
    n_jobs = len(plan["jobs"])
    attempted = failed = 0
    failures = []
    for _traced, res in passes:
        attempted += n_jobs
        if res is None:
            failed += n_jobs
            failures.append(("(pass crashed)", "every job of the pass counts as failed"))
            continue
        for j in res["jobs"]:
            if j["problems"]:
                failed += 1
                failures.append((j["id"], j["problems"][0]))
    plain = [r for t, r in passes if r is not None and not t]
    traced = [r for t, r in passes if r is not None and t]
    samples = {k: [r[k] for r in plain] for k in END_TO_END}
    summary = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "samples": samples, "passes": len(passes),
        "raw": {k: [r["raw"][k] for r in plain] for k in RAW},
    }
    if trace:
        layers = {}
        counts_repeat = True
        for k, v in traced[0]["layers"].items() if traced else ():
            vals = [r["layers"][k] for r in traced]
            if k.endswith("_s") or isinstance(v, float):
                layers[k] = _median(vals)
            else:
                layers[k] = v
                counts_repeat &= all(x == v for x in vals)
        if traced and plain:
            layers["trace.wall_s"] = _median([r["wall_s"] for r in traced])
            layers["trace.overhead_s"] = layers["trace.wall_s"] - _median(samples["wall_s"])
        summary["layers"] = layers
        summary["counts_repeat"] = counts_repeat
        summary["traced_passes"] = len(traced)
        summary["breakdown"] = [r["breakdown"] for r in traced]
    return summary


def layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def report(args, summary) -> dict:
    """Print the human-readable lines; return the final result object."""
    s = summary
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={s['passes']} jobs_attempted={s['attempted']}")
    print("run conditions: " + " ".join(f"{k}={v}" for k, v in RUN_CONDITIONS.items())
          + f" python={platform.python_version()} cpus={os.cpu_count()}")
    for name, unit in END_TO_END.items():
        vals = s["samples"][name]
        if vals:
            print(f"{name}: median {statistics.median(vals):.6g} {unit} over {len(vals)} passes "
                  f"(min {min(vals):.6g}, max {max(vals):.6g})")
        if s["raw"].get(name):
            raw = s["raw"][name]
            print(f"  as measured: median {statistics.median(raw):.6g} {unit} "
                  f"(min {min(raw):.6g}, max {max(raw):.6g})")
    rate = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"error_rate: {rate:.6g} ({s['failed']} of {s['attempted']} jobs)")
    for job_id, problem in s["failures"][:10]:
        print(f"  failed {job_id}: {problem.strip().splitlines()[-1]}")

    if args.trace:
        units = layer_units()
        print(f"traced passes: {s['traced_passes']}; counts repeat exactly: {s['counts_repeat']}")
        for b in s["breakdown"][:1]:
            print("layer self seconds (traced pass): " + ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(b["layer_self_s"].items(), key=lambda kv: -kv[1])))
            if b["generate_s_by_caller"]:
                print("generate_subgroupoid seconds by caller: " + ", ".join(
                    f"{k}={v:.3f}" for k, v in sorted(b["generate_s_by_caller"].items())))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in s["layers"].items() if k in units}
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"per-layer metrics missing: {missing}", file=sys.stderr)
            return None
    else:
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
                   for k, v in s["samples"].items() if v}
        if len(metrics) != len(END_TO_END):
            return None
    return {"correct": s["failed"] == 0, "attempted": s["attempted"],
            "failed": s["failed"], "metrics": metrics}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from inputs import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dadim" / "__init__.py").is_file():
        print(f"dadim sources not found under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    summary, _ = run(args.workload, args.seed, args.seconds, args.trace)
    result = report(args, summary)
    if result is None:
        print("no complete pass; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
