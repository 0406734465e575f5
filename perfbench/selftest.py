"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
every metric named in BENCHMARK.json is present with its unit, that no job
fails and that the per-layer counts repeat.  Then it corrupts one golden
in a copy of the corpus and checks that the failure is counted, and runs
the benchmark in a directory without the library to check that it exits
nonzero without a result.
"""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from inputs import WORKLOADS


def _result(workload, trace, extra_env=None):
    summary, _ = run.run(workload, 0, 0, trace, scale="tiny", extra_env=extra_env)
    args = argparse.Namespace(workload=workload, seed=0, seconds=0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(args, summary), summary


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, summary = _result(workload, trace)
            tag = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{tag}: no result")
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {sorted(got)} != {sorted(wanted[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failures {summary['failures'][:3]}")
            if trace and not summary["counts_repeat"]:
                problems.append(f"{tag}: per-layer counts differ between traced passes")

    corpus = run.WORK / "selftest-corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.copytree(run.SRC / "dadim" / "corpus", corpus)
    golden = corpus / "odometer_n1.json"
    data = json.loads(golden.read_text())
    data["witness"]["finite_sets"][0].append(99)
    golden.write_text(json.dumps(data))
    result, _ = _result("symbolic_witness", 0, {"DADIM_CORPUS": str(corpus)})
    shutil.rmtree(corpus)
    if result is None or result["correct"] or result["failed"] == 0:
        problems.append("a corrupted golden did not raise the error rate")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without the library the benchmark did not fail cleanly")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
