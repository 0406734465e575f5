"""One pass of a workload in a fresh interpreter, as a CLI user would run it.

Run by ``run.py``: ``worker.py PLAN RESULT T0 [SPANS]``.  T0 is the
parent's ``time.perf_counter()`` just before it started this process
(CLOCK_MONOTONIC, shared by both), so set-up time covers interpreter
start, ``import dadim`` and loading the inputs.  With SPANS the pass runs
traced and its spans are written there.  The pass result is written as
JSON to RESULT.

Every time is reported as measured (``raw``) and at reference speed (see
``speed.py``); the sampling timer runs from the top of ``main``, before
dadim is imported.
"""

import json
import resource
import sys
import traceback
from pathlib import Path

from speed import Sampler


def main(argv):
    plan_path, result_path, t0 = Path(argv[0]), Path(argv[1]), float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    sampler = Sampler()
    sampler.start_timer()
    sampler.begin(started=t0, bracket=False)

    from dadim.errors import DadimError

    import jobs

    with open(plan_path) as fh:
        plan = json.load(fh)
    inputs = plan_path.parent / "inputs"
    data = {}
    for job in plan["jobs"]:
        for v in job["args"].values():
            if isinstance(v, str) and v.endswith(".json") and v not in data:
                with open(inputs / v) as fh:
                    data[v] = json.load(fh)
    expected_path = Path(__file__).with_name("expected.json")
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    ctx = jobs.Context(inputs, result_path.parent / (result_path.stem + "-out"), expected, data)

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_raw, setup_s = sampler.end()
    results = []
    for job in plan["jobs"]:
        args = {**job["args"], "id": job["id"]}
        if tracer:
            tracer.begin_job(job["id"])
        error, out, rejected = None, None, False
        sampler.begin()
        try:
            out = jobs.RUN[job["kind"]](args, ctx)
        except DadimError as exc:
            error = f"{type(exc).__name__}: {exc}"
            rejected = True
        except Exception:  # a crash is this job's failure; the pass goes on
            error = traceback.format_exc(limit=4)
        raw_s, seconds = sampler.end()
        if tracer:
            tracer.end_job()

        fp = None
        if args.get("tamper"):
            problems = [] if rejected or (out or {}).get("rejected") else [
                f"tampered input accepted ({error or 'no rejection'})"]
        elif error:
            problems = [error]
        else:
            try:
                problems, fp = jobs.CHECK[job["kind"]](args, out, ctx)
            except Exception:  # an output the check cannot read is wrong
                problems = [traceback.format_exc(limit=4)]
        results.append({"id": job["id"], "raw_s": raw_s, "seconds": seconds,
                        "largest": job["largest"], "problems": problems[:5], "fingerprint": fp})
    sampler.stop_timer()

    largest = next(r for r in results if r["largest"])
    wall_s, raw_wall_s = (sum(r[k] for r in results) for k in ("seconds", "raw_s"))
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "largest_job_s": largest["seconds"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {"setup_s": setup_raw, "wall_s": raw_wall_s, "largest_job_s": largest["raw_s"]},
        "jobs": results,
    }
    if tracer:
        # layer times at reference speed, scaled as the pass's job times were;
        # spans include the speed probes that fired inside them (about 3%)
        scale = wall_s / raw_wall_s
        result["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
        result["breakdown"] = tracer.layer_breakdown()
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
