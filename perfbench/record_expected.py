"""Write ``expected.json``: fingerprints of the outputs that have neither a
corpus golden nor an oracle (bridge, nerve and BLR certificates, pipeline
artifacts, decompositions).

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are trusted.  Each workload runs at
both scales under two seeds; a fingerprint that differs between seeds or
passes is an output that depends on the seeded variant, and is refused.
"""

import json
import sys

from inputs import WORKLOADS
from run import HERE, run

SEEDS = (0, 1)


def main() -> int:
    expected, bad = {}, []
    for scale in ("tiny", "full"):
        for workload in WORKLOADS:
            for seed in SEEDS:
                _, passes = run(workload, seed, 0, 0, scale=scale)
                for _traced, res in passes:
                    for j in res["jobs"]:
                        other = [p for p in j["problems"] if not p.startswith("no expected output")]
                        if other:
                            bad.append(f"{j['id']}: {other[0]}")
                        fp = j["fingerprint"]
                        if fp is None:
                            continue
                        if expected.setdefault(j["id"], fp) != fp:
                            bad.append(f"{j['id']}: output differs between seeds or passes")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(expected)} fingerprints written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
