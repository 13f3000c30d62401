"""Record the outputs the correctness gate compares against.

Usage: python3 perfbench/record.py

Writes perfbench/expected.json: for each check workload the ``cases`` count
and stdout sha256 of every invocation, and for each query workload the pair
digests (gate.pair_digests) of streams 0..gate.RECORDED_SEEDS-1.  Run it
only on a commit whose outputs are known to be right; it refuses to record
a pass that fails its own checks.
"""

from __future__ import annotations

import json
import sys
import time

import run
from gate import RECORDED_SEEDS, pair_digests, sha256
from workloads import WORKLOADS


def main() -> int:
    expected: dict = {}
    for name, workload in WORKLOADS.items():
        seeds = range(RECORDED_SEEDS) if workload.seeded else [0]
        entry: dict = {}
        for seed in seeds:
            results = run.spawn("plain", workload.invocations(seed), time.monotonic() + 600)["results"]
            if any(r["rc"] != 0 or r["err"] for r in results):
                print(f"{name} seed {seed}: an invocation failed; nothing recorded", file=sys.stderr)
                return 1
            if workload.paired:
                if any(results[i]["out"] != results[i + 1]["out"] for i in range(0, len(results), 2)):
                    print(f"{name} seed {seed}: identity sides differ; nothing recorded", file=sys.stderr)
                    return 1
                entry.setdefault("pair_sha256", {})[str(seed)] = pair_digests(results)
            else:
                reports = [json.loads(r["out"]) for r in results]
                if not all(rep["passed"] for rep in reports):
                    print(f"{name}: a report did not pass; nothing recorded", file=sys.stderr)
                    return 1
                entry = {"cases": [rep["cases"] for rep in reports], "sha256": [sha256(r["out"]) for r in results]}
        expected[name] = entry
        print(f"recorded {name}")
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
