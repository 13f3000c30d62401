"""Output-correctness gate: every invocation the benchmark times is checked.

An operation is one CLI invocation.  It fails when:
  - its exit code is not 0, or its stderr holds a traceback;
  - (check workloads) its JSON report says ``passed: false``, or its
    ``cases`` count or stdout sha256 differs from the recorded value;
  - (query workloads) the two sides of its identity pair print differently,
    or its stdout differs from the one recorded for its pair.

The query workloads are recorded for streams 0..RECORDED_SEEDS-1, and
run.py plays seed ``n`` as stream ``n % RECORDED_SEEDS``, so every timed
query has a recorded output.  A pair's record is the first PAIR_HEX hex
digits of the sha256 of what either side prints; a stream's records are
stored as one string, pair after pair.
"""

from __future__ import annotations

import hashlib
import json

RECORDED_SEEDS = 64
PAIR_HEX = 8


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_digest(results: list[dict]) -> str:
    """Digest of one pass: the sha256 of its per-invocation stdout digests."""
    return sha256("\n".join(sha256(r["out"]) for r in results))


def pair_digests(results: list[dict]) -> str:
    """The record of a query stream: one PAIR_HEX digest per pair, left sides."""
    return "".join(sha256(r["out"])[:PAIR_HEX] for r in results[::2])


def _report(out: str):
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def failures(workload, seed: int, passes: list[list[dict]], expected: dict) -> list[tuple[int, int, str]]:
    """(pass index, invocation index, reason) for every failed operation.

    ``seed`` is the stream played, already reduced below RECORDED_SEEDS."""
    record = expected.get(workload.name, {})
    pairs = record.get("pair_sha256", {}).get(str(seed), "") if workload.paired else ""
    bad: dict[tuple[int, int], str] = {}
    for p, results in enumerate(passes):
        for i, r in enumerate(results):
            if r["rc"] != 0:
                bad[p, i] = f"exit code {r['rc']}"
            elif "Traceback" in r["err"]:
                bad[p, i] = "traceback on stderr"
            elif workload.paired:
                other = i ^ 1  # the other side of the pair
                k = i // 2 * PAIR_HEX
                if other >= len(results) or results[other]["out"] != r["out"]:
                    bad[p, i] = "identity sides print differently"
                elif sha256(r["out"])[:PAIR_HEX] != pairs[k : k + PAIR_HEX]:
                    bad[p, i] = "stdout differs from the recorded one"
            elif "cases" in record:
                report = _report(r["out"])
                if report is None or report.get("passed") is not True:
                    bad[p, i] = "report did not pass"
                elif report.get("cases") != record["cases"][i]:
                    bad[p, i] = f"cases {report.get('cases')} != recorded {record['cases'][i]}"
                elif sha256(r["out"]) != record["sha256"][i]:
                    bad[p, i] = "stdout differs from the recorded sha256"
            else:
                bad[p, i] = "no recorded output"
    return sorted((p, i, why) for (p, i), why in bad.items())
