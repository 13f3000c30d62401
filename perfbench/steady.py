"""Steadiness check: do two sets of runs of the same code agree?

Usage: python3 perfbench/steady.py [--first-seed 1] [--json PATH]

Runs perfbench/run.py RUNS times per workload of BENCHMARK.json in each of
SETS sets, each run with its own seed, at BENCHMARK.json's run_seconds,
with the workloads interleaved.  For every end-to-end metric and workload it
prints each set's median, quartiles (statistics.quantiles, n=4) and spread,
the quartile distance as a share of the median.  A spread above the
metric's bound is UNRESOLVED; below a third of it, steady.  A later set
whose median differs from the first set's, either way, by more than the
bound as a share of the first is a DISAGREEment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    return {"result": result, "env": env}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def differs_by(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, either way, as a share of ``first``."""
    return abs(later - first) / first


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write every run and the summary here")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    ok = True
    for s in range(SETS):
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            for w in workloads:
                out = run_once(spec["command"], w, seed, spec["run_seconds"])
                if "error" in out:
                    print(f"set {s + 1} run {i + 1} {w} seed {seed}: FAILED {out['error']}")
                    ok = False
                    continue
                runs[w][s].append(out)
                verdict = "ok" if out["result"]["correct"] else f"FAILED {out['result']['failed']} invocations"
                ok = ok and out["result"]["correct"]
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {verdict}", flush=True)
    summary = []
    print()
    print(f"{'workload':16} {'metric':15} " + " ".join(f"{'set ' + str(s + 1) + ' median [q1 q3] spread':44}" for s in range(SETS)) + " bound  verdict")
    for w in workloads:
        for m in metrics:
            row = {"workload": w, "metric": m["name"], "bound": m["bound"], "sets": []}
            cells = []
            for s in range(SETS):
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w][s]]
                if not values:
                    cells.append(f"{'no runs':44}")
                    row["sets"].append(None)
                    continue
                med, q1, q3, sp = spread(values)
                row["sets"].append({"median": med, "q1": q1, "q3": q3, "spread": sp, "values": values})
                cells.append(f"{med:11.5g} {m['unit']:4} [{q1:.5g} {q3:.5g}] {sp * 100:6.2f}%".ljust(44))
            verdicts = []
            for s, cell in enumerate(row["sets"]):
                if cell is None:
                    continue
                if cell["spread"] > m["bound"]:
                    verdicts.append(f"set {s + 1} UNRESOLVED")
                    ok = False
                elif cell["spread"] >= m["bound"] / 3:
                    verdicts.append(f"set {s + 1} within bound")
            first = row["sets"][0]
            for s, cell in enumerate(row["sets"][1:], start=2):
                if first and cell and differs_by(first["median"], cell["median"]) > m["bound"]:
                    verdicts.append(f"set {s} DISAGREES")
                    ok = False
            row["verdict"] = "; ".join(verdicts) or "steady"
            summary.append(row)
            print(f"{w:16} {m['name']:15} " + " ".join(cells) + f" {m['bound']:<6} {row['verdict']}")
    for w in workloads:
        for s in range(SETS):
            attempted = sum(r["result"]["attempted"] for r in runs[w][s])
            failed = sum(r["result"]["failed"] for r in runs[w][s])
            print(f"{w:16} failed_frac set {s + 1}: {failed / max(attempted, 1):.6g} ({failed}/{attempted} invocations)")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    print("\nagree within bounds" if ok else "\nNOT steady: see UNRESOLVED, DISAGREES or FAILED above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
