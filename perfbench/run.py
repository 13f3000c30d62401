"""Benchmark for cuntzrep: time to verdict and query latency.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh interpreter (perfbench/sample.py) that imports
``cuntzrep.cli`` from the checkout's ``src`` and runs one pass of the
workload in-process, one invocation after another with one client and no
threads.  With ``--trace 0`` the run starts passes until ``--seconds`` have
gone by and prints the end-to-end metrics; with ``--trace 1`` it runs
untraced and traced passes in turn, then one profiled pass, and prints the
per-layer metrics.  Every invocation is checked by gate.py.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_MIN = 11
DEADLINE_S = 170.0
# sample.reference_task's time on a quiet machine of the kind this benchmark
# was defined on (2-core x86-64 VM, CPython 3.11).  Timings are reported at
# this reference speed; see scale.
REFERENCE_S = 45e-6
PROBE_WINDOW_S = 0.1
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0)


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    h = (len(xs) - 1) * p / 100.0
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def speed_factor(durations: list[float], cap: float) -> float | None:
    """REFERENCE_S over the mean probe time; probes longer than ``cap``
    were interrupted rather than slowed, and are left out."""
    kept = [x for x in durations if x <= cap]
    return REFERENCE_S / statistics.fmean(kept) if kept else None


def scale(reply: dict) -> None:
    """Attach speed factors to a plain or traced sample's reply: ``factor`` for the
    whole sample and ``factor`` for each invocation.

    Other tenants of a shared host slow a process down by tens of percent
    for milliseconds to minutes at a time, and CPU time grows with wall
    time, so neither clock alone repeats.  The probes time the same fixed
    task throughout the sample; each interval is scaled by the probes taken
    during it, or, for an interval shorter than PROBE_WINDOW_S, during the
    PROBE_WINDOW_S around its middle.
    """
    probes = reply.pop("probes")
    starts = [t for t, _ in probes]
    durations = [d for _, d in probes]
    cap = 3 * statistics.median(durations) if durations else 0.0
    reply["factor"] = speed_factor(durations, cap) or 1.0
    for r in reply["results"]:
        lo, hi = r["t0"], r["t0"] + r["t"]
        if hi - lo < PROBE_WINDOW_S:
            mid = (lo + hi) / 2
            lo, hi = mid - PROBE_WINDOW_S / 2, mid + PROBE_WINDOW_S / 2
        window = durations[bisect.bisect_left(starts, lo) : bisect.bisect_right(starts, hi)]
        r["factor"] = speed_factor(window, cap) or reply["factor"]


def spawn(mode: str, invocations: list[list[str]], deadline: float, artifact: str | None = None) -> dict:
    """Run one sample process to completion and return its reply."""
    request = json.dumps({"mode": mode, "invocations": invocations, "artifact": artifact})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next sample")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "sample.py"), str(ROOT)],
            input=request,
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sample exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    reply = json.loads(proc.stdout.splitlines()[-1])
    reply["setup_s"] = reply["ready"] - t_spawn
    if "probes" in reply:
        scale(reply)
    return reply


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail_percentile(latencies: list[float]) -> float:
    """The highest of TAIL_LADDER that leaves at least 10 queries beyond it,
    or the median when none does."""
    for p in TAIL_LADDER:
        value = percentile(latencies, p)
        if sum(1 for x in latencies if x > value) >= 10:
            return p
    return 50.0


def end_to_end(workload, invocations, passes: list[dict], setups: list[float], expected) -> tuple[dict, dict]:
    walls = [p["wall"] * p["factor"] for p in passes]
    wall = statistics.median(walls)
    # A query's latency is its median over the run's passes, so the
    # percentiles are over a fixed set of queries whatever the pass count.
    latencies = [
        statistics.median(p["results"][i]["t"] * p["results"][i]["factor"] for p in passes) * 1e3
        for i in range(len(invocations))
    ]
    if workload.paired:
        cases = len(invocations) // 2
    else:
        cases = sum(expected[workload.name]["cases"])
    tail_p = tail_percentile(latencies)
    tail = percentile(latencies, tail_p)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cases_per_s": (cases / wall, "1/s"),
        "queries_per_s": (len(invocations) / wall, "1/s"),
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_tail_ms": (tail, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    beyond = sum(1 for x in latencies if x > tail)
    notes = {
        "passes": len(passes),
        "setups": len(setups),
        "queries": len(latencies),
        "cases_per_pass": cases,
        "tail_percentile": tail_p,
        "tail_beyond": beyond,
        "tail_resolved": beyond >= 10,
        "wall_s_all": walls,
        "raw_wall_s_all": [p["wall"] for p in passes],
        "speed_factors": [p["factor"] for p in passes],
    }
    return metrics, notes


def timed_run(workload, invocations, seconds: float, deadline: float, expected):
    spawn("plain", [], deadline)  # warm-up: byte-compile and fill the page cache
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn("plain", invocations, deadline))
    setups = [p["setup_s"] * p["factor"] for p in passes]
    while len(setups) < SETUP_MIN:
        probe = spawn("plain", [], deadline)
        setups.append(probe["setup_s"] * probe["factor"])
    metrics, notes = end_to_end(workload, invocations, passes, setups, expected)
    return metrics, notes, [p["results"] for p in passes]


def traced_run(workload, invocations, seconds: float, deadline: float):
    OUT.mkdir(exist_ok=True)
    spawn("plain", [], deadline)
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain.append(spawn("plain", invocations, deadline))
        traced.append(spawn("trace", invocations, deadline, str(OUT / f"spans-{workload.name}.tsv.gz")))
    profile = OUT / f"profile-{workload.name}.txt"
    profiled = spawn("profile", invocations, deadline, str(profile))
    layers = dict(traced[0]["layers"])
    for name in layers:
        if name.endswith((".s", "self_s", "ns_per_op")):
            layers[name] = statistics.median(t["layers"][name] * t["factor"] for t in traced)
    plain_wall = statistics.median(p["wall"] * p["factor"] for p in plain)
    traced_wall = statistics.median(t["wall"] * t["factor"] for t in traced)
    layers["trace.overhead_s"] = traced_wall - plain_wall
    # The gate fails any traced pass whose outputs differ; this only reports it.
    digests_equal = all(gate.pass_digest(t["results"]) == gate.pass_digest(plain[0]["results"]) for t in traced)
    metrics = {name: (layers[name], unit) for name, unit, _ in tracer.per_layer_names()}
    notes = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": traced[0]["spans"],
        "digests_equal": digests_equal,
        "profile": str(profile.relative_to(ROOT)),
    }
    return metrics, notes, [p["results"] for p in plain + traced + [profiled]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cuntzrep" / "cli.py").is_file():
        print(f"error: no cuntzrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args)
    expected = load_expected()
    # Outputs are recorded for streams 0..RECORDED_SEEDS-1 only, so that the
    # gate can check every query against a recorded output.
    stream = args.seed % gate.RECORDED_SEEDS if workload.seeded else 0
    env["stream"] = stream
    invocations = workload.invocations(stream)
    if workload.seeded:
        print(f"workload {workload.name}: seed {args.seed} plays recorded stream {stream}")
    else:
        print(f"workload {workload.name}: no seed; it enumerates every basis label up to its depth")
    try:
        if args.trace:
            metrics, notes, passes = traced_run(workload, invocations, args.seconds, deadline)
        else:
            metrics, notes, passes = timed_run(workload, invocations, args.seconds, deadline, expected)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = gate.failures(workload, stream, passes, expected)
    attempted = sum(len(p) for p in passes)
    for p, i, why in failed[:10]:
        print(f"FAILED pass {p} invocation {i} {invocations[i]}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)}/{attempted} invocations)")
    if not args.trace:
        print(
            f"query_tail_ms is p{notes['tail_percentile']:g} of {notes['queries']} queries, each the median "
            f"of {notes['passes']} passes; {notes['tail_beyond']} beyond it"
            + ("" if notes["tail_resolved"] else " (too few queries: the tail is unresolved)")
        )
    env["samples"] = notes
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
