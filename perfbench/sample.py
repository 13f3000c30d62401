"""One benchmark sample: a fresh interpreter that runs one pass in-process.

Usage: python3 -I perfbench/sample.py <checkout root>, with a JSON request on
stdin: {"mode": "plain" | "trace" | "profile", "invocations": [argv, ...],
"artifact": path or null}.  The first thing the process does is import
``cuntzrep.cli`` from the checkout's ``src``; the clock reading taken right
after that import is the end of set-up.  It then calls ``cuntzrep.cli.main``
once per invocation with stdout and stderr captured, and prints one JSON
object with the outputs, the per-invocation latencies and the peak RSS.

In plain and trace mode the process also times a fixed reference task every
PROBE_PERIOD_S of wall time, from a SIGALRM handler, so that run.py can
scale its timings by how fast this machine was running Python code while
they were taken.  Imported as a module (by the tests), it starts no timer
and expects ``cuntzrep`` on sys.path.
"""

import signal
import sys
import time

PROBE_PERIOD_S = 0.005
probes: list[tuple[float, float]] = []


def reference_task(signum=None, frame=None) -> None:
    """About 50 us of dict, tuple and int work on a quiet machine; timed."""
    t0 = time.perf_counter()
    table = {}
    for i in range(200):
        table[i & 7] = table.get(i & 7, 0) + i * 3
        key = (i, i + 1)
        table[key[0] & 7] += len(key)
    probes.append((t0, time.perf_counter() - t0))


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, reference_task)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    ROOT = sys.argv[1]
    sys.path.insert(0, ROOT + "/src")
import cuntzrep.cli as cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def stop_probes() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
    t1 = time.perf_counter()
    return {"rc": rc, "t0": t0, "t": t1 - t0, "out": out.getvalue(), "err": err.getvalue()}


def run_pass(invocations: list[list[str]], each=None) -> tuple[list[dict], float]:
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(invocations):
        results.append(invoke(argv) if each is None else each(i, argv))
    return results, time.perf_counter() - start


def main() -> int:
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"cuntzrep was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    request = json.load(sys.stdin)
    mode, invocations = request["mode"], request["invocations"]
    reply: dict = {"ready": READY}
    if mode == "plain":
        reply["results"], reply["wall"] = run_pass(invocations)
        stop_probes()
        reply["probes"] = probes
    elif mode == "trace":
        import tracer

        with tracer.Tracer() as tr:
            reply["results"], reply["wall"] = run_pass(
                invocations, lambda i, argv: tr.in_request(i, invoke, argv)
            )
        stop_probes()
        reply["probes"] = probes
        reply["layers"] = tr.layer_metrics()
        reply["spans"] = tr.write_spans(request["artifact"])
    elif mode == "profile":
        stop_probes()
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        reply["results"], reply["wall"] = run_pass(invocations)
        profiler.disable()
        with open(request["artifact"], "w", encoding="utf-8") as fh:
            for key in ("tottime", "cumulative"):
                fh.write(f"== top 10 by {key} ==\n")
                pstats.Stats(profiler, stream=fh).sort_stats(key).print_stats(10)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
