"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import sample  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDED = [w for w in WORKLOADS.values() if w.seeded]


@pytest.mark.parametrize("workload", SEEDED, ids=lambda w: w.name)
def test_seeded_streams_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert workload.invocations(7) == workload.invocations(7)
    assert workload.invocations(7) != workload.invocations(8)
    assert len(workload.invocations(7)) == len(workload.invocations(8))


def test_check_workloads_ignore_the_seed():
    for workload in WORKLOADS.values():
        if not workload.seeded:
            assert workload.invocations(1) == workload.invocations(2)


def test_every_cli_queries_pair_is_an_identity():
    workload = WORKLOADS["cli-queries"]
    results, _ = sample.run_pass(workload.invocations(0))
    assert all(r["rc"] == 0 for r in results)
    import run

    assert gate.failures(workload, 0, [results], run.load_expected()) == []


def test_self_times_on_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child g [6, 8]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    assert tracer.self_times(starts, ends, parents) == [3.0, 3.0, 2.0, 2.0]


def _mixed_invocations() -> list[list[str]]:
    return (
        WORKLOADS["cli-queries"].invocations(3)[:60]
        + WORKLOADS["normal-forms"].invocations(3)[:20]
        + [["check", "--suite", "main", "--rep", "1", "--format", "json"]]
        + [["check", "--suite", "ccr", "--rep", "1", "--n-max", "2", "--m-max", "2", "--depth", "2"]]
    )


def test_traced_outputs_equal_untraced_and_bindings_are_restored():
    import cuntzrep.cli as cli
    import cuntzrep.operators as operators
    import cuntzrep.scalars as scalars

    before = (cli.main, operators.apply, scalars.RadicalScalar.__dict__["__add__"])
    invocations = _mixed_invocations()
    plain, _ = sample.run_pass(invocations)
    with tracer.Tracer() as tr:
        traced, _ = sample.run_pass(invocations, lambda i, argv: tr.in_request(i, sample.invoke, argv))
    assert (cli.main, operators.apply, scalars.RadicalScalar.__dict__["__add__"]) == before
    assert gate.pass_digest(traced) == gate.pass_digest(plain)
    metrics = tr.layer_metrics()
    assert {name for name, _, _ in tracer.per_layer_names()} - set(metrics) == {"trace.overhead_s"}
    assert metrics["cli.main.s"] > 0 and metrics["operators.apply.calls"] > 0
    assert metrics["suites.main.cases"] == 264
    assert metrics["suites.oracle.s"] > 0
    assert metrics["polynorm.monomials.count"] > 0
    assert metrics["parsing.parse_state.calls"] == 60
    assert len(set(tr.request)) == len(invocations)


class _Fake:
    name = "fake"
    paired = False


class _FakePaired:
    name = "fake-paired"
    paired = True


def test_gate_counts_a_corrupted_output_as_failed():
    argv = ["check", "--suite", "main", "--rep", "1", "--format", "json"]
    good = sample.invoke(argv)
    report = json.loads(good["out"])
    expected = {"fake": {"cases": [report["cases"]], "sha256": [gate.sha256(good["out"])]}}
    assert gate.failures(_Fake, 0, [[good]], expected) == []
    corrupted = [
        dict(good, out=good["out"].replace('"passed": true', '"passed": false')),
        dict(good, out=good["out"].replace(f'"cases": {report["cases"]}', '"cases": 1')),
        dict(good, out=good["out"] + " "),
        dict(good, rc=1),
        dict(good, err="Traceback (most recent call last):\n"),
    ]
    for bad in corrupted:
        assert len(gate.failures(_Fake, 0, [[bad]], expected)) == 1


def test_gate_checks_identity_pairs_and_recorded_pair_digests():
    left = {"rc": 0, "out": "vac\n", "err": "", "t": 0.0}
    right = dict(left, out="2*vac\n")
    same = [left, dict(left), right, dict(right)]
    recorded = {"fake-paired": {"pair_sha256": {"0": gate.pair_digests(same)}}}
    assert gate.failures(_FakePaired, 0, [same, same], recorded) == []
    # the sides of a pair disagree: both sides fail, the other pair does not
    assert [(p, i) for p, i, _ in gate.failures(_FakePaired, 0, [[left, right] + same[2:]], recorded)] == [(0, 0), (0, 1)]
    # both sides print the same wrong output: only that pair fails, in that pass
    collapsed = [right, right] + same[2:]
    assert [(p, i) for p, i, _ in gate.failures(_FakePaired, 0, [same, collapsed], recorded)] == [(1, 0), (1, 1)]
    # a stream with no record fails every invocation
    assert len(gate.failures(_FakePaired, 1, [same], recorded)) == 4


def test_records_cover_every_stream():
    import run

    expected = run.load_expected()
    for workload in SEEDED:
        assert set(expected[workload.name]["pair_sha256"]) == {str(s) for s in range(gate.RECORDED_SEEDS)}
        assert all(len(d) == gate.PAIR_HEX * len(workload.invocations(0)) // 2 for d in expected[workload.name]["pair_sha256"].values())


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_names()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_seed_past_the_records_plays_a_recorded_stream():
    seed = gate.RECORDED_SEEDS + 6
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "normal-forms", "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"seed {seed} plays recorded stream 6" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_tail_is_the_highest_percentile_with_ten_queries_beyond():
    import run

    assert run.tail_percentile([float(x) for x in range(1000)]) == 99.0
    assert run.tail_percentile([float(x) for x in range(800)]) == 98.0
    assert run.tail_percentile([float(x) for x in range(218)]) == 95.0
    assert run.tail_percentile([float(x) for x in range(6)]) == 50.0


def test_each_interval_is_scaled_by_the_probes_taken_around_it():
    import run

    quiet = [(i * 0.005, run.REFERENCE_S) for i in range(100)]
    slow = [(0.5 + i * 0.005, 2 * run.REFERENCE_S) for i in range(100)]
    interrupted = [(0.7, 1.0)]
    reply = {
        "probes": sorted(quiet + slow + interrupted),
        "results": [{"t0": 0.1, "t": 0.2}, {"t0": 0.7, "t": 0.001}],
    }
    run.scale(reply)
    assert reply["factor"] == pytest.approx(1 / 1.5)
    assert reply["results"][0]["factor"] == pytest.approx(1.0)
    assert reply["results"][1]["factor"] == pytest.approx(0.5)
