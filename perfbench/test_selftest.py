"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
QUICK_FOUND = {"B(2,C4)", "Z/7[x:4,y:16]", "Z/5[x1:4,x2:8,y:12]"}
QUICK_EXHAUST = {"Z/3[x:4,y1:8,y2:8]", "B(1,C4)", "A_3(1,1),K2"}


def tiny_setup(workload: str, seed: int = 7) -> run.Setup:
    setup = run.set_up(workload, seed, workloads)
    if workload == "realize-sweep":
        setup.census = [setup.census[0][:3]]
    else:
        quick = QUICK_FOUND if workload == "action-found" else QUICK_EXHAUST
        setup.instances = [item for item in setup.instances if item[0].name in quick]
    return setup


@pytest.fixture(autouse=True)
def tiny_trace(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_CENSUS_ROUNDS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_commit_answers_pass(workload):
    report = run.run_untraced(tiny_setup(workload), workloads, 0.001, 0.1)
    assert report.failures == []
    assert report.result()["correct"]


def test_corrupted_golden_value_fails_realize():
    setup = tiny_setup("realize-sweep")
    index = setup.census[0][0][0]
    setup.census_golden[index] = dict(setup.census_golden[index], chi=setup.census_golden[index]["chi"] + 1)
    result = run.run_untraced(setup, workloads, 0.001, 0.1).result()
    assert result["failed"] >= 1 and not result["correct"]


def test_corrupted_golden_value_fails_action():
    setup = tiny_setup("action-exhaust")
    inst, parsed, want = setup.instances[0]
    setup.instances[0] = (inst, parsed, dict(want, relativity=want["relativity"] + " "))
    result = run.run_untraced(setup, workloads, 0.001, 0.1).result()
    assert result["failed"] == 1 and not result["correct"]


def test_counter_mismatch_is_a_failure():
    readings = iter([(1,), (2,)])
    query = workloads.Query(0, "q", lambda: None, lambda result: None, lambda result: next(readings))
    loop = run.Loop()
    loop.issue(query)
    loop.issue(query)
    assert len(loop.failures) == 1 and "counters" in loop.failures[0]


def test_raising_query_is_a_failure():
    def boom():
        raise RuntimeError("boom")

    loop = run.Loop()
    loop.issue(workloads.Query(0, "q", boom, lambda result: None))
    assert loop.failures and loop.attempted == 1


def _names(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_output_names_every_metric(workload):
    untraced = run.run_untraced(tiny_setup(workload), workloads, 0.001, 0.1)
    assert {n: u for n, (_, u) in untraced.metrics.items()} == _names("end_to_end")
    setup = tiny_setup(workload)
    traced = run.traced_report(setup, run.run_traced(setup, workloads, tracing), tracing)
    assert {n: u for n, (_, u) in traced.metrics.items()} == _names("per_layer")
    assert traced.failures == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_account_for_wall_time(workload):
    traced = run.run_traced(tiny_setup(workload), workloads, tracing)
    spans = traced.tracer.spans
    table = tracing.self_times(spans)
    assert all(row[2] >= 0 for row in table.values())
    roots = [end - start for name, start, end, parent, _ in spans if parent < 0]
    assert all(name == tracing.QUERY_SPAN for name, _, _, parent, _ in spans if parent < 0)
    # self times partition the query spans exactly ...
    assert sum(row[2] for row in table.values()) == sum(roots)
    # ... the query spans are the loop's measured busy time, less its own clock reads ...
    assert 0.97 * traced.traced.busy_ns <= sum(roots) <= traced.traced.busy_ns
    # ... and layers plus benchmark overhead make up the traced wall time
    metrics = tracing.layer_metrics(traced.tracer, traced.traced_wall_s, 1.0)
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert metrics["bench.self_s"][0] > 0
    assert layers + metrics["bench.self_s"][0] == pytest.approx(traced.traced_wall_s)
    assert traced.traced_wall_s >= traced.traced.busy_s


def test_counters_repeat_across_runs():
    def counters():
        setup = tiny_setup("action-found")
        traced = run.run_traced(setup, workloads, tracing)
        metrics = tracing.layer_metrics(traced.tracer, traced.traced_wall_s, 1.0)
        return {n: v for n, (v, u) in metrics.items() if u == "count"}

    first, second = counters(), counters()
    assert first == second
    assert first["search.nodes"] > 0 and first["symbolic.constraint_terms"] > 0


def test_tracer_restores_the_library():
    from sr_chroma import algebra, realize, search

    before = (search.compile_constraints, realize.span_chromatic_number, algebra._AmbientBase.monomial_basis)
    tracer = tracing.Tracer()
    tracer.install()
    assert search.compile_constraints is not before[0]
    tracer.uninstall()
    assert (search.compile_constraints, realize.span_chromatic_number, algebra._AmbientBase.monomial_basis) == before


def test_refuses_to_run_without_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "action-found", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_face_witness_is_reverified(monkeypatch):
    """No census family yields a face witness, so check that path on K3."""
    from sr_chroma import graph

    monkeypatch.setattr(workloads, "REALIZE_FAMILIES", (("A", (1, 1), None),))
    k3 = graph.parse_graph("v 1\nv 2\nv 3\ne 1 2\ne 2 3\ne 1 3\n")
    want = {"n": 3, "m": 3, "chi": 3, "span": {2: 3, 3: 3, 5: 3}, "verdicts": "N"}
    loop = run.Loop()
    for query in workloads.census_queries(0, k3, want, run.Random(1), 0):
        loop.issue(query)
    assert loop.attempted == 5 and loop.failures == []
