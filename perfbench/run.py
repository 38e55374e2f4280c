#!/usr/bin/env python3
"""sr-chroma benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Workloads: realize-sweep, action-found, action-exhaust, or `all`, which runs
each in a fresh process. Each run is one closed-loop client in one process.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs a fixed
amount of work both untraced and traced, writes the spans under
perfbench/out/ and prints the per-layer metrics. The last line of output is a
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("realize-sweep", "action-found", "action-exhaust")
IMPORT_SAMPLES = 5
PARSE_SAMPLES = 3
# Fixed work of a traced run, so its counters are exact for a given seed.
TRACE_CENSUS_ROUNDS = 12

# On a shared VM the same pure-Python loop reads anywhere from 25 to 36 ms
# from one 2-second window to the next, in CPU time as much as in wall time.
# Reported times are therefore calibrated: a fixed probe loop that touches no
# library code runs every PROBE_PERIOD_S (from SIGALRM, so also while a query
# runs), its own time is taken out of the query, and the query's time is
# scaled by NOMINAL_PROBE_S over the median probe time within
# CALIBRATION_WINDOW_S of the query. Raw times are printed alongside.
PROBE_ITERATIONS = 5_000
NOMINAL_PROBE_S = 0.0005
PROBE_PERIOD_S = 0.1
CALIBRATION_WINDOW_S = 0.5

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import run;"
    " before = [run.probe_loop() for _ in range(3)]; t = time.perf_counter();"
    " import sr_chroma; t = time.perf_counter() - t;"
    " after = [run.probe_loop() for _ in range(3)]; print(t, *before, *after)"
)


def import_library():
    """Import sr_chroma from this checkout's src/, never from elsewhere."""
    if not (SRC / "sr_chroma" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC / 'sr_chroma'}")
    sys.path.insert(0, str(SRC))
    import sr_chroma

    if Path(sr_chroma.__file__).resolve().parent != SRC / "sr_chroma":
        raise SystemExit(f"error: sr_chroma was imported from {sr_chroma.__file__}")
    return sr_chroma


def probe_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def calibrate(seconds: float, probes: list[float]) -> float:
    return seconds * NOMINAL_PROBE_S / statistics.median(probes)


def timed_calibrated(fn):
    """(result, calibrated seconds) of one call, probing right before and after."""
    before = [probe_loop() for _ in range(3)]
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, calibrate(elapsed, before + [probe_loop() for _ in range(3)])


def import_seconds() -> float:
    """Median calibrated import time of the library in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR), str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        elapsed, *probes = (float(x) for x in proc.stdout.split())
        samples.append(calibrate(elapsed, probes))
    return statistics.median(samples)


class SpeedTimeline:
    """Probe times sampled every PROBE_PERIOD_S while the context is open."""

    def __init__(self):
        self.stamps_ns: list[int] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        duration = probe_loop()
        self.stamps_ns.append(time.perf_counter_ns())
        self.durations.append(duration)

    def __enter__(self) -> "SpeedTimeline":
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def calibrated_ns(self, start_ns: int, end_ns: int) -> float:
        """The interval's time without the probes run inside it, at nominal
        speed as judged by the probes within CALIBRATION_WINDOW_S of it."""
        inside = bisect.bisect_left(self.stamps_ns, start_ns), bisect.bisect_right(self.stamps_ns, end_ns)
        own_ns = end_ns - start_ns - sum(self.durations[inside[0] : inside[1]]) * 1e9
        margin = int(CALIBRATION_WINDOW_S * 1e9)
        lo = bisect.bisect_left(self.stamps_ns, start_ns - margin)
        hi = bisect.bisect_right(self.stamps_ns, end_ns + margin)
        nearby = self.durations[lo:hi] or self.durations
        return own_ns * NOMINAL_PROBE_S / statistics.median(nearby)


# --------------------------------------------------------------------------
# setup: inputs from the seed, parsed by the library
# --------------------------------------------------------------------------

@dataclass
class Setup:
    workload: str
    seed: int
    rng: Random
    parse_s: float
    census: list = field(default_factory=list)  # rounds of (index, Graph)
    census_golden: dict = field(default_factory=dict)
    instances: list = field(default_factory=list)  # (ActionInstance, parsed, golden)


def census_rounds(rng: Random, workloads) -> list[list[int]]:
    """Seeded census in rounds: each round draws one unused graph from every
    (vertex count, edge probability) class, so that any whole number of rounds
    has the same mix of sizes and densities. A graph's cost grows steeply with
    both; without the rounds, which graphs a seed happens to draw moved
    queries_per_s by 10% and latency_p99_ms by 25% between seeds."""
    classes: dict[tuple, list[int]] = {}
    for index in range(workloads.POOL_SIZE):
        classes.setdefault(workloads.census_class(index), []).append(index)
    keys = sorted(classes)
    for key in keys:
        rng.shuffle(classes[key])
    rounds = []
    for r in range(min(len(members) for members in classes.values())):
        row = [classes[key][r] for key in keys]
        rng.shuffle(row)
        rounds.append(row)
    return rounds


def set_up(workload: str, seed: int, workloads) -> Setup:
    from sr_chroma import graph

    rng = Random(seed)
    parse_times = []
    if workload == "realize-sweep":
        rounds = census_rounds(rng, workloads)
        texts = [[workloads.census_text(i) for i in row] for row in rounds]
        for _ in range(PARSE_SAMPLES):
            graphs, elapsed = timed_calibrated(
                lambda: [[graph.parse_graph(text) for text in row] for row in texts]
            )
            parse_times.append(elapsed)
        census = [list(zip(row, parsed)) for row, parsed in zip(rounds, graphs)]
        golden = workloads.load_census_golden()
        return Setup(workload, seed, rng, statistics.median(parse_times), census, golden)

    golden = workloads.load_action_golden()
    chosen = workloads.ACTION_FOUND if workload == "action-found" else workloads.ACTION_EXHAUST
    for _ in range(PARSE_SAMPLES):
        parsed, elapsed = timed_calibrated(lambda: [workloads.parse_action_instance(inst) for inst in chosen])
        parse_times.append(elapsed)
    instances = [(inst, p, golden[inst.name]) for inst, p in zip(chosen, parsed)]
    return Setup(workload, seed, rng, statistics.median(parse_times), instances=instances)


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------

class Loop:
    """Issues queries one at a time and records latency, failures and the
    exact counters each query must repeat on every run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts_ns = array("q")
        self.ends_ns = array("q")
        self.busy_ns = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, tuple] = {}

    @property
    def busy_s(self) -> float:
        return self.busy_ns / 1e9

    @property
    def attempted(self) -> int:
        return len(self.starts_ns)

    def _record(self, start_ns: int) -> None:
        end_ns = time.perf_counter_ns()
        self.starts_ns.append(start_ns)
        self.ends_ns.append(end_ns)
        self.busy_ns += end_ns - start_ns

    def issue(self, query) -> None:
        start = time.perf_counter_ns()
        try:
            if self.tracer is not None:
                result = self.tracer.run_query(query.qid, query.run)
            else:
                result = query.run()
        except Exception as exc:  # a raising query is a failed query
            self._record(start)
            self.failures.append(f"{query.label}: raised {type(exc).__name__}: {exc}")
            return
        self._record(start)
        try:
            reason = query.check(result)
            fingerprint = query.fingerprint(result)
        except Exception as exc:  # a verifier rejecting the witness
            reason, fingerprint = f"check raised {type(exc).__name__}: {exc}", None
        if reason is None and fingerprint and self.fingerprints.setdefault(query.label, fingerprint) != fingerprint:
            reason = f"counters {fingerprint} differ from {self.fingerprints[query.label]} on an earlier run"
        if reason is not None:
            self.failures.append(f"{query.label}: {reason}")


def census_batches(setup: Setup, workloads, rounds):
    """Query lists, one per census round."""
    qid = 0
    for row in rounds:
        batch = []
        for index, g in row:
            batch += workloads.census_queries(index, g, setup.census_golden[index], setup.rng, qid + len(batch))
        qid += len(batch)
        yield batch


def consumed(rows: list):
    """Yield and drop the rows, so that graphs already queried are freed and
    peak RSS does not grow with the number of rounds a run gets through."""
    while rows:
        yield rows.pop(0)


def action_pass(setup: Setup, workloads, first_qid: int):
    order = list(setup.instances)
    setup.rng.shuffle(order)
    return [
        workloads.action_query(inst, parsed, want, first_qid + i)
        for i, (inst, parsed, want) in enumerate(order)
    ]


def timed_batches(setup: Setup, workloads, seconds: float, loop: Loop):
    """Batches for an untraced run: whole census rounds or whole instance
    passes until the loop has been busy for `seconds`."""
    if setup.workload == "realize-sweep":
        for batch in census_batches(setup, workloads, consumed(setup.census)):
            yield batch
            if loop.busy_s >= seconds:
                return
        return
    qid = 0
    while loop.busy_s < seconds:
        batch = action_pass(setup, workloads, qid)
        qid += len(batch)
        yield batch


def fixed_batches(setup: Setup, workloads) -> list[list]:
    """The traced run's work: TRACE_CENSUS_ROUNDS census rounds, or one pass
    with each instance a batch of its own."""
    if setup.workload == "realize-sweep":
        return list(census_batches(setup, workloads, setup.census[:TRACE_CENSUS_ROUNDS]))
    return [[query] for query in action_pass(setup, workloads, 0)]


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def end_to_end_metrics(setup_s: float, latencies_ns: list[float]) -> dict[str, tuple[float, str]]:
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p99_ms": (statistics.quantiles(lat_ms, n=100, method="inclusive")[98], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    notes: list[str]

    def result(self) -> dict:
        """The contract's result object: the last line a run prints."""
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }

    def emit(self) -> None:
        for failure in self.failures[:20]:
            print(f"FAILED {failure}")
        for note in self.notes:
            print(note)
        fail_ratio = len(self.failures) / self.attempted if self.attempted else 0.0
        print(f"{'fail_ratio':<40} {fail_ratio:<14.6g} ratio")
        for name, (value, unit) in self.metrics.items():
            print(f"{name:<40} {value:<14.6g} {unit}")
        print(json.dumps(self.result()), flush=True)


def run_untraced(setup: Setup, workloads, seconds: float, setup_s: float) -> Report:
    loop = Loop()
    start = time.perf_counter()
    with SpeedTimeline() as timeline:
        for batch in timed_batches(setup, workloads, seconds, loop):
            for query in batch:
                loop.issue(query)
    wall = time.perf_counter() - start
    calibrated = list(map(timeline.calibrated_ns, loop.starts_ns, loop.ends_ns))
    raw = end_to_end_metrics(setup_s, [end - start for start, end in zip(loop.starts_ns, loop.ends_ns)])
    notes = [
        f"workload {setup.workload} seed {setup.seed}: {loop.attempted} queries"
        f" (= latency samples), busy {loop.busy_s:.2f} s, wall {wall:.2f} s,"
        f" {len(timeline.durations)} speed probes",
        "raw: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items() if name != "setup_s"),
    ]
    return Report(end_to_end_metrics(setup_s, calibrated), loop.attempted, loop.failures, notes)


@dataclass
class TracedRun:
    tracer: object
    untraced: Loop
    traced: Loop
    traced_wall_s: float = 0.0
    overhead_ratio: float = 0.0


def run_traced(setup: Setup, workloads, tracing) -> TracedRun:
    """Run every batch untraced and traced, alternating which side goes first
    so that warm-up and drift fall on both; the traced side must repeat the
    untraced side's answers and counters. The overhead ratio compares
    calibrated query times; the probes also land inside spans, where they
    add about 0.5% to every self time."""
    tracer = tracing.Tracer()
    run = TracedRun(tracer, Loop(), Loop(tracer))
    run.traced.fingerprints = run.untraced.fingerprints
    with SpeedTimeline() as timeline:
        for i, batch in enumerate(fixed_batches(setup, workloads)):
            for loop in (run.untraced, run.traced) if i % 2 == 0 else (run.traced, run.untraced):
                if loop is run.untraced:
                    for query in batch:
                        loop.issue(query)
                    continue
                tracer.install()
                start = time.perf_counter()
                try:
                    for query in batch:
                        loop.issue(query)
                finally:
                    run.traced_wall_s += time.perf_counter() - start
                    tracer.uninstall()

    def calibrated_busy(loop: Loop) -> float:
        return sum(map(timeline.calibrated_ns, loop.starts_ns, loop.ends_ns))

    run.overhead_ratio = calibrated_busy(run.traced) / calibrated_busy(run.untraced)
    return run


def traced_report(setup: Setup, run: TracedRun, tracing) -> Report:
    spans_path = OUT_DIR / f"spans-{setup.workload}-seed{setup.seed}.tsv"
    tracing.write_spans(run.tracer.spans, spans_path)
    metrics = tracing.layer_metrics(run.tracer, run.traced_wall_s, run.overhead_ratio)
    notes = [
        f"workload {setup.workload} seed {setup.seed}: {run.traced.attempted} queries traced,"
        f" {len(run.tracer.spans)} spans written to {spans_path}",
    ]
    failures = run.untraced.failures + run.traced.failures
    attempted = run.untraced.attempted + run.traced.attempted
    return Report(metrics, attempted, failures, notes)


def run_all(args) -> int:
    """Each workload in a fresh process; a combined summary line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    import_library()
    import tracing
    import workloads

    setup = set_up(args.workload, args.seed, workloads)
    if args.trace:
        report = traced_report(setup, run_traced(setup, workloads, tracing), tracing)
    else:
        setup_s = import_seconds() + setup.parse_s
        report = run_untraced(setup, workloads, args.seconds, setup_s)
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
