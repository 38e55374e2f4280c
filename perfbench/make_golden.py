#!/usr/bin/env python3
"""Regenerate the golden answers in perfbench/golden/ from the library in src/.

    python3 perfbench/make_golden.py

Run it only on a commit whose answers are trusted: every later run of the
benchmark is checked against these files. Each answer's witness is verified
before it is recorded.
"""

from __future__ import annotations

import json
import sys

import run

run.import_library()

import workloads  # noqa: E402
from sr_chroma import graph, realize, span  # noqa: E402


def verified(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"refusing to record an unverified answer: {what}")


def census_line(index: int) -> str:
    g = graph.parse_graph(workloads.census_text(index))
    chi, coloring = graph.chromatic_number(g)
    verified(graph.coloring_is_valid(g, coloring), f"coloring of census graph {index}")
    values = []
    for p in workloads.SPAN_PRIMES:
        value, witness = span.span_chromatic_number(g, p)
        verified(span.verify_span_coloring(g, witness), f"span coloring of census graph {index}")
        values.append(value)
    verdicts = []
    for spec in workloads.realize_specs():
        verdict = realize.check_realizable(spec, g)
        if verdict.status == "CertifiedRealizable":
            verified(
                realize.verify_partition_family(verdict.complex, verdict.partition),
                f"partition of census graph {index} for {spec.describe()}",
            )
        verdicts.append(workloads.VERDICT_CODES[verdict.status])
    fields = [index, len(g.vertices), len(g.edges), chi, *values, "".join(verdicts)]
    return " ".join(str(f) for f in fields)


def action_record(inst: workloads.ActionInstance) -> dict:
    parsed = workloads.parse_action_instance(inst)
    result = workloads.action_query(inst, parsed, {}, 0).run()
    outcome, _ = result
    record = {"status": outcome.status}
    if not outcome.found:
        record["relativity"] = outcome.relativity()
    failure = workloads.action_query(inst, parsed, record, 0).check(result)
    verified(failure is None, f"{inst.name}: {failure}")
    return record


def main() -> int:
    lines = [
        "# index vertices edges chi s2chi s3chi s5chi verdicts"
        " (one letter per census family: R realizable, N not realizable, I inconclusive)",
    ]
    for index in range(workloads.POOL_SIZE):
        lines.append(census_line(index))
        if index % 500 == 0:
            print(f"census {index}/{workloads.POOL_SIZE}", file=sys.stderr)
    (workloads.GOLDEN_DIR / "realize_sweep.tsv").write_text("\n".join(lines) + "\n")

    records = {
        inst.name: action_record(inst)
        for inst in workloads.ACTION_FOUND + workloads.ACTION_EXHAUST
    }
    (workloads.GOLDEN_DIR / "actions.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
