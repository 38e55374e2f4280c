"""Workloads of the sr-chroma benchmark: seeded inputs, queries, golden checks.

Every query goes through the library's module attributes at call time
(`graph.chromatic_number`, `search.search_action`, ...), so the tracer in
`tracing.py` sees it once it has rebound those attributes.

A query returns its result; `check` then re-verifies every witness with the
library's public verifiers and compares verdicts and values with the golden
answers recorded at the seed commit (`golden/`). Witnesses are never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from sr_chroma import algebra, families, graph, realize, search, span, steenrod

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# --------------------------------------------------------------------------
# realize-sweep: a census of seeded random graphs
# --------------------------------------------------------------------------

# Graph i of the census is drawn from its own RNG, so any subset of the pool
# can be generated without the rest and the golden file stays keyed by i.
POOL_SIZE = 5000
EDGE_PROBABILITIES = (0.2, 0.35, 0.5)
SPAN_PRIMES = (2, 3, 5)

# (kind, vector, p). Chosen so the verdict mix is about 92% realizable, 4% not
# realizable (B(3): s_3chi > 3) and 4% inconclusive (A(3,3,3), A(4,2)).
REALIZE_FAMILIES = (
    ("B", (3,), None),
    ("B", (5,), None),
    ("Bp", (5, 5), 5),
    ("Bp", (6, 4), 5),
    ("Ap", (5, 5), 3),
    ("Ap", (6, 4), 3),
    ("Ap", (5, 5, 5, 5), 5),
    ("A", (4, 2), None),
    ("A", (3, 3, 3), None),
)

VERDICT_CODES = {
    "CertifiedRealizable": "R",
    "CertifiedNotRealizable": "N",
    "Inconclusive": "I",
}


def _census_draw(index: int) -> tuple[Random, int, float]:
    rng = Random(f"sr-chroma-census-{index}")
    n = rng.randint(6, 12)
    return rng, n, rng.choice(EDGE_PROBABILITIES)


def census_class(index: int) -> tuple[int, float]:
    """(vertex count, edge probability) of census graph `index`."""
    return _census_draw(index)[1:]


def census_text(index: int) -> str:
    """Edge-list text of census graph `index`: 6-12 vertices, one of three
    edge probabilities."""
    rng, n, prob = _census_draw(index)
    lines = [f"v {i}" for i in range(n)]
    lines += [f"e {i} {j}" for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    return "\n".join(lines) + "\n"


def realize_specs() -> tuple[families.FamilySpec, ...]:
    return tuple(families.FamilySpec(kind, vector, p) for kind, vector, p in REALIZE_FAMILIES)


# --------------------------------------------------------------------------
# action-found / action-exhaust: fixed instances
# --------------------------------------------------------------------------

def _cycle(n: int) -> str:
    return "".join(f"v {i}\n" for i in range(1, n + 1)) + "".join(
        f"e {i} {i % n + 1}\n" for i in range(1, n + 1)
    )


def _complete(n: int) -> str:
    return "".join(f"v {i}\n" for i in range(1, n + 1)) + "".join(
        f"e {i} {j}\n" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )


# Vertex order is part of an instance: B(2, K3+K1) explores 24,732 nodes with
# the isolated vertex last and 281,448 with it first. Seeds reorder queries,
# never vertices.
K3_PLUS_K1 = _complete(3) + "v 4\n"


@dataclass(frozen=True)
class ActionInstance:
    """A join complex (family + graph text) or a free algebra (generator text)."""

    name: str
    p: int
    family: tuple | None = None  # (kind, vector, p) for FamilySpec
    graph_text: str | None = None
    free_text: str | None = None


ACTION_FOUND = (
    ActionInstance("B(2,C4)", 3, ("B", (2,), None), _cycle(4)),
    ActionInstance("B(3,K3)", 3, ("B", (3,), None), _complete(3)),
    ActionInstance("B(3,C5)", 3, ("B", (3,), None), _cycle(5)),
    ActionInstance("B(3,C6)", 3, ("B", (3,), None), _cycle(6)),
    ActionInstance("B(4,C4)", 3, ("B", (4,), None), _cycle(4)),
    ActionInstance("A_3(3,3),C4", 3, ("Ap", (3, 3), 3), _cycle(4)),
    ActionInstance("B_5(2,1),K2", 5, ("Bp", (2, 1), 5), _complete(2)),
    ActionInstance("B_5(2,2),K2", 5, ("Bp", (2, 2), 5), _complete(2)),
    ActionInstance("Z/5[x1:4,x2:8,y:12]", 5, free_text="x1:4,x2:8,y:12"),
    ActionInstance("Z/7[x:4,y:16]", 7, free_text="x:4,y:16"),
)

# Eleven instances, so that the median latency falls on one instance
# (B(1,C5)) rather than between the extremes of two.
ACTION_EXHAUST = (
    ActionInstance("Z/3[y:8]", 3, free_text="y:8"),
    ActionInstance("Z/3[x:4,y1:8,y2:8]", 3, free_text="x:4,y1:8,y2:8"),
    ActionInstance("Z/5[x1:8,y:12]", 5, free_text="x1:8,y:12"),
    ActionInstance("Z/5[x1:4,x2:8,y1:12,y2:12]", 5, free_text="x1:4,x2:8,y1:12,y2:12"),
    ActionInstance("Z/7[x1:4,x2:8,y1:16,y2:16]", 7, free_text="x1:4,x2:8,y1:16,y2:16"),
    ActionInstance("B(1,C4)", 3, ("B", (1,), None), _cycle(4)),
    ActionInstance("B(1,C5)", 3, ("B", (1,), None), _cycle(5)),
    ActionInstance("A_3(1,1),K2", 3, ("Ap", (1, 1), 3), _complete(2)),
    ActionInstance("B_5(1,1),K2", 5, ("Bp", (1, 1), 5), _complete(2)),
    ActionInstance("B(2,K3)", 3, ("B", (2,), None), _complete(3)),
    ActionInstance("B(2,K3+K1)", 3, ("B", (2,), None), K3_PLUS_K1),
)


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

@dataclass
class Query:
    """One call into the library. `run` is timed; `check` is not and returns
    None when the answer is correct, else the reason it is not."""

    qid: int
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # exact counters that must repeat on every run of the same query; census
    # queries have none beyond their golden values
    fingerprint: Callable[[object], tuple] = lambda result: ()


class GoldenMismatch(Exception):
    pass


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise GoldenMismatch(reason)


def _guarded(check_fn):
    """Turn a raising checker into one returning the failure reason."""

    def check(result):
        try:
            check_fn(result)
        except GoldenMismatch as exc:
            return str(exc)
        return None

    return check


def load_census_golden() -> dict[int, dict]:
    """Golden census answers: `index n m chi s2 s3 s5 verdicts` per line."""
    out = {}
    for line in (GOLDEN_DIR / "realize_sweep.tsv").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        index, n, m, chi, s2, s3, s5, verdicts = line.split()
        out[int(index)] = {
            "n": int(n),
            "m": int(m),
            "chi": int(chi),
            "span": dict(zip(SPAN_PRIMES, (int(s2), int(s3), int(s5)))),
            "verdicts": verdicts,
        }
    return out


def load_action_golden() -> dict[str, dict]:
    return json.loads((GOLDEN_DIR / "actions.json").read_text())


def census_queries(index: int, g: graph.Graph, want: dict, rng: Random, first_qid: int) -> list[Query]:
    """The 13 queries on one census graph, in a seeded order: chi, s_p-chi at
    p = 2, 3, 5, and check_realizable against every census family."""
    if (len(g.vertices), len(g.edges)) != (want["n"], want["m"]):
        raise ValueError(f"census graph {index} does not match its golden record")
    specs = realize_specs()

    def chi_check(result):
        value, coloring = result
        _expect(value == want["chi"], f"chi {value} != golden {want['chi']}")
        _expect(coloring.num_colors == value, "witness uses a different bound")
        _expect(graph.coloring_is_valid(g, coloring), "invalid coloring witness")

    def span_check(p):
        def check(result):
            value, witness = result
            _expect(value == want["span"][p], f"s_{p}chi {value} != golden {want['span'][p]}")
            _expect(witness.dim == value and witness.p == p, "witness has other parameters")
            _expect(span.verify_span_coloring(g, witness), "invalid span coloring witness")

        return check

    def realize_check(spec, code):
        def check(verdict):
            got = VERDICT_CODES[verdict.status]
            _expect(got == code, f"verdict {got} != golden {code}")
            if verdict.status == "CertifiedRealizable":
                _expect(
                    realize.verify_partition_family(verdict.complex, verdict.partition),
                    "partition certificate fails",
                )
            elif verdict.span_gap is not None:
                p, value, bound = verdict.span_gap
                _expect(value == want["span"][p], "span gap disagrees with golden s_p-chi")
                _expect(bound == spec.first_bound and value > bound, "span gap is not a gap")
            elif verdict.status == "CertifiedNotRealizable":
                k = families.build_complex(spec, g)
                _expect(frozenset(verdict.face) in k.maximal_faces(), "witness is not a maximal face")
                degrees = tuple(sorted(k.gen_degrees[k.label_index[lbl]] for lbl in verdict.face))
                _expect(degrees == verdict.face_multiset, "witness multiset is wrong")
                _expect(realize.multiset_decomposable(degrees) is None, "witness multiset decomposes")

        return check

    items = [(f"chi#{index}", lambda: graph.chromatic_number(g), chi_check)]
    for p in SPAN_PRIMES:
        items.append((f"span{p}#{index}", lambda p=p: span.span_chromatic_number(g, p), span_check(p)))
    for spec, code in zip(specs, want["verdicts"]):
        items.append(
            (
                f"{spec.describe()}#{index}",
                lambda spec=spec: realize.check_realizable(spec, g),
                realize_check(spec, code),
            )
        )
    rng.shuffle(items)
    return [
        Query(first_qid + i, label, run, _guarded(check))
        for i, (label, run, check) in enumerate(items)
    ]


def parse_action_instance(inst: ActionInstance):
    """Setup-time parsing: the graph or generator text of one instance."""
    if inst.free_text is not None:
        return algebra.parse_free_algebra(inst.free_text).generators
    return families.FamilySpec(*inst.family), graph.parse_graph(inst.graph_text)


def action_query(inst: ActionInstance, parsed, want: dict, qid: int) -> Query:
    """Build the ambient, search it, and on a found join complex of minimum
    degree 2 extract the induced coloring data."""
    is_join = inst.free_text is None
    with_coloring = is_join and parsed[1].min_degree() >= 2

    def run():
        if is_join:
            ambient = families.build_complex(*parsed)
        else:
            ambient = algebra.FreePolynomialAlgebra(parsed)
        outcome = search.search_action(ambient, inst.p)
        coloring = None
        if with_coloring and outcome.found:
            coloring = steenrod.coloring_from_action(outcome.table)
        return outcome, coloring

    def check(result):
        outcome, coloring = result
        _expect(outcome.status == want["status"], f"{outcome.status} != golden {want['status']}")
        if not outcome.found:
            _expect(outcome.relativity() == want["relativity"], "relativity string differs")
            return
        table = outcome.table
        for report in (
            steenrod.check_relations(table),
            steenrod.check_ideal_preservation(table),
            steenrod.check_unstability(table),
        ):
            _expect(report.ok, f"found table fails {report.title}")
        if with_coloring:
            gfun, _ = coloring
            _expect(
                steenrod.cokernel_report(parsed[1], gfun).all_nonzero,
                "induced g-function has a zero cokernel",
            )

    def fingerprint(result):
        outcome, _ = result
        return (outcome.status, outcome.nodes, outcome.variables)

    return Query(qid, inst.name, run, _guarded(check), fingerprint)
