"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is also part of the default `pytest` run.
"""

from __future__ import annotations

import itertools
import time
from random import Random

from helpers import (
    all_graphs,
    complete_graph,
    connected_graphs,
    cycle_graph,
    oracle_face_set,
    random_graph,
    reference_coloring_partition,
)
from sr_chroma.algebra import AlgebraElement, FreePolynomialAlgebra
from sr_chroma.families import FamilySpec, build_complex
from sr_chroma.graph import chromatic_number
from sr_chroma.realize import (
    check_realizable,
    decompose_s,
    verify_partition,
)
from sr_chroma.search import search_action
from sr_chroma.span import (
    coloring_to_span_coloring,
    span_chromatic_number,
    verify_span_coloring,
)
from sr_chroma.steenrod import SteenrodTable, cartan_extend, coloring_from_action

from helpers import oracle_span_chromatic


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_span_oracle_equivalence():
    """Solver == brute-force oracle on every connected graph with <=5 vertices."""
    start = time.time()
    count = 0
    for nv in range(1, 6):
        for g in connected_graphs(nv):
            for p in (2, 3):
                solver_value, witness = span_chromatic_number(g, p)
                oracle_value = oracle_span_chromatic(g, p)
                assert solver_value == oracle_value, (g.edges, p, solver_value, oracle_value)
                assert verify_span_coloring(g, witness)
            count += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion 1 exceeded 5 minutes ({elapsed:.0f}s)"
    _report(1, f"{count} connected graphs, p in {{2,3}}, {elapsed:.1f}s")


def test_criterion_2_sandwich_inequality():
    """s_p-chi <= chi on 200 random graphs, |V| <= 8, p in {2,3,5}."""
    rng = Random(20260808)
    violations = 0
    for _ in range(200):
        g = random_graph(rng, 8)
        chi, coloring = chromatic_number(g)
        for p in (2, 3, 5):
            span_value, _ = span_chromatic_number(g, p)
            if span_value > chi:
                violations += 1
            # the basis-vector assignment realizes a proper coloring as a span
            # coloring, which is the lower-bound direction made executable
            assert verify_span_coloring(g, coloring_to_span_coloring(g, coloring, p))
    assert violations == 0
    _report(2, "200 graphs x p in {2,3,5}, zero violations")


def test_criterion_3_mod3_proof_algebras_exhausted():
    """The two mod-3 proof algebras admit no table, each within a minute."""
    for gens in [(("y", 8),), (("x", 4), ("y1", 8), ("y2", 8))]:
        start = time.time()
        out = search_action(FreePolynomialAlgebra(gens), 3)
        elapsed = time.time() - start
        assert out.status == "exhausted"
        assert "P^1P^3 = P^4" in out.relativity()
        assert elapsed < 60, f"{gens} took {elapsed:.0f}s"
    _report(3, "Z/3[y] and Z/3[x,y1,y2] exhausted")


def test_criterion_4_general_p_proof_algebras_at_five():
    """The general-p proof algebras, instantiated at p = 5, within 10 minutes."""
    start = time.time()
    algebra_a = FreePolynomialAlgebra((("x1", 8), ("y", 12)))
    out_a = search_action(algebra_a, 5)
    assert out_a.status == "exhausted"
    algebra_b = FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 12), ("y2", 12)))
    out_b = search_action(algebra_b, 5)
    assert out_b.status == "exhausted"
    elapsed = time.time() - start
    assert elapsed < 600, f"criterion 4 exceeded 10 minutes ({elapsed:.0f}s)"
    _report(4, f"both p=5 proof algebras exhausted in {elapsed:.1f}s")


def test_criterion_5_sufficiency_certificates():
    """Coloring partitions verify for all graphs <=6 vertices, both schemes,
    p in {3,5}, with n = chi."""
    failures = 0
    checked = 0
    for nv in range(1, 7):
        for g in all_graphs(nv):
            chi, coloring = chromatic_number(g)
            for p in (3, 5):
                for kind, scheme in (("Ap", "A"), ("Bp", "B")):
                    width = p - 1 if kind == "Ap" else (p - 1) // 2
                    k = build_complex(FamilySpec(kind, (chi,) * width, p), g)
                    part = reference_coloring_partition(k, coloring)
                    if not verify_partition(k, part, scheme):
                        failures += 1
                    checked += 1
    assert failures == 0
    _report(5, f"{checked} partition checks, zero failures")


def test_criterion_6_decomposition_equivalences():
    """Length-2 and length-4 splits match the closed-form inequality systems."""
    for s1 in range(9):
        for s2 in range(9):
            for c in range(9):
                got = decompose_s((s1, s2), c) is not None
                want = s1 >= s2 and s1 >= c
                assert got == want, ((s1, s2), c)

    rng_count = 0
    for s in itertools.product(range(7), repeat=4):
        s1, s2, s3, s4 = s
        for c in range(7):
            base = s1 >= s3 >= c and s2 >= s4 and s1 >= s2 and s3 >= s4
            extra = s1 - s2 >= c - s4 if c > s4 else True
            want = base and extra
            got = decompose_s(s, c) is not None
            assert got == want, (s, c)
            rng_count += 1
    _report(6, f"length 2 (9^3 tuples) and length 4 ({rng_count} tuples) match")


def test_criterion_7_non_example_certification():
    """The two closing non-examples fail with the exact multiset witnesses."""
    k3 = complete_graph(3)
    v1 = check_realizable(FamilySpec("A", (1, 1)), k3)
    assert v1.status == "CertifiedNotRealizable"
    assert v1.face_multiset == (4, 6, 8, 8)
    v2 = check_realizable(FamilySpec("A", (2, 3)), k3)
    assert v2.status == "CertifiedNotRealizable"
    assert v2.face_multiset == (4, 4, 6, 6, 6, 8, 8)
    _report(7, "witness multisets {4,6,8,8} and {4,4,6,6,6,8,8}")


def test_criterion_8_algebra_kernel_property_suite():
    """Ring laws on 1000 random products; reduction vs explicit face
    enumeration over every graph with <=5 vertices; Cartan total-operation
    multiplicativity on 500 random pairs up to degree 2p^2+2p at p=3."""
    rng = Random(97)
    p = 3

    # ring laws
    k = build_complex(FamilySpec("B", (2,)), cycle_graph(4))
    degrees = [4, 8, 12, 16, 20]

    def random_element(complex_, degree):
        basis = complex_.monomial_basis(degree)
        picked = rng.sample(basis, min(3, len(basis)))
        return AlgebraElement.make(complex_, p, {m: rng.randrange(1, p) for m in picked})

    for _ in range(1000):
        a = random_element(k, rng.choice(degrees))
        b = random_element(k, rng.choice(degrees))
        c = random_element(k, rng.choice(degrees))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        da, db = a.homogeneous_degree(), b.homogeneous_degree()
        if da is not None and db is not None:
            prod = a * b
            assert prod.is_zero() or prod.homogeneous_degree() == da + db

    # reduction against explicit face enumeration, every graph with <=5 vertices
    def all_monomials(complex_, degree):
        out = []
        widths = complex_.gen_degrees

        def fill(i, remaining, exps):
            if i == len(widths):
                if remaining == 0:
                    from sr_chroma.algebra import Monomial

                    out.append(Monomial(tuple(exps)))
                return
            for e in range(remaining // widths[i] + 1):
                fill(i + 1, remaining - e * widths[i], exps + [e])

        fill(0, degree, [])
        return out

    families = [FamilySpec("B", (1,)), FamilySpec("B", (2,)), FamilySpec("A", (1, 1))]
    graph_count = 0
    for nv in range(1, 6):
        for g in all_graphs(nv):
            spec = families[graph_count % len(families)]
            graph_count += 1
            complex_ = build_complex(spec, g)
            faces = oracle_face_set(complex_)
            for degree in range(0, 25, 2):
                for m in all_monomials(complex_, degree):
                    support = frozenset(complex_.gen_labels[i] for i in m.support())
                    assert (complex_.reduce_monomial(m) is not None) == (support in faces)

    # Cartan total-operation multiplicativity up to degree 2p^2 + 2p = 24
    bound = 2 * p * p + 2 * p
    k2 = build_complex(FamilySpec("B", (2,)), complete_graph(3))
    entries = {}
    for label, d in zip(k2.gen_labels, k2.gen_degrees):
        for kk in range(1, d // 2):
            deg = d + 2 * kk * (p - 1)
            basis = k2.monomial_basis(deg)
            entries[(label, kk)] = AlgebraElement.make(
                k2, p, {m: rng.randrange(p) for m in basis}
            )
    table = SteenrodTable(p, k2, entries)
    for _ in range(500):
        da, db = rng.choice([4, 8]), rng.choice([4, 8, 12])
        a = random_element(k2, da)
        b = random_element(k2, db)
        ab = a * b
        for kk in range((bound - da - db) // (2 * (p - 1)) + 1):
            total = k2.zero(p)
            for i in range(kk + 1):
                total = total + cartan_extend(table, a, i) * cartan_extend(table, b, kk - i)
            assert cartan_extend(table, ab, kk) == total
    _report(8, f"1000 products, {graph_count} complexes, 500 Cartan pairs")


def test_criterion_9_found_tables_induce_span_colorings():
    """Every Found table on a join instance with a min-degree-2 graph must
    induce a span coloring: its g-function is a SpanColoring in F_p^{s_1}
    that verify_span_coloring accepts, so s_p-chi <= s_1. A case the
    necessary condition excludes must come back exhausted."""
    instances = [
        (FamilySpec("B", (2,)), cycle_graph(4)),
        (FamilySpec("B", (3,)), complete_graph(3)),
        (FamilySpec("B", (3,)), cycle_graph(5)),
        (FamilySpec("B", (3,)), cycle_graph(6)),
        (FamilySpec("B", (4,)), cycle_graph(4)),
        (FamilySpec("Ap", (3, 3), 3), cycle_graph(4)),
    ]
    for spec, g in instances:
        k = build_complex(spec, g)
        out = search_action(k, 3)
        assert out.found, f"no table on {spec.describe()}"
        gfun, report = coloring_from_action(out.table)
        assert report.all_nonzero, f"zero cokernel on {spec.describe()}: {report.to_text()}"
        # the g-function is then an honest span coloring certificate
        assert verify_span_coloring(g, gfun)
        assert gfun.dim == k.blocks[0][0] == spec.first_bound
        value, _ = span_chromatic_number(g, 3)
        assert value <= gfun.dim

    # s_3chi(K3) = 3 > 2, so no table may exist on B(2, K3)
    k = build_complex(FamilySpec("B", (2,)), complete_graph(3))
    out = search_action(k, 3)
    assert out.status == "exhausted"
    _report(9, f"{len(instances)} found tables, each a span coloring; B(2,K3) exhausted")
