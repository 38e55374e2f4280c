"""The packed row kernel, span verification, and the exact span-chromatic solver."""

from __future__ import annotations

import hashlib
import itertools
import sys
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_graphs,
    antiflag_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    empty_graph,
    full_oracle_has_span_coloring,
    oracle_has_span_coloring,
    oracle_span_chromatic,
    path_graph,
    random_graph,
    reference_span_chromatic,
    reference_span_conditions,
    rref_in_span,
    witness_graphs,
)
from sr_chroma import graph as graph_module
from sr_chroma import span as span_module
from sr_chroma.errors import ContractError
from sr_chroma.graph import Coloring, Graph, chromatic_number, max_clique, parse_graph, serialize_graph
from sr_chroma.span import (
    FpVector,
    SpanColoring,
    _search_dimension,
    coloring_to_span_coloring,
    span_chromatic_number,
    span_conditions,
    verify_span_coloring,
)
from sr_chroma.steenrod import cokernel_report


def vec(p, *coords):
    return FpVector(p, coords)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 251]), st.integers(1, 8), st.data())
def test_packed_rows_match_rref_oracle(p, dim, data):
    # widths 2-9 bits and up to 8 fields: the packed fold and carry rules well
    # past the census's p <= 5, n <= 6; coordinates may be negative or >= p
    coord = st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p))
    fresh = st.tuples(*[coord] * dim)
    pool = data.draw(st.lists(fresh, min_size=1, max_size=3))
    vector = st.one_of(st.just((0,) * dim), st.sampled_from(pool), fresh)
    vectors = data.draw(st.lists(vector, max_size=dim + 2))
    coeffs = data.draw(st.lists(coord, min_size=len(vectors), max_size=len(vectors)))
    combination = tuple(sum(k * v[i] for k, v in zip(coeffs, vectors)) for i in range(dim))
    target = data.draw(st.one_of(vector, st.just(combination)))
    expected = rref_in_span(list(vectors), target, p)
    kernel = span_module._packing(p, dim)
    rows = []
    for v in vectors:
        kernel.append(rows, kernel.pack(FpVector(p, v).coords))
    assert (kernel.reduce(rows, kernel.pack(FpVector(p, target).coords)) == 0) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 251, 257]), st.integers(1, 8), st.data())
def test_support_mask_marks_the_nonzero_coordinates(p, dim, data):
    # the largest reduced field, p - 1, is the carry boundary of field + LOW;
    # at p = 2 the field width is tight, p = 2^(w-1)
    kernel = span_module._packing(p, dim)
    assert p <= 1 << (kernel.w - 1) and (p == 2) == (p == 1 << (kernel.w - 1))
    coord = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    vectors = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
    top = 1 << (kernel.w - 1)

    def expected(coords):
        return sum(top << (kernel.w * i) for i, c in enumerate(coords) if c)

    union = 0
    for coords in vectors:
        x = kernel.pack(coords)
        assert kernel.unpack(x) == coords
        assert kernel.support(x) == expected(coords)
        union |= x
    # reduced fields use only their low w - 1 bits, so an OR of vectors is
    # one too, and its support is the union of the supports
    assert kernel.support(union) == expected([any(v[i] for v in vectors) for i in range(dim)])


def test_fpvector_reduction_and_primality():
    assert FpVector(3, (4, -1)).coords == (1, 2)
    with pytest.raises(ContractError):
        FpVector(4, (1,))


def test_verify_span_coloring_examples():
    g0 = empty_graph(3)
    ok = SpanColoring(3, 1, {v: vec(3, 1) for v in g0.vertices})
    assert verify_span_coloring(g0, ok)

    k3 = complete_graph(3)
    basis = SpanColoring(2, 3, {
        "1": vec(2, 1, 0, 0), "2": vec(2, 0, 1, 0), "3": vec(2, 0, 0, 1),
    })
    assert verify_span_coloring(k3, basis)

    # K3 admits no span coloring in F_2^2: exhaust all 27 nonzero assignments
    nonzero = [v for v in itertools.product(range(2), repeat=2) if any(v)]
    for a, b, c in itertools.product(nonzero, repeat=3):
        col = SpanColoring(2, 2, {"1": vec(2, *a), "2": vec(2, *b), "3": vec(2, *c)})
        assert not verify_span_coloring(k3, col)

    with pytest.raises(ContractError):
        verify_span_coloring(k3, SpanColoring(2, 1, {"1": vec(2, 1)}))


def test_span_chromatic_examples():
    assert span_chromatic_number(empty_graph(4), 3)[0] == 1
    assert span_chromatic_number(complete_graph(3), 2)[0] == 3
    edge = complete_graph(2)
    assert span_chromatic_number(edge, 3)[0] == 2  # one scalar spans all of F_3^1


def test_span_witness_always_verifies():
    rng = Random(5)
    for p in (2, 3, 5):
        for _ in range(10):
            g = random_graph(rng, 6)
            n, witness = span_chromatic_number(g, p)
            assert witness.dim == n
            assert verify_span_coloring(g, witness)


def test_reduced_oracle_matches_the_full_one():
    """Holding vertex 0 at the first projective point (GL(n,p) is transitive
    on points) decides the same as the full search: every connected graph on
    at most 4 vertices at p = 2 and 3 for every n <= |V|, and K5 at p = 2."""
    cases = [(g, p) for nv in range(1, 5) for g in connected_graphs(nv) for p in (2, 3)]
    cases.append((complete_graph(5), 2))
    found = Counter()
    for g, p in cases:
        for n in range(1, len(g.vertices) + 1):
            want = full_oracle_has_span_coloring(g, p, n)
            assert oracle_has_span_coloring(g, p, n) == want, (g.edges, p, n)
            found[want] += 1
    assert found == {True: 207, False: 132}


def test_span_solver_matches_oracle_small():
    rng = Random(9)
    graphs = [complete_graph(4), cycle_graph(5), cycle_graph(4)]
    graphs += [random_graph(rng, 5) for _ in range(12)]
    for g in graphs:
        for p in (2, 3):
            assert span_chromatic_number(g, p)[0] == oracle_span_chromatic(g, p)


def test_span_solver_matches_oracle_all_connected_4():
    for g in connected_graphs(4):
        for p in (2, 3, 5, 7):
            assert span_chromatic_number(g, p)[0] == oracle_span_chromatic(g, p)


def test_no_span_coloring_below_the_clique_bound():
    # the solver starts at max(2, clique number) without searching below it:
    # a clique (an edge included) needs linearly independent vectors
    for n in range(2, 6):
        for g in connected_graphs(n):
            below = max(2, len(max_clique(g))) - 1
            for p in (2, 3, 5):
                assert _search_dimension(g, p, below) is None, (g, p)


def test_span_values_equal_the_plain_dimension_loop():
    for g in witness_graphs():
        for p in (2, 3, 5):
            assert span_chromatic_number(g, p)[0] == reference_span_chromatic(g, p), (g, p)


def test_fano_antiflag_span_values():
    # omega = 3 < chi = 4: s_2-chi sits below chi. The plain loop's p = 3 run
    # spends seconds in its successful dimension-4 search, and its p = 5 run
    # minutes, so s_5-chi is pinned rather than compared.
    g = antiflag_graph(2)
    assert (len(g.vertices), len(g.edges), len(max_clique(g))) == (28, 84, 3)
    for p, expected in ((2, 3), (3, 4)):
        assert span_chromatic_number(g, p)[0] == reference_span_chromatic(g, p) == expected
    n, witness = span_chromatic_number(g, 5)
    assert n == 4 and verify_span_coloring(g, witness)


def test_no_dimension_at_or_above_the_greedy_count_is_searched(monkeypatch):
    searched = []
    search = span_module._search_dimension

    def counting(g, p, n):
        searched.append(n)
        return search(g, p, n)

    monkeypatch.setattr(span_module, "_search_dimension", counting)
    for g in itertools.chain(witness_graphs(), [antiflag_graph(2)]):
        if not g.edges:
            continue
        u = max(graph_module._saturation_coloring(g, len(g.vertices)))
        lower = max(2, len(max_clique(g)))
        for p in (2, 3, 5):
            searched.clear()
            n, _ = span_chromatic_number(g, p)
            # the dimensions from max(2, omega) in turn, up to the answer or u - 1
            assert searched == list(range(lower, min(n + 1, u))), (g, p)


def test_span_chromatic_computes_no_chi(monkeypatch):
    # chi of the PG(2,3) antiflag graph (117 vertices) has no bound in
    # practice; s_3-chi must not need it, and its only coloring search is the
    # greedy pass, with a color per vertex
    def refuse(*args):
        raise AssertionError("the span solver computed chi")

    searched = []
    saturation = graph_module._saturation_coloring

    def counting(g, k):
        searched.append(k)
        return saturation(g, k)

    monkeypatch.setattr(graph_module, "chromatic_number", refuse)
    monkeypatch.setattr(graph_module, "_chromatic_number", refuse)
    monkeypatch.setattr(graph_module, "_saturation_coloring", counting)
    g = antiflag_graph(3)
    assert (len(g.vertices), len(g.edges)) == (117, 702)
    n, witness = span_chromatic_number(g, 3)
    assert n == 3 and witness.dim == 3
    assert verify_span_coloring(g, witness)
    assert searched == [117]


def test_complete_graph_span_equals_size():
    # each vector must avoid the span of all others: forces independence
    for p in (2, 3, 5):
        for m in (2, 3, 4):
            assert span_chromatic_number(complete_graph(m), p)[0] == m


def test_coloring_to_span_coloring_rejects_an_improper_coloring():
    g = path_graph(3)
    with pytest.raises(ContractError, match="not a valid coloring"):
        coloring_to_span_coloring(g, Coloring(2, {"1": 1, "2": 2}), 3)  # "3" missing
    with pytest.raises(ContractError, match="not a valid coloring"):
        coloring_to_span_coloring(g, Coloring(2, {"1": 1, "2": 3, "3": 1}), 3)  # 3 > num_colors
    with pytest.raises(ContractError, match="not a valid coloring"):
        coloring_to_span_coloring(g, Coloring(2, {"1": 1, "2": 1, "3": 2}), 3)  # edge 1-2
    sc = coloring_to_span_coloring(g, Coloring(3, {"1": 1, "2": 2, "3": 1}), 3)
    assert sc.dim == 3 and sc.assignment["1"] == vec(3, 1, 0, 0)
    assert sc.assignment["1"] is sc.assignment["3"]  # one vector per color


def test_the_greedy_witness_checks_no_coloring(monkeypatch):
    # the greedy basis witness is built from the kept color tuple, and
    # `verify_span_coloring` is its one check. The profile hook sees every
    # call of `coloring_is_valid`, however it is imported, with its caller's file
    check = graph_module.coloring_is_valid.__code__
    callers = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is check:
            callers[frame.f_back.f_code.co_filename] += 1

    greedy = 0
    sys.setprofile(hook)
    try:
        for g in all_graphs(4):
            u = max(graph_module._greedy_coloring(g))
            for p in (2, 3, 5):
                greedy += span_chromatic_number(g, p)[0] == u
        assert callers[span_module.__file__] == 0
        # the hook does see the public door's contract check
        coloring_to_span_coloring(path_graph(2), Coloring(2, {"1": 1, "2": 2}), 3)
    finally:
        sys.setprofile(None)
    assert callers[span_module.__file__] == 1 and greedy > 150
    # an improper greedy coloring goes through to that check
    monkeypatch.setattr(span_module, "_greedy_coloring", lambda g: (1,) * len(g.vertices))
    with pytest.raises(AssertionError, match="^solver returned an invalid witness$"):
        span_chromatic_number(path_graph(2), 3)


def test_basis_vectors_are_shared_per_prime_and_dimension():
    g = path_graph(3)
    coloring = Coloring(3, {"1": 1, "2": 2, "3": 3})
    first = coloring_to_span_coloring(g, coloring, 5)
    second = coloring_to_span_coloring(g, Coloring(3, {"1": 3, "2": 1, "3": 2}), 5)
    assert first == coloring_to_span_coloring(g, coloring, 5)
    assert first.assignment is not second.assignment
    # the same FpVector per (p, n, color), in every witness
    assert first.assignment["1"] is second.assignment["2"] is span_module._basis(5, 3)[0]
    assert span_module._basis.cache_info().maxsize is not None


def test_basis_vector_assignment_from_coloring():
    rng = Random(13)
    for _ in range(30):
        g = random_graph(rng, 7)
        _, col = chromatic_number(g)
        for p in (2, 3, 5):
            sc = coloring_to_span_coloring(g, col, p)
            assert verify_span_coloring(g, sc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**21 - 1), st.sampled_from([2, 3, 5]))
def test_scaling_invariance(seed, p):
    rng = Random(seed)
    g = random_graph(rng, 6)
    n, witness = span_chromatic_number(g, p)
    scaled = {
        v: FpVector(p, tuple(c * rng.randint(1, p - 1) for c in w.coords))
        for v, w in witness.assignment.items()
    }
    assert verify_span_coloring(g, SpanColoring(p, n, scaled))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(0, 2**10 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.data(),
)
def test_cokernel_report_and_verify_share_one_span_check(n, edge_bits, p, dim, data):
    labels = [str(i + 1) for i in range(n)]
    pairs = itertools.combinations(labels, 2)
    g = Graph.build(labels, [e for i, e in enumerate(pairs) if edge_bits >> i & 1])
    coords = st.tuples(*[st.integers(0, p - 1)] * dim)
    vectors = st.one_of(st.just((0,) * dim), coords).map(lambda cs: FpVector(p, cs))
    c = SpanColoring(p, dim, {v: data.draw(vectors) for v in g.vertices})
    report = cokernel_report(g, c)
    assert report.all_nonzero == verify_span_coloring(g, c)
    assert [v for v, _ in report.entries] == list(g.vertices)
    for v, ok in report.entries:
        nbrs = [c.assignment[u].coords for u in sorted(g.neighbors(v), key=g.index.get)]
        assert ok == (not rref_in_span(nbrs, c.assignment[v].coords, p))
    missing = SpanColoring(p, dim, {v: c.assignment[v] for v in g.vertices[:-1]})
    with pytest.raises(ContractError, match="no vector"):
        cokernel_report(g, missing)
    with pytest.raises(ContractError, match="no vector"):
        verify_span_coloring(g, missing)


def test_deterministic_witness():
    # two distinct Graph objects, so neither answer is read off the other's memo
    text = serialize_graph(cycle_graph(5))
    first, second = parse_graph(text), parse_graph(text)
    assert first is not second
    assert span_chromatic_number(first, 3) == span_chromatic_number(second, 3)


def test_span_chromatic_on_a_long_path():
    g = path_graph(1500)
    n, witness = span_chromatic_number(g, 3)
    assert n == 2
    assert verify_span_coloring(g, witness)


# -- answers kept on the Graph ------------------------------------------------

def _query(g, q):
    if q == "clique":
        return max_clique(g)
    if q == "chi":
        return chromatic_number(g)
    return span_chromatic_number(g, q)


def test_memoized_answers_equal_fresh_answers():
    rng = Random(31)
    graphs = list(all_graphs(5)) + [random_graph(rng, 8) for _ in range(30)]
    for g in graphs:
        queries = ["clique", "chi", 2, 3, 5] * 2
        rng.shuffle(queries)
        for q in queries:
            assert _query(g, q) == _query(Graph(g.vertices, g.edges), q), (g, q)


def test_each_answer_is_solved_once_per_graph(monkeypatch):
    solved = []

    def counting(module, name):
        solve = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: solved.append(name) or solve(*args))

    counting(graph_module, "_max_clique")
    counting(graph_module, "_chromatic_number")
    counting(span_module, "_span_chromatic_number")
    g = cycle_graph(5)
    for _ in range(3):
        for q in ("chi", 2, 3, "clique"):
            _query(g, q)
    assert sorted(solved) == [
        "_chromatic_number", "_max_clique", "_span_chromatic_number", "_span_chromatic_number"
    ]
    _query(cycle_graph(5), "chi")  # an equal but distinct graph solves again
    assert solved.count("_chromatic_number") == 2


def test_mutating_a_witness_leaves_the_answer_alone():
    g = cycle_graph(5)
    chi, coloring = chromatic_number(g)
    expected = dict(coloring.assignment)
    coloring.assignment["1"] = 99
    coloring.assignment.pop("2")
    assert chromatic_number(g) == (chi, Coloring(chi, expected))

    n, witness = span_chromatic_number(g, 3)
    expected_span = dict(witness.assignment)
    witness.assignment["1"] = vec(3, 0, 0, 0)
    witness.assignment.clear()
    assert span_chromatic_number(g, 3) == (n, SpanColoring(3, n, expected_span))

    # a greedy basis witness shares its vectors with later witnesses, but not
    # its assignment
    k3 = complete_graph(3)
    n, witness = span_chromatic_number(k3, 2)
    expected_span = dict(witness.assignment)
    coloring = Coloring(3, {"1": 1, "2": 2, "3": 3})
    expected_basis = coloring_to_span_coloring(k3, coloring, 2)
    witness.assignment["1"] = witness.assignment["2"]
    witness.assignment.pop("3")
    assert span_chromatic_number(k3, 2) == (n, SpanColoring(2, n, expected_span))
    assert coloring_to_span_coloring(k3, coloring, 2) == expected_basis


def test_non_prime_raises_on_every_call():
    g = cycle_graph(5)
    for p in (4, 1, 4, 9):
        with pytest.raises(ContractError):
            span_chromatic_number(g, p)
    span_chromatic_number(g, 3)
    with pytest.raises(ContractError):
        span_chromatic_number(g, 4)


def test_serialize_witness_format():
    g = complete_graph(2)
    _, w = span_chromatic_number(g, 3)
    lines = w.serialize().strip().splitlines()
    assert len(lines) == 2
    assert all(" : " in line for line in lines)


# Pin the chi witnesses and the s_p-chi witnesses (p = 2, 3, 5) on
# `witness_graphs()`, each in its own digest, so a rewrite of one search that
# changes its visiting order shows up in that search's digest alone. Each is
# sha256 over the witnesses in order: the chi colorings, or every serialized
# span witness.
CHI_WITNESS_SHA256 = "b282799548ec59438cf3321c578dbe1b579c292dba4c78b13f6cb0ad7c0a4d3b"
SPAN_WITNESS_SHA256 = "5df2ee88ceb65d51cb50ec5611042bc41742ee33ae471b7836c6985f911b3766"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_reps_are_the_normalized_vectors_in_lex_order(p):
    for r in range(5):
        normalized = [
            v for v in itertools.product(range(p), repeat=r) if any(v) and next(c for c in v if c) == 1
        ]
        unpack = span_module._packing(p, r).unpack
        assert tuple(map(unpack, span_module._packed_reps(p, r))) == tuple(sorted(normalized))


def test_chi_witness_oracle():
    digest = hashlib.sha256()
    for g in witness_graphs():
        chi, coloring = chromatic_number(g)
        digest.update(repr((chi, coloring.num_colors, sorted(coloring.assignment.items()))).encode())
    assert digest.hexdigest() == CHI_WITNESS_SHA256


def test_witness_oracle():
    digest = hashlib.sha256()
    for g in witness_graphs():
        for p in (2, 3, 5):
            n, witness = span_chromatic_number(g, p)
            digest.update(f"{p} {n} {witness.dim}\n{witness.serialize()}".encode())
    assert digest.hexdigest() == SPAN_WITNESS_SHA256


@pytest.mark.parametrize("bad", [vec(5, 1, 0), vec(3, 1, 0, 0)], ids=["wrong-p", "wrong-dim"])
def test_span_conditions_reject_a_vector_of_other_parameters(bad):
    g = complete_graph(2)
    # the first vertex's own vector is checked before any span is taken
    c = SpanColoring(3, 2, {"1": bad, "2": vec(3, 1, 0)})
    with pytest.raises(ContractError) as exc:
        verify_span_coloring(g, c)
    assert str(exc.value) == "vector for '1' does not match coloring parameters"


def _trace(conditions, g, c):
    """The yields of a span check, then its ContractError message or None."""
    seen = []
    try:
        for item in conditions(g, c):
            seen.append(item)
    except ContractError as exc:
        return seen, str(exc)
    return seen, None


def _outcome(call):
    """A call's result, or its ContractError message."""
    try:
        return call()
    except ContractError as exc:
        return str(exc)


def test_span_conditions_check_a_neighbor_with_span_membership_messages():
    # vertex 1 is valid, so its neighbor's vector is read, and its prime checked first
    g = complete_graph(2)
    c = SpanColoring(3, 2, {"1": vec(3, 1, 0), "2": vec(5, 1, 0)})
    expected = ([], "prime mismatch: 5 vs 3")
    assert _trace(span_conditions, g, c) == _trace(reference_span_conditions, g, c) == expected


def test_verify_span_coloring_stops_before_a_later_malformed_vector():
    # f(1) lies in the span of f(2); vertex 3, not adjacent to either, is malformed
    g = Graph.build(["1", "2", "3"], [("1", "2")])
    c = SpanColoring(3, 2, {"1": vec(3, 1, 0), "2": vec(3, 2, 0), "3": vec(5, 1, 0)})
    assert verify_span_coloring(g, c) is False
    expected = ([("1", False), ("2", False)], "vector for '3' does not match coloring parameters")
    assert _trace(span_conditions, g, c) == _trace(reference_span_conditions, g, c) == expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(0, 2**10 - 1),
    st.sampled_from([2, 3, 5, 7, 251]),
    st.integers(1, 3),
    st.data(),
)
def test_packed_span_conditions_match_the_fpvector_reference(n, edge_bits, p, dim, data):
    labels = [str(i + 1) for i in range(n)]
    pairs = itertools.combinations(labels, 2)
    g = Graph.build(labels, [e for i, e in enumerate(pairs) if edge_bits >> i & 1])
    coords = st.integers(0, p - 1)
    # mostly well-formed vectors, so a malformed one is often met as a neighbor;
    # sparse ones (mostly zeros, else 1 or p - 1) leave coordinates off the
    # neighbors' support, so the support certificate and the elimination
    # fallback both decide vertices here
    kinds = st.sampled_from(
        ["valid"] * 5 + ["sparse"] * 4 + ["zero", "wrong-dim"] * 2 + ["wrong-p", "missing"]
    )
    sparse = st.sampled_from([0, 0, 0, 1, p - 1])
    assignment = {}
    for v in g.vertices:
        kind = data.draw(kinds)
        if kind == "valid":
            assignment[v] = FpVector(p, data.draw(st.tuples(*[coords] * dim)))
        elif kind == "sparse":
            assignment[v] = FpVector(p, data.draw(st.tuples(*[sparse] * dim)))
        elif kind == "zero":
            assignment[v] = FpVector(p, (0,) * dim)
        elif kind == "wrong-p":
            other = data.draw(st.sampled_from([q for q in (2, 3, 5, 7) if q != p]))
            other_dim = data.draw(st.sampled_from([dim, dim + 1]))
            assignment[v] = FpVector(other, (1,) * other_dim)
        elif kind == "wrong-dim":
            other_dim = data.draw(st.sampled_from([d for d in range(5) if d != dim]))
            assignment[v] = FpVector(p, data.draw(st.tuples(*[coords] * other_dim)))
    c = SpanColoring(p, dim, assignment)
    assert _trace(span_conditions, g, c) == _trace(reference_span_conditions, g, c)
    reference = _outcome(lambda: all(ok for _, ok in reference_span_conditions(g, c)))
    assert _outcome(lambda: verify_span_coloring(g, c)) == reference


# -- the support certificate and its fallback ---------------------------------

def _count_appends(monkeypatch):
    calls = []
    append = span_module._Packing.append

    def counting(self, rows, x):
        calls.append(x)
        return append(self, rows, x)

    monkeypatch.setattr(span_module._Packing, "append", counting)
    return calls


def test_basis_witnesses_verify_without_elimination(monkeypatch):
    calls = _count_appends(monkeypatch)
    checked = 0
    for g in witness_graphs():
        if not g.vertices:
            continue
        colors = graph_module._greedy_coloring(g)
        colorings = [Coloring(max(colors), dict(zip(g.vertices, colors))), chromatic_number(g)[1]]
        for coloring in colorings:
            for p in (2, 3, 5):
                assert verify_span_coloring(g, coloring_to_span_coloring(g, coloring, p)), (g, p)
                checked += 1
    assert checked > 0 and calls == []


def test_the_fano_witness_is_decided_through_elimination(monkeypatch):
    calls = _count_appends(monkeypatch)
    g = antiflag_graph(2)
    n, witness = span_chromatic_number(g, 2)
    assert n == 3
    calls.clear()
    assert verify_span_coloring(g, witness)
    assert calls
    kernel = span_module._packing(2, n)
    packed = {v: kernel.pack(w.coords) for v, w in witness.assignment.items()}

    def certified(i):
        covered = 0
        for j in g.neighbor_indices[i]:
            covered |= packed[g.vertices[j]]
        return kernel.support(packed[g.vertices[i]]) & ~kernel.support(covered)

    # tamper a vertex that elimination decides: its vector becomes the sum of
    # two of its neighbors' vectors, whose support the neighbors cover
    i = next(i for i in range(len(g.vertices)) if not certified(i))
    neighbors = [witness.assignment[g.vertices[j]] for j in g.neighbor_indices[i]]
    a, b = next((a, b) for a, b in itertools.combinations(neighbors, 2) if a != b)
    tampered = dict(witness.assignment)
    tampered[g.vertices[i]] = FpVector(2, tuple(x + y for x, y in zip(a.coords, b.coords)))
    c = SpanColoring(2, n, tampered)
    calls.clear()
    trace = _trace(span_conditions, g, c)
    assert trace == _trace(reference_span_conditions, g, c)
    assert (g.vertices[i], False) in trace[0] and calls
    assert verify_span_coloring(g, c) is False


# -- the shared subspace lattice of the span search ----------------------------

@pytest.fixture
def empty_lattices():
    """Every (p, n) lattice starts empty, and the test leaves none behind."""
    lattice = span_module._lattice  # the cached function, even while a test patches it
    lattice.cache_clear()
    yield
    lattice.cache_clear()


def _lattice_entries(lattice):
    """The entries a lattice actually holds: interned subspaces and the memo
    answers of those and of its root."""
    subspaces = [lattice.zero, *lattice.interned.values()]
    return len(lattice.interned) + sum(len(s.outside) + len(s.joins) for s in subspaces)


def _look_up(lattice, s, x):
    """(x lies outside s, the join of s and x), through the memos as the search reads them."""
    out = s.outside.get(x)
    t = s.joins.get(x)
    return (lattice.outside(s, x) if out is None else out), (lattice.join(s, x) if t is None else t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 251]), st.integers(1, 5), st.data())
def test_lattice_joins_and_membership_match_elimination(p, n, data):
    lattice = span_module._Lattice(p, n)
    kernel = lattice.kernel
    coord = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    vectors = data.draw(st.lists(st.tuples(*[coord] * n), max_size=n + 3))
    probes = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
    packed = [kernel.pack(v) for v in vectors]
    # a chain of joins against the echelon rows of the same vectors; every
    # lookup twice, so the second is answered by the memo
    s, rows = lattice.zero, []
    for x in packed:
        for _ in range(2):
            out, t = _look_up(lattice, s, x)
            assert out == bool(kernel.reduce(rows, x)) == (t is not s)
        kernel.append(rows, x)
        s = t
        assert s.dim == len(rows)
        for y in map(kernel.pack, probes + vectors):
            for _ in range(2):
                assert _look_up(lattice, s, y)[0] == bool(kernel.reduce(rows, y))
    # another spanning list of the same subspace: the vectors shuffled, each
    # scaled and given multiples of the ones before it, with zero and repeats
    coeff = st.integers(0, p - 1)
    order = data.draw(st.permutations(range(len(packed))))
    other: list[int] = []
    for k in order:
        y = kernel.add_multiple(0, packed[k], data.draw(st.integers(1, p - 1)))
        for z in other:
            c = data.draw(coeff)
            if c:
                y = kernel.add_multiple(y, z, c)
        other.append(y)
    other += [0] + other[: data.draw(st.integers(0, 2))]
    t = lattice.zero
    for y in data.draw(st.permutations(other)):
        t = _look_up(lattice, t, y)[1]
    assert t is s


def _gaussian_binomial(n, k, p):
    count = 1
    for i in range(k):
        count = count * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return count


@pytest.mark.parametrize("p, n, subspaces", [(2, 3, 16), (3, 3, 28), (5, 3, 64), (2, 4, 67)])
def test_lattice_closed_under_joins_holds_every_subspace_once(p, n, subspaces):
    assert sum(_gaussian_binomial(n, k, p) for k in range(n + 1)) == subspaces
    lattice = span_module._Lattice(p, n)
    reached, frontier = {id(lattice.zero): lattice.zero}, [lattice.zero]
    while frontier:
        s = frontier.pop()
        for x in span_module._packed_reps(p, n):
            t = _look_up(lattice, s, x)[1]
            if id(t) not in reached:
                reached[id(t)] = t
                frontier.append(t)
    assert len(reached) == len(lattice.interned) + 1 == subspaces
    assert Counter(s.dim for s in reached.values()) == {
        k: _gaussian_binomial(n, k, p) for k in range(n + 1)
    }


def _fresh_span_answers():
    """s_p-chi and its serialized witness at p = 2, 3, 5 on fresh copies of
    the witness graphs and the Fano antiflag graph."""
    graphs = itertools.chain(witness_graphs(), [antiflag_graph(2)])
    answers = []
    for g in graphs:
        for p in (2, 3, 5):
            n, witness = span_chromatic_number(Graph.build(g.vertices, g.edges), p)
            answers.append((n, witness.serialize()))
    return answers


@pytest.mark.parametrize("bound", [0, 57])
def test_the_memo_bound_changes_no_answer(monkeypatch, empty_lattices, bound):
    expected = _fresh_span_answers()
    assert span_module._lattice.cache_info().maxsize is not None
    span_module._lattice.cache_clear()
    lattices = {}
    make = span_module._lattice

    def recording(p, n):
        lattices[p, n] = make(p, n)
        return lattices[p, n]

    monkeypatch.setattr(span_module, "_LATTICE_ENTRIES", bound)
    monkeypatch.setattr(span_module, "_lattice", recording)
    assert _fresh_span_answers() == expected
    assert lattices
    for lattice in lattices.values():
        assert _lattice_entries(lattice) == lattice.entries <= bound


def test_the_witness_check_reads_no_lattice(monkeypatch):
    witnesses = []
    for g in itertools.chain(witness_graphs(), [antiflag_graph(2)]):
        for p in (2, 3, 5):
            witnesses.append((g, span_chromatic_number(g, p)[1]))

    def refuse(p, n):
        raise AssertionError("the span check read the lattice")

    monkeypatch.setattr(span_module, "_lattice", refuse)
    with pytest.raises(AssertionError, match="read the lattice"):
        span_chromatic_number(antiflag_graph(2), 3)
    tampered = 0
    for g, witness in witnesses:
        assert verify_span_coloring(g, witness), (g, witness)
        if g.edges:
            # a vertex given its neighbor's vector fails the check
            u, v = g.sorted_edges()[0]
            bad = SpanColoring(witness.p, witness.dim, {**witness.assignment, u: witness.assignment[v]})
            assert verify_span_coloring(g, bad) is False
            tampered += 1
    assert tampered > 0


def test_a_second_solve_on_an_equal_graph_makes_no_lattice_miss(monkeypatch, empty_lattices):
    misses = []
    for name in ("outside", "join"):
        miss = getattr(span_module._Lattice, name)
        monkeypatch.setattr(
            span_module._Lattice, name, lambda self, s, x, miss=miss, name=name: misses.append(name) or miss(self, s, x)
        )
    searched = []
    search = span_module._search_dimension
    monkeypatch.setattr(span_module, "_search_dimension", lambda g, p, n: searched.append(n) or search(g, p, n))
    graphs = [antiflag_graph(2), cycle_graph(7)]
    first = [span_chromatic_number(g, p) for g in graphs for p in (3, 5)]
    assert misses and searched
    misses.clear()
    searches = len(searched)
    again = [span_chromatic_number(Graph.build(g.vertices, g.edges), p) for g in graphs for p in (3, 5)]
    assert again == first
    assert len(searched) == 2 * searches and misses == []
