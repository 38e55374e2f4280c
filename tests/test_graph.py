"""Graph parsing, the stored masks and their derived views, max clique and
chromatic number."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import tracemalloc
from random import Random

import pytest

from helpers import (
    CENSUS_SPECS,
    all_edge_lists,
    all_graphs,
    antiflag_edge_list,
    antiflag_graph,
    complete_graph,
    cycle_graph,
    edge_adjacency,
    empty_graph,
    oracle_chromatic,
    oracle_colorable,
    path_graph,
    random_graph,
    reference_edges,
    witness_graphs,
)
from sr_chroma import graph as graph_module
from sr_chroma.errors import ContractError, GraphParseError
from sr_chroma.graph import (
    Coloring,
    Graph,
    _saturation_coloring,
    chromatic_number,
    coloring_is_valid,
    max_clique,
    parse_graph,
    serialize_graph,
)
from sr_chroma.realize import check_realizable
from sr_chroma.span import span_chromatic_number


def test_parse_single_edge():
    g = parse_graph("v a\nv b\ne a b")
    assert g.vertices == ("a", "b")
    assert g.edges == frozenset({("a", "b")})


def test_parse_isolated_vertex():
    g = parse_graph("v a")
    assert g.vertices == ("a",)
    assert g.edges == frozenset()


def test_parse_loop_edge_rejected():
    with pytest.raises(GraphParseError, match="line 2.*loop"):
        parse_graph("v a\ne a a")


def test_parse_unknown_vertex_rejected():
    with pytest.raises(GraphParseError, match="line 1.*unknown vertex"):
        parse_graph("e a b\nv a\nv b")


def test_parse_malformed_line_names_line_number():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("v a\nv b\nq a b")


def test_parse_comments_and_duplicates():
    g = parse_graph("# header\nv a\nv b # trailing\nv a\ne a b\ne b a\n")
    assert g.vertices == ("a", "b")
    assert len(g.edges) == 1


def test_serialize_round_trip():
    rng = Random(5)
    graphs = [complete_graph(4), path_graph(3), empty_graph(2), Graph.build([]), antiflag_graph(2)]
    graphs += list(all_graphs(4)) + [random_graph(rng, 12) for _ in range(40)]
    for g in graphs:
        assert parse_graph(serialize_graph(g)) == g


def test_neighbors():
    k3 = complete_graph(3)
    assert k3.neighbors("1") == frozenset({"2", "3"})
    assert empty_graph(1).neighbors("1") == frozenset()
    p3 = path_graph(3)
    assert p3.neighbors("2") == frozenset({"1", "3"})
    with pytest.raises(ContractError):
        k3.neighbors("nope")


def test_index_view_matches_the_edges():
    rng = Random(29)
    graphs = [empty_graph(0), empty_graph(3)] + [random_graph(rng, 12) for _ in range(60)]
    for g in graphs:
        adj = edge_adjacency(g)
        assert g.neighbor_indices == tuple(tuple(sorted(row)) for row in adj)
        by_index = sorted((g.index[u], g.index[v]) for u, v in g.edges)
        assert g.sorted_edges() == [(g.vertices[i], g.vertices[j]) for i, j in by_index]
        for v, row in zip(g.vertices, adj):
            assert g.neighbors(v) == frozenset(g.vertices[j] for j in row)
            assert g.degree(v) == len(row)
        assert g.min_degree() == min(map(len, adj), default=0)


def test_one_greedy_pass_per_graph(monkeypatch):
    calls = []
    saturation = graph_module._saturation_coloring

    def counting(g, k):
        calls.append(k)
        return saturation(g, k)

    monkeypatch.setattr(graph_module, "_saturation_coloring", counting)
    g = cycle_graph(4)
    assert chromatic_number(g)[0] == 2
    for p in (2, 3, 5):
        assert span_chromatic_number(g, p)[0] == 2
    assert calls == [4]


def test_loop_rejected_at_build():
    with pytest.raises(ContractError):
        Graph.build(["a"], [("a", "a")])


def test_chromatic_small_cases():
    assert chromatic_number(complete_graph(3))[0] == 3
    assert chromatic_number(empty_graph(4))[0] == 1
    assert chromatic_number(cycle_graph(5))[0] == 3  # odd cycle needs 3
    assert chromatic_number(Graph.build([], []))[0] == 0


def test_chromatic_complete_graphs():
    for m in range(1, 7):
        assert chromatic_number(complete_graph(m))[0] == m


def test_chromatic_witness_is_the_deciding_coloring():
    for g in itertools.chain([cycle_graph(5), complete_graph(4), path_graph(4)], witness_graphs()):
        n, witness = chromatic_number(g)
        assert coloring_is_valid(g, witness)
        assert witness.colors_used() == n == oracle_chromatic(g)
    # chi = u: the greedy DSATUR pass is the witness
    for g, colors in ((cycle_graph(5), [1, 2, 1, 2, 3]), (path_graph(4), [2, 1, 2, 1])):
        _, w = chromatic_number(g)
        assert [w.assignment[v] for v in g.vertices] == colors
    # chi = 3 < u = 4 on census graph 4655: the 3-coloring the search found
    g = Graph.build(
        map(str, range(7)),
        [tuple(e.split("-")) for e in "0-3 0-4 0-6 1-2 1-3 1-5 2-5 2-6 3-4 3-6 4-5".split()],
    )
    assert max(_saturation_coloring(g, 7)) == 4
    chi, w = chromatic_number(g)
    assert chi == 3
    assert w.assignment == {"0": 2, "1": 3, "2": 1, "3": 1, "4": 3, "5": 2, "6": 3}


def test_chromatic_matches_oracle_on_random_graphs():
    rng = Random(7)
    for _ in range(60):
        g = random_graph(rng, 7)
        n, witness = chromatic_number(g)
        assert coloring_is_valid(g, witness)
        assert n == oracle_chromatic(g)


def test_no_smaller_coloring_exists():
    rng = Random(11)
    graphs = [complete_graph(4), cycle_graph(5), cycle_graph(7)]
    graphs += [random_graph(rng, 8) for _ in range(10)]
    for g in graphs:
        n, _ = chromatic_number(g)
        if n > 1:
            assert not oracle_colorable(g, n - 1)


def test_chromatic_exhaustive_four_vertices():
    for g in all_graphs(4):
        assert chromatic_number(g)[0] == oracle_chromatic(g)


def _label_neighbors(g: Graph) -> dict[str, set[str]]:
    return {v: {g.vertices[j] for j in row} for v, row in zip(g.vertices, edge_adjacency(g))}


def _greedy_dsatur(g):
    """One greedy pass, written out: the uncolored vertex with the most distinct
    neighbor colors, then the most neighbors, then the earliest, takes its
    least free color."""
    nbrs = _label_neighbors(g)
    colors = {}
    while len(colors) < len(g.vertices):
        def seen(v):
            return {colors[u] for u in nbrs[v] if u in colors}

        uncolored = [v for v in g.vertices if v not in colors]
        v = max(uncolored, key=lambda v: (len(seen(v)), len(nbrs[v]), -g.index[v]))
        colors[v] = next(c for c in itertools.count(1) if c not in seen(v))
    return [colors[v] for v in g.vertices]


def test_saturation_search_with_a_color_per_vertex_is_one_greedy_pass():
    # with k above the maximum degree the search never backtracks, so its
    # coloring is the greedy pass's, and its color count bounds chi
    rng = Random(17)
    graphs = list(all_graphs(5)) + [random_graph(rng, 9) for _ in range(40)]
    for g in graphs:
        colors = _saturation_coloring(g, len(g.vertices))
        assert colors == _greedy_dsatur(g), g
        if g.vertices:
            assert coloring_is_valid(g, Coloring(max(colors), dict(zip(g.vertices, colors))))
            assert max(colors) >= chromatic_number(g)[0]
    assert _saturation_coloring(cycle_graph(5), 2) is None


def test_chromatic_on_a_long_path():
    # the searches keep explicit stacks, so depth is not bounded by recursion
    g = path_graph(1500)
    n, witness = chromatic_number(g)
    assert n == 2
    assert coloring_is_valid(g, witness)


def _recursive_max_clique(g: Graph) -> tuple[str, ...]:
    """The branch and bound as first written, one call per clique member."""
    nbrs = _label_neighbors(g)
    order = sorted(g.vertices, key=lambda v: (-len(nbrs[v]), g.index[v]))
    best: list[str] = []

    def extend(clique: list[str], candidates: list[str]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        if len(clique) + len(candidates) <= len(best):
            return
        for i, v in enumerate(candidates):
            extend(clique + [v], [u for u in candidates[i + 1 :] if u in nbrs[v]])

    extend([], order)
    return tuple(best)


def test_max_clique_matches_the_recursive_search():
    rng = Random(41)
    graphs = list(all_graphs(5)) + [random_graph(rng, 12) for _ in range(60)]
    for g in graphs:
        assert max_clique(g) == _recursive_max_clique(g), g


def test_max_clique_on_a_1100_vertex_complete_graph():
    # one recursive call per member used to pass the default recursion limit
    g = complete_graph(1100)
    assert max_clique(g) == g.vertices


def test_kept_masks_match_the_neighbor_rows():
    # bit j of vertex v's stored mask is set iff j is in its derived neighbor
    # row, and bit v of the isolated mask iff that row is empty
    def masks_from_rows(g):
        rows = g.neighbor_indices
        masks = tuple(sum(1 << j for j in set(row)) for row in rows)
        return masks, sum(1 << v for v, row in enumerate(rows) if len(row) == 0)

    graphs = list(all_graphs(5)) + [Graph.build([], []), complete_graph(1100)]
    for g in graphs:
        assert (g.neighbor_masks, g.isolated_mask) == masks_from_rows(g), g.edges
        assert g.neighbor_masks is g.neighbor_masks
    assert graphs[-2].neighbor_masks == () and graphs[-2].isolated_mask == 0
    big = graphs[-1].neighbor_masks
    assert big[0] == (1 << 1100) - 2 and big[-1] == (1 << 1099) - 1
    assert {m.bit_count() for m in big} == {1099}


# -- the stored adjacency and its derived views ------------------------------


def _shuffled_edge_lists(rng: Random):
    """(labels, edges) of every graph on 5 vertices, the Fano antiflag graph,
    and seeded random graphs whose labels come in no sorted order and whose
    edges come shuffled, each oriented at random, a third of them twice."""
    yield from all_edge_lists(5)
    yield antiflag_edge_list(2)
    for _ in range(60):
        labels = [f"v{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(labels)
        pairs = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.4]
        edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]
        edges += rng.sample(edges, len(edges) // 3)
        rng.shuffle(edges)
        yield labels, edges


def test_derived_edges_match_the_eager_normalization():
    for labels, edges in _shuffled_edge_lists(Random(31)):
        g = Graph.build(labels, edges)
        assert "edges" not in g.__dict__
        assert g.edges == reference_edges(labels, edges), (labels, edges)
        assert g.edges is g.edges
        assert g.sorted_edges() == sorted(g.edges, key=lambda e: (g.index[e[0]], g.index[e[1]]))


def test_edge_order_orientation_and_duplicates_do_not_change_the_graph():
    rng = Random(37)
    for _ in range(80):
        labels = [str(i) for i in range(rng.randint(2, 10))]
        edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.5]
        g = Graph.build(labels, edges)
        same = [
            Graph.build(labels, edges[::-1]),
            Graph.build(labels, [(v, u) for u, v in edges]),
            Graph(tuple(labels), frozenset(edges) | {(v, u) for u, v in edges}),
            Graph(labels, rng.sample(edges * 2, 2 * len(edges))),
        ]
        for h in same:
            assert h == g and hash(h) == hash(g)
        assert len({g, *same}) == 1
        assert Graph.build(labels[::-1], edges) != g
        assert Graph.build(labels, edges[1:]) != g or not edges


def test_a_graph_survives_pickle_and_copy_and_refuses_assignment():
    rng = Random(43)
    graphs = [Graph.build([]), cycle_graph(5), antiflag_graph(2)] + [random_graph(rng, 9) for _ in range(10)]
    for g in graphs:
        for solved in (False, True):
            if solved:
                chromatic_number(g), span_chromatic_number(g, 2), g.edges
            for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
                assert twin == g and hash(twin) == hash(g)
                assert (twin.edges, twin.neighbor_indices) == (g.edges, g.neighbor_indices)
                assert chromatic_number(twin)[0] == chromatic_number(g)[0]
        for name in ("vertices", "neighbor_masks", "edges"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, ())


def test_no_query_builds_the_label_pairs():
    # chi, s_p-chi and the census realizability checks read the masks and the
    # index rows only; `edges` is built for readers outside the library
    for g in witness_graphs():
        assert coloring_is_valid(g, chromatic_number(g)[1])
        for p in (2, 3, 5):
            span_chromatic_number(g, p)
        for spec in CENSUS_SPECS:
            check_realizable(spec, g)
        assert "edges" not in g.__dict__, g


def test_a_parsed_graph_retains_under_half_the_bytes_of_its_label_pairs():
    # census-sized graphs: 6-12 vertices, edge probability 0.35; a Graph once
    # stored its label pairs, and they were most of its retained bytes
    rng = Random(53)
    pair_lists = []
    for _ in range(1000):
        n = rng.randint(6, 12)
        pair_lists.append([(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.35])
    texts = []
    for pairs in pair_lists:
        n = max((j for _, j in pairs), default=0) + 1
        texts.append("".join(f"v {i}\n" for i in range(n)) + "".join(f"e {i} {j}\n" for i, j in pairs))

    def retained(build):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            return kept, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    graphs, graph_bytes = retained(lambda: [parse_graph(text) for text in texts])
    label_pairs, pair_bytes = retained(
        lambda: [
            frozenset((g.vertices[i], g.vertices[j]) for i, j in pairs)
            for g, pairs in zip(graphs, pair_lists)
        ]
    )
    assert [g.edges for g in graphs] == label_pairs
    assert graph_bytes <= pair_bytes / 2, (graph_bytes, pair_bytes)


def test_induced_and_degree_match_the_label_pairs():
    for labels, edges in all_edge_lists(4):
        g = Graph.build(labels, edges)
        pairs = reference_edges(labels, edges)
        for v in labels:
            assert g.degree(v) == sum(v in e for e in pairs)
        for r in range(len(labels) + 1):
            for keep in itertools.combinations(labels, r):
                sub = g.induced(reversed(keep))
                kept_pairs = frozenset(e for e in pairs if set(e) <= set(keep))
                want = Graph.build([v for v in labels if v in keep], kept_pairs)
                assert sub == want and hash(sub) == hash(want), (edges, keep)
                assert sub.vertices == tuple(keep) and sub.edges == kept_pairs
    assert complete_graph(3).induced(["3", "1", "z"]) == Graph.build(["1", "3"], [("1", "3")])
    with pytest.raises(ContractError, match="unknown vertex 'z'"):
        complete_graph(3).degree("z")


def test_every_graph_that_builds_reads_back_from_its_file():
    # a label is one token of the file format, with none of the table and
    # block separators; \x1c and \u2028 are line breaks to `splitlines`
    rng = Random(59)
    alphabet = "ab1_-.\u00e9\u00b2" * 6 + "#*+^=, \t\x1c\u2028"
    for _ in range(500):
        words = ("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(1, 4)))
        labels = list(dict.fromkeys(words))
        bad = [w for w in labels if not w or any(ch.isspace() or ch in "#*+^=," for ch in w)]
        try:
            g = Graph.build(labels, list(itertools.combinations(labels, 2))[:3])
        except ContractError as exc:
            assert bad and str(exc).startswith(f"bad vertex label {bad[0]!r}: "), (labels, exc)
            continue
        assert not bad and parse_graph(serialize_graph(g)) == g, labels


def test_coloring_validity_checks():
    g = complete_graph(3)
    assert coloring_is_valid(g, Coloring(3, {"1": 1, "2": 2, "3": 3}))
    assert not coloring_is_valid(g, Coloring(3, {"1": 1, "2": 1, "3": 3}))
    assert not coloring_is_valid(g, Coloring(2, {"1": 1, "2": 2}))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Graph(("a", "a"), frozenset()), ContractError, "duplicate vertex labels"),
        (
            lambda: Graph(("a",), frozenset({("a", "z")})),
            ContractError,
            "edge ('a', 'z') references unknown vertex",
        ),
        (lambda: parse_graph("v a b\n"), GraphParseError, "line 1: expected `v <label>`"),
        (lambda: parse_graph("v a\ne a\n"), GraphParseError, "line 2: expected `e <label> <label>`"),
        (
            lambda: Graph.build("ab", [("a", "b", "c")]),
            ContractError,
            "edge ('a', 'b', 'c') is not a pair of vertices",
        ),
        (lambda: Graph(("a",), frozenset({("a",)})), ContractError, "edge ('a',) is not a pair of vertices"),
        (lambda: Graph.build(["a,b"], []), ContractError, "bad vertex label 'a,b': a label holds none of * + ^ = ,"),
        (lambda: Graph.build(["a#b", "c"], []), ContractError, "bad vertex label 'a#b': a label holds no #"),
        (
            lambda: Graph.build(["a", "a b"], []),
            ContractError,
            "bad vertex label 'a b': a label is a non-empty string with no whitespace",
        ),
        (
            lambda: Graph.build([""], []),
            ContractError,
            "bad vertex label '': a label is a non-empty string with no whitespace",
        ),
        (
            lambda: Graph((1, 2), frozenset({(1, 2)})),
            ContractError,
            "bad vertex label 1: a label is a non-empty string with no whitespace",
        ),
        (
            lambda: parse_graph("v a\nv a*b\n"),
            GraphParseError,
            "line 2: bad vertex label 'a*b': a label holds none of * + ^ = ,",
        ),
    ],
    ids=[
        "duplicate-vertex",
        "edge-to-unknown",
        "malformed-v",
        "malformed-e",
        "edge-of-three",
        "edge-of-one",
        "label-with-comma",
        "label-with-hash",
        "label-with-space",
        "empty-label",
        "label-not-a-string",
        "parsed-label-with-separator",
    ],
)
def test_graph_input_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
