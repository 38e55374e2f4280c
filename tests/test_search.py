"""The exhaustive action search: refutations, witnesses, caps, determinism."""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import all_graphs, complete_graph, cycle_graph, path_graph, reference_apply_power
import sr_chroma
import sr_chroma.search as search_module
from sr_chroma.algebra import FreePolynomialAlgebra, Monomial, parse_free_algebra
from sr_chroma.graph import Graph, parse_graph
from sr_chroma.errors import ContractError, GraphParseError, SearchSpaceExceeded
from sr_chroma.families import FamilySpec, build_complex
from sr_chroma.search import (
    DEFAULT_NODE_CAP,
    Constraint,
    EntryBlock,
    SearchOutcome,
    _CompileKernel,
    _Solver,
    _first_occurrences,
    _twin_swaps,
    compile_constraints,
    search_action,
    sign_masks,
    table_from_assignment,
    unknown_entry_blocks,
)
from sr_chroma.steenrod import (
    adem_relation,
    check_ideal_preservation,
    check_relations,
    check_table,
    check_unstability,
    default_degree_bound,
    default_relation_set,
    full_adem_relation_set,
    parse_table,
)


def test_compile_kernel_faces_match_face_ok():
    # the kernel's own face test (the union of two graph-support masks lies in
    # its face set) agrees with the ambient's one rule on every support of one
    # or two generators
    ambients = [FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8))), parse_free_algebra("a:2,b:4")]
    for n in range(5):
        for g in all_graphs(n):
            ambients.append(build_complex(FamilySpec("B", (1,)), g))
            ambients.append(build_complex(FamilySpec("Ap", (1, 1), 3), g))
    for amb in ambients:
        kernel = _CompileKernel(amb, 3, default_degree_bound(3), [])
        masks = [kernel.ymask[kernel.pack(amb.generator_monomial(lbl))] for lbl in amb.gen_labels]
        for i in range(amb.num_generators):
            for j in range(i, amb.num_generators):
                assert ((masks[i] | masks[j]) in kernel.faces) == amb.face_ok({i, j}), (amb, i, j)


def test_exhausted_z3_single_generator():
    amb = FreePolynomialAlgebra((("y", 8),))
    out = search_action(amb, 3)
    assert out.status == "exhausted"
    assert "P^1P^3 = P^4" in out.relativity()
    assert "degree bound 24" in out.relativity()


def test_search_without_generators():
    k = build_complex(FamilySpec("B", (0,)), Graph.build([]))
    out = search_action(k, 3)
    assert (out.status, out.variables, out.table.entries) == ("found", 0, {})


def test_exhausted_z3_three_generators():
    amb = FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8)))
    out = search_action(amb, 3)
    assert out.status == "exhausted"


def test_exhausted_z5_no_degree_four():
    # |x1| in {8,...,2p-2} = {8}, |y| = 2p+2 = 12 at p = 5
    amb = FreePolynomialAlgebra((("x1", 8), ("y", 12)))
    out = search_action(amb, 5)
    assert out.status == "exhausted"


def test_found_table_passes_all_checkers_independently():
    amb = FreePolynomialAlgebra((("x", 4),))
    out = search_action(amb, 3)
    assert out.found
    table = out.table
    assert check_relations(table).ok
    assert check_ideal_preservation(table).ok
    assert check_unstability(table).ok
    # P^1(x) = x^2 is the least solution in the fixed value order
    assert str(table.entries[("x", 1)]) == "1*x^2"


def test_search_is_deterministic():
    k = build_complex(FamilySpec("B", (2,)), cycle_graph(4))
    first = search_action(k, 3)
    second = search_action(k, 3)
    assert first.found and second.found
    assert first.table.serialize() == second.table.serialize()
    assert first.nodes == second.nodes


def test_found_on_complex_respects_ideals():
    k = build_complex(FamilySpec("B", (3,)), complete_graph(3))
    out = search_action(k, 3)
    assert out.found
    assert check_ideal_preservation(out.table).ok
    assert check_relations(out.table).ok


def test_node_cap_refusal_carries_estimate():
    amb = FreePolynomialAlgebra((("x", 4),))
    with pytest.raises(SearchSpaceExceeded) as exc:
        search_action(amb, 3, node_cap=1)
    assert exc.value.estimate == 3  # 3^1 coefficient tuples


def test_node_cap_deep_in_the_dfs():
    k = build_complex(FamilySpec("B", (2,)), complete_graph(3))
    for search, cap in ((search_action, 500), (_reference_search, 1000)):
        with pytest.raises(SearchSpaceExceeded) as exc:
            search(k, 3, node_cap=cap)
        assert str(exc.value).endswith(
            f"after exploring {cap + 1} branch nodes (full coefficient space 3^75)"
        )
        assert exc.value.estimate == 3**75
    out = search_action(k, 3)
    assert (out.status, out.nodes) == ("exhausted", 662)
    out = _reference_search(k, 3)
    assert (out.status, out.nodes) == ("exhausted", 24492)


def test_negative_node_cap_rejected():
    amb = FreePolynomialAlgebra((("x", 4),))
    for cap in (-5, -1):
        with pytest.raises(ContractError):
            search_action(amb, 3, node_cap=cap)
    with pytest.raises(SearchSpaceExceeded):  # zero is a budget, not an input error
        search_action(amb, 3, node_cap=0)


def test_negative_degree_bound_rejected():
    amb = FreePolynomialAlgebra((("x", 4),))
    with pytest.raises(ContractError, match="degree bound"):
        search_action(amb, 3, degree_bound=-1)


def test_even_prime_rejected():
    amb = FreePolynomialAlgebra((("x", 4),))
    with pytest.raises(ContractError):
        search_action(amb, 2)


def test_unknown_entries_respect_graph_ideal():
    k = build_complex(FamilySpec("B", (2,)), cycle_graph(4))
    blocks, _ = unknown_entry_blocks(k, 3)
    for block in blocks:
        if block.label.startswith("y_"):
            vertex = block.label[2:]
            y_idx = k.y_index(vertex)
            for m in block.basis:
                ys = [i for i in k.graph_generator_indices() if m.exps[i]]
                assert m.exps[y_idx] >= 1 or len(ys) >= 2


def test_full_adem_set_still_finds_hp_infinity_action():
    amb = FreePolynomialAlgebra((("x", 4),))
    rels = full_adem_relation_set(amb, 3, 24)
    assert len(rels) > 1
    out = search_action(amb, 3, relation_set=rels)
    assert out.found
    assert check_relations(out.table, rels).ok


def test_custom_relation_pair():
    amb = FreePolynomialAlgebra((("y", 8),))
    rel = adem_relation(1, 3, 3)
    out = search_action(amb, 3, relation_set=(rel,))
    assert out.status == "exhausted"
    assert out.relation_names == (rel.name,)


def test_every_entry_below_the_top_is_a_block():
    # on a generator of degree 2t, one block per k = 1..t-1, empty or not; an
    # empty block is a zero entry in the found table
    amb = parse_free_algebra("x:6")
    blocks, nvars = unknown_entry_blocks(amb, 3)
    assert (blocks, nvars) == ([EntryBlock("x", 1, (), 0), EntryBlock("x", 2, (), 0)], 0)
    out = search_action(amb, 3)
    assert out.table.serialize() == "P^1(x) = 0\nP^2(x) = 0\nP^3(x) = 1*x^3\n"
    for amb in (parse_free_algebra("x:4,y:8,z:2"), build_complex(FamilySpec("B", (2,)), cycle_graph(4))):
        blocks, nvars = unknown_entry_blocks(amb, 3)
        tops = zip(amb.gen_labels, (d // 2 for d in amb.gen_degrees))
        assert [(b.label, b.k) for b in blocks] == [(lbl, k) for lbl, top in tops for k in range(1, top)]
        sizes = [len(b.basis) for b in blocks]
        assert [b.offset for b in blocks] == [sum(sizes[:t]) for t in range(len(blocks))]
        assert nvars == sum(sizes)


_NAME_CHARS = "abxyXY019*+^=#()_-"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.text(_NAME_CHARS, max_size=3), st.sampled_from([2, 4, 8])), min_size=1, max_size=3
    )
)
def test_free_generator_names_round_trip(gens):
    """A name the free-algebra parser accepts reads back from a found table:
    the parser rejects exactly the empty names, the names holding a separator
    of the table format and the repeated names."""
    text = ",".join(f"{name}:{deg}" for name, deg in gens)
    names = [name for name, _ in gens]
    bad = any(not name or set(name) & set("*+^=#") for name in names) or len(set(names)) < len(names)
    try:
        amb = parse_free_algebra(text)
    except ContractError:
        assert bad, text
        return
    assert not bad, text
    out = search_action(amb, 3)
    if out.found:
        back = parse_table(out.table.serialize(), amb, 3)
        assert back.entries == out.table.entries, text


# half the labels hold a separator after their first character, so about one
# triangle in eight parses
_LABELS = st.tuples(
    st.text("ab01_-()", min_size=1, max_size=3),
    st.sampled_from(["", "", "", "", "", "*", "+", "^", "=", ","]),
).map(lambda ts: ts[0][:1] + ts[1] + ts[0][1:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_LABELS, min_size=3, max_size=3, unique=True))
def test_vertex_labels_round_trip(labels):
    """A triangle the graph parser accepts carries a found B(3) table that
    reads back and passes: the parser rejects exactly the labels holding a
    separator of the table format or of a partition block, naming the line."""
    text = "".join(f"v {v}\n" for v in labels) + "".join(
        f"e {labels[i]} {labels[j]}\n" for i, j in ((0, 1), (1, 2), (0, 2))
    )
    bad = [line for line, v in enumerate(labels, 1) if set(v) & set("*+^=,")]
    try:
        g = parse_graph(text)
    except GraphParseError as exc:
        assert bad and exc.line == bad[0], text
        return
    assert not bad, text
    ambient = build_complex(FamilySpec("B", (3,)), g)
    out = search_action(ambient, 3)
    assert out.found, text
    back = parse_table(out.table.serialize(), ambient, 3)
    assert back.entries == out.table.entries, text
    assert all(report.ok for report in check_table(back)), text


def test_generator_series_stops_at_the_degree_bound():
    """P^5(y) lands in degree 32, past the bound 30, and holds x^16, which the
    packed fields sized for that bound cannot; no instance within the bound
    reads it, so compile never builds it."""
    amb = FreePolynomialAlgebra((("x", 2), ("y", 12)))
    out = search_action(amb, 3, degree_bound=30)
    assert (out.status, out.nodes, out.variables) == ("found", 2, 13)


# -- oracle: exact search counters on the benchmark's 21 action instances ----
#
# A change to the solver that keeps the variable order, the propagation rule
# and the value order must leave (status, nodes, variables) and every found
# table unchanged. The table hashes are sha256 of `table.serialize()`. `nodes`
# counts the unpruned reference DFS, `pruned` the DFS with sign-symmetry
# pruning alone, and `swapped` the DFS that `search_action` runs, with the
# twin-swap nogoods on top; all three find the same tables.

K3_PLUS_K1 = Graph.build(
    complete_graph(3).vertices + ("4",), complete_graph(3).edges
)  # the isolated vertex last: first, B(2, .) explores 281,448 nodes

ORACLE = [
    # name, p, ambient factory, status, nodes, pruned, swapped, variables, table sha256
    ("B(2,C4)", 3, lambda: build_complex(FamilySpec("B", (2,)), cycle_graph(4)),
     "found", 41, 41, 40, 110, "0e5bd335464076d46e236a584d77c72303dc9fac753c4f2cfb2bb26e899436b3"),
    ("B(3,K3)", 3, lambda: build_complex(FamilySpec("B", (3,)), complete_graph(3)),
     "found", 36, 36, 36, 132, "fa90e3850562aee543cd3b295c25af598d20c9ed8bbc0321aa47edcb60f3998b"),
    ("B(3,C5)", 3, lambda: build_complex(FamilySpec("B", (3,)), cycle_graph(5)),
     "found", 64, 64, 64, 248, "c677d3385526034741ca796704bcf06011aeb850ea3b3e1fbd5fb7f28be1637e"),
    ("B(3,C6)", 3, lambda: build_complex(FamilySpec("B", (3,)), cycle_graph(6)),
     "found", 78, 78, 78, 318, "7c252e4338770a71cec93d2ec708b4c84238c9106fea3bc7adc7ec1795ff1e0f"),
    ("B(4,C4)", 3, lambda: build_complex(FamilySpec("B", (4,)), cycle_graph(4)),
     "found", 273, 156, 156, 292, "1792cb7099039dcd6a5f8747655643a21abd051c376459e384ee4cbea673a04c"),
    ("A_3(3,3),C4", 3, lambda: build_complex(FamilySpec("Ap", (3, 3), 3), cycle_graph(4)),
     "found", 65, 65, 65, 327, "32de395d4fd4914d697caecb80689771bf50d6a35b157dbc0e18e555d388d19a"),
    ("B_5(2,1),K2", 5, lambda: build_complex(FamilySpec("Bp", (2, 1), 5), complete_graph(2)),
     "found", 35, 35, 35, 561, "7348d659dcac0edc09cc32fd25370810577b511064c7d8e158d46ceb2be0b6a9"),
    ("B_5(2,2),K2", 5, lambda: build_complex(FamilySpec("Bp", (2, 2), 5), complete_graph(2)),
     "found", 68, 68, 67, 1180, "d61ca5836d7112c9b77abdbfab4b66d2853912cb1b3dacf33cc59ad60f6db6b0"),
    ("Z/5[x1:4,x2:8,y:12]", 5, lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y", 12))),
     "found", 10, 10, 10, 86, "51cf49145a0e1972199fb91a7b7d7dbee2b8def760ce152ba57252e8fb233895"),
    ("Z/7[x:4,y:16]", 7, lambda: FreePolynomialAlgebra((("x", 4), ("y", 16))),
     "found", 3, 3, 3, 34, "ccf1ddde6021a6cb836d9a6bf9c107eb355ba11a88143bd76fa83020b78a0f4a"),
    ("Z/3[y:8]", 3, lambda: FreePolynomialAlgebra((("y", 8),)),
     "exhausted", 0, 0, 0, 1, None),
    ("Z/3[x:4,y1:8,y2:8]", 3, lambda: FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8))),
     "exhausted", 3, 2, 2, 33, None),
    ("Z/5[x1:8,y:12]", 5, lambda: FreePolynomialAlgebra((("x1", 8), ("y", 12))),
     "exhausted", 0, 0, 0, 13, None),
    ("Z/5[x1:4,x2:8,y1:12,y2:12]", 5,
     lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 12), ("y2", 12))),
     "exhausted", 5, 3, 3, 285, None),
    ("Z/7[x1:4,x2:8,y1:16,y2:16]", 7,
     lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 16), ("y2", 16))),
     "exhausted", 7, 4, 4, 914, None),
    ("B(1,C4)", 3, lambda: build_complex(FamilySpec("B", (1,)), cycle_graph(4)),
     "exhausted", 15, 7, 7, 57, None),
    ("B(1,C5)", 3, lambda: build_complex(FamilySpec("B", (1,)), cycle_graph(5)),
     "exhausted", 15, 7, 7, 81, None),
    ("A_3(1,1),K2", 3, lambda: build_complex(FamilySpec("Ap", (1, 1), 3), complete_graph(2)),
     "exhausted", 15, 7, 7, 23, None),
    ("B_5(1,1),K2", 5, lambda: build_complex(FamilySpec("Bp", (1, 1), 5), complete_graph(2)),
     "exhausted", 5, 3, 3, 161, None),
    ("B(2,K3)", 3, lambda: build_complex(FamilySpec("B", (2,)), complete_graph(3)),
     "exhausted", 24492, 1230, 662, 75, None),
    ("B(2,K3+K1)", 3, lambda: build_complex(FamilySpec("B", (2,)), K3_PLUS_K1),
     "exhausted", 24732, 1260, 674, 98, None),
]


def _reference_search(
    ambient, p: int, node_cap: int = DEFAULT_NODE_CAP, signs: bool = False
) -> SearchOutcome:
    """`search_action` at the default relation set and degree bound, solved by
    the unpruned `_Solver` (built without sign masks or swaps), or with
    `signs` by the sign-pruned one (masks, no swaps)."""
    relations = default_relation_set(p)
    bound = default_degree_bound(p)
    blocks, nvars = unknown_entry_blocks(ambient, p)
    masks = sign_masks(ambient, blocks) if signs else None
    constraints = compile_constraints(ambient, p, relations, bound, blocks)
    solver = _Solver(p, nvars, constraints, node_cap, masks)
    assignment = solver.solve()
    names = tuple(r.name for r in relations)
    if assignment is None:
        return SearchOutcome("exhausted", None, names, bound, nvars, solver.nodes)
    table = table_from_assignment(ambient, p, blocks, assignment)
    return SearchOutcome("found", table, names, bound, nvars, solver.nodes)


def _sign_search(ambient, p: int, node_cap: int = DEFAULT_NODE_CAP) -> SearchOutcome:
    return _reference_search(ambient, p, node_cap, signs=True)


def _digest(table) -> str:
    return hashlib.sha256(table.serialize().encode()).hexdigest()


ORACLE_ARGS = "p, make, status, nodes, pruned, swapped, variables, digest"


@pytest.mark.parametrize(ORACLE_ARGS, [row[1:] for row in ORACLE], ids=[row[0] for row in ORACLE])
def test_search_counters_match_oracle(p, make, status, nodes, pruned, swapped, variables, digest):
    out = search_action(make(), p)
    assert (out.status, out.nodes, out.variables) == (status, swapped, variables)
    if digest is not None:
        assert _digest(out.table) == digest


@pytest.mark.parametrize(ORACLE_ARGS, [row[1:] for row in ORACLE], ids=[row[0] for row in ORACLE])
def test_sign_pruned_search_matches_oracle(p, make, status, nodes, pruned, swapped, variables, digest):
    out = _sign_search(make(), p)
    assert (out.status, out.nodes, out.variables) == (status, pruned, variables)
    if digest is not None:
        assert _digest(out.table) == digest


@pytest.mark.parametrize(ORACLE_ARGS, [row[1:] for row in ORACLE], ids=[row[0] for row in ORACLE])
def test_reference_search_matches_oracle(p, make, status, nodes, pruned, swapped, variables, digest):
    out = _reference_search(make(), p)
    assert (out.status, out.nodes, out.variables) == (status, nodes, variables)
    if digest is not None:
        assert _digest(out.table) == digest


def test_twin_swaps_refute_a3_21_on_k3():
    """A_3(2,1) over K3, about 23k nodes on the sign-pruned DFS, exhausts in
    8,730 with the twin swaps of K3 and of the degree-4 block."""
    k = build_complex(FamilySpec("Ap", (2, 1), 3), complete_graph(3))
    out = search_action(k, 3)
    assert (out.status, out.nodes, out.variables) == ("exhausted", 8730, 86)


# -- the premise of sign-symmetry pruning, and its equivalence ---------------
#
# The pruning is sound because every compiled constraint is sign-homogeneous:
# the XOR of the sign masks of a term's variables (repeated by exponent) is
# the same for every term, so a sign change of generators multiplies the
# whole constraint by one sign.


def _characters(poly, masks: list[int]) -> set[int]:
    chars = set()
    for key in poly.terms:
        char = 0
        for v in key:
            char ^= masks[v]
        chars.add(char)
    return chars


@pytest.mark.parametrize(
    "name, p, make", [row[:3] for row in ORACLE], ids=[row[0] for row in ORACLE]
)
def test_compiled_constraints_are_sign_homogeneous(name, p, make):
    ambient = make()
    blocks, nvars = unknown_entry_blocks(ambient, p)
    masks = sign_masks(ambient, blocks)
    assert len(masks) == nvars
    bound = default_degree_bound(p)
    relation_sets = [default_relation_set(p)]
    if p == 3:
        relation_sets.append(full_adem_relation_set(ambient, p, bound))
    for relations in relation_sets:
        for poly in compile_constraints(ambient, p, relations, bound, blocks):
            assert len(_characters(poly, masks)) == 1, poly.terms


def test_sign_masks_flip_the_entry_generator():
    # coefficient of m in P^k(g): bit i is the parity of m's exponent of i, flipped at g
    amb = FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8)))
    blocks, _ = unknown_entry_blocks(amb, 3)
    masks = sign_masks(amb, blocks)
    index = amb.label_index
    for block in blocks:
        for t, m in enumerate(block.basis):
            odd = {i for i, e in enumerate(m.exps) if e % 2} ^ {index[block.label]}
            assert masks[block.offset + t] == sum(1 << i for i in odd)


# -- the premise of twin-swap pruning -----------------------------------------
#
# A transposition of twin generators is a ring automorphism, so its variable
# map, (g, k, m) to (sg, k, sm), sends each entry's ideal-cut basis onto the
# basis of the swapped entry and the compiled constraint set onto itself. The
# map is built here from the generator pair, apart from `_twin_swaps`, whose
# maps must be exactly its moved part; the twins are read off the graph.


def _twins(ambient) -> list[tuple[int, int]]:
    """Generator pairs of one degree, both off the graph, or both vertices with
    the same neighbours apart from each other."""
    graph = getattr(ambient, "graph", None)
    vertex = {ambient.y_index(v): v for v in graph.vertices} if graph else {}
    out = []
    for i, j in itertools.combinations(range(ambient.num_generators), 2):
        if ambient.gen_degrees[i] != ambient.gen_degrees[j] or (i in vertex) != (j in vertex):
            continue
        if i in vertex:
            u, v = vertex[i], vertex[j]
            if graph.neighbors(u) - {v} != graph.neighbors(v) - {u}:
                continue
        out.append((i, j))
    return out


def _swap_map(ambient, blocks, i: int, j: int) -> dict[int, int] | None:
    """Each variable's image under the swap of generators i and j, or None
    when some entry's basis does not go onto the basis of the swapped entry."""
    def swap(exps):
        out = list(exps)
        out[i], out[j] = exps[j], exps[i]
        return tuple(out)

    sigma = {i: j, j: i}
    entries = {(ambient.label_index[b.label], b.k): b for b in blocks}
    image = {}
    for (g, k), block in entries.items():
        target = entries[(sigma.get(g, g), k)]
        where = {m.exps: target.offset + t for t, m in enumerate(target.basis)}
        if sorted(swap(m.exps) for m in block.basis) != sorted(where):
            return None
        for t, m in enumerate(block.basis):
            image[block.offset + t] = where[swap(m.exps)]
    return image


def _constraint_set(constraints, image: dict[int, int] | None = None) -> set[frozenset]:
    """The constraints as a set of term sets, each variable renamed by `image`."""
    out = set()
    for poly in constraints:
        terms = poly.terms.items()
        if image is not None:
            terms = ((tuple(sorted(image[v] for v in key)), c) for key, c in terms)
        out.add(frozenset(terms))
    return out


def _is_symmetry(compiled, image: dict[int, int] | None) -> bool:
    """Whether a variable map from `_swap_map` exists (every entry's basis
    goes onto the swapped entry's) and sends each compiled constraint list
    onto itself."""
    return image is not None and all(
        _constraint_set(constraints, image) == _constraint_set(constraints) for constraints in compiled
    )


def _check_twin_swaps(ambient, p: int, relation_sets) -> None:
    blocks, _ = unknown_entry_blocks(ambient, p)
    bound = default_degree_bound(p)
    compiled = [compile_constraints(ambient, p, rels, bound, blocks) for rels in relation_sets]
    want = []
    for i, j in _twins(ambient):
        image = _swap_map(ambient, blocks, i, j)
        assert _is_symmetry(compiled, image), (i, j)
        moved = {u: v for u, v in image.items() if u != v}
        if moved:
            want.append(moved)
    assert _twin_swaps(ambient, blocks) == want


@pytest.mark.parametrize(
    "p, make, variables", [row[1:3] + row[7:8] for row in ORACLE], ids=[row[0] for row in ORACLE]
)
def test_twin_swaps_preserve_bases_and_constraints(p, make, variables):
    """The full Adem set too at p = 3 up to 150 variables; above that its
    compile holds up to 10^6 terms, renamed once per swap."""
    ambient = make()
    relation_sets = [default_relation_set(p)]
    if p == 3 and variables <= 150:
        relation_sets.append(full_adem_relation_set(ambient, p, default_degree_bound(p)))
    _check_twin_swaps(ambient, p, relation_sets)


def test_a_swap_of_non_twins_fails_the_check():
    """On the path 1-2-3 the ends are twins and the middle is not. Swapping
    an end with the middle sends the edge monomial y_2*y_3 of an entry's
    basis to y_1*y_3, which is no face."""
    k = build_complex(FamilySpec("B", (2,)), path_graph(3))
    y1, y2, y3 = (k.y_index(v) for v in "123")
    assert _twins(k) == [(0, 1), (y1, y3)]
    blocks, _ = unknown_entry_blocks(k, 3)
    compiled = [_compile(k, 3)]
    assert _is_symmetry(compiled, _swap_map(k, blocks, y1, y3))
    assert not _is_symmetry(compiled, _swap_map(k, blocks, y1, y2))
    _check_twin_swaps(k, 3, [default_relation_set(3)])


IMAGE_INSTANCES = [
    row for row in ORACLE if row[0] in ("B(2,K3)", "B(2,C4)", "B(4,C4)", "Z/5[x1:4,x2:8,y1:12,y2:12]")
]


@pytest.mark.parametrize(
    "p, make", [row[1:3] for row in IMAGE_INSTANCES], ids=[row[0] for row in IMAGE_INSTANCES]
)
def test_swap_images_match_full_maps(p, make):
    """`_Solver._images` against the full maps of `_swap_map`. Each swap map
    is a fixed-point-free involution. On partial assignments that a swap
    fixes (one value, or none, per orbit {u, su}) and on copies with one
    orbit told apart, every unassigned variable gets the images of the swaps
    whose full map fixes the assignment and moves it, in `_twins` order, each
    with multiplier 1."""
    ambient = make()
    blocks, nvars = unknown_entry_blocks(ambient, p)
    maps = [_swap_map(ambient, blocks, i, j) for i, j in _twins(ambient)]
    solver = _Solver(p, nvars, [], DEFAULT_NODE_CAP, swaps=_twin_swaps(ambient, blocks))
    assert solver.swaps
    for perm in solver.swaps:
        assert all(perm[perm[u]] == u != perm[u] for u in perm)
    rng = Random(nvars)
    values = [None, *range(p)]
    for full in maps:
        moved = sorted(u for u in full if full[u] != u)
        for _ in range(3):
            fixed = [rng.choice((None, rng.randrange(p))) for _ in range(nvars)]
            for u in moved:
                if u < full[u]:
                    fixed[full[u]] = fixed[u]
            cases = [fixed]
            if moved:
                u = rng.choice(moved)
                told_apart = list(fixed)
                told_apart[u] = rng.choice([c for c in values if c != fixed[full[u]]])
                cases.append(told_apart)
            for assign in cases:
                solver.assign = assign
                fixing = [m for m in maps if all(assign[u] == assign[v] for u, v in m.items())]
                assert (full in fixing) == (assign is fixed)
                for var in range(nvars):
                    if assign[var] is None:
                        want = [(m[var], 1) for m in fixing if m[var] != var]
                        assert solver._images(var) == want, var


SIGN_INSTANCES = [row for row in ORACLE if row[0] in ("B(2,C4)", "A_3(1,1),K2", "Z/3[x:4,y1:8,y2:8]")]


@pytest.mark.parametrize(
    "p, make", [row[1:3] for row in SIGN_INSTANCES], ids=[row[0] for row in SIGN_INSTANCES]
)
def test_sign_images_match_brute_force(p, make):
    """Without swaps, `_Solver._images(var)` is [(var, -1)] exactly when some
    a in GF(2)^n, enumerated, has <a, d_i> = 0 for every variable i assigned
    a nonzero value and <a, d_var> = 1: a sign change that fixes the
    assignment and negates var. Otherwise it is empty. Each instance has at
    most 6 generators; the partial assignments are seeded, and some assign
    nothing."""
    ambient = make()
    n = ambient.num_generators
    assert n <= 6
    blocks, nvars = unknown_entry_blocks(ambient, p)
    masks = sign_masks(ambient, blocks)
    solver = _Solver(p, nvars, [], DEFAULT_NODE_CAP, masks)

    def dot(a: int, d: int) -> int:
        return bin(a & d).count("1") & 1

    rng = Random(nvars)
    negated = kept = 0
    for density in (0.0, 0.05, 0.2, 0.5):
        for _ in range(4):
            assign = [rng.randrange(p) if rng.random() < density else None for _ in range(nvars)]
            solver.assign = assign
            nonzero = [masks[i] for i, v in enumerate(assign) if v]
            for var in range(nvars):
                if assign[var] is not None:
                    continue
                want = any(
                    dot(a, masks[var]) and not any(dot(a, d) for d in nonzero) for a in range(1 << n)
                )
                assert solver._images(var) == ([(var, -1)] if want else []), (assign, var)
                negated += want
                kept += not want
    assert negated and kept


@pytest.mark.parametrize("name", ["Z/3[x:4,y1:8,y2:8]", "A_3(1,1),K2", "B(1,C4)", "B_5(1,1),K2"])
def test_an_exhausted_search_lifts_every_nogood(name):
    """After an exhausted `solve()`, unpruned, sign-pruned or with the swaps
    too, no value is forbidden: every frame lifted its nogoods as it popped,
    the -c it forbade its own variable included."""
    _, p, make = next(row[:3] for row in ORACLE if row[0] == name)
    ambient = make()
    blocks, nvars = unknown_entry_blocks(ambient, p)
    constraints = _compile(ambient, p)
    masks = sign_masks(ambient, blocks)
    for pruning in ((), (masks,), (masks, _twin_swaps(ambient, blocks))):
        solver = _Solver(p, nvars, constraints, DEFAULT_NODE_CAP, *pruning)
        assert solver.solve() is None
        assert solver.nodes and solver.forbidden == [0] * nvars


@st.composite
def _twin_graphs(draw):
    """K_n, K_n plus isolated vertices, or K_{m,n}: graphs rich in twins."""
    kind = draw(st.sampled_from(["complete", "isolated", "bipartite"]))
    if kind == "complete":
        return complete_graph(draw(st.integers(1, 4)))
    if kind == "isolated":
        clique = complete_graph(draw(st.integers(1, 3)))
        extra = [f"i{t}" for t in range(draw(st.integers(1, 2)))]
        return Graph.build(clique.vertices + tuple(extra), clique.edges)
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    left, right = [f"a{t}" for t in range(m)], [f"b{t}" for t in range(n)]
    return Graph.build(left + right, [(a, b) for a in left for b in right])


_twin_free_algebras = st.sampled_from([3, 5]).flatmap(
    lambda p: st.lists(st.sampled_from([4, 8, 2 * p + 2]), min_size=2, max_size=3).map(
        lambda degrees: (
            FreePolynomialAlgebra(tuple((f"x{i}", d) for i, d in enumerate(degrees))),
            p,
        )
    )
)


DIFFERENTIAL_CAP = 3000

_family_specs = st.one_of(
    st.integers(1, 3).map(lambda n: FamilySpec("B", (n,))),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda s: FamilySpec("Ap", s, 3)),
    st.tuples(st.integers(0, 1), st.integers(0, 1)).map(lambda r: FamilySpec("Bp", r, 5)),
)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 4))
    labels = [str(i + 1) for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(labels, [e for e, k in zip(pairs, keep) if k])


_join_complexes = st.tuples(_family_specs, st.one_of(_small_graphs(), _twin_graphs())).map(
    lambda sg: (build_complex(*sg), sg[0].p or 3)
)
_free_algebras = st.sampled_from([3, 5]).flatmap(
    lambda p: st.lists(st.sampled_from([2, 4, 6, 8, 2 * p + 2]), min_size=1, max_size=3).map(
        lambda degrees: (
            FreePolynomialAlgebra(tuple((f"x{i}", d) for i, d in enumerate(degrees))),
            p,
        )
    )
)


def _capped(search, ambient, p):
    try:
        return search(ambient, p, node_cap=DIFFERENTIAL_CAP)
    except SearchSpaceExceeded:
        return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(_join_complexes, _free_algebras, _twin_free_algebras))
def test_pruned_search_agrees_with_reference(instance):
    """Swap-pruned, sign-pruned and unpruned: the same status, relativity and
    table, in nodes that never rise down that list. A run past the budget
    leaves the runs before it only the node bound, so the runs within it are
    a leading part of the list."""
    ambient, p = instance
    outcomes = [_capped(s, ambient, p) for s in (search_action, _sign_search, _reference_search)]
    done = [out for out in outcomes if out is not None]
    assert None not in outcomes[: len(done)]
    assert [out.nodes for out in done] == sorted(out.nodes for out in done)
    for out in done[1:]:
        assert (out.status, out.variables) == (done[0].status, done[0].variables)
        if out.found:
            assert out.table.serialize() == done[0].table.serialize()
        else:
            assert out.relativity() == done[0].relativity()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(_family_specs, _twin_graphs()).map(lambda sg: (build_complex(*sg), sg[0].p or 3)),
        _twin_free_algebras,
    )
)
def test_twin_swaps_preserve_bases_and_constraints_on_twin_rich_rings(instance):
    ambient, p = instance
    _check_twin_swaps(ambient, p, [default_relation_set(p)])


# -- oracle: the compiled constraint list, in content and order --------------
#
# The DFS breaks ties by constraint index, so compile must keep the order as
# well as the content. Digests are sha256 of the repr of each constraint's
# sorted (key, coefficient) items, with every key written as its sorted
# (variable, exponent) pairs, at the default degree bound, plus three free
# algebras at high bounds whose exponents (up to 50 of x:2, 30 of x:2 next to
# y:4, 25 of x:4) exercise the packed-exponent width.

COMPILE_ORACLE = {
    "B(2,C4)": "7c34e6c681a89b8dc1b6669aaac7753e2534cbc090aa2d4a7ddf159e33b09dbe",
    "B(3,K3)": "bad9522231d76f77350613282d37802ce50f4928002a07dd5d4972bcb12b6b6d",
    "B(3,C5)": "6988ca1ea61ff552b7333ee1d9ca9c0068ed5978372ffc56750ed7128c77c5e4",
    "B(3,C6)": "104ba95f8d56fadfefae19d245992d188bd3609d9f5c12b66710e210edbf15e4",
    "B(4,C4)": "a5eb1072b25b8fcf4d3b7fc6eac056fd24ff514025b45cfeb1b286b97c177e9c",
    "A_3(3,3),C4": "11e50ba4ed23390d966bda5afbd82557e4266fb8f802b70da017af6c6b87d428",
    "B_5(2,1),K2": "e2b30bc55694ee736a46a9599487fbce2e4384225e951e1f02ec11e235311ae0",
    "B_5(2,2),K2": "eff86bcbb326f478d627dba48e57ac18f923e6a8a5d110c3ce63d3d01418a498",
    "Z/5[x1:4,x2:8,y:12]": "564b8b2a38ae6474c35cf7853d30630dc3d11d68d11acc97e8a27d1bce41a445",
    "Z/7[x:4,y:16]": "a99c160a17d6abb7512dd296cc2629fc3cd9705508b1239ff6050dc87e86a928",
    "Z/3[y:8]": "fa4f8cc7d7fbaba7beadb58b45a0f1f2833acbfde86fa981949287dc93e2aace",
    "Z/3[x:4,y1:8,y2:8]": "fd72ced09a1ee3f49e9e3c425bdda5702d19d93dd81eb3aa937e023a82af57df",
    "Z/5[x1:8,y:12]": "517cf94dbf5a3e44a5587bc289f68c8a762aff36659fd6b0da11d0d9e8d2d44e",
    "Z/5[x1:4,x2:8,y1:12,y2:12]": "229be767718eb32c576fddd7f29a3149281f6595ad91cbc0b4ae19e1a56b0189",
    "Z/7[x1:4,x2:8,y1:16,y2:16]": "3f3dd2f2f5394fae5a1f6d3ee5ffc46e4f52a4d4719306541144d8f85a1aa5ba",
    "B(1,C4)": "094b569abf0e3f25857dc0ec7749e73f59b3c5e81b1342b7dd3649e12afadffa",
    "B(1,C5)": "627f912ca0c5ccaa7a978a33d3372f099ca02f25863301a1142cadb5177ad289",
    "A_3(1,1),K2": "1124268dfc9938ea5b26bdd1608db8cede73eb996a4c8af33a4a5f804032a208",
    "B_5(1,1),K2": "2a632608704527a7b5bf8eea060b26c1a1239e12b7b3b9de9c34f6fad0e10da1",
    "B(2,K3)": "536ca8590d0d5a90ba26e4b5b75f6b865e7c9575a45248e6bd8b63aae727b707",
    "B(2,K3+K1)": "b84b00f39da69a28df2ceae78564946582e7b59f7891647a1d44a8466aa8f2af",
    "Z/3[x:2]@100": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "Z/3[x:2,y:4]@60": "872d072a16a58d6668e73e37e564de4c594e8210a1b2a0cadd56b2a74f6f850d",
    "Z/3[x:4]@100": "08f73d4fb74beb048f7fcf54a23c86b3bf966e65025cc3a37ab3da293adbd0f6",
}

COMPILE_INSTANCES = [(row[0], row[1], row[2], None) for row in ORACLE] + [
    ("Z/3[x:2]@100", 3, lambda: FreePolynomialAlgebra((("x", 2),)), 100),
    ("Z/3[x:2,y:4]@60", 3, lambda: FreePolynomialAlgebra((("x", 2), ("y", 4))), 60),
    ("Z/3[x:4]@100", 3, lambda: FreePolynomialAlgebra((("x", 4),)), 100),
]


def _compile(ambient, p, bound=None):
    """The default relation set compiled over the search's unknown entries."""
    bound = default_degree_bound(p) if bound is None else bound
    blocks, _ = unknown_entry_blocks(ambient, p)
    return compile_constraints(ambient, p, default_relation_set(p), bound, blocks)


@pytest.mark.parametrize(
    "name, p, make, bound", COMPILE_INSTANCES, ids=[row[0] for row in COMPILE_INSTANCES]
)
def test_compiled_constraints_match_oracle(name, p, make, bound):
    keys = [
        tuple(sorted((_as_pairs(key), c) for key, c in poly.terms.items()))
        for poly in _compile(make(), p, bound)
    ]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == COMPILE_ORACLE[name]


def _as_pairs(key: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(0, 0, 3) -> ((0, 2), (3, 1))"""
    return tuple((v, key.count(v)) for v in sorted(set(key)))


@pytest.mark.parametrize(
    "name, p, make, bound", COMPILE_INSTANCES, ids=[row[0] for row in COMPILE_INSTANCES]
)
def test_compile_emits_the_solver_format(name, p, make, bound):
    """Keys are variable indices repeated by exponent in ascending order, and
    the solver starts from the compiled terms as they are."""
    ambient = make()
    _, nvars = unknown_entry_blocks(ambient, p)
    constraints = _compile(ambient, p, bound)
    for poly in constraints:
        for key, c in poly.terms.items():
            assert all(type(v) is int and 0 <= v < nvars for v in key), key
            assert list(key) == sorted(key), key
            assert 1 <= c < p, (key, c)
    distinct = {tuple(sorted(poly.terms.items())) for poly in constraints}
    assert len(distinct) == len(constraints)
    solver = _Solver(p, nvars, constraints, 0)
    assert solver.residuals == [poly.terms for poly in constraints]


@pytest.mark.parametrize(
    "name, p, make, bound", COMPILE_INSTANCES, ids=[row[0] for row in COMPILE_INSTANCES]
)
def test_shared_p1_coefficients_stay_as_shared(monkeypatch, name, p, make, bound):
    """Compile shares the one-key coefficients of its P^1 images, one dict per
    (key, coefficient), and only reads them: after a whole compile each still
    holds exactly the term it was shared under, and no compiled constraint is
    one of them."""
    kernels = []

    class Recorded(_CompileKernel):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    monkeypatch.setattr(search_module, "_CompileKernel", Recorded)
    constraints = _compile(make(), p, bound)
    (kernel,) = kernels
    for (key, c), coeff in kernel.shared.items():
        assert coeff == {key: c}
    for image in kernel.p1_cache.values():
        for coeff in image.values():
            if len(coeff) == 1:
                assert coeff is kernel.shared[next(iter(coeff.items()))]
    shared = {id(coeff) for coeff in kernel.shared.values()}
    assert not any(id(poly.terms) in shared for poly in constraints)


def test_first_occurrences_keeps_the_first_of_equal_dicts():
    """Dicts equal whatever order their keys went in are one constraint, the
    first one, uncopied; zeros go, and the survivors keep their order."""
    first = {(0,): 1, (1, 2): 2}
    again = {(1, 2): 2, (0,): 1}
    other = {(0,): 2, (1, 2): 2}
    last = {(): 1}
    kept = _first_occurrences([first, {}, other, again, last, dict(other)])
    assert kept == [first, other, last]
    assert [id(poly) for poly in kept] == [id(first), id(other), id(last)]


# -- the kernel's P^1: the derivation against the prefix fold and the reference
#
# The kernel applies P^1 by the derivation rule and builds P^k, k >= 2, by the
# left fold over a monomial's factors. The fold run at degree 1 must give the
# same monomials in the same order (constraint order feeds the DFS tie-break),
# with the same coefficients; on a random table, both must agree with the dense
# reference of `tests/helpers.py`.

def _fold_p1(kernel, mono: int) -> dict:
    """Degree 1 of the left fold over mono's factors in generator order."""
    w = kernel.width
    series = [{0: {(): 1}}, {}]
    for gi in range(kernel.ambient.num_generators):
        for _ in range((mono >> (w * gi)) & ((1 << w) - 1)):
            longer: list[dict] = []
            kernel._extend(longer, series, kernel._generator_series(gi), 1)
            series = longer
    return series[1]


def _unpack(kernel, mono: int) -> Monomial:
    w = kernel.width
    return Monomial(tuple(
        (mono >> (w * i)) & ((1 << w) - 1) for i in range(kernel.ambient.num_generators)
    ))


# a join complex per prime, with graph generators in degree 2p + 2
P1_FAMILIES = {
    3: [FamilySpec("B", (1,)), FamilySpec("B", (2,))],
    5: [FamilySpec("Bp", (1, 1), 5)],
    7: [FamilySpec("Ap", (1, 0, 0, 0, 0, 1), 7)],
}


@st.composite
def _p1_instances(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    # square-free monomials are the ones a cut bound reaches
    powers = st.sampled_from([0, 1] if draw(st.booleans()) else [0, 1, 2, p - 1, p, p + 1, 2 * p])
    if draw(st.booleans()):
        degrees = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=1, max_size=3))
        ambient = FreePolynomialAlgebra(tuple((f"x{i}", d) for i, d in enumerate(degrees)))
        exps = [draw(powers) for _ in degrees]
    else:
        n = draw(st.integers(1, 4))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph.build([str(v) for v in range(n)], [(str(a), str(b)) for a, b in edges])
        ambient = build_complex(draw(st.sampled_from(P1_FAMILIES[p])), graph)
        ys = ambient.graph_generator_indices()
        # the monomial's graph support is a face: an edge, one vertex or empty
        if edges and draw(st.booleans()):
            face = tuple(ys[v] for v in draw(st.sampled_from(edges)))
        else:
            face = draw(st.sampled_from([()] + [(ys[v],) for v in range(n)]))
        exps = [draw(powers) if i in face or i not in ys else 0 for i in range(ambient.num_generators)]
    mono = Monomial(tuple(exps))
    degree = ambient.degree_of(mono) + 2 * (p - 1)  # of P^1(mono)
    if draw(st.booleans()):
        # a bound below P^1(mono)'s degree cuts the P^1 entry of every
        # generator of degree above bound - 2(p - 1), among them the factor of
        # a monomial of one factor
        bound = max(1, degree - draw(st.integers(1, 2 * (p - 1))))
    else:
        bound = degree + draw(st.integers(0, 4))
    return p, ambient, mono, bound, draw(st.integers(0, 2**32))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_p1_instances())
def test_p1_derivation_matches_the_fold_and_the_reference(instance):
    p, ambient, mono, bound, seed = instance
    blocks, nvars = unknown_entry_blocks(ambient, p)
    kernel = _CompileKernel(ambient, p, bound, blocks)
    degree = ambient.degree_of(mono) + 2 * (p - 1)
    # every exponent of P^1(mono) fits the packed fields sized for the bound
    assume(degree // min(ambient.gen_degrees) < 1 << kernel.width)
    packed = kernel.pack(mono)
    got = kernel._p1(packed)
    want = _fold_p1(kernel, packed)
    assert [(m, list(c.items())) for m, c in got.items()] == [
        (m, list(c.items())) for m, c in want.items()
    ]
    if degree > bound:
        return  # the reference knows no bound
    rng = Random(seed)
    assignment = [rng.randrange(p) for _ in range(nvars)]
    table = table_from_assignment(ambient, p, blocks, assignment)
    assert _evaluate(kernel, got, assignment, p) == reference_apply_power(table, {mono: 1}, 1, {})
    # P^2 by the fold, which reads P^1 of each prefix, on a kernel that has
    # seen none of mono's prefixes
    fresh = _CompileKernel(ambient, p, degree + 2 * (p - 1), blocks)
    image = fresh.power({fresh.pack(mono): {(): 1}}, 2)
    assert _evaluate(fresh, image, assignment, p) == reference_apply_power(table, {mono: 1}, 2, {})


def _evaluate(kernel, image: dict, assignment: list[int], p: int) -> dict[Monomial, int]:
    """A kernel image at a table's coefficients, as the reference writes it."""
    out = {}
    for m, coeff in image.items():
        v = sum(c * math.prod(assignment[x] for x in key) for key, c in coeff.items()) % p
        if v:
            out[_unpack(kernel, m)] = v
    return out


# -- the solver kernel on systems compile never emits -------------------------
#
# Every compiled constraint of the oracle instances has degree <= 2, so the
# kernel's cubic terms and repeated variables are checked here on random F_p
# systems, against brute force over F_p^n.


@st.composite
def _fp_systems(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 4))
    keys = st.lists(st.integers(0, n - 1), max_size=3).map(lambda vs: tuple(sorted(vs)))
    polys = st.dictionaries(keys, st.integers(1, p - 1), max_size=5)
    return p, n, [Constraint(terms) for terms in draw(st.lists(polys, min_size=1, max_size=5))]


def _kernel_state(solver):
    return solver.residuals, solver.live


def _occurrences(terms) -> dict[int, int]:
    occ: dict[int, int] = {}
    for key in terms:
        for v in key:
            occ[v] = occ.get(v, 0) + 1
    return occ


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fp_systems(), st.lists(st.floats(0, 1), max_size=4))
def test_solver_kernel_agrees_with_brute_force(system, cuts):
    p, n, constraints = system
    solver = _Solver(p, n, constraints, DEFAULT_NODE_CAP)
    found = solver.solve()
    roots = [
        a for a in itertools.product(range(p), repeat=n)
        if all(_vanishes(poly, a, p) for poly in constraints)
    ]
    if found is None:
        assert roots == []
    else:
        assert all(_vanishes(poly, found, p) for poly in constraints)
    # undoing the trail in steps keeps `live` the occurrence index of every
    # residual at each mark on the way back
    for mark in sorted((int(cut * len(solver.trail)) for cut in cuts), reverse=True):
        solver._undo(mark)
        assert solver.live == [_occurrences(res) for res in solver.residuals]
    solver._undo(0)
    assert _kernel_state(solver) == _kernel_state(_Solver(p, n, constraints, DEFAULT_NODE_CAP))
    assert solver.assign == [None] * n


@pytest.mark.parametrize("p", [3, 5, 7])
def test_classify_finds_roots_in_one_variable(p):
    """A residual in one variable of degree <= 3 is a conflict exactly when
    it has no root in F_p, and queues its root exactly when that is unique."""
    for coeffs in itertools.product(range(p), repeat=4):
        if not any(coeffs[1:]):
            continue
        terms = {(0,) * e: c for e, c in enumerate(coeffs) if c}
        roots = [x for x in range(p) if sum(c * x**e for e, c in enumerate(coeffs)) % p == 0]
        queue = []
        assert _Solver(p, 1, [Constraint(terms)], 0)._classify(0, queue) == bool(roots), terms
        assert queue == ([(0, roots[0])] if len(roots) == 1 else []), terms


@pytest.mark.parametrize("name", ["B(2,C4)", "B_5(2,1),K2"])
def test_solver_leaves_compiled_constraints_alone(name):
    """The solver keeps its own residuals; the compiled terms, which the
    tracer counts and `test_compile_emits_the_solver_format` reads, stay as
    compiled."""
    _, p, make = next(row[:3] for row in ORACLE if row[0] == name)
    ambient = make()
    blocks, nvars = unknown_entry_blocks(ambient, p)
    constraints = _compile(ambient, p)
    snapshot = [dict(poly.terms) for poly in constraints]
    masks = sign_masks(ambient, blocks)
    for pruning in ((), (masks,), (masks, _twin_swaps(ambient, blocks))):
        assert _Solver(p, nvars, constraints, DEFAULT_NODE_CAP, *pruning).solve() is not None
        assert [dict(poly.terms) for poly in constraints] == snapshot


@pytest.mark.parametrize("name", ["B_5(2,1),K2", "B(2,K3)"])
def test_no_compiled_constraint_outlives_the_solver_copy(monkeypatch, name):
    """`search_action` lets the compiled constraints go once the solver has
    copied them: inside the DFS, a found and an exhausted search alike, no
    more `Constraint` objects are alive than before the search began."""
    _, p, make = next(row[:3] for row in ORACLE if row[0] == name)
    ambient = make()

    def live_constraints() -> int:
        gc.collect()
        return sum(type(obj) is Constraint for obj in gc.get_objects())

    inside = []
    dfs = _Solver._dfs

    def counted(self):
        inside.append(live_constraints())
        return dfs(self)

    monkeypatch.setattr(_Solver, "_dfs", counted)
    before = live_constraints()
    search_action(ambient, p)
    assert inside == [before]


# -- compile against the independent verifier --------------------------------
#
# A table passes check_relations exactly when every compiled constraint
# vanishes at its coefficients. Checked on the found table, on 15 tables that
# differ from it in one coefficient, and on 5 random tables per instance.
# B_5(2,2) and the two 24k-node exhaustions are left out for time.

CROSS_CHECKED = [
    row for row in ORACLE if row[0] not in ("B_5(2,2),K2", "B(2,K3)", "B(2,K3+K1)")
]


def _vanishes(poly, assignment, p) -> bool:
    total = 0
    for key, c in poly.terms.items():
        for v in key:
            c *= assignment[v]
        total += c
    return total % p == 0


@pytest.mark.parametrize(
    "name, p, make, status", [row[:4] for row in CROSS_CHECKED], ids=[row[0] for row in CROSS_CHECKED]
)
def test_compile_agrees_with_check_relations(name, p, make, status):
    ambient = make()
    blocks, nvars = unknown_entry_blocks(ambient, p)
    constraints = _compile(ambient, p)
    rng = Random(name)
    tables = [[rng.randrange(p) for _ in range(nvars)] for _ in range(5)]
    if status == "found":
        found = search_action(ambient, p).table
        assignment = [0] * nvars
        for b in blocks:
            entry = found.entries[(b.label, b.k)]
            for t, m in enumerate(b.basis):
                assignment[b.offset + t] = entry.terms_dict().get(m, 0)
        assert all(_vanishes(poly, assignment, p) for poly in constraints)
        tables.append(assignment)
        for _ in range(15):
            changed = list(assignment)
            v = rng.randrange(nvars)
            changed[v] = (changed[v] + rng.randrange(1, p)) % p
            tables.append(changed)
    for assignment in tables:
        table = table_from_assignment(ambient, p, blocks, assignment)
        compiled_ok = all(_vanishes(poly, assignment, p) for poly in constraints)
        assert compiled_ok == check_relations(table).ok


# -- self-checks under python -O ------------------------------------------------

SELF_CHECKS = """
from sr_chroma.algebra import FreePolynomialAlgebra, Monomial
from sr_chroma.search import _CompileKernel

def raises(name, fn):
    try:
        fn()
    except AssertionError:
        print(name)

x = FreePolynomialAlgebra((("x", 2),))
raises("pack", lambda: _CompileKernel(x, 3, 8, []).pack(Monomial((8,))))
"""


def test_self_checks_survive_python_O():
    """The solver-consistency checks raise AssertionError under -O, which strips asserts."""
    src = str(Path(sr_chroma.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECKS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pack"]
