"""The exhaustive action search: refutations, witnesses, caps, determinism."""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_graphs, complete_graph, cycle_graph
import sr_chroma
from sr_chroma.algebra import FreePolynomialAlgebra, parse_free_algebra
from sr_chroma.graph import Graph
from sr_chroma.errors import ContractError, SearchSpaceExceeded
from sr_chroma.families import FamilySpec, build_complex
from sr_chroma.search import (
    DEFAULT_NODE_CAP,
    Constraint,
    SearchOutcome,
    _CompileKernel,
    _Solver,
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
    check_unstability,
    default_degree_bound,
    default_relation_set,
    full_adem_relation_set,
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
    for search in (search_action, _reference_search):
        with pytest.raises(SearchSpaceExceeded) as exc:
            search(k, 3, node_cap=1000)
        assert str(exc.value).endswith(
            "after exploring 1001 branch nodes (full coefficient space 3^75)"
        )
        assert exc.value.estimate == 3**75
    out = search_action(k, 3)
    assert (out.status, out.nodes) == ("exhausted", 1230)
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
                ys = [i for i in k.graph_generator_indices() if m.exponent(i)]
                assert m.exponent(y_idx) >= 1 or len(ys) >= 2


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
# pruning that `search_action` runs; both find the same tables.

K3_PLUS_K1 = Graph.build(
    complete_graph(3).vertices + ("4",), complete_graph(3).edges
)  # the isolated vertex last: first, B(2, .) explores 281,448 nodes

ORACLE = [
    # name, p, ambient factory, status, nodes, pruned, variables, table sha256
    ("B(2,C4)", 3, lambda: build_complex(FamilySpec("B", (2,)), cycle_graph(4)),
     "found", 41, 41, 110, "0e5bd335464076d46e236a584d77c72303dc9fac753c4f2cfb2bb26e899436b3"),
    ("B(3,K3)", 3, lambda: build_complex(FamilySpec("B", (3,)), complete_graph(3)),
     "found", 36, 36, 132, "fa90e3850562aee543cd3b295c25af598d20c9ed8bbc0321aa47edcb60f3998b"),
    ("B(3,C5)", 3, lambda: build_complex(FamilySpec("B", (3,)), cycle_graph(5)),
     "found", 64, 64, 248, "c677d3385526034741ca796704bcf06011aeb850ea3b3e1fbd5fb7f28be1637e"),
    ("B(3,C6)", 3, lambda: build_complex(FamilySpec("B", (3,)), cycle_graph(6)),
     "found", 78, 78, 318, "7c252e4338770a71cec93d2ec708b4c84238c9106fea3bc7adc7ec1795ff1e0f"),
    ("B(4,C4)", 3, lambda: build_complex(FamilySpec("B", (4,)), cycle_graph(4)),
     "found", 273, 156, 292, "1792cb7099039dcd6a5f8747655643a21abd051c376459e384ee4cbea673a04c"),
    ("A_3(3,3),C4", 3, lambda: build_complex(FamilySpec("Ap", (3, 3), 3), cycle_graph(4)),
     "found", 65, 65, 327, "32de395d4fd4914d697caecb80689771bf50d6a35b157dbc0e18e555d388d19a"),
    ("B_5(2,1),K2", 5, lambda: build_complex(FamilySpec("Bp", (2, 1), 5), complete_graph(2)),
     "found", 35, 35, 561, "7348d659dcac0edc09cc32fd25370810577b511064c7d8e158d46ceb2be0b6a9"),
    ("B_5(2,2),K2", 5, lambda: build_complex(FamilySpec("Bp", (2, 2), 5), complete_graph(2)),
     "found", 68, 68, 1180, "d61ca5836d7112c9b77abdbfab4b66d2853912cb1b3dacf33cc59ad60f6db6b0"),
    ("Z/5[x1:4,x2:8,y:12]", 5, lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y", 12))),
     "found", 10, 10, 86, "51cf49145a0e1972199fb91a7b7d7dbee2b8def760ce152ba57252e8fb233895"),
    ("Z/7[x:4,y:16]", 7, lambda: FreePolynomialAlgebra((("x", 4), ("y", 16))),
     "found", 3, 3, 34, "ccf1ddde6021a6cb836d9a6bf9c107eb355ba11a88143bd76fa83020b78a0f4a"),
    ("Z/3[y:8]", 3, lambda: FreePolynomialAlgebra((("y", 8),)),
     "exhausted", 0, 0, 1, None),
    ("Z/3[x:4,y1:8,y2:8]", 3, lambda: FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8))),
     "exhausted", 3, 2, 33, None),
    ("Z/5[x1:8,y:12]", 5, lambda: FreePolynomialAlgebra((("x1", 8), ("y", 12))),
     "exhausted", 0, 0, 13, None),
    ("Z/5[x1:4,x2:8,y1:12,y2:12]", 5,
     lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 12), ("y2", 12))),
     "exhausted", 5, 3, 285, None),
    ("Z/7[x1:4,x2:8,y1:16,y2:16]", 7,
     lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 16), ("y2", 16))),
     "exhausted", 7, 4, 914, None),
    ("B(1,C4)", 3, lambda: build_complex(FamilySpec("B", (1,)), cycle_graph(4)),
     "exhausted", 15, 7, 57, None),
    ("B(1,C5)", 3, lambda: build_complex(FamilySpec("B", (1,)), cycle_graph(5)),
     "exhausted", 15, 7, 81, None),
    ("A_3(1,1),K2", 3, lambda: build_complex(FamilySpec("Ap", (1, 1), 3), complete_graph(2)),
     "exhausted", 15, 7, 23, None),
    ("B_5(1,1),K2", 5, lambda: build_complex(FamilySpec("Bp", (1, 1), 5), complete_graph(2)),
     "exhausted", 5, 3, 161, None),
    ("B(2,K3)", 3, lambda: build_complex(FamilySpec("B", (2,)), complete_graph(3)),
     "exhausted", 24492, 1230, 75, None),
    ("B(2,K3+K1)", 3, lambda: build_complex(FamilySpec("B", (2,)), K3_PLUS_K1),
     "exhausted", 24732, 1260, 98, None),
]


def _reference_search(ambient, p: int, node_cap: int = DEFAULT_NODE_CAP) -> SearchOutcome:
    """`search_action` at the default relation set and degree bound, solved by
    the unpruned `_Solver` (built without sign masks)."""
    relations = default_relation_set(p)
    bound = default_degree_bound(p)
    blocks, nvars = unknown_entry_blocks(ambient, p)
    solver = _Solver(p, nvars, compile_constraints(ambient, p, relations, bound, blocks), node_cap)
    assignment = solver.solve()
    names = tuple(r.name for r in relations)
    if assignment is None:
        return SearchOutcome("exhausted", None, names, bound, nvars, solver.nodes)
    table = table_from_assignment(ambient, p, blocks, assignment)
    return SearchOutcome("found", table, names, bound, nvars, solver.nodes)


def _digest(table) -> str:
    return hashlib.sha256(table.serialize().encode()).hexdigest()


@pytest.mark.parametrize(
    "p, make, status, nodes, pruned, variables, digest",
    [row[1:] for row in ORACLE],
    ids=[row[0] for row in ORACLE],
)
def test_search_counters_match_oracle(p, make, status, nodes, pruned, variables, digest):
    out = search_action(make(), p)
    assert (out.status, out.nodes, out.variables) == (status, pruned, variables)
    if digest is not None:
        assert _digest(out.table) == digest


@pytest.mark.parametrize(
    "p, make, status, nodes, pruned, variables, digest",
    [row[1:] for row in ORACLE],
    ids=[row[0] for row in ORACLE],
)
def test_reference_search_matches_oracle(p, make, status, nodes, pruned, variables, digest):
    out = _reference_search(make(), p)
    assert (out.status, out.nodes, out.variables) == (status, nodes, variables)
    if digest is not None:
        assert _digest(out.table) == digest


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


_join_complexes = st.tuples(_family_specs, _small_graphs()).map(
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
@given(st.one_of(_join_complexes, _free_algebras))
def test_pruned_search_agrees_with_reference(instance):
    """Same status, relativity and table, in no more nodes; a reference run past
    the budget leaves only the node bound to check."""
    ambient, p = instance
    pruned = _capped(search_action, ambient, p)
    reference = _capped(_reference_search, ambient, p)
    if reference is None:
        assert pruned is None or pruned.nodes <= DIFFERENTIAL_CAP
        return
    assert pruned is not None and pruned.nodes <= reference.nodes
    assert (pruned.status, pruned.variables) == (reference.status, reference.variables)
    if pruned.found:
        assert pruned.table.serialize() == reference.table.serialize()
    else:
        assert pruned.relativity() == reference.relativity()


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
    for masks in (None, sign_masks(ambient, blocks)):
        assert _Solver(p, nvars, constraints, DEFAULT_NODE_CAP, masks).solve() is not None
        assert [dict(poly.terms) for poly in constraints] == snapshot


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
                assignment[b.offset + t] = entry.coefficient(m)
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
from sr_chroma import realize
from sr_chroma.algebra import FreePolynomialAlgebra, Monomial
from sr_chroma.graph import Graph
from sr_chroma.search import _CompileKernel, compile_constraints
from sr_chroma.steenrod import PowerRelation

def raises(name, fn):
    try:
        fn()
    except AssertionError:
        print(name)

realize.span_chromatic_number = lambda g, p: (3, None)
raises("sandwich", lambda: realize.chromatic_bounds(Graph.build("ab", [("a", "b")]), 3))
x = FreePolynomialAlgebra((("x", 2),))
raises("pack", lambda: _CompileKernel(x, 3, 8, []).pack(Monomial((8,))))
bad = PowerRelation("P^1P^3", (1, 3), ((1, 1, 1),))
raises("degree", lambda: compile_constraints(x, 3, (bad,), 24, []))
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
    assert proc.stdout.split() == ["sandwich", "pack", "degree"]
