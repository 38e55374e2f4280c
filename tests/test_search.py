"""The exhaustive action search: refutations, witnesses, caps, determinism."""

from __future__ import annotations

import hashlib

import pytest

from helpers import complete_graph, cycle_graph
from sr_chroma.algebra import FreePolynomialAlgebra
from sr_chroma.graph import Graph
from sr_chroma.errors import ContractError, SearchSpaceExceeded
from sr_chroma.families import FamilySpec, build_complex
from sr_chroma.search import search_action, unknown_entry_blocks
from sr_chroma.steenrod import (
    adem_relation,
    check_ideal_preservation,
    check_relations,
    check_unstability,
    full_adem_relation_set,
)
from sr_chroma.symbolic import SymPoly


def test_sympoly_arithmetic():
    p = 5
    x = SymPoly.var(p, 0)
    y = SymPoly.var(p, 1)
    poly = (x + y) * (x + y.scale(4))  # (x+y)(x-y) = x^2 - y^2
    assert poly == x * x - y * y
    assert poly.terms == {((0, 2),): 1, ((1, 2),): 4}
    assert not poly.is_const() and poly - poly == SymPoly.const(p, 0)
    assert (poly - poly).is_zero()


def test_exhausted_z3_single_generator():
    amb = FreePolynomialAlgebra((("y", 8),))
    out = search_action(amb, 3)
    assert out.status == "exhausted"
    assert "P^1P^3 = P^4" in out.relativity()
    assert "degree bound 24" in out.relativity()


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
    with pytest.raises(SearchSpaceExceeded) as exc:
        search_action(k, 3, node_cap=1000)
    assert str(exc.value).endswith(
        "after exploring 1001 branch nodes (full coefficient space 3^75)"
    )
    assert exc.value.estimate == 3**75
    out = search_action(k, 3)
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


# -- oracle: exact search counters on the benchmark's 21 action instances ----
#
# A change to the solver that keeps the variable order, the propagation rule
# and the value order must leave (status, nodes, variables) and every found
# table unchanged. The table hashes are sha256 of `table.serialize()`.

K3_PLUS_K1 = Graph.build(
    complete_graph(3).vertices + ("4",), complete_graph(3).edges
)  # the isolated vertex last: first, B(2, .) explores 281,448 nodes

ORACLE = [
    # name, p, ambient factory, status, nodes, variables, table sha256
    ("B(2,C4)", 3, lambda: build_complex(FamilySpec("B", (2,)), cycle_graph(4)),
     "found", 41, 110, "0e5bd335464076d46e236a584d77c72303dc9fac753c4f2cfb2bb26e899436b3"),
    ("B(3,K3)", 3, lambda: build_complex(FamilySpec("B", (3,)), complete_graph(3)),
     "found", 36, 132, "fa90e3850562aee543cd3b295c25af598d20c9ed8bbc0321aa47edcb60f3998b"),
    ("B(3,C5)", 3, lambda: build_complex(FamilySpec("B", (3,)), cycle_graph(5)),
     "found", 64, 248, "c677d3385526034741ca796704bcf06011aeb850ea3b3e1fbd5fb7f28be1637e"),
    ("B(3,C6)", 3, lambda: build_complex(FamilySpec("B", (3,)), cycle_graph(6)),
     "found", 78, 318, "7c252e4338770a71cec93d2ec708b4c84238c9106fea3bc7adc7ec1795ff1e0f"),
    ("B(4,C4)", 3, lambda: build_complex(FamilySpec("B", (4,)), cycle_graph(4)),
     "found", 273, 292, "1792cb7099039dcd6a5f8747655643a21abd051c376459e384ee4cbea673a04c"),
    ("A_3(3,3),C4", 3, lambda: build_complex(FamilySpec("Ap", (3, 3), 3), cycle_graph(4)),
     "found", 65, 327, "32de395d4fd4914d697caecb80689771bf50d6a35b157dbc0e18e555d388d19a"),
    ("B_5(2,1),K2", 5, lambda: build_complex(FamilySpec("Bp", (2, 1), 5), complete_graph(2)),
     "found", 35, 561, "7348d659dcac0edc09cc32fd25370810577b511064c7d8e158d46ceb2be0b6a9"),
    ("B_5(2,2),K2", 5, lambda: build_complex(FamilySpec("Bp", (2, 2), 5), complete_graph(2)),
     "found", 68, 1180, "d61ca5836d7112c9b77abdbfab4b66d2853912cb1b3dacf33cc59ad60f6db6b0"),
    ("Z/5[x1:4,x2:8,y:12]", 5, lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y", 12))),
     "found", 10, 86, "51cf49145a0e1972199fb91a7b7d7dbee2b8def760ce152ba57252e8fb233895"),
    ("Z/7[x:4,y:16]", 7, lambda: FreePolynomialAlgebra((("x", 4), ("y", 16))),
     "found", 3, 34, "ccf1ddde6021a6cb836d9a6bf9c107eb355ba11a88143bd76fa83020b78a0f4a"),
    ("Z/3[y:8]", 3, lambda: FreePolynomialAlgebra((("y", 8),)),
     "exhausted", 0, 1, None),
    ("Z/3[x:4,y1:8,y2:8]", 3, lambda: FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8))),
     "exhausted", 3, 33, None),
    ("Z/5[x1:8,y:12]", 5, lambda: FreePolynomialAlgebra((("x1", 8), ("y", 12))),
     "exhausted", 0, 13, None),
    ("Z/5[x1:4,x2:8,y1:12,y2:12]", 5,
     lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 12), ("y2", 12))),
     "exhausted", 5, 285, None),
    ("Z/7[x1:4,x2:8,y1:16,y2:16]", 7,
     lambda: FreePolynomialAlgebra((("x1", 4), ("x2", 8), ("y1", 16), ("y2", 16))),
     "exhausted", 7, 914, None),
    ("B(1,C4)", 3, lambda: build_complex(FamilySpec("B", (1,)), cycle_graph(4)),
     "exhausted", 15, 57, None),
    ("B(1,C5)", 3, lambda: build_complex(FamilySpec("B", (1,)), cycle_graph(5)),
     "exhausted", 15, 81, None),
    ("A_3(1,1),K2", 3, lambda: build_complex(FamilySpec("Ap", (1, 1), 3), complete_graph(2)),
     "exhausted", 15, 23, None),
    ("B_5(1,1),K2", 5, lambda: build_complex(FamilySpec("Bp", (1, 1), 5), complete_graph(2)),
     "exhausted", 5, 161, None),
    ("B(2,K3)", 3, lambda: build_complex(FamilySpec("B", (2,)), complete_graph(3)),
     "exhausted", 24492, 75, None),
    ("B(2,K3+K1)", 3, lambda: build_complex(FamilySpec("B", (2,)), K3_PLUS_K1),
     "exhausted", 24732, 98, None),
]


@pytest.mark.parametrize(
    "p, make, status, nodes, variables, digest",
    [row[1:] for row in ORACLE],
    ids=[row[0] for row in ORACLE],
)
def test_search_counters_match_oracle(p, make, status, nodes, variables, digest):
    out = search_action(make(), p)
    assert (out.status, out.nodes, out.variables) == (status, nodes, variables)
    if digest is not None:
        assert hashlib.sha256(out.table.serialize().encode()).hexdigest() == digest
