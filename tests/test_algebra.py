"""Join complexes, monomial reduction, and exact arithmetic mod p."""

from __future__ import annotations

import itertools
from random import Random

import pytest

from helpers import (
    all_graphs,
    complete_graph,
    cycle_graph,
    empty_graph,
    oracle_face_set,
    path_graph,
    reference_graph_ideal_generators,
    reference_ideal_membership,
)
from sr_chroma.algebra import (
    AlgebraElement,
    FreePolynomialAlgebra,
    JoinComplex,
    Monomial,
    monomial_in_graph_ideal,
    parse_free_algebra,
    y_label,
)
from sr_chroma.errors import ContractError
from sr_chroma.families import FamilySpec, build_complex, parse_family
from sr_chroma.graph import Graph


def b_complex(n, g):
    return build_complex(FamilySpec("B", (n,)), g)


def test_build_complex_degrees_b():
    k = b_complex(2, complete_graph(3))
    assert k.blocks == ((2, 4),)
    assert k.graph_degree == 8
    assert k.gen_labels == ("x1^(1)", "x2^(1)", "y_1", "y_2", "y_3")


def test_build_complex_degrees_ap():
    k = build_complex(FamilySpec("Ap", (1, 1, 1, 1), 5), complete_graph(3))
    assert [d for _, d in k.blocks] == [4, 6, 8, 10]
    assert k.graph_degree == 12


def test_build_complex_degrees_general_a():
    k = build_complex(FamilySpec("A", (1, 1)), complete_graph(3))
    assert [d for _, d in k.blocks] == [4, 6]
    assert k.graph_degree == 8


def test_build_complex_degrees_bp():
    k = build_complex(FamilySpec("Bp", (2, 1), 5), complete_graph(2))
    assert k.blocks == ((2, 4), (1, 8))
    assert k.graph_degree == 12


def test_family_vector_length_validation():
    with pytest.raises(ContractError):
        FamilySpec("Ap", (1, 1), 5)  # needs length p-1 = 4
    with pytest.raises(ContractError):
        FamilySpec("Bp", (1, 1, 1), 5)  # needs length 2
    with pytest.raises(ContractError):
        FamilySpec("Ap", (1, 1), 4)  # p must be an odd prime
    assert parse_family("A_p", "1,1", 3).kind == "Ap"


def test_maximal_faces():
    # blocks only, empty graph part
    k = b_complex(2, Graph.build([], []))
    assert k.maximal_faces() == [frozenset({"x1^(1)", "x2^(1)"})]

    k = b_complex(1, complete_graph(2))
    assert k.maximal_faces() == [frozenset({"x1^(1)", "y_1", "y_2"})]

    k = build_complex(FamilySpec("A", (1, 1)), complete_graph(3))
    faces = k.maximal_faces()
    assert len(faces) == 3
    assert frozenset({"x1^(1)", "x1^(2)", "y_1", "y_2"}) in faces

    # isolated vertices become their own maximal faces
    g = Graph.build(["1", "2", "3"], [("1", "2")])
    k = b_complex(1, g)
    assert frozenset({"x1^(1)", "y_3"}) in k.maximal_faces()


def test_maximal_graph_faces_are_the_graph_parts_in_order():
    g = Graph.build(["1", "2", "3", "4"], [("3", "1"), ("1", "2")])
    k = b_complex(2, g)
    assert k.maximal_graph_faces() == [
        frozenset({"y_1", "y_2"}),
        frozenset({"y_1", "y_3"}),
        frozenset({"y_4"}),
    ]
    base = frozenset({"x1^(1)", "x2^(1)"})
    assert k.maximal_faces() == [base | f for f in k.maximal_graph_faces()]
    assert b_complex(2, Graph.build([], [])).maximal_graph_faces() == [frozenset()]


def test_maximal_faces_incomparable_and_cover():
    for g in [complete_graph(3), path_graph(4), empty_graph(2)]:
        k = b_complex(2, g)
        faces = k.maximal_faces()
        for f1, f2 in itertools.combinations(faces, 2):
            assert not f1 <= f2 and not f2 <= f1
        if g.edges and g.min_degree() >= 1:
            assert set().union(*faces) == set(k.gen_labels)


def test_reduce_monomial():
    k3 = complete_graph(3)
    k = b_complex(1, k3)
    m_edge = k.monomial({"y_1": 1, "y_2": 1})
    assert k.reduce_monomial(m_edge) == m_edge
    m_triangle = k.monomial({"y_1": 1, "y_2": 1, "y_3": 1})
    assert k.reduce_monomial(m_triangle) is None  # a 1-complex has no triangles

    non_edge = Graph.build(["1", "2", "3"], [("1", "2")])
    k2 = b_complex(1, non_edge)
    assert k2.reduce_monomial(k2.monomial({"y_1": 1, "y_3": 1})) is None

    wider = b_complex(2, non_edge)
    with pytest.raises(ContractError):
        k2.reduce_monomial(wider.monomial({"y_1": 1}))  # width mismatch
    with pytest.raises(ContractError):
        k2.monomial({"nope": 1})


def test_reduce_matches_face_enumeration_small():
    for g in all_graphs(3):
        k = b_complex(1, g)
        faces = oracle_face_set(k)
        for d in range(0, 25, 2):
            for m in _all_monomials(k, d):
                expected = frozenset(k.gen_labels[i] for i in m.support()) in faces
                assert (k.reduce_monomial(m) is not None) == expected
    # a free algebra is the join with no graph generators: every support is a face
    for free in (FreePolynomialAlgebra((("x", 4), ("y1", 8), ("y2", 8))), parse_free_algebra("a:2,b:4,c:6")):
        assert free.graph_generator_indices() == ()
        assert free.graph_edge_indices == frozenset()
        for d in range(0, 25, 2):
            for m in _all_monomials(free, d):
                assert free.reduce_monomial(m) == m


def test_graph_ideal_generators_match_definition():
    # y_v and every y_j*y_k (j < k) whose support is a face, as a set
    for n in range(6):
        for g in all_graphs(n):
            k = b_complex(1, g)
            faces = oracle_face_set(k)
            ys = [y_label(v) for v in g.vertices]
            pairs = {
                k.monomial({a: 1, b: 1})
                for a, b in itertools.combinations(ys, 2)
                if frozenset({a, b}) in faces
            }
            for v in g.vertices:
                gens = reference_graph_ideal_generators(k, v)
                assert len(gens) == len(set(gens))
                assert set(gens) == {k.generator_monomial(y_label(v))} | pairs


def test_monomial_in_graph_ideal_matches_reference():
    # every face-supported basis monomial, against the generator-list form
    complexes = [b_complex(1, g) for n in range(6) for g in all_graphs(n)]
    complexes.append(build_complex(FamilySpec("A", (1, 1)), path_graph(4)))
    complexes.append(build_complex(FamilySpec("Bp", (2, 1), 5), cycle_graph(4)))
    for k in complexes:
        gens = {v: reference_graph_ideal_generators(k, v) for v in k.graph.vertices}
        for d in range(0, 25, 2):
            for m in k.monomial_basis(d):
                one = AlgebraElement(k, 3, ((m, 1),))
                for v in k.graph.vertices:
                    expected = reference_ideal_membership(one, gens[v])
                    assert monomial_in_graph_ideal(k, m, k.y_index(v)) == expected, (k, m, v)


def _all_monomials(k, degree):
    """Brute enumeration over the full polynomial ring (no face filtering)."""
    degs = k.gen_degrees
    out = []

    def fill(i, remaining, exps):
        if i == len(degs):
            if remaining == 0:
                from sr_chroma.algebra import Monomial

                out.append(Monomial(tuple(exps)))
            return
        for e in range(remaining // degs[i] + 1):
            fill(i + 1, remaining - e * degs[i], exps + [e])

    fill(0, degree, [])
    return out


def test_monomial_basis_is_face_filtered_brute_force():
    # the basis is enumerated in canonical order, not sorted into it: free
    # generators out of degree order, repeated degrees, and a join complex
    # with an edge and an isolated vertex
    ambients = [
        b_complex(2, path_graph(3)),
        parse_free_algebra("y:8,x:4,z:6"),
        parse_free_algebra("a:2,b:2,c:4,d:6"),
        JoinComplex(((1, 4), (2, 6)), Graph.build(["1", "2", "3"], [("1", "2")]), 8),
    ]
    for k in ambients:
        for d in range(0, 25, 2):
            brute = [m for m in _all_monomials(k, d) if k.reduce_monomial(m) is not None]
            assert sorted(brute, key=k.monomial_key) == list(k.monomial_basis(d)), (k, d)



def test_monomial_basis_on_a_1500_vertex_path():
    # one search level per generator: deeper than the default recursion limit
    k = b_complex(1, path_graph(1500))
    basis = k.monomial_basis(8)
    x = k.gen_labels[0]
    assert basis[0] == k.generator_monomial(x, 2)
    assert basis[1:] == tuple(k.generator_monomial(y_label(v)) for v in k.graph.vertices)


def test_hilbert_dimensions_free_vs_quotient():
    # B(1, single edge): SR has no relations (the edge is a face), so the
    # graded dimensions match the free polynomial algebra on x,y,y
    k = b_complex(1, complete_graph(2))
    free = FreePolynomialAlgebra((("x", 4), ("u", 8), ("v", 8)))
    for d in range(0, 25, 2):
        assert len(k.monomial_basis(d)) == len(free.monomial_basis(d))

    # the non-edge kills exactly the monomials divisible by y_1*y_3
    non_edge = Graph.build(["1", "3"], [])
    k2 = b_complex(1, non_edge)
    for d in range(0, 25, 2):
        killed = [
            m
            for m in free.monomial_basis(d)
            if m.exps[1] >= 1 and m.exps[2] >= 1
        ]
        assert len(k2.monomial_basis(d)) == len(free.monomial_basis(d)) - len(killed)


def test_multiply_unit_and_zero_divisors():
    k = b_complex(0, complete_graph(2))
    p = 3
    one = k.one(p)
    ya = k.generator_element("y_1", p)
    yb = k.generator_element("y_2", p)
    assert one * ya == ya

    non_edge = b_complex(0, Graph.build(["a", "b"], []))
    za = non_edge.generator_element("y_a", p)
    zb = non_edge.generator_element("y_b", p)
    assert (za * zb).is_zero()

    # (y_a + y_b)^2 over the edge: all cross terms survive
    s = ya + yb
    sq = s * s
    expected = AlgebraElement.make(
        k,
        p,
        {
            k.monomial({"y_1": 2}): 1,
            k.monomial({"y_1": 1, "y_2": 1}): 2,
            k.monomial({"y_2": 2}): 1,
        },
    )
    assert sq == expected


def test_multiply_contract_errors():
    k1 = b_complex(1, complete_graph(2))
    k2 = b_complex(2, complete_graph(2))
    with pytest.raises(ContractError):
        k1.one(3) * k2.one(3)
    with pytest.raises(ContractError):
        k1.one(3) * k1.one(5)


def test_algebra_laws_random():
    rng = Random(17)
    k = b_complex(2, path_graph(3))
    p = 3

    def random_element():
        degree = rng.choice([4, 8, 12, 16, 20])
        basis = k.monomial_basis(degree)
        terms = {m: rng.randrange(p) for m in rng.sample(basis, min(3, len(basis)))}
        return AlgebraElement.make(k, p, terms)

    for _ in range(100):
        a, b, c = random_element(), random_element(), random_element()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_graded_degrees_multiply():
    k = b_complex(1, complete_graph(2))
    x = k.generator_element("x1^(1)", 3)
    y = k.generator_element("y_1", 3)
    assert (x * y).homogeneous_degree() == 12
    with pytest.raises(ContractError):
        (x + y).homogeneous_degree()


def test_ideal_membership():
    k = b_complex(1, complete_graph(3))
    p = 3
    y1 = k.generator_monomial("y_1")
    x1 = k.generator_monomial("x1^(1)")
    assert reference_ideal_membership(k.zero(p), [y1])
    xy = k.generator_element("x1^(1)", p) * k.generator_element("y_1", p)
    assert reference_ideal_membership(xy, [y1])
    cube = k.generator_element("x1^(1)", p) ** 3
    pair_gens = [y1] + [
        k.monomial({"y_1": 1, "y_2": 1}),
        k.monomial({"y_1": 1, "y_3": 1}),
        k.monomial({"y_2": 1, "y_3": 1}),
    ]
    assert not reference_ideal_membership(cube, pair_gens)
    assert reference_ideal_membership(cube, [x1])


def test_element_str_canonical_order():
    k = b_complex(2, complete_graph(2))
    p = 3
    e = k.generator_element("y_1", p) + (k.generator_element("x1^(1)", p) ** 2).scale(2)
    assert str(e) == "2*x1^(1)^2 + 1*y_1"
    assert str(k.zero(p)) == "0"


def test_parse_free_algebra():
    amb = parse_free_algebra("x:4, y1:8,y2:8")
    assert amb.gen_labels == ("x", "y1", "y2")
    assert amb.gen_degrees == (4, 8, 8)
    with pytest.raises(ContractError):
        parse_free_algebra("x:odd")
    with pytest.raises(ContractError):
        parse_free_algebra("x:3")  # degrees must be even


def test_zero_size_blocks_contribute_nothing():
    k = build_complex(FamilySpec("Bp", (2, 0), 5), complete_graph(2))
    assert k.gen_labels == ("x1^(1)", "x2^(1)", "y_1", "y_2")


def test_complex_degree_validation():
    # a bad degree names the first generator that has it: an x block's, or the
    # first graph generator's for the graph degree
    cases = [
        (((1, 4),), Graph.build(["1"], []), 7, "generator 'y_1' needs a positive even degree, got 7"),
        (((1, 3),), Graph.build(["1"], []), 8, "generator 'x1^(1)' needs a positive even degree, got 3"),
        (((2, 4), (1, 6), (2, 5)), Graph.build(["1"], []), 7, "generator 'x1^(3)' needs a positive even degree, got 5"),
        (((-1, 4),), Graph.build([], []), 8, "block sizes must be non-negative"),
    ]
    for blocks, graph, graph_degree, message in cases:
        with pytest.raises(ContractError) as info:
            JoinComplex(blocks, graph, graph_degree)
        assert str(info.value) == message


_X4_Y8 = FreePolynomialAlgebra((("x", 4), ("y", 8)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FreePolynomialAlgebra((("x", 4), ("x", 8))), "generator labels are not distinct"),
        (lambda: _X4_Y8.degree_of(Monomial((1,))), "monomial does not match this ambient"),
        (lambda: Monomial((1,)) * Monomial((1, 0)), "monomials over different generator lists"),
        (lambda: parse_free_algebra(""), "empty generator list"),
        (lambda: parse_free_algebra("x:4,,y:8"), "empty slot 2 in generator list 'x:4,,y:8'"),
        (
            lambda: parse_free_algebra("x:4, x y :8"),
            "bad generator name 'x y' in 'x y :8':"
            " a name is non-empty, with no whitespace and none of * + ^ = #",
        ),
        (lambda: AlgebraElement.make(_X4_Y8, 4, {}), "4 is not prime"),
        (lambda: _X4_Y8.generator_element("x", 3) ** -1, "negative power"),
    ],
    ids=[
        "duplicate-labels",
        "monomial-width",
        "monomial-lists",
        "empty-list",
        "empty-slot",
        "name-whitespace",
        "non-prime",
        "negative-power",
    ],
)
def test_algebra_input_errors(call, message):
    with pytest.raises(ContractError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        (("C", (1,)), "unknown family kind 'C'"),
        (("A", (1, -1)), "family vector entries must be non-negative"),
        (("B", (1, 2)), "family B takes a single size n"),
        (("B", (2,), 5), "family B is the p = 3 case"),
    ],
)
def test_family_spec_input_errors(args, message):
    with pytest.raises(ContractError) as exc:
        FamilySpec(*args)
    assert str(exc.value) == message
