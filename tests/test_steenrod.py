"""Tables, Cartan extension, checkers, and the induced coloring data."""

from __future__ import annotations

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    reference_cartan_extend,
    reference_check_ideal_preservation,
    reference_check_relations,
    rref_in_span,
)
from sr_chroma.algebra import AlgebraElement, FreePolynomialAlgebra
from sr_chroma.errors import ContractError, IncompleteTableError, SrChromaError
from sr_chroma.families import FamilySpec, build_complex
from sr_chroma.graph import Graph
from sr_chroma.search import search_action, unknown_entry_blocks
from sr_chroma.span import FpVector, SpanColoring
from sr_chroma.steenrod import (
    PowerRelation,
    SteenrodTable,
    adem_relation,
    cartan_extend,
    check_ideal_preservation,
    check_relations,
    check_unstability,
    cokernel_report,
    coloring_from_action,
    forced_top,
    full_adem_relation_set,
    necessary_condition,
    parse_element,
    parse_table,
)


def free(*gens):
    return FreePolynomialAlgebra(tuple(gens))


def test_adem_expansion_default_pair():
    for p in (3, 5, 7):
        rel = adem_relation(1, p, p)
        assert rel.lhs == (1, p)
        assert rel.rhs == ((1, p + 1, 0),)
    # the classical P^1 P^1 = 2 P^2 at p = 3
    rel = adem_relation(1, 1, 3)
    assert rel.rhs == ((2, 2, 0),)


def test_adem_relations_need_an_odd_prime():
    amb = free(("x", 4))
    for p in (2, 4, 9):
        with pytest.raises(ContractError, match="odd prime"):
            adem_relation(1, 1, p)
        with pytest.raises(ContractError, match="odd prime"):
            full_adem_relation_set(amb, p, 40)


def test_cartan_identity_and_top_power():
    amb = free(("x", 4))
    t = SteenrodTable(3, amb, {("x", 1): amb.zero(3)})
    x = amb.generator_element("x", 3)
    assert cartan_extend(t, x, 0) == x
    assert cartan_extend(t, x, 2) == x**3  # 2k = |x| forces x^p
    assert cartan_extend(t, x, 5).is_zero()


def test_cartan_on_square_binomial_coefficient():
    # P^1(x*x) = 2 * x * P^1(x) when P^1(x) = y, at p = 3
    amb = free(("x", 4), ("y", 8))
    y = amb.generator_element("y", 3)
    t = SteenrodTable(3, amb, {("x", 1): y})
    x = amb.generator_element("x", 3)
    out = cartan_extend(t, x * x, 1)
    assert out == (amb.generator_element("x", 3) * y).scale(2)


def test_cartan_incomplete_table_names_entry():
    amb = free(("y", 8))
    t = SteenrodTable(3, amb, {})
    y = amb.generator_element("y", 3)
    with pytest.raises(IncompleteTableError, match=r"P\^1\(y\)"):
        cartan_extend(t, y, 1)


def test_table_validation():
    amb = free(("y", 8))
    with pytest.raises(ContractError):
        SteenrodTable(2, amb, {})  # p must be an odd prime
    with pytest.raises(ContractError):
        SteenrodTable(3, amb, {("y", 1): amb.generator_element("y", 3)})  # wrong degree
    with pytest.raises(ContractError):
        SteenrodTable(3, amb, {("y", 9): amb.generator_element("y", 3) ** 3})  # above top
    # a mis-stated top entry is structurally fine but flagged by unstability
    bad_top = SteenrodTable(3, amb, {("y", 4): amb.zero(3)})
    assert not check_unstability(bad_top).ok


def test_check_relations_trivial_table_generator_level():
    # all P^k(x) = 0 below the top: consistent on the generator itself
    amb = free(("x", 4))
    t = SteenrodTable(3, amb, {("x", 1): amb.zero(3)})
    report = check_relations(t, degree_bound=20)  # only the generator fits
    assert report.ok


def test_check_relations_rejects_negative_degree_bound():
    amb = free(("x", 4))
    t = SteenrodTable(3, amb, {("x", 1): amb.zero(3)})
    with pytest.raises(ContractError, match="degree bound"):
        check_relations(t, degree_bound=-1)


def test_check_relations_z3y_always_violated():
    # Z/3[y], |y| = 8: P^1 P^3 (y) = 0 by degrees but P^4(y) = y^3
    amb = free(("y", 8))
    t = SteenrodTable(
        3,
        amb,
        {("y", 1): amb.zero(3), ("y", 2): amb.zero(3), ("y", 3): amb.zero(3)},
    )
    report = check_relations(t)
    assert not report.ok
    assert any("y" == v.subject for v in report.violations)
    text = report.to_text()
    assert "lhs" in text and "degree_bound" in str(report.context)


def test_check_ideal_preservation_examples():
    k = build_complex(FamilySpec("B", (1,)), complete_graph(2))
    p = 3
    zero_table = SteenrodTable(p, k, {("y_1", 1): k.zero(p), ("y_2", 1): k.zero(p)})
    assert check_ideal_preservation(zero_table).ok

    xy = k.generator_element("x1^(1)", p) * k.generator_element("y_1", p)
    good = SteenrodTable(p, k, {("y_1", 1): xy})
    assert check_ideal_preservation(good).ok

    cube = k.generator_element("x1^(1)", p) ** 3
    bad = SteenrodTable(p, k, {("y_1", 1): cube})
    report = check_ideal_preservation(bad)
    assert not report.ok
    assert "P^1(y_1)" in report.violations[0].subject


def test_check_ideal_preservation_vacuous_on_free():
    amb = free(("x", 4))
    assert check_ideal_preservation(SteenrodTable(3, amb, {})).ok


_IDEAL_SPECS = [
    (FamilySpec("B", (1,)), 3),
    (FamilySpec("B", (2,)), 3),
    (FamilySpec("A", (1, 1)), 3),
    (FamilySpec("A", (1,)), 5),
]
_IDEAL_GRAPHS = [g for n in range(5) for g in all_graphs(n)]


@st.composite
def _ideal_tables(draw):
    """Random stored entries, top included, drawn from the whole face-supported
    basis of each entry's degree, so terms fall inside and outside the ideal."""
    spec, p = draw(st.sampled_from(_IDEAL_SPECS))
    k = build_complex(spec, draw(st.sampled_from(_IDEAL_GRAPHS)))
    entries = {}
    for label, deg in zip(k.gen_labels, k.gen_degrees):
        for kk in range(1, deg // 2 + 1):
            basis = k.monomial_basis(deg + 2 * kk * (p - 1))
            if not draw(st.booleans()):
                continue
            chosen = draw(st.lists(st.sampled_from(basis), max_size=3)) if basis else []
            terms = {m: draw(st.integers(1, p - 1)) for m in chosen}
            entries[(label, kk)] = AlgebraElement.make(k, p, terms)
    return SteenrodTable(p, k, entries)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ideal_tables())
def test_check_ideal_preservation_matches_reference(table):
    want = reference_check_ideal_preservation(table).to_text()
    assert check_ideal_preservation(table).to_text() == want


def _b2_k3():
    return build_complex(FamilySpec("B", (2,)), complete_graph(3))


def test_coloring_from_action_reads_the_leading_coefficients():
    k = _b2_k3()
    p = 3
    y = {v: k.generator_element(f"y_{v}", p) for v in "123"}
    x1 = k.generator_element("x1^(1)", p)
    x2 = k.generator_element("x2^(1)", p)
    # P^3(y_1) also carries terms in (y_1) and in (y_2*y_3) that add nothing to g
    entries = {
        ("y_1", 3): y["1"] * y["1"] * x1 + y["1"] * x1**3 + y["2"] * y["3"] * x2,
        ("y_2", 3): (y["2"] * y["2"] * x2).scale(2),
        ("y_3", 3): y["3"] * y["3"] * (x1 + x2),
    }
    gf, rep = coloring_from_action(SteenrodTable(p, k, entries))
    assert gf.serialize() == "1 : 1,0\n2 : 0,2\n3 : 1,1\n"
    # two dimensions cannot span-color K3 (s_3chi(K3) = 3)
    assert rep.failures() == ["1", "2", "3"]


def test_coloring_from_action_rejects_a_term_outside_the_ideal():
    k = _b2_k3()
    p = 3
    x1 = k.generator_element("x1^(1)", p)
    t = SteenrodTable(p, k, {("y_1", 3): x1**5})
    with pytest.raises(ContractError, match="outside"):
        coloring_from_action(t)


def test_coloring_from_action_needs_graph_degree_2p_plus_2():
    k = build_complex(FamilySpec("B", (2,)), cycle_graph(4))  # degree 8 = 2*3 + 2
    with pytest.raises(ContractError, match=r"degree 2p\+2"):
        coloring_from_action(SteenrodTable(5, k, {}))


def test_coloring_from_action_on_a_graph_without_vertices():
    k = build_complex(FamilySpec("B", (2,)), Graph.build([], []))
    for p in (3, 5):  # the degree is read per vertex, so p = 5 passes too
        gf, rep = coloring_from_action(SteenrodTable(p, k, {}))
        assert gf.assignment == {} and gf.dim == 2
        assert rep.entries == [] and rep.to_text() == "no graph vertices"


def test_coloring_from_action_needs_every_pp_entry():
    k = build_complex(FamilySpec("B", (2,)), cycle_graph(4))
    with pytest.raises(IncompleteTableError, match=r"P\^3\(y_1\)"):
        coloring_from_action(SteenrodTable(3, k, {}))


def _gfun(p, dim, coords):
    return SpanColoring(p, dim, {v: FpVector(p, c) for v, c in coords.items()})


def test_cokernel_report_examples():
    k3 = complete_graph(3)
    gf = _gfun(3, 3, {"1": (1, 0, 0), "2": (0, 1, 0), "3": (0, 0, 1)})
    assert cokernel_report(k3, gf).all_nonzero

    c4 = cycle_graph(4)
    const = _gfun(3, 2, {v: (1, 1) for v in c4.vertices})
    rep = cokernel_report(c4, const)
    assert not rep.all_nonzero
    assert rep.failures() == list(c4.vertices)


def test_cokernel_report_matches_direct_span_checks():
    c5 = cycle_graph(5)
    p = 3
    gf = _gfun(p, 2, {v: ((0, 1) if int(v) % 2 else (1, 0)) for v in c5.vertices})
    rep = cokernel_report(c5, gf)
    for v, ok in rep.entries:
        nbr = [gf.assignment[u].coords for u in sorted(c5.neighbors(v), key=c5.index.get)]
        assert ok == (not rref_in_span(nbr, gf.assignment[v].coords, p))


def test_coloring_from_action_requires_min_degree_two():
    k = build_complex(FamilySpec("B", (2,)), path_graph(3))
    t = SteenrodTable(3, k, {})
    with pytest.raises(ContractError, match="degree at least 2"):
        coloring_from_action(t)


def test_necessary_condition_examples():
    edge = complete_graph(2)
    out = necessary_condition(FamilySpec("B", (1,)), edge)
    assert not out.passed and out.span_value == 2 and out.bound == 1
    assert out.describe() == "s_3chi=2 > bound=1"

    out = necessary_condition(FamilySpec("B", (3,)), complete_graph(3))
    assert out.passed and out.span_value == 3

    out = necessary_condition(FamilySpec("Ap", (2, 2), 3), Graph.build([], []))
    assert out.passed and out.span_value == 0

    with pytest.raises(ContractError):
        necessary_condition(FamilySpec("A", (1, 1)), edge)


def test_table_serialize_parse_round_trip():
    k = _b2_k3()
    p = 3
    y1 = k.generator_element("y_1", p)
    x1 = k.generator_element("x1^(1)", p)
    t = SteenrodTable(p, k, {("y_1", 3): y1 * y1 * x1, ("x1^(1)", 1): y1.scale(2)})
    text = t.serialize()
    back = parse_table(text, k, p)
    assert back.entries == t.entries
    assert "P^3(y_1)" in text


def test_parse_table_rejects_a_duplicate_entry():
    amb = free(("x", 4))
    with pytest.raises(ContractError, match=r"^line 2: duplicate entry P\^1\(x\)$"):
        parse_table("P^1(x) = 2*x^2\nP^1(x) = 1*x^2\n", amb, 3)


def test_parse_element_forms():
    amb = free(("x", 4), ("y", 8))
    assert parse_element("0", amb, 3).is_zero()
    e = parse_element("2*x^2 + 1*y", amb, 3)
    assert e == (amb.generator_element("x", 3) ** 2).scale(2) + amb.generator_element("y", 3)
    with pytest.raises(ContractError):
        parse_element("2*z", amb, 3)


def test_total_operation_multiplicativity_smoke():
    rng = Random(23)
    k = build_complex(FamilySpec("B", (2,)), complete_graph(2))
    p = 3

    def random_entry(label, kk):
        deg = k.gen_degrees[k.label_index[label]] + 2 * kk * (p - 1)
        basis = k.monomial_basis(deg)
        if not basis:
            return k.zero(p)
        return AlgebraElement.make(k, p, {m: rng.randrange(p) for m in basis})

    entries = {}
    for label, d in zip(k.gen_labels, k.gen_degrees):
        for kk in range(1, d // 2):
            entries[(label, kk)] = random_entry(label, kk)
    t = SteenrodTable(p, k, entries)

    def random_element(degree):
        basis = k.monomial_basis(degree)
        return AlgebraElement.make(k, p, {m: rng.randrange(p) for m in basis})

    for _ in range(25):
        a = random_element(rng.choice([4, 8, 12]))
        b = random_element(rng.choice([4, 8]))
        for kk in range(0, 5):
            want = k.zero(p)
            for i in range(kk + 1):
                want = want + cartan_extend(t, a, i) * cartan_extend(t, b, kk - i)
            assert cartan_extend(t, a * b, kk) == want


# -- oracle: the g-function read-out -----------------------------------------
#
# sha256 over, per case, the case name and either `gfun.serialize()` and
# `report.to_text()` from coloring_from_action, or the exception's type and
# message. The cases: the found tables of the six join instances the action
# search finds; seeded random tables whose P^p(y_i) are drawn from the
# search's ideal-cut bases (so only the graph-degree guard rejects them); and
# one case per guard, in the order the guards run.

G_FUNCTION_SHA256 = "b6ac042a91ea4aeddab15563a48b9fd6b7fb86b22a442c2d9e1cd2517ca71fe7"

FOUND_JOIN_INSTANCES = [
    ("B(2,C4)", FamilySpec("B", (2,)), cycle_graph(4)),
    ("B(3,K3)", FamilySpec("B", (3,)), complete_graph(3)),
    ("B(3,C5)", FamilySpec("B", (3,)), cycle_graph(5)),
    ("B(3,C6)", FamilySpec("B", (3,)), cycle_graph(6)),
    ("B(4,C4)", FamilySpec("B", (4,)), cycle_graph(4)),
    ("A_3(3,3),C4", FamilySpec("Ap", (3, 3), 3), cycle_graph(4)),
]
RANDOM_SPECS = [
    FamilySpec("B", (2,)),
    FamilySpec("B", (3,)),
    FamilySpec("Ap", (2, 1), 3),
    FamilySpec("Bp", (2, 1), 5),
    FamilySpec("A", (1,)),
    FamilySpec("A", (2, 2)),
]
RANDOM_GRAPHS = [
    complete_graph(3),
    cycle_graph(4),
    cycle_graph(5),
    cycle_graph(6),
    complete_graph(4),
    Graph.build([], []),
]


def _random_pp_table(ambient, p: int, rng: Random) -> SteenrodTable:
    """Random P^p(y_i) over the search's cut bases; no other entry is read."""
    entries = {}
    for block in unknown_entry_blocks(ambient, p)[0]:
        if block.k == p and ambient.is_graph_generator(ambient.label_index[block.label]):
            terms = {m: rng.randrange(p) for m in block.basis if rng.random() < 0.5}
            entries[(block.label, p)] = AlgebraElement.make(ambient, p, terms)
    return SteenrodTable(p, ambient, entries)


def _guard_cases():
    """One table per guard, each breaking every later guard it can too, so
    the digest pins the order the guards run in."""
    b2 = FamilySpec("B", (2,))
    b2_c4 = build_complex(b2, cycle_graph(4))
    k = _b2_k3()
    x1 = k.generator_element("x1^(1)", 3)
    y1, y2 = k.generator_element("y_1", 3), k.generator_element("y_2", 3)
    # both terms lie outside (y_1) + (y_j*y_k); the first in term order is named
    outside = x1**5 + y2 * x1**3
    return [
        ("free algebra", SteenrodTable(5, free(("x", 4), ("y", 8)), {})),
        ("degree-1 vertex at p=5", SteenrodTable(5, build_complex(b2, path_graph(3)), {})),
        ("graph degree 8 at p=5", SteenrodTable(5, b2_c4, {})),
        # y_1 comes first, so its missing entry is reported before y_2's bad term
        ("missing P^3(y_1)", SteenrodTable(3, k, {("y_2", 3): y2 * x1**3 + y1 * x1**3})),
        ("term outside the ideal", SteenrodTable(3, k, {("y_1", 3): outside})),
    ]


def _read_out(table) -> str:
    try:
        gf, rep = coloring_from_action(table)
    except SrChromaError as exc:
        return f"{type(exc).__name__}: {exc}"
    return gf.serialize() + rep.to_text()


def test_g_function_read_out_matches_oracle():
    cases = []
    for name, spec, g in FOUND_JOIN_INSTANCES:
        out = search_action(build_complex(spec, g), spec.p)
        assert out.status == "found"
        cases.append((name, out.table))
    rng = Random(15)
    for spec in RANDOM_SPECS:
        for g in RANDOM_GRAPHS:
            ambient = build_complex(spec, g)
            for p in (3, 5):
                for i in range(6):
                    name = f"{spec.describe()} on {g.vertices} p={p} #{i}"
                    cases.append((name, _random_pp_table(ambient, p, rng)))
    cases += _guard_cases()
    digest = hashlib.sha256()
    for name, table in cases:
        digest.update(f"{name}\n{_read_out(table)}\n".encode())
    assert digest.hexdigest() == G_FUNCTION_SHA256


_X4 = free(("x", 4))
_X2 = free(("x", 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: adem_relation(3, 1, 3), "P^3 P^1 is already admissible at p=3"),
        (lambda: SteenrodTable(3, _X4, {("x", 0): _X4.zero(3)}), "bad operation index 0 for 'x'"),
        (
            lambda: SteenrodTable(3, _X4, {("x", 1): _X2.zero(3)}),
            "entry P^1(x) lives in the wrong algebra",
        ),
        (lambda: parse_element("a*x^2", _X4, 3), "bad coefficient in term 'a*x^2'"),
        (
            lambda: parse_table("Q^1(x) = 0\n", _X4, 3),
            "line 1: expected `P^<k>(<generator>) = <element>`",
        ),
        (lambda: parse_table("P^1(x) = 0\nP^a(x) = 0\n", _X4, 3), "line 2: bad operation index 'a'"),
        (
            lambda: cartan_extend(SteenrodTable(3, _X4), _X4.generator_element("x", 3), -1),
            "operation index must be non-negative",
        ),
        (
            lambda: cartan_extend(SteenrodTable(3, _X4), _X2.generator_element("x", 3), 1),
            "element does not live in the table's algebra",
        ),
    ],
    ids=[
        "admissible-pair",
        "index-below-1",
        "other-algebra-entry",
        "bad-coefficient",
        "malformed-line",
        "bad-index",
        "negative-k",
        "other-algebra-element",
    ],
)
def test_steenrod_input_errors(call, message):
    with pytest.raises(ContractError) as exc:
        call()
    assert str(exc.value) == message


# -- the packed engine against the dense reference ---------------------------
#
# `tests/helpers.py` keeps the verifier's dense engine as the reference: the
# packed engine must give the same P^k, the same relation report, and name
# the same missing entry.

_ENGINE_SPECS = [
    FamilySpec("B", (2,)),
    FamilySpec("B", (3,)),
    FamilySpec("Ap", (2, 1), 3),
    FamilySpec("Bp", (1, 1), 5),
    FamilySpec("A", (1, 1)),
]
_ENGINE_GRAPHS = [
    complete_graph(2),
    complete_graph(3),
    cycle_graph(4),
    path_graph(3),
    Graph.build([], []),
]
_ENGINE_FREE = [
    free(("x", 2), ("y", 4)),
    free(("x", 4), ("y", 8), ("z", 8)),
    free(("x", 6), ("y", 12)),
]


def _engine_ambient(choice: int, p_choice: int):
    """A join complex at the family's prime, or a free algebra at p = 3 or 5."""
    if choice < len(_ENGINE_SPECS) * len(_ENGINE_GRAPHS):
        spec = _ENGINE_SPECS[choice % len(_ENGINE_SPECS)]
        g = _ENGINE_GRAPHS[choice // len(_ENGINE_SPECS)]
        return build_complex(spec, g), spec.p or 3
    return _ENGINE_FREE[choice % len(_ENGINE_FREE)], (3, 5)[p_choice]


def _random_table(ambient, p: int, rng: Random, density: float) -> SteenrodTable:
    """Every entry below the top drawn over the search's cut bases, and every
    forced top stored."""
    entries = {}
    for block in unknown_entry_blocks(ambient, p)[0]:
        terms = {m: rng.randrange(p) for m in block.basis if rng.random() < density}
        entries[(block.label, block.k)] = AlgebraElement.make(ambient, p, terms)
    for label, d in zip(ambient.gen_labels, ambient.gen_degrees):
        entries[(label, d // 2)] = forced_top(ambient, label, p)
    return SteenrodTable(p, ambient, entries)


def _random_element(ambient, p: int, rng: Random) -> AlgebraElement:
    terms = {}
    for degree in rng.sample(range(0, 17, 2), 2):
        for m in ambient.monomial_basis(degree):
            if rng.random() < 0.4:
                terms[m] = rng.randrange(p)
    return AlgebraElement.make(ambient, p, terms)


def _outcome(call):
    try:
        return call()
    except IncompleteTableError as exc:
        return ("missing", exc.generator, exc.k)


_ENGINE_CHOICES = len(_ENGINE_SPECS) * len(_ENGINE_GRAPHS) + len(_ENGINE_FREE)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, _ENGINE_CHOICES - 1),
    st.integers(0, 1),
    st.integers(0, 2**32),
    st.sampled_from([0.1, 0.4, 1.0]),
)
def test_packed_engine_agrees_with_dense_reference(choice, p_choice, seed, density):
    """cartan_extend on random elements and the relation report of random
    tables, under the default and the full Adem relation set, equal the
    dense engine's."""
    ambient, p = _engine_ambient(choice, p_choice)
    rng = Random(seed)
    table = _random_table(ambient, p, rng, density)
    for _ in range(3):
        a = _random_element(ambient, p, rng)
        for k in range(6):
            assert cartan_extend(table, a, k) == reference_cartan_extend(table, a, k), (a, k)
    for relations in (None, full_adem_relation_set(ambient, p, 2 * p * p + 2 * p)):
        got = check_relations(table, relations).to_text()
        assert got == reference_check_relations(table, relations).to_text()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, _ENGINE_CHOICES - 1), st.integers(0, 1), st.integers(0, 2**32))
def test_missing_entries_are_named_as_by_the_reference(choice, p_choice, seed):
    """A table missing one or two entries below the top raises the
    reference's IncompleteTableError, label and k: the entries are read in
    the same order, and no entry the reference does not read is read."""
    ambient, p = _engine_ambient(choice, p_choice)
    rng = Random(seed)
    table = _random_table(ambient, p, rng, 0.4)
    degree = dict(zip(ambient.gen_labels, ambient.gen_degrees))
    below_top = [(label, k) for label, k in table.entries if 2 * k < degree[label]]
    for key in rng.sample(below_top, min(len(below_top), rng.randint(1, 2))):
        del table.entries[key]
    relations = full_adem_relation_set(ambient, p, 2 * p * p + 2 * p)
    got = _outcome(lambda: check_relations(table, relations).to_text())
    assert got == _outcome(lambda: reference_check_relations(table, relations).to_text())
    a = _random_element(ambient, p, rng)
    for k in range(6):
        got = _outcome(lambda: cartan_extend(table, a, k))
        assert got == _outcome(lambda: reference_cartan_extend(table, a, k))


def test_missing_entries_are_read_in_generator_order():
    """Both factors of y*z miss P^1: the earlier generator is named."""
    amb = free(("x", 4), ("y", 8), ("z", 8))
    table = SteenrodTable(3, amb, {("y", 2): amb.zero(3), ("z", 2): amb.zero(3)})
    yz = amb.monomial({"y": 1, "z": 1})
    a = AlgebraElement.make(amb, 3, {yz: 1})
    for k in (1, 2):
        assert _outcome(lambda: cartan_extend(table, a, k)) == ("missing", "y", 1)
        assert _outcome(lambda: reference_cartan_extend(table, a, k)) == ("missing", "y", 1)


def test_packed_fields_hold_the_largest_exponent():
    """x:2 at p = 3: P^e(x^e) = x^(3e) is the top, and x^63 fills a 6-bit
    field exactly; check_relations at degree bound 100 reaches x^50."""
    amb = free(("x", 2))
    table = SteenrodTable(3, amb, {})
    x = amb.generator_element("x", 3)
    for e in (1, 5, 21, 22):
        for k in range(e + 2):
            assert cartan_extend(table, x**e, k) == reference_cartan_extend(table, x**e, k)
        assert cartan_extend(table, x**e, e) == x ** (3 * e)
        assert cartan_extend(table, x**e, e + 1).is_zero()
    report = check_relations(table, degree_bound=100)
    assert report.to_text() == reference_check_relations(table, degree_bound=100).to_text()


def test_an_inhomogeneous_relation_is_a_contract_error():
    """A relation is homogeneous by construction: an rhs term whose operations
    raise the degree further or less far than its lhs is rejected when the
    relation is built, so no checker or search meets one. The check is an
    `if`/`raise`, so it holds under python -O too. Every Adem relation is
    homogeneous, so building one raises nothing."""
    with pytest.raises(ContractError, match="another degree"):
        PowerRelation("P^1P^1 = P^3", (1, 1), ((1, 3, 0),))
    with pytest.raises(ContractError, match="another degree"):
        PowerRelation("P^1P^3", (1, 3), ((1, 1, 1),))
    for p in (3, 5, 7):
        for b in range(1, 4):
            for a in range(1, p * b):
                adem_relation(a, b, p)
