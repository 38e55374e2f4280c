"""Partitions, decomposition search, multiset decomposability, verdicts."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sr_chroma
from helpers import (
    CENSUS_SPECS,
    all_graphs,
    complete_graph,
    cycle_graph,
    empty_graph,
    odd_slot_splits,
    oracle_maximal_faces,
    oracle_multiset_decomposable,
    oracle_verify_partition,
    random_graph,
    reference_anderson_grodal_allowed,
    reference_coloring_partition,
    reference_decompose_s,
)
from sr_chroma import realize as realize_module
from sr_chroma.algebra import JoinComplex
from sr_chroma.errors import ContractError
from sr_chroma.families import FamilySpec, build_complex
from sr_chroma.graph import Coloring, Graph, chromatic_number, coloring_is_valid
from sr_chroma.realize import (
    DEFAULT_FAMILY,
    AndersonGrodalFamily,
    ExplicitFamily,
    Partition,
    _construction_plan,
    _decompose_multiset,
    _decomposition_blocks,
    _general_sizes,
    _index_blocks_pass,
    _layout,
    check_realizable,
    decompose_s,
    load_family_file,
    multiset_decomposable,
    scheme_multisets,
    sufficiency_partition,
    validate_decomposition,
    verify_partition,
    verify_partition_family,
)


def test_scheme_multisets():
    assert scheme_multisets(3, "A") == ((4, 6, 8), (4, 6))
    assert scheme_multisets(3, "B") == ((4, 8), (4,))
    assert scheme_multisets(5, "A") == ((4, 6, 8, 10, 12), (4, 6, 8, 10))
    assert scheme_multisets(5, "B") == ((4, 8, 12), (4, 8))


def test_partition_from_coloring_identity_on_k3():
    # the construction on a uniform family is the coloring partition
    k = build_complex(FamilySpec("Ap", (3, 3), 3), complete_graph(3))
    _, coloring = chromatic_number(k.graph)
    assert coloring.assignment == {"1": 1, "2": 2, "3": 3}
    part = sufficiency_partition(k)
    assert part == reference_coloring_partition(k, coloring)
    # x1^(1), x2^(1), x3^(1), x1^(2), x2^(2), x3^(2), y_1, y_2, y_3
    assert part.blocks == (frozenset({0, 3, 6}), frozenset({1, 4, 7}), frozenset({2, 5, 8}))
    assert part.label_blocks(k) == [
        ["x1^(1)", "x1^(2)", "y_1"],
        ["x2^(1)", "x2^(2)", "y_2"],
        ["x3^(1)", "x3^(2)", "y_3"],
    ]
    assert verify_partition(k, part, "A")


def test_partition_from_coloring_empty_graph():
    k = build_complex(FamilySpec("Ap", (2, 2), 3), Graph.build([], []))
    part = sufficiency_partition(k)
    assert part == reference_coloring_partition(k, Coloring(0, {}))
    assert part.blocks == (frozenset({0, 2}), frozenset({1, 3}))
    assert part.label_blocks(k) == [["x1^(1)", "x1^(2)"], ["x2^(1)", "x2^(2)"]]
    assert verify_partition(k, part, "A")


def test_partition_from_coloring_b5_edge():
    k = build_complex(FamilySpec("Bp", (2, 2), 5), complete_graph(2))
    _, coloring = chromatic_number(k.graph)
    assert coloring.assignment == {"1": 1, "2": 2}
    part = sufficiency_partition(k)
    assert part == reference_coloring_partition(k, coloring)
    assert part.blocks == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    assert part.serialize(k) == "V_1: x1^(1), x1^(2), y_1\nV_2: x2^(1), x2^(2), y_2\n"
    assert verify_partition(k, part, "B")


def test_verify_partition_one_block_fails():
    k = build_complex(FamilySpec("Ap", (2, 2), 3), complete_graph(3))
    one_block = Partition((frozenset(range(k.num_generators)),))
    assert not verify_partition(k, one_block, "A")


def test_verify_partition_requires_coverage():
    k = build_complex(FamilySpec("B", (1,)), complete_graph(2))
    with pytest.raises(ContractError, match="cover"):
        verify_partition(k, Partition((frozenset({0}),)), "B")


def test_coloring_partitions_verify_on_random_graphs():
    rng = Random(29)
    for _ in range(15):
        g = random_graph(rng, 5)
        chi, coloring = chromatic_number(g)
        for p, scheme, kind in ((3, "A", "Ap"), (5, "B", "Bp")):
            width = p - 1 if kind == "Ap" else (p - 1) // 2
            spec = FamilySpec(kind, (chi,) * width, p)
            k = build_complex(spec, g)
            part = reference_coloring_partition(k, coloring)
            assert verify_partition(k, part, scheme)


def test_decompose_length_two_equivalence():
    for s1 in range(7):
        for s2 in range(7):
            for c in range(7):
                got = decompose_s((s1, s2), c)
                expect = s1 >= s2 and s1 >= c
                assert (got is not None) == expect
                if got is not None:
                    validate_decomposition((s1, s2), got[0], got[1], c)


def test_decompose_examples():
    assert decompose_s((1, 1), 3) is None
    got = decompose_s((5, 3, 4, 2), 3)
    assert got is not None
    validate_decomposition((5, 3, 4, 2), got[0], got[1], 3)
    # downward lexicographic order on the odd slots picks (2,2) first
    assert got == ((3, 3, 2, 2), (2, 0, 2, 0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.integers(0, 5),
)
def test_decompose_soundness(s, c):
    got = decompose_s(tuple(s), c)
    if got is not None:
        validate_decomposition(tuple(s), got[0], got[1], c)


def test_decompose_matches_the_enumeration_on_every_small_input():
    for n in range(1, 7):
        for s in itertools.product(range(5), repeat=n):
            for c in range(8):
                assert decompose_s(s, c) == reference_decompose_s(s, c), (s, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 6), min_size=7, max_size=12),
    st.integers(0, 8),
)
def test_decompose_matches_the_enumeration_on_longer_vectors(s, c):
    assert decompose_s(tuple(s), c) == reference_decompose_s(tuple(s), c)


def _split_partition(
    k: JoinComplex, s_prime: tuple[int, ...], s_dprime: tuple[int, ...], coloring: Coloring
) -> Partition:
    """The decomposition construction from a given split of k's general
    block-size vector rather than `decompose_s`'s: the split is validated
    against the coloring's color count, laid out, given the color classes
    and checked to partition k's generators."""
    chi = coloring.num_colors
    validate_decomposition(_general_sizes(k.blocks, k.graph_degree), s_prime, s_dprime, chi)
    part = Partition(_decomposition_blocks(k, _layout(k.blocks, chi, (s_prime, s_dprime)), coloring))
    part.validate_against(k)
    return part


def test_partition_from_decomposition_seven_block_shape():
    # s' = (5,4,3,2), s'' = (2,0,1,0), c = 2 on a single edge
    g = complete_graph(2)
    spec = FamilySpec("A", (7, 4, 4, 2))
    k = build_complex(spec, g)
    _, coloring = chromatic_number(g)
    part = _split_partition(k, (5, 4, 3, 2), (2, 0, 1, 0), coloring)
    level_sets = [
        sorted({lbl.split("^")[1] for lbl in block if lbl.startswith("x")})
        for block in part.label_blocks(k)
    ]
    assert level_sets == [
        ["(1)", "(2)", "(3)", "(4)"],  # colored, i = 1..c
        ["(1)", "(2)", "(3)", "(4)"],
        ["(1)", "(2)", "(3)"],  # s'_4 < i <= s'_3
        ["(1)", "(2)"],
        ["(1)"],
        ["(1)", "(3)"],  # odd chain from s''_3
        ["(1)"],  # odd chain tail from s''_1
    ]
    assert verify_partition_family(k, part)


def test_partition_from_decomposition_even_case_two():
    # s'_n < c forces the colored odd chains (s_4 = 1 < chi = 3 in any split)
    g = cycle_graph(5)
    chi, coloring = chromatic_number(g)
    s = (6, 2, 4, 1)
    dec = decompose_s(s, chi)
    assert dec == ((2, 2, 1, 1), (4, 0, 3, 0))
    k = build_complex(FamilySpec("A", s), g)
    part = _split_partition(k, dec[0], dec[1], coloring)
    assert verify_partition_family(k, part)


def test_partition_from_decomposition_odd_length():
    g = Graph.build(["v"], [])
    chi, coloring = chromatic_number(g)
    for s in [(2, 1), (2, 1, 1), (3, 2, 2, 1, 1)]:
        dec = decompose_s(s, chi)
        assert dec is not None
        k = build_complex(FamilySpec("A", s), g)
        part = _split_partition(k, dec[0], dec[1], coloring)
        assert verify_partition_family(k, part)


def test_partition_from_decomposition_random():
    # general A complexes, then B-style ones (degree-4j blocks at odd levels)
    rng = Random(31)

    def general_spec():
        return FamilySpec("A", tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 6))))

    def b_style_spec():
        r = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 3)))
        return FamilySpec(rng.choice(("B", "Bp")) if len(r) == 1 else "Bp", r, 2 * len(r) + 1)

    for draw in (general_spec, b_style_spec):
        trials = 0
        while trials < 25:
            spec = draw()
            if not any(spec.vector):
                continue
            g = random_graph(rng, 5)
            chi, coloring = chromatic_number(g)
            k = build_complex(spec, g)
            dec = decompose_s(_general_sizes(k.blocks, k.graph_degree), chi)
            if dec is None:
                continue
            trials += 1
            part = _split_partition(k, dec[0], dec[1], coloring)
            assert verify_partition_family(k, part)


def test_sufficiency_partition_validates_its_split_once(monkeypatch):
    calls = []
    validate = realize_module.validate_decomposition

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(realize_module, "validate_decomposition", counting)
    outcomes = set()
    for g in all_graphs(3):
        for spec in (FamilySpec("A", (2, 2)), FamilySpec("B", (3,)), FamilySpec("Bp", (2, 1), 5)):
            k = build_complex(spec, g)
            _construction_plan.cache_clear()
            calls.clear()
            part = sufficiency_partition(k)
            # decompose_s checks the split it finds, and nothing checks it again
            assert len(calls) == (part is not None), (spec, g)
            outcomes.add(part is not None)
            # the split is kept with its layout, so a warm call validates nothing
            calls.clear()
            again = sufficiency_partition(k)
            assert calls == [] and again == part, (spec, g)
    assert outcomes == {True, False}  # specs with a split, and without one


def test_construction_plan_is_kept_per_shape_and_chi():
    # the split and layout read the graph only through chi, so a plan kept per
    # (block shape, graph degree, chi) must give the blocks a cold call builds;
    # one plan is made per key, so graphs of different chi never share one
    def cases():
        for g in (g for order in range(6) for g in all_graphs(order)):
            for spec in CENSUS_SPECS:
                for fam in (None, SOME_CHAINS):
                    yield build_complex(spec, g), fam

    def blocks(k, fam):
        part = sufficiency_partition(k, fam)
        return None if part is None else part.blocks

    cold = []
    for k, fam in cases():
        _construction_plan.cache_clear()
        cold.append(blocks(k, fam))
    _construction_plan.cache_clear()
    keys = set()
    for (k, fam), expected in zip(cases(), cold, strict=True):
        keys.add((k.blocks, k.graph_degree, chromatic_number(k.graph)[0]))
        assert blocks(k, fam) == expected, (k.blocks, k.graph.edges, fam)
    info = _construction_plan.cache_info()
    assert (info.misses, info.hits) == (len(keys), len(cold) - len(keys))
    assert len(keys) == 9 * 6  # each census shape at chi = 0..5
    outcomes = Counter((fam is None, got is not None) for (_, fam), got in zip(cases(), cold))
    assert len(outcomes) == 4 and min(outcomes.values()) > 100


def test_certificate_is_checked_on_every_call(monkeypatch):
    # the plan is kept, the certificate is not: each call that builds blocks
    # checks them under the default family, then under the caller's
    calls = []
    check = realize_module._index_blocks_pass

    def counting(k, blocks, fam):
        calls.append(fam)
        return check(k, blocks, fam)

    monkeypatch.setattr(realize_module, "_index_blocks_pass", counting)
    built = Counter()
    for g in (g for order in range(5) for g in all_graphs(order)):
        chi, _ = chromatic_number(g)
        for spec in CENSUS_SPECS:
            k = build_complex(spec, g)
            builds = _construction_plan.__wrapped__(k.blocks, k.graph_degree, chi) is not None
            for fam in (None, SOME_CHAINS):
                expected = ([DEFAULT_FAMILY] + ([fam] if fam else [])) * builds
                _construction_plan.cache_clear()
                for warmth in ("cold", "warm"):
                    calls.clear()
                    sufficiency_partition(k, fam)
                    assert calls == expected, (spec, g, fam, warmth)
                    built[warmth, builds] += 1
    assert built["warm", True] == built["cold", True] > 100 and built["warm", False] == built["cold", False] > 0


def test_check_realizable_checks_no_coloring(monkeypatch):
    # sufficiency_partition builds from chi's own witness, so no realize code
    # checks a coloring. The profile hook sees every call of
    # `coloring_is_valid`, however it is imported, with its caller's file
    check = coloring_is_valid.__code__
    callers = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is check:
            callers[frame.f_back.f_code.co_filename] += 1

    realizable = 0
    sys.setprofile(hook)
    try:
        for g in all_graphs(4):
            for spec in CENSUS_SPECS:
                realizable += check_realizable(spec, g).status == "CertifiedRealizable"
    finally:
        sys.setprofile(None)
    assert callers[realize_module.__file__] == 0 and realizable > 100
    # nor does it check one some other way: an improper witness goes through
    # to the construction's own multiset check, the one guard it has
    monkeypatch.setattr(realize_module, "chromatic_number", lambda g: (2, _IMPROPER))
    with pytest.raises(AssertionError, match="^decomposition construction failed its own multiset check$"):
        sufficiency_partition(_B3_EDGE)


def test_generators_are_named_only_for_the_report(monkeypatch):
    from sr_chroma import algebra

    named = Counter()

    def counting(name):
        label = getattr(algebra, name)

        def wrapped(*args):
            named[name] += 1
            return label(*args)

        return wrapped

    for name in ("x_label", "y_label"):
        monkeypatch.setattr(algebra, name, counting(name))
    verdict = check_realizable(FamilySpec("B", (3,)), complete_graph(3))
    assert verdict.status == "CertifiedRealizable"
    assert named == Counter()
    text = verdict.to_text()
    assert text.endswith("V_1: x1^(1), y_1\nV_2: x2^(1), y_2\nV_3: x3^(1), y_3")
    # the labels are derived once and kept on the complex
    assert verdict.to_text() == text
    assert named == Counter(x_label=3, y_label=3)


def test_edge_index_is_the_eager_construction():
    # built on first read, it is the index the complex used to build up front:
    # each edge (u, v), u before v, at generator indices x_count + position
    for g in all_graphs(4):
        for spec in CENSUS_SPECS:
            k = build_complex(spec, g)
            x_count = k.num_generators - len(g.vertices)
            at = {v: i for i, v in enumerate(g.vertices)}
            eager = frozenset((x_count + at[u], x_count + at[v]) for u, v in g.edges)
            assert "graph_edge_indices" not in vars(k)
            assert k.graph_edge_indices == eager, (spec, g.edges)
            assert k.graph_edge_indices is k.graph_edge_indices


def test_check_realizable_builds_no_edge_index(monkeypatch):
    build = JoinComplex.__dict__["graph_edge_indices"].func
    built = Counter()

    def counting(k):
        built[k.blocks] += 1
        return build(k)

    monkeypatch.setattr(JoinComplex, "graph_edge_indices", property(counting))
    verdicts = Counter()
    for g in all_graphs(4):
        for spec in CENSUS_SPECS:
            verdict = check_realizable(spec, g)
            verdicts[verdict.status] += 1
            verdict.to_text(), verdict.to_json_dict()
    assert built == Counter() and len(verdicts) == 3 and verdicts["CertifiedRealizable"] > 100
    # the count sees a read: a basis in the graph degree tests faces by edge
    k = build_complex(REPORT_SPECS[0], complete_graph(3))
    assert len(k.monomial_basis(2 * k.graph_degree)) > 0 and built[k.blocks] > 0


def test_label_blocks_lists_generator_order():
    # generator order is x1^(1), x2^(1), x3^(1), x1^(2), ...: x2^(1) comes
    # before x1^(2), though its label sorts after it
    k = build_complex(FamilySpec("Ap", (3, 3), 3), complete_graph(3))
    part = Partition((frozenset({7, 3, 1}), frozenset({8, 0})))
    assert part.label_blocks(k) == [["x2^(1)", "x1^(2)", "y_2"], ["x1^(1)", "y_3"]]


# -- oracle: the construction on every split ---------------------------------
#
# `sufficiency_partition` only ever builds from `decompose_s`'s first split;
# this pins the construction on every odd-slot split of the general size
# vector instead, valid or not, under a minimum coloring of every graph on at
# most 4 vertices. The digest is sha256 over each partition's serialization,
# or the ContractError's text, in the order below.

SPLIT_SPECS_SHA256 = "f22aa31b01d7f2b43df96ad2508bd18f906dcb44940190f0a3884df0eb3c44e3"


def _split_specs():
    def vectors(n, top):
        return itertools.product(range(top + 1), repeat=n)

    yield from (FamilySpec("A", s) for n in range(1, 4) for s in vectors(n, 3))
    yield from (FamilySpec("A", s) for s in vectors(4, 2))
    yield from (FamilySpec("Ap", s, 3) for s in vectors(2, 3))
    yield from (FamilySpec("Ap", s, 5) for s in vectors(4, 2))
    yield from (FamilySpec("B", s) for s in vectors(1, 4))
    yield from (FamilySpec("Bp", s, 5) for s in vectors(2, 3))
    yield from (FamilySpec("Bp", s, 7) for s in vectors(3, 3))


def test_partition_from_decomposition_on_every_split_oracle():
    digest = hashlib.sha256()
    layouts = Counter()
    specs = tuple(_split_specs())
    for g in (g for order in range(5) for g in all_graphs(order)):
        chi, coloring = chromatic_number(g)
        for spec in specs:
            k = build_complex(spec, g)
            s = _general_sizes(k.blocks, k.graph_degree)
            n = len(s)
            for s_prime, s_dprime in odd_slot_splits(s):
                try:
                    validate_decomposition(s, s_prime, s_dprime, chi)
                    layouts["odd n" if n % 2 else f"even n, s'_n {'>=' if s_prime[-1] >= chi else '<'} chi"] += 1
                except ContractError:
                    layouts["invalid"] += 1
                try:
                    out = _split_partition(k, s_prime, s_dprime, coloring).serialize(k)
                except ContractError as exc:
                    out = f"ContractError: {exc}\n"
                digest.update(out.encode())
    # each of the paper's layout cases is reached
    assert layouts == {"odd n": 643, "even n, s'_n >= chi": 818, "even n, s'_n < chi": 1947, "invalid": 90072}
    assert digest.hexdigest() == SPLIT_SPECS_SHA256


def test_general_shape_is_read_off_the_complex():
    def sizes(spec):
        k = build_complex(spec, complete_graph(2))
        return _general_sizes(k.blocks, k.graph_degree)

    assert sizes(FamilySpec("A", (2, 0, 1))) == (2, 0, 1)
    assert sizes(FamilySpec("Ap", (3, 1), 3)) == (3, 1)
    assert sizes(FamilySpec("B", (3,))) == (3, 0)
    assert sizes(FamilySpec("Bp", (3, 1, 2), 7)) == (3, 0, 1, 0, 2, 0)


@pytest.mark.parametrize(
    "blocks, graph_degree, message",
    [
        (((2, 4), (1, 10)), 8, "general level"),  # level 4 > n = 2
        (((2, 2),), 8, "general level"),  # level 0
        (((2, 4), (1, 4)), 8, "two blocks"),
        (((2, 4),), 4, "graph degree"),  # n = 0
    ],
)
def test_hand_built_complex_outside_the_general_shape(blocks, graph_degree, message):
    k = JoinComplex(blocks, complete_graph(2), graph_degree)
    with pytest.raises(ContractError, match=message):
        sufficiency_partition(k)


def test_decompose_rejects_negative_sizes():
    for s in ((-1, 2), (3, -1)):
        with pytest.raises(ContractError, match="non-negative"):
            decompose_s(s, 0)


def test_default_family_membership():
    fam = AndersonGrodalFamily()
    assert fam.is_allowed((2,))
    assert fam.is_allowed((4,))
    assert fam.is_allowed((4, 6, 8))
    assert fam.is_allowed((4, 8, 12))
    assert not fam.is_allowed((4, 6, 8, 8))
    assert not fam.is_allowed((6, 8))
    assert not fam.is_allowed(())


def test_multiset_examples():
    assert multiset_decomposable((4, 6, 8, 8)) is None
    assert multiset_decomposable((4, 4, 6, 6, 6, 8, 8)) is None
    got = multiset_decomposable((4, 4, 6, 8, 8))
    assert got == ((4, 6, 8), (4, 8))
    assert multiset_decomposable((2, 2)) == ((2,), (2,))
    for _ in range(3):  # an input error is never remembered as an answer
        for bad in ((4, 5), (0,)):
            with pytest.raises(ContractError):
                multiset_decomposable(bad)


def test_multiset_order_independence():
    rng = Random(37)
    for base in ([4, 4, 6, 8, 8, 12], [4, 6, 8, 8]):
        expected = multiset_decomposable(tuple(base))
        assert multiset_decomposable(base) == expected
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert multiset_decomposable(tuple(shuffled)) == expected
            assert multiset_decomposable(shuffled) == expected
    assert multiset_decomposable((12, 8, 8, 6, 4, 4)) == ((4, 8, 12), (4, 6, 8))


def test_multiset_matches_partition_oracle():
    rng = Random(41)
    fam = DEFAULT_FAMILY
    pool = [2, 4, 6, 8, 10, 12]
    for _ in range(40):
        ms = tuple(sorted(rng.choice(pool) for _ in range(rng.randint(1, 7))))
        got = multiset_decomposable(ms, fam)
        assert (got is not None) == oracle_multiset_decomposable(ms, fam)
        if got is not None:
            combined = sorted(itertools.chain.from_iterable(got))
            assert tuple(combined) == ms
            assert all(fam.is_allowed(b) for b in got)


def test_explicit_family_override():
    fam = ExplicitFamily(((4, 6, 8, 8),))
    assert multiset_decomposable((4, 6, 8, 8), fam) == ((4, 6, 8, 8),)
    loaded = load_family_file("# comment\n4,6,8,8\n2\n")
    assert loaded.is_allowed((4, 6, 8, 8))
    assert loaded.is_allowed((2,))
    with pytest.raises(ContractError):
        load_family_file("not numbers\n")


@pytest.mark.parametrize("line", ["4,-8", "4,7", "0", "6,8,3"])
def test_family_file_rejects_degrees_no_generator_has(line):
    with pytest.raises(ContractError, match=f"^line 3: degrees must be positive even integers, got '{line}'$"):
        load_family_file(f"4\n# comment\n{line}\n")


def test_check_realizable_non_examples():
    k3 = complete_graph(3)
    v = check_realizable(FamilySpec("A", (1, 1)), k3)
    assert v.status == "CertifiedNotRealizable"
    assert v.face_multiset == (4, 6, 8, 8)
    v = check_realizable(FamilySpec("A", (2, 3)), k3)
    assert v.status == "CertifiedNotRealizable"
    assert v.face_multiset == (4, 4, 6, 6, 6, 8, 8)


def test_check_realizable_uniform_positive():
    v = check_realizable(FamilySpec("B", (3,)), complete_graph(3))
    assert v.status == "CertifiedRealizable"
    assert v.partition is not None
    v5 = check_realizable(FamilySpec("Ap", (2,) * 4, 5), cycle_graph(4))
    assert v5.status == "CertifiedRealizable"


def test_check_realizable_span_gap():
    v = check_realizable(FamilySpec("B", (2,)), complete_graph(3))
    assert v.status == "CertifiedNotRealizable"
    assert v.span_gap == (3, 3, 2)
    # same block sizes under the A_p tag: the span necessary condition fires first
    v2 = check_realizable(FamilySpec("Ap", (2, 2), 3), cycle_graph(5))
    assert v2.status == "CertifiedNotRealizable"
    assert v2.span_gap == (3, 3, 2)


def test_check_realizable_inconclusive():
    # general tag: no span bound applies, multisets decompose, decomposition fails
    v = check_realizable(FamilySpec("A", (2, 2)), cycle_graph(5))
    assert v.status == "Inconclusive"
    assert v.partition is None and v.span_gap is None and v.face is None


def test_check_realizable_general_positive():
    v = check_realizable(FamilySpec("A", (5, 3, 4, 2)), complete_graph(3))
    assert v.status == "CertifiedRealizable"
    k = build_complex(FamilySpec("A", (5, 3, 4, 2)), complete_graph(3))
    assert verify_partition_family(k, v.partition)


def test_check_realizable_bp_general_path():
    # non-uniform B_p goes through the interleaved decomposition
    v = check_realizable(FamilySpec("Bp", (3, 1), 5), complete_graph(2))
    assert v.status in ("CertifiedRealizable", "CertifiedNotRealizable", "Inconclusive")
    if v.status == "CertifiedRealizable":
        k = build_complex(FamilySpec("Bp", (3, 1), 5), complete_graph(2))
        assert verify_partition_family(k, v.partition)


def test_verdict_trichotomy_fields():
    cases = [
        check_realizable(FamilySpec("A", (1, 1)), complete_graph(3)),
        check_realizable(FamilySpec("B", (3,)), complete_graph(3)),
        check_realizable(FamilySpec("A", (2, 2)), cycle_graph(5)),
    ]
    for v in cases:
        assert v.status in ("CertifiedRealizable", "CertifiedNotRealizable", "Inconclusive")
        if v.status == "CertifiedRealizable":
            assert v.partition is not None and v.span_gap is None and v.face is None
        elif v.status == "CertifiedNotRealizable":
            assert v.partition is None
            assert (v.span_gap is None) != (v.face is None)
        else:
            assert v.partition is None and v.span_gap is None and v.face is None


def test_sufficiency_partition_is_the_coloring_partition_on_uniform_families():
    # the decomposition construction reproduces the uniform coloring partition
    # wherever that applies (chi <= n)
    cases = 0
    for order in range(6):
        for g in all_graphs(order):
            chi, coloring = chromatic_number(g)
            for n in (chi, chi + 1):
                for spec in (
                    FamilySpec("B", (n,)),
                    FamilySpec("Bp", (n, n), 5),
                    FamilySpec("Ap", (n, n), 3),
                    FamilySpec("Ap", (n,) * 4, 5),
                ):
                    k = build_complex(spec, g)
                    expect = reference_coloring_partition(k, coloring)
                    assert sufficiency_partition(k) == expect, (spec, g)
                    cases += 1
    assert cases == 8 * sum(2 ** (v * (v - 1) // 2) for v in range(6))


TWO_FAMILIES = (ExplicitFamily(((4,), (8,))), ExplicitFamily(((4,), (6,), (8,))))
# admits the blocks of B's coloring partitions, so some verdicts under it are positive
SOME_CHAINS = ExplicitFamily(((4,), (4, 8), (4, 6, 8)))


def test_membership_is_derived_from_the_lists():
    # a family states only its lists per top degree; `is_allowed` is read off
    # them, so it must agree with the closed form and with plain list lookup
    rng = Random(53)
    explicit = (ExplicitFamily(((4, 6, 8, 8),)), SOME_CHAINS) + TWO_FAMILIES
    checked = 0
    for length in range(6):
        for ms in itertools.combinations_with_replacement(range(2, 25, 2), length):
            shuffled = list(ms)
            rng.shuffle(shuffled)
            for order in (ms, tuple(shuffled)):
                assert DEFAULT_FAMILY.is_allowed(order) == reference_anderson_grodal_allowed(order), order
                for fam in explicit:
                    assert fam.is_allowed(order) == (bool(ms) and ms in fam.allowed), (fam.allowed, order)
            checked += 1
    assert checked == 6188
    # no family allows the empty multiset, even one that lists it
    assert not ExplicitFamily(((), (4,))).is_allowed(())


def test_multiset_memo_keeps_each_familys_answer():
    _decompose_multiset.cache_clear()
    rng = Random(47)
    families = (DEFAULT_FAMILY,) + TWO_FAMILIES
    pool = [2, 4, 6, 8, 10, 12]
    multisets = [(4, 6, 8), (4, 6, 8, 8), (8, 8), (4, 8, 12)]
    multisets += [tuple(sorted(rng.choice(pool) for _ in range(rng.randint(1, 6)))) for _ in range(30)]
    for _ in range(2):  # cold, then from the memo
        for ms in multisets:
            for fam in families:
                got = multiset_decomposable(ms, fam)
                assert got == _decompose_multiset.__wrapped__(ms, fam)
                assert (got is not None) == oracle_multiset_decomposable(ms, fam)
    # the three families answer (4, 6, 8) differently, so a shared entry would show
    assert [multiset_decomposable((4, 6, 8), fam) for fam in families] == [
        ((4, 6, 8),),
        None,
        ((8,), (6,), (4,)),
    ]


def test_partition_rejected_by_callers_family_is_not_certified():
    edge = complete_graph(2)
    fam48, fam468 = TWO_FAMILIES
    assert sufficiency_partition(build_complex(FamilySpec("B", (2,)), edge), fam48) is None
    assert check_realizable(FamilySpec("B", (2,)), edge, fam48).status == "Inconclusive"
    assert sufficiency_partition(build_complex(FamilySpec("A", (2, 1)), edge), fam468) is None
    assert check_realizable(FamilySpec("A", (2, 1)), edge, fam468).status == "Inconclusive"
    # the default family still certifies both
    assert check_realizable(FamilySpec("B", (2,)), edge).status == "CertifiedRealizable"
    assert check_realizable(FamilySpec("A", (2, 1)), edge).status == "CertifiedRealizable"


def test_certified_partitions_pass_the_family_they_were_checked_with():
    rng = Random(41)
    specs = (
        FamilySpec("B", (2,)),
        FamilySpec("B", (3,)),
        FamilySpec("Bp", (3, 2), 5),
        FamilySpec("Ap", (2, 1), 3),
        FamilySpec("A", (2, 1)),
        FamilySpec("A", (1,)),
    )
    statuses = Counter()
    for _ in range(30):
        g = random_graph(rng, 5)
        for spec in specs:
            for fam in (None, SOME_CHAINS) + TWO_FAMILIES:
                verdict = check_realizable(spec, g, fam)
                statuses[fam is None, verdict.status] += 1
                if verdict.status == "CertifiedRealizable":
                    assert verify_partition_family(verdict.complex, verdict.partition, fam)
    assert statuses[True, "CertifiedRealizable"] and statuses[False, "CertifiedRealizable"]
    assert statuses[False, "Inconclusive"]


def _random_partitions(rng: Random, k: JoinComplex, count: int) -> list[Partition]:
    """`count` partitions with generators dealt to random blocks, then `count`
    whose blocks hold only x generators or only graph generators."""
    y_indices = list(k.graph_generator_indices())
    x_indices = [i for i in range(k.num_generators) if not k.is_graph_generator(i)]
    parts = []
    for groups in [[list(range(k.num_generators))]] * count + [[x_indices, y_indices]] * count:
        blocks = []
        for indices in groups:
            slots = [[] for _ in range(rng.randint(1, max(1, len(indices))))]
            for i in indices:
                slots[rng.randrange(len(slots))].append(i)
            blocks += [frozenset(b) for b in slots if b]
        parts.append(Partition(tuple(blocks)))
    return parts


def test_verify_partition_family_matches_face_oracle():
    rng = Random(43)
    specs = (
        FamilySpec("B", (2,)),
        FamilySpec("Bp", (2, 1), 5),
        FamilySpec("Ap", (2, 1), 3),
        FamilySpec("A", (1, 2)),
    )
    families = (DEFAULT_FAMILY, SOME_CHAINS) + TWO_FAMILIES
    # the graph with no vertex, an edgeless graph, an edge plus an isolated
    # vertex and K4 pin each branch of the closed form; then random graphs
    fixed = [
        Graph.build([], []),
        empty_graph(3),
        Graph.build(["a", "b", "c"], [("a", "b")]),
        complete_graph(4),
    ]
    outcomes = Counter()
    doors = 0
    for g in fixed + [random_graph(rng, 5) for _ in range(12)]:
        for spec in specs:
            k = build_complex(spec, g)
            faces = oracle_maximal_faces(k)
            assert sorted(map(sorted, faces)) == sorted(map(sorted, k.maximal_faces()))
            parts = _random_partitions(rng, k, 10)
            certified = sufficiency_partition(k)
            if certified is not None:
                parts.append(certified)
                # the two doors agree: the public check on the certificate
                # and the index check on the construction's own blocks
                chi, coloring = chromatic_number(g)
                blocks = _decomposition_blocks(k, _construction_plan(k.blocks, k.graph_degree, chi), coloring)
                assert certified.blocks == blocks
                for fam in families:
                    assert verify_partition_family(k, certified, fam) == _index_blocks_pass(k, blocks, fam)
                    doors += 1
            for part in parts:
                for fam in families:
                    got = verify_partition_family(k, part, fam)
                    assert got == oracle_verify_partition(k, part, fam, faces), (spec, g, part)
                    outcomes[got] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50
    assert doors > 40


def test_face_witness_for_each_graph_face_size():
    # the witness is the first face of the first failing size t: an edge, an
    # isolated vertex, or the empty graph face
    cases = [
        (("A", (1, 1)), Graph.build(["a", "b", "c"], [("a", "b")]), ("x1^(1)", "x1^(2)", "y_a", "y_b"), (4, 6, 8, 8)),
        (("A", (0,)), Graph.build(["a"], []), ("y_a",), (6,)),
        (("A", (0, 1)), Graph.build([], []), ("x1^(2)",), (6,)),
    ]
    for (kind, vector), g, face, multiset in cases:
        verdict = check_realizable(FamilySpec(kind, vector), g)
        assert verdict.status == "CertifiedNotRealizable"
        assert (verdict.face, verdict.face_multiset) == (face, multiset)
        assert frozenset(face) in build_complex(FamilySpec(kind, vector), g).maximal_faces()


# -- oracle: the realizability reports, text and JSON ------------------------
#
# A refactor of the realize layer must leave every report byte-identical. The
# digest is sha256 over `to_text()` and the sorted-key JSON of every verdict,
# in the order below: all graphs on 4 vertices plus 16 seeded graphs on 6-7
# vertices, the 9 benchmark census families plus four shapes with zero-size or
# uneven blocks, under the default family and the three explicit ones above.

REPORT_SPECS = CENSUS_SPECS + (
    FamilySpec("Bp", (3, 1), 5),
    FamilySpec("A", (2, 0, 1)),
    FamilySpec("Bp", (2, 0), 5),
    FamilySpec("Ap", (1, 0), 3),
)
REPORTS_SHA256 = "b46bbfbc2daae27207d6895f72167d7d12687f5a42f6b7ec8bdfc06316ae8935"


def _report_graphs():
    yield from all_graphs(4)
    rng = Random(47)
    for _ in range(16):
        labels = [str(i + 1) for i in range(rng.randint(6, 7))]
        pairs = itertools.combinations(labels, 2)
        yield Graph.build(labels, [e for e in pairs if rng.random() < 0.4])


def test_realizability_reports_oracle():
    digest = hashlib.sha256()
    for g in _report_graphs():
        for spec in REPORT_SPECS:
            for fam in (None, SOME_CHAINS) + TWO_FAMILIES:
                verdict = check_realizable(spec, g, fam)
                digest.update(verdict.to_text().encode())
                digest.update(json.dumps(verdict.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == REPORTS_SHA256


# Prints chi, the s_p-chi witnesses and the realizability reports, each in the
# library's own order, for 30 seeded graphs and the Fano antiflag graph.
_HASH_SEED_SCRIPT = """
from random import Random

from helpers import antiflag_graph, random_graph
from sr_chroma.families import FamilySpec
from sr_chroma.graph import chromatic_number
from sr_chroma.realize import check_realizable
from sr_chroma.span import span_chromatic_number

specs = [
    FamilySpec("B", (3,)),
    FamilySpec("A", (3, 3, 3)),
    FamilySpec("Ap", (5, 5), 3),
    FamilySpec("Bp", (6, 4), 5),
    FamilySpec("Ap", (5, 5, 5, 5), 5),
]
rng = Random(59)
cases = [(random_graph(rng, 9), (2, 3, 5), specs) for _ in range(30)]
cases.append((antiflag_graph(2), (2, 3), specs[:3]))  # s_5-chi and p = 5 cost 0.3 s more
for g, primes, graph_specs in cases:
    chi, coloring = chromatic_number(g)
    print(f"chi = {chi}: {coloring.assignment}")
    for p in primes:
        n, witness = span_chromatic_number(g, p)
        print(f"s_{p}chi = {n}\\n{witness.serialize()}", end="")
    for spec in graph_specs:
        print(check_realizable(spec, g).to_text())
"""


def test_reports_are_byte_identical_across_hash_seeds():
    # the suite runs in one process under one hash seed, so only separate
    # processes show an answer or a report that follows set iteration order
    src = Path(sr_chroma.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0].count("status: ") == 30 * 5 + 3
    assert outputs[0] == outputs[1]


_B1_EDGE = build_complex(FamilySpec("B", (1,)), complete_graph(2))
_B3_EDGE = build_complex(FamilySpec("B", (3,)), complete_graph(2))
_IMPROPER = Coloring(2, {"1": 1, "2": 1})
# _B1_EDGE's generators are x1^(1), y_1, y_2
_OVERLAPPING = Partition((frozenset({0, 1}), frozenset({1, 2})))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: _OVERLAPPING.validate_against(_B1_EDGE),
            "partition blocks overlap on ['y_1']",
        ),
        (
            lambda: Partition((frozenset({0, 1}), frozenset({2, 3}))).validate_against(_B1_EDGE),
            "partition holds generator indices [3] outside 0..2",
        ),
        (lambda: scheme_multisets(3, "C"), "unknown scheme 'C'"),
        (lambda: load_family_file("# no lists\n\n"), "multiset family file lists no multisets"),
        (lambda: decompose_s((1,), -1), "chromatic bound must be non-negative"),
        (lambda: decompose_s((), 1), "empty size vector"),
        (lambda: validate_decomposition((2, 1), (2,), (0, 0), 0), "decomposition length mismatch"),
        (lambda: validate_decomposition((2, 1), (2, 0), (0, 0), 0), "s' + s'' does not reconstruct s"),
        (
            lambda: validate_decomposition((2, 1), (3, 1), (-1, 0), 0),
            "decomposition entries must be non-negative",
        ),
        (lambda: validate_decomposition((1, 2), (1, 2), (0, 0), 0), "s' must be weakly decreasing"),
        (lambda: validate_decomposition((2, 2), (2, 1), (0, 1), 0), "s'' must vanish in even slots"),
        (
            lambda: validate_decomposition((1, 0, 2), (1, 0, 0), (0, 0, 2), 0),
            "s'' must be weakly decreasing along odd slots",
        ),
        (
            lambda: validate_decomposition((1, 1), (1, 1), (0, 0), 3),
            "tail condition s''_{2k-1} + s'_{2k} >= c fails",
        ),
        (lambda: validate_decomposition((1,), (1,), (0,), 2), "tail condition s'_{2k+1} >= c fails"),
    ],
    ids=[
        "overlapping-blocks",
        "index-outside",
        "unknown-scheme",
        "empty-family-file",
        "negative-c",
        "empty-vector",
        "length-mismatch",
        "no-reconstruction",
        "negative-entry",
        "s-prime-increasing",
        "even-slot",
        "odd-slots-increasing",
        "tail-even",
        "tail-odd",
    ],
)
def test_realize_input_errors(call, message):
    with pytest.raises(ContractError) as exc:
        call()
    assert str(exc.value) == message
