"""The package's public surface."""

from __future__ import annotations

import inspect

import sr_chroma

# every name `sr_chroma/__init__.py` exports; a change here is an API change,
# to be declared with the change that makes it
PUBLIC_NAMES = [
    "AlgebraElement",
    "AndersonGrodalFamily",
    "CheckReport",
    "Coloring",
    "ContractError",
    "DegreeMultisetFamily",
    "ExplicitFamily",
    "FamilySpec",
    "FpVector",
    "FreePolynomialAlgebra",
    "Graph",
    "GraphParseError",
    "IncompleteTableError",
    "JoinComplex",
    "Monomial",
    "NecessaryOutcome",
    "Partition",
    "PowerRelation",
    "RealizabilityVerdict",
    "SearchOutcome",
    "SearchSpaceExceeded",
    "SpanColoring",
    "SrChromaError",
    "SteenrodTable",
    "adem_relation",
    "build_complex",
    "cartan_extend",
    "check_ideal_preservation",
    "check_realizable",
    "check_relations",
    "check_table",
    "check_unstability",
    "chromatic_number",
    "cokernel_report",
    "coloring_from_action",
    "coloring_is_valid",
    "decompose_s",
    "default_relation_set",
    "full_adem_relation_set",
    "load_family_file",
    "multiset_decomposable",
    "necessary_condition",
    "parse_element",
    "parse_family",
    "parse_free_algebra",
    "parse_graph",
    "parse_table",
    "search_action",
    "serialize_graph",
    "span_chromatic_number",
    "sufficiency_partition",
    "verify_partition",
    "verify_partition_family",
    "verify_span_coloring",
]


def test_public_surface():
    # submodules become package attributes once imported, so they are left out
    exported = sorted(
        name for name, value in vars(sr_chroma).items() if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES
