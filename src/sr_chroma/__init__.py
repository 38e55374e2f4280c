"""Exact certificates for span colorings, power-operation actions, and
realizability of graph-indexed monomial-ideal algebras."""

from .algebra import (
    AlgebraElement,
    FreePolynomialAlgebra,
    JoinComplex,
    Monomial,
    parse_free_algebra,
)
from .errors import (
    ContractError,
    GraphParseError,
    IncompleteTableError,
    SearchSpaceExceeded,
    SrChromaError,
)
from .families import FamilySpec, build_complex, parse_family
from .graph import (
    Coloring,
    Graph,
    chromatic_number,
    coloring_is_valid,
    parse_graph,
    serialize_graph,
)
from .realize import (
    AndersonGrodalFamily,
    DegreeMultisetFamily,
    ExplicitFamily,
    Partition,
    RealizabilityVerdict,
    check_realizable,
    decompose_s,
    load_family_file,
    multiset_decomposable,
    sufficiency_partition,
    verify_partition,
    verify_partition_family,
)
from .search import SearchOutcome, search_action
from .span import (
    FpVector,
    SpanColoring,
    span_chromatic_number,
    verify_span_coloring,
)
from .steenrod import (
    CheckReport,
    NecessaryOutcome,
    PowerRelation,
    SteenrodTable,
    adem_relation,
    cartan_extend,
    check_ideal_preservation,
    check_relations,
    check_table,
    check_unstability,
    cokernel_report,
    coloring_from_action,
    default_relation_set,
    full_adem_relation_set,
    necessary_condition,
    parse_element,
    parse_table,
)

__version__ = "0.1.0"
