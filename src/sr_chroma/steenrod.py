"""Candidate power-operation actions on graded algebras mod p.

A SteenrodTable stores P^k on generators (P^0 is the identity, the top case
2k = |g| is forced to g^p, everything above vanishes); cartan_extend pushes a
table to arbitrary elements. Checkers evaluate a configurable relation set on
generators and graded bases, verify preservation of the per-vertex ideals and
check the forced top entries; `check_table` is the one place that runs all
three. A table's g-function is read straight off P^p(y_i): g(y_i) in
F_p^{s_1} holds the coefficients of x_j^(1) * y_i^(p-1), one per first-block
generator x_j^(1). It is a `span.SpanColoring` that `cokernel_report` tests
with the one span check, `span.span_conditions`.

The checkers evaluate the Cartan formula with their own plain engine over
`Monomial` exponent tuples and integer coefficients; `apply_power` takes the
table itself and reads P^j on each generator through
`SteenrodTable.generator_power`. The action search compiles its constraints
with a separate, faster kernel (`search.py`) and re-verifies every table it
finds through these checkers; keeping the two engines apart means a compile
bug cannot hide behind the same bug in the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import (
    AlgebraElement,
    JoinComplex,
    Monomial,
    graph_ideal_generators,
    ideal_membership,
    monomial_in_graph_ideal,
    y_label,
)
from .errors import ContractError, IncompleteTableError
from .families import SPAN_CONDITION_KINDS, FamilySpec
from .graph import Graph
from .span import FpVector, SpanColoring, is_odd_prime, span_chromatic_number, span_conditions


# --------------------------------------------------------------------------
# the Cartan engine of the verifier
# --------------------------------------------------------------------------

def _convolve(ambient, p, s1, s2, kmax):
    out = [dict() for _ in range(kmax + 1)]
    for i, ti in enumerate(s1):
        if not ti:
            continue
        for j in range(kmax - i + 1):
            tj = s2[j]
            if not tj:
                continue
            acc = out[i + j]
            for m1, c1 in ti.items():
                for m2, c2 in tj.items():
                    m = m1 * m2
                    if ambient.reduce_monomial(m) is None:
                        continue
                    acc[m] = (acc.get(m, 0) + c1 * c2) % p
    return [{m: c for m, c in d.items() if c} for d in out]


def _generator_series(table, gen_index, kmax, cache):
    key = ("g", gen_index, kmax)
    hit = cache.get(key)
    if hit is not None:
        return hit
    label = table.ambient.gen_labels[gen_index]
    series = [table.generator_power(label, j).terms_dict() for j in range(kmax + 1)]
    cache[key] = series
    return series


def _monomial_series(table, mono: Monomial, kmax, cache):
    key = (mono, kmax)
    hit = cache.get(key)
    if hit is not None:
        return hit
    ambient = table.ambient
    series = [dict() for _ in range(kmax + 1)]
    series[0] = {ambient.unit_monomial(): 1}
    for gi, e in enumerate(mono.exps):
        for _ in range(e):
            gs = _generator_series(table, gi, kmax, cache)
            series = _convolve(ambient, table.p, series, gs, kmax)
    cache[key] = series
    return series


def apply_power(table, terms, k: int, cache) -> dict:
    """P^k on a terms dict over F_p via linearity and the Cartan formula,
    reading P^j on generators from the table; P^0 = identity."""
    if k == 0:
        return dict(terms)
    p = table.p
    out: dict = {}
    for mono, coeff in terms.items():
        series = _monomial_series(table, mono, k, cache)
        for m, c in series[k].items():
            out[m] = (out.get(m, 0) + coeff * c) % p
    return {m: c for m, c in out.items() if c}


# --------------------------------------------------------------------------
# relations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerRelation:
    """An identity P^a P^b = sum of c * P^outer P^inner (inner 0 = identity)."""

    name: str
    lhs: tuple[int, int]
    rhs: tuple[tuple[int, int, int], ...]


def _binom_mod(n: int, k: int, p: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k) % p


def adem_relation(a: int, b: int, p: int) -> PowerRelation:
    """Adem expansion of P^a P^b for 0 < a < pb (odd p, no Bockstein)."""
    if not is_odd_prime(p):
        raise ContractError(f"Adem relations need an odd prime, got {p}")
    if not 0 < a < p * b:
        raise ContractError(f"P^{a} P^{b} is already admissible at p={p}")
    rhs = []
    for t in range(a // p + 1):
        c = (-1) ** (a + t) * _binom_mod((p - 1) * (b - t) - 1, a - p * t, p)
        c %= p
        if c:
            rhs.append((c, a + b - t, t))
    pieces = []
    for c, outer, inner in rhs:
        term = f"P^{outer}" if inner == 0 else f"P^{outer}P^{inner}"
        pieces.append(term if c == 1 else f"{c}*{term}")
    name = f"P^{a}P^{b} = " + (" + ".join(pieces) if pieces else "0")
    return PowerRelation(name, (a, b), tuple(rhs))


def default_relation_set(p: int) -> tuple[PowerRelation, ...]:
    return (adem_relation(1, p, p),)


def full_adem_relation_set(ambient, p: int, degree_bound: int) -> tuple[PowerRelation, ...]:
    """All Adem relations whose evaluation on some generator fits the bound;
    none without generators."""
    if not is_odd_prime(p):
        raise ContractError(f"Adem relations need an odd prime, got {p}")
    if not ambient.gen_degrees:
        return ()
    min_deg = min(ambient.gen_degrees)
    out = []
    total = 1
    while min_deg + 2 * total * (p - 1) <= degree_bound:
        total += 1
    for a in range(1, total):
        for b in range(1, total - a):
            if a < p * b:
                out.append(adem_relation(a, b, p))
    return tuple(out)


def default_degree_bound(p: int) -> int:
    # P^1 P^p lands in degree 2p^2+2 on the top-degree generators; 2p^2+2p
    # covers every instance rooted at a generator.
    return 2 * p * p + 2 * p


def relations_and_bound(
    p: int, relation_set: tuple[PowerRelation, ...] | None, degree_bound: int | None
) -> tuple[tuple[PowerRelation, ...], int]:
    """The relation set and bound a check or search runs with, defaults at p
    for None; the set is resolved first, then a negative bound is rejected."""
    relations = default_relation_set(p) if relation_set is None else tuple(relation_set)
    bound = default_degree_bound(p) if degree_bound is None else degree_bound
    if bound < 0:
        raise ContractError(f"degree bound must be non-negative, got {bound}")
    return relations, bound


def relation_instance_bases(ambient, p: int, relation: PowerRelation, degree_bound: int) -> list[Monomial]:
    """Base monomials to check: generators first, then composite basis monomials
    of every graded piece whose evaluation stays within the degree bound."""
    raise_by = 2 * (relation.lhs[0] + relation.lhs[1]) * (p - 1)
    max_deg = degree_bound - raise_by
    bases = [
        ambient.generator_monomial(lbl)
        for i, lbl in enumerate(ambient.gen_labels)
        if ambient.gen_degrees[i] <= max_deg
    ]
    for d in range(2, max_deg + 1, 2):
        for m in ambient.monomial_basis(d):
            if sum(m.exps) >= 2:
                bases.append(m)
    return bases


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def forced_top(ambient, label: str, p: int) -> AlgebraElement:
    """g^p, the value unstability forces for P^(deg g / 2)(g): one monomial."""
    return AlgebraElement.make(ambient, p, {ambient.generator_monomial(label, p): 1})


@dataclass
class SteenrodTable:
    """Values P^k(generator); the searchable object."""

    p: int
    ambient: object
    entries: dict[tuple[str, int], AlgebraElement] = field(default_factory=dict)

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ContractError(f"tables need an odd prime, got {self.p}")
        cleaned = {}
        for (label, k), elem in self.entries.items():
            i = self.ambient._index_of(label)
            if k < 1:
                raise ContractError(f"bad operation index {k} for {label!r}")
            if elem.ambient != self.ambient or elem.p != self.p:
                raise ContractError(f"entry P^{k}({label}) lives in the wrong algebra")
            deg = self.ambient.gen_degrees[i]
            if 2 * k > deg:
                if not elem.is_zero():
                    raise ContractError(f"P^{k}({label}) must vanish above the degree")
                continue
            want = deg + 2 * k * (self.p - 1)
            if not elem.is_zero() and elem.homogeneous_degree() != want:
                raise ContractError(f"P^{k}({label}) must be homogeneous of degree {want}")
            cleaned[(label, k)] = elem
        self.entries = cleaned

    def generator_power(self, label: str, k: int) -> AlgebraElement:
        """P^k on a generator: identity, stored entry, forced top g^p, or zero."""
        i = self.ambient._index_of(label)
        deg = self.ambient.gen_degrees[i]
        if k == 0:
            return self.ambient.generator_element(label, self.p)
        if 2 * k > deg:
            return self.ambient.zero(self.p)
        if (label, k) in self.entries:
            return self.entries[(label, k)]
        if 2 * k == deg:
            return forced_top(self.ambient, label, self.p)
        raise IncompleteTableError(label, k)

    def stored_keys(self) -> list[tuple[str, int]]:
        order = self.ambient.label_index
        return sorted(self.entries, key=lambda lk: (order[lk[0]], lk[1]))

    def serialize(self) -> str:
        lines = [f"P^{k}({label}) = {self.entries[(label, k)]}" for label, k in self.stored_keys()]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_element(text: str, ambient, p: int) -> AlgebraElement:
    text = text.strip()
    if text == "0":
        return ambient.zero(p)
    terms: dict[Monomial, int] = {}
    for part in text.split("+"):
        factors = [f.strip() for f in part.strip().split("*")]
        try:
            coeff = int(factors[0])
        except ValueError:
            raise ContractError(f"bad coefficient in term {part.strip()!r}") from None
        mapping: dict[str, int] = {}
        for f in factors[1:]:
            if f in ambient.label_index:
                lbl, e = f, 1
            else:
                base, _, exp = f.rpartition("^")
                if base in ambient.label_index and exp.isdigit():
                    lbl, e = base, int(exp)
                else:
                    raise ContractError(f"cannot parse factor {f!r}")
            mapping[lbl] = mapping.get(lbl, 0) + e
        m = ambient.monomial(mapping)
        terms[m] = terms.get(m, 0) + coeff
    return AlgebraElement.make(ambient, p, terms)


def parse_table(text: str, ambient, p: int) -> SteenrodTable:
    entries: dict[tuple[str, int], AlgebraElement] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, _, rhs = line.partition("=")
        lhs = lhs.strip()
        if not (lhs.startswith("P^") and "(" in lhs and lhs.endswith(")")):
            raise ContractError(f"line {lineno}: expected `P^<k>(<generator>) = <element>`")
        k_text, _, label = lhs[2:-1].partition("(")
        try:
            k = int(k_text)
        except ValueError:
            raise ContractError(f"line {lineno}: bad operation index {k_text!r}") from None
        if (label, k) in entries:
            raise ContractError(f"line {lineno}: duplicate entry P^{k}({label})")
        entries[(label, k)] = parse_element(rhs, ambient, p)
    return SteenrodTable(p, ambient, entries)


def cartan_extend(table: SteenrodTable, a: AlgebraElement, k: int) -> AlgebraElement:
    """P^k(a) by linearity and the Cartan formula, reduced in the ambient."""
    if k < 0:
        raise ContractError("operation index must be non-negative")
    if a.ambient != table.ambient or a.p != table.p:
        raise ContractError("element does not live in the table's algebra")
    out = apply_power(table, a.terms_dict(), k, {})
    return AlgebraElement.make(table.ambient, table.p, out)


# --------------------------------------------------------------------------
# checkers
# --------------------------------------------------------------------------

@dataclass
class Violation:
    check: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.subject}: {self.detail}"


@dataclass
class CheckReport:
    title: str
    context: dict
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in self.context.items())
        head = f"{self.title} ({ctx})" if ctx else self.title
        if self.ok:
            return f"{head}: pass"
        lines = [f"{head}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "context": dict(self.context),
            "ok": self.ok,
            "violations": [
                {"check": v.check, "subject": v.subject, "detail": v.detail}
                for v in self.violations
            ],
        }


def _eval_composite(table, outer: int, inner: int, base: dict, cache) -> dict:
    mid = apply_power(table, base, inner, cache)
    return apply_power(table, mid, outer, cache)


def check_relations(
    table: SteenrodTable,
    relation_set: tuple[PowerRelation, ...] | None = None,
    degree_bound: int | None = None,
) -> CheckReport:
    """Evaluate every relation on generators and on the monomial basis of each
    graded piece whose image stays within the degree bound; violations carry
    both evaluations. The verdict is relative to the relation set and bound."""
    p = table.p
    relations, bound = relations_and_bound(p, relation_set, degree_bound)
    ambient = table.ambient
    cache: dict = {}
    violations: list[Violation] = []
    for rel in relations:
        a, b = rel.lhs
        for mono in relation_instance_bases(ambient, p, rel, bound):
            base = {mono: 1}
            lhs = _eval_composite(table, a, b, base, cache)
            rhs: dict = {}
            for c, outer, inner in rel.rhs:
                piece = _eval_composite(table, outer, inner, base, cache)
                for m, v in piece.items():
                    rhs[m] = (rhs.get(m, 0) + v * c) % p
            rhs = {m: v for m, v in rhs.items() if v}
            if lhs != rhs:
                lhs_el = AlgebraElement.make(ambient, p, lhs)
                rhs_el = AlgebraElement.make(ambient, p, rhs)
                violations.append(
                    Violation(
                        rel.name,
                        ambient.format_monomial(mono),
                        f"lhs = {lhs_el}; rhs = {rhs_el}",
                    )
                )
    return CheckReport(
        "relation check",
        {"relations": "; ".join(r.name for r in relations), "degree_bound": bound},
        violations,
    )


def check_ideal_preservation(table: SteenrodTable) -> CheckReport:
    """Every stored P^a(y_i) must lie in (y_i) + (y_j y_k : j < k)."""
    ambient = table.ambient
    violations: list[Violation] = []
    for i in ambient.graph_generator_indices():
        label = ambient.gen_labels[i]
        gens = graph_ideal_generators(ambient, ambient.vertex_of_index(i))
        for k in range(1, ambient.gen_degrees[i] // 2 + 1):
            try:
                elem = table.generator_power(label, k)
            except IncompleteTableError:
                continue
            if not ideal_membership(elem, gens):
                violations.append(
                    Violation(
                        "ideal preservation",
                        f"P^{k}({label})",
                        f"{elem} is outside ({label}) + (y_j*y_k)",
                    )
                )
    return CheckReport("ideal preservation", {}, violations)


def check_unstability(table: SteenrodTable) -> CheckReport:
    """Stored top entries must equal g^p (entries above the top are rejected
    at construction)."""
    ambient = table.ambient
    violations: list[Violation] = []
    for i, label in enumerate(ambient.gen_labels):
        top = ambient.gen_degrees[i] // 2
        stored = table.entries.get((label, top))
        if stored is not None:
            want = forced_top(ambient, label, table.p)
            if stored != want:
                violations.append(
                    Violation("unstability", f"P^{top}({label})", f"{stored} != {want}")
                )
    return CheckReport("unstability", {}, violations)


def check_table(
    table: SteenrodTable,
    relation_set: tuple[PowerRelation, ...] | None = None,
    degree_bound: int | None = None,
) -> tuple[CheckReport, CheckReport, CheckReport]:
    """The relation, ideal-preservation and unstability reports of a table,
    in that order; the table passes when all three are ok."""
    return (
        check_relations(table, relation_set, degree_bound),
        check_ideal_preservation(table),
        check_unstability(table),
    )


# --------------------------------------------------------------------------
# the g-function, read off P^p(y_i)
# --------------------------------------------------------------------------

@dataclass
class CokernelReport:
    entries: list[tuple[str, bool]]

    @property
    def all_nonzero(self) -> bool:
        return all(ok for _, ok in self.entries)

    def failures(self) -> list[str]:
        return [v for v, ok in self.entries if not ok]

    def to_text(self) -> str:
        lines = [
            f"{v}: cokernel {'nonzero' if ok else 'ZERO'}" for v, ok in self.entries
        ]
        return "\n".join(lines) if lines else "no graph vertices"


def cokernel_report(g: Graph, gf: SpanColoring) -> CokernelReport:
    """Per vertex: does g(y_i) avoid the span of its neighbors' values?"""
    return CokernelReport(list(span_conditions(g, gf)))


def coloring_from_action(table: SteenrodTable) -> tuple[SpanColoring, CokernelReport]:
    """The g-function of a table and its cokernel report: g(y_i) in F_p^{s_1}
    holds the coefficients of x_j^(1) * y_i^(p-1) in P^p(y_i), one per
    first-block generator x_j^(1). Every term of P^p(y_i) must lie in
    (y_i) + (y_j*y_k); requires minimum degree 2 (apply two_core first)."""
    ambient = table.ambient
    if not isinstance(ambient, JoinComplex):
        raise ContractError("coloring extraction needs a join complex")
    g = ambient.graph
    if any(g.degree(v) < 2 for v in g.vertices):
        raise ContractError("every vertex must have degree at least 2")
    p = table.p
    if g.vertices and ambient.graph_degree != 2 * p + 2:
        raise ContractError("graph generators must sit in degree 2p+2")
    first_block = ambient.first_block_labels()
    assignment = {}
    for v in g.vertices:
        yl, i = y_label(v), ambient.y_index(v)
        elem = table.generator_power(yl, p)
        for m, _ in elem.terms:
            if not monomial_in_graph_ideal(ambient, m, i):
                raise ContractError(
                    f"P^{p}({yl}) has the term {ambient.format_monomial(m)}"
                    " outside (y_i) + (y_j*y_k)"
                )
        coeffs = elem.terms_dict()
        leading = (coeffs.get(ambient.monomial({x: 1, yl: p - 1}), 0) for x in first_block)
        assignment[v] = FpVector(p, tuple(leading))
    gf = SpanColoring(p, len(first_block), assignment)
    return gf, cokernel_report(g, gf)


# --------------------------------------------------------------------------
# the necessary condition
# --------------------------------------------------------------------------

@dataclass
class NecessaryOutcome:
    passed: bool
    p: int
    bound: int
    span_value: int

    def describe(self) -> str:
        if self.passed:
            return f"s_{self.p}chi={self.span_value} <= bound={self.bound} (inconclusive)"
        return f"s_{self.p}chi={self.span_value} > bound={self.bound}"


def necessary_condition(spec: FamilySpec, g: Graph) -> NecessaryOutcome:
    """Compare the span chromatic number with the family's first block size.

    Failure certifies that the mod-p algebra admits no action of the power
    operations, hence that the family member is not realizable; passing is
    inconclusive (the converse does not hold).
    """
    if spec.kind not in SPAN_CONDITION_KINDS:
        raise ContractError("the necessary condition needs a tagged A_p/B_p/B family")
    value, _ = span_chromatic_number(g, spec.p)
    bound = spec.first_bound
    return NecessaryOutcome(value <= bound, spec.p, bound, value)
