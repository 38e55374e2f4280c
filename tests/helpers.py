"""Shared graph builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's solver machinery: plain
enumeration in input order, a locally written row reduction, and exhaustive
set-partition search, so that solver and oracle can only agree by being right.
"""

from __future__ import annotations

import itertools
from random import Random

from sr_chroma.algebra import AlgebraElement
from sr_chroma.errors import ContractError
from sr_chroma.families import FamilySpec
from sr_chroma.graph import Graph, coloring_is_valid, max_clique
from sr_chroma.realize import Partition, validate_decomposition
from sr_chroma.span import SpanColoring, _search_dimension
from sr_chroma.steenrod import (
    CheckReport,
    Violation,
    relation_instance_bases,
    relations_and_bound,
)


# the benchmark's 9 census families, in its order
CENSUS_SPECS = (
    FamilySpec("B", (3,)),
    FamilySpec("B", (5,)),
    FamilySpec("Bp", (5, 5), 5),
    FamilySpec("Bp", (6, 4), 5),
    FamilySpec("Ap", (5, 5), 3),
    FamilySpec("Ap", (6, 4), 3),
    FamilySpec("Ap", (5, 5, 5, 5), 5),
    FamilySpec("A", (4, 2)),
    FamilySpec("A", (3, 3, 3)),
)


def complete_graph(n: int) -> Graph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph.build(labels, edges)


def cycle_graph(n: int) -> Graph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return Graph.build(labels, edges)


def path_graph(n: int) -> Graph:
    labels = [str(i + 1) for i in range(n)]
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return Graph.build(labels, edges)


def empty_graph(n: int) -> Graph:
    return Graph.build([str(i + 1) for i in range(n)], [])


def all_edge_lists(n: int):
    """(labels, edges) of every labeled graph on vertices 1..n."""
    labels = [str(i + 1) for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            yield labels, list(chosen)


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n."""
    for labels, edges in all_edge_lists(n):
        yield Graph.build(labels, edges)


def reference_edges(vertices, edges) -> frozenset[tuple[str, str]]:
    """The label-pair edge set as a `Graph` once stored it, normalized
    eagerly from its input: each edge once, the earlier vertex first. The
    reference for the derived `Graph.edges`."""
    index = {v: i for i, v in enumerate(vertices)}
    normalized = set()
    for u, v in edges:
        normalized.add((u, v) if index[u] < index[v] else (v, u))
    return frozenset(normalized)


def edge_adjacency(g: Graph) -> list[list[int]]:
    """Neighbor indices per vertex index, read off the stored
    `g.neighbor_masks` by a plain bit test, so the references below rest on
    neither derived view (`Graph.neighbor_indices`, `Graph.edges`)."""
    n = len(g.vertices)
    return [[j for j in range(n) if mask >> j & 1] for mask in g.neighbor_masks]


def is_connected(g: Graph) -> bool:
    if not g.vertices:
        return True
    adj = edge_adjacency(g)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(g.vertices)


def connected_graphs(n: int):
    return (g for g in all_graphs(n) if is_connected(g))


def random_graph(rng: Random, max_n: int = 8) -> Graph:
    n = rng.randint(1, max_n)
    labels = [str(i + 1) for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return Graph.build(labels, edges)


def witness_graphs():
    """Every labeled graph on <= 5 vertices, then 24 seeded 6-8-vertex graphs:
    the graphs whose chi and s_p-chi witnesses the test suite pins."""
    yield from all_graphs(5)
    rng = Random(23)
    for _ in range(24):
        n = rng.randint(6, 8)
        labels = [str(i + 1) for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        yield Graph.build(labels, edges)


# -- chromatic oracle --------------------------------------------------------

def oracle_colorable(g: Graph, k: int) -> bool:
    """Plain depth-first enumeration of all <=k colorings in input order."""
    n = len(g.vertices)
    adj = edge_adjacency(g)
    colors = [0] * n

    def go(i: int) -> bool:
        if i == n:
            return True
        for c in range(1, k + 1):
            if all(colors[u] != c for u in adj[i] if u < i):
                colors[i] = c
                if go(i + 1):
                    return True
                colors[i] = 0
        return False

    return n == 0 or go(0)


def oracle_chromatic(g: Graph) -> int:
    if not g.vertices:
        return 0
    k = 1
    while not oracle_colorable(g, k):
        k += 1
    return k


# -- span-coloring oracle ----------------------------------------------------

def rref_in_span(vectors: list[tuple[int, ...]], target: tuple[int, ...], p: int) -> bool:
    """Row-reduce from scratch; written independently of the library."""
    rows = [list(v) for v in vectors]
    width = len(target)
    pivots: list[int] = []
    reduced: list[list[int]] = []
    for row in rows:
        row = row[:]
        for pos, r in zip(pivots, reduced):
            factor = row[pos]
            if factor:
                row = [(a - factor * b) % p for a, b in zip(row, r)]
        lead = next((i for i, a in enumerate(row) if a % p), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p) if p > 2 else row[lead]
        reduced.append([(a * inv) % p for a in row])
        pivots.append(lead)
    res = list(target)
    for pos, r in zip(pivots, reduced):
        factor = res[pos]
        if factor:
            res = [(a - factor * b) % p for a, b in zip(res, r)]
    return all(a % p == 0 for a in res)


def projective_vectors(p: int, n: int) -> list[tuple[int, ...]]:
    """All vectors with first nonzero coordinate 1."""
    out = []
    for vec in itertools.product(range(p), repeat=n):
        lead = next((c for c in vec if c), None)
        if lead == 1:
            out.append(vec)
    return out


def rref_rank(vectors: list[tuple[int, ...]], p: int) -> int:
    rows = []
    pivots: list[int] = []
    for vec in vectors:
        row = list(vec)
        for pos, r in zip(pivots, rows):
            factor = row[pos]
            if factor:
                row = [(a - factor * b) % p for a, b in zip(row, r)]
        lead = next((i for i, a in enumerate(row) if a % p), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p) if p > 2 else row[lead]
        rows.append([(a * inv) % p for a in row])
        pivots.append(lead)
    return len(rows)


def oracle_has_span_coloring(g: Graph, p: int, n: int) -> bool:
    """`full_oracle_has_span_coloring` with vertex 0 held at the first
    projective point. This is exact. GL(n,p) acts transitively on the
    projective points of F_p^n, and the span condition is GL-invariant: for
    h in GL(n,p), h f(v) is outside span h f(N(v)) exactly when f(v) is
    outside span f(N(v)). So if f is an n-span coloring and h sends f(0)'s
    point to the first one, h f is an n-span coloring with vertex 0 there."""
    return _projective_search(g, p, n, first_point_only=True)


def full_oracle_has_span_coloring(g: Graph, p: int, n: int) -> bool:
    """All projective assignments in input vertex order. A branch is cut only
    when it is already dead: some assigned vertex's condition is violated, or
    an unassigned vertex's assigned neighborhood spans the whole space. The
    reference for `oracle_has_span_coloring`."""
    return _projective_search(g, p, n, first_point_only=False)


def _projective_search(g: Graph, p: int, n: int, first_point_only: bool) -> bool:
    verts = list(g.vertices)
    m = len(verts)
    adj = edge_adjacency(g)
    adj_before = [[u for u in adj[i] if u < i] for i in range(m)]
    cands = projective_vectors(p, n)
    chosen: list[tuple[int, ...]] = []

    def still_alive(i: int) -> bool:
        if rref_in_span([chosen[u] for u in adj_before[i]], chosen[i], p):
            return False
        for j in adj[i]:
            assigned_nbrs = [chosen[u] for u in adj[j] if u <= i]
            if j < i:
                if rref_in_span(assigned_nbrs, chosen[j], p):
                    return False
            elif rref_rank(assigned_nbrs, p) == n:
                return False
        return True

    def go(i: int) -> bool:
        if i == m:
            return True
        for vec in cands[:1] if i == 0 and first_point_only else cands:
            chosen.append(vec)
            if still_alive(i) and go(i + 1):
                return True
            chosen.pop()
        return False

    return go(0)


def oracle_span_chromatic(g: Graph, p: int) -> int:
    if not g.vertices:
        return 0
    n = 1
    while n <= len(g.vertices):
        if oracle_has_span_coloring(g, p, n):
            return n
        n += 1
    raise AssertionError("oracle found no span coloring up to |V| dimensions")


def antiflag_graph(q: int) -> Graph:
    """The antiflag graph of PG(2,q), q prime: a vertex per (point x, line L)
    with x off L, and (x,L) ~ (y,M) when y is on L, x is on M and x != y.
    q = 2 is the Fano antiflag graph (28 vertices, 84 edges, omega 3, chi 4);
    q = 3 has 117 vertices and 702 edges."""
    return Graph.build(*antiflag_edge_list(q))


def antiflag_edge_list(q: int) -> tuple[list[str], list[tuple[str, str]]]:
    """(labels, edges) of `antiflag_graph(q)`."""
    points = projective_vectors(q, 3)  # lines are the same vectors, dually

    def on(x: int, line: int) -> bool:
        return sum(a * b for a, b in zip(points[x], points[line])) % q == 0

    flags = [(x, line) for x in range(len(points)) for line in range(len(points))]
    flags = [(x, line) for x, line in flags if not on(x, line)]
    labels = [f"x{x}L{line}" for x, line in flags]
    edges = [
        (labels[a], labels[b])
        for a, b in itertools.combinations(range(len(flags)), 2)
        if flags[a][0] != flags[b][0]
        and on(flags[b][0], flags[a][1])
        and on(flags[a][0], flags[b][1])
    ]
    return labels, edges


def reference_span_chromatic(g: Graph, p: int) -> int:
    """s_p-chi by the plain dimension loop: `_search_dimension` from
    max(2, omega) upward until the first dimension that succeeds, with no
    upper bound to stop at."""
    if not g.vertices:
        return 0
    if not g.edges:
        return 1
    n = max(2, len(max_clique(g)))
    while _search_dimension(g, p, n) is None:
        n += 1
    return n


def reference_span_conditions(g: Graph, c: SpanColoring):
    """The span check on `rref_in_span`: per vertex, f(v) is nonzero and not
    in the span of its neighbors' vectors, taken in graph order and validated
    afresh at each vertex; a neighbor's vector is read only when f(v) is
    nonzero. Neighbors come from `edge_adjacency`."""
    for v in g.vertices:
        if v not in c.assignment:
            raise ContractError(f"no vector assigned to vertex {v!r}")
    adj = edge_adjacency(g)
    for i, v in enumerate(g.vertices):
        vec = c.assignment[v]
        if vec.p != c.p or vec.dim != c.dim:
            raise ContractError(f"vector for {v!r} does not match coloring parameters")
        if vec.is_zero():
            yield v, False
            continue
        nbr_vecs = [c.assignment[g.vertices[j]] for j in sorted(adj[i])]
        for w in nbr_vecs:
            if w.p != c.p:
                raise ContractError(f"prime mismatch: {w.p} vs {c.p}")
            if w.dim != c.dim:
                raise ContractError(f"dimension mismatch: {w.dim} vs {c.dim}")
        yield v, not rref_in_span([w.coords for w in nbr_vecs], vec.coords, c.p)


# -- face enumeration oracle -------------------------------------------------

def oracle_face_set(k) -> set[frozenset[str]]:
    """Every face of the join: any block subset union a face of the graph."""
    x_part = [lbl for i, lbl in enumerate(k.gen_labels) if not k.is_graph_generator(i)]
    graph_faces = [frozenset()]
    graph_faces += [frozenset({f"y_{v}"}) for v in k.graph.vertices]
    graph_faces += [frozenset({f"y_{u}", f"y_{v}"}) for u, v in k.graph.sorted_edges()]
    faces = set()
    for r in range(len(x_part) + 1):
        for xs in itertools.combinations(x_part, r):
            for gf in graph_faces:
                faces.add(frozenset(xs) | gf)
    return faces


def oracle_maximal_faces(k) -> list[frozenset[str]]:
    """Inclusion-maximal elements of `oracle_face_set`: faces that no single
    further generator extends to a face."""
    faces = oracle_face_set(k)
    return [f for f in faces if not any(f | {g} in faces for g in k.gen_labels if g not in f)]


def oracle_verify_partition(k, part, fam, maximal_faces=None) -> bool:
    """Every maximal face meets every block in an allowed multiset or not at
    all, checked face by face; pass `maximal_faces` to reuse an enumeration."""
    faces = oracle_maximal_faces(k) if maximal_faces is None else maximal_faces
    degree = dict(zip(k.gen_labels, k.gen_degrees))
    # the partition holds generator indices; the faces are label sets
    blocks = [{k.gen_labels[i] for i in block} for block in part.blocks]
    for face in faces:
        for block in blocks:
            ms = tuple(sorted(degree[lbl] for lbl in face & block))
            if ms and not fam.is_allowed(ms):
                return False
    return True


# -- uniform coloring partition reference ------------------------------------

def reference_coloring_partition(k, c) -> Partition:
    """The uniform coloring construction, for a complex whose blocks all have
    one size n and a proper coloring c of its graph with at most n colors:
    column i of every block plus the i-th color class, i = 1..n."""
    (n,) = {size for size, _ in k.blocks}
    assert coloring_is_valid(k.graph, c) and c.num_colors <= n
    # x_i^(level) is index (level - 1) * n + i - 1; the graph generators follow
    columns = [[level * n + i for level in range(len(k.blocks))] for i in range(n)]
    for j, v in enumerate(k.graph.vertices, n * len(k.blocks)):
        columns[c.assignment[v] - 1].append(j)
    part = Partition(tuple(map(frozenset, columns)))
    part.validate_against(k)
    return part


# -- default-family membership reference ------------------------------------

def reference_anderson_grodal_allowed(multiset: tuple[int, ...]) -> bool:
    """The Andersen-Grodal degree lists in closed form: {2}, the contiguous
    even chains from 4, and the chains 4, 8, ..., 4m."""
    ms = tuple(sorted(multiset))
    if not ms:
        return False
    if ms == (2,):
        return True
    if ms[0] != 4:
        return False
    if ms == tuple(range(4, 4 + 2 * len(ms), 2)):
        return True
    return ms == tuple(range(4, 4 + 4 * len(ms), 4))


# -- multiset partition oracle -----------------------------------------------

def oracle_multiset_decomposable(entries: tuple[int, ...], fam) -> bool:
    """Exhaust every set partition of the entries (by position)."""
    items = list(entries)

    def partitions(seq):
        if not seq:
            yield []
            return
        head, rest = seq[0], seq[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1 :]
            yield [[head]] + part

    if not items:
        return True
    return any(
        all(fam.is_allowed(tuple(sorted(block))) for block in part)
        for part in partitions(items)
    )


# -- decomposition enumeration reference -------------------------------------

def odd_slot_splits(s: tuple[int, ...]):
    """Every split s = s' + s'' whose s'' lives on the odd slots, is weakly
    decreasing there and is bounded by s, in downward lexicographic order of
    the odd-slot values; the splits are not checked against anything else."""
    n = len(s)
    odd_slots = list(range(0, n, 2))

    def candidates(j: int, prev: int, acc: list[int]):
        if j == len(odd_slots):
            yield tuple(acc)
            return
        for v in range(min(s[odd_slots[j]], prev), -1, -1):
            acc.append(v)
            yield from candidates(j + 1, v, acc)
            acc.pop()

    for odd_values in candidates(0, max(s), []):
        s_dprime = [0] * n
        for j, v in zip(odd_slots, odd_values):
            s_dprime[j] = v
        yield tuple(a - b for a, b in zip(s, s_dprime)), tuple(s_dprime)


def reference_decompose_s(s: tuple[int, ...], c: int):
    """The first of `odd_slot_splits(s)` that passes `validate_decomposition`;
    None after the last candidate."""
    for split in odd_slot_splits(s):
        try:
            validate_decomposition(s, *split, c)
        except ContractError:
            continue
        return split
    return None


# -- graph-ideal reference -----------------------------------------------------
#
# The reference for `algebra.monomial_in_graph_ideal`: the ideal
# (y_v) + (y_j y_k : j < k) as a list of monomial generators, y_v and one
# product per edge (the only face-supported y_j y_k), and membership of an
# element as divisibility of every term by some generator.

def reference_graph_ideal_generators(k, vertex: str) -> list:
    gens = [k.generator_monomial(f"y_{vertex}")]
    for i, j in sorted(k.graph_edge_indices):
        gens.append(k.monomial({k.gen_labels[i]: 1, k.gen_labels[j]: 1}))
    return gens


def reference_ideal_membership(a, gens) -> bool:
    """Sound and complete for monomial ideals: every term divisible by a generator."""
    return all(
        any(all(e <= f for e, f in zip(g.exps, m.exps, strict=True)) for g in gens)
        for m, _ in a.terms
    )


def reference_check_ideal_preservation(table) -> CheckReport:
    """`steenrod.check_ideal_preservation` on the generator-list form."""
    ambient = table.ambient
    violations = []
    for pos, i in enumerate(ambient.graph_generator_indices()):
        label = ambient.gen_labels[i]
        gens = reference_graph_ideal_generators(ambient, ambient.graph.vertices[pos])
        for k in sorted(kk for lbl, kk in table.entries if lbl == label):
            elem = table.entries[(label, k)]
            if not reference_ideal_membership(elem, gens):
                detail = f"{elem} is outside ({label}) + (y_j*y_k)"
                violations.append(Violation("ideal preservation", f"P^{k}({label})", detail))
    return CheckReport("ideal preservation", {}, violations)


# -- dense Cartan reference ----------------------------------------------------
#
# The reference for the verifier's packed engine: `Monomial` exponent tuples,
# the ambient's own face test through `reduce_monomial`, and a series memo
# keyed by (monomial, kmax), each series a plain left fold over the factors.
# Generators are read in index order, each entry once per check, so a missing
# entry raises the same `IncompleteTableError`.

def _dense_convolve(ambient, p, s1, s2, kmax):
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


def _dense_generator_series(table, gen_index, kmax, cache):
    series = cache.setdefault(gen_index, [])
    label = table.ambient.gen_labels[gen_index]
    for j in range(len(series), kmax + 1):
        series.append(table.generator_power(label, j).terms_dict())
    return series


def _dense_monomial_series(table, mono, kmax, cache):
    key = (mono, kmax)
    hit = cache.get(key)
    if hit is not None:
        return hit
    ambient = table.ambient
    series = [dict() for _ in range(kmax + 1)]
    series[0] = {ambient.unit_monomial(): 1}
    for gi, e in enumerate(mono.exps):
        for _ in range(e):
            gs = _dense_generator_series(table, gi, kmax, cache)
            series = _dense_convolve(ambient, table.p, series, gs, kmax)
    cache[key] = series
    return series


def reference_apply_power(table, terms, k, cache):
    if k == 0:
        return dict(terms)
    p = table.p
    out: dict = {}
    for mono, coeff in terms.items():
        for m, c in _dense_monomial_series(table, mono, k, cache)[k].items():
            out[m] = (out.get(m, 0) + coeff * c) % p
    return {m: c for m, c in out.items() if c}


def reference_cartan_extend(table, a, k):
    terms = reference_apply_power(table, a.terms_dict(), k, {})
    return AlgebraElement.make(table.ambient, table.p, terms)


def reference_check_relations(table, relation_set=None, degree_bound=None) -> CheckReport:
    """`steenrod.check_relations` on the dense engine."""
    p = table.p
    relations, bound = relations_and_bound(p, relation_set, degree_bound)
    ambient = table.ambient
    cache: dict = {}
    violations = []
    for rel in relations:
        a, b = rel.lhs
        for mono in relation_instance_bases(ambient, p, rel, bound):
            base = {mono: 1}
            mid = reference_apply_power(table, base, b, cache)
            lhs = reference_apply_power(table, mid, a, cache)
            rhs: dict = {}
            for c, outer, inner in rel.rhs:
                mid = reference_apply_power(table, base, inner, cache)
                for m, v in reference_apply_power(table, mid, outer, cache).items():
                    rhs[m] = (rhs.get(m, 0) + v * c) % p
            rhs = {m: v for m, v in rhs.items() if v}
            if lhs != rhs:
                lhs_el = AlgebraElement.make(ambient, p, lhs)
                rhs_el = AlgebraElement.make(ambient, p, rhs)
                detail = f"lhs = {lhs_el}; rhs = {rhs_el}"
                violations.append(Violation(rel.name, ambient.format_monomial(mono), detail))
    return CheckReport(
        "relation check",
        {"relations": "; ".join(r.name for r in relations), "degree_bound": bound},
        violations,
    )
