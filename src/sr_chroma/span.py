"""Span colorings over F_p: linear algebra, verification, exact solver.

`span_conditions` is the one span check: f(v) nonzero and outside the span of
f(N(v)). `verify_span_coloring` and `steenrod.cokernel_report` both use it.

`span_chromatic_number` solves at most once per (`Graph` instance, p) and
keeps the answer on the graph, next to chi and the max clique (see `graph`);
every call returns its own copy of the witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ContractError
from .graph import Coloring, Graph, max_clique


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


@dataclass(frozen=True)
class FpVector:
    """Vector over F_p, coordinates stored reduced mod p."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ContractError(f"{self.p} is not prime")
        object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True, eq=True)
class SpanColoring:
    """Assignment of nonzero F_p^dim vectors to the vertices of a graph."""

    p: int
    dim: int
    assignment: dict[str, FpVector]

    def serialize(self) -> str:
        lines = [f"{v} : " + ",".join(str(c) for c in vec.coords) for v, vec in self.assignment.items()]
        return "\n".join(lines) + ("\n" if lines else "")


def _reduce_row(rows: list[tuple[int, tuple[int, ...]]], vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Reduce vec against an insertion-ordered echelon row list (pivot coeff 1)."""
    res = list(vec)
    for pivot, row in rows:
        c = res[pivot]
        if c:
            for i in range(pivot, len(res)):
                res[i] = (res[i] - c * row[i]) % p
    return tuple(res)


def _append_row(rows: list[tuple[int, tuple[int, ...]]], vec: tuple[int, ...], p: int) -> bool:
    """Add vec to the echelon list; returns True when it enlarges the span."""
    res = _reduce_row(rows, vec, p)
    pivot = next((i for i, c in enumerate(res) if c), None)
    if pivot is None:
        return False
    inv = pow(res[pivot], -1, p)
    rows.append((pivot, tuple((c * inv) % p for c in res)))
    return True


def _in_span(rows: list[tuple[int, tuple[int, ...]]], vec: tuple[int, ...], p: int) -> bool:
    return all(c == 0 for c in _reduce_row(rows, vec, p))


def span_membership(vectors: Sequence[FpVector], target: FpVector) -> bool:
    """True iff target lies in the F_p-span of vectors; the empty span is {0}."""
    p, dim = target.p, target.dim
    for v in vectors:
        if v.p != p:
            raise ContractError(f"prime mismatch: {v.p} vs {p}")
        if v.dim != dim:
            raise ContractError(f"dimension mismatch: {v.dim} vs {dim}")
    rows: list[tuple[int, tuple[int, ...]]] = []
    for v in vectors:
        _append_row(rows, v.coords, p)
    return _in_span(rows, target.coords, p)


def span_conditions(g: Graph, c: SpanColoring) -> Iterator[tuple[str, bool]]:
    """Per vertex in graph order, whether f(v) is nonzero and outside the span
    of f(N(v)), neighbors in graph order. Every vertex must have a vector;
    the vectors are checked against the coloring's p and dim as they come."""
    for v in g.vertices:
        if v not in c.assignment:
            raise ContractError(f"no vector assigned to vertex {v!r}")
    for v in g.vertices:
        vec = c.assignment[v]
        if vec.p != c.p or vec.dim != c.dim:
            raise ContractError(f"vector for {v!r} does not match coloring parameters")
        nbr_vecs = [c.assignment[u] for u in sorted(g.neighbors(v), key=g.index.get)]
        yield v, not vec.is_zero() and not span_membership(nbr_vecs, vec)


def verify_span_coloring(g: Graph, c: SpanColoring) -> bool:
    """Whether the span condition holds at every vertex (`span_conditions`)."""
    return all(ok for _, ok in span_conditions(g, c))


@lru_cache(maxsize=None)
def _projective_reps(p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All vectors in F_p^r with first nonzero coordinate 1, in lex order."""
    # vectors with a later leading 1 start with more zeros, so they come first
    return tuple(
        (0,) * i + (1,) + tail
        for i in reversed(range(r))
        for tail in itertools.product(range(p), repeat=r - 1 - i)
    )


def _search_dimension(g: Graph, p: int, n: int) -> dict[str, tuple[int, ...]] | None:
    """Exhaustive (up to GL(n,F_p) and scaling symmetry) search for an n-span coloring.

    Vertices are processed in descending-degree order; per-vertex candidate
    vectors are projective representatives inside the span of the already
    assigned vectors plus one fresh basis vector, which covers every solution
    up to a global change of basis.
    """
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), g.index[v]))
    m = len(order)
    pos = {v: i for i, v in enumerate(order)}
    adj = [[pos[u] for u in g.adjacency[v]] for v in order]
    assigned: list[tuple[int, ...] | None] = [None] * m
    # per-vertex echelon basis of the assigned part of its open neighborhood
    nbr_rows: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(m)]
    global_rows: list[tuple[int, tuple[int, ...]]] = []

    def candidates(rank: int):
        for rep in _projective_reps(p, rank):
            yield rep + (0,) * (n - rank)
        if rank < n:
            yield tuple(1 if i == rank else 0 for i in range(n))

    # one frame per placed vertex, deepest last: (its candidate iterator, the
    # neighbors whose nbr_rows gained its vector, whether global_rows grew)
    frames: list[tuple[Iterator[tuple[int, ...]], list[int], bool]] = []
    pending = candidates(0)  # candidates of vertex len(frames)
    while len(frames) < m:
        i = len(frames)
        for vec in pending:
            if _in_span(nbr_rows[i], vec, p):
                continue
            ok = True
            touched: list[int] = []
            for u in adj[i]:
                before = len(nbr_rows[u])
                _append_row(nbr_rows[u], vec, p)
                if len(nbr_rows[u]) > before:
                    touched.append(u)
                if u < i:
                    if _in_span(nbr_rows[u], assigned[u], p):
                        ok = False
                        break
                elif len(nbr_rows[u]) == n:
                    ok = False
                    break
            if ok:
                assigned[i] = vec
                frames.append((pending, touched, _append_row(global_rows, vec, p)))
                pending = candidates(len(global_rows))
                break
            for u in touched:
                nbr_rows[u].pop()
        else:
            if not frames:
                return None
            pending, touched, grew = frames.pop()
            if grew:
                global_rows.pop()
            assigned[len(frames)] = None
            for u in touched:
                nbr_rows[u].pop()
    return {order[i]: assigned[i] for i in range(m)}


def span_chromatic_number(g: Graph, p: int) -> tuple[int, SpanColoring]:
    """Least n admitting an n-span coloring over F_p, with a verified witness.

    The returned dimension is certified: every dimension from max(2, clique
    number) up to n-1 is searched to exhaustion, and dimensions below that are
    excluded because a span coloring restricts to any subgraph and a clique
    (an edge included) needs linearly independent vectors.

    Solved once per (`Graph`, p); every call returns its own copy of the
    witness. A non-prime p raises on every call.
    """
    if not is_prime(p):
        raise ContractError(f"{p} is not prime")
    answers = g._answers
    key = ("span", p)
    if key not in answers:
        answers[key] = _span_chromatic_number(g, p)
    value, witness = answers[key]
    return value, SpanColoring(witness.p, witness.dim, dict(witness.assignment))


def _span_chromatic_number(g: Graph, p: int) -> tuple[int, SpanColoring]:
    if not g.vertices:
        return 0, SpanColoring(p, 0, {})
    if not g.edges:
        witness = {v: FpVector(p, (1,)) for v in g.vertices}
        return 1, SpanColoring(p, 1, witness)
    n = max(2, len(max_clique(g)))
    while True:
        sol = _search_dimension(g, p, n)
        if sol is not None:
            witness = SpanColoring(p, n, {v: FpVector(p, sol[v]) for v in g.vertices})
            if not verify_span_coloring(g, witness):
                raise AssertionError("solver returned an invalid witness")
            return n, witness
        n += 1


def coloring_to_span_coloring(g: Graph, c: Coloring, p: int) -> SpanColoring:
    """Send color i to the standard basis vector e_i; valid whenever c is proper."""
    n = c.num_colors
    assignment = {
        v: FpVector(p, tuple(1 if i == c.assignment[v] - 1 else 0 for i in range(n)))
        for v in g.vertices
    }
    return SpanColoring(p, n, assignment)
