"""Span colorings over F_p: linear algebra, verification, exact solver.

`span_conditions` is the one span check: f(v) nonzero and outside the span of
f(N(v)). `verify_span_coloring` and `steenrod.cokernel_report` both use it.
It decides a vertex by coordinate support before any elimination: when some
coordinate i is nonzero in f(v) and zero in every f(u), u in N(v), the
coordinate functional e*_i vanishes on span f(N(v)) but not on f(v), so f(v)
lies outside that span. That takes |V| + 2|E| word operations and decides
every vertex of a basis-vector witness (`coloring_to_span_coloring`); any
other vertex falls back to the echelon elimination below.

`span_chromatic_number` solves at most once per (`Graph` instance, p) and
keeps the answer on the graph, next to chi and the max clique (see `graph`);
every call returns its own copy of the witness. It rests on the sandwich

    max(2, omega) <= s_p-chi <= chi <= u,

where omega is the clique number (a clique, an edge included, needs
independent vectors) and u the color count of one greedy DSATUR pass (a
proper coloring sent to basis vectors is a span coloring,
`coloring_to_span_coloring`). So only the dimensions max(2, omega) to u - 1
are searched; when none admits a span coloring the answer is u, with the
greedy coloring's basis vectors as witness. chi itself is never computed.

All row reduction (the solver's and `span_conditions`') runs on one kernel
(`_Packing`), over packed ints:
- An F_p^n vector is one int, coordinate i in bits [w*i, w*i + w), where w is
  the least width with 2^(w-1) >= p. A field of the sum of two reduced
  vectors holds at most 2p - 2 < 2^w, so it never carries into the next.
- A field has reached p exactly when adding 2^(w-1) - p sets its top bit, so
  the fold `s - (((s + OFF) & HIGH) >> (w-1)) * p` reduces every field at
  once (OFF and HIGH hold 2^(w-1) - p and 2^(w-1) in every field).
- An echelon row is (pivot shift, row), the row scaled to pivot
  coefficient 1, so `res - c*row` is `res + (p - c)*row`, built by doubling
  and adding (`_Packing.add_multiple`, the fold's one home): at most
  2*log2(p) folds, one when c = p - 1. Nothing stored grows with p but the
  candidates (`_packed_reps`).
- The support mask `(x + LOW) & HIGH` (LOW holds 2^(w-1) - 1 in every field)
  has a field's top bit set exactly when that field is nonzero: a reduced
  field is at most p - 1 <= 2^(w-1) - 1, so field + LOW <= 2^w - 2 never
  carries, and reaches 2^(w-1) exactly when the field is at least 1. Reduced
  fields use only their low w - 1 bits, so the OR of reduced vectors is one
  too, and its support is the union of theirs.

The search's state is nothing but subspaces of F_p^n (the span of each
vertex's placed neighbors), and searches on different graphs ask the same few
questions of them: F_5^3 has 64 subspaces. So `_search_dimension` reads them
from one process-level lattice per (p, n), `_lattice(p, n)`, keyed by (p, n)
only, like `_packing` and `_packed_reps`:
- A subspace is interned once under its canonical key: the rows of its fully
  reduced echelon form (each row scaled to pivot coefficient 1 and zero at
  every other pivot), sorted by pivot. That form is unique per subspace, so
  two spanning lists of one subspace meet in one `_Subspace`.
- Each interned subspace keeps its dimension, a memo from packed vector to
  "lies outside" and a memo from packed vector to the interned join.
- A lattice holds at most `_LATTICE_ENTRIES` entries (interned subspaces plus
  memo answers), a fixed constant, and at most 16 lattices are kept. Past the
  bound a miss is answered by elimination and not stored.
`span_conditions`, and so the self-check of every witness, never reads a
lattice: it eliminates afresh, so a memo fault cannot hide from the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ContractError
from .graph import Coloring, Graph, _degree_order, _greedy_coloring, coloring_is_valid, max_clique


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


# an echelon row: (pivot shift, row packed), the row scaled to pivot coefficient 1
_Row = tuple[int, int]


class _Packing:
    """The row kernel for F_p^n (format and fold: see the module docstring)."""

    def __init__(self, p: int, n: int):
        w = (p - 1).bit_length() + 1  # least w with 2^(w-1) >= p
        ones = sum(1 << (w * i) for i in range(n))
        self.p, self.n, self.w = p, n, w
        self.mask = (1 << w) - 1
        self.off = ((1 << (w - 1)) - p) * ones
        self.low = ((1 << (w - 1)) - 1) * ones
        self.high = (1 << (w - 1)) * ones

    def pack(self, coords: Sequence[int]) -> int:
        w, x = self.w, 0
        for c in reversed(coords):
            x = x << w | c
        return x

    def unpack(self, x: int) -> tuple[int, ...]:
        w, mask = self.w, self.mask
        return tuple(x >> (w * i) & mask for i in range(self.n))

    def support(self, x: int) -> int:
        """The top bit of every nonzero field of reduced x (module docstring)."""
        return (x + self.low) & self.high

    def add_multiple(self, acc: int, x: int, k: int) -> int:
        """acc + k*x for reduced acc and x and k >= 1, by doubling and adding."""
        off, high, top, p = self.off, self.high, self.w - 1, self.p
        while True:
            if k & 1:
                acc += x
                acc -= (((acc + off) & high) >> top) * p
                if k == 1:
                    return acc
            x += x
            x -= (((x + off) & high) >> top) * p
            k >>= 1

    def reduce(self, rows: list[_Row], x: int) -> int:
        """x minus multiples of the echelon rows, taken in insertion order;
        zero exactly when x lies in their span."""
        p, mask, add_multiple = self.p, self.mask, self.add_multiple
        for shift, row in rows:
            c = x >> shift & mask
            if c:
                x = add_multiple(x, row, p - c)
        return x

    def append(self, rows: list[_Row], x: int) -> bool:
        """Add x to the echelon rows; True when it enlarges their span."""
        x = self.reduce(rows, x)
        if not x:
            return False
        shift = (x & -x).bit_length() - 1
        shift -= shift % self.w
        c = x >> shift & self.mask
        # scale to pivot coefficient 1, unless it is 1 already (every row at p = 2)
        row = x if c == 1 else self.add_multiple(0, x, pow(c, -1, self.p))
        rows.append((shift, row))
        return True


@lru_cache(maxsize=None)
def _packing(p: int, n: int) -> _Packing:
    return _Packing(p, n)


# entries one lattice may hold: interned subspaces plus memo answers
_LATTICE_ENTRIES = 1 << 14


class _Subspace:
    """A subspace of F_p^n: its fully reduced echelon rows (every row zero at
    every other row's pivot) in pivot order, and its memos. Reduction by such
    rows gives the same remainder in any order."""

    __slots__ = ("rows", "dim", "outside", "joins")

    def __init__(self, rows: tuple[_Row, ...]):
        self.rows = rows
        self.dim = len(rows)
        self.outside: dict[int, bool] = {}  # packed x -> x lies outside
        self.joins: dict[int, _Subspace] = {}  # packed x -> the span of self and x


class _Lattice:
    """The subspaces of F_p^n that the span search reaches, interned under
    their canonical key (module docstring). A memo miss is answered by
    elimination (`_Packing`) and stored while the lattice holds fewer than
    `_LATTICE_ENTRIES` entries; past that nothing is stored, and a join that
    would intern a new subspace returns it uninterned."""

    __slots__ = ("kernel", "zero", "interned", "entries")

    def __init__(self, p: int, n: int):
        self.kernel = _packing(p, n)
        self.zero = _Subspace(())  # the root; no join reaches it, so it is not interned
        self.interned: dict[tuple[int, ...], _Subspace] = {}
        self.entries = 0

    def outside(self, s: _Subspace, x: int) -> bool:
        """Whether x lies outside s; the miss path of `s.outside`."""
        answer = bool(self.kernel.reduce(s.rows, x))
        if self.entries < _LATTICE_ENTRIES:
            s.outside[x] = answer
            self.entries += 1
        return answer

    def join(self, s: _Subspace, x: int) -> _Subspace:
        """The span of s and x, s itself when x lies in s; the miss path of
        `s.joins`."""
        kernel = self.kernel
        rows = list(s.rows)
        if kernel.append(rows, x):
            shift, new = rows[-1]
            mask, p, add_multiple = kernel.mask, kernel.p, kernel.add_multiple
            # the new row is zero at every older pivot; clear its pivot from the older rows
            for k in range(len(rows) - 1):
                old_shift, old = rows[k]
                c = old >> shift & mask
                if c:
                    rows[k] = old_shift, add_multiple(old, new, p - c)
            rows.sort()  # pivot order, distinct pivots: the canonical key
            key = tuple(rows)
            t = self.interned.get(key)
            if t is None:
                t = _Subspace(key)
                if self.entries < _LATTICE_ENTRIES:
                    self.interned[key] = t
                    self.entries += 1
        else:
            t = s
        if self.entries < _LATTICE_ENTRIES:
            s.joins[x] = t
            self.entries += 1
        return t


@lru_cache(maxsize=16)
def _lattice(p: int, n: int) -> _Lattice:
    """The one lattice per (p, n), shared by every graph's search."""
    return _Lattice(p, n)


@lru_cache(maxsize=64)
def _basis(p: int, n: int) -> tuple[FpVector, ...]:
    """The standard basis e_1, ..., e_n of F_p^n, shared by every witness
    `_basis_witness` builds (an `FpVector` is frozen)."""
    return tuple(FpVector(p, tuple(int(j == i) for j in range(n))) for i in range(n))


def span_conditions(g: Graph, c: SpanColoring) -> Iterator[tuple[str, bool]]:
    """Per vertex in graph order, whether f(v) is nonzero and outside the span
    of f(N(v)), neighbors in graph order. Every vertex must have a vector;
    each vector is checked against the coloring's p and dim when first read,
    then packed once (`_packing(p, dim)`).

    A zero f(v) is answered without reading its neighbors, and a neighbor's
    vector is read only once f(v) passed: it fails with `prime mismatch` or
    `dimension mismatch`. Every neighbor is read before the vertex is decided.

    The decision: when `support(f(v)) & ~support(OR of f(N(v)))` is nonzero,
    some coordinate i is nonzero in f(v) and zero on every neighbor, so the
    functional e*_i vanishes on span f(N(v)) but not on f(v), and f(v) lies
    outside the span (the support formula and why it never carries: module
    docstring). Otherwise the echelon elimination of f(N(v)) decides. So the
    certificate only answers True where the elimination would."""
    vertices = g.vertices
    for v in vertices:
        if v not in c.assignment:
            raise ContractError(f"no vector assigned to vertex {v!r}")
    p, dim, assignment, nbrs = c.p, c.dim, c.assignment, g.neighbor_indices
    packed: list[int | None] = [None] * len(vertices)
    kernel = None  # made after the first check passes, so a bad dim costs nothing
    for i, v in enumerate(vertices):
        x = packed[i]
        if x is None:
            vec = assignment[v]
            if vec.p != p or vec.dim != dim:
                raise ContractError(f"vector for {v!r} does not match coloring parameters")
            if kernel is None:
                kernel = _packing(p, dim)
            x = packed[i] = kernel.pack(vec.coords)
        if not x:
            yield v, False
            continue
        covered = 0
        for j in nbrs[i]:
            y = packed[j]
            if y is None:
                vec = assignment[vertices[j]]
                if vec.p != p:
                    raise ContractError(f"prime mismatch: {vec.p} vs {p}")
                if vec.dim != dim:
                    raise ContractError(f"dimension mismatch: {vec.dim} vs {dim}")
                y = packed[j] = kernel.pack(vec.coords)
            covered |= y
        if kernel.support(x) & ~kernel.support(covered):
            yield v, True
            continue
        rows: list[_Row] = []
        for j in nbrs[i]:
            kernel.append(rows, packed[j])
        yield v, bool(kernel.reduce(rows, x))


def verify_span_coloring(g: Graph, c: SpanColoring) -> bool:
    """Whether the span condition holds at every vertex (`span_conditions`);
    stops at the first vertex where it fails."""
    return all(ok for _, ok in span_conditions(g, c))


@lru_cache(maxsize=None)
def _packed_reps(p: int, r: int) -> tuple[int, ...]:
    """All vectors in F_p^r with first nonzero coordinate 1, in lex order,
    packed; zero padding leaves a packed int alone, so these serve every n >= r."""
    if not r:
        return ()
    w = _packing(p, r).w
    # vectors with a later leading 1 start with more zeros, so they come first;
    # after the leading 1 at coordinate i come c, then t from all of
    # F_p^(r-2-i) in lex order
    reps, tails = [1 << (w * (r - 1))], [0]
    for i in reversed(range(r - 1)):
        s = w * (i + 1)
        reps += [1 << (w * i) | c << s | t << (s + w) for c in range(p) for t in tails]
        if i:
            tails = [c | t << w for c in range(p) for t in tails]
    return tuple(reps)


def _search_dimension(g: Graph, p: int, n: int) -> dict[str, tuple[int, ...]] | None:
    """Exhaustive (up to GL(n,F_p) and scaling symmetry) search for an n-span coloring.

    `span_chromatic_number` calls it only below the greedy bound u (module
    docstring), where it may fail: dimensions max(2, omega) to u - 1 in turn.

    Vertices are processed in `graph._degree_order`; per-vertex candidate
    vectors are projective representatives inside the span of the already
    assigned vectors plus one fresh basis vector, which covers every solution
    up to a global change of basis.

    Vectors are packed ints (format: see the module docstring). The
    candidates of rank r are packed once per (p, r), and the fresh basis
    vector is 1 << (w*r). The assigned vectors span exactly the first r
    coordinates, so a placement raises r exactly when it places the fresh
    vector, the only candidate with a nonzero coordinate at or past r.

    Each vertex holds the span of its placed neighbors' vectors as a
    subspace interned in `_lattice(p, n)`, which every graph's search at
    (p, n) shares. The membership and fullness tests are memo lookups, a
    placement replaces each neighbor's subspace by the memoized join, and
    undo restores the previous reference. A placement reads only membership
    and dimension, so the result does not depend on the order in which
    neighbors are visited, nor on whether an answer came from a memo or from
    elimination. The lattice is never read by `span_conditions`, so the
    self-check of every witness does not rest on the memos.
    """
    lattice = _lattice(p, n)
    outside, join = lattice.outside, lattice.join
    w = lattice.kernel.w
    order = _degree_order(g)
    m = len(order)
    pos = {v: i for i, v in enumerate(order)}
    adj = [[pos[u] for u in g.neighbor_indices[v]] for v in order]
    assigned: list[int] = [0] * m
    # per vertex, the span of the assigned part of its open neighborhood
    spans: list[_Subspace] = [lattice.zero] * m
    rank = 0  # the dimension of the span of all assigned vectors

    def candidates(rank: int):
        yield from _packed_reps(p, rank)
        if rank < n:
            yield 1 << (w * rank)

    # one frame per placed vertex, deepest last: (its candidate iterator, the
    # (neighbor, previous span) pairs whose span gained its vector, whether
    # rank grew)
    frames: list[tuple[Iterator[int], list[tuple[int, _Subspace]], bool]] = []
    pending = candidates(0)  # candidates of vertex len(frames)
    while len(frames) < m:
        i = len(frames)
        s = spans[i]
        known = s.outside
        for vec in pending:
            out = known.get(vec)
            if not (outside(s, vec) if out is None else out):
                continue
            ok = True
            touched: list[tuple[int, _Subspace]] = []
            for u in adj[i]:
                su = spans[u]
                t = su.joins.get(vec)
                if t is None:
                    t = join(su, vec)
                if t is su:
                    # every placed u lies outside its span, and every other u's
                    # span is short of F_p^n; an unchanged span keeps both
                    continue
                touched.append((u, su))
                spans[u] = t
                if u < i:
                    x = assigned[u]
                    out = t.outside.get(x)
                    if not (outside(t, x) if out is None else out):
                        ok = False
                        break
                elif t.dim == n:
                    ok = False
                    break
            if ok:
                assigned[i] = vec
                grew = vec >> (w * rank) != 0
                rank += grew
                frames.append((pending, touched, grew))
                pending = candidates(rank)
                break
            for u, su in touched:
                spans[u] = su
        else:
            if not frames:
                return None
            pending, touched, grew = frames.pop()
            rank -= grew
            assigned[len(frames)] = 0
            for u, su in touched:
                spans[u] = su
    return {g.vertices[v]: lattice.kernel.unpack(x) for v, x in zip(order, assigned)}


def span_chromatic_number(g: Graph, p: int) -> tuple[int, SpanColoring]:
    """Least n admitting an n-span coloring over F_p, with a verified witness.

    The returned dimension is certified: every dimension from max(2, clique
    number) up to n-1 is searched to exhaustion, and dimensions below that are
    excluded because a span coloring restricts to any subgraph and a clique
    (an edge included) needs linearly independent vectors. No dimension at or
    above u, the color count of one greedy DSATUR coloring, is searched: when
    every dimension below u fails, n = u and the witness is that coloring's
    basis vectors (`_basis_witness`), since s_p-chi <= chi <= u.

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
    """The solve behind `span_chromatic_number`. Every witness, searched or
    greedy, passes `verify_span_coloring` before it is kept; the greedy one
    is built unchecked (`_basis_witness`), since that check fails exactly
    when the greedy coloring is improper."""
    if not g.vertices:
        return 0, SpanColoring(p, 0, {})
    colors = _greedy_coloring(g)
    u = max(colors)
    for n in range(max(2, len(max_clique(g))), u):
        sol = _search_dimension(g, p, n)
        if sol is not None:
            witness = SpanColoring(p, n, {v: FpVector(p, sol[v]) for v in g.vertices})
            break
    else:
        n, witness = u, _basis_witness(g, colors, u, p)
    if not verify_span_coloring(g, witness):
        raise AssertionError("solver returned an invalid witness")
    return n, witness


def _basis_witness(g: Graph, colors: Iterable[int], dim: int, p: int) -> SpanColoring:
    """Color i (of 1..dim, per vertex in graph order) sent to the standard
    basis vector e_i, with no check of the coloring.

    It is a span coloring exactly when the coloring is proper: e_{c(v)} is
    nonzero, and it lies in span{e_{c(u)} : u in N(v)} iff some neighbor u
    has c(u) = c(v), distinct basis vectors being independent. So
    `verify_span_coloring` on the result fails exactly when the coloring is
    improper. The vectors are the one shared tuple `_basis(p, dim)`, so a
    color's vector is the same `FpVector` in every witness of that (p, dim)."""
    basis = _basis(p, dim)
    return SpanColoring(p, dim, {v: basis[c - 1] for v, c in zip(g.vertices, colors)})


def coloring_to_span_coloring(g: Graph, c: Coloring, p: int) -> SpanColoring:
    """Send color i to the standard basis vector e_i: a span coloring, since
    f(N(v)) spans only basis vectors other than f(v) (`_basis_witness`).
    Raises `ContractError` unless c is a proper coloring of g."""
    if not coloring_is_valid(g, c):
        raise ContractError("not a valid coloring of the graph")
    return _basis_witness(g, [c.assignment[v] for v in g.vertices], c.num_colors, p)
