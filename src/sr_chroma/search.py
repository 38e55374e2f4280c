"""Exhaustive search for power-operation tables.

On a generator of degree 2t, P^k is unknown for 1 <= k < t (forced to g^p at
k = t, zero above). Each unknown entry is a block of variables, its
coefficients over the graded monomial basis (generators in canonical order,
operation index ascending, basis monomials in graded-lex order); a zero entry
is an empty block. A graph generator's basis is cut to the ideal
(y_i) + (y_j y_k) that its entries must preserve, by
`algebra.monomial_in_graph_ideal`: the one statement of that ideal, which
`steenrod.check_ideal_preservation` also tests with, and whose reference, the
generator-list form, is in `tests/helpers.py`. Every relation instance
within the degree bound is compiled once into polynomial equations over F_p
in those coefficients; the search is a depth-first enumeration in that fixed
order with unit propagation, so a branch dies as soon as any equation loses
its last variable without being satisfiable. An exhausted search is
therefore a certificate that no table passes the checkers, relative to the
relation set and degree bound.

Compilation has a kernel of its own (`_CompileKernel`): monomials are packed
ints with a graph-support bitmask for the face check, and coefficients are
plain dicts over the variables. By the Cartan formula P^1 is a derivation
(Steenrod & Epstein, Cohomology Operations, 1962), so the kernel takes P^1 of
a monomial m as the sum over its generators of e_i (m / x_i) P^1(x_i), with
no series of m's prefixes. For k >= 2 it builds the series P^0..P^k of m as
the left fold over m's factors, from the memoized series of its prefix. Each
monomial has one series, extended when a longer one is asked for, so a
base's P^p and P^(p+1) share it. A generator's own series, P^0 up to its top
or the degree bound, is built once per generator. From the ambient the
kernel reads only which generators are graph generators and which pairs are
edges, and it runs its own face test and arithmetic on them. The public
checkers in `steenrod` keep their separate engine, which folds prefixes at
every degree, P^1 included, so a found table is re-verified by code that
shares nothing with the compile that produced it and computes P^1 another
way.

Constraints have one format from compile to solve: a dict from a monomial in
the variables, written as its variables repeated by exponent in ascending
order (x0^2*x3 is (0, 0, 3)), to a nonzero coefficient mod p. The kernel
builds its coefficients in that format, reduced and without zero terms;
compile drops repeats (dicts that compare equal, found through the hash of
their items, with no sorted copy kept) and hands each dict on uncopied as a
`Constraint`'s `terms`, and the solver copies those dicts as its initial
residuals. The compiled constraints live only until then: `search_action`
lets them go before the DFS, so the DFS runs next to one copy of each term.

The solver keeps its own copy of each constraint as its residual, and one
index into it: the occurrences of each variable still live in it, whose
number of keys is the number of variables left. Assigning a variable
changes in place only the terms that hold it: each is popped, and its
reduction is merged back, dropped where it cancels; the occurrence counts
follow, and no other term is copied. Every term change goes on a single trail
as (constraint, key, old coefficient), together with the assignment itself,
and backtracking replays the trail in reverse back to a mark (the trail of
MiniSat, Een & Sorensson, SAT 2003). A residual left in one variable is solved
in closed form up to degree 2, and by trying every value above that.
The DFS runs on an explicit stack of frames, so deep instances need no
recursion limit. The search rules are: the variable->constraint order, the
LIFO propagation queue, values tried 0..p-1, fail-first picking with ties to
the lowest constraint and then the lowest variable, a node counted before the
budget is checked, and free variables set to 0.

The DFS prunes with one rule, dynamic symmetry breaking (SBDS: Gent &
Smith, ECAI 2000). A symmetry of the solution set that fixes the current
assignment A and sends variable x to m*y maps the solutions that extend
A + {x = c} onto those that extend A + {y = m*c}. So once a frame's value c
is exhausted, the frame posts the nogood y != m*c for each image (y, m) of
its variable (`_images`, once per frame, when first needed) until it pops.
Propagation treats a forbidden value as a conflict, and a frame skips one
without counting a node. There are two kinds of symmetry.

Sign changes. For a vector a over GF(2), one bit per generator, let s_a
multiply each generator j by (-1)^(a_j).
- s_a is a graded automorphism of the Stanley-Reisner ring: it preserves the
  monomial ideal and every (y_v) + (y_j y_k). It also fixes each forced top
  g^p, because p is odd.
- Conjugating a table T by s_a gives the table s_a T s_a, and it multiplies
  variable i by (-1)^<a, d_i>. Here variable i is the coefficient of the
  basis monomial m in P^k(g), and its sign mask d_i = (exps(m) - e_g) mod 2
  is a bitmask over the generators (`sign_masks`).
- Every compiled constraint is sign-homogeneous: all of its terms share one
  character, the XOR of the masks of their variables. So s_a multiplies a
  constraint by one sign, and the solution set is invariant under every s_a.
- Some s_a fixes A and negates x, giving x the image (x, -1), exactly when
  d_x lies outside the GF(2) span of the masks of the variables A sets to
  nonzero values: over a field the annihilator of the annihilator of a
  subspace is the subspace (`_negatable`). As c runs over 1..(p-1)/2, -c
  runs over (p+1)/2..p-1, so such a frame counts no node from (p+1)/2 on.

Twin swaps, restricted to transpositions. Two generators are twins when they
have the same degree and are either both outside the graph (block or free
generators) or both graph vertices with N(i) - {j} = N(j) - {i}.
`_twin_swaps` holds each swap as the variables it moves, mapped to their
images.
- The swap s of twins i, j is a face-preserving graded automorphism of the
  Stanley-Reisner ring. It keeps degrees. Outside the graph it touches no
  face condition. On the graph it is an automorphism: an edge ik, k != j,
  goes to jk, an edge because k is in N(i) - {j} = N(j) - {i}, and ij goes
  to itself.
- Conjugating a table T by s gives the table s T s, and it sends variable
  (g, k, m), the coefficient of m in P^k(g), to (sg, k, sm), with no sign.
  Conjugation preserves unstability: s(g)^p = s(g^p), so each forced top
  goes to a forced top, and the blocks keep their k. It preserves the
  Cartan formula, because s is a ring map. It sends the ideal
  (y_g) + (y_a y_b) of a graph generator g onto the one of sg, since s
  permutes the graph generators and maps edges to edges; so the ideal-cut
  basis of (g, k) goes onto the basis of (sg, k). It preserves each Adem
  relation, and it permutes the instance bases within the bound, which are
  generators and basis monomials of given degrees. So the compiled
  constraint set goes onto itself under the variable map, and so does the
  solution set.
- s fixes A when each variable it moves holds the value of its image, or
  both are unset. Then x's image is (sx, 1).

Each nogood removes only a solution-free subtree: by induction over the
DFS, every value skipped below c was forbidden by an earlier nogood, so an
exhausted c has no solution under it, and by the symmetry neither has
y = m*c. The pruned DFS is therefore the unpruned DFS minus solution-free
subtrees: the same status, relativity string and first table, and never
more nodes. A `_Solver` built without masks and swaps has no images and
runs the unpruned DFS, the tests' reference; one built with masks alone
runs the sign-pruned DFS.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .algebra import AlgebraElement, Monomial, monomial_in_graph_ideal
from .errors import ContractError, SearchSpaceExceeded
from .span import is_odd_prime
from .steenrod import (
    PowerRelation,
    SteenrodTable,
    check_table,
    forced_top,
    relation_instance_bases,
    relations_and_bound,
)

DEFAULT_NODE_CAP = 10**8

Key = tuple[int, ...]  # variables repeated by exponent, ascending: x0^2*x3 is (0, 0, 3)


class Constraint(NamedTuple):
    """One compiled constraint: the kernel's coefficient dict, uncopied.

    The solver could read the dicts themselves; the carrier stays only because
    `perfbench/tracing.py` counts `.terms`, until the search reports its own
    counts."""

    terms: dict[Key, int]


@dataclass(frozen=True)
class EntryBlock:
    """One unknown table entry and its coefficient variables."""

    label: str
    k: int
    basis: tuple[Monomial, ...]
    offset: int


@dataclass
class SearchOutcome:
    status: str  # "found" | "exhausted"
    table: SteenrodTable | None
    relation_names: tuple[str, ...]
    degree_bound: int
    variables: int
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"

    def relativity(self) -> str:
        rels = "; ".join(self.relation_names)
        return f"exhausted (relative to relation set {{{rels}}}, degree bound {self.degree_bound})"


def unknown_entry_blocks(ambient, p: int) -> tuple[list[EntryBlock], int]:
    """One block per entry below the forced top, an empty one for a zero entry,
    with graph-generator bases cut down to the preserved ideal (a table
    outside it fails check_ideal_preservation anyway)."""
    blocks: list[EntryBlock] = []
    offset = 0
    for i, label in enumerate(ambient.gen_labels):
        deg = ambient.gen_degrees[i]
        for k in range(1, deg // 2):
            basis = ambient.monomial_basis(deg + 2 * k * (p - 1))
            if ambient.is_graph_generator(i):
                basis = tuple(m for m in basis if monomial_in_graph_ideal(ambient, m, i))
            blocks.append(EntryBlock(label, k, basis, offset))
            offset += len(basis)
    return blocks, offset


def sign_masks(ambient, blocks: list[EntryBlock]) -> list[int]:
    """Per variable, in variable order, the generators whose sign change
    negates it: for the coefficient of m in P^k(g), bit i is the parity of
    the exponent of generator i in m, flipped when i is g."""
    masks: list[int] = []
    for block in blocks:
        own = 1 << ambient.label_index[block.label]
        for m in block.basis:
            mask = own
            for i, e in enumerate(m.exps):
                if e & 1:
                    mask ^= 1 << i
            masks.append(mask)
    return masks


def _twin_swaps(ambient, blocks: list[EntryBlock]) -> list[dict[int, int]]:
    """Per transposition s of twin generators i < j, the variables it moves,
    each mapped to its image: (g, k, m) goes to (sg, k, sm). A swap that
    moves no variable is left out."""
    n = ambient.num_generators
    degrees = ambient.gen_degrees
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in ambient.graph_edge_indices:
        neighbors[i].add(j)
        neighbors[j].add(i)
    # per entry (g, k), its variables by their monomials' exponents
    entries = {
        (ambient.label_index[b.label], b.k): {m.exps: b.offset + t for t, m in enumerate(b.basis)}
        for b in blocks
    }
    swaps: list[dict[int, int]] = []
    for i in range(n):
        graph = ambient.is_graph_generator(i)
        for j in range(i + 1, n):
            if degrees[i] != degrees[j] or ambient.is_graph_generator(j) != graph:
                continue
            if graph and neighbors[i] - {j} != neighbors[j] - {i}:
                continue
            sigma = {i: j, j: i}
            perm: dict[int, int] = {}
            for (g, k), variables in entries.items():
                target = entries[(sigma.get(g, g), k)]
                for e, u in variables.items():
                    swapped = list(e)
                    swapped[i], swapped[j] = e[j], e[i]
                    v = target[tuple(swapped)]
                    if u != v:
                        perm[u] = v
            if perm:
                swaps.append(perm)
    return swaps


class _CompileKernel:
    """The Cartan formula over the unknown table entries, on plain data.

    A monomial is one int with a bit field per generator (generator i at bit
    `i * width`), so multiplying monomials is adding ints; the field width
    holds every exponent up to the degree bound, so no sum carries into the
    next field. Each monomial also has a graph-support bitmask (bit i for
    graph generator i; 0 on a free algebra, which has none), and a product is
    face-supported exactly when the union of the two masks is empty, one
    graph generator or one edge. A coefficient is a dict from a sorted tuple
    of variables, repeated by exponent, to a nonzero int mod p.

    P^1 of a monomial is read straight off the derivation rule (`_p1`), in
    the order the left fold below would give, and kept per monomial; it is
    the kernel's only rule for degree 1. For k >= 2, a power series
    [P^0(m), ..., P^kmax(m)] maps each degree to a dict from monomial to
    coefficient. The series of m is the series of m without its last
    generator factor times the series of that generator: the left fold over
    m's factors in generator order, memoized on every prefix, with degree 1
    of each prefix taken from `_p1`. A series is kept per monomial and
    serves every shorter request; a longer one appends the missing degrees,
    each filled as a full fold would fill it. The verifier in `steenrod`
    keeps the fold at every degree, so a table's check does not rerun the
    derivation that compiled it. Nothing is kept past one compile.

    The P^1 images share their one-key coefficients, one dict per (key,
    coefficient) in `shared`, held by the kernel and freed with it; so P^1
    images are read-only (`_p1`).
    """

    def __init__(self, ambient, p: int, degree_bound: int, blocks: list[EntryBlock]):
        self.ambient = ambient
        self.p = p
        self.degree_bound = degree_bound
        # no exponent passes degree_bound // (least degree); degrees are >= 2
        self.width = max(1, (degree_bound // min(ambient.gen_degrees, default=2)).bit_length())
        self.blocks = {(ambient.label_index[b.label], b.k): b for b in blocks}
        ys = ambient.graph_generator_indices()
        edges = {(1 << i) | (1 << j) for i, j in ambient.graph_edge_indices}
        self.faces: set[int] = {0} | {1 << i for i in ys} | edges
        self.ys = frozenset(ys)
        self.ymask: dict[int, int] = {0: 0}
        self.gen_cache: dict[int, list[dict[int, Key]]] = {}
        self.p1_cache: dict[int, dict] = {}
        self.shared: dict[tuple[Key, int], dict[Key, int]] = {}  # (key, coefficient) -> {key: coefficient}
        self.series_cache: dict[int, list[dict]] = {0: [{0: {(): 1}}, {}]}

    def pack(self, mono: Monomial) -> int:
        w = self.width
        limit = 1 << w
        packed = ymask = 0
        for i in mono.support():
            e = mono.exps[i]
            if e >= limit:
                raise AssertionError("exponent exceeds its packed field")
            packed += e << (w * i)
            if i in self.ys:
                ymask |= 1 << i
        self.ymask[packed] = ymask
        return packed

    def _generator_series(self, gi: int) -> list[dict[int, Key]]:
        """[P^0(g), P^1(g), ...] for generator gi, up to the top or the last
        degree within the bound, whichever comes first: no instance within
        the bound reads past it, and the packed fields hold nothing past it.
        Every coefficient is one key with coefficient 1, so an entry maps each
        monomial to that key: () or the monomial's variable."""
        series = self.gen_cache.get(gi)
        if series is not None:
            return series
        ambient, p = self.ambient, self.p
        label = ambient.gen_labels[gi]
        deg = ambient.gen_degrees[gi]
        top = deg // 2
        series = [{self.pack(ambient.generator_monomial(label)): ()}]
        for j in range(1, min(top, (self.degree_bound - deg) // (2 * (p - 1))) + 1):
            if j == top:
                series.append({self.pack(ambient.generator_monomial(label, p)): ()})
                continue
            block = self.blocks[(gi, j)]
            series.append({self.pack(m): (block.offset + t,) for t, m in enumerate(block.basis)})
        self.gen_cache[gi] = series
        return series

    def _p1(self, mono: int) -> dict[int, dict]:
        """P^1(mono) by the derivation rule, memoized per monomial.

        Generators are walked in descending index order and each one's P^1
        entry in block-basis order; a product that fails the face test is
        skipped, and so is a generator whose P^1 lies past the degree bound,
        as the fold skips it. A generator whose exponent is 0 mod p adds
        nothing, but its products still take their places in the output, as
        the fold places them, so the monomials come out in the fold's order.
        No key repeats on a monomial: the entry of each generator holds its
        own variables, and two forced tops x_i^p, x_j^p cannot meet on one
        monomial. So no coefficient is summed, and none cancels.

        A coefficient of one key is stored as the kernel's shared dict for
        its (key, coefficient), one for the whole compile; one of several
        keys stays as built. This holds because the image is read-only: no
        reader of it, `power` through `_add_product` or `_extend` through the
        prefix series, writes to a coefficient it reads."""
        out = self.p1_cache.get(mono)
        if out is not None:
            return out
        p = self.p
        w = self.width
        faces = self.faces
        ymask = self.ymask
        ym = ymask[mono]
        acc: dict[int, dict] = {}
        rest = mono
        while rest:
            gi = (rest.bit_length() - 1) // w
            shift = w * gi
            e = rest >> shift
            rest -= e << shift
            gens = self._generator_series(gi)
            if len(gens) < 2:  # P^1(g) lies past the degree bound
                continue
            quotient = mono - (1 << shift)
            yq = ym & ~(1 << gi) if e == 1 else ym
            c = e % p
            for m2, key in gens[1].items():
                y = yq | ymask[m2]
                if y not in faces:
                    continue
                m = quotient + m2
                coeff = acc.get(m)
                if coeff is None:
                    coeff = acc[m] = {}
                    ymask[m] = y
                if c:
                    coeff[key] = c
        shared = self.shared
        out = self.p1_cache[mono] = {}
        for m, coeff in acc.items():
            if len(coeff) == 1:
                (item,) = coeff.items()
                coeff = shared.setdefault(item, coeff)
            if coeff:
                out[m] = coeff
        return out

    def _series(self, mono: int, kmax: int) -> list[dict]:
        """[P^0(mono), ..., P^kmax(mono)] or longer, kmax >= 2: one series per
        monomial, extended degree by degree when a longer one is asked for."""
        cache = self.series_cache
        w = self.width
        steps: list[tuple[int, int]] = []  # (monomial, its last generator), peeled off the end
        series = cache.get(mono)
        while series is None or len(series) <= kmax:
            if not mono:
                series.extend({} for _ in range(kmax + 1 - len(series)))  # P^k(1) = 0, k > 0
                break
            gi = (mono.bit_length() - 1) // w
            steps.append((mono, gi))
            mono -= 1 << (w * gi)
            series = cache.get(mono)
        ymask = self.ymask
        for mono, gi in reversed(steps):
            prefix = series
            gens = self._generator_series(gi)
            series = cache.get(mono)
            if series is None:
                # a prefix met for the first time has no mask yet; `_p1` reads it
                g = 1 << (w * gi)
                ymask[mono] = ymask[mono - g] | ymask[g]
                series = cache[mono] = [{mono: {(): 1}}, self._p1(mono)]
            self._extend(series, prefix, gens, kmax)
        return series

    def _extend(self, series: list[dict], s1: list[dict], gens: list[dict], kmax: int) -> None:
        """Append degrees len(series)..kmax of s1 times a generator series.
        The kernel asks only for degrees 2 and up; at degree 1 this is the
        fold that `_p1` agrees with, monomial order included."""
        p = self.p
        faces = self.faces
        ymask = self.ymask
        for d in range(len(series), kmax + 1):
            acc: dict[int, dict] = {}
            for i in range(max(0, d - len(gens) + 1), d + 1):
                t1 = s1[i]
                t2 = gens[d - i]
                if not (t1 and t2):
                    continue
                for m1, c1 in t1.items():
                    y1 = ymask[m1]
                    for m2, k2 in t2.items():
                        y = y1 | ymask[m2]
                        if y not in faces:
                            continue
                        m = m1 + m2
                        coeff = acc.get(m)
                        if coeff is None:
                            coeff = acc[m] = {}
                            ymask[m] = y
                        # coeff += c1 * k2, k2 a key with coefficient 1
                        for k1, v1 in c1.items():
                            key = tuple(sorted(k1 + k2)) if k1 and k2 else k1 or k2
                            v = (coeff.get(key, 0) + v1) % p
                            if v:
                                coeff[key] = v
                            else:
                                del coeff[key]
            series.append({m: c for m, c in acc.items() if c})

    def power(self, terms: dict[int, dict], k: int) -> dict[int, dict]:
        """P^k on monomial -> coefficient terms; P^0 is the identity."""
        if k == 0:
            return terms
        p = self.p
        out: dict[int, dict] = {}
        for mono, coeff in terms.items():
            image = self._p1(mono) if k == 1 else self._series(mono, k)[k]
            for m, c in image.items():
                acc = out.get(m)
                if acc is None:
                    acc = out[m] = {}
                _add_product(acc, coeff, c, p)
        return {m: c for m, c in out.items() if c}


def _add_product(acc: dict, c1: dict, c2: dict, p: int) -> None:
    """acc += c1 * c2 over F_p; a key whose coefficient cancels is removed."""
    for k1, v1 in c1.items():
        for k2, v2 in c2.items():
            if not (k1 and k2):
                key = k1 or k2
            elif len(k1) == len(k2) == 1:
                key = k1 + k2 if k1 <= k2 else k2 + k1
            else:
                key = tuple(sorted(k1 + k2))
            v = (acc.get(key, 0) + v1 * v2) % p
            if v:
                acc[key] = v
            else:
                del acc[key]


def compile_constraints(
    ambient, p: int, relations: tuple[PowerRelation, ...], degree_bound: int, blocks: list[EntryBlock]
) -> list[Constraint]:
    """Each relation instance within the degree bound, lhs - rhs, as one
    polynomial per monomial coefficient; duplicates and zeros dropped, first
    occurrence kept."""
    kernel = _CompileKernel(ambient, p, degree_bound, blocks)
    polys = _instance_polynomials(kernel, ambient, p, relations, degree_bound)
    return [Constraint(terms) for terms in _first_occurrences(polys)]


def _instance_polynomials(
    kernel: _CompileKernel, ambient, p: int, relations: tuple[PowerRelation, ...], degree_bound: int
) -> Iterator[dict[Key, int]]:
    """lhs - rhs of each relation instance, one coefficient per monomial, in
    relation, instance and monomial order; zeros included."""
    for rel in relations:
        a, b = rel.lhs
        for mono in relation_instance_bases(ambient, p, rel, degree_bound):
            base = {kernel.pack(mono): {(): 1}}
            diff = kernel.power(kernel.power(base, b), a)
            for c, outer, inner in rel.rhs:
                piece = kernel.power(kernel.power(base, inner), outer)
                for m, coeff in piece.items():
                    acc = diff.get(m)
                    if acc is None:
                        acc = diff[m] = {}
                    _add_product(acc, coeff, {(): -c % p}, p)
            yield from diff.values()


def _first_occurrences(polys: Iterable[dict[Key, int]]) -> list[dict[Key, int]]:
    """Each nonzero dict once, at its first occurrence, uncopied. The kept
    dicts are bucketed by the hash of their items and compared as dicts, which
    are equal exactly when their sorted items are, whatever order their keys
    went in."""
    kept: list[dict[Key, int]] = []
    seen: dict[int, list[dict[Key, int]]] = {}
    for poly in polys:
        if not poly:
            continue
        bucket = seen.setdefault(hash(frozenset(poly.items())), [])
        if poly not in bucket:
            bucket.append(poly)
            kept.append(poly)
    return kept


class _Solver:
    """Propagating DFS over in-place residuals, undone through a term-level trail.

    Each residual starts as a copy of a compiled constraint's `terms` dict, in
    the format it was compiled in; the compiled constraints are never touched.
    `live[ci]` maps each variable of residual ci to its occurrences in the
    residual's terms, and is the only index of them: the number of variables
    left in residual ci is `len(live[ci])`. So an assignment costs work in
    proportion to the terms that hold the variable. The variables' sign masks
    and the variables each twin swap moves, mapped to their images, give the
    images that the DFS posts nogoods on; without either it is the unpruned
    reference."""

    def __init__(
        self,
        p: int,
        nvars: int,
        constraints: list[Constraint],
        node_cap: int,
        masks: list[int] | None = None,
        swaps: Sequence[dict[int, int]] = (),
    ):
        self.p = p
        self.node_cap = node_cap
        self.masks = masks
        self.swaps = swaps  # per swap, the variables it moves, mapped to their images
        # bit c of forbidden[v]: a nogood rules out v = c
        self.forbidden = [0] * nvars
        self.assign: list[int | None] = [None] * nvars
        self.residuals: list[dict[Key, int]] = [dict(c.terms) for c in constraints]
        # per residual, each live variable's occurrences in its nonzero terms,
        # counted with multiplicity (x0^2*x3 counts x0 twice)
        self.live: list[dict[int, int]] = []
        for terms in self.residuals:
            occ: dict[int, int] = {}
            for key in terms:
                for v in key:
                    occ[v] = occ.get(v, 0) + 1
            self.live.append(occ)
        self.by_var: list[list[int]] = [[] for _ in range(nvars)]
        for ci, occ in enumerate(self.live):
            for v in occ:
                self.by_var[v].append(ci)
        degree = max(map(len, chain.from_iterable(self.residuals)), default=0)
        self.powers = [[pow(x, e, p) for e in range(degree + 1)] for x in range(p)]
        self.inverse = [0] + [pow(x, p - 2, p) for x in range(1, p)]
        self.squares = {x * x % p for x in range(1, p)}
        # (ci, key, coefficient before the change, or None where the key was
        # absent) for a term change, (-1, var, None) for an assignment
        self.trail: list[tuple] = []
        self.nodes = 0

    def _classify(self, ci: int, queue: list[tuple[int, int]]) -> bool:
        """False on a conflict; queues the root of a residual in one variable
        when that root is unique."""
        occ = self.live[ci]
        if not occ:
            return not self.residuals[ci]
        if len(occ) == 1:
            p = self.p
            var = next(iter(occ))
            c0 = c1 = c2 = 0
            for key, c in self.residuals[ci].items():
                e = len(key)
                if e == 1:
                    c1 = c
                elif e == 0:
                    c0 = c
                elif e == 2:
                    c2 = c
                else:
                    return self._classify_by_values(ci, var, queue)
            if c2:
                # c2 x^2 + c1 x + c0 over F_p, p odd: one root exactly when the
                # discriminant is 0, two when it is a nonzero square
                disc = (c1 * c1 - 4 * c2 * c0) % p
                if disc:
                    return disc in self.squares
                root = -c1 * self.inverse[2 * c2 % p] % p
            else:
                root = -c0 * self.inverse[c1] % p
            queue.append((var, root))
        return True

    def _classify_by_values(self, ci: int, var: int, queue: list[tuple[int, int]]) -> bool:
        """`_classify` for a residual of degree 3 or more in its one variable:
        every value is tried."""
        terms = [(len(key), c) for key, c in self.residuals[ci].items()]
        root = None
        for x, pw in enumerate(self.powers):
            if sum(c * pw[e] for e, c in terms) % self.p == 0:
                if root is not None:
                    return True
                root = x
        if root is None:
            return False
        queue.append((var, root))
        return True

    def _set(self, var: int, val: int, queue: list[tuple[int, int]]) -> bool:
        assign = self.assign
        cur = assign[var]
        if cur is not None:
            return cur == val
        if self.forbidden[var] >> val & 1:
            return False
        assign[var] = val
        push = self.trail.append
        push((-1, var, None))
        p = self.p
        pw = self.powers[val]
        residuals = self.residuals
        lives = self.live
        for ci in self.by_var[var]:
            occ = lives[ci]
            if var not in occ:
                continue
            res = residuals[ci]
            for key in tuple(res):
                if var not in key:
                    continue
                c = res.pop(key)
                push((ci, key, c))
                e = key.count(var)
                c = c * pw[e] % p
                i = key.index(var)
                rest = key[:i] + key[i + e :]
                drop = 1  # occurrences of rest's variables that go
                if c:
                    old = res.get(rest)
                    push((ci, rest, old))
                    if old is None:
                        res[rest] = c
                        continue
                    c = (old + c) % p
                    if c:
                        res[rest] = c
                    else:
                        del res[rest]
                        drop = 2
                for v in rest:
                    n = occ[v] - drop
                    if n:
                        occ[v] = n
                    else:
                        del occ[v]
            del occ[var]
            n = len(occ)
            if n == 0:
                if res:
                    return False
            elif n == 1 and not self._classify(ci, queue):
                return False
        return True

    def _propagate(self, queue: list[tuple[int, int]]) -> bool:
        while queue:
            v, val = queue.pop()
            if not self._set(v, val, queue):
                return False
        return True

    def _undo(self, mark: int) -> None:
        trail = self.trail
        entries = trail[mark:]
        del trail[mark:]
        assign = self.assign
        residuals = self.residuals
        lives = self.live
        for ci, key, old in reversed(entries):
            if ci < 0:
                assign[key] = None
                continue
            res = residuals[ci]
            if old is None:
                del res[key]
                occ = lives[ci]
                for v in key:
                    n = occ[v] - 1
                    if n:
                        occ[v] = n
                    else:
                        del occ[v]
            else:
                if key not in res:
                    occ = lives[ci]
                    for v in key:
                        occ[v] = occ.get(v, 0) + 1
                res[key] = old

    def solve(self) -> list[int] | None:
        queue: list[tuple[int, int]] = []
        for ci in range(len(self.residuals)):
            if not self._classify(ci, queue):
                return None
        if not self._propagate(queue):
            return None
        return self._dfs()

    def _pick_variable(self) -> int | None:
        """Unassigned variable from the tightest live constraint (fail-first);
        ties break to the lowest constraint index, then the lowest variable."""
        best_n = 0
        best_ci = -1
        for ci, occ in enumerate(self.live):
            n = len(occ)
            # n == 0 is a satisfied residual (conflicts never survive propagation)
            if n and (not best_n or n < best_n):
                best_n, best_ci = n, ci
                if n == 1:
                    break
        if best_ci < 0:
            return None
        return min(self.live[best_ci])

    def _negatable(self, var: int) -> bool:
        """Whether some sign change fixes the assignment and negates `var`:
        its mask lies outside the GF(2) span of the masks of the variables
        assigned nonzero values."""
        masks = self.masks
        target = masks[var]
        if not target:
            return False
        pivots: dict[int, int] = {}  # leading bit -> basis vector
        for mask in {masks[i] for i, v in enumerate(self.assign) if v}:
            while mask:
                top = mask.bit_length() - 1
                basis = pivots.get(top)
                if basis is None:
                    pivots[top] = mask
                    break
                mask ^= basis
        while target:
            basis = pivots.get(target.bit_length() - 1)
            if basis is None:
                return True
            target ^= basis
        return False

    def _images(self, var: int) -> list[tuple[int, int]]:
        """The images (y, m) of `var` under the symmetries that fix the
        assignment: (sx, 1) for each swap s that moves it and under which each
        variable it moves holds its image's value, and (var, -1) when a sign
        change negates it."""
        assign = self.assign
        images = [
            (perm[var], 1)
            for perm in self.swaps
            if var in perm and all(assign[u] == assign[v] for u, v in perm.items())
        ]
        if self.masks is not None and self._negatable(var):
            images.append((var, -1))
        return images

    def _dfs(self) -> list[int] | None:
        """Depth-first over the values 0..p-1 of each picked variable, on an
        explicit stack of [var, next value, trail mark, nogood mark, images]
        frames. Trying a value first undoes the trail back to its frame's
        mark, which also undoes every deeper frame. Once a frame's value c is
        exhausted, it forbids m*c to each of its variable's images (y, m); its
        nogoods, one (variable, value bit) per forbidden value it set, are
        lifted when it pops."""
        p = self.p
        forbidden = self.forbidden
        nogoods: list[tuple[int, int]] = []
        frames: list[list] = []
        var = self._pick_variable()
        while var is not None:
            frames.append([var, 0, len(self.trail), len(nogoods), None])
            while True:
                if not frames:
                    return None
                frame = frames[-1]
                var, val, mark, posted, images = frame
                self._undo(mark)
                if val == p:
                    frames.pop()
                    for y, bit in nogoods[posted:]:
                        forbidden[y] ^= bit
                    del nogoods[posted:]
                    continue
                frame[1] = val + 1
                if val:
                    # the assignment is the frame's own again, and val - 1 is exhausted
                    if images is None:
                        images = frame[4] = self._images(var)
                    for y, m in images:
                        bit = 1 << (m * (val - 1) % p)
                        if not forbidden[y] & bit:
                            forbidden[y] |= bit
                            nogoods.append((y, bit))
                if forbidden[var] >> val & 1:
                    continue
                self.nodes += 1
                if self.nodes > self.node_cap:
                    raise SearchSpaceExceeded(
                        f"node budget of {self.node_cap} exceeded after exploring"
                        f" {self.nodes} branch nodes"
                        f" (full coefficient space {p}^{len(self.assign)})",
                        p ** len(self.assign),
                    )
                if self._propagate([(var, val)]):
                    break
            var = self._pick_variable()
        # every constraint is satisfied; remaining variables are free
        return [v if v is not None else 0 for v in self.assign]


def table_from_assignment(
    ambient, p: int, blocks: list[EntryBlock], assignment: list[int]
) -> SteenrodTable:
    """One entry per block (an empty block is zero), and every forced top."""
    entries: dict[tuple[str, int], AlgebraElement] = {}
    for block in blocks:
        terms = {m: assignment[block.offset + t] for t, m in enumerate(block.basis)}
        entries[(block.label, block.k)] = AlgebraElement.make(ambient, p, terms)
    for i, label in enumerate(ambient.gen_labels):
        entries[(label, ambient.gen_degrees[i] // 2)] = forced_top(ambient, label, p)
    return SteenrodTable(p, ambient, entries)


def search_action(
    ambient,
    p: int,
    degree_bound: int | None = None,
    relation_set: tuple[PowerRelation, ...] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchOutcome:
    """Find a table passing all checkers, or certify that none exists.

    `exhausted` is always relative to the relation set and degree bound; a
    found table is re-verified through the public checkers before returning.
    """
    if not is_odd_prime(p):
        raise ContractError(f"action search needs an odd prime, got {p}")
    if node_cap < 0:
        raise ContractError(f"node cap must be non-negative, got {node_cap}")
    relations, bound = relations_and_bound(p, relation_set, degree_bound)
    blocks, nvars = unknown_entry_blocks(ambient, p)
    constraints = compile_constraints(ambient, p, relations, bound, blocks)
    swaps = _twin_swaps(ambient, blocks)
    solver = _Solver(p, nvars, constraints, node_cap, sign_masks(ambient, blocks), swaps)
    del constraints  # the solver has copied them; the DFS runs next to one copy
    assignment = solver.solve()
    names = tuple(r.name for r in relations)
    if assignment is None:
        return SearchOutcome("exhausted", None, names, bound, nvars, solver.nodes)
    table = table_from_assignment(ambient, p, blocks, assignment)
    if not all(r.ok for r in check_table(table, relations, bound)):
        raise AssertionError("search produced a table that fails its own checkers")
    return SearchOutcome("found", table, names, bound, nvars, solver.nodes)
