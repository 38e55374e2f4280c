"""Sufficiency certificates and the realizability pipeline.

A partition of the complex's generators certifies sufficiency when every
maximal face meets every block in an allowed degree multiset or not at all.
A maximal face is every x generator plus a graph face F: an edge, an
isolated vertex, or nothing when the graph has no vertex. So a block with
graph-vertex bitmask Y meets it in its own x generators plus t = |F & Y|
graph generators, and only the set T of sizes t that occur matters:
2 in T iff an edge lies inside Y, 1 in T iff an edge crosses Y or an
isolated vertex is in Y, 0 in T iff an edge or an isolated vertex lies
wholly outside Y, and T = {0} when Y is empty. (An edge meets Y in 2, 1 or
0 vertices as it lies inside, crosses or lies outside Y; an isolated vertex
in 1 or 0; the empty face only occurs with no vertex, when Y is empty too.)
`verify_partition_family` is the one checker, in that closed form per block,
on generator indices. The graph-face sizes of `check_realizable` are read
off the graph the same way.

The one construction reads the general block-size vector off the complex (a
block of degree d sits at level (d - 2) / 2, the graph degree 2n + 4 fixes
the length n), splits it into a weakly decreasing part plus an odd-slot part
(`decompose_s`) and lays the complex's own generator indices out from it in
two cases; labels are made only by the report writers. On uniform families it
reproduces the coloring partition. The split and the layout depend on the
graph only through chi, so they are kept across calls per (block shape,
graph degree, chi), the last `_DECOMPOSITIONS_KEPT` of them; chi's color
classes are attached, and the blocks are checked for cover and against the
multiset family, on every graph. Degree multisets of maximal faces are
tested for decomposability into the family's lists, the realizable
polynomial-algebra degree lists by default.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add, lt, sub

from .algebra import JoinComplex, y_label
from .errors import ContractError
from .families import SPAN_CONDITION_KINDS, FamilySpec, build_complex
from .graph import Coloring, Graph, chromatic_number
from .span import span_chromatic_number  # noqa: F401 -- perfbench's tracer self-test reads it here
from .steenrod import necessary_condition


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of generator indices covering a join complex's generators."""

    blocks: tuple[frozenset[int], ...]

    def validate_against(self, k: JoinComplex) -> None:
        """Raise ContractError unless the blocks partition 0..n-1, n the
        number of k's generators. They do iff their union is that range and
        their sizes add up to n, so no index is in two of them; the
        diagnostics are made only when that test fails."""
        n = k.num_generators
        everything = range(n)
        if sum(map(len, self.blocks)) == n and set().union(*self.blocks) == set(everything):
            return
        seen: set[int] = set()
        for block in self.blocks:
            outside = [i for i in block if i not in everything]
            if outside:
                raise ContractError(f"partition holds generator indices {sorted(outside)} outside 0..{n - 1}")
            overlap = seen & block
            if overlap:
                raise ContractError(f"partition blocks overlap on {_labels(k, overlap)}")
            seen |= block
        if len(seen) != n:
            raise ContractError(f"partition does not cover V(K): missing={_labels(k, set(everything) - seen)}")

    def label_blocks(self, k: JoinComplex) -> list[list[str]]:
        """Each block's labels in k's generator order: the order every report
        lists them in."""
        return [_labels(k, block) for block in self.blocks]

    def serialize(self, k: JoinComplex) -> str:
        lines = [f"V_{i}: {', '.join(labels)}" for i, labels in enumerate(self.label_blocks(k), 1)]
        return "\n".join(lines) + ("\n" if lines else "")


def _labels(k: JoinComplex, indices) -> list[str]:
    labels = k.gen_labels
    return [labels[i] for i in sorted(indices)]


def scheme_multisets(p: int, scheme: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(full, partial) target multisets for the two uniform constructions."""
    if scheme == "A":
        partial = tuple(range(4, 2 * p + 1, 2))
    elif scheme == "B":
        partial = tuple(range(4, 2 * p - 1, 4))
    else:
        raise ContractError(f"unknown scheme {scheme!r}")
    return partial + (2 * p + 2,), partial


class DegreeMultisetFamily:
    """A family of allowed degree lists, stated once: `blocks_with_max(top)`
    gives its sorted lists whose largest degree is `top`, which is what the
    decomposition search walks. Membership is derived from them: a multiset is
    allowed when it is nonempty and, sorted, one of the lists of its own top
    degree."""

    def is_allowed(self, multiset: tuple[int, ...]) -> bool:
        return _allowed(tuple(sorted(multiset)), self)

    def blocks_with_max(self, top: int) -> list[tuple[int, ...]]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class AndersonGrodalFamily(DegreeMultisetFamily):
    """Degree lists of the realizable integral polynomial algebras: {2},
    the contiguous even chains {4,6,...,2n}, and the chains {4,8,...,4m}."""

    def blocks_with_max(self, top: int) -> list[tuple[int, ...]]:
        if top == 2:
            return [(2,)]
        if top < 4 or top % 2:
            return []
        out = [tuple(range(4, top + 1, 2))]
        if top > 4 and top % 4 == 0:
            out.append(tuple(range(4, top + 1, 4)))
        return out

    def describe(self) -> str:
        return "{2}; {4,6,...,2n}; {4,8,...,4m}"


class ExplicitFamily(DegreeMultisetFamily):
    def __init__(self, allowed: tuple[tuple[int, ...], ...]):
        self.allowed = tuple(tuple(sorted(ms)) for ms in allowed)

    def blocks_with_max(self, top: int) -> list[tuple[int, ...]]:
        return [ms for ms in self.allowed if ms and max(ms) == top]

    def describe(self) -> str:
        return "; ".join("{" + ",".join(map(str, ms)) + "}" for ms in self.allowed)


DEFAULT_FAMILY = AndersonGrodalFamily()


def load_family_file(text: str) -> ExplicitFamily:
    """One allowed multiset per line, comma-separated positive even degrees;
    `#` comments."""
    allowed = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            degrees = tuple(int(x) for x in line.split(","))
        except ValueError:
            raise ContractError(f"line {lineno}: bad multiset {line!r}") from None
        if any(d <= 0 or d % 2 for d in degrees):
            raise ContractError(f"line {lineno}: degrees must be positive even integers, got {line!r}")
        allowed.append(degrees)
    if not allowed:
        raise ContractError("multiset family file lists no multisets")
    return ExplicitFamily(tuple(allowed))


def multiset_decomposable(
    multiset: tuple[int, ...], family: DegreeMultisetFamily | None = None
) -> tuple[tuple[int, ...], ...] | None:
    """Partition the multiset into allowed blocks (exact); None if impossible.
    Entries must be positive and even; they are checked on every call.

    The answer depends only on the sorted multiset and the family, and the
    realizability check asks about the same few face multisets on every graph,
    so the last `_DECOMPOSITIONS_KEPT` answers are kept per (sorted multiset,
    family object). A family is told apart by identity and must not change
    its answers once used."""
    fam = family if family is not None else DEFAULT_FAMILY
    for entry in multiset:
        if not isinstance(entry, int) or entry <= 0 or entry % 2:
            raise ContractError(f"multiset entries must be positive even integers, got {entry!r}")
    return _decompose_multiset(tuple(sorted(multiset)), fam)


_DECOMPOSITIONS_KEPT = 256


@lru_cache(maxsize=_DECOMPOSITIONS_KEPT)
def _allowed(multiset: tuple[int, ...], fam: DegreeMultisetFamily) -> bool:
    """`fam.is_allowed` on a sorted multiset, kept per (multiset, family
    object) as `_decompose_multiset` keeps its answers."""
    return bool(multiset) and multiset in fam.blocks_with_max(multiset[-1])


@lru_cache(maxsize=_DECOMPOSITIONS_KEPT)
def _decompose_multiset(
    multiset: tuple[int, ...], fam: DegreeMultisetFamily
) -> tuple[tuple[int, ...], ...] | None:
    """Depth-first over blocks that hold the largest remaining entry, in the
    family's `blocks_with_max` order, on an explicit stack so a long multiset
    needs no deep recursion; remainders already shown to fail are skipped."""

    def fits(counter: Counter):
        for block in fam.blocks_with_max(max(counter)):
            need = Counter(block)
            if all(counter[d] >= c for d, c in need.items()):
                yield tuple(block), counter - need

    if not multiset:
        return ()
    failed: set[tuple[int, ...]] = set()
    path: list[tuple[int, ...]] = []  # blocks taken on the way to the top frame
    frames = [(multiset, fits(Counter(multiset)))]
    while frames:
        key, options = frames[-1]
        for block, rest in options:
            if not rest:
                return tuple(path) + (block,)
            rest_key = tuple(sorted(rest.elements()))
            if rest_key not in failed:
                path.append(block)
                frames.append((rest_key, fits(rest)))
                break
        else:
            failed.add(key)
            frames.pop()
            if path:
                path.pop()
    return None


def decompose_s(s: tuple[int, ...], c: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Split s = s' + s'' with s' weakly decreasing and s'' supported on odd
    slots (weakly decreasing there), subject to the tail condition against c;
    of all such splits, the first in downward lexicographic order of the
    odd-slot values v_1, v_3, ... of s''. None when there is no split.

    Every condition of `validate_decomposition` other than the chain
    v_1 >= v_3 >= ... bounds a single odd slot i to an interval [lo_i, hi_i]:
    0 <= v_i <= s_i; s'_i >= s'_{i+1} gives v_i <= s_i - s_{i+1};
    s'_{i-1} >= s'_i gives v_i >= s_i - s_{i-1}; and the tail condition is
    v_{n-1} >= c - s_n for even n, v_n <= s_n - c for odd n. Odd slots are
    never adjacent, so no condition ties two of them except the chain. Raising
    any v_i towards hi_i only loosens the chain for later slots, so the
    lexicographically first split takes v_i = min(hi_i, v_{i-2}) at every
    slot, and a split exists exactly when that greedy choice stays >= lo_i
    throughout: a shortfall at slot i cannot be repaired by a smaller earlier
    value, nor, once v_i < lo_i, by any later one. O(n) time."""
    if c < 0:
        raise ContractError("chromatic bound must be non-negative")
    if any(v < 0 for v in s):
        raise ContractError("size vector entries must be non-negative")
    n = len(s)
    if n == 0:
        raise ContractError("empty size vector")
    s_dprime = [0] * n
    v = s[0]
    for i in range(0, n, 2):  # 0-based indices of s_1, s_3, ...
        lo = max(0, s[i] - s[i - 1]) if i else 0
        hi = s[i] - s[i + 1] if i + 1 < n else s[i] - c
        if i == n - 2:
            lo = max(lo, c - s[n - 1])
        v = min(v, hi)
        if v < lo:
            return None
        s_dprime[i] = v
    split = tuple(map(sub, s, s_dprime)), tuple(s_dprime)
    validate_decomposition(s, *split, c)
    return split


def validate_decomposition(
    s: tuple[int, ...], s_prime: tuple[int, ...], s_dprime: tuple[int, ...], c: int
) -> None:
    n = len(s)
    if len(s_prime) != n or len(s_dprime) != n:
        raise ContractError("decomposition length mismatch")
    if tuple(map(add, s_prime, s_dprime)) != tuple(s):
        raise ContractError("s' + s'' does not reconstruct s")
    if min(s_prime, default=0) < 0 or min(s_dprime, default=0) < 0:
        raise ContractError("decomposition entries must be non-negative")
    if any(map(lt, s_prime, s_prime[1:])):
        raise ContractError("s' must be weakly decreasing")
    if any(s_dprime[1::2]):
        raise ContractError("s'' must vanish in even slots")
    odd = s_dprime[::2]
    if any(map(lt, odd, odd[1:])):
        raise ContractError("s'' must be weakly decreasing along odd slots")
    if n % 2 == 0:
        if s_dprime[n - 2] + s_prime[n - 1] < c:
            raise ContractError("tail condition s''_{2k-1} + s'_{2k} >= c fails")
    elif s_prime[n - 1] < c:
        raise ContractError("tail condition s'_{2k+1} >= c fails")


def _general_sizes(blocks: tuple[tuple[int, int], ...], graph_degree: int) -> tuple[int, ...]:
    """A complex's block-size vector in the general A(s, -) shape, read off its
    blocks' degrees and its graph degree.

    A block of degree d sits at general level (d - 2) / 2 and the graph degree
    2n + 4 fixes the length n; levels without a block have size 0. A and A_p
    fill levels 1..n; B and B_p put their degree-4j blocks at odd levels 2j - 1
    with n = p - 1. Raises ContractError on a complex outside that shape."""
    n, odd = divmod(graph_degree - 4, 2)
    if n < 1 or odd:
        raise ContractError(f"graph degree {graph_degree} is not an even number >= 6")
    sizes: list[int | None] = [None] * n
    for size, degree in blocks:
        level, odd = divmod(degree - 2, 2)
        if odd or not 1 <= level <= n:
            raise ContractError(f"block degree {degree} is not at a general level 1..{n}")
        if sizes[level - 1] is not None:
            raise ContractError(f"two blocks at general level {level}")
        sizes[level - 1] = size
    return tuple(size or 0 for size in sizes)


@lru_cache(maxsize=_DECOMPOSITIONS_KEPT)
def _construction_plan(
    blocks: tuple[tuple[int, int], ...], graph_degree: int, chi: int
) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    """The graph-free part of the decomposition construction: `decompose_s`'s
    split of `_general_sizes`, laid out by `_layout`; None when there is no
    split.

    Both read the complex only through its blocks (each general level's
    generators are an index range of the generator list), its graph degree
    and chi, so the plan is kept per (blocks, graph degree, chi), the last
    `_DECOMPOSITIONS_KEPT` of them. Errors are raised, not kept, so they
    recur on every call."""
    split = decompose_s(_general_sizes(blocks, graph_degree), chi)
    return None if split is None else _layout(blocks, chi, split)


def _layout(
    blocks: tuple[tuple[int, int], ...], chi: int, split: tuple[tuple[int, ...], tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per block of the construction, its x-generator indices and the color
    whose class it takes (1..chi), or 0, for a split that has passed
    `validate_decomposition`.

    Both layout cases emit full-range blocks, the descending prefixes, then
    the odd chains from the last odd slot. Odd n, or even n with
    s'_n >= chi, colors chi full-range blocks; otherwise all s'_n of them are
    colored, and the first chi - s'_n blocks of the top odd chain. Colors are
    handed out in emission order, color 1 first."""
    s_prime, s_dprime = split
    n = len(s_prime)
    # the unused generators of each level
    pools: dict[int, range] = {}
    start = 0
    for size, degree in blocks:
        pools[(degree - 2) // 2] = range(start, start + size)
        start += size
    plan: list[tuple[tuple[int, ...], int]] = []
    colors_used = 0

    def emit(levels: range, colored_count: int, uncolored_count: int) -> None:
        nonlocal colors_used
        for colored in [True] * colored_count + [False] * uncolored_count:
            members = []
            for level in levels:
                pool = pools.get(level)
                if not pool:
                    raise ContractError(f"level {level} exhausted during construction")
                members.append(pool[0])
                pools[level] = pool[1:]
            color = 0
            if colored:
                if colors_used == chi:
                    raise ContractError("color classes exhausted during construction")
                colors_used += 1
                color = colors_used
            plan.append((tuple(members), color))

    last = s_prime[n - 1]
    if n % 2 or last >= chi:
        emit(range(1, n + 1), chi, last - chi)
        colors_left = 0
    else:  # the top odd chain takes the colors the full-range blocks lack
        emit(range(1, n + 1), last, 0)
        colors_left = chi - last
    for j in range(n - 1, 0, -1):  # descending prefixes
        emit(range(1, j + 1), 0, s_prime[j - 1] - s_prime[j])
    odd = tuple(s_dprime) + (0, 0)  # s''_{j+2} is 0 past the end
    for j in range(n if n % 2 else n - 1, 0, -2):  # odd chains from the last odd slot
        emit(range(1, j + 1, 2), colors_left, odd[j - 1] - odd[j + 1] - colors_left)
        colors_left = 0

    if any(pools.values()) or colors_used < chi:
        raise ContractError("construction left generators unassigned")
    return tuple(plan)


def _decomposition_blocks(
    k: JoinComplex, plan: tuple[tuple[tuple[int, ...], int], ...], c: Coloring
) -> tuple[frozenset[int], ...]:
    """The blocks of the decomposition construction as sets of generator
    indices: `plan`'s blocks with c's color classes attached.

    c is chi's own witness, a proper coloring with as many colors as the
    plan was made for. The color classes are k's graph generators grouped
    by color, in vertex order; the subscripts only count, so any unused
    generator of the right level serves. An edge inside a color class would
    put the graph degree twice into a block's multiset, which no
    Anderson-Grodal list allows, so `sufficiency_partition`'s self-check
    fails."""
    # classes[0] stays empty: it is what an uncolored block takes
    classes: list[list[int]] = [[] for _ in range(c.num_colors + 1)]
    for i, v in enumerate(k.graph.vertices, k.num_generators - len(k.graph.vertices)):
        classes[c.assignment[v]].append(i)
    return tuple(frozenset((*members, *classes[color])) for members, color in plan)


def verify_partition_family(k: JoinComplex, part: Partition, family: DegreeMultisetFamily | None = None) -> bool:
    """The sufficiency check: every nonempty intersection of a maximal face with
    a block must carry an allowed degree multiset (default family if None).

    The partition is validated against k, and `_index_blocks_pass` decides
    it on its generator indices. A maximal face is
    all block generators plus a graph face F (an edge, an isolated vertex, or
    nothing when the graph has no vertex), so it meets a block in the block's
    own x-generators plus t = |F & Y| graph generators, Y the block's graph
    vertices. With that, the set T of sizes t that occur is, per block:
    2 in T iff an edge lies inside Y; 1 in T iff an edge crosses Y or an
    isolated vertex is in Y; 0 in T iff an edge or an isolated vertex lies
    wholly outside Y; a block with no graph generator has T = {0}.
    Proof: an edge meets Y in 2, 1 or 0 vertices as it lies inside, crosses
    or lies outside Y, and an isolated vertex in 1 or 0 as it is in Y or not;
    with no vertex the one graph face is empty, and Y too. Each block is
    checked once per t in T, not once per face."""
    fam = family if family is not None else DEFAULT_FAMILY
    part.validate_against(k)
    return _index_blocks_pass(k, part.blocks, fam)


def _index_blocks_pass(k: JoinComplex, blocks: tuple[frozenset[int], ...], fam: DegreeMultisetFamily) -> bool:
    """`verify_partition_family` on blocks of generator indices.

    Y is a block's graph-vertex bitmask; the neighbor bitmasks and the
    isolated-vertex mask are kept on the `Graph`. Over Y's vertices v only,
    sum |N(v) & Y| is twice the edges inside Y, and the edges crossing Y
    number sum deg(v) - sum |N(v) & Y|. Proof: deg(v) = |N(v) & Y| +
    |N(v) - Y|, and sum |N(v) - Y| counts each crossing edge once, from its
    one end in Y. The rest of the |E| edges lie outside Y, and 2|E| is the
    degree sum over every vertex, read off the rows. So a block costs
    one popcount per vertex of Y. Each distinct multiset is looked up once
    per call."""
    g = k.graph
    masks, nbrs, isolated = g.neighbor_masks, g.neighbor_indices, g.isolated_mask
    x_count = k.num_generators - len(masks)
    degrees = k.gen_degrees
    top = (k.graph_degree,)
    twice_edges = sum(map(len, nbrs))
    passed: set[tuple[int, ...]] = set()
    for block in blocks:
        x_degrees = []
        vertices = []
        for i in block:
            if i < x_count:
                x_degrees.append(degrees[i])
            else:
                vertices.append(i - x_count)
        sizes = (0,)
        if vertices:
            y = 0
            for v in vertices:
                y |= 1 << v
            twice_inside = degree_sum = 0
            for v in vertices:
                twice_inside += (masks[v] & y).bit_count()
                degree_sum += len(nbrs[v])
            crossing = degree_sum - twice_inside
            sizes = []
            if twice_inside:
                sizes.append(2)
            if crossing or isolated & y:
                sizes.append(1)
            if twice_inside + 2 * crossing < twice_edges or isolated & ~y:
                sizes.append(0)
        for t in sizes:
            ms = tuple(x_degrees) + top * t
            if ms and ms not in passed:
                if not fam.is_allowed(ms):
                    return False
                passed.add(ms)
    return True


def verify_partition(k: JoinComplex, part: Partition, scheme: str) -> bool:
    """Every maximal face must meet every block in the scheme's full multiset,
    its partial version, or not at all."""
    p = (k.graph_degree - 2) // 2
    return verify_partition_family(k, part, ExplicitFamily(scheme_multisets(p, scheme)))


@dataclass
class RealizabilityVerdict:
    status: str  # CertifiedRealizable | CertifiedNotRealizable | Inconclusive
    partition: Partition | None = None
    complex: JoinComplex | None = None
    span_gap: tuple[int, int, int] | None = None  # (p, s_p-chi, bound)
    face: tuple[str, ...] | None = None
    face_multiset: tuple[int, ...] | None = None
    note: str = ""

    def to_text(self) -> str:
        lines = [f"status: {self.status}"]
        if self.span_gap is not None:
            p, value, bound = self.span_gap
            lines.append(f"witness: s_{p}chi={value} > bound={bound}")
        if self.face is not None:
            face = ", ".join(self.face)
            ms = ", ".join(map(str, self.face_multiset))
            lines.append(f"witness: face {{{face}}} with multiset {{{ms}}}")
        if self.partition is not None and self.complex is not None:
            lines.append(self.partition.serialize(self.complex).rstrip("\n"))
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.span_gap is not None:
            p, value, bound = self.span_gap
            out["witness"] = {"kind": "span_gap", "p": p, "span_chromatic": value, "bound": bound}
        if self.face is not None:
            out["witness"] = {
                "kind": "face_multiset",
                "face": list(self.face),
                "multiset": list(self.face_multiset),
            }
        if self.partition is not None and self.complex is not None:
            out["partition"] = self.partition.label_blocks(self.complex)
        if self.note:
            out["note"] = self.note
        return out


def sufficiency_partition(k: JoinComplex, family: DegreeMultisetFamily | None = None) -> Partition | None:
    """A verified partition certificate from the decomposition construction,
    or None when `decompose_s` finds no split of k's general block-size vector
    or the partition fails the caller's `family`.

    For a uniform family with chi <= n the construction yields the coloring
    partition: column i of every block plus color class i. The split and
    layout are kept per (block shape, graph degree, chi)
    (`_construction_plan`); chi's color classes, the cover check
    (`Partition.validate_against`) and both multiset checks run on every
    call, on the returned certificate. It must pass the default family;
    that self-check raises AssertionError on failure."""
    chi, coloring = chromatic_number(k.graph)
    plan = _construction_plan(k.blocks, k.graph_degree, chi)
    if plan is None:
        return None
    part = Partition(_decomposition_blocks(k, plan, coloring))
    part.validate_against(k)
    if not _index_blocks_pass(k, part.blocks, DEFAULT_FAMILY):
        raise AssertionError("decomposition construction failed its own multiset check")
    if family is not None and not _index_blocks_pass(k, part.blocks, family):
        return None
    return part


def check_realizable(
    spec: FamilySpec, g: Graph, family: DegreeMultisetFamily | None = None
) -> RealizabilityVerdict:
    """Necessary condition, then per-face multiset decomposability, then the
    sufficiency construction; anything left over is honestly inconclusive.

    A maximal face is every x generator plus a graph face of size t <= 2, so
    its degree multiset depends only on t and is decided once per t; the
    sizes that occur are read off the graph, and a witness face is built only
    when one fails."""
    fam = family if family is not None else DEFAULT_FAMILY
    k = build_complex(spec, g)
    if spec.kind in SPAN_CONDITION_KINDS:
        outcome = necessary_condition(spec, g)
        if not outcome.passed:
            return RealizabilityVerdict(
                "CertifiedNotRealizable",
                span_gap=(outcome.p, outcome.span_value, outcome.bound),
                note="no mod-p power-operation action exists",
            )
    # the graph-face sizes t in `maximal_faces` order: edges, isolated
    # vertices, or the one empty face of a graph with no vertex; the lowest
    # bit of the kept isolated mask is the first isolated vertex
    isolated = g.isolated_mask
    sizes = ([2] if any(g.neighbor_masks) else []) + ([1] if isolated else []) or [0]
    x_count = k.num_generators - len(g.vertices)
    x_degrees = list(k.gen_degrees[:x_count])
    for t in sizes:
        ms = tuple(sorted(x_degrees + [k.graph_degree] * t))
        if ms and multiset_decomposable(ms, fam) is None:
            if t == 2:
                graph_face = g.sorted_edges()[0]
            elif t == 1:
                graph_face = (g.vertices[(isolated & -isolated).bit_length() - 1],)
            else:
                graph_face = ()
            return RealizabilityVerdict(
                "CertifiedNotRealizable",
                face=k.gen_labels[:x_count] + tuple(map(y_label, graph_face)),
                face_multiset=ms,
                note="maximal face multiset is not a union of allowed lists",
            )
    part = sufficiency_partition(k, family)
    if part is not None:
        return RealizabilityVerdict("CertifiedRealizable", partition=part, complex=k)
    return RealizabilityVerdict(
        "Inconclusive",
        note="necessary condition passed but no sufficiency certificate applies",
    )
