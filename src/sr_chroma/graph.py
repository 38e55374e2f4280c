"""Finite simple graphs: edge-list parsing, exact chromatic number.

A `Graph` stores its adjacency once: its vertex labels and one neighbor
bitmask per vertex (`neighbor_masks`, bit j for vertex j), built while the
constructor validates the edges. Every other view is derived from these on
first read and kept on the instance: the ascending neighbor indices
(`neighbor_indices`), which every search reads, the isolated-vertex mask
(`isolated_mask`), the label-to-index map (`index`) and the label-pair
`edges`. No query of the library reads `edges`, so a graph that is only
solved never builds it.

A `Graph` is immutable, so its exact answers are facts about it: `max_clique`,
the greedy DSATUR coloring and `chromatic_number` (and
`span.span_chromatic_number`, per prime) solve at most once per `Graph`
instance and keep the answer on it. Witnesses are returned as fresh copies, so
a caller that mutates one cannot change a later answer.

There is one coloring search, `_saturation_coloring` (DSATUR). With a color
per vertex it is the greedy pass; below the greedy count it is chi's search,
and the first coloring it finds is chi's witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ContractError, GraphParseError

# the table format's separators, and the comma that separates the generators
# of a partition block
LABEL_SEPARATORS = frozenset("*+^=,")


def _label_fault(label) -> str | None:
    """Why `label` cannot name a vertex, or None when it can. A vertex v is
    the generator y_v in tables and partition blocks, and a graph file holds
    it as one whitespace-free token before any `#` comment: so a label is a
    non-empty string with no whitespace, no `#` and none of
    `LABEL_SEPARATORS`, and every graph, table and partition reads back."""
    if isinstance(label, str) and label.isalnum():
        return None  # letters and digits only, the common case
    if not isinstance(label, str) or label.split() != [label]:
        return "a label is a non-empty string with no whitespace"
    if "#" in label:
        return "a label holds no #"
    if not LABEL_SEPARATORS.isdisjoint(label):
        return "a label holds none of * + ^ = ,"
    return None


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable simple graph; vertex order is first-appearance order.

    Stored: `vertices` and `neighbor_masks`, and equality and hashing read
    exactly these, so two graphs are equal when they list the same vertices
    in the same order and have the same edge set. Derived on first read and
    kept: `neighbor_indices`, `isolated_mask`, `index` and `edges`."""

    vertices: tuple[str, ...]
    neighbor_masks: tuple[int, ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vertices = tuple(vertices)
        for label in vertices:
            fault = _label_fault(label)
            if fault is not None:
                raise ContractError(f"bad vertex label {label!r}: {fault}")
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ContractError("duplicate vertex labels")
        masks = [0] * len(vertices)
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ContractError(f"edge {edge!r} is not a pair of vertices") from None
            if u == v:
                raise ContractError(f"loop edge at {u!r}")
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise ContractError(f"edge ({u!r}, {v!r}) references unknown vertex")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "neighbor_masks", tuple(masks))

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> "Graph":
        return Graph(vertices, (tuple(e) for e in edges))

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertices!r}, edges={self.sorted_edges()!r})"

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbor_indices(self) -> tuple[tuple[int, ...], ...]:
        """The ascending neighbor indices of each vertex index: the set bits
        of its mask, lowest first."""
        rows = []
        for mask in self.neighbor_masks:
            row = []
            while mask:
                low = mask & -mask
                row.append(low.bit_length() - 1)
                mask ^= low
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def isolated_mask(self) -> int:
        """The vertices with no neighbor as a bitmask, bit v for vertex v."""
        return sum(1 << v for v, mask in enumerate(self.neighbor_masks) if not mask)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Each edge once as a pair of labels, the earlier vertex first."""
        return frozenset(self.sorted_edges())

    @cached_property
    def _answers(self) -> dict:
        """Exact answers solved on this graph, by key: "clique", "greedy", "chi", ("span", p)."""
        return {}

    def _position(self, v: str) -> int:
        at = self.index.get(v)
        if at is None:
            raise ContractError(f"unknown vertex {v!r}")
        return at

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self.vertices[j] for j in self.neighbor_indices[self._position(v)])

    def degree(self, v: str) -> int:
        return len(self.neighbor_indices[self._position(v)])

    def min_degree(self) -> int:
        return min(map(len, self.neighbor_indices), default=0)

    def sorted_edges(self) -> list[tuple[str, str]]:
        vs = self.vertices
        return [(vs[i], vs[j]) for i, row in enumerate(self.neighbor_indices) for j in row if i < j]

    def induced(self, keep: Iterable[str]) -> "Graph":
        """The subgraph on the kept vertices, in this graph's vertex order,
        read off their masks; a label not in the graph is ignored. Its labels
        and edges are this graph's, so they are not validated again."""
        kept = set(keep)
        old = [i for i, v in enumerate(self.vertices) if v in kept]
        masks = self.neighbor_masks
        sub = object.__new__(Graph)
        object.__setattr__(sub, "vertices", tuple(self.vertices[i] for i in old))
        object.__setattr__(
            sub,
            "neighbor_masks",
            tuple(sum(1 << b for b, j in enumerate(old) if masks[i] >> j & 1) for i in old),
        )
        return sub


@dataclass(frozen=True, eq=True)
class Coloring:
    """Proper vertex coloring into {1..num_colors}."""

    num_colors: int
    assignment: dict[str, int]

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


def coloring_is_valid(g: Graph, c: Coloring) -> bool:
    if set(c.assignment) != set(g.vertices):
        return False
    if any(not 1 <= col <= c.num_colors for col in c.assignment.values()):
        return False
    colors = [c.assignment[v] for v in g.vertices]
    return all(colors[i] != colors[j] for i, row in enumerate(g.neighbor_indices) for j in row)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: `v <label>`, `e <a> <b>`, `#` comments. A
    label holding one of `LABEL_SEPARATORS` is an input error (the label rule
    of `Graph`, named with its line), so every table and partition over the
    graph reads back."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "v":
            if len(tokens) != 2:
                raise GraphParseError("expected `v <label>`", lineno)
            fault = _label_fault(tokens[1])
            if fault is not None:
                raise GraphParseError(f"bad vertex label {tokens[1]!r}: {fault}", lineno)
            if tokens[1] not in seen:
                seen.add(tokens[1])
                vertices.append(tokens[1])
        elif tokens[0] == "e":
            if len(tokens) != 3:
                raise GraphParseError("expected `e <label> <label>`", lineno)
            u, v = tokens[1], tokens[2]
            if u == v:
                raise GraphParseError(f"loop edge at {u!r}", lineno)
            for w in (u, v):
                if w not in seen:
                    raise GraphParseError(f"unknown vertex reference {w!r}", lineno)
            edges.append((u, v))
        else:
            raise GraphParseError(f"unknown directive {tokens[0]!r}", lineno)
    return Graph(vertices, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"v {v}" for v in g.vertices]
    lines += [f"e {u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def max_clique(g: Graph) -> tuple[str, ...]:
    """Exact maximum clique, exponential search; fine at the sizes handled here.

    Solved once per `Graph`; the answer is a tuple, so it is shared as is."""
    answers = g._answers
    if "clique" not in answers:
        answers["clique"] = _max_clique(g)
    return answers["clique"]


def _degree_order(g: Graph) -> list[int]:
    """Vertex indices by descending degree, then ascending index: the order in
    which `_max_clique` and `span._search_dimension` take vertices."""
    nbrs = g.neighbor_indices
    return sorted(range(len(nbrs)), key=lambda i: (-len(nbrs[i]), i))


def _max_clique(g: Graph) -> tuple[str, ...]:
    """Branch and bound over candidates in degree order, on an explicit stack.

    A frame [clique, candidates, i] tries each of candidates[i:] as the next
    member of `clique`. It is popped once adding all of them could not beat
    the best clique so far; the bound only shrinks for later candidates, and
    it always holds when they run out, since `best` is never shorter than a
    frame's clique."""
    adj = [set(row) for row in g.neighbor_indices]
    best: list[int] = []
    stack: list[list] = [[[], _degree_order(g), 0]]
    while stack:
        frame = stack[-1]
        clique, candidates, i = frame
        if len(clique) + len(candidates) - i <= len(best):
            stack.pop()
            continue
        frame[2] = i + 1
        v = candidates[i]
        grown = clique + [v]
        if len(grown) > len(best):
            best = grown
        stack.append([grown, [u for u in candidates[i + 1 :] if u in adj[v]], 0])
    return tuple(g.vertices[i] for i in best)


def _saturation_coloring(g: Graph, k: int) -> list[int] | None:
    """A k-coloring by backtracking with saturation-first vertex selection
    (DSATUR; Brelaz, CACM 1979), as colors 1..k by vertex index, or None.

    The next vertex has the most distinct neighbor colors, then the most
    neighbors, then the earliest index; it tries its least free color first.
    With k above the maximum degree a free color always exists, so the search
    never backtracks: it is one greedy DSATUR pass, a bound chi <= max color."""
    n = len(g.vertices)
    adj = g.neighbor_indices
    colors = [0] * n
    nbr_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int:
        cand, best = -1, (-1, -1)
        for v in range(n):
            if colors[v] == 0:
                key = (len(nbr_colors[v]), len(adj[v]))
                if key > best:
                    cand, best = v, key
        return cand

    # one frame per colored vertex, deepest last: (vertex, its color, the
    # uncolored neighbors whose nbr_colors gained that color)
    frames: list[tuple[int, int, list[int]]] = []
    v, c = pick(), 0  # the vertex being colored and the last color tried on it
    while v != -1:
        c += 1
        while c <= k and c in nbr_colors[v]:
            c += 1
        if c <= k:
            colors[v] = c
            touched = []
            for u in adj[v]:
                if colors[u] == 0 and c not in nbr_colors[u]:
                    nbr_colors[u].add(c)
                    touched.append(u)
            frames.append((v, c, touched))
            v, c = pick(), 0
            continue
        if not frames:
            return None
        v, c, touched = frames.pop()
        for u in touched:
            nbr_colors[u].remove(c)
        colors[v] = 0
    return colors


def _greedy_coloring(g: Graph) -> tuple[int, ...]:
    """One greedy DSATUR pass (`_saturation_coloring` with a color per
    vertex), as colors by vertex index; its largest color u bounds chi.
    Solved once per `Graph`, however many primes ask for s_p-chi."""
    answers = g._answers
    if "greedy" not in answers:
        answers["greedy"] = tuple(_saturation_coloring(g, len(g.vertices)))
    return answers["greedy"]


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number, with the coloring that decided it as the witness.

    max(2, omega) <= chi <= u, where u is the greedy pass's largest color. The
    counts from max(2, omega) to u - 1 are searched in turn, and the first
    coloring found is the witness; when none is found, chi is u and the
    witness is the greedy coloring. Solved once per `Graph`; every call
    returns its own copy of the witness."""
    answers = g._answers
    if "chi" not in answers:
        answers["chi"] = _chromatic_number(g)
    chi, witness = answers["chi"]
    return chi, Coloring(witness.num_colors, dict(witness.assignment))


def _chromatic_number(g: Graph) -> tuple[int, Coloring]:
    if not g.vertices:
        return 0, Coloring(0, {})
    colors = _greedy_coloring(g)
    u = max(colors)
    for k in range(max(2, len(max_clique(g))), u):
        found = _saturation_coloring(g, k)
        if found is not None:
            return k, Coloring(k, dict(zip(g.vertices, found)))
    return u, Coloring(u, dict(zip(g.vertices, colors)))
