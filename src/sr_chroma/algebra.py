"""Join complexes, free polynomial ambients, and exact arithmetic mod p.

Both ambient flavors are Stanley-Reisner rings with one face rule: an ordered
generator list with even degrees, the simplex generators first and the graph
generators after them, and a generator support is a face exactly when its
graph part is empty, one graph generator, or an edge. A free polynomial
algebra is the case with no graph generators, so every support is a face.
Both give graded monomial bases and reduce monomials whose support is not a
face to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import add, mul, neg
from typing import Iterable, Sequence

from .errors import ContractError
from .graph import Graph
from .span import is_prime


@dataclass(frozen=True, slots=True)
class Monomial:
    """Exponent vector over an ambient's generator list."""

    exps: tuple[int, ...]

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps):
            raise ContractError("monomials over different generator lists")
        return Monomial(tuple(map(add, self.exps, other.exps)))

    def support(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.exps)), self.exps))

    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exps)


class _AmbientBase:
    """Shared machinery for graded polynomial ambients."""

    gen_labels: tuple[str, ...]
    gen_degrees: tuple[int, ...]
    # each graph edge as a pair (i, j), i < j, of generator indices; an ambient
    # without graph generators has none (`JoinComplex` builds its own)
    graph_edge_indices: frozenset[tuple[int, int]] = frozenset()

    def _init_generators(self, degrees: Sequence[int], graph_start: int | None = None) -> None:
        for i, d in enumerate(degrees):
            if d <= 0 or d % 2:
                raise ContractError(f"generator {self.gen_labels[i]!r} needs a positive even degree, got {d}")
        # subclasses are frozen dataclasses; bypass their __setattr__
        object.__setattr__(self, "gen_degrees", tuple(degrees))
        object.__setattr__(self, "_basis_cache", {})
        # the generators from graph_start on are graph generators; none by default
        object.__setattr__(self, "_graph_start", len(degrees) if graph_start is None else graph_start)

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.gen_labels)}

    # -- face structure ---------------------------------------------------------
    def graph_generator_indices(self) -> tuple[int, ...]:
        return tuple(range(self._graph_start, self.num_generators))

    def is_graph_generator(self, index: int) -> bool:
        return index >= self._graph_start

    def face_ok(self, support: Iterable[int]) -> bool:
        """The graph part of the support is empty, one generator, or an edge
        (a pair (i, j), i < j, of `graph_edge_indices`)."""
        ys = [i for i in support if i >= self._graph_start]
        if len(ys) <= 1:
            return True
        if len(ys) > 2:
            return False
        i, j = sorted(ys)
        return (i, j) in self.graph_edge_indices

    # -- monomial helpers -----------------------------------------------------
    @property
    def num_generators(self) -> int:
        return len(self.gen_degrees)

    def unit_monomial(self) -> Monomial:
        return Monomial((0,) * self.num_generators)

    def generator_monomial(self, label: str, e: int = 1) -> Monomial:
        exps = [0] * self.num_generators
        exps[self._index_of(label)] = e
        return Monomial(tuple(exps))

    def monomial(self, mapping: dict[str, int]) -> Monomial:
        exps = [0] * self.num_generators
        for lbl, e in mapping.items():
            exps[self._index_of(lbl)] = e
        return Monomial(tuple(exps))

    def _index_of(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise ContractError(f"unknown generator {label!r}") from None

    def degree_of(self, m: Monomial) -> int:
        if len(m.exps) != self.num_generators:
            raise ContractError("monomial does not match this ambient")
        return sum(map(mul, m.exps, self.gen_degrees))

    def monomial_key(self, m: Monomial):
        # graded lexicographic: lower degree first, then higher power of an
        # earlier generator first
        return (self.degree_of(m), tuple(map(neg, m.exps)))

    def reduce_monomial(self, m: Monomial) -> Monomial | None:
        """m itself when its support is a face, otherwise None (zero)."""
        if len(m.exps) != self.num_generators:
            raise ContractError("monomial does not match this ambient")
        ys = m.exps[self._graph_start :]
        if len(ys) - ys.count(0) <= 1:
            return m
        return m if self.face_ok(m.support()) else None

    def monomial_basis(self, degree: int) -> tuple[Monomial, ...]:
        """All face-supported monomials of the given degree, enumerated in
        canonical order (`monomial_key`): the stack pops the highest power of
        generator i first and the skip of i last, each subtree in turn."""
        if degree < 0:
            return ()
        cached = self._basis_cache.get(degree)
        if cached is not None:
            return cached
        out: list[Monomial] = []
        n = self.num_generators
        # (next generator, degree left, ((generator, exponent), ...) so far);
        # an explicit stack, since the search is one level deep per generator
        stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, degree, ())]
        while stack:
            i, remaining, chosen = stack.pop()
            if remaining == 0:
                exps = [0] * n
                for j, e in chosen:
                    exps[j] = e
                out.append(Monomial(tuple(exps)))
                continue
            if i == n:
                continue
            stack.append((i + 1, remaining, chosen))
            d = self.gen_degrees[i]
            if d <= remaining and self.face_ok([j for j, _ in chosen] + [i]):
                for e in range(1, remaining // d + 1):
                    stack.append((i + 1, remaining - e * d, chosen + ((i, e),)))
        result = tuple(out)
        self._basis_cache[degree] = result
        return result

    def format_monomial(self, m: Monomial) -> str:
        parts = []
        for i, e in enumerate(m.exps):
            if e == 1:
                parts.append(self.gen_labels[i])
            elif e > 1:
                parts.append(f"{self.gen_labels[i]}^{e}")
        return "*".join(parts) if parts else "1"

    # -- element constructors ---------------------------------------------------
    def zero(self, p: int) -> "AlgebraElement":
        return AlgebraElement.make(self, p, {})

    def one(self, p: int) -> "AlgebraElement":
        return AlgebraElement.make(self, p, {self.unit_monomial(): 1})

    def generator_element(self, label: str, p: int) -> "AlgebraElement":
        return AlgebraElement.make(self, p, {self.generator_monomial(label): 1})


def x_label(block: int, i: int) -> str:
    return f"x{i}^({block})"


def y_label(vertex: str) -> str:
    return f"y_{vertex}"


@dataclass(frozen=True)
class JoinComplex(_AmbientBase):
    """K = simplex blocks joined with a graph, plus the even grading.

    Generators are x_i^(k) for block k and y_v for graph vertices; a generator
    subset is a face exactly when its y-part is empty, a vertex, or an edge.
    blocks entries are (size, degree) pairs; zero-size blocks contribute no
    generators. The labels (`gen_labels`, `label_index`) and the edge index
    (`graph_edge_indices`) are derived on first read, so a complex that only
    meets the realizability check builds neither. Labels are distinct by
    construction: x labels start with `x`, y labels with `y_`, and (k, i)
    pairs and graph vertices are distinct.
    """

    blocks: tuple[tuple[int, int], ...]
    graph: Graph
    graph_degree: int

    def __post_init__(self):
        degrees: list[int] = []
        for size, deg in self.blocks:
            if size < 0:
                raise ContractError("block sizes must be non-negative")
            degrees += [deg] * size
        x_count = len(degrees)
        degrees += [self.graph_degree] * len(self.graph.vertices)
        self._init_generators(degrees, x_count)

    @cached_property
    def graph_edge_indices(self) -> frozenset[tuple[int, int]]:
        """Each graph edge as a pair (i, j), i < j, of generator indices, the
        earlier vertex first; built on first read and kept on the complex."""
        x = self._graph_start
        rows = enumerate(self.graph.neighbor_indices)
        return frozenset((x + i, x + j) for i, row in rows for j in row if i < j)

    @cached_property
    def gen_labels(self) -> tuple[str, ...]:
        xs = [x_label(k, i) for k, (size, _) in enumerate(self.blocks, 1) for i in range(1, size + 1)]
        return tuple(xs + [y_label(v) for v in self.graph.vertices])

    def y_index(self, vertex: str) -> int:
        return self._index_of(y_label(vertex))

    def first_block_labels(self) -> tuple[str, ...]:
        if not self.blocks:
            return ()
        size = self.blocks[0][0]
        return tuple(x_label(1, i) for i in range(1, size + 1))

    def maximal_graph_faces(self) -> list[frozenset[str]]:
        """The graph part of each maximal face, in `maximal_faces` order: each
        edge, then each isolated vertex; one empty face when there is neither."""
        faces = [frozenset({y_label(u), y_label(v)}) for u, v in self.graph.sorted_edges()]
        rows = zip(self.graph.vertices, self.graph.neighbor_indices)
        faces += [frozenset({y_label(v)}) for v, row in rows if not row]
        return faces or [frozenset()]

    def maximal_faces(self) -> list[frozenset[str]]:
        """All maximal faces: every block generator plus one edge (or isolated
        vertex) of the graph; just the block generators when the graph is empty."""
        base = frozenset(self.gen_labels[: self._graph_start])
        return [base | face for face in self.maximal_graph_faces()]

    def serialize_header(self) -> list[str]:
        lines = [f"blocks = {', '.join(f'{s}@{d}' for s, d in self.blocks) or '(none)'}"]
        lines.append(f"graph_degree = {self.graph_degree}")
        return lines


@dataclass(frozen=True)
class FreePolynomialAlgebra(_AmbientBase):
    """Free graded polynomial algebra on labelled even-degree generators: the
    face rule with no graph generators."""

    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = tuple(g for g, _ in self.generators)
        if len(set(labels)) != len(labels):
            raise ContractError("generator labels are not distinct")
        object.__setattr__(self, "gen_labels", labels)
        self._init_generators([d for _, d in self.generators])


def parse_free_algebra(text: str) -> FreePolynomialAlgebra:
    """Parse `name:degree,name:degree,...` into a free polynomial ambient. An
    empty slot or name is an input error, as is a name the table format would
    misread: every table over the algebra reads back through `parse_table`."""
    gens = []
    for slot, chunk in enumerate(text.split(",") if text.strip() else [], 1):
        chunk = chunk.strip()
        if not chunk:
            raise ContractError(f"empty slot {slot} in generator list {text!r}")
        name, _, deg = chunk.partition(":")
        try:
            d = int(deg)
        except ValueError:
            raise ContractError(f"bad generator spec {chunk!r}, expected name:degree") from None
        name = name.strip()
        # `P^k(name) = c*name^e + ...  # comment`: the table format's separators
        if not name or any(ch.isspace() or ch in "*+^=#" for ch in name):
            rule = "a name is non-empty, with no whitespace and none of * + ^ = #"
            raise ContractError(f"bad generator name {name!r} in {chunk!r}: {rule}")
        gens.append((name, d))
    if not gens:
        raise ContractError("empty generator list")
    return FreePolynomialAlgebra(tuple(gens))


@dataclass(frozen=True)
class AlgebraElement:
    """F_p-linear combination of face-supported monomials, always reduced."""

    ambient: object
    p: int
    terms: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def make(ambient, p: int, terms: dict[Monomial, int]) -> "AlgebraElement":
        if not is_prime(p):
            raise ContractError(f"{p} is not prime")
        cleaned: dict[Monomial, int] = {}
        for m, c in terms.items():
            if ambient.reduce_monomial(m) is None:
                continue
            c %= p
            if c:
                cleaned[m] = c
        ordered = tuple(sorted(cleaned.items(), key=lambda mc: ambient.monomial_key(mc[0])))
        return AlgebraElement(ambient, p, ordered)

    def terms_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.ambient != other.ambient:
            raise ContractError("elements live in different ambients")
        if self.p != other.p:
            raise ContractError(f"prime mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        acc = self.terms_dict()
        for m, c in other.terms:
            acc[m] = (acc.get(m, 0) + c) % self.p
        return AlgebraElement.make(self.ambient, self.p, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement.make(self.ambient, self.p, {m: v * c for m, v in self.terms})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1 * m2
                if self.ambient.reduce_monomial(m) is None:
                    continue
                acc[m] = (acc.get(m, 0) + c1 * c2) % self.p
        return AlgebraElement.make(self.ambient, self.p, acc)

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ContractError("negative power")
        out = self.ambient.one(self.p)
        for _ in range(e):
            out = out * self
        return out

    def homogeneous_degree(self) -> int | None:
        degs = {self.ambient.degree_of(m) for m, _ in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ContractError("element is not homogeneous")
        return degs.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            if m.is_unit():
                parts.append(str(c))
            else:
                parts.append(f"{c}*{self.ambient.format_monomial(m)}")
        return " + ".join(parts)


def monomial_in_graph_ideal(k, m: Monomial, index: int) -> bool:
    """Membership of a face-supported monomial m in (y_i) + (y_j y_k : j < k),
    for the graph generator y_i at `index`: y_i divides m, or m holds two graph
    generators, which on a face are the ends of an edge. This is the one
    statement of the ideal: the search's basis cut, the ideal-preservation
    check and the g-function read all call it. Its reference, the generator
    list y_i plus one product per edge tested by division, is in
    `tests/helpers.py`."""
    if m.exps[index]:
        return True
    ys = m.exps[k._graph_start :]
    return len(ys) - ys.count(0) >= 2
