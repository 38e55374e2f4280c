"""Exhaustive search for power-operation tables.

Unknown table entries are expanded coefficient-by-coefficient over the graded
monomial basis (generators in canonical order, operation index ascending,
basis monomials in graded-lex order). Every relation instance within the
degree bound is compiled once into polynomial equations over F_p in those
coefficients; the search is a depth-first enumeration in that fixed order
with unit propagation, so a branch dies as soon as any equation loses its
last variable without being satisfiable. An exhausted search is therefore a
certificate that no table passes the checkers, relative to the relation set
and degree bound.

The solver keeps each constraint's residual as a plain dict from monomial to
coefficient, with the set of variables still live in it. Assigning a variable
substitutes it into the residuals that contain it and replaces them (never
mutates them); the old residual and live set go on a single trail, together
with the assignment itself, and backtracking pops the trail back to a mark.
The DFS runs on an explicit stack of frames, so deep instances need no
recursion limit. The search rules are those of the propagating DFS it
replaced: the variable->constraint order, the LIFO propagation queue, values
tried 0..p-1, fail-first picking with ties to the lowest constraint and then
the lowest variable, a node counted before the budget is checked, and free
variables set to 0. Residuals are the same polynomials, merely stored
differently, so every node count and every found table is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, JoinComplex, Monomial, monomial_in_graph_ideal
from .errors import ContractError, SearchSpaceExceeded
from .span import is_odd_prime
from .steenrod import (
    PowerRelation,
    SteenrodTable,
    apply_power,
    check_ideal_preservation,
    check_relations,
    check_unstability,
    default_degree_bound,
    default_relation_set,
    relation_instance_bases,
)
from .symbolic import SymPoly

DEFAULT_NODE_CAP = 10**8


class PolyCoeffs:
    """SymPoly coefficients for the shared Cartan engine."""

    def __init__(self, p: int):
        self.p = p
        self.zero = SymPoly.const(p, 0)
        self.one = SymPoly.const(p, 1)

    def add(self, a: SymPoly, b: SymPoly) -> SymPoly:
        return a + b

    def mul(self, a: SymPoly, b: SymPoly) -> SymPoly:
        return a * b

    def scale(self, a: SymPoly, c: int) -> SymPoly:
        return a.scale(c)

    def is_zero(self, a: SymPoly) -> bool:
        return a.is_zero()


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
    """Entries below the forced top, with graph-generator bases cut down to the
    preserved ideal (a table outside it fails check_ideal_preservation anyway)."""
    blocks: list[EntryBlock] = []
    offset = 0
    is_join = isinstance(ambient, JoinComplex)
    for i, label in enumerate(ambient.gen_labels):
        deg = ambient.gen_degrees[i]
        for k in range(1, deg // 2):
            basis = list(ambient.monomial_basis(deg + 2 * k * (p - 1)))
            if is_join and ambient.is_graph_generator(i):
                vertex = ambient.vertex_of_index(i)
                basis = [m for m in basis if monomial_in_graph_ideal(ambient, m, vertex)]
            if basis:
                blocks.append(EntryBlock(label, k, tuple(basis), offset))
                offset += len(basis)
    return blocks, offset


def _symbolic_entry_fn(ambient, p: int, blocks: list[EntryBlock]):
    by_key = {(b.label, b.k): b for b in blocks}
    labels = ambient.gen_labels
    degrees = ambient.gen_degrees

    def fn(gen_index: int, j: int) -> dict[Monomial, SymPoly]:
        label = labels[gen_index]
        deg = degrees[gen_index]
        if 2 * j > deg:
            return {}
        if 2 * j == deg:
            top = Monomial(
                tuple(p if t == gen_index else 0 for t in range(len(labels)))
            )
            return {top: SymPoly.const(p, 1)}
        block = by_key.get((label, j))
        if block is None:
            return {}
        return {m: SymPoly.var(p, block.offset + t) for t, m in enumerate(block.basis)}

    return fn


def compile_constraints(
    ambient, p: int, relations: tuple[PowerRelation, ...], degree_bound: int, entry_fn
) -> list[SymPoly]:
    ring = PolyCoeffs(p)
    cache: dict = {}
    constraints: list[SymPoly] = []
    seen: set = set()
    for rel in relations:
        a, b = rel.lhs
        for mono in relation_instance_bases(ambient, p, rel, degree_bound):
            base = {mono: ring.one}
            lhs = apply_power(
                ambient, ring, entry_fn, apply_power(ambient, ring, entry_fn, base, b, cache), a, cache
            )
            diff: dict[Monomial, SymPoly] = dict(lhs)
            for c, outer, inner in rel.rhs:
                piece = apply_power(
                    ambient, ring, entry_fn, apply_power(ambient, ring, entry_fn, base, inner, cache), outer, cache
                )
                for m, v in piece.items():
                    diff[m] = ring.add(diff.get(m, ring.zero), v.scale(-c))
            for poly in diff.values():
                if poly.is_zero():
                    continue
                key = poly.canonical_key()
                if key not in seen:
                    seen.add(key)
                    constraints.append(poly)
    return constraints


class _Solver:
    """Propagating DFS over plain residuals, undone through one trail.

    A residual maps a monomial, written as its variables repeated by exponent
    in ascending order (x0^2*x3 is (0, 0, 3)), to a nonzero coefficient."""

    def __init__(self, p: int, nvars: int, constraints: list[SymPoly], node_cap: int):
        self.p = p
        self.node_cap = node_cap
        self.assign: list[int | None] = [None] * nvars
        # residuals are never mutated: an assignment replaces them, so the
        # trail can hold the old dict and live set by reference
        self.residuals: list[dict[tuple[int, ...], int]] = [
            {tuple(v for v, e in key for _ in range(e)): c for key, c in poly.terms.items()}
            for poly in constraints
        ]
        self.live: list[set[int]] = [set().union(*terms) for terms in self.residuals]
        self.count: list[int] = [len(live) for live in self.live]
        self.by_var: list[list[int]] = [[] for _ in range(nvars)]
        for ci, live in enumerate(self.live):
            for v in live:
                self.by_var[v].append(ci)
        degree = max((len(key) for terms in self.residuals for key in terms), default=0)
        self.powers = [[pow(x, e, p) for e in range(degree + 1)] for x in range(p)]
        # (ci, old residual, old live set) for a replaced residual,
        # (-1, var) for an assignment
        self.trail: list[tuple] = []
        self.nodes = 0

    def _classify(self, ci: int, queue: list[tuple[int, int]]) -> bool:
        """False on a conflict; queues the root of a residual in one variable
        when that root is unique."""
        live = self.live[ci]
        if not live:
            return not self.residuals[ci]
        if len(live) == 1:
            terms = [(len(key), c) for key, c in self.residuals[ci].items()]
            root = None
            for x, pw in enumerate(self.powers):
                if sum(c * pw[e] for e, c in terms) % self.p == 0:
                    if root is not None:
                        return True
                    root = x
            if root is None:
                return False
            queue.append((next(iter(live)), root))
        return True

    def _set(self, var: int, val: int, queue: list[tuple[int, int]]) -> bool:
        assign = self.assign
        cur = assign[var]
        if cur is not None:
            return cur == val
        assign[var] = val
        trail = self.trail
        trail.append((-1, var))
        p = self.p
        pw = self.powers[val]
        residuals = self.residuals
        lives = self.live
        count = self.count
        for ci in self.by_var[var]:
            live = lives[ci]
            if var not in live:
                continue
            old = residuals[ci]
            new: dict[tuple[int, ...], int] = {}
            vars_left: set[int] = set()
            cancelled = False
            for key, c in old.items():
                if var in key:
                    e = key.count(var)
                    c = c * pw[e] % p
                    if not c:
                        continue
                    i = key.index(var)
                    key = key[:i] + key[i + e :]
                if key in new:
                    c = (new[key] + c) % p
                    if not c:
                        del new[key]
                        cancelled = True
                        continue
                new[key] = c
                vars_left.update(key)
            if cancelled:
                vars_left = set().union(*new)
            trail.append((ci, old, live))
            residuals[ci] = new
            lives[ci] = vars_left
            n = count[ci] = len(vars_left)
            if n == 0:
                if new:
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
        assign = self.assign
        residuals = self.residuals
        lives = self.live
        count = self.count
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] < 0:
                assign[entry[1]] = None
            else:
                ci, old, live = entry
                residuals[ci] = old
                lives[ci] = live
                count[ci] = len(live)

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
        for ci, n in enumerate(self.count):
            # n == 0 is a satisfied residual (conflicts never survive propagation)
            if n and (not best_n or n < best_n):
                best_n, best_ci = n, ci
                if n == 1:
                    break
        if best_ci < 0:
            return None
        return min(self.live[best_ci])

    def _dfs(self) -> list[int] | None:
        """Depth-first over the values 0..p-1 of each picked variable, on an
        explicit stack of [var, next value, trail mark] frames. Trying a value
        first undoes the trail back to its frame's mark, which also undoes
        every deeper frame."""
        frames: list[list[int]] = []
        var = self._pick_variable()
        while var is not None:
            frames.append([var, 0, len(self.trail)])
            while True:
                if not frames:
                    return None
                frame = frames[-1]
                var, val, mark = frame
                if val == self.p:
                    frames.pop()
                    continue
                frame[1] = val + 1
                self._undo(mark)
                self.nodes += 1
                if self.nodes > self.node_cap:
                    raise SearchSpaceExceeded(
                        f"node budget of {self.node_cap} exceeded after exploring"
                        f" {self.nodes} branch nodes"
                        f" (full coefficient space {self.p}^{len(self.assign)})",
                        self.p ** len(self.assign),
                    )
                if self._propagate([(var, val)]):
                    break
            var = self._pick_variable()
        # every constraint is satisfied; remaining variables are free
        return [v if v is not None else 0 for v in self.assign]


def table_from_assignment(
    ambient, p: int, blocks: list[EntryBlock], assignment: list[int]
) -> SteenrodTable:
    entries: dict[tuple[str, int], AlgebraElement] = {}
    by_key = {(b.label, b.k): b for b in blocks}
    for i, label in enumerate(ambient.gen_labels):
        deg = ambient.gen_degrees[i]
        top = deg // 2
        for k in range(1, top + 1):
            if k == top:
                entries[(label, k)] = ambient.generator_element(label, p) ** p
                continue
            block = by_key.get((label, k))
            if block is None:
                entries[(label, k)] = ambient.zero(p)
            else:
                terms = {
                    m: assignment[block.offset + t] for t, m in enumerate(block.basis)
                }
                entries[(label, k)] = AlgebraElement.make(ambient, p, terms)
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
    bound = default_degree_bound(p) if degree_bound is None else degree_bound
    if bound < 0:
        raise ContractError(f"degree bound must be non-negative, got {bound}")
    relations = default_relation_set(p) if relation_set is None else tuple(relation_set)
    blocks, nvars = unknown_entry_blocks(ambient, p)
    entry_fn = _symbolic_entry_fn(ambient, p, blocks)
    constraints = compile_constraints(ambient, p, relations, bound, entry_fn)
    solver = _Solver(p, nvars, constraints, node_cap)
    assignment = solver.solve()
    names = tuple(r.name for r in relations)
    if assignment is None:
        return SearchOutcome("exhausted", None, names, bound, nvars, solver.nodes)
    table = table_from_assignment(ambient, p, blocks, assignment)
    reports = (
        check_relations(table, relations, bound),
        check_ideal_preservation(table),
        check_unstability(table),
    )
    if not all(r.ok for r in reports):
        raise AssertionError("search produced a table that fails its own checkers")
    return SearchOutcome("found", table, names, bound, nvars, solver.nodes)
