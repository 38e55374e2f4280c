"""Sparse multivariate polynomials over F_p with integer-indexed variables.

Just enough algebra for compiling action-search constraints: ring operations
and a canonical key for deduplication. The solver reads `terms` directly.
"""

from __future__ import annotations

Key = tuple[tuple[int, int], ...]  # sorted ((var, exp), ...)

_UNIT: Key = ()


class SymPoly:
    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Key, int]):
        self.p = p
        self.terms = {k: c % p for k, c in terms.items() if c % p}

    @staticmethod
    def const(p: int, c: int) -> "SymPoly":
        return SymPoly(p, {_UNIT: c})

    @staticmethod
    def var(p: int, v: int) -> "SymPoly":
        return SymPoly(p, {((v, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(k == _UNIT for k in self.terms)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return SymPoly(self.p, acc)

    def __neg__(self) -> "SymPoly":
        return SymPoly(self.p, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def scale(self, c: int) -> "SymPoly":
        return SymPoly(self.p, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        acc: dict[Key, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _merge_keys(k1, k2)
                acc[k] = acc.get(k, 0) + c1 * c2
        return SymPoly(self.p, acc)

    def canonical_key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPoly) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.canonical_key()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in sorted(self.terms.items()):
            factors = [f"v{v}" if e == 1 else f"v{v}^{e}" for v, e in key]
            parts.append("*".join([str(c)] + factors) if factors else str(c))
        return " + ".join(parts)


def _merge_keys(k1: Key, k2: Key) -> Key:
    merged: dict[int, int] = dict(k1)
    for v, e in k2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))
