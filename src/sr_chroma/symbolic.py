"""Sparse multivariate polynomials over F_p with integer-indexed variables.

The output format of constraint compilation: a polynomial is its `terms`
dict, read directly by the solver, plus a canonical key for deduplication.
"""

from __future__ import annotations

Key = tuple[tuple[int, int], ...]  # sorted ((var, exp), ...)


class SymPoly:
    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Key, int]):
        self.p = p
        self.terms = {k: c % p for k, c in terms.items() if c % p}

    def canonical_key(self) -> tuple:
        return tuple(sorted(self.terms.items()))
