"""The compiled constraints of the action search, one polynomial each.

A `SymPoly` carries the `terms` dict that `search.compile_constraints` builds,
in the solver's format, plus a canonical key for deduplication. It has no
arithmetic: it is kept only as the object whose `terms` a caller can count,
and the solver reads those dicts directly.
"""

from __future__ import annotations

Key = tuple[int, ...]  # variables repeated by exponent, ascending: x0^2*x3 is (0, 0, 3)


class SymPoly:
    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Key, int]):
        self.p = p
        self.terms = {k: c % p for k, c in terms.items() if c % p}

    def canonical_key(self) -> tuple:
        return tuple(sorted(self.terms.items()))
