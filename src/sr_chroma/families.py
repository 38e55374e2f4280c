"""Algebra family tags and complex construction.

Four tags are supported:
  B   -- one block of degree-4 generators, graph generators in degree 8 (p = 3)
  Bp  -- (p-1)/2 blocks in degrees 4k, graph generators in degree 2p+2
  Ap  -- p-1 blocks in degrees 2k+2, graph generators in degree 2p+2
  A   -- n blocks in degrees 2k+2, graph generators in degree 2n+4
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import JoinComplex
from .errors import ContractError
from .graph import Graph
from .span import is_odd_prime

FAMILY_KINDS = ("A", "Ap", "Bp", "B")
# spellings `parse_family` also accepts, and the tag each stands for
FAMILY_ALIASES = {"A_p": "Ap", "B_p": "Bp"}
# the tags whose first block size bounds s_p-chi (the span necessary condition)
SPAN_CONDITION_KINDS = ("Ap", "Bp", "B")


def family_choices(kinds: tuple[str, ...] = FAMILY_KINDS) -> tuple[str, ...]:
    """The tags in `kinds`, then their aliases."""
    return kinds + tuple(alias for alias, kind in FAMILY_ALIASES.items() if kind in kinds)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    vector: tuple[int, ...]
    p: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ContractError(f"unknown family kind {self.kind!r}")
        if not self.vector:
            raise ContractError("family vector must be non-empty")
        if any(s < 0 for s in self.vector):
            raise ContractError("family vector entries must be non-negative")
        if self.kind == "B":
            if len(self.vector) != 1:
                raise ContractError("family B takes a single size n")
            if self.p not in (None, 3):
                raise ContractError("family B is the p = 3 case")
            object.__setattr__(self, "p", 3)
        elif self.kind in ("Ap", "Bp"):
            if self.p is None or not is_odd_prime(self.p):
                raise ContractError(f"family {self.kind} needs an odd prime p")
            want = self.p - 1 if self.kind == "Ap" else (self.p - 1) // 2
            if len(self.vector) != want:
                raise ContractError(
                    f"family {self.kind} at p={self.p} needs a vector of length {want},"
                    f" got {len(self.vector)}"
                )

    @property
    def first_bound(self) -> int:
        return self.vector[0]

    def describe(self) -> str:
        vec = ",".join(str(s) for s in self.vector)
        if self.kind == "A":
            return f"A(({vec}))"
        if self.kind == "Ap":
            return f"A_{self.p}(({vec}))"
        if self.kind == "Bp":
            return f"B_{self.p}(({vec}))"
        return f"B({vec})"


def build_complex(spec: FamilySpec, g: Graph) -> JoinComplex:
    """Join complex with the family's block degrees and graph degree."""
    if spec.kind in ("Bp", "B"):
        blocks = tuple((r, 4 * k) for k, r in enumerate(spec.vector, 1))
        graph_degree = 2 * spec.p + 2
    else:  # A and A_p; A_p's vector has length p - 1, so 2n + 4 is 2p + 2
        blocks = tuple((s, 2 * k + 2) for k, s in enumerate(spec.vector, 1))
        graph_degree = 2 * len(spec.vector) + 4
    return JoinComplex(blocks, g, graph_degree)


def parse_family(kind: str, vector_text: str, p: int | None) -> FamilySpec:
    kind = FAMILY_ALIASES.get(kind, kind)
    # a blank vector is empty (FamilySpec rejects it); an empty slot is malformed
    entries = vector_text.split(",") if vector_text.strip() else []
    try:
        vector = tuple(int(x) for x in entries)
    except ValueError:
        raise ContractError(f"bad family vector {vector_text!r}") from None
    return FamilySpec(kind, vector, p)
