"""Kauffman state enumeration and bigradings for the (-2a, 2b+1, 2c+1) family.

Generators of the knot Floer chain complex correspond to Kauffman states
of the projection.  For this family each state is pinned down by where its
marked points sit in two distinguished regions, giving three families:

* ``A``  indexed by (j, k), j in [0, 2b], k in [0, 2c],
* ``B``  indexed by (i, k), i in [0, 2a-1], k in [0, 2c],
* ``C``  indexed by (i, j), i in [0, 2a-1], j in [0, 2b].

Two choices of the special marked point on the knot ("variant" a or b)
give the same state set but different grading tables.  Variant (b) has a
uniform table; variant (a) treats the i = 0 rows of B and C specially.

The delta grading s - m - (b + c) is 0 on every A state and 1 on every B
and C state, so all boundary maps run from A states to B and C states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pretzel import FamilyTag, PretzelClass

VARIANTS = ("a", "b")


@dataclass(frozen=True, order=True)
class KauffmanState:
    family: str
    idx1: int
    idx2: int


@dataclass(frozen=True)
class Bigrading:
    m: int  # Maslov grading, lowered by 1 by the differential
    s: int  # spin (Alexander) grading, preserved by the differential


def _require_thm1(cls: PretzelClass) -> tuple[int, int, int]:
    if cls.tag is not FamilyTag.THM1:
        raise ValueError(
            f"state enumeration is defined for the Thm1 family only, got {cls.tag.value}")
    return cls.abc()


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")


def enumerate_states(cls: PretzelClass) -> list[KauffmanState]:
    """All Kauffman states in lexicographic (family, idx1, idx2) order."""
    a, b, c = _require_thm1(cls)
    states = [KauffmanState("A", j, k)
              for j in range(2 * b + 1) for k in range(2 * c + 1)]
    states += [KauffmanState("B", i, k)
               for i in range(2 * a) for k in range(2 * c + 1)]
    states += [KauffmanState("C", i, j)
               for i in range(2 * a) for j in range(2 * b + 1)]
    return states


def grading(state: KauffmanState, cls: PretzelClass, variant: str) -> Bigrading:
    """Maslov and spin grading of one state, per the variant's table."""
    a, b, c = _require_thm1(cls)
    _check_variant(variant)
    fam, x, y = state.family, state.idx1, state.idx2
    if fam == "A":
        j, k = x, y
        if not (0 <= j <= 2 * b and 0 <= k <= 2 * c):
            raise ValueError(f"A state index out of range: {state}")
        return Bigrading(m=j - k - 2 * b, s=(j - k) + (c - b))
    if fam == "B":
        i, k = x, y
        if not (0 <= i <= 2 * a - 1 and 0 <= k <= 2 * c):
            raise ValueError(f"B state index out of range: {state}")
        if variant == "a" and i == 0:
            return Bigrading(m=-k - 2 * b - 1, s=-k + (c - b))
        return Bigrading(m=-(i % 2) - k, s=b + c + 1 - i % 2 - k)
    if fam == "C":
        i, j = x, y
        if not (0 <= i <= 2 * a - 1 and 0 <= j <= 2 * b):
            raise ValueError(f"C state index out of range: {state}")
        if variant == "a" and i == 0:
            return Bigrading(m=j - 2 * b, s=j - b + c + 1)
        return Bigrading(m=j - i % 2 - 2 * b - 2 * c - 1, s=j - i % 2 - b - c)
    raise ValueError(f"unknown family {fam!r}")


@dataclass(frozen=True)
class ChainSummary:
    """Generator counts of the chain complex, bucketed by grading.

    ``counts`` maps (m, s) to the number of states there; ``per_family``
    maps (family, s) to the per-family count in that spin grading.
    """

    params: tuple[int, int, int]
    variant: str
    counts: dict[tuple[int, int], int]
    per_family: dict[tuple[str, int], int]

    def spins(self) -> list[int]:
        return sorted({s for (_, s) in self.counts})

    def family_count(self, family: str, s: int) -> int:
        return self.per_family.get((family, s), 0)

    def a_count(self, s: int) -> int:
        return self.family_count("A", s)

    def bc_count(self, s: int) -> int:
        return self.family_count("B", s) + self.family_count("C", s)

    def total(self) -> int:
        return sum(self.counts.values())

    def euler_by_spin(self) -> dict[int, int]:
        """Alternating count sum((-1)^m * n(m, s)) for each spin grading."""
        out: dict[int, int] = {}
        for (m, s), n in self.counts.items():
            out[s] = out.get(s, 0) + (n if m % 2 == 0 else -n)
        return {s: v for s, v in sorted(out.items()) if v != 0}


def chain_summary(cls: PretzelClass, variant: str = "b") -> ChainSummary:
    """Bucket every Kauffman state of the diagram by its bigrading."""
    a, b, c = _require_thm1(cls)
    counts: dict[tuple[int, int], int] = {}
    per_family: dict[tuple[str, int], int] = {}
    for state in enumerate_states(cls):
        g = grading(state, cls, variant)
        counts[(g.m, g.s)] = counts.get((g.m, g.s), 0) + 1
        key = (state.family, g.s)
        per_family[key] = per_family.get(key, 0) + 1
    return ChainSummary(params=(a, b, c), variant=variant,
                        counts=counts, per_family=per_family)
