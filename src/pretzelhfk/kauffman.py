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
Both tables live in one private kernel, ``_bigrading``, which ``grading``
(one state) and ``chain_summary`` (every state) share; the callers
validate the class and the variant, the kernel checks the index ranges.

The delta grading s - m - (b + c) is 0 on every A state and 1 on every B
and C state, so all boundary maps run from A states to B and C states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .pretzel import FamilyTag, PretzelClass

VARIANTS = ("a", "b")


class KauffmanState(NamedTuple):
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


def _bigrading(family: str, x: int, y: int, a: int, b: int, c: int,
               variant: str) -> tuple[int, int]:
    """(m, s) of state (family, x, y) of K(-2a, 2b+1, 2c+1) in the variant's table.

    The caller has validated the class and the variant; an index out of
    range or an unknown family raises ValueError.
    """
    if family == "A":
        j, k = x, y
        if not (0 <= j <= 2 * b and 0 <= k <= 2 * c):
            raise ValueError(f"A state index out of range: {KauffmanState(family, x, y)}")
        return j - k - 2 * b, (j - k) + (c - b)
    if family == "B":
        i, k = x, y
        if not (0 <= i <= 2 * a - 1 and 0 <= k <= 2 * c):
            raise ValueError(f"B state index out of range: {KauffmanState(family, x, y)}")
        if variant == "a" and i == 0:
            return -k - 2 * b - 1, -k + (c - b)
        return -(i % 2) - k, b + c + 1 - i % 2 - k
    if family == "C":
        i, j = x, y
        if not (0 <= i <= 2 * a - 1 and 0 <= j <= 2 * b):
            raise ValueError(f"C state index out of range: {KauffmanState(family, x, y)}")
        if variant == "a" and i == 0:
            return j - 2 * b, j - b + c + 1
        return j - i % 2 - 2 * b - 2 * c - 1, j - i % 2 - b - c
    raise ValueError(f"unknown family {family!r}")


def grading(state: KauffmanState, cls: PretzelClass, variant: str) -> Bigrading:
    """Maslov and spin grading of one state, per the variant's table."""
    a, b, c = _require_thm1(cls)
    _check_variant(variant)
    m, s = _bigrading(state.family, state.idx1, state.idx2, a, b, c, variant)
    return Bigrading(m=m, s=s)


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
    _check_variant(variant)
    graded = [(family, _bigrading(family, x, y, a, b, c, variant))
              for family, x, y in enumerate_states(cls)]
    counts = Counter([ms for _, ms in graded])
    per_family = Counter([(family, ms[1]) for family, ms in graded])
    return ChainSummary(params=(a, b, c), variant=variant,
                        counts=dict(counts), per_family=dict(per_family))
