"""Three-strand pretzel knots: parameter classification and knot groups.

A pretzel knot P(p1, p2, p3) consists of three vertical two-strand twist
regions placed side by side, with the loose ends joined cyclically at the
top and at the bottom.  The sign of each p_i is the handedness of that
band's crossings.

Two families get closed-form homology treatment downstream:

* ``Thm1``:  (-2a, 2b+1, 2c+1) with a, b, c >= 1,
* ``Thm2``:  (2a, -(2b+1), 2c+1) with a, b, c >= 1,

plus their mirrors.  All-odd triples and every other sign pattern reduce
to families settled by earlier methods (alternating or torus-like cases)
and are tagged ``PriorWork``.  Triples that do not describe a knot at all
(a zero band, or more than one even band, which gives a link) are tagged
``NotAKnot``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum


class FamilyTag(Enum):
    THM1 = "Thm1"
    THM2 = "Thm2"
    MIRROR_THM1 = "MirrorThm1"
    MIRROR_THM2 = "MirrorThm2"
    PRIOR_WORK = "PriorWork"
    NOT_A_KNOT = "NotAKnot"


@dataclass(frozen=True)
class PretzelParams:
    """Signed twist counts of the three bands."""

    p1: int
    p2: int
    p3: int

    def __post_init__(self) -> None:
        if any(p == 0 for p in self.twists):
            raise ValueError("zero-twist bands are degenerate and rejected")
        if sum(1 for p in self.twists if p % 2 == 0) > 1:
            raise ValueError("more than one even band gives a multi-component link")

    @property
    def twists(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.p3)

    @property
    def crossing_count(self) -> int:
        return sum(abs(p) for p in self.twists)


@dataclass(frozen=True)
class PretzelClass:
    """Classification of a parameter triple, canonicalized by permutation and mirror."""

    tag: FamilyTag
    a: int | None = None
    b: int | None = None
    c: int | None = None
    mirrored: bool = False
    reason: str | None = None

    @property
    def is_theorem_family(self) -> bool:
        return self.tag in (FamilyTag.THM1, FamilyTag.THM2,
                            FamilyTag.MIRROR_THM1, FamilyTag.MIRROR_THM2)

    def abc(self) -> tuple[int, int, int]:
        if not self.is_theorem_family:
            raise ValueError(f"no (a, b, c) parameters for tag {self.tag.value}")
        assert self.a is not None and self.b is not None and self.c is not None
        return (self.a, self.b, self.c)

    def canonical(self) -> "PretzelClass":
        """The unmirrored representative of the same (a, b, c) family."""
        if self.tag is FamilyTag.MIRROR_THM1:
            return PretzelClass(FamilyTag.THM1, self.a, self.b, self.c)
        if self.tag is FamilyTag.MIRROR_THM2:
            return PretzelClass(FamilyTag.THM2, self.a, self.b, self.c)
        return self


def canonical_triple(cls: PretzelClass,
                     original: tuple[int, int, int]) -> tuple[int, int, int]:
    """Canonical band ordering for reporting: even band first, odds by value."""
    if cls.is_theorem_family:
        a, b, c = cls.abc()
        if cls.tag is FamilyTag.THM1:
            return (-2 * a, 2 * b + 1, 2 * c + 1)
        if cls.tag is FamilyTag.MIRROR_THM1:
            return (2 * a, -(2 * b + 1), -(2 * c + 1))
        if cls.tag is FamilyTag.THM2:
            return (2 * a, -(2 * b + 1), 2 * c + 1)
        return (-2 * a, 2 * b + 1, -(2 * c + 1))
    if cls.tag is FamilyTag.PRIOR_WORK:
        evens = sorted(p for p in original if p % 2 == 0)
        odds = sorted(p for p in original if p % 2)
        return tuple(evens + odds)  # type: ignore[return-value]
    return original


def _match_unmirrored(triple: tuple[int, int, int]) -> PretzelClass | None:
    """Match a triple against the two canonical patterns, up to permutation."""
    evens = [p for p in triple if p % 2 == 0]
    odds = sorted(p for p in triple if p % 2)
    if len(evens) != 1:
        return None
    even = evens[0]
    o1, o2 = odds
    if even < 0 and o1 >= 3 and o2 >= 3:
        return PretzelClass(FamilyTag.THM1, a=-even // 2,
                            b=(o1 - 1) // 2, c=(o2 - 1) // 2)
    if even > 0 and o1 <= -3 and o2 >= 3:
        return PretzelClass(FamilyTag.THM2, a=even // 2,
                            b=(-o1 - 1) // 2, c=(o2 - 1) // 2)
    return None


def classify(p1: int, p2: int, p3: int) -> PretzelClass:
    """Classify an arbitrary integer triple.

    Permutations of the bands give the same knot, so matching is done on
    the sorted triple; if no pattern matches directly, the mirror (global
    sign flip) is tried and recorded in the ``mirrored`` flag.
    """
    triple = (p1, p2, p3)
    if any(p == 0 for p in triple):
        return PretzelClass(FamilyTag.NOT_A_KNOT,
                            reason="zero-twist band: degenerate diagram")
    if sum(1 for p in triple if p % 2 == 0) > 1:
        return PretzelClass(FamilyTag.NOT_A_KNOT,
                            reason="more than one even band: multi-component link")
    direct = _match_unmirrored(triple)
    if direct is not None:
        return direct
    mirrored = _match_unmirrored(tuple(-p for p in triple))
    if mirrored is not None:
        tag = (FamilyTag.MIRROR_THM1 if mirrored.tag is FamilyTag.THM1
               else FamilyTag.MIRROR_THM2)
        return PretzelClass(tag, mirrored.a, mirrored.b, mirrored.c, mirrored=True)
    return PretzelClass(FamilyTag.PRIOR_WORK,
                        reason="covered by earlier computations "
                               "(all-odd, reducible, or alternating pattern)")


# ---------------------------------------------------------------------------
# Wirtinger presentation of the knot group


@dataclass(frozen=True)
class WirtingerPresentation:
    """One generator per arc, one conjugation relator per crossing.

    Relators are words in the free group: tuples of nonzero signed 1-based
    generator indices, ``+g`` for a generator and ``-g`` for its inverse.
    """

    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def exponent_matrix(self) -> list[list[int]]:
        """Abelianized relators: total exponent of each generator per relator."""
        rows = []
        for word in self.relators:
            row = [0] * self.generator_count
            for letter in word:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows


@dataclass(frozen=True)
class _Segment:
    # one transversal strand through a crossing, or a closing arc
    p0: tuple[int, int, int]
    p1: tuple[int, int, int]
    crossing: tuple[int, int] | None
    diag: str | None  # "A": upper-left -> lower-right, "B": upper-right -> lower-left


def wirtinger(params: PretzelParams | tuple[int, int, int]) -> WirtingerPresentation:
    """Wirtinger presentation read off the standard pretzel projection.

    The projection is modeled as a segment graph: crossing (band, m) holds
    two diagonal strands, and six closing arcs join the band ends cyclically
    (right end of band i to left end of band i+1, at top and bottom).  The
    knot is traversed once; arcs are the stretches between under-passes,
    numbered in traversal order from a fixed start, so the output is
    reproducible bit for bit.
    """
    if not isinstance(params, PretzelParams):
        params = PretzelParams(*params)
    twists = params.twists
    sizes = [abs(p) for p in twists]

    segments: list[_Segment] = []
    seg_at: dict[tuple[int, int, int], list[int]] = {}

    def add(p0, p1, crossing=None, diag=None) -> None:
        idx = len(segments)
        segments.append(_Segment(p0, p1, crossing, diag))
        seg_at.setdefault(p0, []).append(idx)
        seg_at.setdefault(p1, []).append(idx)

    for band in range(3):
        for m in range(sizes[band]):
            add((band, m, 0), (band, m + 1, 1), crossing=(band, m), diag="A")
            add((band, m, 1), (band, m + 1, 0), crossing=(band, m), diag="B")
    for band in range(3):
        nxt = (band + 1) % 3
        add((band, 0, 1), (nxt, 0, 0))
        add((band, sizes[band], 1), (nxt, sizes[nxt], 0))

    # closed-curve traversal: at each endpoint continue on the other segment
    steps: list[tuple[int, int]] = []  # (segment, +1 if traversed p0 -> p1)
    seg, direction = 0, 1
    while True:
        steps.append((seg, direction))
        s = segments[seg]
        endpoint = s.p1 if direction == 1 else s.p0
        nseg = next(i for i in seg_at[endpoint] if i != seg)
        direction = 1 if segments[nseg].p0 == endpoint else -1
        seg = nseg
        if (seg, direction) == (0, 1):
            break
    if len(steps) != len(segments):
        raise ValueError("projection is not a single closed strand")

    # locate both passes through each crossing
    passes: dict[tuple[int, int], dict[str, tuple[int, int]]] = {}
    for pos, (idx, direction) in enumerate(steps):
        s = segments[idx]
        if s.crossing is not None:
            assert s.diag is not None
            passes.setdefault(s.crossing, {})[s.diag] = (pos, direction)

    # arcs: cut the traversal at the midpoint of every under-pass
    unders = sorted(passes[(band, m)]["A" if twists[band] < 0 else "B"][0]
                    for band in range(3) for m in range(sizes[band]))
    n = len(unders)
    arc_index = {pos: k for k, pos in enumerate(unders)}

    def arc_containing(pos: int) -> int:
        # arc k runs from the cut at unders[k] to the cut at unders[k+1]
        return (bisect.bisect_left(unders, pos) - 1) % n

    relators: list[tuple[int, ...]] = []
    for band in range(3):
        over_diag = "A" if twists[band] > 0 else "B"
        under_diag = "B" if over_diag == "A" else "A"
        for m in range(sizes[band]):
            pos_a, dir_a = passes[(band, m)]["A"]
            pos_b, dir_b = passes[(band, m)]["B"]
            # sign of det(direction of over, direction of under) with the
            # "A" diagonal pointing (1,-1) and "B" pointing (-1,-1)
            eps = -dir_a * dir_b if over_diag == "A" else dir_a * dir_b
            under_pos = pos_b if under_diag == "B" else pos_a
            over_pos = pos_a if over_diag == "A" else pos_b
            k = arc_index[under_pos]
            over = arc_containing(over_pos) + 1
            into = (k - 1) % n + 1
            out = k + 1
            relators.append((eps * over, into, -eps * over, -out))
    return WirtingerPresentation(generator_count=n, relators=tuple(relators))
