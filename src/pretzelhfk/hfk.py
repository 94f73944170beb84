"""Bigraded homology tables for the two pretzel families.

The chain complex of a (-2a, 2b+1, 2c+1) knot splits by spin grading, and
within each spin grading every A state sits one Maslov step above every B
and C state.  Homology is therefore the absolute difference of the two
counts, placed on one of two adjacent lines ("two-line support"):

* reduce_two_lines   turns a state-count summary into the rank table;
* theorem1_closed_form / theorem2_closed_form build the same table from
  the symmetrized Alexander polynomial alone;
* pairing_differential lists the explicit cancelling disk pairs, and
  homology_via_matrix reruns the reduction over the 0/1 matrix of those
  pairs in each spin grading (rows A states, columns B and C states),
  flagging per spin grading whether the listed pairs already span the
  full cancellation.

No target state is listed in two pairs, so every column of a pair matrix
is zero or a unit vector.  Such a matrix has no torsion, and its rank is
the number of distinct sources; homology_via_matrix counts them and
raises if a target repeats.  smith_diagonal (general Smith normal form)
serves the Wirtinger structure check and is the tests' reference for
that rank.  Tables store free ranks only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kauffman import ChainSummary, KauffmanState, grading
from .laurent import LaurentError, LaurentPoly
from .pretzel import FamilyTag, PretzelClass


class BigradedTable:
    """Map (maslov m, spin s) -> positive free rank; zero ranks never stored."""

    __slots__ = ("_e",)

    def __init__(self, entries: dict[tuple[int, int], int] | None = None):
        data: dict[tuple[int, int], int] = {}
        if entries:
            for (m, s), r in entries.items():
                if r < 0:
                    raise ValueError(f"negative rank {r} at (m={m}, s={s})")
                if r:
                    data[(int(m), int(s))] = int(r)
        self._e = data

    def rank(self, m: int, s: int) -> int:
        return self._e.get((m, s), 0)

    def entries(self) -> list[tuple[int, int, int]]:
        """(m, s, rank) triples sorted by s descending, then m ascending."""
        return [(m, s, r) for (m, s), r in
                sorted(self._e.items(), key=lambda kv: (-kv[0][1], kv[0][0]))]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self._e)

    def is_empty(self) -> bool:
        return not self._e

    def total_rank(self) -> int:
        return sum(self._e.values())

    def genus(self) -> int:
        if not self._e:
            raise ValueError("empty table has no top spin grading")
        return max(s for (_, s) in self._e)

    def euler_poly(self) -> LaurentPoly:
        """sum((-1)^m * rank * t^s), not normalized."""
        acc: dict[int, int] = {}
        for (m, s), r in self._e.items():
            acc[s] = acc.get(s, 0) + (r if m % 2 == 0 else -r)
        return LaurentPoly(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigradedTable):
            return NotImplemented
        return self._e == other._e

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._e.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"({m},{s}):{r}" for m, s, r in self.entries())
        return f"BigradedTable({{{body}}})"


# ---------------------------------------------------------------------------
# reduction and closed forms


def reduce_two_lines(summary: ChainSummary) -> BigradedTable:
    """Cancel A against B+C within each spin grading.

    With n_A states at m = s-(b+c) and n_BC at m = s-(b+c)-1, homology is
    the surplus of whichever side is larger, at that side's grading.
    """
    _, b, c = summary.params
    entries: dict[tuple[int, int], int] = {}
    for s in summary.spins():
        n_a = summary.a_count(s)
        n_bc = summary.bc_count(s)
        if n_a > n_bc:
            entries[(s - (b + c), s)] = n_a - n_bc
        elif n_bc > n_a:
            entries[(s - (b + c) - 1, s)] = n_bc - n_a
    return BigradedTable(entries)


def _require_normalized(alex: LaurentPoly) -> None:
    if not alex.is_symmetric():
        raise LaurentError("Alexander polynomial must be symmetric")
    if alex.evaluate_at(1) != 1:
        raise LaurentError("Alexander polynomial must take value 1 at t = 1")


def _closed_form(alex: LaurentPoly, upper_offset: int) -> BigradedTable:
    """Place |a_s| on one of the lines s - m = upper_offset or upper_offset + 1.

    The two candidate Maslov gradings differ by 1, so for each s exactly
    one choice satisfies (-1)^m * |a_s| = sigma * a_s; the global sign
    sigma is fixed by requiring the table's Euler characteristic to
    reproduce alex exactly.
    """
    _require_normalized(alex)
    for sigma in (1, -1):
        entries: dict[tuple[int, int], int] = {}
        for s, a_s in alex.terms():
            want = 1 if sigma * a_s > 0 else -1
            m = s - upper_offset
            if (1 if m % 2 == 0 else -1) != want:
                m = s - upper_offset - 1
            entries[(m, s)] = abs(a_s)
        table = BigradedTable(entries)
        if table.euler_poly() == alex:
            return table
    raise LaurentError("no consistent line assignment reproduces the polynomial")


def theorem1_closed_form(a: int, b: int, c: int, alex: LaurentPoly) -> BigradedTable:
    """Closed-form table for K(-2a, 2b+1, 2c+1): support on s - m in {b+c, b+c+1}."""
    if min(a, b, c) < 1:
        raise ValueError("parameters a, b, c must be positive")
    return _closed_form(alex, b + c)


def theorem2_closed_form(a: int, b: int, c: int, alex: LaurentPoly) -> BigradedTable:
    """Closed-form table for K(2a, -(2b+1), 2c+1): support on s - m in {c-b-1, c-b}."""
    if min(a, b, c) < 1:
        raise ValueError("parameters a, b, c must be positive")
    return _closed_form(alex, c - b - 1)


def theorem1_literal_parts(a: int, b: int, c: int) -> BigradedTable:
    """Transcription of the itemized rank formulas for K(-2a, 2b+1, 2c+1).

    Only meaningful under a <= b <= c.  Kept as an informational
    cross-check: the low-spin items disagree with the authoritative
    two-line reduction (their Maslov gradings come out 2 too high), which
    verify mode reports without failing.
    """
    if not a <= b <= c:
        raise ValueError("the itemized formulas assume a <= b <= c")
    entries: dict[tuple[int, int], int] = {}

    def put(m: int, s: int, n: int) -> None:
        if n > 0:
            entries[(m, s)] = entries.get((m, s), 0) + n

    put(0, b + c + 1, a)
    put(-2 * (b + c + 1), -(b + c + 1), a)
    for p in range(0, 2 * a):                # high spin, A side deficient
        put(-(p + 1), b + c - p, 2 * a - 1 - p)
    for p in range(2 * a, 2 * b + 1):        # middle range, A side surplus
        put(-p, b + c - p, p - (2 * a - 1))
    for p in range(2 * b + 1, 2 * c + 1):    # plateau
        put(-p, b + c - p, 2 * (b - a) + 1)
    for q in range(0, 2 * (b - a) + 1):      # low spin, literal transcription
        put(-2 * c - q + 1, b - c - q - 1, 2 * (b - a) - q)
    for q in range(2 * (b - a) + 1, 2 * b):
        put(-2 * c - q, b - c - q - 1, q - 2 * (b - a))
    return BigradedTable(entries)


def literal_parts_discrepancies(a: int, b: int, c: int,
                                table: BigradedTable) -> list[str]:
    """Differences between the itemized formulas and an authoritative table."""
    literal = theorem1_literal_parts(a, b, c)
    diffs = []
    keys = sorted(set(literal.as_dict()) | set(table.as_dict()),
                  key=lambda k: (-k[1], k[0]))
    for (m, s) in keys:
        lit, auth = literal.rank(m, s), table.rank(m, s)
        if lit != auth:
            diffs.append(f"(m={m}, s={s}): itemized {lit} vs reduced {auth}")
    return diffs


# ---------------------------------------------------------------------------
# explicit cancelling pairs and the matrix route


@dataclass(frozen=True)
class PairingEntry:
    """One cancelling disk pair: an A-state source and a B/C-state target.

    ``kind`` is "DlrDisk" for the generic one-parameter family (and its
    mirror image on the low-spin side), "SpecialB0k" for the variant (a)
    pairs (A_0k, B_0k), and "EightGon" for the variant (a) pairs
    (A_{2b-p,0}, C_{0,2b-p-1}).  ``l`` is the family parameter and ``r``
    the domain shape parameter (hole count for the eight-gon).
    """

    source: KauffmanState
    target: KauffmanState
    kind: str
    l: int
    r: int


def _pair(cls: PretzelClass, variant: str, kind: str, source: KauffmanState,
          target: KauffmanState, l: int, r: int) -> PairingEntry:
    gs, gt = grading(source, cls, variant), grading(target, cls, variant)
    if gs.s != gt.s or gs.m != gt.m + 1:
        raise ValueError(
            f"pair {kind} ({source}, {target}) is not grading-compatible: "
            f"source {gs}, target {gt}")
    return PairingEntry(source, target, kind, l, r)


def pairing_differential(cls: PretzelClass, variant: str, s: int) -> list[PairingEntry]:
    """All listed cancelling pairs in spin grading s.

    The generic A<->B list applies for s > b-c; for s < b-c the mirrored
    A<->C list (same index pattern with the roles of the two odd bands
    exchanged) applies.  Variant (a) adds the special (A_0k, B_0k) and
    eight-gon A<->C pairs at their natural gradings.  Every emitted pair
    is checked for grading compatibility at construction.
    """
    a, b, c = cls.abc() if cls.tag is FamilyTag.THM1 else (None, None, None)
    if a is None:
        raise ValueError("pairings are defined for the Thm1 family only")
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    if abs(s) > b + c + 1:
        raise ValueError(f"spin grading {s} outside the support range "
                         f"[-{b + c + 1}, {b + c + 1}]")
    pairs: list[PairingEntry] = []
    # in variant (a) the i = 0 targets carry the special gradings, so the
    # generic family stops one step earlier and the special pairs take over
    l_cap = 2 * a - 2 if variant == "a" else 2 * a - 1

    if s > b - c:
        p = b + c - s
        for l in range(1, min(p, l_cap, 2 * b) + 1):
            if p - l > 2 * c or p + l % 2 > 2 * c:
                continue
            pairs.append(_pair(
                cls, variant, "DlrDisk",
                KauffmanState("A", 2 * b - l, p - l),
                KauffmanState("B", 2 * a - 1 - l, p + l % 2),
                l=l, r=2 * c - p - l % 2))
    if s < b - c:
        q = s + b + c
        for l in range(1, min(q, l_cap, 2 * c) + 1):
            if q - l > 2 * b or q + 1 - l % 2 > 2 * b:
                continue
            pairs.append(_pair(
                cls, variant, "DlrDisk",
                KauffmanState("A", q - l, 2 * c - l),
                KauffmanState("C", 2 * a - 1 - l, q + 1 - l % 2),
                l=l, r=2 * b - q - l % 2))
    if variant == "a":
        k = c - b - s
        if 0 <= k <= 2 * c:
            pairs.append(_pair(
                cls, variant, "SpecialB0k",
                KauffmanState("A", 0, k),
                KauffmanState("B", 0, k),
                l=0, r=k))
        p = b + c - s
        if 0 <= p <= 2 * b - 1:
            pairs.append(_pair(
                cls, variant, "EightGon",
                KauffmanState("A", 2 * b - p, 0),
                KauffmanState("C", 0, 2 * b - p - 1),
                l=p, r=a + b - p))
    return pairs


def all_pairings(cls: PretzelClass, variant: str) -> list[PairingEntry]:
    """Pairs across the whole spin range, ordered by descending spin grading."""
    _, b, c = cls.abc()
    pairs = []
    for s in range(b + c + 1, -(b + c + 1) - 1, -1):
        pairs.extend(pairing_differential(cls, variant, s))
    return pairs


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonnegative invariant factors d_1 | d_2 | ..., zeros last,
    of length min(rows, cols).
    """
    a = [[int(v) for v in row] for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(row) != nc for row in a):
        raise ValueError("matrix rows have unequal lengths")
    n = min(nr, nc)
    diag = [0] * n
    t = 0
    while t < n:
        while True:
            # move a least-magnitude nonzero entry of the block to (t, t)
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] and (best is None
                                    or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return diag
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            # one reduction sweep; leftover remainders shrink the minimum,
            # so repeating the pivot search terminates
            pivot = a[t][t]
            clear = True
            for i in range(t + 1, nr):
                q = a[i][t] // pivot
                if q:
                    for j in range(t, nc):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    clear = False
            for j in range(t + 1, nc):
                q = a[t][j] // pivot
                if q:
                    for i in range(t, nr):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    clear = False
            if not clear:
                continue
            # enforce d_t | every remaining entry
            pivot = a[t][t]
            fix = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % pivot:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            for j in range(t, nc):
                a[t][j] += a[fix][j]
        diag[t] = abs(a[t][t])
        t += 1
    return diag


@dataclass(frozen=True)
class MatrixHomology:
    """Result of the matrix route: table plus a per-spin completeness flag.

    ``complete_by_spin[s]`` is True when the listed pairs already have
    rank min(n_A, n_BC) at s, i.e. the matrix route provably reproduces
    the full cancellation there.
    """

    table: BigradedTable
    complete_by_spin: dict[int, bool]


def homology_via_matrix(summary: ChainSummary,
                        pairs: list[PairingEntry]) -> MatrixHomology:
    """Homology of the pair-listed differential, one 0/1 matrix per spin grading.

    At spin s the matrix maps the n_A(s) A states to the n_BC(s) B and C
    states, with a 1 for each listed pair.  Each target lies in at most
    one pair, so each column is zero or the unit vector of its source:
    the matrix is torsion-free and its rank is the number of distinct
    sources at s.  Kernel and cokernel ranks are n_A(s) and n_BC(s) minus
    that rank, both read from ``summary``.  Raises ArithmeticError if a
    target appears in two pairs, where counting would no longer give the
    rank.
    """
    a, b, c = summary.params
    cls = PretzelClass(FamilyTag.THM1, a, b, c)
    sources: dict[int, set[KauffmanState]] = {}
    targets: set[KauffmanState] = set()
    for pair in pairs:
        if pair.target in targets:
            raise ArithmeticError(f"target {pair.target} appears in two pairs")
        targets.add(pair.target)
        s = grading(pair.source, cls, summary.variant).s
        sources.setdefault(s, set()).add(pair.source)

    entries: dict[tuple[int, int], int] = {}
    complete: dict[int, bool] = {}
    for s in summary.spins():
        n_a, n_bc = summary.a_count(s), summary.bc_count(s)
        rank = len(sources.get(s, ()))
        if n_a - rank:
            entries[(s - (b + c), s)] = n_a - rank
        if n_bc - rank:
            entries[(s - (b + c) - 1, s)] = n_bc - rank
        complete[s] = rank == min(n_a, n_bc)
    return MatrixHomology(table=BigradedTable(entries), complete_by_spin=complete)


# ---------------------------------------------------------------------------
# table-level transforms and readouts


def mirror_transform(table: BigradedTable) -> BigradedTable:
    """Bigrading behavior under mirroring: (m, s, rank) -> (-m, -s, rank)."""
    return BigradedTable({(-m, -s): r for (m, s), r in table.as_dict().items()})


def symmetry_check(table: BigradedTable) -> bool:
    """rank(m, s) == rank(m - 2s, -s) for every entry."""
    return all(table.rank(m - 2 * s, -s) == r for m, s, r in table.entries())


@dataclass(frozen=True)
class HfkResult:
    table: BigradedTable
    genus: int
    fibered: bool
    total_rank: int
    alexander: LaurentPoly


def readouts(table: BigradedTable, alex: LaurentPoly) -> HfkResult:
    """Genus and fiberedness from the table's top spin grading.

    The top nonzero spin grading is the Seifert genus, and the knot fibers
    exactly when the group there has rank 1.
    """
    if table.is_empty():
        raise ValueError("cannot read invariants off an empty table")
    genus = table.genus()
    top_rank = sum(r for _, s, r in table.entries() if s == genus)
    return HfkResult(table=table, genus=genus, fibered=top_rank == 1,
                     total_rank=table.total_rank(), alexander=alex)
