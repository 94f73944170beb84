"""Alexander polynomial by two independent routes, plus a torus-knot anchor.

* ``euler_characteristic``: graded Euler characteristic of a Kauffman state
  summary (the chain-complex route).
* ``fox_alexander``: Fox calculus on a Wirtinger presentation (the
  group-theoretic route).  The minor determinant is computed exactly over
  integer Laurent coefficients: sparse elimination on unit pivots +-t^k,
  which are invertible in the ring, then fraction-free (Bareiss)
  elimination of whatever block has no unit entry left.
* ``torus_alexander``: the classical closed form for torus knots, used
  only as a spot-check anchor.

Keeping the first two routes fully independent is the point: they share
no intermediate data beyond the input parameters.
"""

from __future__ import annotations

from math import gcd

from .kauffman import ChainSummary
from .laurent import LaurentError, LaurentPoly
from .pretzel import WirtingerPresentation


def euler_characteristic(summary: ChainSummary) -> LaurentPoly:
    """sum((-1)^m * count(m, s) * t^s), normalized to symmetric form with value 1 at t=1."""
    raw = LaurentPoly(summary.euler_by_spin())
    try:
        return raw.normalize_symmetric()
    except LaurentError as exc:
        raise LaurentError(f"state-sum Euler characteristic not normalizable: {exc}") from exc


def fox_derivative(word: tuple[int, ...], gen: int) -> LaurentPoly:
    """Free derivative of a relator word with every generator sent to t.

    A positive letter g at abelianized prefix t^e contributes t^e when
    g == gen; an inverse letter contributes -t^(e-1).
    """
    acc: dict[int, int] = {}
    e = 0
    for letter in word:
        g = abs(letter)
        if letter > 0:
            if g == gen:
                acc[e] = acc.get(e, 0) + 1
            e += 1
        else:
            e -= 1
            if g == gen:
                acc[e] = acc.get(e, 0) - 1
    return LaurentPoly(acc)


def bareiss_determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square Laurent-polynomial matrix, exact.

    Sparse elimination on unit pivots first: rows are held as
    ``{column: entry}``, and each step takes an entry ``+-t**k`` of lowest
    Markowitz cost (row count - 1) * (column count - 1).  The pivot's
    inverse is a monomial, so plain Gaussian steps stay in the Laurent
    ring; the pivot and the sign of its position enter the determinant,
    and its row and column leave the matrix.  A Wirtinger minor has at
    most three nonzero entries per row and nearly every step finds a unit
    pivot.  Whatever block is left without one goes to dense fraction-free
    Bareiss elimination.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant requires a square matrix")
    sparse = [{j: e for j, e in enumerate(r) if not e.is_zero()} for r in rows]
    # every column is registered, an all-zero one too, so the block stays square
    in_col: list[set[int]] = [set() for _ in range(k)]
    for i, row in enumerate(sparse):
        for j in row:
            in_col[j].add(i)
    live_rows, live_cols = list(range(k)), list(range(k))
    zero, det = LaurentPoly.zero(), LaurentPoly.one()
    while (found := _unit_pivot(sparse, in_col, live_rows)) is not None:
        i, j = found
        pivot_row = sparse[i]
        pivot = pivot_row.pop(j)
        inverse = LaurentPoly({-e: c for e, c in pivot.terms()})
        for col in pivot_row:
            in_col[col].discard(i)
        in_col[j].discard(i)
        for r in in_col[j]:
            target = sparse[r]
            factor = target.pop(j) * inverse
            for col, entry in pivot_row.items():
                value = target.get(col, zero) - factor * entry
                if value.is_zero():
                    del target[col]
                    in_col[col].discard(r)
                else:
                    target[col] = value
                    in_col[col].add(r)
        in_col[j].clear()
        flip = (live_rows.index(i) + live_cols.index(j)) % 2
        det = det * (-pivot if flip else pivot)
        live_rows.remove(i)
        live_cols.remove(j)
    block = [[sparse[i].get(j, zero) for j in live_cols] for i in live_rows]
    return det * _bareiss(block)


def _unit_pivot(sparse: list[dict[int, LaurentPoly]], in_col: list[set[int]],
                live_rows: list[int]) -> tuple[int, int] | None:
    """(row, column) of a unit entry of lowest Markowitz cost, or None."""
    best = None
    for i in live_rows:
        row = sparse[i]
        for j, entry in row.items():
            if entry.is_unit():
                cost = (len(row) - 1) * (len(in_col[j]) - 1)
                if cost == 0:
                    return i, j
                if best is None or cost < best[0]:
                    best = (cost, i, j)
    return None if best is None else best[1:]


def _bareiss(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix by fraction-free Bareiss elimination.

    Every intermediate entry is a minor of the input, so each division is
    exact in the polynomial ring (the Laurent ring embeds in it after a
    unit shift, which exact_divide handles).
    """
    k = len(rows)
    if k == 0:
        return LaurentPoly.one()
    m = [list(r) for r in rows]
    sign = 1
    prev = LaurentPoly.one()
    for r in range(k - 1):
        pivot_row = next((i for i in range(r, k) if not m[i][r].is_zero()), None)
        if pivot_row is None:
            return LaurentPoly.zero()
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        pivot = m[r][r]
        for i in range(r + 1, k):
            for j in range(r + 1, k):
                m[i][j] = (m[i][j] * pivot - m[i][r] * m[r][j]).exact_divide(prev)
            m[i][r] = LaurentPoly.zero()
        prev = pivot
    det = m[k - 1][k - 1]
    return -det if sign < 0 else det


def fox_alexander(pres: WirtingerPresentation, drop_generator: int = 0) -> LaurentPoly:
    """Alexander polynomial from a Wirtinger presentation.

    Deletes the column of one generator (``drop_generator``, 0-based) and
    one redundant relator, takes the determinant of the remaining square
    minor, and normalizes.  Any choice of deleted column gives the same
    normalized answer; the parameter exists so that independence can be
    checked.  A one-generator presentation is the unknot and yields 1.
    """
    n = pres.generator_count
    if not (0 <= drop_generator < n):
        raise ValueError(f"drop_generator must be in [0, {n}), got {drop_generator}")
    if n == 1:
        return LaurentPoly.one()
    if len(pres.relators) == n:
        relators = pres.relators[:-1]
    elif len(pres.relators) == n - 1:
        relators = pres.relators
    else:
        raise ValueError(
            f"need {n} or {n - 1} relators for {n} generators, got {len(pres.relators)}")
    minor = [[fox_derivative(word, g)
              for g in range(1, n + 1) if g != drop_generator + 1]
             for word in relators]
    det = bareiss_determinant(minor)
    if det.is_zero():
        raise LaurentError("Alexander minor determinant vanished; presentation is malformed")
    return det.normalize_symmetric()


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Symmetrized Alexander polynomial of the (p, q) torus knot.

    Exact division of (t^pq - 1)(t - 1) by (t^p - 1)(t^q - 1).
    """
    if p < 2 or q < 2:
        raise ValueError("torus knot parameters must both be at least 2")
    if gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) is a torus link, not a knot: parameters share a factor")
    num = LaurentPoly({p * q: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})
    den = LaurentPoly({p: 1, 0: -1}) * LaurentPoly({q: 1, 0: -1})
    return num.exact_divide(den).normalize_symmetric()
