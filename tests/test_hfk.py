import itertools
import random

import pytest

from pretzelhfk.hfk import (BigradedTable, _pair, all_pairings, homology_via_matrix,
                            literal_parts_discrepancies, mirror_transform,
                            pairing_differential, readouts, reduce_two_lines,
                            smith_diagonal, symmetry_check,
                            theorem1_closed_form, theorem1_literal_parts,
                            theorem2_closed_form)
from pretzelhfk.kauffman import KauffmanState, chain_summary, enumerate_states, grading
from pretzelhfk.laurent import LaurentError, LaurentPoly
from pretzelhfk.pretzel import FamilyTag, PretzelClass

T34_POLY = LaurentPoly({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})
T34_TABLE = BigradedTable({(0, 3): 1, (-1, 2): 1, (-2, 0): 1,
                           (-5, -2): 1, (-6, -3): 1})
T35_TABLE = BigradedTable({(0, 4): 1, (-1, 3): 1, (-2, 1): 1, (-3, 0): 1,
                           (-4, -1): 1, (-7, -3): 1, (-8, -4): 1})


def thm1(a, b, c):
    return PretzelClass(FamilyTag.THM1, a, b, c)


def cube(top):
    return itertools.product(range(1, top + 1), repeat=3)


# ---------------------------------------------------------------------------
# BigradedTable basics


def test_table_invariants():
    assert BigradedTable({(0, 0): 0}).is_empty()
    with pytest.raises(ValueError):
        BigradedTable({(0, 0): -1})
    table = BigradedTable({(0, 1): 2, (1, 0): 3})
    assert table.total_rank() == 5
    assert table.genus() == 1
    assert table.rank(0, 1) == 2 and table.rank(5, 5) == 0


def test_table_entry_ordering():
    # s descending, then m ascending
    table = BigradedTable({(0, 1): 1, (-1, 1): 1, (2, 2): 1})
    assert table.entries() == [(2, 2, 1), (-1, 1, 1), (0, 1, 1)]


# ---------------------------------------------------------------------------
# reduction and closed forms


def test_reduce_known_table():
    summary = chain_summary(thm1(1, 1, 1), "b")
    assert reduce_two_lines(summary) == T34_TABLE
    assert reduce_two_lines(summary).rank(-1, 1) == 0  # full cancellation at s=1


def test_reduce_empty_summary():
    from pretzelhfk.kauffman import ChainSummary
    empty = ChainSummary(params=(1, 1, 1), variant="b", counts={}, per_family={})
    assert reduce_two_lines(empty).is_empty()


def test_reduce_matches_t35():
    assert reduce_two_lines(chain_summary(thm1(1, 1, 2), "b")) == T35_TABLE


def test_closed_form_matches_reduction_on_grid():
    from pretzelhfk.alexander import euler_characteristic
    for a, b, c in cube(3):
        for variant in ("a", "b"):
            summary = chain_summary(thm1(a, b, c), variant)
            alex = euler_characteristic(summary)
            assert theorem1_closed_form(a, b, c, alex) == reduce_two_lines(summary)


def test_closed_form_requires_normalized_input():
    with pytest.raises(LaurentError):
        theorem1_closed_form(1, 1, 1, LaurentPoly({2: 1, 0: 1}))  # asymmetric
    with pytest.raises(LaurentError):
        theorem1_closed_form(1, 1, 1, LaurentPoly({1: 1, 0: -1, -1: 1}) * 3)
    with pytest.raises(ValueError):
        theorem1_closed_form(0, 1, 1, LaurentPoly.one())


def test_theorem2_trivial_polynomial():
    table = theorem2_closed_form(1, 1, 1, LaurentPoly.one())
    assert table == BigradedTable({(0, 0): 1})


def test_theorem2_lines_and_symmetry():
    from pretzelhfk.alexander import fox_alexander
    from pretzelhfk.pretzel import wirtinger
    for a, b, c in [(1, 1, 1), (2, 1, 2), (1, 3, 1), (2, 2, 1)]:
        alex = fox_alexander(wirtinger((2 * a, -(2 * b + 1), 2 * c + 1)))
        table = theorem2_closed_form(a, b, c, alex)
        assert all(s - m in (c - b - 1, c - b) for m, s, _ in table.entries())
        assert symmetry_check(table)
        assert table.euler_poly() == alex


def test_closed_form_euler_round_trip():
    from pretzelhfk.alexander import euler_characteristic
    for a, b, c in cube(3):
        alex = euler_characteristic(chain_summary(thm1(a, b, c), "b"))
        assert theorem1_closed_form(a, b, c, alex).euler_poly() == alex


# ---------------------------------------------------------------------------
# mirrors, symmetry, readouts


def test_mirror_known_table():
    mirrored = mirror_transform(T34_TABLE)
    assert mirrored == BigradedTable({(0, -3): 1, (1, -2): 1, (2, 0): 1,
                                      (5, 2): 1, (6, 3): 1})
    assert mirror_transform(mirrored) == T34_TABLE
    assert mirrored.total_rank() == T34_TABLE.total_rank()
    assert mirrored.genus() == T34_TABLE.genus()


def test_symmetry_check():
    assert symmetry_check(T34_TABLE)
    assert not symmetry_check(BigradedTable({(0, 1): 1}))
    assert symmetry_check(BigradedTable())


def test_readouts():
    res = readouts(T34_TABLE, T34_POLY)
    assert res.genus == 3 and res.fibered and res.total_rank == 5
    assert res.alexander == T34_POLY
    with pytest.raises(ValueError):
        readouts(BigradedTable(), T34_POLY)


def test_fibered_iff_single_band():
    from pretzelhfk.alexander import euler_characteristic
    for a, b, c in [(1, 2, 2), (2, 1, 1), (3, 1, 2)]:
        summary = chain_summary(thm1(a, b, c), "b")
        res = readouts(reduce_two_lines(summary), euler_characteristic(summary))
        assert res.genus == b + c + 1
        assert res.fibered == (a == 1)


# ---------------------------------------------------------------------------
# pairings


def test_pairing_single_pair_small_knot():
    pairs = pairing_differential(thm1(1, 1, 1), "b", 1)
    assert len(pairs) == 1
    (pair,) = pairs
    assert pair.kind == "DlrDisk" and pair.l == 1 and pair.r == 0
    assert (pair.source.family, pair.source.idx1, pair.source.idx2) == ("A", 1, 0)
    assert (pair.target.family, pair.target.idx1, pair.target.idx2) == ("B", 0, 2)


def test_pairing_special_pair_variant_a():
    pairs = pairing_differential(thm1(1, 1, 1), "a", 0)
    kinds = {p.kind for p in pairs}
    assert "SpecialB0k" in kinds
    special = next(p for p in pairs if p.kind == "SpecialB0k")
    assert (special.source.idx1, special.source.idx2) == (0, 0)
    assert (special.target.family, special.target.idx1, special.target.idx2) == ("B", 0, 0)


def test_pairing_rejects_out_of_range_spin():
    with pytest.raises(ValueError):
        pairing_differential(thm1(1, 1, 1), "b", 4)
    with pytest.raises(ValueError):
        pairing_differential(thm1(1, 1, 1), "b", -4)
    with pytest.raises(ValueError):
        pairing_differential(thm1(1, 1, 1), "c", 0)


def test_pairing_gradings_compatible_on_grid():
    for a, b, c in cube(3):
        cls = thm1(a, b, c)
        for variant in ("a", "b"):
            for pair in all_pairings(cls, variant):
                gs = grading(pair.source, cls, variant)
                gt = grading(pair.target, cls, variant)
                assert gs.s == gt.s
                assert gs.m == gt.m + 1
                assert pair.source.family == "A"
                assert pair.target.family in ("B", "C")


def test_pair_rejects_incompatible_gradings():
    # the only guarantee behind the pairing-gradings check
    cls = thm1(1, 1, 1)
    a00, b00 = KauffmanState("A", 0, 0), KauffmanState("B", 0, 0)
    # (A_00, B_00) is the special variant (a) pair; in variant (b) the spins differ
    assert _pair(cls, "a", "SpecialB0k", a00, b00, l=0, r=0).target == b00
    with pytest.raises(ValueError):
        _pair(cls, "b", "SpecialB0k", a00, b00, l=0, r=0)
    # equal spin 2, but the Maslov grading rises instead of dropping by 1
    with pytest.raises(ValueError):
        _pair(cls, "b", "DlrDisk", KauffmanState("B", 1, 0),
              KauffmanState("A", 2, 0), l=1, r=0)


def test_pairing_no_duplicates():
    for a, b, c in cube(3):
        for variant in ("a", "b"):
            pairs = all_pairings(thm1(a, b, c), variant)
            keys = [(p.source, p.target) for p in pairs]
            assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# matrix route


def test_matrix_route_agrees_where_complete():
    for a, b, c in cube(3):
        cls = thm1(a, b, c)
        for variant in ("a", "b"):
            summary = chain_summary(cls, variant)
            reduced = reduce_two_lines(summary)
            result = homology_via_matrix(summary, all_pairings(cls, variant))
            for s, flag in result.complete_by_spin.items():
                if not flag:
                    continue
                for table in (result.table, reduced):
                    for (m, ss), r in table.as_dict().items():
                        if ss == s:
                            assert result.table.rank(m, ss) == reduced.rank(m, ss)


def test_matrix_route_flags_incomplete_spot():
    # the one listed pair at s=1 cannot span the 2x2 cancellation
    summary = chain_summary(thm1(1, 1, 1), "b")
    result = homology_via_matrix(summary, all_pairings(thm1(1, 1, 1), "b"))
    assert result.complete_by_spin[1] is False
    assert result.complete_by_spin[3] is True
    assert result.table.rank(0, 3) == 1


def test_matrix_route_rank_matches_smith():
    # build each 0/1 pair matrix explicitly; its Smith form must be all ones
    # (no torsion) with the rank that the counting route used
    for a, b, c in cube(4):
        cls = thm1(a, b, c)
        for variant in ("a", "b"):
            summary = chain_summary(cls, variant)
            pairs = all_pairings(cls, variant)
            listed = {(p.source, p.target) for p in pairs}
            result = homology_via_matrix(summary, pairs)
            rows, cols = {}, {}
            for state in enumerate_states(cls):
                side = rows if state.family == "A" else cols
                side.setdefault(grading(state, cls, variant).s, []).append(state)
            for s in summary.spins():
                r, k = rows.get(s, []), cols.get(s, [])
                diag = smith_diagonal([[int((x, y) in listed) for y in k] for x in r])
                assert set(diag) <= {0, 1}
                rank = sum(diag)
                assert len(r) - rank == result.table.rank(s - (b + c), s)
                assert len(k) - rank == result.table.rank(s - (b + c) - 1, s)
                assert result.complete_by_spin[s] == (rank == min(len(r), len(k)))


def test_matrix_route_rejects_reused_target():
    cls = thm1(2, 2, 2)
    pairs = all_pairings(cls, "b")
    first = pairs[0]
    # another A state with the same bigrading, paired with the same target
    twin = KauffmanState("A", first.source.idx1 + 1, first.source.idx2 + 1)
    extra = _pair(cls, "b", "DlrDisk", twin, first.target, l=first.l, r=first.r)
    with pytest.raises(ArithmeticError):
        homology_via_matrix(chain_summary(cls, "b"), pairs + [extra])


def test_matrix_route_empty_pairs():
    summary = chain_summary(thm1(1, 1, 1), "b")
    result = homology_via_matrix(summary, [])
    assert all(not flag for s, flag in result.complete_by_spin.items()
               if summary.a_count(s) and summary.bc_count(s))


# ---------------------------------------------------------------------------
# Smith normal form


def _minors_gcd_diagonal(matrix):
    """Invariant factors via gcd of k x k minors (tiny matrices only)."""
    import math
    from itertools import combinations

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        return sum((-1) ** j * sub[0][j] * det([r[:j] + r[j + 1:] for r in sub[1:]])
                   for j in range(len(sub)))

    nr, nc = len(matrix), len(matrix[0])
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                g = math.gcd(g, det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            out.extend([0] * (min(nr, nc) - len(out)))
            return out
        out.append(g // prev)
        prev = g
    return out


def test_smith_known_matrix():
    assert smith_diagonal([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == [1, 10, 30]


def test_smith_small_shapes():
    assert smith_diagonal([]) == []
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert smith_diagonal([[2]]) == [2]
    assert smith_diagonal([[1, 1], [1, 1]]) == [1, 0]
    assert smith_diagonal([[0, 1, 0]]) == [1]


def test_smith_matches_minor_gcds():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        matrix = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        got = smith_diagonal(matrix)
        expected = _minors_gcd_diagonal(matrix)
        assert got == expected, matrix
        nonzero = [d for d in got if d]
        for d1, d2 in zip(nonzero, nonzero[1:]):
            assert d2 % d1 == 0


def test_smith_pair_matrices_unimodular():
    # 0/1 matrices whose columns hit at most one row have all-ones diagonals
    assert smith_diagonal([[1, 1, 0], [0, 0, 1]]) == [1, 1]
    assert smith_diagonal([[1, 0], [0, 1], [0, 0]]) == [1, 1]


# ---------------------------------------------------------------------------
# itemized formulas (informational cross-check)


def test_literal_parts_requires_sorted():
    with pytest.raises(ValueError):
        theorem1_literal_parts(2, 1, 1)


def test_literal_parts_known_discrepancy():
    table = reduce_two_lines(chain_summary(thm1(1, 1, 1), "b"))
    diffs = literal_parts_discrepancies(1, 1, 1, table)
    assert diffs  # the low-spin item lands at m=-3 instead of m=-5
    assert any("s=-2" in d for d in diffs)


def test_literal_parts_match_above_the_low_spin_range():
    # items 1-4 agree; the transcribed low-spin items sit 2 Maslov steps high
    for a in range(1, 3):
        for b in range(a, 3):
            for c in range(b, 4):
                table = reduce_two_lines(chain_summary(thm1(a, b, c), "b"))
                literal = theorem1_literal_parts(a, b, c)
                for m, s, r in literal.entries():
                    if s >= b - c:
                        assert table.rank(m, s) == r, (a, b, c, m, s)
                    elif table.rank(m, s) != r:
                        assert table.rank(m - 2, s) == r, (a, b, c, m, s)
