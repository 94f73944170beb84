"""Acceptance criteria, one test per criterion.

Each test prints an explicit PASS/FAIL line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance: every comparison here
is exact integer or exact polynomial equality.
"""

import time

from conftest import cube_grid, thm1_class, thm1_grid

from pretzelhfk import cli
from pretzelhfk.alexander import torus_alexander
from pretzelhfk.hfk import (BigradedTable, all_pairings, homology_via_matrix,
                            reduce_two_lines, symmetry_check,
                            theorem1_closed_form, theorem2_closed_form)
from pretzelhfk.kauffman import grading

T34_TABLE = BigradedTable({(0, 3): 1, (-1, 2): 1, (-2, 0): 1,
                           (-5, -2): 1, (-6, -3): 1})

ORACLE_GRID = thm1_grid(4)          # 1 <= a <= b <= c <= 4, 20 knots
CUBE3 = cube_grid(3)                # a, b, c in 1..3, 27 triples


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_oracle_agreement(grid):
    assert len(ORACLE_GRID) == 20
    start = time.monotonic()
    ok = all(grid.statesum_alex(a, b, c) == grid.thm1_fox(a, b, c)
             for a, b, c in ORACLE_GRID)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(1, f"oracle agreement on 20 knots ({elapsed:.2f}s)", ok)


def test_criterion_02_closed_form_equivalence(grid):
    ok = True
    for a, b, c in ORACLE_GRID:
        for variant in ("a", "b"):
            summary = grid.summary(a, b, c, variant)
            alex = grid.statesum_alex(a, b, c, variant)
            ok = ok and (reduce_two_lines(summary)
                         == theorem1_closed_form(a, b, c, alex))
    _report(2, "two-line reduction equals closed form (both variants)", ok)


def test_criterion_03_top_group(grid):
    ok = True
    for a, b, c in ORACLE_GRID:
        table = grid.table(a, b, c)
        top = b + c + 1
        ok = ok and table.genus() == top
        ok = ok and table.rank(0, top) == a
        ok = ok and table.rank(-2 * top, -top) == a
    _report(3, "rank-a top group at (0, b+c+1) and its mirror image", ok)


def test_criterion_04_symmetry(grid):
    ok = all(symmetry_check(grid.table(a, b, c)) for a, b, c in CUBE3)
    for a, b, c in CUBE3:
        alex = grid.thm2_fox(a, b, c)
        ok = ok and symmetry_check(theorem2_closed_form(a, b, c, alex))
    _report(4, "rank(m, s) == rank(m-2s, -s) on both family grids", ok)


def test_criterion_05_torus_spot_checks(grid):
    ok = grid.table(1, 1, 1) == T34_TABLE
    ok = ok and grid.statesum_alex(1, 1, 1) == torus_alexander(3, 4)
    alex_335 = grid.statesum_alex(1, 1, 2)
    ok = ok and alex_335 == torus_alexander(3, 5)
    ok = ok and grid.table(1, 1, 2) == theorem1_closed_form(1, 1, 2, alex_335)
    _report(5, "K(-2,3,3) and K(-2,3,5) match the torus closed forms", ok)


def test_criterion_06_two_line_support(grid):
    ok = True
    for a, b, c in ORACLE_GRID:
        ok = ok and all(s - m in (b + c, b + c + 1)
                        for m, s, _ in grid.table(a, b, c).entries())
    for a, b, c in CUBE3:
        table = theorem2_closed_form(a, b, c, grid.thm2_fox(a, b, c))
        ok = ok and all(s - m in (c - b - 1, c - b) for m, s, _ in table.entries())
    _report(6, "all entries on the two support lines of each family", ok)


def test_criterion_07_marked_point_independence(grid):
    ok = True
    for a, b, c in ORACLE_GRID:
        sa, sb = grid.summary(a, b, c, "a"), grid.summary(a, b, c, "b")
        ok = ok and sa.euler_by_spin() == sb.euler_by_spin()
        ok = ok and reduce_two_lines(sa) == reduce_two_lines(sb)
    _report(7, "variants (a) and (b) give identical profiles and tables", ok)


def test_criterion_08_pairing_integrity(grid):
    ok = True
    for a, b, c in ORACLE_GRID:
        cls = thm1_class(a, b, c)
        for variant in ("a", "b"):
            summary = grid.summary(a, b, c, variant)
            pairs = all_pairings(cls, variant)
            targets = [pair.target for pair in pairs]
            ok = ok and len(targets) == len(set(targets))
            for pair in pairs:
                gs = grading(pair.source, cls, variant)
                gt = grading(pair.target, cls, variant)
                ok = ok and gs.s == gt.s and gs.m == gt.m + 1
            reduced = reduce_two_lines(summary)
            result = homology_via_matrix(summary, pairs)
            for s, flag in result.complete_by_spin.items():
                if not flag:
                    continue
                union = set(result.table.as_dict()) | set(reduced.as_dict())
                for (m, ss) in union:
                    if ss == s:
                        ok = ok and (result.table.rank(m, ss)
                                     == reduced.rank(m, ss))
    _report(8, "pair gradings compatible, targets paired once; "
               "matrix route agrees where complete", ok)


def test_criterion_09_parity(grid):
    ok = True
    for a, b, c in ORACLE_GRID:
        table = grid.table(a, b, c)
        det = abs(grid.statesum_alex(a, b, c).evaluate_at(-1))
        ok = ok and table.total_rank() % 2 == 1
        ok = ok and det % 2 == 1 and det <= table.total_rank()
    for a, b, c in CUBE3:
        alex = grid.thm2_fox(a, b, c)
        table = theorem2_closed_form(a, b, c, alex)
        det = abs(alex.evaluate_at(-1))
        ok = ok and table.total_rank() % 2 == 1
        ok = ok and det % 2 == 1 and det <= table.total_rank()
    _report(9, "total rank odd, determinant odd and bounded by rank", ok)


def test_criterion_10_deterministic_output(tmp_path):
    args = ["--verify", "--sweep", "a=1..3,b=1..3,c=1..3", "--format", "json"]
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code = cli.main(args + ["--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(10, "verify sweep output is byte-identical across runs", ok)
