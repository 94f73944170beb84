import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk.kauffman import (Bigrading, KauffmanState, chain_summary,
                                 enumerate_states, grading)
from pretzelhfk.pretzel import FamilyTag, PretzelClass

K111 = PretzelClass(FamilyTag.THM1, 1, 1, 1)
K222 = PretzelClass(FamilyTag.THM2, 2, 2, 2)


def thm1(a, b, c):
    return PretzelClass(FamilyTag.THM1, a, b, c)


def test_state_counts_small():
    states = enumerate_states(K111)
    assert len(states) == 21
    assert Counter(s.family for s in states) == {"A": 9, "B": 6, "C": 6}


def test_state_counts_larger():
    states = enumerate_states(thm1(2, 2, 2))
    counts = Counter(s.family for s in states)
    assert counts == {"A": 25, "B": 20, "C": 20}
    assert len(states) == 65


def test_state_lists_variant_independent():
    # both variants grade the same state list: equal per-family totals
    for a, b, c in [(1, 1, 1), (2, 1, 3)]:
        totals = {}
        for variant in ("a", "b"):
            summary = chain_summary(thm1(a, b, c), variant)
            per_family = Counter()
            for (fam, _), n in summary.per_family.items():
                per_family[fam] += n
            totals[variant] = per_family
            assert summary.total() == len(enumerate_states(thm1(a, b, c)))
        assert totals["a"] == totals["b"]


def test_enumerate_requires_thm1_and_valid_variant():
    with pytest.raises(ValueError):
        enumerate_states(K222)
    with pytest.raises(ValueError):
        enumerate_states(PretzelClass(FamilyTag.MIRROR_THM1, 1, 1, 1))
    with pytest.raises(ValueError):
        grading(KauffmanState("A", 0, 0), K111, "c")
    with pytest.raises(ValueError):
        chain_summary(K111, "c")


def test_grading_known_values():
    assert grading(KauffmanState("A", 0, 0), K111, "a") == Bigrading(-2, 0)
    assert grading(KauffmanState("B", 1, 0), K111, "a") == Bigrading(-1, 2)
    assert grading(KauffmanState("C", 0, 0), K111, "a") == Bigrading(-2, 1)
    assert grading(KauffmanState("B", 0, 1), K111, "b") == Bigrading(-1, 2)
    # i = 0 rows are special in variant (a) only
    assert grading(KauffmanState("B", 0, 0), K111, "a") == Bigrading(-3, 0)
    assert grading(KauffmanState("B", 0, 0), K111, "b") == Bigrading(0, 3)
    assert grading(KauffmanState("C", 0, 2), K111, "a") == Bigrading(0, 3)


def test_grading_rejects_out_of_range():
    with pytest.raises(ValueError):
        grading(KauffmanState("A", 3, 0), K111, "b")
    with pytest.raises(ValueError):
        grading(KauffmanState("B", 2, 0), K111, "b")
    with pytest.raises(ValueError):
        grading(KauffmanState("C", 0, 3), K111, "b")


def test_delta_separates_families():
    for a, b, c in [(1, 1, 1), (2, 1, 2), (1, 3, 2)]:
        cls = thm1(a, b, c)
        for variant in ("a", "b"):
            for state in enumerate_states(cls):
                g = grading(state, cls, variant)
                expected = 0 if state.family == "A" else 1
                assert g.s - g.m - (b + c) == expected, state


def test_family_count_identities():
    for a, b, c in [(1, 1, 1), (2, 3, 1), (3, 2, 2)]:
        summary = chain_summary(thm1(a, b, c), "b")
        totals = Counter()
        for (fam, _), n in summary.per_family.items():
            totals[fam] += n
        assert totals["A"] == (2 * b + 1) * (2 * c + 1)
        assert totals["B"] == 2 * a * (2 * c + 1)
        assert totals["C"] == 2 * a * (2 * b + 1)
        assert summary.total() == totals["A"] + totals["B"] + totals["C"]


def test_two_line_chain_structure():
    # every A state one Maslov step above the B/C states of its spin grading
    for a, b, c in [(1, 1, 1), (2, 2, 3)]:
        cls = thm1(a, b, c)
        for variant in ("a", "b"):
            for state in enumerate_states(cls):
                g = grading(state, cls, variant)
                if state.family == "A":
                    assert g.m == g.s - (b + c)
                else:
                    assert g.m == g.s - (b + c) - 1


def test_known_counts_per_spin():
    summary = chain_summary(K111, "b")
    n_a = {s: summary.a_count(s) for s in summary.spins() if summary.a_count(s)}
    n_bc = {s: summary.bc_count(s) for s in summary.spins() if summary.bc_count(s)}
    assert n_a == {2: 1, 1: 2, 0: 3, -1: 2, -2: 1}
    assert n_bc == {3: 1, 2: 2, 1: 2, 0: 2, -1: 2, -2: 2, -3: 1}


def test_spin_coincidence_of_b_and_c():
    # in variant (b), B and C states share a spin grading only at one corner
    for a, b, c in [(1, 1, 1), (2, 1, 3), (1, 3, 1)]:
        cls = thm1(a, b, c)
        b_states = [(s, grading(s, cls, "b")) for s in enumerate_states(cls)
                    if s.family == "B"]
        c_states = [(s, grading(s, cls, "b")) for s in enumerate_states(cls)
                    if s.family == "C"]
        for (bs, gb), (cs, gc) in itertools.product(b_states, c_states):
            if gb.s == gc.s:
                assert gb.s == b - c
                assert bs.idx2 == 2 * c and bs.idx1 % 2 == 1
                assert cs.idx2 == 2 * b and cs.idx1 % 2 == 0


def test_euler_counts_variant_independent():
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        cls = thm1(a, b, c)
        assert chain_summary(cls, "a").euler_by_spin() == \
               chain_summary(cls, "b").euler_by_spin()


def test_chain_summary_matches_per_state_grading():
    # equality gate: the summary's buckets against the public per-state table
    for a, b, c in itertools.product(range(1, 7), repeat=3):
        cls = thm1(a, b, c)
        states = enumerate_states(cls)
        for variant in ("a", "b"):
            graded = [(state, grading(state, cls, variant)) for state in states]
            summary = chain_summary(cls, variant)
            assert summary.counts == Counter((g.m, g.s) for _, g in graded)
            assert summary.per_family == Counter((state.family, g.s)
                                                  for state, g in graded)
            assert summary.params == (a, b, c) and summary.variant == variant
            assert type(summary.counts) is dict and type(summary.per_family) is dict


states_st = st.builds(KauffmanState, st.sampled_from("ABC"),
                      st.integers(-2, 4), st.integers(-2, 4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(states_st, states_st)
def test_state_order_hash_and_equality_follow_the_field_tuple(s, t):
    ts, tt = (s.family, s.idx1, s.idx2), (t.family, t.idx1, t.idx2)
    assert (s < t) == (ts < tt) and (s <= t) == (ts <= tt)
    assert (s == t) == (ts == tt) and (s != t) == (ts != tt)
    assert hash(s) == hash(ts)
    assert repr(s) == f"KauffmanState(family={s.family!r}, idx1={s.idx1}, idx2={s.idx2})"
