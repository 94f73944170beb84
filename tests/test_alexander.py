import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk import alexander
from pretzelhfk.alexander import (_bareiss, bareiss_determinant,
                                  euler_characteristic, fox_alexander,
                                  fox_derivative, torus_alexander)
from pretzelhfk.kauffman import ChainSummary, chain_summary
from pretzelhfk.laurent import LaurentError, LaurentPoly
from pretzelhfk.pretzel import (FamilyTag, PretzelClass, WirtingerPresentation,
                                wirtinger)

TREFOIL_POLY = LaurentPoly({1: 1, 0: -1, -1: 1})
T34_POLY = LaurentPoly({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})
T35_POLY = LaurentPoly({4: 1, 3: -1, 1: 1, 0: -1, -1: 1, -3: -1, -4: 1})


def odd_pretzel_alexander(p, q, r):
    """Independent genus-one formula for all-odd pretzels.

    From the Seifert matrix [[(p+q)/2, (q+1)/2], [(q-1)/2, (q+r)/2]]:
    det(V - tV^T) expands to ((pq+qr+rp)(t - 2 + 1/t) + (t + 2 + 1/t)) / 4.
    """
    e = p * q + q * r + r * p
    terms = {1: e + 1, 0: -2 * e + 2, -1: e + 1}
    assert all(v % 4 == 0 for v in terms.values())
    return LaurentPoly({k: v // 4 for k, v in terms.items()}).normalize_symmetric()


def naive_determinant(rows):
    """Cofactor expansion, used as an oracle for the determinant."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * naive_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# torus closed form


def test_torus_known_polynomials():
    assert torus_alexander(2, 3) == TREFOIL_POLY
    assert torus_alexander(3, 4) == T34_POLY
    assert torus_alexander(3, 5) == T35_POLY
    assert torus_alexander(3, 4) == torus_alexander(4, 3)


def test_torus_defining_identity():
    # multiply back: poly * (t^p - 1)(t^q - 1) must be a unit times (t^pq - 1)(t - 1)
    for p, q in [(2, 3), (3, 4), (3, 5), (2, 7), (4, 5)]:
        poly = torus_alexander(p, q)
        den = LaurentPoly({p: 1, 0: -1}) * LaurentPoly({q: 1, 0: -1})
        num = LaurentPoly({p * q: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})
        prod = poly * den
        shift = prod.min_exp() - num.min_exp()
        shifted = num * LaurentPoly({shift: 1})
        assert prod == shifted or prod == -shifted


def test_torus_rejects_bad_input():
    with pytest.raises(ValueError):
        torus_alexander(2, 4)
    with pytest.raises(ValueError):
        torus_alexander(1, 5)


# ---------------------------------------------------------------------------
# Fox calculus


def test_fox_derivative_positive_crossing_row():
    # relator y x y^-1 z^-1 gives the textbook row (1-t, t, -1)
    word = (2, 1, -2, -3)
    assert fox_derivative(word, 1) == LaurentPoly({1: 1})
    assert fox_derivative(word, 2) == LaurentPoly({0: 1, 1: -1})
    assert fox_derivative(word, 3) == LaurentPoly({0: -1})


def test_fox_trefoil():
    assert fox_alexander(wirtinger((1, 1, 1))) == TREFOIL_POLY


def test_fox_unknot_convention():
    assert fox_alexander(WirtingerPresentation(1, ())) == LaurentPoly.one()


def test_fox_unknot_diagram():
    # P(1, -1, 1) reduces to the unknot
    assert fox_alexander(wirtinger((1, -1, 1))) == LaurentPoly.one()


def test_fox_matches_torus_forms():
    assert fox_alexander(wirtinger((-2, 3, 3))) == T34_POLY
    assert fox_alexander(wirtinger((-2, 3, 5))) == T35_POLY


def test_fox_matches_odd_pretzel_formula():
    for triple in [(1, 1, 1), (3, 5, 7), (1, 3, 5), (3, -5, 7), (-3, -5, -7)]:
        assert fox_alexander(wirtinger(triple)) == odd_pretzel_alexander(*triple), triple


def test_fox_column_independence():
    for triple in [(-2, 3, 3), (2, -3, 5), (3, 5, 7)]:
        pres = wirtinger(triple)
        polys = {fox_alexander(pres, drop_generator=j)
                 for j in range(pres.generator_count)}
        assert len(polys) == 1


knot_triples = st.tuples(*[st.sampled_from([p for p in range(-9, 10) if p])] * 3).filter(
    lambda t: sum(p % 2 == 0 for p in t) <= 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(knot_triples)
def test_fox_invariant_under_band_permutation(triple):
    reference = fox_alexander(wirtinger(triple))
    for perm in itertools.permutations(triple):
        assert fox_alexander(wirtinger(perm)) == reference, perm


def test_fox_determinant_is_odd():
    for triple in [(-2, 3, 3), (-4, 5, 7), (2, -5, 3), (3, 5, 7)]:
        det = abs(fox_alexander(wirtinger(triple)).evaluate_at(-1))
        assert det % 2 == 1


def test_fox_rejects_malformed_presentation():
    # x1 * x1^-1 has a zero Fox row, so the minor determinant vanishes
    pres = WirtingerPresentation(2, ((1, -1),))
    with pytest.raises(LaurentError):
        fox_alexander(pres)
    with pytest.raises(ValueError):
        fox_alexander(WirtingerPresentation(3, ((1, -2),)))
    with pytest.raises(ValueError):
        fox_alexander(wirtinger((1, 1, 1)), drop_generator=7)


def test_alexander_matrix_shape():
    pres = wirtinger((-2, 3, 3))
    matrix = [[fox_derivative(word, g) for g in range(1, pres.generator_count + 1)]
              for word in pres.relators]
    assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)
    # the fundamental identity: rows sum to zero against (t - 1)
    t_minus_1 = LaurentPoly({1: 1, 0: -1})
    for row in matrix:
        total = LaurentPoly.zero()
        for entry in row:
            total = total + entry * t_minus_1
        assert total.is_zero()


def test_fox_column_independence_large():
    # a = b = c = 16: 98 generators, two independent eliminations
    pres = wirtinger((32, -33, 33))
    assert fox_alexander(pres, 0) == fox_alexander(pres, pres.generator_count - 1)


def test_fox_matches_state_sum_large():
    cls = PretzelClass(FamilyTag.THM1, 16, 16, 16)
    assert fox_alexander(wirtinger((-32, 33, 33))) == \
        euler_characteristic(chain_summary(cls, "b"))


def test_sparse_elimination_matches_bareiss_on_fox_minors(monkeypatch):
    """Every Fox minor with 0 < |p_i| <= 4, first and last column deleted."""
    compared = []

    def both(rows):
        det = bareiss_determinant(rows)
        assert det == _bareiss(rows)
        compared.append(len(rows))
        return det

    monkeypatch.setattr(alexander, "bareiss_determinant", both)
    values = [v for v in range(-4, 5) if v]
    for triple in itertools.product(values, repeat=3):
        if sum(v % 2 == 0 for v in triple) > 1:
            continue  # a link: wirtinger rejects it
        pres = wirtinger(triple)
        for drop in (0, pres.generator_count - 1):
            fox_alexander(pres, drop)
    assert len(compared) == 2 * 256


# ---------------------------------------------------------------------------
# determinant


def _random_poly(rng):
    return LaurentPoly({e: rng.randint(-3, 3) for e in range(rng.randint(0, 2) + 1)})


def test_bareiss_against_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[_random_poly(rng) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(rows) == naive_determinant(rows)


def test_bareiss_singular_and_empty():
    one = LaurentPoly.one()
    assert bareiss_determinant([]) == one
    assert bareiss_determinant([[one, one], [one, one]]).is_zero()
    zero_col = [[LaurentPoly.zero(), one], [LaurentPoly.zero(), one]]
    assert bareiss_determinant(zero_col).is_zero()
    with pytest.raises(ValueError):
        bareiss_determinant([[one, one]])


ZERO = LaurentPoly.zero()
units = st.builds(lambda e, c: LaurentPoly({e: c}),
                  st.integers(-3, 3), st.sampled_from([1, -1]))
short_polys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                              min_size=1, max_size=3).map(LaurentPoly)
entries = st.one_of(st.just(ZERO), units, units, short_polys)


@st.composite
def square_matrices(draw):
    """Up to 5x5, some with a zero row, a zero column or a dependent row."""
    n = draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n:
        shape = draw(st.sampled_from(["any", "any", "any", "zero row", "zero column",
                                      "dependent row"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if shape == "zero row":
            rows[i] = [ZERO] * n
        elif shape == "zero column":
            for row in rows:
                row[j] = ZERO
        elif shape == "dependent row" and i != j:
            factor = draw(entries)
            rows[j] = [factor * e for e in rows[i]]
    return rows


@settings(derandomize=True, max_examples=200, deadline=None)
@given(square_matrices())
def test_determinant_matches_cofactor_expansion(rows):
    assert bareiss_determinant(rows) == naive_determinant(rows)


# ---------------------------------------------------------------------------
# state-sum route


def test_euler_characteristic_small():
    summary = chain_summary(PretzelClass(FamilyTag.THM1, 1, 1, 1), "b")
    assert euler_characteristic(summary) == T34_POLY


def test_euler_characteristic_normalized():
    for abc in [(1, 1, 1), (2, 3, 1), (3, 1, 2)]:
        summary = chain_summary(PretzelClass(FamilyTag.THM1, *abc), "b")
        alex = euler_characteristic(summary)
        assert alex.is_symmetric()
        assert alex.evaluate_at(1) == 1


def test_euler_characteristic_rejects_unnormalizable():
    off_center = ChainSummary((1, 1, 1), "b", {(0, 0): 1, (0, 1): 1}, {})
    with pytest.raises(LaurentError, match="state-sum Euler characteristic not normalizable"):
        euler_characteristic(off_center)
    cancelling = ChainSummary((1, 1, 1), "b", {(0, 0): 1, (1, 0): 1}, {})
    with pytest.raises(LaurentError, match="zero polynomial"):
        euler_characteristic(cancelling)


def test_oracle_agreement_spot():
    cls = PretzelClass(FamilyTag.THM1, 2, 1, 2)
    assert euler_characteristic(chain_summary(cls, "b")) == \
        fox_alexander(wirtinger((-4, 3, 5)))
