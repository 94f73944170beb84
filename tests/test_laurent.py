import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk.laurent import LaurentError, LaurentPoly


def P(d):
    return LaurentPoly(d)


TREFOIL = P({1: 1, 0: -1, -1: 1})


def test_construction_drops_zeros():
    assert LaurentPoly({2: 0, 0: 3, -1: 0}).terms() == [(0, 3)]
    assert LaurentPoly({5: 0}).is_zero()
    assert LaurentPoly().is_zero()
    assert LaurentPoly(None).is_zero()
    assert LaurentPoly({}).is_zero()
    assert LaurentPoly({}) == LaurentPoly.zero()


def test_is_unit():
    assert P({3: 1}).is_unit() and P({-2: -1}).is_unit() and LaurentPoly.one().is_unit()
    assert not LaurentPoly.zero().is_unit()
    assert not P({0: 2}).is_unit()
    assert not P({1: 1, 0: -1}).is_unit()


def test_terms_sorted_ascending():
    assert TREFOIL.terms() == [(-1, 1), (0, -1), (1, 1)]


def test_ring_arithmetic():
    t = LaurentPoly({1: 1})
    one = LaurentPoly.one()
    assert t + one == P({1: 1, 0: 1})
    assert t - t == LaurentPoly.zero()
    assert -t == P({1: -1})
    assert t * t == P({2: 1})
    assert 3 * t == P({1: 3})
    assert (t + one) * (t - one) == P({2: 1, 0: -1})


def test_equality_and_hash():
    assert P({0: 1}) == LaurentPoly.one()
    assert hash(P({2: 3, -1: 4})) == hash(P({-1: 4, 2: 3}))


def test_evaluate_at_units():
    p = P({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})
    assert p.evaluate_at(1) == 1
    assert p.evaluate_at(-1) == -3
    with pytest.raises(LaurentError):
        p.evaluate_at(2)


def test_square_evaluates_to_one_at_unit():
    assert (TREFOIL * TREFOIL).evaluate_at(1) == 1


def test_symmetry():
    assert TREFOIL.is_symmetric()
    assert not P({2: 1, 0: 1}).is_symmetric()


def test_normalize_symmetric_strips_units():
    skewed = P({-1: -1}) * TREFOIL  # -t^-1 * (t - 1 + 1/t)
    assert skewed.normalize_symmetric() == TREFOIL
    assert TREFOIL.normalize_symmetric() == TREFOIL


def test_normalize_symmetric_failures():
    with pytest.raises(LaurentError):
        LaurentPoly.zero().normalize_symmetric()
    with pytest.raises(LaurentError):
        P({1: 1, 0: -1}).normalize_symmetric()  # value 0 at t=1
    with pytest.raises(LaurentError):
        P({1: 1, 0: 1}).normalize_symmetric()  # off-center span
    with pytest.raises(LaurentError):
        P({2: 1, 1: 1, 0: 2}).normalize_symmetric()  # centered but asymmetric


def test_exact_divide():
    num = P({2: 1, 0: -1})
    assert num.exact_divide(P({1: 1, 0: -1})) == P({1: 1, 0: 1})
    # Laurent shifts divide out exactly
    assert P({0: 1, -2: -1}).exact_divide(P({-1: 1})) == P({1: 1, -1: -1})


def test_exact_divide_failures():
    with pytest.raises(LaurentError):
        P({2: 1, 0: 1}).exact_divide(P({1: 1, 0: -1}))
    with pytest.raises(LaurentError):
        P({1: 1}).exact_divide(LaurentPoly.zero())
    with pytest.raises(LaurentError):
        P({1: 2}).exact_divide(P({0: 3}))


def test_divide_inverts_multiply():
    f = P({3: 2, 0: -1, -2: 5})
    g = P({1: 7, -1: -3})
    assert (f * g).exact_divide(g) == f


def test_str_rendering():
    assert str(LaurentPoly.zero()) == "0"
    assert str(P({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})) == "t^3 - t^2 + 1 - t^-2 + t^-3"
    assert str(P({1: 18, 0: -35, -1: 18})) == "18*t - 35 + 18*t^-1"


# ---------------------------------------------------------------------------
# properties (small polynomials, fixed example sequence)

polys = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=4).map(P)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f + (-f) == zero
    assert f - g == f + (-g)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f
    assert f * zero == zero
    assert f * (g + h) == f * g + f * h


@PROPERTY
@given(polys, st.integers(-5, 5))
def test_scalar_multiple_matches_constant_poly(f, k):
    assert k * f == f * k == f * P({0: k})


@PROPERTY
@given(polys, nonzero_polys)
def test_exact_divide_inverts_multiply(f, g):
    assert (f * g).exact_divide(g) == f

