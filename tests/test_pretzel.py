import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk.hfk import smith_diagonal
from pretzelhfk.pretzel import (FamilyTag, PretzelClass, PretzelParams,
                                canonical_triple, classify, wirtinger)


def test_classify_direct_families():
    cls = classify(-2, 3, 3)
    assert cls.tag is FamilyTag.THM1
    assert cls.abc() == (1, 1, 1)
    assert not cls.mirrored

    cls = classify(2, -3, 3)
    assert cls.tag is FamilyTag.THM2
    assert cls.abc() == (1, 1, 1)

    assert classify(-4, 5, 3).abc() == (2, 1, 2)
    assert classify(4, 3, -5).abc() == (2, 2, 1)  # negated odd fixes b


def test_classify_out_of_scope():
    assert classify(3, 5, 7).tag is FamilyTag.PRIOR_WORK
    assert classify(2, 3, 5).tag is FamilyTag.PRIOR_WORK     # alternating pattern
    assert classify(-2, 1, 3).tag is FamilyTag.PRIOR_WORK    # one-crossing band
    assert classify(-2, -3, -5).tag is FamilyTag.PRIOR_WORK
    assert classify(2, 4, 3).tag is FamilyTag.NOT_A_KNOT
    assert classify(0, 3, 3).tag is FamilyTag.NOT_A_KNOT
    assert classify(2, 4, 3).reason is not None


def test_classify_mirrors():
    cls = classify(2, -3, -3)
    assert cls.tag is FamilyTag.MIRROR_THM1
    assert cls.abc() == (1, 1, 1)
    assert cls.mirrored

    cls = classify(-2, 3, -3)
    assert cls.tag is FamilyTag.MIRROR_THM2
    assert cls.abc() == (1, 1, 1)

    assert classify(2, -3, -5).tag is FamilyTag.MIRROR_THM1


def test_classify_permutation_invariant():
    triples = [(-2, 3, 3), (2, -3, 3), (-4, 5, 7), (4, -7, 9),
               (3, 5, 7), (2, 4, 3), (2, -3, -5)]
    for triple in triples:
        reference = classify(*triple)
        for perm in itertools.permutations(triple):
            assert classify(*perm) == reference, (triple, perm)


def test_classify_mirror_toggles_flag():
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        for triple in [(-2 * a, 2 * b + 1, 2 * c + 1),
                       (2 * a, -(2 * b + 1), 2 * c + 1)]:
            direct = classify(*triple)
            flipped = classify(*(-p for p in triple))
            assert flipped.abc() == direct.abc()
            assert flipped.mirrored != direct.mirrored


bands = st.sampled_from([p for p in range(-9, 10) if p])
triples = st.tuples(bands, bands, bands)

MIRROR_TAG = {FamilyTag.THM1: FamilyTag.MIRROR_THM1, FamilyTag.MIRROR_THM1: FamilyTag.THM1,
              FamilyTag.THM2: FamilyTag.MIRROR_THM2, FamilyTag.MIRROR_THM2: FamilyTag.THM2,
              FamilyTag.PRIOR_WORK: FamilyTag.PRIOR_WORK,
              FamilyTag.NOT_A_KNOT: FamilyTag.NOT_A_KNOT}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(triples)
def test_classify_invariant_under_band_permutation(triple):
    reference = classify(*triple)
    for perm in itertools.permutations(triple):
        assert classify(*perm) == reference


@settings(derandomize=True, max_examples=300, deadline=None)
@given(triples)
def test_classify_of_negated_triple_is_the_mirror(triple):
    direct = classify(*triple)
    flipped = classify(*(-p for p in triple))
    assert flipped.tag is MIRROR_TAG[direct.tag]
    if direct.is_theorem_family:
        assert flipped.abc() == direct.abc()
        assert flipped.mirrored != direct.mirrored
    else:
        assert flipped == direct  # same tag and reason, no parameters


def test_canonical_triple():
    assert canonical_triple(classify(3, 3, -2), (3, 3, -2)) == (-2, 3, 3)
    assert canonical_triple(classify(2, -3, -3), (2, -3, -3)) == (2, -3, -3)
    assert canonical_triple(classify(7, 3, 5), (7, 3, 5)) == (3, 5, 7)


def test_params_validation():
    with pytest.raises(ValueError):
        PretzelParams(0, 3, 3)
    with pytest.raises(ValueError):
        PretzelParams(2, 4, 3)
    assert PretzelParams(-2, 3, 3).crossing_count == 8


def test_wirtinger_counts():
    pres = wirtinger((1, 1, 1))
    assert pres.generator_count == 3
    assert len(pres.relators) == 3

    pres = wirtinger((-2, 3, 3))
    assert pres.generator_count == 8
    assert len(pres.relators) == 8


def test_wirtinger_relator_shape():
    for word in wirtinger((-2, 3, 5)).relators:
        assert len(word) == 4
        assert sum(1 if x > 0 else -1 for x in word) == 0


def _structure_ok(pres):
    matrix = pres.exponent_matrix()
    assert all(sum(row) == 0 for row in matrix)
    rank = sum(1 for d in smith_diagonal(matrix) if d)
    assert rank == pres.generator_count - 1


def test_wirtinger_structure_over_grid():
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        _structure_ok(wirtinger((-2 * a, 2 * b + 1, 2 * c + 1)))
        _structure_ok(wirtinger((2 * a, -(2 * b + 1), 2 * c + 1)))
    _structure_ok(wirtinger((1, 1, 1)))
    _structure_ok(wirtinger((3, 5, 7)))


def test_wirtinger_deterministic():
    assert wirtinger((-2, 3, 5)) == wirtinger((-2, 3, 5))


def test_wirtinger_rejects_degenerate():
    with pytest.raises(ValueError):
        wirtinger((0, 3, 3))
    with pytest.raises(ValueError):
        wirtinger((2, 2, 3))
