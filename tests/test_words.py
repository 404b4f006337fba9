import pickle
from fractions import Fraction
from math import comb

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import indices_up_to
from fmpl.words import (
    EMPTY,
    FormalSum,
    Index,
    concat,
    index_to_word,
    shuffle,
    star,
    stuffle,
    word_to_index,
)

I = Index.of

small_indices = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(lambda parts: Index(tuple(parts)))


def test_index_basics():
    k = I(2, 3)
    assert (k.weight, k.depth) == (5, 2)
    assert (EMPTY.weight, EMPTY.depth) == (0, 0)
    assert list(k) == [2, 3]
    assert k.head() == I(2)
    assert str(k) == "(2,3)" and str(EMPTY) == "()"


def test_index_rejects_bad_parts():
    with pytest.raises(ValueError):
        Index((0, 2))
    with pytest.raises(ValueError):
        Index((1, -3))
    with pytest.raises(ValueError):
        Index.parse("1,0")


def test_indices_built_from_checked_parts_are_indices():
    # head, concat and star build their indices unchecked, from the parts of
    # their checked operands
    built = [I(2, 3).head(), EMPTY.head(), concat(I(1, 2), I(3)), concat(EMPTY, EMPTY), star(I(1, 2), I(3, 4))]
    assert [type(k) for k in built] == [Index] * 5
    assert built == [I(2), EMPTY, I(1, 2, 3), EMPTY, I(1, 6, 3)]
    assert built[1] is not EMPTY and hash(built[1]) == hash(EMPTY) and built[1].text() == "-"


def test_index_parse_round_trip():
    assert Index.parse("2,3") == I(2, 3)
    assert Index.parse("-") == EMPTY
    assert Index.parse(I(4, 1, 1).text()) == I(4, 1, 1)
    assert EMPTY.text() == "-"
    with pytest.raises(ValueError):
        Index.parse("2,x")


def test_index_hash_is_the_tuple_hash_and_survives_pickling():
    k = I(2, 1, 3)
    assert hash(k) == hash((2, 1, 3)) and hash(EMPTY) == hash(())
    copy = pickle.loads(pickle.dumps(k))
    assert type(copy) is Index and copy == k and hash(copy) == hash(k)
    assert repr(copy) == "Index(parts=(2, 1, 3))" and copy.parts == (2, 1, 3)
    assert {k: 1}[copy] == 1


def test_index_ordering_is_lexicographic():
    assert sorted([I(4, 1), I(2, 3), I(3, 2)]) == [I(2, 3), I(3, 2), I(4, 1)]
    assert I(2) < I(2, 1) < I(3)


def test_concat_and_star():
    assert concat(I(1, 2), I(3)) == I(1, 2, 3)
    assert concat(EMPTY, I(3)) == I(3)
    assert star(I(1), I(1)) == I(2)
    assert star(I(1, 2), I(3, 4)) == I(1, 6, 3)
    with pytest.raises(ValueError):
        star(EMPTY, I(1))
    with pytest.raises(ValueError):
        star(I(1), EMPTY)


def test_index_word_round_trip():
    assert index_to_word(EMPTY) == ""
    assert index_to_word(I(2, 3)) == "xyxxy"
    assert word_to_index("xyxxy") == I(2, 3)
    assert word_to_index("") == EMPTY
    for k in indices_up_to(5):
        assert word_to_index(index_to_word(k)) == k


def test_word_to_index_rejects_inadmissible():
    with pytest.raises(ValueError, match="not admissible"):
        word_to_index("xyx")
    with pytest.raises(ValueError, match="not admissible"):
        word_to_index("xyz")


def test_formal_sum_canonicalization():
    fs = FormalSum([(I(2, 3), 1), (I(2, 3), 2), (I(1), 1), (I(1), -1)])
    assert list(fs) == [(I(2, 3), 3)] and type(list(fs)[0][1]) is int
    assert not FormalSum()
    assert FormalSum.single(I(1)) - FormalSum.single(I(1)) == FormalSum()


def test_formal_sum_str():
    assert str(FormalSum()) == "0"
    assert str(shuffle(I(2), I(3))) == "(2,3) + 3*(3,2) + 6*(4,1)"
    assert str(FormalSum([(I(2), -1), (I(1, 1), 3)])) == "3*(1,1) - (2)"


@pytest.mark.parametrize("coef", [Fraction(1, 2), Fraction(3), 0.5, 2.0])
def test_formal_sum_rejects_coefficients_that_are_not_integers(coef):
    with pytest.raises(TypeError):
        FormalSum([(I(1), coef)])
    with pytest.raises(TypeError):
        FormalSum({I(1): coef})
    with pytest.raises(TypeError):
        FormalSum.single(I(1)) * coef
    with pytest.raises(TypeError):
        coef * FormalSum.single(I(1))


def test_formal_sum_takes_integer_coefficients_as_ints():
    fs = FormalSum([(I(1), True), (I(2), np.int64(3))]) * np.int32(2)
    assert list(fs) == [(I(1), 2), (I(2), 6)]
    assert all(type(c) is int for _, c in fs)


def test_shuffle_examples():
    assert shuffle(EMPTY, I(2, 1)) == FormalSum.single(I(2, 1))
    assert shuffle(I(2, 1), EMPTY) == FormalSum.single(I(2, 1))
    assert shuffle(I(2), I(3)) == FormalSum([(I(2, 3), 1), (I(3, 2), 3), (I(4, 1), 6)])
    assert shuffle(I(1), I(1)) == FormalSum.single(I(1, 1), 2)


def test_stuffle_examples():
    assert stuffle(I(2, 1), EMPTY) == FormalSum.single(I(2, 1))
    assert stuffle(EMPTY, I(2, 1)) == FormalSum.single(I(2, 1))
    assert stuffle(I(2), I(3)) == FormalSum([(I(2, 3), 1), (I(3, 2), 1), (I(5), 1)])
    assert stuffle(I(1), I(1)) == FormalSum([(I(1, 1), 2), (I(2), 1)])


@pytest.mark.parametrize("product", [shuffle, stuffle])
def test_products_commute_and_associate_exhaustively(product):
    pool = indices_up_to(3)  # 8 indices, 512 triples per product
    for a in pool:
        for b in pool:
            ab = product(a, b)
            assert ab == product(b, a)
            for c in pool:
                left = FormalSum()
                for k, coef in ab:
                    left = left + coef * product(k, c)
                right = FormalSum()
                for k, coef in product(b, c):
                    right = right + coef * product(a, k)
                assert left == right, (a, b, c)


@given(a=small_indices, b=small_indices)
def test_products_weight_homogeneous(a, b):
    for product in (shuffle, stuffle):
        for k, coef in product(a, b):
            assert k.weight == a.weight + b.weight
            assert coef > 0 and coef.denominator == 1


@given(a=small_indices, b=small_indices)
def test_shuffle_coefficient_sum_is_binomial(a, b):
    total = sum(c for _, c in shuffle(a, b))
    assert total == comb(a.weight + b.weight, a.weight)


@given(a=small_indices, b=small_indices)
def test_stuffle_top_depth_coefficients(a, b):
    fs = stuffle(a, b)
    top = sum(c for k, c in fs if k.depth == a.depth + b.depth)
    assert top == comb(a.depth + b.depth, a.depth)
    assert all(k.depth <= a.depth + b.depth for k, _ in fs)


def brute_shuffle(u: str, v: str) -> FormalSum:
    """Independent oracle: enumerate the letter-position interleavings."""
    from itertools import combinations

    n = len(u) + len(v)
    acc = {}
    for spots in combinations(range(n), len(u)):
        word = [""] * n
        ui = iter(u)
        vi = iter(v)
        for pos in range(n):
            word[pos] = next(ui) if pos in spots else next(vi)
        k = word_to_index("".join(word))
        acc[k] = acc.get(k, 0) + 1
    return FormalSum(acc)


def brute_stuffle(a: Index, b: Index) -> FormalSum:
    """Independent oracle: pairs of strictly increasing maps covering [s]."""
    from itertools import combinations

    r, rp = a.depth, b.depth
    acc = {}
    for s in range(max(r, rp), r + rp + 1):
        for phi in combinations(range(s), r):
            for psi in combinations(range(s), rp):
                if set(phi) | set(psi) != set(range(s)):
                    continue
                parts = [0] * s
                for i, t in enumerate(phi):
                    parts[t] += a[i]
                for j, t in enumerate(psi):
                    parts[t] += b[j]
                k = Index(tuple(parts))
                acc[k] = acc.get(k, 0) + 1
    return FormalSum(acc)


def test_shuffle_matches_interleaving_oracle():
    for a in indices_up_to(4):
        for b in indices_up_to(4):
            if a.weight + b.weight > 5:
                continue
            assert shuffle(a, b) == brute_shuffle(index_to_word(a), index_to_word(b)), (a, b)


def test_shuffle_of_a_long_word_does_not_recurse():
    # (2000) is the word x^1999 y.  The y of (1) after i < 1999 x's gives
    # (i + 1, 2000 - i); after all 1,999 it goes on either side of the
    # other y, which gives (2000, 1) twice
    expected = FormalSum([(I(i + 1, 2000 - i), 1) for i in range(1999)] + [(I(2000, 1), 2)])
    assert shuffle(I(2000), I(1)) == expected


def test_stuffle_of_a_long_index_does_not_recurse():
    # (1) goes into one of 1,001 slots, or merges with one of 1,000 parts
    ones = (1,) * 1000
    merged = [(Index(ones[:i] + (2,) + ones[i + 1 :]), 1) for i in range(1000)]
    assert stuffle(Index(ones), I(1)) == FormalSum([(Index(ones + (1,)), 1001)] + merged)


def test_stuffle_matches_covering_maps_oracle():
    for a in indices_up_to(4):
        for b in indices_up_to(4):
            if a.weight + b.weight > 6:
                continue
            assert stuffle(a, b) == brute_stuffle(a, b), (a, b)
