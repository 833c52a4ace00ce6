"""Steps the code no longer takes, each pinned by the fact that makes it unneeded.

* The census interval: the largest t >= 0 with g t^2 + 2 s t <= b (g > 0,
  s >= 0, b >= 0) is exactly (isqrt(s^2 + g b) - s) // g, since the
  inequality is (g t + s)^2 <= s^2 + g b and g t + s is an integer.  So no
  correction loop follows the square root.
* Rank 1: g v^2 == c has at most one root v >= 0.
* The census and the reduced words come out in lexicographic order, so
  neither is sorted.  The reduced words of w0, from a recursion that carries
  h instead of recomputing it, are as many as the known counts.
* Every leading principal minor of a Cartan matrix is positive, so neither
  the fraction-free sweep of `build_cartan` nor the Fraction Gauss-Jordan of
  the reference `oracles.mat_inv` ever needs a row swap.
"""

import random
from fractions import Fraction
from itertools import pairwise
from math import isqrt

import pytest

from weylipse import (
    build_cartan,
    element_from_pvector,
    enumerate_secondary_nonneg,
    parse_type,
    word_to_element,
)
from weylipse.ordering import reduced_words
from weylipse.orbits import _dfs_nonneg

from oracles import mat_inv


def cd_of(text):
    return build_cartan(parse_type(text))


def strictly_increasing(items):
    return all(a < b for a, b in pairwise(items))


def test_census_interval_closed_form_is_the_largest_root():
    for g in range(1, 30):
        for s in range(60):
            t = 0  # the largest root grows with b, so one scan serves every b
            for b in range(400):
                while g * (t + 1) * (t + 1) + 2 * s * (t + 1) <= b:
                    t += 1
                assert (isqrt(s * s + g * b) - s) // g == t


def test_rank_one_census_has_at_most_one_root():
    for g in range(1, 20):
        for c in range(200):
            assert _dfs_nonneg([[g]], c) == [(v,) for v in range(c + 1) if g * v * v == c]


@pytest.mark.parametrize(
    "text", ["A7", "A8", "A9", "B8", "C8", "D9", "E7", "E8", "E8xA1", "E7xA2", "E6xA3"]
)
def test_census_comes_out_strictly_increasing(text):
    sols = enumerate_secondary_nonneg(cd_of(text))
    assert sols and strictly_increasing(sols)


# the number of reduced words of w0: for A_n Stanley's hook-length count (Europ. J.
# Combin. 5, 1984), for B_n the n x n square standard Young tableaux
W0_WORD_COUNTS = {"A3": 16, "A4": 768, "A5": 292864, "B3": 42, "B4": 24024, "D4": 2316}


@pytest.mark.parametrize("text", list(W0_WORD_COUNTS))
def test_reduced_words_of_w0_come_out_strictly_increasing(text):
    cd = cd_of(text)
    w0 = element_from_pvector(cd.two_delta, cd)  # P(w0) = 2 delta
    words = reduced_words(w0, cd).words
    assert len(words[0]) == cd.positive_root_count
    assert len(words) == W0_WORD_COUNTS[text]
    assert strictly_increasing(words)


@pytest.mark.parametrize("text", ["E6", "E7"])
def test_reduced_words_of_random_elements_come_out_strictly_increasing(text):
    cd = cd_of(text)
    rng = random.Random(21)
    for _ in range(20):
        word = tuple(rng.randint(1, cd.n) for _ in range(rng.randint(0, 16)))
        words = reduced_words(word_to_element(word, cd), cd).words
        assert strictly_increasing(words)


def leading_minors(m):
    """Each leading principal minor of m, by elimination over fractions with row swaps."""
    minors = []
    for size in range(1, len(m) + 1):
        work = [[Fraction(v) for v in row[:size]] for row in m[:size]]
        det = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if work[r][col]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det *= work[col][col]
            for r in range(col + 1, size):
                f = work[r][col] / work[col][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        minors.append(det)
    return minors


TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "G2xA1", "B2xG2", "E7xA2", "E6xA3"]
)


@pytest.mark.parametrize("text", TYPES)
def test_cartan_leading_principal_minors_are_positive(text):
    cd = cd_of(text)
    minors = leading_minors(cd.A)
    assert all(d > 0 for d in minors)
    assert minors[-1] == cd.detA
    inv, det = mat_inv(cd.A)
    assert det == cd.detA
    assert cd.adjA == tuple(tuple(det * v for v in row) for row in inv)


def test_mat_inv_zero_pivot_raises():
    with pytest.raises(ZeroDivisionError):
        mat_inv(((0, 1), (1, 0)))
