import hashlib
import time
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylipse import (
    BadIndexSetError,
    CapExceededError,
    DimensionMismatchError,
    InvariantError,
    NotARootError,
    RankOutOfRangeError,
    UnknownFamilyError,
    bilinear,
    build_cartan,
    grade,
    parabolic_order,
    parse_type,
    positive_roots,
    weyl_order,
)
from weylipse.cartan import RootClosure, _root_closure
from weylipse.errors import MAX_RANK
from weylipse.exact import mat_vec

from oracles import fraction_delta, group_order_by_closure, mat_mul, root_closure_by_search

IRREDUCIBLE_LE8 = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(3, 9)]
    + ["D%d" % n for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

PRODUCTS = ["A1xA1", "B2xA1", "B2xG2", "A2xC3"]


def cd_of(text):
    return build_cartan(parse_type(text))


# --- parsing ---


def test_parse_examples():
    assert parse_type("A1").components == (("A", 1),)
    assert parse_type("B2xG2").components == (("B", 2), ("G", 2))
    with pytest.raises(RankOutOfRangeError):
        parse_type("E9")
    with pytest.raises(RankOutOfRangeError):
        parse_type("B1")
    with pytest.raises(RankOutOfRangeError):
        parse_type("C2")
    with pytest.raises(RankOutOfRangeError):
        parse_type("D3")
    with pytest.raises(UnknownFamilyError):
        parse_type("H4")
    with pytest.raises(UnknownFamilyError):
        parse_type("")
    with pytest.raises(UnknownFamilyError):
        parse_type("A2x")


FAMILY_RANKS = {
    "A": st.integers(1, 9),
    "B": st.integers(2, 9),
    "C": st.integers(3, 9),
    "D": st.integers(4, 9),
    "E": st.sampled_from([6, 7, 8]),
    "F": st.just(4),
    "G": st.just(2),
}

component_st = st.sampled_from("ABCDEFG").flatmap(
    lambda fam: st.tuples(st.just(fam), FAMILY_RANKS[fam])
)


@given(st.lists(component_st, min_size=1, max_size=4))
def test_parse_print_round_trip(components):
    spec = parse_type("x".join(f"{f}{r}" for f, r in components))
    assert spec.components == tuple(components)
    assert parse_type(str(spec)) == spec


# --- catalog invariants ---


@pytest.mark.parametrize("text", IRREDUCIBLE_LE8 + PRODUCTS)
def test_cartan_invariants(text):
    cd = cd_of(text)
    n = cd.n
    for i in range(n):
        assert cd.A[i][i] == 2
        for j in range(n):
            if i != j:
                assert cd.A[i][j] in (0, -1, -2, -3)
                assert (cd.A[i][j] == 0) == (cd.A[j][i] == 0)
            assert cd.k[i] * cd.A[i][j] == cd.k[j] * cd.A[j][i]
            assert cd.gram[i][j] == cd.k[i] * cd.A[i][j]
            if i != j and cd.A[i][j] != 0:
                assert cd.links[i][j] == max(cd.k[i], cd.k[j]) == -cd.k[i] * cd.A[i][j]
    delta = fraction_delta(cd.A)
    assert mat_vec(cd.A, delta) == (Fraction(1),) * n
    assert cd.two_delta == tuple(2 * d for d in delta)
    assert mat_mul(cd.adjA, cd.A) == tuple(
        tuple(cd.detA if i == j else 0 for j in range(n)) for i in range(n)
    )


DET_EXPECTED = {
    "A1": 2, "A2": 3, "A3": 4, "A7": 8, "B2": 2, "B8": 2, "C3": 2, "D4": 4,
    "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1, "B2xG2": 2, "A1xA1": 4,
}


@pytest.mark.parametrize("text,det", sorted(DET_EXPECTED.items()))
def test_determinant_catalog(text, det):
    assert cd_of(text).detA == det


def test_build_examples():
    a2 = cd_of("A2")
    assert a2.A == ((2, -1), (-1, 2))
    assert a2.k == (1, 1)
    assert a2.two_delta == (2, 2) == tuple(2 * d for d in fraction_delta(a2.A))
    assert a2.detA == 3

    b2 = cd_of("B2")
    assert b2.A == ((2, -1), (-2, 2))
    assert b2.k == (2, 1)
    assert fraction_delta(b2.A) == (Fraction(3, 2), Fraction(2))
    assert b2.two_delta == (3, 4)
    assert b2.detA == 2

    g2 = cd_of("G2")
    assert g2.k == (1, 3)
    assert g2.links[0][1] == 3
    assert g2.detA == 1


def test_rank_bound_is_checked_before_any_work():
    cd = cd_of(f"A{MAX_RANK}")
    assert cd.n == MAX_RANK
    for text in (f"A{MAX_RANK + 1}", f"A{MAX_RANK}xA1", "A3000", "D10000000000"):
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"exceeding MAX_RANK {MAX_RANK}"):
            cd_of(text)
        assert time.perf_counter() - start < 0.1


def test_a100_adjugate_is_bourbakis_closed_form_and_fast():
    # A_n (Bourbaki, Planche I): adj_ij = min(i, j) (n + 1 - max(i, j)), 1-based
    start = time.perf_counter()
    cd = cd_of("A100")
    assert time.perf_counter() - start < 0.5
    n = 100
    assert cd.detA == n + 1
    assert cd.adjA == tuple(
        tuple(min(i, j) * (n + 1 - max(i, j)) for j in range(1, n + 1)) for i in range(1, n + 1)
    )
    assert cd.two_delta == tuple(i * (n + 1 - i) for i in range(1, n + 1))


# --- bilinear form ---


def test_bilinear_examples():
    a2 = cd_of("A2")
    assert bilinear((1, 0), (1, 0), a2) == 2
    delta = fraction_delta(a2.A)
    assert bilinear(delta, delta, a2) == 2
    b2 = cd_of("B2")
    assert bilinear((1, 0), (0, 1), b2) == -2
    with pytest.raises(DimensionMismatchError):
        bilinear((1, 0, 0), (1, 0), a2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bilinear_positive_definite(data):
    cd = cd_of(data.draw(st.sampled_from(["A3", "B3", "G2", "C4", "B2xA1"])))
    x = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=cd.n, max_size=cd.n)))
    assert bilinear(x, x, cd) >= 0
    if any(x):
        assert bilinear(x, x, cd) > 0


# --- roots and grades ---


def test_positive_roots_small():
    assert {r.coords for r in positive_roots(cd_of("A2"))} == {(1, 0), (0, 1), (1, 1)}
    assert {r.coords for r in positive_roots(cd_of("B2"))} == {
        (1, 0),
        (0, 1),
        (1, 1),
        (1, 2),
    }
    assert len(positive_roots(cd_of("G2"))) == 6


ROOT_COUNTS = {
    "A5": 15, "B5": 25, "C6": 36, "D6": 30, "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6, "B2xG2": 10,
}


@pytest.mark.parametrize("text,count", sorted(ROOT_COUNTS.items()))
def test_positive_root_counts(text, count):
    cd = cd_of(text)
    roots = positive_roots(cd)
    assert len(roots) == count
    for r in roots:
        assert all(c >= 0 for c in r.coords) and any(r.coords)
        assert r.grade >= 1
        assert (r.grade == 1) == (sum(r.coords) == 1)
        assert r.length_sq == bilinear(r.coords, r.coords, cd)


@pytest.mark.parametrize("text", IRREDUCIBLE_LE8 + PRODUCTS + ["E8xA1", "E6xG2"])
def test_root_closure_roots_are_primitive(text):
    # the gcd lookup of ordering.bruhat_from_primary needs every root primitive
    cd = cd_of(text)
    roots = _root_closure(cd).roots
    assert len(roots) == 2 * cd.positive_root_count
    assert all(gcd(*r) == 1 for r in roots)


@pytest.mark.parametrize(
    "text",
    IRREDUCIBLE_LE8 + PRODUCTS + ["E8xA1", "E6xG2", "F4xG2xB3xC3xD4", "A30", "B20", "C30", "D40"],
)
def test_root_closure_matches_the_search_reference(text):
    # the walk over the simple roots' orbits against the seen-dict closure:
    # every root with its length, the positive roots with their grades, and
    # the support bitmasks and heights
    cd = cd_of(text)
    assert _root_closure(cd) == root_closure_by_search(cd)


def test_root_closure_raises_on_a_non_primitive_root(monkeypatch):
    monkeypatch.setattr("weylipse.cartan.gcd", lambda *r: 2)
    with pytest.raises(InvariantError, match="not primitive"):
        _root_closure(cd_of("A2"))


def test_grade_examples():
    a2 = cd_of("A2")
    assert grade((1, 1), a2) == 2
    assert grade((-1, -1), a2) == -2
    assert grade((1, 0), a2) == 1
    b2 = cd_of("B2")
    assert grade((1, 2), b2) == 2
    with pytest.raises(NotARootError):
        grade((2, 0), a2)
    with pytest.raises(NotARootError):
        grade((1, -1), a2)


# --- group orders ---


def test_weyl_order_catalog():
    assert weyl_order(cd_of("A2")) == 6
    assert weyl_order(cd_of("B2")) == 8
    assert weyl_order(cd_of("E8")) == 696729600 == 2**14 * 3**5 * 5**2 * 7
    assert weyl_order(cd_of("E7")) == 2903040
    assert weyl_order(cd_of("E6")) == 51840
    assert weyl_order(cd_of("F4")) == 1152
    assert weyl_order(cd_of("D5")) == 2**4 * factorial(5)
    assert weyl_order(cd_of("B2xG2")) == 8 * 12
    assert weyl_order(cd_of("A9")) == factorial(10)
    assert weyl_order(cd_of("B8")) == weyl_order(cd_of("C8")) == 2**8 * factorial(8)
    assert weyl_order(cd_of("D9")) == 2**8 * factorial(9)
    assert weyl_order(cd_of("E8xA1")) == 2 * 696729600
    assert weyl_order(cd_of("E7xA2")) == 6 * 2903040
    assert weyl_order(cd_of("E6xA3")) == 24 * 51840


def test_parabolic_order_errors():
    cd = cd_of("A3")
    with pytest.raises(BadIndexSetError):
        parabolic_order(cd, [0])
    with pytest.raises(BadIndexSetError):
        parabolic_order(cd, [4])
    assert parabolic_order(cd, []) == 1
    # a root-height product that is not an integer raises InvariantError
    cd.__dict__["root_closure"] = RootClosure(roots={}, positive=(), support_heights=((1, 2),))
    with pytest.raises(InvariantError):
        parabolic_order(cd, [1])


@pytest.mark.parametrize("text", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2", "B2xA1"])
def test_parabolic_orders_match_matrix_closure(text):
    # root-height orders against raw matrix-group closure, every subdiagram
    cd = cd_of(text)
    verts = range(1, cd.n + 1)
    for size in range(cd.n + 1):
        for subset in combinations(verts, size):
            assert parabolic_order(cd, subset) == group_order_by_closure(cd, subset)


# sha256 of repr(sorted((type, subset, parabolic_order(cd, subset)))) over every
# subset, recorded with the Dynkin-shape classifier that the root-height
# product replaced.  Each row reads: digest, type.
ORDER_GOLDENS = """
af5e0ccf02a6273dad5d2aea709db2f8bfee41a16286daa1f6d6bfaabefe569d A9
45f6621642f55904aef2c557e2511c435fb89b0dd1518c2ec3fa9a462f306c65 B8
ccb463edde9e9d8c2f5236c20bc552ab912c5eeeba8581dca68fde9fd2c24ff7 C8
b3af261faef4806968f8e5bfff0b5a829f5416ec64079b8eed85ef023d3583f7 D9
42ea65527f8bb94d1d8088538e4bfeb03ca5b2b1458e6abbd4523bc65130b6f1 E6
6d1bb9896a0823d0d1d8ea6299be75aefc9f2f11b80f6738799d864c310b9632 E7
a1fad1b79098a3c7a6da49a647add8bda3e733e3a5609205f8bcb6348edb6583 E8
a7b37f89254e2bc7a3e2ca35ebb7ffa653f8857ca0876a76c69175275020193b E8xA1
370bd5e93cae1b3c6936f18cb4575b526cc6f292e9a61868774f2207a0b4201e E7xA2
6993f213e1bc9c0c9bdbc1d544a9f54cb6c5a99cce87516523cefb8c3ecd99d2 E6xA3
ce1257303c7b2ddaa4c6b4bb0ff0125dd5838fd52b0affc3faf0c13ec52212c5 F4
96637084c2ffe639b098069c50e2dbfba0c9d66e5ab647366a5827f523710803 G2xA1
"""
ORDER_ROWS = [line.split() for line in ORDER_GOLDENS.strip().splitlines()]


@pytest.mark.parametrize("digest, text", ORDER_ROWS, ids=[text for _, text in ORDER_ROWS])
def test_parabolic_order_golden(digest, text):
    cd = cd_of(text)
    rows = sorted(
        (text, subset, parabolic_order(cd, subset))
        for size in range(cd.n + 1)
        for subset in combinations(range(1, cd.n + 1), size)
    )
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
