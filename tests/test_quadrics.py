import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylipse import (
    DimensionMismatchError,
    MalformedFormError,
    NotOnEllipsoidError,
    QuadForm,
    apply_T,
    bilinear,
    build_cartan,
    h_vector,
    parse_type,
    positive_roots,
    primary_form,
    secondary_form,
)
from weylipse.exact import mat_vec
from weylipse.oracles import sphere_identity_holds

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "B2xA1", "E6"]


def cd_of(text):
    return build_cartan(parse_type(text))


def test_primary_form_examples():
    a2 = primary_form(cd_of("A2"))
    assert a2.equation_text() == "x1^2 + x2^2 - x1*x2 - x1 - x2 = 0"
    assert a2.value((0, 0)) == 0
    assert a2.value((1, 1)) == -1

    b2 = primary_form(cd_of("B2"))
    assert b2.equation_text() == "2*x1^2 + x2^2 - 2*x1*x2 - 2*x1 - x2 = 0"
    assert b2.value((1, 0)) == 0
    assert b2.value((1, 3)) == 0


@pytest.mark.parametrize("text", TYPES)
def test_primary_form_structure(text):
    cd = cd_of(text)
    form = primary_form(cd)
    assert form.quad == cd.gram
    assert form.linear == tuple(-k for k in cd.k)
    assert form.constant == 0
    assert form.value((0,) * cd.n) == 0
    assert form.value(cd.two_delta) == 0


@pytest.mark.parametrize("text", TYPES)
def test_secondary_form_trivial_points(text):
    cd = cd_of(text)
    form = secondary_form(cd)
    assert form.value((1,) * cd.n) == 0
    assert form.value((-1,) * cd.n) == 0


def test_secondary_nonmember():
    assert secondary_form(cd_of("A2")).value((-1, 3)) != 0


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_form_identities_random(data):
    cd = cd_of(data.draw(st.sampled_from(TYPES)))
    coords = st.integers(-10, 10)
    x = tuple(data.draw(st.lists(coords, min_size=cd.n, max_size=cd.n)))
    h = tuple(data.draw(st.lists(coords, min_size=cd.n, max_size=cd.n)))
    prim, sec = primary_form(cd), secondary_form(cd)

    # primary polynomial is half the bilinear value <x, x-2delta>
    shifted = tuple(a - b for a, b in zip(x, cd.two_delta))
    assert 2 * prim.value(x) == bilinear(x, shifted, cd)

    # scaled secondary equals -detA <Ainv(1-h), Ainv(1+h)> via the adjugate
    u = mat_vec(cd.adjA, tuple(1 - v for v in h))
    v = mat_vec(cd.adjA, tuple(1 + v for v in h))
    scaled, rem = divmod(bilinear(u, v, cd), cd.detA)
    assert rem == 0
    assert sec.value(h) == -scaled

    # the h-map carries one form onto the other for every x, not only on-quadric
    assert sec.value(h_vector(x, cd)) == 2 * cd.detA * prim.value(x)

    # membership oracle: primary quadric is the sphere around delta through 0
    assert (prim.value(x) == 0) == sphere_identity_holds(x, cd)


def test_h_vector_examples():
    a2 = cd_of("A2")
    assert h_vector((0, 0), a2) == (1, 1)
    assert h_vector((2, 2), a2) == (-1, -1)
    b2 = cd_of("B2")
    assert h_vector((1, 0), b2) == (-1, 3)


@pytest.mark.parametrize("text", TYPES)
def test_graded_roots_lie_on_primary(text):
    cd = cd_of(text)
    form = primary_form(cd)
    for root in positive_roots(cd):
        scaled = tuple(root.grade * c for c in root.coords)
        assert form.value(scaled) == 0
        mirrored = tuple(t - s for t, s in zip(cd.two_delta, scaled))
        assert form.value(mirrored) == 0


def test_apply_T_examples():
    a2 = cd_of("A2")
    assert apply_T(1, (0, 0), a2) == (1, 0)
    assert apply_T(1, (1, 0), a2) == (0, 0)
    b2 = cd_of("B2")
    assert apply_T(2, (1, 0), b2) == (1, 3)
    # (0.0, 0.0) passes the membership identity, but the quadric's points are integral
    for x in [(1, 1), (0.0, 0.0), (1, 0.0), (Fraction(1), 0)]:
        with pytest.raises(NotOnEllipsoidError):
            apply_T(1, x, a2)


def test_malformed_forms_are_refused():
    with pytest.raises(MalformedFormError, match="odd"):
        QuadForm(n=2, quad=((2, 0), (0, 3)), linear=(0, 0), constant=0)
    with pytest.raises(MalformedFormError, match="not symmetric at \\(0, 1\\)"):
        QuadForm(n=2, quad=((2, 1), (0, 2)), linear=(0, 0), constant=0)


def test_wrong_lengths_are_dimension_mismatches():
    a2 = cd_of("A2")
    calls = [
        lambda: primary_form(a2).value((1,)),
        lambda: secondary_form(a2).value((1, 1, 1)),
        lambda: h_vector((0, 0, 0), a2),
        lambda: apply_T(1, (0,), a2),
        lambda: apply_T(3, (0, 0), a2),
        lambda: apply_T(1.0, (0, 0, 0), cd_of("A3")),  # not an index, though in range
    ]
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()


def test_apply_T_fixed_point():
    # (1,1,-1) in B2xA1 has h = (0,1,3): T_1 is the identity there
    cd = cd_of("B2xA1")
    x = (1, 1, -1)
    assert primary_form(cd).value(x) == 0
    assert h_vector(x, cd) == (0, 1, 3)
    assert apply_T(1, x, cd) == x


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_T_involution_walk(data):
    cd = cd_of(data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "B2xA1"])))
    walk = data.draw(st.lists(st.integers(1, cd.n), max_size=12))
    form = primary_form(cd)
    x = (0,) * cd.n
    for i in walk:
        y = apply_T(i, x, cd)
        assert form.value(y) == 0
        assert apply_T(i, y, cd) == x
        assert h_vector(y, cd)[i - 1] == -h_vector(x, cd)[i - 1]
        x = y


@pytest.mark.parametrize(
    "text", ["A1", "A2", "B3", "C3", "D5", "G2", "G2xA1", "F4", "E6", "E8", "E6xA2"]
)
def test_apply_T_membership_matches_primary_form(text):
    # apply_T decides membership by sums over the nonzero coordinates and over
    # the diagram's edges; it must agree with the form on points of a random
    # T-walk, on their unit neighbours and on box points, and step by h_i
    cd = cd_of(text)
    form = primary_form(cd)
    rng = random.Random(7)
    x, seen = (0,) * cd.n, set()
    for _ in range(150):
        j = rng.randrange(cd.n)
        near = x[:j] + (x[j] + rng.choice((-1, 1)),) + x[j + 1 :]
        box = tuple(rng.randint(-1, t + 1) for t in cd.two_delta)
        for p in (x, near, box):
            i = rng.randint(1, cd.n)
            on = form.value(p) == 0
            seen.add(on)
            if on:
                assert apply_T(i, p, cd) == p[: i - 1] + (p[i - 1] + h_vector(p, cd)[i - 1],) + p[i:]
            else:
                with pytest.raises(NotOnEllipsoidError):
                    apply_T(i, p, cd)
        x = apply_T(rng.randint(1, cd.n), x, cd)
    assert seen == {True, False}


@pytest.mark.parametrize("text", ["E8", "E6xA2"])
def test_apply_T_refusals_keep_class_and_message(text):
    cd = cd_of(text)
    n = cd.n
    rng = random.Random(8)
    x = (0,) * n
    for _ in range(40):
        x = apply_T(rng.randint(1, n), x, cd)
    assert any(x) and primary_form(cd).value(x) == 0
    # a coordinate that is not an int is refused, even where its value keeps x on the quadric
    for j in (0, n - 1):
        for v in (float(x[j]), Fraction(x[j]), str(x[j]), None):
            bad = x[:j] + (v,) + x[j + 1 :]
            message = f"{bad} is not an integral primary solution of {text}"
            with pytest.raises(NotOnEllipsoidError) as caught:
                apply_T(1, list(bad), cd)
            assert str(caught.value) == message
    for y in (x[:-1], x + (0,)):
        with pytest.raises(DimensionMismatchError) as caught:
            apply_T(1, y, cd)
        assert str(caught.value) == f"expected {n}-vector, got {len(y)}"
    for i in (0, n + 1, 1.0):
        with pytest.raises(DimensionMismatchError) as caught:
            apply_T(i, x, cd)
        assert str(caught.value) == f"index {i} out of range 1..{n}"
    # a list comes back as a tuple, stepped by h_i
    h = h_vector(x, cd)
    for i in range(1, n + 1):
        y = apply_T(i, list(x), cd)
        assert type(y) is tuple
        assert y == x[: i - 1] + (x[i - 1] + h[i - 1],) + x[i:]
