"""The records' contracts: field names, positional and keyword construction,
defaults, repr, read-only fields and validation.

Every record is a named tuple, and `CartanData`, `WeylElement` and `QuadForm`
keep their cached properties in an instance dict; `GroupTable` is a plain
class whose cached properties start cold on each new instance.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from weylipse import (
    CartanData,
    GroupTable,
    LieTypeSpec,
    MalformedFormError,
    OrbitRecord,
    Poset,
    QuadForm,
    ReducedWordSet,
    Root,
    WeylElement,
    build_cartan,
    build_group_table,
    expand_orbit,
    parse_type,
    positive_roots,
)
from weylipse.cartan import RootClosure
from weylipse.verify import CheckResult


def cd_of(text):
    return build_cartan(parse_type(text))


# (class, home module, field names, positional values, defaults, repr)
RECORDS = [
    (
        LieTypeSpec,
        "weylipse.cartan",
        ("components",),
        ((("B", 2), ("A", 1)),),
        {},
        "LieTypeSpec(components=(('B', 2), ('A', 1)))",
    ),
    (
        Root,
        "weylipse.cartan",
        ("coords", "grade", "length_sq"),
        ((1, 1), 3, 2),
        {},
        "Root(coords=(1, 1), grade=3, length_sq=2)",
    ),
    (
        RootClosure,
        "weylipse.cartan",
        ("roots", "positive", "support_heights"),
        ({(1,): 2, (-1,): 2}, (Root((1,), 1, 2),), ((1, 1),)),
        {},
        "RootClosure(roots={(1,): 2, (-1,): 2}, "
        "positive=(Root(coords=(1,), grade=1, length_sq=2),), support_heights=((1, 1),))",
    ),
    (
        QuadForm,
        "weylipse.quadrics",
        ("n", "quad", "linear", "constant"),
        (2, ((2, -1), (-1, 2)), (-1, -1), 0),
        {},
        "QuadForm(n=2, quad=((2, -1), (-1, 2)), linear=(-1, -1), constant=0)",
    ),
    (
        OrbitRecord,
        "weylipse.orbits",
        ("h", "minimal", "size", "elements"),
        ((1, 1), (0, 0), 8),
        {"elements": None},
        "OrbitRecord(h=(1, 1), minimal=(0, 0), size=8, elements=None)",
    ),
    (
        Poset,
        "weylipse.ordering",
        ("nodes", "covers", "kind", "ranks"),
        (((0,), (1,)), frozenset({(0, 1)}), "primary"),
        {"ranks": None},
        "Poset(nodes=((0,), (1,)), covers=frozenset({(0, 1)}), kind='primary', ranks=None)",
    ),
    (
        ReducedWordSet,
        "weylipse.ordering",
        ("element", "length", "words"),
        ((1, 1), 2, ((1, 2),)),
        {},
        "ReducedWordSet(element=(1, 1), length=2, words=((1, 2),))",
    ),
    (
        CheckResult,
        "weylipse.verify",
        ("name", "status", "detail"),
        ("root-grades", "PASS"),
        {"detail": ""},
        "CheckResult(name='root-grades', status='PASS', detail='')",
    ),
]


# the records that keep a cached property in an instance dict, and its name
CACHED = {QuadForm: "value"}


@pytest.mark.parametrize(
    "cls, module, fields, values, defaults, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(cls, module, fields, values, defaults, text):
    assert cls.__module__ == module
    assert cls._fields == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, f) for f in fields[: len(values)]) == values
    assert {f: getattr(by_position, f) for f in defaults} == defaults
    assert repr(by_position) == repr(by_keyword) == text
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, f, None)
    cached = CACHED.get(cls)
    if cached is None:
        # a record without cached properties has no instance dict at all
        with pytest.raises(AttributeError):
            by_position.not_a_field = 1
    else:
        # the cached property starts cold on a new instance, and lives in its dict
        fresh = cls(*values)
        assert cached not in vars(fresh)
        got = getattr(fresh, cached)
        assert vars(fresh)[cached] is got is getattr(fresh, cached)


def test_records_with_defaults_take_the_defaulted_field_too():
    rec = OrbitRecord((1, 1), (0, 0), 8, ((0, 0),))
    assert rec.elements == ((0, 0),)
    assert rec._replace(elements=None) == OrbitRecord(h=(1, 1), minimal=(0, 0), size=8)
    assert Poset((), frozenset(), "bruhat_subword", ranks=()).ranks == ()
    assert CheckResult("orbit-seeds", "FAIL", "seed laws broken").detail == "seed laws broken"


def test_cartan_data_contract():
    cd = cd_of("A1")
    assert CartanData.__module__ == "weylipse.cartan"
    assert CartanData._fields == tuple("spec n A k links gram adjA detA two_delta".split())
    assert CartanData(*cd) == CartanData(**cd._asdict()) == cd
    assert repr(cd) == (
        "CartanData(spec=LieTypeSpec(components=(('A', 1),)), n=1, A=((2,),), k=(1,), "
        "links=((0,),), gram=((2,),), adjA=((1,),), detA=2, two_delta=(1,))"
    )
    assert str(cd) == "A1"
    for f in CartanData._fields:
        with pytest.raises(AttributeError):
            setattr(cd, f, None)
    # cached properties start cold on a new instance, and live in its dict
    fresh = CartanData(*cd)
    for name in ("sparse", "ascent"):
        assert name not in vars(fresh)
        got = getattr(fresh, name)
        assert vars(fresh)[name] is got is getattr(fresh, name)


def test_cartan_data_pickles_and_copies_cold_after_its_walks():
    cd = cd_of("B3")
    orbit = expand_orbit((0, 0, 1), cd)
    table = build_group_table(cd)
    roots = positive_roots(cd)
    assert {"ascent", "root_closure", "sparse"} <= set(vars(cd))
    copies = [pickle.loads(pickle.dumps(cd, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.copy(cd), copy.deepcopy(cd)]:
        assert type(twin) is CartanData and twin == cd and vars(twin) == {}
        assert expand_orbit((0, 0, 1), twin) == orbit
        assert build_group_table(twin).elements == table.elements
        assert positive_roots(twin) == roots
        assert twin.ascent is not cd.ascent


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"quad": ((2, 0), (0, 3))}, "quad\\[1\\]\\[1\\] = 3 is odd"),
        ({"quad": ((2, 1), (0, 2))}, "not symmetric"),
        ({"linear": (0,)}, "quad must be 2 by 2 and linear of length 2"),
        ({"quad": ((2, 0, 5), (0, 2, 7))}, "quad must be 2 by 2 and linear of length 2"),
        ({"n": 3}, "quad must be 3 by 3 and linear of length 3"),
        ({"constant": Fraction(1, 2)}, "coefficients of a form must be ints"),
    ],
    ids=["odd-diagonal", "asymmetric", "short-linear", "long-rows", "short-quad", "fraction"],
)
def test_quadform_validates_every_construction(bad, message):
    good = QuadForm(2, ((2, 0), (0, 2)), (0, 0), 0)
    fields = good._asdict() | bad
    with pytest.raises(MalformedFormError, match=message):
        QuadForm(*fields.values())
    with pytest.raises(MalformedFormError, match=message):
        QuadForm(**fields)
    with pytest.raises(MalformedFormError, match=message):
        good._replace(**bad)
    assert good._replace(constant=-1) == QuadForm(2, ((2, 0), (0, 2)), (0, 0), -1)


def test_quadform_pickles_and_copies_after_value():
    form = QuadForm(2, ((2, -1), (-1, 2)), (-1, -1), 0)
    assert form.value((1, 1)) == -1
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(form, proto))
        assert type(back) is QuadForm and back == form and "value" not in vars(back)
        assert back.value((1, 1)) == -1
    for twin in (copy.copy(form), copy.deepcopy(form)):
        assert type(twin) is QuadForm and twin == form and "value" not in vars(twin)
        assert twin.value((2, 1)) == 0


def test_weyl_elements_compare_hash_and_print_by_word_only():
    a2, b2 = cd_of("A2"), cd_of("B2")
    w = WeylElement((1, 2), a2.A)
    same_word = WeylElement(word=(1, 2), A=b2.A)
    assert WeylElement.__module__ == "weylipse.weyl"
    assert WeylElement._fields == ("word", "A")
    assert w == same_word and not w != same_word
    assert hash(w) == hash(same_word)
    assert len({w, same_word}) == 1
    assert w != WeylElement((2, 1), a2.A) and not w == WeylElement((2, 1), a2.A)
    assert repr(w) == repr(same_word) == "WeylElement(word=(1, 2))"
    for f in ("word", "A"):
        with pytest.raises(AttributeError):
            setattr(w, f, None)
    # the matrix is built on first read and cached in the instance dict
    assert "mat" not in vars(w)
    mat = w.mat
    assert vars(w)["mat"] is mat is w.mat
    assert mat != same_word.mat  # the same word over another A


def test_a_new_group_table_starts_cold():
    built = build_group_table(cd_of("B2"))
    warm = (built.nodes, built.index)
    assert {"nodes", "index"} <= set(vars(built))
    table = GroupTable(cd=built.cd, elements=built.elements, order=built.order)
    assert not {"nodes", "index"} & set(vars(table))
    assert (table.nodes, table.index) == warm
    assert table.nodes is not built.nodes
    assert GroupTable.__module__ == "weylipse.weyl"
    assert GroupTable(built.cd, built.elements, built.order).order == 8
    # tables compare by identity
    assert table == table and table != built
    assert repr(table).startswith("GroupTable(cd=CartanData(spec=LieTypeSpec(")
    assert repr(table).endswith(", order=8)")
