import ast
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from weylipse import (
    CapExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotInMainOrbitError,
    P_map,
    S_map,
    apply_T,
    build_cartan,
    build_group_table,
    element_from_pvector,
    expand_orbit,
    h_vector,
    p_alpha_b,
    parse_type,
    positive_roots,
    star,
    weyl_order,
    word_to_element,
)
from weylipse.exact import identity

from oracles import (
    group_table_by_matrix_closure,
    mat_mul,
    mulclose,
    pvector_of_matrix,
    reflection_matrices,
)

ENGINE_TYPES = ["A1", "A2", "A3", "A4", "B3", "C3", "G2", "D4", "F4", "B2xA1"]


def cd_of(text):
    return build_cartan(parse_type(text))


def table_of(text):
    return build_group_table(cd_of(text))


# --- simple reflections and words ---


def test_simple_reflection_examples():
    a2 = cd_of("A2")
    assert word_to_element((1,), a2).mat == ((-1, 1), (0, 1))
    b2 = cd_of("B2")
    assert word_to_element((2,), b2).mat == ((1, 0), (2, -1))
    for i in (1, 2):
        s = word_to_element((i,), b2).mat
        assert mat_mul(s, s) == identity(2)
    with pytest.raises(IndexOutOfRangeError):
        word_to_element((3,), a2)
    with pytest.raises(IndexOutOfRangeError):
        word_to_element((0,), a2)


def test_word_products_and_braids():
    a2 = cd_of("A2")
    assert word_to_element([], a2).mat == identity(2)
    assert word_to_element([1, 2, 1], a2).mat == word_to_element([2, 1, 2], a2).mat
    b2 = cd_of("B2")
    assert word_to_element([1, 2, 1, 2], b2).mat == word_to_element([2, 1, 2, 1], b2).mat
    assert word_to_element([1, 2, 1], b2).mat != word_to_element([2, 1, 2], b2).mat
    g2 = cd_of("G2")
    assert (
        word_to_element([1, 2] * 3, g2).mat == word_to_element([2, 1] * 3, g2).mat
    )
    with pytest.raises(IndexOutOfRangeError):
        word_to_element([1, 7], a2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_words_preserve_form_and_satisfy_s_identity(data):
    cd = cd_of(data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "C3", "B2xA1"])))
    word = data.draw(st.lists(st.integers(1, cd.n), max_size=10))
    w = word_to_element(word, cd)
    m = w.mat
    assert mat_mul(tuple(zip(*m)), mat_mul(cd.gram, m)) == cd.gram
    p = P_map(w, cd)
    assert S_map(w, cd) == h_vector(p, cd)


# --- P and S maps ---


def test_p_s_examples():
    b2 = cd_of("B2")
    assert P_map(word_to_element([], b2), b2) == (0, 0)
    assert S_map(word_to_element([], b2), b2) == (1, 1)
    assert P_map(word_to_element((1,), b2), b2) == (1, 0)
    assert S_map(word_to_element((1,), b2), b2) == (-1, 3)
    w0 = word_to_element([1, 2, 1, 2], b2)
    assert P_map(w0, b2) == (3, 4) == b2.two_delta
    assert S_map(w0, b2) == (-1, -1)


def test_p_of_simple_reflection_is_basis_vector():
    for text in ["A3", "B3", "G2", "F4"]:
        cd = cd_of(text)
        for i in range(1, cd.n + 1):
            expected = tuple(1 if j == i - 1 else 0 for j in range(cd.n))
            assert P_map(word_to_element((i,), cd), cd) == expected


@pytest.mark.parametrize(
    "error, call",
    [
        # A2's matrix under the type A1xA1 allows |Phi+| = 2 steps, yet its
        # 2 delta = (2, 2), the P-vector of w0, needs 3 to strip
        (
            "InvariantError",
            "element_from_pvector((2, 2), "
            "build_cartan(parse_type('A2'))._replace(spec=parse_type('A1xA1')))",
        ),
        ("MalformedFormError", "QuadForm(n=1, quad=((1,),), linear=(0,), constant=0)"),
    ],
    ids=["element_from_pvector", "QuadForm"],
)
def test_p_map_check_survives_optimized_mode(error, call):
    import weylipse

    src = os.path.dirname(os.path.dirname(weylipse.__file__))
    code = (
        f"from weylipse import {error}, QuadForm, build_cartan, element_from_pvector, parse_type\n"
        "try:\n"
        f"    print({call})\n"
        f"except {error}:\n"
        "    print('raised')\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


# --- group table ---


@pytest.mark.parametrize("text", ENGINE_TYPES)
def test_table_matches_matrix_closure(text):
    cd = cd_of(text)
    table = build_group_table(cd)
    got = {p: (w.word, w.mat) for p, w in table.elements.items()}
    assert got == group_table_by_matrix_closure(cd)


@pytest.mark.parametrize("text", ENGINE_TYPES)
def test_left_multiplication_is_T(text):
    # P(s_g w) = T_g(P(w)), which the subword covers are walked by: T_g permutes
    # the table, and sends P(w) to P_map of the word (g,) + word(w)
    cd = cd_of(text)
    table = build_group_table(cd)
    for g in range(1, cd.n + 1):
        images = [apply_T(g, p, cd) for p in table.nodes]
        assert sorted(images) == list(table.nodes)
        for p, q in zip(table.nodes, images):
            assert q == P_map(word_to_element((g,) + table.elements[p].word, cd), cd)


@pytest.mark.parametrize(
    "text,order",
    [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48), ("D4", 192)],
)
def test_table_order_and_keys(text, order):
    cd = cd_of(text)
    table = build_group_table(cd)
    assert table.order == order == weyl_order(cd)
    assert list(table.nodes) == expand_orbit((0,) * cd.n, cd)
    svecs = [S_map(table.elements[p], cd) for p in table.nodes]
    assert len(set(svecs)) == order
    assert sorted(svecs) == sorted(h_vector(x, cd) for x in table.nodes)
    # exactly one element has a nonnegative S-vector: the identity
    nonneg = [p for p, s in zip(table.nodes, svecs) if all(v >= 0 for v in s)]
    assert nonneg == [(0,) * cd.n]


def test_table_words_are_geodesic():
    cd = cd_of("B3")
    table = build_group_table(cd)
    closure = mulclose(reflection_matrices(cd) + [identity(3)])
    assert {table.elements[p].mat for p in table.nodes} == closure
    for p in table.nodes:
        w = table.elements[p]
        assert word_to_element(w.word, cd).mat == w.mat


def test_table_builds_no_matrix():
    cd = cd_of("D4")
    table = build_group_table(cd)
    assert not any("mat" in vars(w) for w in table.elements.values())
    w = table.elements[cd.two_delta]
    assert w.mat == word_to_element(w.word, cd).mat and "mat" in vars(w)


def _package_imports(path):
    """The weylipse modules imported by the module at ``path``, as (names, tree)."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weylipse"):
            names.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            names |= {a.name.partition(".")[2] for a in node.names if a.name.startswith("weylipse.")}
    return names, tree


def test_oracles_import_nothing_from_weyl():
    # the oracles check weyl's P_map, the quadrics' T-moves and primary form, the
    # orbit walk and the orders, so none of those may reach them, even indirectly
    import weylipse.oracles

    package = os.path.dirname(weylipse.oracles.__file__)
    direct, tree = _package_imports(weylipse.oracles.__file__)
    assert direct == {"cartan", "exact"}
    reached, todo = set(), list(direct)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_package_imports(os.path.join(package, name + ".py"))[0])
    assert reached.isdisjoint({"weyl", "quadrics", "orbits", "ordering"})
    nodes = list(ast.walk(tree))
    used = {n.id for n in nodes if isinstance(n, ast.Name)}
    used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert used.isdisjoint({"primary_form", "secondary_form", "QuadForm", "apply_T", "ascend", "_t_walk"})


def test_table_cap():
    with pytest.raises(CapExceededError):
        build_group_table(cd_of("E8"))
    with pytest.raises(CapExceededError):
        build_group_table(cd_of("A3"), cap=10)


# --- star ---


def test_star_examples():
    table = table_of("A2")
    assert star((0, 0), (2, 1), table) == (2, 1)
    assert star((1, 0), (1, 0), table) == (0, 0)
    assert star((1, 0), (0, 1), table) == (2, 1)
    with pytest.raises(NotInMainOrbitError):
        star((5, 5), (0, 0), table)


def test_star_and_p_alpha_b_reject_an_unhashable_coordinate():
    table = table_of("A2")
    for a, b in [(([0], 0), (0, 0)), ((0, 0), (0, [0]))]:
        with pytest.raises(NotInMainOrbitError):
            star(a, b, table)
    root = positive_roots(table.cd)[0]
    with pytest.raises(NotInMainOrbitError):
        p_alpha_b(root, ([0], 0), table)


@pytest.mark.parametrize("text", ["A2", "B2", "G2"])
def test_star_group_axioms_exhaustive(text):
    table = table_of(text)
    nodes = table.nodes
    zero = (0,) * table.cd.n
    prod = {(a, b): star(a, b, table) for a in nodes for b in nodes}
    for a in nodes:
        assert prod[(zero, a)] == a and prod[(a, zero)] == a
        assert any(prod[(a, b)] == zero for b in nodes)
    for a in nodes:
        for b in nodes:
            for c in nodes:
                assert prod[(prod[(a, b)], c)] == prod[(a, prod[(b, c)])]


@pytest.mark.parametrize("text", ["A3", "G2", "B2xA1"])
def test_star_matches_matrix_product(text):
    cd = cd_of(text)
    table = build_group_table(cd)
    closure = group_table_by_matrix_closure(cd)
    for a, (_, ma) in closure.items():
        for b, (_, mb) in closure.items():
            assert star(a, b, table) == pvector_of_matrix(mat_mul(ma, mb), cd)
    with pytest.raises(NotInMainOrbitError):
        star((0,) * cd.n, (5,) * cd.n, table)


# --- the transferred multiple identity ---


def test_p_alpha_b_examples():
    a2 = cd_of("A2")
    table = build_group_table(a2)
    roots = {r.coords: r for r in positive_roots(a2)}
    assert p_alpha_b(roots[(1, 0)], (0, 0), table) == 1
    assert p_alpha_b(roots[(1, 1)], (0, 0), table) == 2
    assert p_alpha_b(roots[(1, 0)], (0, 1), table) == 2
    assert p_alpha_b(roots[(1, 1)], (2, 2), table) == -2


@pytest.mark.parametrize("text", ["A2", "B2", "G2"])
def test_p_alpha_b_nonzero_integer_everywhere(text):
    cd = cd_of(text)
    table = build_group_table(cd)
    for root in positive_roots(cd):
        for b in table.nodes:
            p = p_alpha_b(root, b, table)
            assert isinstance(p, int) and p != 0
            if b == (0,) * cd.n:
                assert p == root.grade


# --- inverting P without a table ---


@pytest.mark.parametrize("text", ["A3", "B3", "B2xA1"])
def test_element_from_pvector_round_trip(text):
    cd = cd_of(text)
    table = build_group_table(cd)
    for p in table.nodes:
        w = element_from_pvector(p, cd)
        assert w.mat == table.elements[p].mat
        assert P_map(w, cd) == p
        assert len(w.word) == len(table.elements[p].word)


def test_element_from_pvector_rejects_junk():
    cd = cd_of("A2")
    with pytest.raises(NotInMainOrbitError):
        element_from_pvector((5, 5), cd)
    with pytest.raises(NotInMainOrbitError):
        element_from_pvector((1, 1), cd)  # h(1,1) = (0,0): no descent, yet not the origin
    with pytest.raises(NotInMainOrbitError):
        element_from_pvector((1, 0.0), cd)
    with pytest.raises(DimensionMismatchError):
        element_from_pvector((1,), cd)
    # the length is checked first, then integrality, before h is computed
    for junk in [("a", 0), (None, 0), ([0], 0)]:
        with pytest.raises(NotInMainOrbitError):
            element_from_pvector(junk, cd)
    with pytest.raises(DimensionMismatchError):
        element_from_pvector((None,), cd)
