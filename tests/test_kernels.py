"""Each exact kernel of the checking paths against the plain code it replaced.

The references live in `oracles.py`: pairwise componentwise comparison,
the cross-multiplied scan over every positive root, the box scan that
evaluates the primary polynomial at every point, the sphere test over
fractions, the word search by dense matrix products, index-loop row
products, membership through `primary_form` / `secondary_form`, the Hasse
diagram by shadows, the subword intervals by a walk over each word and the
covers by reflections (against the covers walked from the table parent's),
and the T-walk, the matrix of a word and descent stripping by dense index
loops over whole rows of A, against the kernels that read the sparse view of
A, the Cartan inverse by Gauss-Jordan over Fractions against the integer
adjugate assembled per component, the primary box over Fractions against its
integer bounds, P and the action of a word on any vector by the word's
reflections against the dense matrix product, the census search (axis
order, the last two coordinates solved once per budget and cross terms, the
factor memo, stepped differences, one sort) against the plain lexicographic
DFS, the minimal vector x_h solved along the Dynkin forest against the
whole product divided by detA, the ascent walk that reads each point's h
only up to its first descent against the walk that tests every coordinate,
h = 1 - A x over the sparse rows against the dense row sums, and the sort by
one stable pass per coordinate against `sorted`.
"""

import random
from fractions import Fraction
from operator import mul, sub

import pytest

from weylipse import (
    InvariantError,
    NotASolutionError,
    NotOnEllipsoidError,
    P_map,
    bilinear,
    build_cartan,
    build_group_table,
    enumerate_secondary_nonneg,
    expand_orbit,
    h_vector,
    orbit_seeds,
    orbit_size,
    parse_type,
    positive_roots,
    primary_form,
    secondary_form,
)
from weylipse import cartan, ordering
from weylipse.cartan import _strip_descents, _t_step, _t_walk, ascend, sparse_cartan
from weylipse.exact import mat_vec
from weylipse.ordering import (
    _componentwise_down,
    _hasse,
    _is_positive_root_multiple,
    bruhat_from_primary,
    bruhat_from_subwords,
    primary_poset,
)
from weylipse.orbits import _dfs_nonneg, _forest_plan, _integral_minimal
from weylipse.oracles import sphere_identity_holds
from weylipse.quadrics import _lex_sort, _twice_primary
from weylipse.weyl import WeylElement

from oracles import (
    ascend_by_full_scan,
    bruhat_covers_by_reflections,
    componentwise_down_sets,
    exhaustive_word_search,
    fraction_delta,
    hasse_by_shadows,
    is_positive_root_multiple_by_scan,
    mat_inv,
    mat_mul,
    primary_box,
    primary_box_over_fractions,
    primary_solutions_by_box_scan,
    primary_solutions_by_pointwise_scan,
    secondary_nonneg_by_lex_dfs,
    sphere_identity_over_fractions,
    strip_descents_by_index_loops,
    subword_down_sets_by_words,
    t_walk_by_index_loops,
    word_matrix_by_dense_products,
    word_search_by_dense_products,
)


def cd_of(text):
    return build_cartan(parse_type(text))


# --- row products ---


def test_row_products_match_index_loops():
    rng = random.Random(9)
    for n in (1, 2, 3, 5, 8):
        for _ in range(20):
            a = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            b = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            assert mat_vec(a, v) == tuple(sum(row[j] * v[j] for j in range(n)) for row in a)
            assert mat_mul(a, b) == tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
            )


@pytest.mark.parametrize("text", ["A1", "B3", "G2xA1", "F4", "E8"])
def test_bilinear_and_h_vector_match_index_loops(text):
    cd = cd_of(text)
    n = cd.n
    rng = random.Random(10)
    for _ in range(50):
        x = tuple(rng.randint(-20, 20) for _ in range(n))
        y = tuple(rng.randint(-20, 20) for _ in range(n))
        assert bilinear(x, y, cd) == sum(
            x[i] * cd.gram[i][j] * y[j] for i in range(n) for j in range(n)
        )
        assert h_vector(x, cd) == tuple(
            1 - sum(cd.A[i][j] * x[j] for j in range(n)) for i in range(n)
        )
    # <delta, delta> = sum_i k_i delta_i, since gram delta = k
    delta = fraction_delta(cd.A)
    assert bilinear(delta, delta, cd) == sum(k * d for k, d in zip(cd.k, delta))


# --- Cartan data: an integer adjugate per component ---

CARTAN_TYPES = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(2, 11)]
    + [f"C{n}" for n in range(3, 11)]
    + [f"D{n}" for n in range(4, 11)]
    + ["E6", "E7", "E8", "F4", "G2", "E8xA1", "E7xA2", "E6xA3", "B2xG2", "A1xA1xA1"]
)


@pytest.mark.parametrize("text", CARTAN_TYPES)
def test_integer_cartan_data_matches_fraction_inverse(text):
    cd = cd_of(text)
    inv, det = mat_inv(cd.A)
    delta = mat_vec(inv, (Fraction(1),) * cd.n)
    assert type(cd.detA) is int and cd.detA == det
    assert all(type(v) is int for row in cd.adjA for v in row)
    assert cd.adjA == tuple(tuple(det * v for v in row) for row in inv)
    assert all(type(v) is int for v in cd.two_delta)
    assert cd.two_delta == tuple(2 * d for d in delta)
    # 2 <delta, delta> as the box oracle reads it, from the integer fields
    assert sum(k * t for k, t in zip(cd.k, cd.two_delta)) == 2 * bilinear(delta, delta, cd)


def wrong_adjugate(fault):
    real = cartan._adjugate

    def kernel(m):
        adj, det = real(m)
        if fault == "entry":
            adj[0][-1] += 1
        elif fault == "negative":
            adj[0][0] = -adj[0][0]
        elif fault == "det":
            det += 1
        else:  # A adj = det I still holds, but det is not the catalog's
            adj, det = [[2 * v for v in row] for row in adj], 2 * det
        return adj, det

    return kernel


# the first check that each fault trips; a B component comes first in both types
FAULT_MESSAGES = {
    "entry": "A adjA != detA I",
    "negative": "negative entry",
    "det": r"det A of B\d in",
    "scaled": r"det A of B\d in",
}


@pytest.mark.parametrize("text", ["B3", "B2xG2"])
@pytest.mark.parametrize("fault", list(FAULT_MESSAGES))
def test_a_wrong_adjugate_or_det_raises(monkeypatch, text, fault):
    monkeypatch.setattr(cartan, "_adjugate", wrong_adjugate(fault))
    with pytest.raises(InvariantError, match=FAULT_MESSAGES[fault]):
        cd_of(text)


# --- one sparse step: T-walk, word matrix, descent stripping ---

STEP_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B3", "C3", "D4", "G2", "F4", "E6", "E8", "G2xA1", "B2xA1"
]

def random_words(cd, rng, count, longest):
    return [
        tuple(rng.randint(1, cd.n) for _ in range(rng.randint(0, longest))) for _ in range(count)
    ]


@pytest.mark.parametrize("name", STEP_TYPES)
def test_sparse_view_rebuilds_the_matrix(name):
    cd = cd_of(name)
    rows, cols = cd.sparse
    n = cd.n
    from_rows = [[0] * n for _ in range(n)]
    from_cols = [[0] * n for _ in range(n)]
    for i in range(n):
        from_rows[i][i] = from_cols[i][i] = 2
        for j, a in rows[i]:
            assert a and j != i
            from_rows[i][j] = a
        for k, a in cols[i]:
            assert a and k != i
            from_cols[k][i] = a
    assert from_rows == from_cols == [list(row) for row in cd.A]
    assert cd.sparse == sparse_cartan(cd.A)
    assert max(map(len, rows + cols)) <= 3
    # every step writes A_ii = 2 as a sign change, so any other diagonal is refused
    for i in range(n):
        for diagonal in (0, 1, 3):
            bad = [list(row) for row in cd.A]
            bad[i][i] = diagonal
            with pytest.raises(InvariantError, match=f"diagonal entry {i + 1} .* is {diagonal}"):
                sparse_cartan(tuple(map(tuple, bad)))


@pytest.mark.parametrize("name", STEP_TYPES)
def test_sparse_t_walk_matches_index_loops(name):
    cd = cd_of(name)
    rng = random.Random(16)
    starts = [(0,) * cd.n] + [tuple(rng.randint(-5, 5) for _ in range(cd.n)) for _ in range(9)]
    rows, _ = cd.sparse
    for word in random_words(cd, rng, 30, 40):
        for start in starts[:3]:
            assert _t_walk(word, start, rows) == t_walk_by_index_loops(word, start, cd.A)
    for start in starts:
        for i in range(1, cd.n + 1):
            assert _t_walk((i,), start, rows) == t_walk_by_index_loops((i,), start, cd.A)


@pytest.mark.parametrize("name", STEP_TYPES)
def test_sparse_word_matrix_matches_dense_products(name):
    cd = cd_of(name)
    rng = random.Random(17)
    for word in random_words(cd, rng, 25, 24):
        assert WeylElement(word, cd.A).mat == word_matrix_by_dense_products(word, cd.A)


@pytest.mark.parametrize("name", STEP_TYPES)
def test_sparse_descent_stripping_matches_index_loops(name):
    cd = cd_of(name)
    rng = random.Random(18)
    origin = (0,) * cd.n
    # main-orbit points, and arbitrary integer points on and off the quadric; a
    # Cartan matrix strips every one of them within |Phi+| steps
    starts = [t_walk_by_index_loops(word, origin, cd.A) for word in random_words(cd, rng, 40, 40)]
    starts += [tuple(rng.randint(-4, 4) for _ in range(cd.n)) for _ in range(40)]
    for x in starts:
        expected = strip_descents_by_index_loops(x, cd.A, cd.positive_root_count)
        assert expected is not None
        assert _strip_descents(x, h_vector(x, cd), cd) == expected
    # the step bound still holds the walk: P(w0) = 2 delta takes |Phi+| steps,
    # one more than a bound of |Phi+| - 1 allows
    short = cd._replace()
    vars(short)["positive_root_count"] = cd.positive_root_count - 1
    with pytest.raises(InvariantError, match=r"descent after \|Phi\+\| steps"):
        _strip_descents(cd.two_delta, h_vector(cd.two_delta, cd), short)


def test_link_filter_tests_each_difference_once(monkeypatch):
    calls = []
    real = ordering._is_positive_root_multiple
    def counted(diff, roots):
        calls.append(diff)
        return real(diff, roots)

    monkeypatch.setattr(ordering, "_is_positive_root_multiple", counted)
    cd = cd_of("D4")
    table = build_group_table(cd)
    filtered = ordering.bruhat_from_primary(table)
    nodes, covers, roots = table.nodes, primary_poset(table).covers, cd.root_closure.roots
    diff = {(a, b): tuple(y - x for x, y in zip(nodes[a], nodes[b])) for a, b in covers}
    assert len(calls) == len(set(calls)) < len(covers)
    assert set(calls) == set(diff.values())
    assert filtered.covers == {c for c in covers if real(diff[c], roots)}


# --- componentwise order by bitsets ---


def strict(down):
    """The oracles' masks from down sets: each node's own bit cleared."""
    return [mask & ~(1 << w) for w, mask in enumerate(down)]


@pytest.mark.parametrize("text", ["A4", "B4", "C3", "D4", "G2xA1", "F4"])
def test_componentwise_masks_match_pairwise_comparison(text):
    table = build_group_table(cd_of(text))
    down = _componentwise_down(table.nodes)
    assert down == [mask | 1 << w for w, mask in enumerate(componentwise_down_sets(table.nodes))]
    # the order is transitive, so its Hasse diagram gives the masks back
    assert primary_poset(table).down_masks() == down


# --- Hasse diagrams by peeling, subword covers from the parent's ---

POSET_TYPES = ["A3", "B3", "C3", "D4", "G2xA1", "F4"]


@pytest.mark.parametrize("text", POSET_TYPES)
def test_peeled_covers_match_shadows(text):
    table = build_group_table(cd_of(text))
    down = _componentwise_down(table.nodes)
    covers = _hasse(down)
    assert len(covers) == len(set(covers))
    assert set(covers) == hasse_by_shadows(strict(down))


SUBWORD_TYPES = "A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C3 D4 D5 F4 G2 G2xA1 B2xA1".split()


@pytest.mark.parametrize("text", SUBWORD_TYPES)
def test_parent_covers_match_two_oracles(text):
    # the intervals by whole words on small groups, and the reflections on all
    cd = cd_of(text)
    table = build_group_table(cd)
    poset = bruhat_from_subwords(table)
    if table.order <= 2000:
        assert poset.covers == hasse_by_shadows(subword_down_sets_by_words(table))
    vectors = sorted((poset.nodes[a], poset.nodes[b]) for a, b in poset.covers)
    assert len(vectors) == len(set(vectors))
    assert set(vectors) == bruhat_covers_by_reflections(cd)


@pytest.mark.parametrize("text", SUBWORD_TYPES)
def test_link_filter_keeps_the_root_multiple_covers(text):
    # one pass over the componentwise covers, against the scan over every root
    cd = cd_of(text)
    table = build_group_table(cd)
    nodes, roots = table.nodes, positive_roots(cd)
    filtered = bruhat_from_primary(table).covers
    assert filtered == {
        (a, b)
        for a, b in primary_poset(table).covers
        if is_positive_root_multiple_by_scan(tuple(map(sub, nodes[b], nodes[a])), roots)
    }
    # never a spurious cover, and no lost one at rank at most 2
    subword = bruhat_from_subwords(table).covers
    assert filtered <= subword
    if cd.n <= 2:
        assert filtered == subword


def test_peeled_covers_match_shadows_on_random_closed_dags():
    # each node's down set is itself and the down sets of random earlier nodes,
    # so the masks are transitively closed and node order extends the order
    rng = random.Random(15)
    for size in (1, 2, 5, 20, 60, 200):
        for density in (0.02, 0.1, 0.3, 0.7):
            down = []
            for w in range(size):
                mask = 1 << w
                for u in range(w):
                    if rng.random() < density:
                        mask |= down[u]
                down.append(mask)
            covers = _hasse(down)
            assert len(covers) == len(set(covers))
            assert set(covers) == hasse_by_shadows(strict(down))


# --- root multiples by gcd ---


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "F4"])
def test_gcd_root_lookup_matches_scan_on_every_cover(text):
    cd = cd_of(text)
    poset = primary_poset(build_group_table(cd))
    roots, scanned = cd.root_closure.roots, positive_roots(cd)
    kept = 0
    for a, b in poset.covers:
        diff = tuple(y - x for x, y in zip(poset.nodes[a], poset.nodes[b]))
        found = _is_positive_root_multiple(diff, roots)
        assert found == is_positive_root_multiple_by_scan(diff, scanned)
        kept += found
    assert 0 < kept < len(poset.covers)


@pytest.mark.parametrize("text", ["A3", "B3", "G2", "F4"])
def test_gcd_root_lookup_matches_scan_off_the_covers(text):
    # multiples of either sign, the zero vector and random vectors
    cd = cd_of(text)
    roots, scanned = cd.root_closure.roots, positive_roots(cd)
    rng = random.Random(11)
    cases = [(0,) * cd.n]
    for root in scanned:
        cases += [tuple(m * c for c in root.coords) for m in (-3, -1, 1, 2, 5)]
    cases += [tuple(rng.randint(-3, 3) for _ in range(cd.n)) for _ in range(300)]
    for diff in cases:
        assert _is_positive_root_multiple(diff, roots) == is_positive_root_multiple_by_scan(
            diff, scanned
        )


# --- box scan by partial sums ---


@pytest.mark.parametrize("text", ["A1", "A3", "B3", "C3", "G2xA1", "B2xA1", "A4", "D4"])
def test_partial_sum_box_scan_matches_pointwise_scan(text):
    cd = cd_of(text)
    assert primary_solutions_by_box_scan(cd) == primary_solutions_by_pointwise_scan(cd)


# --- primary box in integers ---

BOX_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "G2xA1", "B2xA1", "E8xA1"]
)


@pytest.mark.parametrize("text", BOX_TYPES)
def test_integer_primary_box_matches_fraction_box(text):
    cd = cd_of(text)
    assert primary_box(cd) == primary_box_over_fractions(cd)


# --- sphere oracle in integers ---


@pytest.mark.parametrize("text", ["A1", "A3", "B3", "C3", "G2", "D4", "F4", "B2xA1", "E6"])
def test_integer_sphere_matches_fraction_sphere(text):
    cd = cd_of(text)
    prim = primary_form(cd)
    rng = random.Random(12)
    points = [tuple(rng.randint(-8, 8) for _ in range(cd.n)) for _ in range(300)]
    two_delta = tuple(int(2 * d) for d in fraction_delta(cd.A))
    on = expand_orbit((0,) * cd.n, cd)[:100] + [two_delta]
    points += on
    for x in points:
        assert sphere_identity_holds(x, cd) == sphere_identity_over_fractions(x, cd)
    assert all(sphere_identity_holds(x, cd) for x in on)
    assert any(not sphere_identity_holds(x, cd) for x in points)
    assert all(sphere_identity_holds(x, cd) == (prim.value(x) == 0) for x in points)


# --- word search by sparse row updates ---


@pytest.mark.parametrize(
    "text,length",
    [("A2", 3), ("A3", 4), ("A3", 6), ("B2xA1", 5), ("B3", 5), ("G2", 6), ("G2xA1", 7)],
)
def test_sparse_word_search_matches_dense_products(text, length):
    cd = cd_of(text)
    assert exhaustive_word_search(cd, length) == word_search_by_dense_products(cd, length)


# --- membership tests of orbit_size and expand_orbit ---


@pytest.mark.parametrize("text", ["A2", "B3", "C3", "G2xA1", "F4"])
def test_orbit_size_membership_matches_secondary_form(text):
    cd = cd_of(text)
    sec = secondary_form(cd)
    rng = random.Random(13)
    cases = [tuple(rng.randint(0, 6) for _ in range(cd.n)) for _ in range(300)]
    cases += [(1,) * cd.n, (0,) * cd.n]
    solutions = 0
    for h in cases:
        if sec.value(h) == 0:
            solutions += 1
            assert orbit_size(h, cd) >= 1
        else:
            with pytest.raises(NotASolutionError):
                orbit_size(h, cd)
    assert solutions >= 1


@pytest.mark.parametrize("text", ["A2", "B3", "G2xA1", "F4"])
def test_expand_orbit_membership_matches_primary_form(text):
    cd = cd_of(text)
    prim = primary_form(cd)
    rng = random.Random(14)
    on = 0
    for _ in range(200):
        x = tuple(rng.randint(-2, 3) for _ in range(cd.n))
        if prim.value(x) == 0:
            on += 1
            assert x in expand_orbit(x, cd)
        else:
            with pytest.raises(NotOnEllipsoidError):
                expand_orbit(x, cd)
    assert on >= 1


# --- per-element queries on one vector: P and w v by the T-walk, the
# (P, h) step of the reduced-word recursion ---

P_TYPES = ["A1", "A5", "B4", "C3", "D5", "E6", "E8", "F4", "G2", "G2xA1", "E6xA2"]


@pytest.mark.parametrize("name", P_TYPES)
def test_p_map_matches_dense_matrix_product(name):
    cd = cd_of(name)
    rng = random.Random(19)
    two_delta = cd.two_delta
    # half the point of the first-word check in `reduced_words`
    regular = mat_vec(cd.adjA, range(1, cd.n + 1))
    rows, _ = cd.sparse
    for word in [()] + random_words(cd, rng, 40, 3 * cd.positive_root_count):
        w = WeylElement(word, cd.A)
        dense = word_matrix_by_dense_products(word, cd.A)
        twice = tuple(t - v for t, v in zip(two_delta, mat_vec(dense, two_delta)))
        assert all(v % 2 == 0 for v in twice)
        p = P_map(w, cd)
        assert p == tuple(v // 2 for v in twice)
        # T_w is affine with linear part w: T_w(v) - P(w) = w v
        for v in (two_delta, regular, tuple(rng.randint(-9, 9) for _ in range(cd.n))):
            assert tuple(map(sub, _t_walk(word, v, rows), p)) == mat_vec(dense, v)


@pytest.mark.parametrize("name", STEP_TYPES)
def test_t_step_matches_t_walk_and_h_vector(name):
    cd = cd_of(name)
    rng = random.Random(20)
    for _ in range(60):
        x = tuple(rng.randint(-5, 5) for _ in range(cd.n))
        i = rng.randrange(cd.n)
        y = t_walk_by_index_loops((i + 1,), x, cd.A)
        assert _t_step(i, x, h_vector(x, cd), cd) == (y, h_vector(y, cd))


@pytest.mark.parametrize("name", STEP_TYPES + ["B2xG2", "E8xA1", "A30", "D40"])
def test_twice_primary_matches_primary_form(name):
    # squares over the nonzero coordinates and cross terms over each edge of the
    # diagram once, against the form's sum over the whole upper triangle of gram
    cd = cd_of(name)
    n = cd.n
    assert [(j, m) for j, m, _ in cd.edges] == [
        (j, m) for j in range(n) for m in range(j + 1, n) if cd.gram[j][m]
    ]
    form = primary_form(cd)
    rng = random.Random(21)
    for bound in (1, 5, 10**6):
        for _ in range(40):
            x = tuple(rng.choice((0, rng.randint(-bound, bound))) for _ in range(n))
            assert _twice_primary(x, cd) == 2 * form.value(x)
        x = tuple(rng.randint(-bound, bound) or 1 for _ in range(n))
        assert _twice_primary(x, cd) == 2 * form.value(x)


# --- census search: factor by factor, tightest axes first, the last two
# coordinates once per (budget, cross terms), each factor once per budget, one
# sort ---

CENSUS_FAMILIES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "D6", "E6", "E7", "F4", "G2",
]
CENSUS_BENCH = ["A9", "B8", "C8", "D9", "E8", "E8xA1", "E7xA2", "E6xA3"]
CENSUS_PRODUCTS = ["A1xE8", "A2xE7", "A2xA2xA2", "G2xB3xA2", "A1xA1xA1xA1"]
# products whose factors' g_ii interleave, so only the factor-by-factor order
# gives their boundaries
CENSUS_INTERLEAVED = ["A3xA3", "B3xB3", "D4xD4", "A2xE6"]
CENSUS_RANK10 = ["A10", "D10"]


@pytest.mark.parametrize(
    "text",
    CENSUS_FAMILIES + CENSUS_BENCH + CENSUS_PRODUCTS + CENSUS_INTERLEAVED + CENSUS_RANK10,
)
def test_census_search_matches_lexicographic_dfs(text):
    form = secondary_form(cd_of(text))
    g = [[q // 2 for q in row] for row in form.quad]
    assert _dfs_nonneg(g, -form.constant) == secondary_nonneg_by_lex_dfs(g, -form.constant)


def random_block_diagonal(rng, sizes, diag=6, coupling=3):
    """A symmetric nonnegative g, zero off the diagonal blocks of the given sizes,
    with g_ii in 2..diag and couplings in 0..coupling."""
    n = sum(sizes)
    g = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            g[i][i] = rng.randint(2, diag)
            for j in range(i + 1, start + size):
                g[i][j] = g[j][i] = rng.randint(0, coupling)
        start += size
    return g


# (sizes, g_ii up to, couplings up to, h up to, c up to, draws).  The sixth input
# has entries and budgets large enough that the stepped differences run into the
# thousands.  The single blocks after it, with g_ii <= 3 and couplings <= 1, reach
# the same (budget, cross terms) state of the last two coordinates under many
# prefixes.  The last pair crosses a factor boundary with zero coupling after
# (5, 1) and (2, 1), and is a whole factor after (4, 2) and (1, 2); n = 2 and
# n = 3 leave no coordinate, or one, before the pair.
BLOCK_CASES = [
    ((2, 1, 3, 1), 6, 3, 2, 40, 30),
    ((3, 1, 2), 6, 3, 2, 40, 30),
    ((1, 2, 1), 6, 3, 2, 40, 30),
    ((2, 2, 1), 6, 3, 2, 40, 30),
    ((1, 1, 3, 1, 2), 6, 3, 2, 40, 30),
    ((3, 1), 60, 20, 20, 10**5, 8),
    ((3,), 3, 1, 3, 40, 30),
    ((6,), 3, 1, 2, 60, 30),
    ((8,), 3, 1, 1, 60, 20),
    ((5, 1), 4, 2, 2, 40, 30),
    ((4, 2), 4, 2, 2, 40, 30),
    ((2,), 6, 3, 4, 60, 30),
    ((1, 1), 6, 3, 4, 60, 30),
    ((2, 1), 6, 3, 3, 40, 30),
    ((1, 2), 6, 3, 3, 40, 30),
]


@pytest.mark.parametrize(
    "sizes, diag, coupling, h_max, c_max, draws",
    BLOCK_CASES,
    ids=[f"sizes{k}" for k in range(len(BLOCK_CASES))],
)
def test_census_search_matches_lexicographic_dfs_on_random_blocks(
    sizes, diag, coupling, h_max, c_max, draws
):
    rng = random.Random(21)
    n = sum(sizes)
    found = 0
    for _ in range(draws):
        g = random_block_diagonal(rng, sizes, diag, coupling)
        h = [rng.randint(0, h_max) for _ in range(n)]
        on = sum(g[i][j] * h[i] * h[j] for i in range(n) for j in range(n))
        for c in (on, on + rng.randint(1, 9), rng.randint(0, c_max)):
            expected = secondary_nonneg_by_lex_dfs(g, c)
            assert _dfs_nonneg(g, c) == expected
            found += len(expected)
    assert found > 0


# --- minimal vectors along the Dynkin forest ---

# every catalog type to rank 8 (B and C put the double bond's short end on
# opposite sides, G2 has the triple bond, D and E a branch node), products,
# and rank 12
FOREST_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
    + CENSUS_PRODUCTS
    + CENSUS_INTERLEAVED
    + ["A12", "C12", "D12"]
)


def test_integral_minimal_matches_dense_product():
    """Every census row, and random vectors with negative entries, whose remainders
    fall on start leaves and on divided steps."""
    rng = random.Random(24)
    for text in FOREST_TYPES:
        cd = cd_of(text)
        plan = _forest_plan(cd)
        randoms = [tuple(rng.randint(-5, 5) for _ in range(cd.n)) for _ in range(200)]
        integral = fractional = 0
        for h in enumerate_secondary_nonneg(cd) + randoms:
            x = [divmod(v, cd.detA) for v in mat_vec(cd.adjA, tuple(1 - v for v in h))]
            expected = None if any(r for _, r in x) else tuple(q for q, _ in x)
            assert _integral_minimal(h, plan, cd.detA) == expected, (text, h)
            integral += expected is not None
            fractional += expected is None
        assert integral, text
        assert (fractional > 0) == (cd.detA > 1), text


@pytest.mark.parametrize(
    "text, starts",
    [("A1", 1), ("A2", 1), ("A9", 1), ("B2", 1), ("B7", 1), ("C3", 1), ("C9", 1), ("F4", 1)]
    + [("G2", 1), ("D4", 2), ("D9", 2), ("E6", 2), ("E7", 2), ("E8", 2)]
    + [("A1xA1xA1xA1", 4), ("G2xB3xA2", 3), ("A2xE7", 3), ("D4xD4", 4), ("E8xA1", 3)],
)
def test_forest_plan_reads_one_adja_row_per_leaf_but_one(text, starts):
    cd = cd_of(text)
    got, steps = _forest_plan(cd)
    assert len(got) == starts
    # every coordinate is read once or solved once
    assert sorted([i for i, _, _ in got] + [p for p, *_ in steps]) == list(range(cd.n))


@pytest.mark.parametrize(
    "A",
    [
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # a triangle: no leaf
        ((2, -1, -1, 0), (-1, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -1, 2)),  # a triangle and a leaf
        # an edge, then a triangle
        ((2, -1, 0, 0, 0), (-1, 2, 0, 0, 0))
        + ((0, 0, 2, -1, -1), (0, 0, -1, 2, -1), (0, 0, -1, -1, 2)),
    ],
    ids=["triangle", "triangle-with-leaf", "edge-and-triangle"],
)
def test_forest_plan_refuses_a_diagram_with_a_cycle(A):
    cd = cd_of(f"A{len(A)}")._replace(A=A)
    with pytest.raises(InvariantError, match="has a cycle"):
        _forest_plan(cd)


# --- ascent walk: each point's h read up to its first descent ---

WALK_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2",
    "G2xA1", "B2xA1", "B2xG2",
]


def walk_with_steps(walk, rec, cd):
    steps = []
    points = walk(rec.minimal, rec.h, cd, lambda x, i, y: steps.append((x, i, y)))
    return points, steps


def assert_same_walk(rec, cd):
    points, steps = walk_with_steps(ascend, rec, cd)
    assert (points, steps) == walk_with_steps(ascend_by_full_scan, rec, cd)
    assert len(points) == rec.size
    assert ascend(rec.minimal, rec.h, cd) == points


@pytest.mark.parametrize("text", WALK_TYPES)
def test_first_descent_walk_matches_full_scan(text):
    cd = cd_of(text)
    for rec in orbit_seeds(cd):
        assert_same_walk(rec, cd)


def test_first_descent_walk_matches_full_scan_e6():
    cd = cd_of("E6")
    seeds = orbit_seeds(cd)
    main = next(r for r in seeds if r.h == (1,) * cd.n)
    other = next(r for r in seeds if r.size == 12960)
    for rec in (main, other):
        assert_same_walk(rec, cd)


# --- h = 1 - A x over the sparse rows ---


@pytest.mark.parametrize("text", WALK_TYPES + ["E8", "A100"])
def test_sparse_h_vector_matches_dense_rows(text):
    cd = cd_of(text)
    rng = random.Random(22)
    for _ in range(40):
        x = tuple(rng.randint(-50, 50) for _ in range(cd.n))
        assert h_vector(x, cd) == tuple(1 - sum(map(mul, row, x)) for row in cd.A)


# --- orbit lists sorted by one stable pass per coordinate ---


def test_lex_sort_matches_sorted_on_e6_orbit_with_negative_coordinates():
    cd = cd_of("E6")
    rec = next(r for r in orbit_seeds(cd) if r.size == 12960 and min(r.minimal) < 0)
    points = ascend(rec.minimal, rec.h, cd)
    assert min(map(min, points)) < 0
    expected = sorted(points)
    random.Random(23).shuffle(points)
    _lex_sort(points, cd.n)
    assert points == expected
    assert expand_orbit(rec.minimal, cd) == expected
