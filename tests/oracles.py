"""Independent oracles used across the test modules.

Everything here deliberately avoids the library's own search/closure code
paths: group orders and the group table come from raw matrix closure,
solution sets from direct box scans, Bruhat comparisons from the permutation
rank-matrix criterion and from reflections, and descent data from
brute-force word search.

The primary box scan, the word search and the T_i closure come from
`weylipse.oracles`, which `weylipse verify` runs too; it keeps the same rule
(no `primary_form`, no T-moves, no group table, no sparse view of A), so
they stay independent.  The roots come from a search here that closes the
simple roots under the simple reflections with a seen dict, stepping by the
dense columns of A: the reference for `cartan._root_closure`, which lists
them by the orbit walk.  The Bruhat covers by reflections are built here on
those roots and that T_i closure, since only the tests compare against them.

The plain forms of the library's exact kernels are kept here as references
for `test_kernels.py`: pairwise componentwise comparison, the scan over all
positive roots, the box scan that evaluates the polynomial at every point,
a form's value by index loops over its dense matrix (the reference for the
generated `QuadForm.value`), the primary box and the sphere test over
fractions, the word search by dense products, the Hasse diagram by the union
of the down sets of the nodes below, the subword intervals by a walk over
each whole word from the identity (its left multiples by the dense rows of
A, not the T-walk), and the T-walk, the matrix of a word and descent
stripping by dense index loops over whole rows and columns of A, the
diagonal read from A, so they check the kernels' rule that a step negates
its own coordinate too.  So is
the ascent walk that tests every coordinate of every point against the step
rule, collecting the descents in the same scan.  The census search in its
plain form is here too: the interval-pruned DFS over the coordinates in
index order, whose solutions come out in lexicographic order with no axis
order, no memo of the last two coordinates or of a factor, and no sort.
The Cartan inverse in its plain form is here as well: Gauss-Jordan over
Fractions, the reference for the integer adjugate, determinant and 2 delta
that `cartan.build_cartan` assembles per component, and the source of every
Fraction delta here.  The matrix product lives here too: only the tests
multiply two matrices.
"""

from fractions import Fraction
from functools import cache
from math import isqrt
from operator import mul

from weylipse.cartan import Root, RootClosure, bilinear
from weylipse.errors import DimensionMismatchError, InvariantError
from weylipse.exact import identity, mat_vec
from weylipse.oracles import (  # noqa: F401  (re-exported for the test modules)
    exhaustive_word_search,
    orbit_by_closure,
    primary_box,
    primary_solutions_by_box_scan,
)


def mat_mul(a, b):
    """The matrix product of two tuples of row tuples."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def reflection_matrices(cd):
    """s_1, ..., s_n as matrices: row i of the identity minus row i of A."""
    return simple_reflections(cd.A)


def simple_reflections(A):
    """`reflection_matrices` over any square matrix A."""
    n = len(A)
    out = []
    for i in range(n):
        m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for c in range(n):
            m[i][c] -= A[i][c]
        out.append(tuple(tuple(row) for row in m))
    return out


# --- the plain kernels that the library's exact kernels replaced ---


def mat_inv(m):
    """Inverse and determinant by Gauss-Jordan over exact fractions, with no row swap.

    The pivots are ratios of leading principal minors, all positive for a
    Cartan matrix diag(k)^-1 gram; a zero pivot raises ZeroDivisionError.
    """
    n = len(m)
    work = [
        [Fraction(m[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    det = Fraction(1)
    for col in range(n):
        pivot = work[col][col]
        det *= pivot
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    inv = tuple(tuple(row[n:]) for row in work)
    return inv, det


@cache
def fraction_delta(A):
    """delta = A^-1 (1, ..., 1), the half sum of the positive roots, over
    fractions from `mat_inv` (A a tuple of row tuples)."""
    inv, _ = mat_inv(A)
    return mat_vec(inv, (Fraction(1),) * len(A))


def primary_box_over_fractions(cd):
    """`primary_box` as it read over fractions: r_i^2 = <delta, delta> (A^-1)_ii / k_i,
    with A^-1 and delta from `mat_inv`, and r_i = floor(sqrt) + 1 taken on the
    reduced fraction."""
    inv, _ = mat_inv(cd.A)
    delta = mat_vec(inv, (Fraction(1),) * cd.n)
    c = sum(k * d for k, d in zip(cd.k, delta))
    lo, hi = [], []
    for i in range(cd.n):
        rad_sq = c * inv[i][i] / cd.k[i]
        r = isqrt(rad_sq.numerator * rad_sq.denominator) // rad_sq.denominator + 1
        lo.append(int(delta[i]) - r)
        hi.append(int(delta[i]) + r + 1)
    return lo, hi


def componentwise_down_sets(nodes):
    """Bitmask per node of the nodes componentwise below it, by pairwise comparison
    (nodes sorted, so a componentwise smaller node comes earlier)."""
    return [
        sum(1 << i for i in range(j) if all(x <= y for x, y in zip(nodes[i], b)))
        for j, b in enumerate(nodes)
    ]


def is_positive_root_multiple_by_scan(diff, roots):
    """diff = (d0 / r0) * root with d0 / r0 > 0, cross-multiplied at the root's
    pivot, tried against every positive root."""
    for root in roots:
        pivot = next(i for i, c in enumerate(root.coords) if c)
        d0, r0 = diff[pivot], root.coords[pivot]
        if d0 * r0 > 0 and all(d * r0 == d0 * c for d, c in zip(diff, root.coords)):
            return True
    return False


def primary_solutions_by_pointwise_scan(cd):
    """All integral primary solutions, sorted, evaluating the polynomial afresh at
    every point of `primary_box`."""
    n = cd.n
    lo, hi = primary_box(cd)
    links = [(i, j, cd.links[i][j]) for i in range(n) for j in range(i + 1, n) if cd.links[i][j]]
    found = []
    point = [0] * n

    def value(x):
        # sum k_i (x_i^2 - x_i) - sum_links l_ij x_i x_j, written out directly
        total = sum(k * (v * v - v) for k, v in zip(cd.k, x))
        return total - sum(w * x[i] * x[j] for i, j, w in links)

    def rec(i):
        if i == n:
            if value(point) == 0:
                found.append(tuple(point))
            return
        for v in range(lo[i], hi[i] + 1):
            point[i] = v
            rec(i + 1)

    rec(0)
    return sorted(found)


def quad_form_value_by_loops(form, x):
    """`QuadForm.value` as the index loops it was before it was generated: over
    the nonzero x_i, the square and linear terms, then the nonzero quad_ij, j > i."""
    if len(x) != form.n:
        raise DimensionMismatchError(f"expected {form.n}-vector, got {len(x)}")
    n = form.n
    total = form.constant
    for i in range(n):
        xi = x[i]
        if not xi:  # every term with x_i as a factor vanishes
            continue
        row = form.quad[i]
        total += (row[i] // 2) * xi * xi + form.linear[i] * xi
        for j in range(i + 1, n):
            if row[j]:
                total += row[j] * xi * x[j]
    return total


def sphere_identity_over_fractions(x, cd):
    """<x - delta, x - delta> == <delta, delta> with delta as fractions."""
    delta = fraction_delta(cd.A)
    centered = tuple(Fraction(xi) - di for xi, di in zip(x, delta))
    return bilinear(centered, centered, cd) == bilinear(delta, delta, cd)


def root_closure_by_search(cd):
    """The `cartan._root_closure` of cd: the simple roots closed under the
    simple reflections with a seen dict, no walk and no sparse view of A.

    Each root carries its pairings A r; s_i r = r - p e_i for p = (A r)_i, and
    the pairings move by p times the dense column i of A.  A root keeps the
    squared length of the simple root it came from, as s_i preserves length;
    a grade is 2 <r, delta> / <r, r>, with <r, delta> = r . (gram delta) over
    the Fraction delta.
    """
    n, A = cd.n, cd.A
    roots, work = {}, []
    for i in range(n):
        r = tuple(int(i == j) for j in range(n))
        roots[r] = cd.gram[i][i]
        work.append((r, tuple(row[i] for row in A)))
    while work:
        r, pairings = work.pop()
        for i, p in enumerate(pairings):
            if p:
                s = r[:i] + (r[i] - p,) + r[i + 1 :]
                if s not in roots:
                    roots[s] = roots[r]
                    work.append((s, tuple(q - p * row[i] for q, row in zip(pairings, A))))
    gram_delta = mat_vec(cd.gram, fraction_delta(A))
    positive = []
    for r in sorted(r for r in roots if min(r) >= 0):
        g = 2 * sum(map(mul, r, gram_delta)) / roots[r]
        if g.denominator != 1:
            raise InvariantError(f"grade of {r} is {g}")
        positive.append(Root(r, int(g), roots[r]))
    return RootClosure(
        roots=roots,
        positive=tuple(positive),
        support_heights=tuple(
            (sum(1 << i for i, c in enumerate(r.coords) if c), sum(r.coords)) for r in positive
        ),
    )


def bruhat_covers_by_reflections(cd):
    """Bruhat covers of W as pairs of P-vectors, from reflections (Bjorner-Brenti
    Def. 2.1.1 and the chain property, Thm 2.2.6): u < s_a u is a cover exactly
    when l(s_a u) = l(u) + 1.

    The nodes are the T_i closure of the origin.  With x = delta - P(w) = w delta,
    <x, a^v> = 2 (x, a) / (a, a) is negative exactly when w^-1 a is, so l(w)
    counts the positive roots a with (2x, a) < 0, and
    P(s_a w) = P(w) + (grade a - <P(w), a^v>) a = P(w) + <x, a^v> a.
    A pairing that is not an integer, or a reflection that leaves the closure,
    raises InvariantError.
    """
    roots = [r.coords for r in root_closure_by_search(cd).positive]
    norms = [bilinear(a, a, cd) for a in roots]
    two_delta = cd.two_delta
    nodes = orbit_by_closure((0,) * cd.n, cd)
    pairings, lengths = {}, {}
    for p in nodes:
        # gram (2x), so that (2x, a) is one dot product per root
        g = mat_vec(cd.gram, tuple(t - 2 * v for t, v in zip(two_delta, p)))
        pairs = [sum(gi * ai for gi, ai in zip(g, a)) for a in roots]
        pairings[p] = pairs
        lengths[p] = sum(1 for b in pairs if b < 0)
    covers = set()
    for p in nodes:
        for a, norm, b in zip(roots, norms, pairings[p]):
            # b = (2x, a) and <x, a^v> = 2 (x, a) / (a, a) = b / (a, a)
            q = tuple(v + b // norm * c for v, c in zip(p, a))
            if b % norm or q not in lengths:
                raise InvariantError(
                    f"reflecting {p} in root {a} of {cd.spec} leaves the main orbit"
                )
            if lengths[q] == lengths[p] + 1:
                covers.add((p, q))
    return covers


def word_search_by_dense_products(cd, max_len):
    """`exhaustive_word_search` with each word extended by a full product with
    the reflection matrix."""
    gens = reflection_matrices(cd)
    two_delta = cd.two_delta
    best = {}

    def visit(mat, word):
        p = tuple((t - v) // 2 for t, v in zip(two_delta, mat_vec(mat, two_delta)))
        depth = len(word)
        if p not in best or depth < best[p][0]:
            best[p] = (depth, {word[0]} if word else set(), {word})
        elif depth == best[p][0]:
            if word:
                best[p][1].add(word[0])
            best[p][2].add(word)
        if depth == max_len:
            return
        for g in range(cd.n):
            visit(mat_mul(mat, gens[g]), word + (g + 1,))

    visit(identity(cd.n), ())
    return best


def ascend_by_full_scan(minimal, h, cd, visit=None):
    """The ascent walk of `cartan.ascend` with every coordinate of every point
    tested: each i with h_i > 0 is a step unless some descent k < i of x, collected
    in the same scan, stays one (h_k < h_i A_ki).  Same stack, push order and
    ``visit(x, i, y)`` calls."""
    A = cd.A
    _, cols = cd.sparse
    points = [tuple(minimal)]
    stack = [(points[0], list(h))]
    while stack:
        x, h = stack.pop()
        descents = []
        for i, hi in enumerate(h):
            if hi < 0:
                descents.append(i)
            elif hi:
                for k in descents:
                    if h[k] < hi * A[k][i]:
                        break
                else:
                    y = x[:i] + (x[i] + hi,) + x[i + 1 :]
                    points.append(y)
                    if visit is not None:
                        visit(x, i, y)
                    g = h.copy()
                    g[i] = -hi
                    for k, a in cols[i]:
                        g[k] -= hi * a
                    stack.append((y, g))
    return points


def t_walk_by_index_loops(word, start, A):
    """T_{i1}(... T_{ik}(start)) over any square matrix A: T_i adds
    1 - sum_j A_ij p_j to p_i, summed over every j, the diagonal included."""
    n = len(A)
    p = list(start)
    for i in reversed(word):
        r = i - 1
        total = 0
        for j in range(n):
            total += A[r][j] * p[j]
        p[r] += 1 - total
    return tuple(p)


def word_matrix_by_dense_products(word, A):
    """s_{i1} s_{i2} ... over any square matrix A, multiplied left to right with
    `mat_mul` over the dense `simple_reflections`."""
    gens = simple_reflections(A)
    m = identity(len(A))
    for i in word:
        m = mat_mul(m, gens[i - 1])
    return m


def strip_descents_by_index_loops(x, A, steps):
    """(end, h(end), letters k + 1 applied) for T_k at the smallest k with h_k < 0,
    where h = 1 - A x is recomputed over every entry after each step; None if a
    descent is left after ``steps`` steps."""
    n = len(A)
    cur, word = list(x), []
    for _ in range(steps + 1):
        h = [1 - sum(A[i][j] * cur[j] for j in range(n)) for i in range(n)]
        descents = [k for k in range(n) if h[k] < 0]
        if not descents:
            return tuple(cur), tuple(h), word
        k = descents[0]
        cur[k] += h[k]
        word.append(k + 1)
    return None


def hasse_by_shadows(down):
    """Covers (u, w) of a strict order given by down[w], the bitmask of the nodes
    below w: the nodes below w that lie below no other node below w, found by
    OR-ing the down set of every node below w."""
    covers = set()
    for w, below in enumerate(down):
        shadow, rest = 0, below
        while rest:
            low = rest & -rest
            shadow |= down[low.bit_length() - 1]
            rest ^= low
        rest = below & ~shadow
        while rest:
            low = rest & -rest
            covers.add((low.bit_length() - 1, w))
            rest ^= low
    return covers


def subword_down_sets_by_words(table):
    """Bitmask per node of the products of the proper subwords of its table word,
    collected from the identity: read right to left, each letter s_i adds its
    left multiple of every product so far.  The left multiples come from the
    dense rows of A, T_i x = x + (1 - (A x)_i) e_i, as in `orbit_by_closure`."""
    index = table.index
    lmul = [
        [index[x[:i] + (x[i] + 1 - sum(map(mul, row, x)),) + x[i + 1 :]] for x in table.nodes]
        for i, row in enumerate(table.cd.A)
    ]
    identity_idx = index[(0,) * table.cd.n]
    down = []
    for w_idx, p in enumerate(table.nodes):
        reachable = {identity_idx}
        for letter in reversed(table.elements[p].word):
            reachable |= {lmul[letter - 1][u] for u in reachable}
        reachable.discard(w_idx)
        down.append(sum(1 << u for u in reachable))
    return down


def mulclose(mats):
    """Closure of a set of matrices under multiplication (the generated group)."""
    mats = list(mats)
    seen = set(mats)
    frontier = list(mats)
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def group_table_by_matrix_closure(cd):
    """The group as {P-vector: (word, matrix)} by breadth-first closure of the
    identity under raw right multiplication by the reflection matrices.  Each
    matrix keeps the first word that reached it; P = delta - w delta is
    evaluated over fractions."""
    gens = reflection_matrices(cd)
    first = {identity(cd.n): ()}
    frontier = [identity(cd.n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g, gen in enumerate(gens):
                prod = mat_mul(m, gen)
                if prod not in first:
                    first[prod] = first[m] + (g + 1,)
                    nxt.append(prod)
        frontier = nxt
    table = {pvector_of_matrix(m, cd): (word, m) for m, word in first.items()}
    assert len(table) == len(first)
    return table


def pvector_of_matrix(m, cd):
    """P = delta - m delta, evaluated over fractions and asserted integral."""
    delta = fraction_delta(cd.A)
    p = tuple(d - v for d, v in zip(delta, mat_vec(m, delta)))
    assert all(v.denominator == 1 for v in p)
    return tuple(int(v) for v in p)


def group_order_by_closure(cd, indices=None):
    """|<s_i : i in indices>| by raw closure; indices 1-based, default all."""
    if indices is None:
        indices = range(1, cd.n + 1)
    gens = [reflection_matrices(cd)[i - 1] for i in indices]
    if not gens:
        return 1
    return len(mulclose(gens + [identity(cd.n)]))


def secondary_nonneg_by_box_scan(cd):
    """Nonnegative integral secondary solutions by plain nested-loop scanning."""
    n = cd.n
    g = [[cd.k[i] * cd.adjA[i][j] for j in range(n)] for i in range(n)]
    c = sum(g[i][j] for i in range(n) for j in range(n))
    his = [isqrt(c // g[i][i]) + 1 for i in range(n)]
    found = []
    h = [0] * n

    def rec(i):
        if i == n:
            if sum(g[a][b] * h[a] * h[b] for a in range(n) for b in range(n)) == c:
                found.append(tuple(h))
            return
        for v in range(his[i] + 1):
            h[i] = v
            rec(i + 1)

    rec(0)
    return sorted(found)


def secondary_nonneg_by_lex_dfs(g, c):
    """All h >= 0 with sum_ij g_ij h_i h_j == c for an entrywise nonnegative g.

    The coordinates are searched in index order, each over the closed-form
    range (isqrt(s^2 + g_ii b) - s) // g_ii that budget b and cross term s
    leave, and the last one is the one nonnegative root of its quadratic; every
    coordinate counts up, so the solutions come out in lexicographic order.
    """
    n = len(g)
    last = n - 1
    if last == 0:
        v = isqrt(c // g[0][0])
        return [(v,)] if g[0][0] * v * v == c else []
    g_last = g[last][last]
    out = []
    h = [0] * n
    cross = [0] * n  # cross[j] = sum over fixed i of g_ij h_i

    def rec(depth, budget):
        gi = g[depth][depth]
        s = cross[depth]
        top = (isqrt(s * s + gi * budget) - s) // gi
        if depth == last - 1:
            s_last, g_cross = cross[last], g[depth][last]
            for v in range(top + 1):
                rest = budget - gi * v * v - 2 * s * v
                s_v = s_last + g_cross * v
                disc = s_v * s_v + g_last * rest
                r = isqrt(disc)
                if r * r == disc and not (r - s_v) % g_last:
                    h[depth] = v
                    out.append((*h[:last], (r - s_v) // g_last))
            h[depth] = 0
            return
        for v in range(top + 1):
            h[depth] = v
            if v:
                for j in range(depth + 1, n):
                    cross[j] += g[depth][j] * v
            rec(depth + 1, budget - gi * v * v - 2 * s * v)
            if v:
                for j in range(depth + 1, n):
                    cross[j] -= g[depth][j] * v
        h[depth] = 0

    rec(0, c)
    return out


def reachability_by_dfs(covers, size):
    """Ordered pairs (a, b) with b reachable from a over at least one cover, by a
    depth-first search from every node; node order plays no part."""
    up = [[] for _ in range(size)]
    for a, b in covers:
        up[a].append(b)
    pairs = set()
    for start in range(size):
        stack = list(up[start])
        seen = set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                pairs.add((start, v))
                stack.extend(up[v])
    return pairs


# --- Bruhat order on A3 via permutations and the rank-matrix criterion ---


def a3_bruhat_pairs(table):
    """Ordered pairs (u, w) of P-vectors with u < w in Bruhat order, computed
    through the symmetric-group realization: the table words are mapped to
    products of adjacent transpositions and compared by the dominance of
    rank matrices, the textbook criterion."""
    transpositions = []
    for i in range(3):
        q = list(range(1, 5))
        q[i], q[i + 1] = q[i + 1], q[i]
        transpositions.append(tuple(q))

    def compose(u, v):
        return tuple(u[v[x] - 1] for x in range(4))

    def perm_of(word):
        r = (1, 2, 3, 4)
        for letter in word:
            r = compose(r, transpositions[letter - 1])
        return r

    def bruhat_le(u, w):
        for i in range(1, 5):
            for j in range(1, 5):
                if sum(1 for a in range(i) if u[a] >= j) > sum(
                    1 for a in range(i) if w[a] >= j
                ):
                    return False
        return True

    perms = {p: perm_of(table.elements[p].word) for p in table.nodes}
    assert len(set(perms.values())) == 24
    return {
        (a, b)
        for a in table.nodes
        for b in table.nodes
        if a != b and bruhat_le(perms[a], perms[b])
    }


# --- E8 dominant-vector count in euclidean coordinates ---


def e8_dominant_count_euclid(norm_doubled=2480):
    """Number of dominant E8 lattice vectors u with <u,u> = norm_doubled/4,
    counted in euclidean coordinates, entirely independent of any Cartan-matrix
    code.  Doubled coordinates y = 2u are all-even or all-odd integer 8-tuples
    with sum(y) = 0 mod 4; dominance against the standard simple roots reads
    y1 <= ... <= y7, y1 + y2 >= 0, y1 + y8 >= y2 + ... + y7.
    """
    count = 0
    ys = [0] * 7

    def rec(k, smin, sq, ssum, parity):
        nonlocal count
        if k == 7:
            rem = norm_doubled - sq
            if rem < 0:
                return
            r = isqrt(rem)
            if r * r != rem:
                return
            for y8 in {r, -r}:
                if (y8 & 1) != parity or (ssum + y8) % 4 != 0:
                    continue
                if ys[0] + y8 < ssum - ys[0]:
                    continue
                count += 1
            return
        hi = isqrt(norm_doubled - sq)
        y = smin if (smin & 1) == parity else smin + 1
        while y <= hi:
            future = (6 - k) * (y * y if y > 0 else 0)
            if sq + y * y + future <= norm_doubled:
                if not (k == 1 and ys[0] + y < 0):
                    ys[k] = y
                    rec(k + 1, y, sq + y * y, ssum + y, parity)
        # bump by 2 to preserve parity
            y += 2
        ys[k] = 0

    for parity in (0, 1):
        hi0 = isqrt(norm_doubled)
        y1 = -hi0 if ((-hi0) & 1) == parity else -hi0 + 1
        while y1 <= hi0:
            ys[0] = y1
            rec(1, y1, y1 * y1, y1, parity)
            y1 += 2
    return count
