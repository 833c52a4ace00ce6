"""Independent oracles used across the test modules.

Everything here deliberately avoids the library's own search/closure code
paths: group orders and the group table come from raw matrix closure,
solution sets from direct box scans, Bruhat comparisons from the permutation
rank-matrix criterion, and descent data from brute-force word search.

The primary box scan, the word search and the reflection matrices come from
`weylipse.oracles`, which `weylipse verify` runs too; it keeps the same rule
(no `primary_form`, no T-moves, no group table), so they stay independent.
"""

from math import isqrt

from weylipse.exact import identity, mat_mul, mat_vec
from weylipse.oracles import (  # noqa: F401  (re-exported for the test modules)
    exhaustive_word_search,
    primary_solutions_by_box_scan,
    reflection_matrices,
)


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
    p = tuple(d - v for d, v in zip(cd.delta, mat_vec(m, cd.delta)))
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
