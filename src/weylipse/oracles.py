"""Brute-force oracles shared by `verify` and the test suite, independent of
the code they check: a box scan with the primary quadric written out term by
term from k and the links, carried as one partial sum per coordinate (no
`primary_form`); membership as the sphere identity around delta (no
`primary_form`, no h); matrix products of the reduced words up to a length,
level by level, each product extended by the sparse s_g as a row update, with
their own P-vectors (no T-moves, no group table, nothing from `weyl`); the
closure of a point under every T_i with a set of seen points (no h carried, no
ascent rule); and the Bruhat covers by reflections, from that closure and the
pairings with the coroots (no words, no group table, no Hasse routine).  They
import only `cartan` and `exact`, and step by the dense rows of A, not by
`CartanData.sparse`."""

from __future__ import annotations

from math import isqrt

# InvariantError through cartan, which imports it, so that this module's
# imports stay `cartan` and `exact`
from .cartan import CartanData, InvariantError, bilinear, positive_roots
from .exact import identity, mat_vec


def primary_box(cd: CartanData) -> tuple[list[int], list[int]]:
    """Inclusive bounds (lo, hi) of a box holding every integral primary solution.

    |x_i - delta_i| <= r_i with r_i^2 = <delta,delta> (gram^-1)_ii, the exact
    axis bound of the sphere <x - delta, x - delta> = <delta, delta>.
    """
    c = cd.delta_norm_sq
    lo, hi = [], []
    for i in range(cd.n):
        rad_sq = c * cd.Ainv[i][i] / cd.k[i]
        r = isqrt(rad_sq.numerator * rad_sq.denominator) // rad_sq.denominator + 1
        lo.append(int(cd.delta[i]) - r)
        hi.append(int(cd.delta[i]) + r + 1)
    return lo, hi


def primary_solutions_by_box_scan(cd: CartanData) -> list[tuple[int, ...]]:
    """All integral primary solutions, sorted, by scanning `primary_box`.

    The polynomial sum_i k_i (x_i^2 - x_i) - sum_{i<j} l_ij x_i x_j is summed
    one coordinate at a time: fixing x_i = v adds k_i (v^2 - v) - s_i v, where
    s_i = sum_{j<i} l_ji x_j over the coordinates already fixed.
    """
    n, k = cd.n, cd.k
    lo, hi = primary_box(cd)
    earlier = [[(j, cd.links[j][i]) for j in range(i) if cd.links[j][i]] for i in range(n)]
    last = n - 1
    found = []  # in lexicographic order, since every coordinate counts up
    point = [0] * last

    def rec(i, acc):
        s = sum(w * point[j] for j, w in earlier[i])
        ki = k[i]
        if i == last:
            for v in range(lo[i], hi[i] + 1):
                if acc + ki * (v * v - v) - s * v == 0:
                    found.append((*point, v))
            return
        for v in range(lo[i], hi[i] + 1):
            point[i] = v
            rec(i + 1, acc + ki * (v * v - v) - s * v)

    rec(0, 0)
    return found


def sphere_identity_holds(x, cd: CartanData) -> bool:
    """Membership in the primary quadric as <x - delta, x - delta> == <delta, delta>.

    Tested at twice the scale, <2x - 2 delta, 2x - 2 delta> == <2 delta, 2 delta>,
    so that every entry is an integer.
    """
    two_delta = cd.two_delta
    centered = tuple(2 * xi - t for xi, t in zip(x, two_delta))
    return bilinear(centered, centered, cd) == bilinear(two_delta, two_delta, cd)


def orbit_by_closure(a, cd: CartanData) -> list[tuple[int, ...]]:
    """The orbit of a, sorted: every T_i of every point found, until none is new."""
    seen = {tuple(a)}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for i, row in enumerate(cd.A):
            y = x[:i] + (x[i] + 1 - sum(c * v for c, v in zip(row, x)),) + x[i + 1 :]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def bruhat_covers_by_reflections(cd: CartanData) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
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
    roots = [r.coords for r in positive_roots(cd)]
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


def exhaustive_word_search(cd: CartanData, max_len: int):
    """All reduced words up to max_len over the generators, multiplied out as matrices.

    Level by level: the words of one length are grouped by their product, and
    a product is extended by each s_g on the right.  A product first reached
    at a shorter length is dropped: its words are not reduced, and neither is
    any extension of them, since every prefix of a reduced word is reduced
    (Bjorner-Brenti Sec. 1.4).  So the minimal words of each product are
    found as by a search over all words.  s_g = 1 - e_g A[g] is sparse, so
    (M s_g)[r][c] = M[r][c] - M[r][g] A[g][c] changes only the rows with
    M[r][g] != 0.  In the result each product M is keyed by its P-vector
    (2 delta - M 2 delta) / 2.
    Returns {pvector: (min_length, first_letters_at_min, reduced_words_set)}.
    """
    A = cd.A
    two_delta = cd.two_delta
    level = {identity(cd.n): [()]}
    seen = set(level)
    best = {}
    for depth in range(max_len + 1):
        for mat, words in level.items():
            p = tuple((t - v) // 2 for t, v in zip(two_delta, mat_vec(mat, two_delta)))
            best[p] = (depth, {word[0] for word in words if word}, set(words))
        if depth == max_len:
            break
        reached = {}
        for mat, words in level.items():
            for g, a in enumerate(A):
                product = tuple(
                    tuple(v - row[g] * x for v, x in zip(row, a)) if row[g] else row for row in mat
                )
                if product not in seen:
                    reached.setdefault(product, []).extend(word + (g + 1,) for word in words)
        seen.update(reached)
        level = reached
    return best
