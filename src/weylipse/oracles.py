"""Brute-force oracles shared by `verify` and the test suite, independent of
the code they check: a box scan with the primary quadric written out term by
term from k and the links, carried as one partial sum per coordinate (no
`primary_form`); membership as the sphere identity around delta (no
`primary_form`, no h); matrix products of the reduced words up to a length,
level by level, each product extended by the sparse s_g as a row update, with
their own P-vectors (no T-moves, no group table, nothing from `weyl`); and
the closure of a point under every T_i with a set of seen points (no h
carried, no ascent rule).  They import only `cartan` and `exact`, and step
by the dense rows of A, not by `CartanData.sparse`."""

from __future__ import annotations

from math import isqrt
from operator import mul

from .cartan import CartanData, bilinear
from .exact import identity, mat_vec


def primary_box(cd: CartanData) -> tuple[list[int], list[int]]:
    """Inclusive bounds (lo, hi) of a box holding every integral primary solution.

    |x_i - delta_i| <= r_i with r_i^2 = <delta,delta> (gram^-1)_ii, the exact
    axis bound of the sphere <x - delta, x - delta> = <delta, delta>.  In
    integers r_i^2 = N / D with N = (sum_j k_j 2 delta_j) adjA_ii and
    D = 2 detA k_i, and floor(r_i) = isqrt(N D) // D whether or not N / D is
    reduced.
    """
    norm_twice = sum(map(mul, cd.k, cd.two_delta))  # 2 <delta, delta>
    lo, hi = [], []
    for i, t in enumerate(cd.two_delta):
        den = 2 * cd.detA * cd.k[i]
        r = isqrt(norm_twice * cd.adjA[i][i] * den) // den + 1
        lo.append(t // 2 - r)
        hi.append(t // 2 + r + 1)
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
