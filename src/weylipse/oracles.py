"""Brute-force oracles shared by `verify` and the test suite, independent of
the code they check: a box scan with the primary quadric written out term by
term (no `primary_form`), matrix products of all words up to a length with
their own P-vectors (no T-moves, no group table, nothing from `weyl`), and the
closure of a point under every T_i with a set of seen points (no h carried,
no ascent rule)."""

from __future__ import annotations

from math import isqrt

from .cartan import CartanData
from .exact import Matrix, identity, mat_mul, mat_vec


def reflection_matrices(cd: CartanData) -> list[Matrix]:
    """s_1, ..., s_n as matrices: row i of the identity minus row i of A."""
    out = []
    for i in range(cd.n):
        m = [[1 if r == c else 0 for c in range(cd.n)] for r in range(cd.n)]
        for c in range(cd.n):
            m[i][c] -= cd.A[i][c]
        out.append(tuple(tuple(row) for row in m))
    return out


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
    """All integral primary solutions, sorted, by scanning `primary_box`."""
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
    """All words up to max_len over the generators, multiplied out as matrices.

    Each product M is keyed by its P-vector (2 delta - M 2 delta) / 2.
    Returns {pvector: (min_length, first_letters_at_min, reduced_words_set)}.
    """
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
