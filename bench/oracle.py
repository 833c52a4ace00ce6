"""Integer main-orbit arithmetic written independently of weylipse.

The benchmark draws its inputs and checks its results with these few lines
rather than with the library it measures.  They rest on one identity: for a
P-vector x = P(w), h(x) = 1 - A x, and P(s_i w) = T_i(x) = x + h_i(x) e_i,
with s_i a left descent of w exactly when h_i(x) < 0.
"""

from __future__ import annotations

from functools import lru_cache


def h_of(x, A) -> tuple[int, ...]:
    n = len(A)
    return tuple(1 - sum(A[i][j] * x[j] for j in range(n)) for i in range(n))


def t_move(i: int, x, A) -> tuple[int, ...]:
    """T_i on a P-vector; i is 0-based."""
    hi = 1 - sum(A[i][j] * x[j] for j in range(len(A)))
    return x[:i] + (x[i] + hi,) + x[i + 1 :]


def ascent_walk(A, length: int, rng) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A random element of the given length: (reduced word, P-vector).

    Each step multiplies on the left by a generator that is not a descent,
    so the word stays reduced.  ``length`` must not exceed the number of
    positive roots.
    """
    n = len(A)
    x = (0,) * n
    word: list[int] = []
    for _ in range(length):
        h = h_of(x, A)
        i = rng.choice([i for i in range(n) if h[i] > 0])
        x = t_move(i, x, A)
        word.insert(0, i + 1)
    return tuple(word), x


def strip_word(x, A) -> tuple[int, ...]:
    """A reduced word of the element with P-vector x, by stripping left descents."""
    word = []
    while any(x):
        h = h_of(x, A)
        i = next(i for i in range(len(A)) if h[i] < 0)
        x = t_move(i, x, A)
        word.append(i + 1)
    return tuple(word)


def longest_word(A, gens=None) -> tuple[int, ...]:
    """A reduced word of the longest element of the subgroup generated by
    ``gens`` (0-based; default all): walk up until no ascent is left."""
    gens = range(len(A)) if gens is None else gens
    x = (0,) * len(A)
    word: list[int] = []
    while True:
        h = h_of(x, A)
        up = [i for i in gens if h[i] > 0]
        if not up:
            return tuple(word)
        x = t_move(up[0], x, A)
        word.insert(0, up[0] + 1)


def chains_of_three(A) -> list[tuple[int, int, int]]:
    """Paths i - j - k of three nodes in the Dynkin diagram (0-based, i < k)."""
    n = len(A)
    return [
        (i, j, k)
        for j in range(n)
        for i in range(n)
        for k in range(i + 1, n)
        if i != j != k and A[i][j] and A[j][k] and not A[i][k]
    ]


def star_by_walk(a, b, A) -> tuple[int, ...]:
    """P(P^-1(a) P^-1(b)): apply the word of a, letter by letter, to b."""
    for letter in reversed(strip_word(a, A)):
        b = t_move(letter - 1, b, A)
    return b


def main_orbit(A) -> list[tuple[int, ...]]:
    """Every P-vector of the group, by closure from the origin."""
    start = (0,) * len(A)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for i in range(len(A)):
            y = t_move(i, x, A)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def count_reduced_words(x, A) -> int:
    """Number of reduced words, summing over left descents (memoised per call)."""

    @lru_cache(maxsize=None)
    def count(p):
        if not any(p):
            return 1
        h = h_of(p, A)
        return sum(count(t_move(i, p, A)) for i in range(len(A)) if h[i] < 0)

    return count(tuple(x))


def inversions(mat, roots) -> int:
    """Number of positive roots the matrix sends to negative roots."""
    n = len(mat)
    return sum(
        1
        for r in roots
        if any(sum(mat[i][j] * r[j] for j in range(n)) < 0 for i in range(n))
    )


def p_of_word(word, A) -> tuple[int, ...]:
    """P-vector of the product of a reduced word: P(s_i w) = T_i(P(w))."""
    x = (0,) * len(A)
    for letter in reversed(word):
        x = t_move(letter - 1, x, A)
    return x
