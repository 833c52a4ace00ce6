"""Small exact linear-algebra helpers over integers and fractions.

Matrices are tuples of row tuples.  Everything here is dimension-agnostic.
Each entry of a product is one `sum(map(mul, row, column))`, so the loop over
a row runs inside the interpreter's builtins, not as a Python generator; the
matrices in this project are at most rank ~10, but the checking paths call
these once per group element or per sampled point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul

Matrix = tuple[tuple, ...]
Vector = tuple


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_inv(m: Matrix) -> tuple[Matrix, Fraction]:
    """Inverse and determinant by Gauss-Jordan over exact fractions.

    Raises ZeroDivisionError on a singular matrix.
    """
    n = len(m)
    work = [
        [Fraction(m[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if work[r][col] != 0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    inv = tuple(tuple(row[n:]) for row in work)
    return inv, det


def max_shifted_root(g: int, s: int, budget: int) -> int:
    """Largest t >= 0 with g*t^2 + 2*s*t <= budget, or -1 if none (g > 0, s >= 0).

    Exact: seeded from an integer square root, then adjusted by +-1 so that no
    boundary case is lost to flooring.
    """
    if budget < 0:
        return -1
    t = (isqrt(s * s + g * budget) - s) // g
    if t < 0:
        t = 0
    while g * (t + 1) * (t + 1) + 2 * s * (t + 1) <= budget:
        t += 1
    while t > 0 and g * t * t + 2 * s * t > budget:
        t -= 1
    if g * t * t + 2 * s * t > budget:
        return -1
    return t
