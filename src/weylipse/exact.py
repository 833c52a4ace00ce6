"""Small exact linear-algebra helpers over integers and fractions.

Matrices are tuples of row tuples.  Everything here is dimension-agnostic.
Each entry of a product is one `sum(map(mul, row, column))`, so the loop over
a row runs inside the interpreter's builtins, not as a Python generator; the
matrices in this project are at most rank ~10, but the checking paths call
these once per group element or per sampled point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

Matrix = tuple[tuple, ...]
Vector = tuple


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_inv(m: Matrix) -> tuple[Matrix, Fraction]:
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
