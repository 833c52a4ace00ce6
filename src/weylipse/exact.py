"""Small exact linear-algebra helpers over integers.

Matrices are tuples of row tuples.  Everything here is dimension-agnostic.
Each entry of a product is one `sum(map(mul, row, column))`, so the loop over
a row runs inside the interpreter's builtins, not as a Python generator; the
checking paths call these once per group element or per sampled point.
"""

from __future__ import annotations

from operator import mul

Matrix = tuple[tuple, ...]
Vector = tuple


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in m)
