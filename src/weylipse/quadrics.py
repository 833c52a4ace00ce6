"""The two integer quadrics attached to a type, and the coordinate involutions T_i.

The primary quadric is  sum_i k_i (x_i^2 - x_i) - sum_{i<j} l_ij x_i x_j = 0,
equivalently <x, x - 2 delta> = 0 (the polynomial is half the bilinear value).
Its image under x |-> h = 1 - A x is the secondary quadric; the stored
secondary form is pre-multiplied by detA so that all coefficients are integers.

A point x on the primary quadric is moved by the involution T_i, which shifts
coordinate i by h_i (a no-op where h_i = 0) and lands on the quadric again.
Index i is a descent of x when h_i < 0: T_i then lowers x_i.  Every orbit has
one point without descents, its componentwise minimum.  Every walk (the step
`_t_step`, descent stripping `_strip_descents`, the ascent walk `ascend` and
the T-walk of a word `_t_walk`) lives in `cartan` beside the sparse view of
A, since the roots are listed by the same walk; this module defines none.
`apply_T` takes one step of `cartan._t_walk` after a membership test over the
nonzero x_j and the diagram's edges (`CartanData.edges`), so a single step
never computes the whole h.  `h_vector` sums over the sparse rows, not the
dense ones.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from operator import itemgetter

from .cartan import CartanData
from .errors import DimensionMismatchError, MalformedFormError, NotOnEllipsoidError
from .exact import Matrix

__all__ = ["QuadForm", "primary_form", "secondary_form", "h_vector", "apply_T"]


class QuadForm(namedtuple("QuadForm", "n quad linear constant")):
    """An integer quadratic equation  value(x) = 0.

    ``quad`` is the symmetric integer matrix of second derivatives (so its
    diagonal is twice each square coefficient), which keeps evaluation exact:

        value(x) = x^T quad x / 2 + linear . x + constant
                 = sum_i (quad_ii/2) x_i^2 + sum_{i<j} quad_ij x_i x_j
                   + sum_i linear_i x_i + constant.

    Construction raises MalformedFormError unless quad is symmetric with an
    even diagonal; so does `_replace`, which builds through `_make`.
    """

    __slots__ = ()

    def __new__(cls, n: int, quad: Matrix, linear: tuple[int, ...], constant: int):
        for i in range(n):
            if quad[i][i] % 2:
                raise MalformedFormError(f"quad[{i}][{i}] = {quad[i][i]} is odd")
            for j in range(i + 1, n):
                if quad[i][j] != quad[j][i]:
                    raise MalformedFormError(f"quad is not symmetric at ({i}, {j})")
        return super().__new__(cls, n, quad, linear, constant)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def value(self, x):
        if len(x) != self.n:
            raise DimensionMismatchError(f"expected {self.n}-vector, got {len(x)}")
        n = self.n
        total = self.constant
        for i in range(n):
            xi = x[i]
            if not xi:  # every term with x_i as a factor vanishes
                continue
            row = self.quad[i]
            total += (row[i] // 2) * xi * xi + self.linear[i] * xi
            for j in range(i + 1, n):
                if row[j]:
                    total += row[j] * xi * x[j]
        return total

    def equation_text(self, var: str = "x") -> str:
        terms: list[tuple[int, str]] = []
        for i in range(self.n):
            terms.append((self.quad[i][i] // 2, f"{var}{i + 1}^2"))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                terms.append((self.quad[i][j], f"{var}{i + 1}*{var}{j + 1}"))
        for i in range(self.n):
            terms.append((self.linear[i], f"{var}{i + 1}"))
        terms.append((self.constant, ""))
        parts: list[str] = []
        for coeff, mono in terms:
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} = 0"


def primary_form(cd: CartanData) -> QuadForm:
    """sum k_i (x_i^2 - x_i) - sum over links l_ij x_i x_j, as a QuadForm.

    For every rational x, 2 * value(x) equals bilinear(x, x - 2*delta).
    """
    return QuadForm(
        n=cd.n,
        quad=cd.gram,
        linear=tuple(-ki for ki in cd.k),
        constant=0,
    )


def secondary_form(cd: CartanData) -> QuadForm:
    """The image quadric in h-coordinates, scaled by detA to integer coefficients.

    value(h) = detA * (<Ainv h, Ainv h> - <delta, delta>), which vanishes iff
    <Ainv(1-h), Ainv(1+h)> = 0.  In particular value(1,...,1) = 0.
    """
    n = cd.n
    quad = tuple(
        tuple(2 * cd.k[i] * cd.adjA[i][j] for j in range(n)) for i in range(n)
    )
    constant = -sum(cd.k[i] * cd.adjA[i][j] for i in range(n) for j in range(n))
    return QuadForm(n=n, quad=quad, linear=(0,) * n, constant=constant)


def h_vector(x, cd: CartanData) -> tuple:
    """h = 1 - A x.  Integral whenever x is; maps the primary quadric onto the secondary.

    As A_ii = 2, h_i = 1 - 2 x_i - sum_j A_ij x_j over the sparse row i of ``cd.sparse``.
    """
    if len(x) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vector, got {len(x)}")
    rows, _ = cd.sparse
    h = []
    for xi, row in zip(x, rows):
        v = 1 - 2 * xi
        for j, a in row:
            v -= a * x[j]
        h.append(v)
    return tuple(h)


def apply_T(i: int, x, cd: CartanData) -> tuple:
    """The involution T_i: shift coordinate i (1-based) of x by h(x)_i.

    Requires x integral and on the primary quadric; returns x unchanged where h_i = 0.
    Neither the membership test nor the step computes the whole h.

    >>> from weylipse.cartan import build_cartan, parse_type
    >>> b2 = build_cartan(parse_type("B2"))
    >>> apply_T(2, (1, 0), b2)
    (1, 3)
    >>> apply_T(1, [1, 1], b2)
    Traceback (most recent call last):
    ...
    weylipse.errors.NotOnEllipsoidError: (1, 1) is not an integral primary solution of B2
    """
    if not isinstance(i, int) or not 1 <= i <= cd.n:
        raise DimensionMismatchError(f"index {i} out of range 1..{cd.n}")
    x = tuple(x)
    if len(x) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vector, got {len(x)}")
    if not all(map(isinstance, x, repeat(int))) or _twice_primary(x, cd):
        raise NotOnEllipsoidError(f"{x} is not an integral primary solution of {cd.spec}")
    # one step of `cartan._t_walk`, written out (the call cost about 4% of apply_T on E8):
    # x_i becomes 1 - x_i - sum_j A_ij x_j over the sparse row i
    i -= 1
    y = list(x)
    v = 1 - y[i]
    for j, a in cd.sparse[0][i]:
        v -= a * y[j]
    y[i] = v
    return tuple(y)


def _twice_primary(x, cd: CartanData) -> int:
    """Twice the primary value of x, 2 sum_j k_j x_j (x_j - 1) + 2 sum_{edges j<m} gram_jm x_j x_m:
    the first sum over the nonzero x_j, the second over ``cd.edges``, each diagram edge once."""
    total = 0
    for k, xj in zip(cd.k, x):
        if xj:
            total += k * xj * (xj - 1)
    for j, m, g in cd.edges:
        total += g * x[j] * x[m]
    return 2 * total


def _on_primary(x, h, cd: CartanData) -> bool:
    """Whether x is on the primary quadric, given h = h_vector(x).

    Since A delta = 1, twice the primary value of x is -sum k_j x_j (1 + h_j).
    For fixed h the test is homogeneous in x, so any multiple of x may be passed.
    """
    return not sum(k * v * (1 + g) for k, v, g in zip(cd.k, x, h))


def _lex_sort(points: list, n: int) -> None:
    """Sort a list of n-tuples in place into lexicographic order.

    One stable sort per coordinate, the last first: a pass keeps the order of
    the passes before it among equal keys, so coordinate 0 decides first and
    each later one breaks the ties left.  n passes keyed by one int each beat
    comparing whole tuples.
    """
    for i in range(n - 1, -1, -1):
        points.sort(key=itemgetter(i))
