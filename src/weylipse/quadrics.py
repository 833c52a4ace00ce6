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
The ascent walk runs as code generated per type (`codegen._ascent_source`).
`h_vector` sums over the sparse rows, not the dense ones.

`QuadForm.value` evaluates a whole form.  It is not a loop over the dense
matrix: on its first read a form generates straight-line code from its own
fields, every nonzero coefficient written out as an int literal, compiles it
and keeps it in its instance dict.  Only the nonzero entries of gram enter
the primary form's code, so it is sparse over the Dynkin diagram.  Each of
the two forms is built once per type and kept on its `CartanData`
(`cartan._kept`), so each ``value`` compiles once per type.  The primary
``value`` is the one membership test of a single point: `apply_T` (before its
one step of `cartan._t_walk`), `expand_orbit` and the orbit seeds' check of
each minimal vector call it.  The census checks each of its rows with the
secondary ``value``, and `orbit_size` its h.  The one code generator is
`codegen._generated`, with `_literal` and `_sum_source`, which also writes
`QuadForm.equation_text`: each type's ascent walk (``CartanData.ascent``) and
the solve of the orbit seeds' minimal vectors in `orbits` are built with it
too.  It keeps nothing at module level; generated code lives in the instance
dict of the form or the `CartanData` that owns it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import repeat
from operator import itemgetter

from .cartan import CartanData, _kept
from .codegen import _generated, _literal, _sum_source
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

    Construction raises MalformedFormError unless quad is an n by n matrix of
    ints, symmetric with an even diagonal, and linear n ints; so does
    `_replace`, which builds through `_make`.

    ``value`` is straight-line code generated from the form's own fields on
    its first read and kept in the instance dict: the length check, then
    sum_i x_i (quad_ii/2 x_i + sum_{j>i} quad_ij x_j + linear_i) + constant
    with every nonzero coefficient written out as a literal.  It takes
    rational x as well as integral.  A form pickles and copies by its fields
    alone, so a copy starts cold.
    """

    def __new__(cls, n: int, quad: Matrix, linear: tuple[int, ...], constant: int):
        if type(n) is not int:
            raise MalformedFormError(f"n = {n!r} is not an int")
        if len(quad) != n or any(len(row) != n for row in quad) or len(linear) != n:
            raise MalformedFormError(f"quad must be {n} by {n} and linear of length {n}")
        if not all(type(v) is int for v in (constant, *linear, *(v for row in quad for v in row))):
            raise MalformedFormError("the coefficients of a form must be ints")
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

    def __getstate__(self):
        return None  # the generated ``value`` is rebuilt on a copy's first read

    @cached_property
    def value(self):
        """value(x) for a sequence x of n rationals; DimensionMismatchError on any other length."""
        n = self.n
        xs = [f"x{i}" for i in range(n)]
        rows = []
        for i, row in enumerate(self.quad):
            inner = [(row[i] // 2, xs[i]), *zip(row[i + 1 :], xs[i + 1 :]), (self.linear[i], None)]
            if any(c for c, _ in inner):
                rows.append((1, f"{xs[i]}*({_sum_source(inner)})"))
        size = _literal(n)
        lines = [
            f"if len(x) != {size}:",
            f'    raise DimensionMismatchError(f"expected {size}-vector, got {{len(x)}}")',
        ]
        if n:
            lines.append(f"{', '.join(xs)}, = x")
        lines.append(f"return {_sum_source([*rows, (self.constant, None)])}")
        return _generated("value", "x", lines, DimensionMismatchError=DimensionMismatchError)

    def equation_text(self, var: str = "x") -> str:
        """The equation as text: squares, then cross terms, then linear terms, then the constant."""
        n, ys = self.n, [f"{var}{i + 1}" for i in range(self.n)]
        terms = [(self.quad[i][i] // 2, f"{y}^2") for i, y in enumerate(ys)]
        terms += [(self.quad[i][j], f"{ys[i]}*{ys[j]}") for i in range(n) for j in range(i + 1, n)]
        terms += [*zip(self.linear, ys), (self.constant, None)]
        return f"{_sum_source(terms)} = 0"


@_kept
def primary_form(cd: CartanData) -> QuadForm:
    """sum k_i (x_i^2 - x_i) - sum over links l_ij x_i x_j, as a QuadForm.

    For every rational x, 2 * value(x) equals bilinear(x, x - 2*delta).  Built
    once per type and kept on cd, so every call returns the same form.
    """
    return QuadForm(
        n=cd.n,
        quad=cd.gram,
        linear=tuple(-ki for ki in cd.k),
        constant=0,
    )


@_kept
def secondary_form(cd: CartanData) -> QuadForm:
    """The image quadric in h-coordinates, scaled by detA to integer coefficients.

    value(h) = detA * (<Ainv h, Ainv h> - <delta, delta>), which vanishes iff
    <Ainv(1-h), Ainv(1+h)> = 0.  In particular value(1,...,1) = 0.  Built
    once per type and kept on cd, so every call returns the same form.
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
    Membership is the kept primary form's ``value``, and the step reads one sparse
    row of A: neither computes the whole h.

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
    if not all(map(isinstance, x, repeat(int))) or primary_form(cd).value(x):
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


def _lex_sort(points: list, n: int) -> None:
    """Sort a list of n-tuples in place into lexicographic order.

    One stable sort per coordinate, the last first: a pass keeps the order of
    the passes before it among equal keys, so coordinate 0 decides first and
    each later one breaks the ties left.  n passes keyed by one int each beat
    comparing whole tuples.
    """
    for i in range(n - 1, -1, -1):
        points.sort(key=itemgetter(i))
