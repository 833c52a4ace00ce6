"""Matrix realization of the Weyl group and its transfer onto the main orbit.

Matrices act on column vectors of simple-root coordinates; the simple
reflection s_i sends e_j to e_j - A_ij e_i.  Words multiply left to right,
so word_to_element([1, 2]) is s_1 s_2 acting as x |-> s_1(s_2(x)).

P(w) = delta - w delta = (2 delta - w 2 delta) / 2 maps the group bijectively
onto the main orbit of the primary quadric (the identity goes to the origin);
S(w) = A w delta = 1 - A P(w) is the corresponding point of the secondary
quadric.  Everything here is integer arithmetic on 2 delta, the sum of the
positive roots.

The group table is built on P-vectors: right multiplication by s_g adds
column g of w to P(w), that column is a negative root exactly when s_g is a
right descent of w, and each element's matrix is obtained from its parent's
by a column update instead of a matrix product.

Left multiplication is P(s_i w) = T_i(P(w)); the one T-walk `_t_walk` gives
both `star` and the word checks of `ordering.reduced_words`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cartan import CartanData, Root, positive_roots, weyl_order
from .errors import (
    CapExceededError,
    IndexOutOfRangeError,
    InvariantError,
    NotAMultipleError,
    NotInMainOrbitError,
)
from .exact import Matrix, identity
from .quadrics import h_vector

__all__ = [
    "WeylElement",
    "GroupTable",
    "DEFAULT_TABLE_CAP",
    "simple_reflection",
    "word_to_element",
    "P_map",
    "S_map",
    "build_group_table",
    "star",
    "p_alpha_b",
    "element_from_pvector",
]

DEFAULT_TABLE_CAP = 1_000_000


@dataclass(frozen=True)
class WeylElement:
    """An integer matrix in the simple-root basis, with a word that produced it."""

    mat: Matrix
    word: tuple[int, ...] | None = None

    @property
    def length(self) -> int | None:
        return None if self.word is None else len(self.word)


def simple_reflection(i: int, cd: CartanData) -> WeylElement:
    """s_i as a WeylElement; i is 1-based."""
    return word_to_element((i,), cd)


def _times_reflection(mat: Matrix, g: int, A: Matrix) -> Matrix:
    # mat * s_g for 0-based g: column j gains -A_gj times column g
    row_g = A[g]
    return tuple(
        tuple(v - a * row[g] for v, a in zip(row, row_g)) for row in mat
    )


def word_to_element(word, cd: CartanData) -> WeylElement:
    """Product s_{i1} s_{i2} ... of the word read left to right; [] is the identity."""
    word = tuple(word)
    mat = identity(cd.n)
    for i in word:
        if not isinstance(i, int) or not 1 <= i <= cd.n:
            raise IndexOutOfRangeError(f"reflection index {i} out of range 1..{cd.n}")
        mat = _times_reflection(mat, i - 1, cd.A)
    return WeylElement(mat=mat, word=word)


def P_map(w: WeylElement, cd: CartanData) -> tuple[int, ...]:
    """delta - w delta, always an integer vector on the primary quadric.

    Computed as (2 delta - w 2 delta) / 2; an odd coordinate, which no group
    element gives, raises InvariantError.
    """
    two_delta = cd.two_delta
    out = []
    for t, row in zip(two_delta, w.mat):
        v = t - sum(m * d for m, d in zip(row, two_delta))
        if v % 2:
            raise InvariantError(
                f"delta - w delta is not integral for the matrix {w.mat} of {cd.spec}"
            )
        out.append(v // 2)
    return tuple(out)


def S_map(w: WeylElement, cd: CartanData) -> tuple[int, ...]:
    """A w delta = 1 - A P(w); the identity element maps to (1,...,1)."""
    return h_vector(P_map(w, cd), cd)


@dataclass(eq=False)
class GroupTable:
    """The fully enumerated group, keyed by P-vectors (treat as immutable)."""

    cd: CartanData
    elements: dict[tuple[int, ...], WeylElement]
    order: int

    @cached_property
    def nodes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.elements))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.nodes)}

    @cached_property
    def left_multiplication(self) -> list[list[int]]:
        """left_multiplication[g-1][i] = index of s_g * nodes[i] = T_g(nodes[i]) (g 1-based)."""
        index = self.index
        tables = [[] for _ in range(self.cd.n)]
        for p in self.nodes:
            h = h_vector(p, self.cd)
            for g, table in enumerate(tables):
                table.append(index[p[:g] + (p[g] + h[g],) + p[g + 1 :]])
        return tables

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(self.elements[p].word) for p in self.nodes)


def build_group_table(cd: CartanData, cap: int = DEFAULT_TABLE_CAP) -> GroupTable:
    """Breadth-first closure of the identity under right multiplication by the s_i.

    Keys are P-vectors, with P(w s_g) = P(w) + w(alpha_g); generators g whose
    column w(alpha_g) is negative are right descents and are skipped.  Each
    element keeps the first word that reached it, whose length is the Coxeter
    length.  InvariantError is raised if an ascent lands on the P-vector of an
    element of another length (a collision, which would falsify injectivity of
    P) or if the closure does not have |W| elements.
    """
    total = weyl_order(cd)
    if total > cap:
        raise CapExceededError(f"|W({cd.spec})| = {total} exceeds cap {cap}")
    n, A = cd.n, cd.A
    ident = WeylElement(mat=identity(n), word=())
    origin = (0,) * n
    elements = {origin: ident}
    frontier = [(origin, ident)]
    while frontier:
        nxt = []
        for p, w in frontier:
            length = len(w.word) + 1
            for g in range(n):
                column = [row[g] for row in w.mat]
                if min(column) < 0:
                    continue
                key = tuple(x + c for x, c in zip(p, column))
                seen = elements.get(key)
                if seen is not None:
                    if len(seen.word) != length:
                        raise InvariantError(f"P-vector collision at {key} in {cd.spec}")
                    continue
                elem = WeylElement(mat=_times_reflection(w.mat, g, A), word=w.word + (g + 1,))
                elements[key] = elem
                nxt.append((key, elem))
        frontier = nxt
    if len(elements) != total:
        raise InvariantError(
            f"group closure of {cd.spec} has {len(elements)} elements, expected {total}"
        )
    return GroupTable(cd=cd, elements=elements, order=total)


def _t_walk(word, start, cd: CartanData) -> tuple[int, ...]:
    """T_{i1}(... T_{ik}(start)), which is P(s_{i1} ... s_{ik} w) for start = P(w)."""
    A = cd.A
    p = list(start)
    for i in reversed(word):
        p[i - 1] += 1 - sum(a * x for a, x in zip(A[i - 1], p))
    return tuple(p)


def star(a, b, table: GroupTable) -> tuple[int, ...]:
    """The group operation transferred to P-vectors: P(P^-1(a) P^-1(b)).

    The word of P^-1(a) is T-walked from b; no matrix is multiplied.
    """
    a, b = tuple(a), tuple(b)
    try:
        wa = table.elements[a]
        table.elements[b]
    except KeyError as missing:
        raise NotInMainOrbitError(
            f"{missing.args[0]} is not a main-orbit vector of {table.cd.spec}"
        ) from None
    return _t_walk(wa.word, b, table.cd)


def p_alpha_b(alpha: Root, b, table: GroupTable) -> int:
    """The nonzero integer p with (grade(alpha) alpha) * b = p alpha + b."""
    b = tuple(b)
    scaled = tuple(alpha.grade * c for c in alpha.coords)
    moved = star(scaled, b, table)
    diff = tuple(m - v for m, v in zip(moved, b))
    pivot = next(i for i, c in enumerate(alpha.coords) if c)
    p, rem = divmod(diff[pivot], alpha.coords[pivot])
    if rem or any(d != p * c for d, c in zip(diff, alpha.coords)):
        raise NotAMultipleError(
            f"(grade*alpha)*b - b = {diff} is not an integer multiple of {alpha.coords}"
        )
    if p == 0:
        raise NotAMultipleError(f"multiplier for alpha={alpha.coords}, b={b} is zero")
    return p


def element_from_pvector(a, cd: CartanData) -> WeylElement:
    """Invert P without enumerating the group, by stripping descents.

    If S(a) = 1 - A a has a negative entry i then a = P(s_i w') with
    P(w') = T_i(a) one step shorter; iterating reconstructs a word.  S is
    updated along the way, S(T_i a) = S(a) - S(a)_i A[:, i].
    """
    a = tuple(a)
    n, A = cd.n, cd.A
    if len(a) != n or any(not isinstance(v, int) for v in a):
        raise NotInMainOrbitError(f"{a} is not an integer {n}-vector")
    word = []
    cur = list(a)
    s = list(h_vector(a, cd))
    # any element's length is at most the number of positive roots
    for _ in range(len(positive_roots(cd)) + 1):
        i = next((i for i in range(n) if s[i] < 0), None)
        if i is None:
            break
        si = s[i]
        cur[i] += si
        for r in range(n):
            s[r] -= si * A[r][i]
        word.append(i + 1)
    if any(cur):
        raise NotInMainOrbitError(f"{a} is not in the main orbit of {cd.spec}")
    elem = word_to_element(word, cd)
    if P_map(elem, cd) != a:
        raise NotInMainOrbitError(f"{a} is not in the main orbit of {cd.spec}")
    return elem
