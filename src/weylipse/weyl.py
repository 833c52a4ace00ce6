"""The Weyl group as words, its matrix realization, and its transfer onto the main orbit.

An element is a word in the simple reflections; its matrix is built from the
word on first read.  Matrices act on column vectors of simple-root
coordinates; the simple reflection s_i sends e_j to e_j - A_ij e_i.  Words
multiply left to right, so word_to_element([1, 2]) is s_1 s_2 acting as
x |-> s_1(s_2(x)).

P(w) = delta - w delta maps the group bijectively onto the main orbit of the
primary quadric (the identity goes to the origin); S(w) = A w delta =
1 - A P(w) is the corresponding point of the secondary quadric.

A word acts by one walk, the T-walk `cartan._t_walk`.  Left multiplication is
P(s_i w) = T_i(P(w)) with T_i x = s_i x + e_i, so T_w, the word's T_i applied
right to left, is affine: T_w(x) = P(w) + w x.  The walk from the origin is
`P_map`, with no matrix and no division; T_w(e_j) - T_w(0) is column j of
`WeylElement.mat`; the walk from P(v) is P(wv), which gives `star`,
`p_alpha_b` and the subword covers of `ordering.bruhat_from_subwords`; and
`ordering.reduced_words` checks its words by walks (`quadrics.apply_T` writes
its one step out).  The walk reads the sparse rows of `CartanData.sparse`;
only `WeylElement.mat` reads an element's own A, and builds its view
(`cartan.sparse_cartan`) once.

The group table is the main orbit listed by the canonical ascent walk
`cartan.ascend`, each step prepending a letter to the word, and
`element_from_pvector` strips descents back to the origin by
`cartan._strip_descents`; `cartan` lists the roots by the same walks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import sub

from .cartan import CartanData, Root, _strip_descents, _t_walk, ascend, sparse_cartan, weyl_order
from .errors import (
    DEFAULT_TABLE_CAP,
    CapExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvariantError,
    NotAMultipleError,
    NotInMainOrbitError,
)
from .exact import Matrix, identity
from .quadrics import _lex_sort, h_vector

__all__ = [
    "WeylElement",
    "GroupTable",
    "DEFAULT_TABLE_CAP",
    "word_to_element",
    "P_map",
    "S_map",
    "build_group_table",
    "star",
    "p_alpha_b",
    "element_from_pvector",
]


# no __slots__: the cached `mat` lives in the instance __dict__
class WeylElement(namedtuple("WeylElement", "word A")):
    """The product s_{i1} s_{i2} ... of a word of 1-based indices, over the Cartan matrix A.

    Elements compare and hash by word, and the repr leaves A out.  The integer
    matrix in the simple-root basis is built from the word the first time
    `mat` is read.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __ne__(self, other):  # tuple's own __ne__ would compare A too
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.word,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(word={self.word!r})"

    @cached_property
    def mat(self) -> Matrix:
        # column j is w e_j = T_w(e_j) - T_w(0)
        rows, _ = sparse_cartan(self.A)
        origin = _t_walk(self.word, (0,) * len(rows), rows)
        cols = (map(sub, _t_walk(self.word, e, rows), origin) for e in identity(len(rows)))
        return tuple(zip(*cols))


def word_to_element(word, cd: CartanData) -> WeylElement:
    """Product s_{i1} s_{i2} ... of the word read left to right; [] is the identity."""
    word = tuple(word)
    for i in word:
        if not isinstance(i, int) or not 1 <= i <= cd.n:
            raise IndexOutOfRangeError(f"reflection index {i} out of range 1..{cd.n}")
    return WeylElement(word, cd.A)


def P_map(w: WeylElement, cd: CartanData) -> tuple[int, ...]:
    """delta - w delta, the integer vector T_w(0) on the primary quadric.

    The word's T_i are applied to the origin, right to left, by
    `cartan._t_walk`, since P(s_i v) = T_i(P(v)); no matrix is built.
    """
    return _t_walk(w.word, (0,) * cd.n, cd.sparse[0])


def S_map(w: WeylElement, cd: CartanData) -> tuple[int, ...]:
    """A w delta = 1 - A P(w); the identity element maps to (1,...,1)."""
    return h_vector(P_map(w, cd), cd)


class GroupTable:
    """The fully enumerated group, keyed by P-vectors (treat as immutable).

    Tables compare by identity.
    """

    def __init__(
        self, cd: CartanData, elements: dict[tuple[int, ...], WeylElement], order: int
    ):
        self.cd = cd
        self.elements = elements
        self.order = order

    def __repr__(self):
        name = self.__class__.__qualname__
        return f"{name}(cd={self.cd!r}, elements={self.elements!r}, order={self.order!r})"

    @cached_property
    def nodes(self) -> tuple[tuple[int, ...], ...]:
        nodes = list(self.elements)
        _lex_sort(nodes, self.cd.n)
        return tuple(nodes)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.nodes)}

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(self.elements[p].word) for p in self.nodes)


def build_group_table(cd: CartanData, cap: int = DEFAULT_TABLE_CAP) -> GroupTable:
    """The main orbit by the canonical ascent walk from the origin, one element per point.

    The step from P(w) to T_i(P(w)) = P(s_i w) gives s_i w the word
    (i,) + word(w); no matrix is built.  Since i is the smallest left descent
    of s_i w, every word is the lexicographically smallest reduced word of its
    element (its ShortLex normal form).
    InvariantError is raised unless the walk gives |W| distinct P-vectors.
    """
    total = weyl_order(cd)
    if total > cap:
        raise CapExceededError(f"|W({cd.spec})| = {total} exceeds cap {cap}")
    n, A = cd.n, cd.A
    origin = (0,) * n
    elements = {origin: WeylElement((), A)}

    def visit(x, i, y):
        elements[y] = WeylElement((i + 1,) + elements[x].word, A)

    ascend(origin, (1,) * n, cd, visit)
    if len(elements) != total:
        raise InvariantError(f"group walk of {cd.spec} has {len(elements)} elements, not {total}")
    return GroupTable(cd=cd, elements=elements, order=total)


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
    except TypeError:  # an unhashable coordinate
        raise NotInMainOrbitError(f"{a} or {b} is not an integer vector") from None
    return _t_walk(wa.word, b, table.cd.sparse[0])


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
    P(w') = T_i(a) one step shorter; stripping down to the origin spells a
    word of the element, whose P-vector is walked afresh from the origin by
    `P_map` and checked against a.
    """
    a = tuple(a)
    if len(a) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vector, got {len(a)}")
    if any(not isinstance(v, int) for v in a):
        raise NotInMainOrbitError(f"{a} is not an integer {cd.n}-vector")
    end, _, word = _strip_descents(a, h_vector(a, cd), cd)
    if any(end):
        raise NotInMainOrbitError(f"{a} is not in the main orbit of {cd.spec}")
    elem = word_to_element(word, cd)
    if P_map(elem, cd) != a:
        raise NotInMainOrbitError(f"{a} is not in the main orbit of {cd.spec}")
    return elem
