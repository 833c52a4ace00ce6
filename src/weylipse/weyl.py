"""The Weyl group as words, its matrix realization, and its transfer onto the main orbit.

An element is a word in the simple reflections; its matrix is built from the
word on first read.  Matrices act on column vectors of simple-root
coordinates; the simple reflection s_i sends e_j to e_j - A_ij e_i.  Words
multiply left to right, so word_to_element([1, 2]) is s_1 s_2 acting as
x |-> s_1(s_2(x)).

P(w) = delta - w delta = (2 delta - w 2 delta) / 2 maps the group bijectively
onto the main orbit of the primary quadric (the identity goes to the origin);
S(w) = A w delta = 1 - A P(w) is the corresponding point of the secondary
quadric.  Everything here is integer arithmetic on 2 delta, the sum of the
positive roots.

A word acts in two ways, each written once.  `_act` applies its reflections
to a vector, right to left: `P_map` to the one vector 2 delta, so no P-vector
needs the matrix of its element, `WeylElement.mat` to each e_j for column j,
and `ordering.reduced_words` to a regular vector to check its first word.
Left multiplication is P(s_i w) = T_i(P(w)), so the other is the T-walk
`quadrics._t_walk` (T_i x = s_i x + e_i), which gives `star`, `p_alpha_b`,
the subword covers of `ordering.bruhat_from_subwords` and the word checks of
`ordering.reduced_words` (`quadrics.apply_T` writes its one step out).  Both
read the sparse rows of `CartanData.sparse` and write the diagonal 2 of A as a
sign change, s_i v_i = -v_i - sum_{j != i} A_ij v_j; only `WeylElement.mat`
reads an element's own A, and builds its view (`cartan.sparse_cartan`) once.

The group table is the main orbit listed by the canonical ascent walk
`cartan.ascend`, each step prepending a letter to the word, and
`element_from_pvector` strips descents back to the origin by
`cartan._strip_descents`; `cartan` lists the roots by the same walks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .cartan import CartanData, Root, _strip_descents, ascend, sparse_cartan, weyl_order
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
from .quadrics import _lex_sort, _t_walk, h_vector

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
        # column j is w e_j
        rows, _ = sparse_cartan(self.A)
        cols = (_act(self.word, e, rows) for e in identity(len(self.A)))
        return tuple(zip(*cols))


def word_to_element(word, cd: CartanData) -> WeylElement:
    """Product s_{i1} s_{i2} ... of the word read left to right; [] is the identity."""
    word = tuple(word)
    for i in word:
        if not isinstance(i, int) or not 1 <= i <= cd.n:
            raise IndexOutOfRangeError(f"reflection index {i} out of range 1..{cd.n}")
    return WeylElement(word, cd.A)


def _act(word, v, rows) -> tuple[int, ...]:
    """s_{i1} ... s_{ik} v: the word's reflections applied to v, right to left.

    s_i changes only coordinate i, to -v_i - sum_{j != i} A_ij v_j over the
    sparse ``rows`` of A (`cartan.sparse_cartan`), so no matrix is built.
    """
    v = list(v)
    for i in reversed(word):
        i -= 1
        vi = -v[i]
        for j, a in rows[i]:
            vi -= a * v[j]
        v[i] = vi
    return tuple(v)


def P_map(w: WeylElement, cd: CartanData) -> tuple[int, ...]:
    """delta - w delta, always an integer vector on the primary quadric.

    Computed as (2 delta - w 2 delta) / 2, with w 2 delta the word's
    reflections applied to the one vector 2 delta by `_act`, so no matrix is
    built.  An odd coordinate, which no group element gives, raises
    InvariantError.
    """
    two_delta = cd.two_delta
    out = []
    for t, u in zip(two_delta, _act(w.word, two_delta, cd.sparse[0])):
        d = t - u
        if d % 2:
            raise InvariantError(
                f"delta - w delta is not integral for the matrix {w.mat} of {cd.spec}"
            )
        out.append(d // 2)
    return tuple(out)


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
    P(w') = T_i(a) one step shorter; stripping down to the origin spells a
    word of the element, whose P-vector is computed afresh from 2 delta by
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
