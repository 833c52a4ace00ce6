"""Exact Cartan/Dynkin data for the finite families A-G and their products.

Conventions fixed once for the whole project:

* Vertex numbering follows Bourbaki.  In particular B_n has its short simple
  root last, C_n its long one last, G2 has vertex 1 short and vertex 2 long,
  F4 has vertices 1,2 long and 3,4 short, and the E-family branch node is
  vertex 4 (attached to vertex 2).
* Short roots are normalized to squared length 2, so the vertex weight
  k_i (half the squared length of simple root i) is 1, 2 or 3.
* All arithmetic is exact: integers plus `fractions.Fraction`.  No floats.
* Simple-root indices in the public API are 1-based, matching the usual
  notation s_1 .. s_n; vectors are plain tuples in the simple-root basis.

>>> cd = build_cartan(parse_type("B2"))
>>> cd.A
((2, -1), (-2, 2))
>>> cd.delta
(Fraction(3, 2), Fraction(2, 1))
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, prod

from .errors import (
    BadIndexSetError,
    DimensionMismatchError,
    InvariantError,
    NotARootError,
    RankOutOfRangeError,
    UnknownFamilyError,
)
from .exact import Matrix, Vector, mat_inv, mat_vec

RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

DET_CATALOG = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}

POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_EXCEPTIONAL_ORDER = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}

_TYPE_TOKEN = re.compile(r"([A-Ga-g])([0-9]+)$")


@dataclass(frozen=True)
class LieTypeSpec:
    """An ordered product of irreducible finite types, e.g. A3 or B2xG2."""

    components: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.components)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.components)


def parse_type(text: str) -> LieTypeSpec:
    """Parse a type string such as "A3" or "B2xG2".

    >>> parse_type("b2xg2").components
    (('B', 2), ('G', 2))
    """
    if not text or not text.strip():
        raise UnknownFamilyError("empty type string")
    components = []
    for token in text.strip().split("x"):
        m = _TYPE_TOKEN.match(token.strip())
        if not m:
            raise UnknownFamilyError(f"cannot parse type token {token!r}")
        fam, rank = m.group(1).upper(), int(m.group(2))
        lo, hi = RANK_RANGE[fam]
        if rank < lo or (hi is not None and rank > hi):
            raise RankOutOfRangeError(
                f"{fam}{rank}: rank of family {fam} must be "
                + (f"in [{lo},{hi}]" if hi is not None else f">= {lo}")
            )
        components.append((fam, rank))
    return LieTypeSpec(tuple(components))


def _component_cartan(fam: str, n: int) -> tuple[list[list[int]], list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    k = [1] * n

    def bond(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    if fam == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif fam == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
        k = [2] * (n - 1) + [1]
    elif fam == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
        k = [1] * (n - 1) + [2]
    elif fam == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif fam == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            edges.append((6, 7))
        if n == 8:
            edges.append((7, 8))
        for i, j in edges:
            bond(i - 1, j - 1)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
        k = [2, 2, 1, 1]
    elif fam == "G":
        bond(0, 1, -3, -1)
        k = [1, 3]
    return a, k


@dataclass(frozen=True)
class CartanData:
    """Everything exact about one (product) type.

    ``gram[i][j] = k[i] * A[i][j]`` is the symmetric integer matrix of the
    inner product of simple roots; ``adjA = detA * Ainv`` is integral.
    """

    spec: LieTypeSpec
    n: int
    A: Matrix
    k: tuple[int, ...]
    links: Matrix
    gram: Matrix
    Ainv: Matrix
    adjA: Matrix
    detA: int
    delta: tuple[Fraction, ...]

    def __str__(self) -> str:
        return str(self.spec)

    @cached_property
    def two_delta(self) -> tuple[int, ...]:
        # the sum of all positive roots; always integral
        return tuple(int(2 * d) for d in self.delta)

    @cached_property
    def positive_root_count(self) -> int:
        # |Phi+| from the catalog; `positive_roots` checks its closure against it
        return sum(POSITIVE_ROOT_COUNT[fam](rank) for fam, rank in self.spec.components)

    @property
    def delta_norm_sq(self) -> Fraction:
        # <delta, delta> = sum_i k_i * delta_i
        return sum((Fraction(ki) * di for ki, di in zip(self.k, self.delta)), Fraction(0))


def build_cartan(spec: LieTypeSpec) -> CartanData:
    """Assemble block-diagonal Cartan data for a (product) type."""
    n = spec.rank
    a = [[0] * n for _ in range(n)]
    k: list[int] = []
    offset = 0
    for fam, rank in spec.components:
        block, kblock = _component_cartan(fam, rank)
        for i in range(rank):
            for j in range(rank):
                a[offset + i][offset + j] = block[i][j]
        k.extend(kblock)
        offset += rank
    A = tuple(tuple(row) for row in a)

    gram = tuple(tuple(k[i] * A[i][j] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise InvariantError(f"symmetrizer of {spec} failed at ({i}, {j})")
    links = tuple(
        tuple(0 if i == j else -gram[i][j] for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            if i != j and A[i][j] != 0 and links[i][j] != max(k[i], k[j]):
                raise InvariantError(f"link weight of {spec} at ({i}, {j}) is {links[i][j]}")

    Ainv, det = mat_inv(A)
    detA = int(det)
    expected_det = prod(DET_CATALOG[fam](rank) for fam, rank in spec.components)
    if det != expected_det:
        raise InvariantError(f"det A of {spec} is {det}, expected {expected_det}")

    adjA = tuple(
        tuple(int(detA * Ainv[i][j]) for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            if adjA[i][j] != detA * Ainv[i][j] or adjA[i][j] < 0:
                raise InvariantError(
                    f"adjugate of {spec} at ({i}, {j}) is not a nonnegative integer"
                )

    delta = mat_vec(Ainv, (Fraction(1),) * n)
    if mat_vec(A, delta) != (Fraction(1),) * n:
        raise InvariantError(f"A delta != 1 for {spec}")

    return CartanData(
        spec=spec,
        n=n,
        A=A,
        k=tuple(k),
        links=links,
        gram=gram,
        Ainv=Ainv,
        adjA=adjA,
        detA=detA,
        delta=tuple(delta),
    )


def bilinear(x: Vector, y: Vector, cd: CartanData):
    """The inner product x^T gram y; exact, integer-valued on integer input."""
    if len(x) != cd.n or len(y) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vectors, got {len(x)} and {len(y)}")
    return sum(x[i] * cd.gram[i][j] * y[j] for i in range(cd.n) for j in range(cd.n))


@dataclass(frozen=True)
class Root:
    """A positive root in simple-root coordinates with its grade."""

    coords: tuple[int, ...]
    grade: int
    length_sq: int


def _all_root_coords(cd: CartanData) -> set[tuple[int, ...]]:
    n = cd.n
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    work = list(simple)
    while work:
        r = work.pop()
        for i in range(n):
            pairing = sum(cd.A[i][j] * r[j] for j in range(n))
            s = list(r)
            s[i] -= pairing
            s = tuple(s)
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def _grade_of(coords: tuple[int, ...], cd: CartanData) -> int:
    # 2<alpha, delta> / <alpha, alpha>; <e_i, delta> = k_i makes the numerator integral
    num = 2 * sum(c * ki for c, ki in zip(coords, cd.k))
    den = bilinear(coords, coords, cd)
    g, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"grade of {coords} is not an integer")
    return g


def positive_roots(cd: CartanData) -> tuple[Root, ...]:
    """All positive roots, sorted lexicographically by coordinates.

    Generated by closing the simple roots under the simple reflections.
    """
    every = _all_root_coords(cd)
    pos = sorted(r for r in every if all(c >= 0 for c in r))
    expected = cd.positive_root_count
    if len(every) != 2 * len(pos) or len(pos) != expected:
        raise InvariantError(
            f"{cd.spec} has {len(every)} roots, {len(pos)} positive; expected {expected} positive"
        )
    return tuple(
        Root(coords=r, grade=_grade_of(r, cd), length_sq=bilinear(r, r, cd))
        for r in pos
    )


def grade(coords: tuple[int, ...], cd: CartanData) -> int:
    """The integer 2<alpha,delta>/<alpha,alpha> of a root; negated for -alpha."""
    every = _all_root_coords(cd)
    if tuple(coords) not in every:
        raise NotARootError(f"{tuple(coords)} is not a root of {cd.spec}")
    return _grade_of(tuple(coords), cd)


# --- Weyl group orders via structural classification of subdiagrams ---


def _connected_components(cd: CartanData, verts: list[int]) -> list[list[int]]:
    vset = set(verts)
    comps = []
    seen: set[int] = set()
    for v in sorted(vset):
        if v in seen:
            continue
        comp = []
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            stack.extend(
                w for w in vset if w not in seen and w != u and cd.A[u][w] != 0
            )
        comps.append(sorted(comp))
    return comps


def _irreducible_order(cd: CartanData, comp: list[int]) -> int:
    """|W| of a connected induced subdiagram, classified structurally.

    Every connected induced subdiagram of a finite-type diagram is again
    finite-type, so the case split below is exhaustive: a triple bond is G2,
    a double bond gives 2^m m! (or F4 when centered in a 4-chain), and a
    simply-laced diagram is a path (A) or has one branch node (D/E).
    """
    m = len(comp)
    if m == 1:
        return 2
    bonds = [(i, j) for i in comp for j in comp if i < j and cd.A[i][j] != 0]
    mult = max(cd.A[i][j] * cd.A[j][i] for i, j in bonds)
    if mult == 3:
        if m != 2:
            raise InvariantError(f"triple bond in a {m}-vertex subdiagram is not finite-type")
        return 12
    if mult == 2:
        if m == 4:
            i, j = next(p for p in bonds if cd.A[p[0]][p[1]] * cd.A[p[1]][p[0]] == 2)
            others = [v for v in comp if v not in (i, j)]
            # F4 iff the double bond is interior: one extra vertex on each side
            side_i = sum(1 for v in others if cd.A[i][v] != 0)
            side_j = sum(1 for v in others if cd.A[j][v] != 0)
            if side_i == 1 and side_j == 1:
                return 1152
        return (2**m) * factorial(m)
    degree = {v: sum(1 for w in comp if w != v and cd.A[v][w] != 0) for v in comp}
    branch = [v for v in comp if degree[v] == 3]
    if not branch:
        return factorial(m + 1)
    t = branch[0]
    arms = []
    for s in comp:
        if s != t and cd.A[t][s] != 0:
            length, prev, cur = 1, t, s
            while True:
                nxt = [w for w in comp if w not in (prev, cur) and cd.A[cur][w] != 0]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return (2 ** (m - 1)) * factorial(m)
    if arms == [1, 2, 2]:
        return _EXCEPTIONAL_ORDER["E6"]
    if arms == [1, 2, 3]:
        return _EXCEPTIONAL_ORDER["E7"]
    if arms == [1, 2, 4]:
        return _EXCEPTIONAL_ORDER["E8"]
    raise InvariantError(f"subdiagram with arms {arms} is not finite-type")


def parabolic_order(cd: CartanData, generators) -> int:
    """Order of the subgroup generated by the simple reflections s_i, i in generators.

    Indices are 1-based.  The empty set gives the trivial group.
    """
    gens = sorted(set(generators))
    if any(not isinstance(i, int) or i < 1 or i > cd.n for i in gens):
        raise BadIndexSetError(f"generator indices must lie in 1..{cd.n}: {gens}")
    order = 1
    for comp in _connected_components(cd, [i - 1 for i in gens]):
        order *= _irreducible_order(cd, comp)
    return order


def weyl_order(cd: CartanData, excluded=()) -> int:
    """Order of the Weyl group generated by all s_i with i not in excluded."""
    excl = set(excluded)
    if any(not isinstance(i, int) or i < 1 or i > cd.n for i in excl):
        raise BadIndexSetError(f"excluded indices must lie in 1..{cd.n}: {sorted(excl)}")
    return parabolic_order(cd, [i for i in range(1, cd.n + 1) if i not in excl])
