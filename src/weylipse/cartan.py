"""Exact Cartan/Dynkin data for the finite families A-G and their products.

Conventions fixed once for the whole project:

* Vertex numbering follows Bourbaki.  In particular B_n has its short simple
  root last, C_n its long one last, G2 has vertex 1 short and vertex 2 long,
  F4 has vertices 1,2 long and 3,4 short, and the E-family branch node is
  vertex 4 (attached to vertex 2).
* Short roots are normalized to squared length 2, so the vertex weight
  k_i (half the squared length of simple root i) is 1, 2 or 3.
* Cartan data is integer: A, the symmetrized gram, adjA, detA and 2 delta.
  adjA and detA come from a fraction-free sweep per component, and a
  product's block is (detA / det_f) adj_f.  A^-1 is adjA / detA and delta is
  two_delta / 2; no Fraction and no float is made.
* Simple-root indices in the public API are 1-based, matching the usual
  notation s_1 .. s_n; vectors are plain tuples in the simple-root basis.
* Weyl group orders come from root heights (Macdonald, "The Poincare series
  of a Coxeter group", Math. Ann. 199, 1972): for a subdiagram J,
  |W_J| = prod (ht a + 1) / ht a over the positive roots a supported in J.
  The roots are listed by the walk once per type and cached on `CartanData`.

Every W-orbit here is listed by one walk.  A point x carries its pairing
vector h, a quadric point's 1 - A x or a root's -A r; the step at node i
(T_i or s_i) adds h_i to x_i and moves h by -h_i times the sparse column i of
A (`_t_step`).  `_strip_descents` goes down to the orbit's one point with no
descent (no h_i < 0), and `ascend` lists the orbit from it.  Where no h is
carried, `_t_walk` applies a whole word of T_i, each h_i computed over the
sparse row i: it gives P(w) = T_w(0) and w x = T_w(x) - T_w(0).

The ascent walk is fixed by the type: its tests and steps read only the
entries of the sparse view of A.  So `ascend` runs no loop over that view.
On the first walk of a type its rules are written out as straight-line Python
with the entries of A as int literals (`codegen._ascent_source`), compiled by
the one code generator `codegen._generated` and kept as ``CartanData.ascent``,
beside ``sparse`` and ``root_closure``.  Every orbit listing shares it:
`orbits.expand_orbit`, the group table of `weyl.build_group_table` and the
root closure.  The source is linear in the rank plus the number of diagram
edges: a step reads and writes single coordinates, never a whole vector
literal.  `codegen` is imported by that first walk, not by this module, so a
process that only builds Cartan data compiles none of it.

>>> cd = build_cartan(parse_type("B2"))
>>> cd.A
((2, -1), (-2, 2))
>>> cd.two_delta
(3, 4)
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property, wraps
from itertools import compress
from math import gcd, prod
from operator import mul

from .errors import (
    MAX_RANK,
    BadIndexSetError,
    CapExceededError,
    DimensionMismatchError,
    InvariantError,
    NotARootError,
    RankOutOfRangeError,
    UnknownFamilyError,
)
from .exact import Matrix, Vector, mat_vec

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

_TYPE_TOKEN = re.compile(r"([A-Ga-g])([0-9]+)$")


class LieTypeSpec(namedtuple("LieTypeSpec", "components")):
    """An ordered product of irreducible finite types, e.g. A3 or B2xG2.

    ``components`` is a tuple of (family, rank) pairs.
    """

    __slots__ = ()

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
    tokens = text.strip().split("x")
    for pos, token in enumerate(tokens, 1):
        if not token.strip():
            raise UnknownFamilyError(f"type {text!r} has an empty factor {pos} of {len(tokens)}")
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


def _adjugate(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj m, det m) of an integer matrix by fraction-free Gauss-Jordan on [m | I].

    Bareiss (Math. Comp. 22, 1968): step k takes every other row r to
    (p r - r[k] row_k) / p', with p the pivot m_kk as it stands and p' the one
    before, and each division is exact.  The pivots are the leading principal
    minors, positive for a Cartan matrix, so no row is swapped; a pivot <= 0
    raises.  Columns left of k are never read again and those of I right of
    n + k are still zero, so a step updates only columns k+1 .. n+k, and row
    k's own entry at n + k, the scale of its I column so far, is set to p'.
    """
    n = len(m)
    work = [list(row) + [0] * n for row in m]
    before = 1
    for k in range(n):
        pivot_row = work[k]
        pivot_row[n + k] = before
        p = pivot_row[k]
        if p <= 0:
            raise InvariantError(f"leading principal minor {k + 1} of a Cartan matrix is {p}")
        lo, hi = k + 1, n + k + 1
        pivot_seg = pivot_row[lo:hi]
        for i, row in enumerate(work):
            if i != k:
                f = row[k]
                if f:
                    row[lo:hi] = [(p * a - f * b) // before for a, b in zip(row[lo:hi], pivot_seg)]
                else:
                    row[lo:hi] = [p * a // before for a in row[lo:hi]]
        before = p
    return [row[n:] for row in work], before


def sparse_cartan(A: Matrix) -> tuple[tuple, tuple]:
    """The sparse view (rows, cols) of a Cartan matrix A: what one reflection
    step at node i reads of it.

    ``rows[i]`` holds the off-diagonal nonzeros of row i as (j, A_ij), and
    ``cols[i]`` those of column i as (k, A_ki): at most three each, so a step
    costs a few terms, not n.  A_ii = 2, so a step negates coordinate i itself,
    as s_i v_i = -v_i - sum_j A_ij v_j over ``rows[i]``; another diagonal
    entry raises InvariantError.
    """
    n = len(A)
    for i in range(n):
        if A[i][i] != 2:
            raise InvariantError(f"diagonal entry {i + 1} of a Cartan matrix is {A[i][i]}, not 2")
    rows = tuple(tuple((j, a) for j, a in enumerate(A[i]) if a and j != i) for i in range(n))
    cols = tuple(tuple((k, A[k][i]) for k in range(n) if A[k][i] and k != i) for i in range(n))
    return rows, cols


def _strip_descents(x, h, cd: CartanData):
    """(end, h(end), letters k + 1 applied): T_k at the smallest descent k until none is left.

    h is x's pairing vector, a quadric point's 1 - A x or a root's -A r.  The
    step at k adds h_k to x_k, which changes h by -h_k times column k of A:
    h_k becomes -h_k and each h_j of the sparse column k of ``cd.sparse`` drops
    by A_jk h_k, in place.  Each step applies s_k to the vector v that W moves
    (x - delta, or a root r) where v pairs positively with coroot k, lowering
    by one the count of positive roots that do so with v; a descent left
    after |Phi+| steps raises InvariantError.
    """
    _, cols = cd.sparse
    cur, h, word = list(x), list(h), []
    for _ in range(cd.positive_root_count + 1):
        for k, hk in enumerate(h):
            if hk < 0:
                break
        else:
            return tuple(cur), tuple(h), word
        cur[k] += hk
        h[k] = -hk
        for j, a in cols[k]:
            h[j] -= a * hk
        word.append(k + 1)
    raise InvariantError(f"{tuple(x)} has a descent after |Phi+| steps in {cd.spec}")


def _t_step(i, x, h, cd: CartanData):
    """(T_i x, h(T_i x)) for 0-based i, given x's pairing vector h: the step of
    `_strip_descents` on tuples, with h updated over the sparse column i."""
    _, cols = cd.sparse
    hi = h[i]
    y = list(x)
    y[i] += hi
    g = list(h)
    g[i] = -hi
    for k, a in cols[i]:
        g[k] -= a * hi
    return tuple(y), tuple(g)


def _t_walk(word, start, rows) -> tuple[int, ...]:
    """T_{i1}(... T_{ik}(start)), with no h carried: P(s_{i1} ... s_{ik} w) for start = P(w).

    T_i sets x_i to 1 - x_i - sum_{j != i} A_ij x_j over the sparse ``rows``
    of A (`sparse_cartan`), as A_ii = 2.  T_w is affine, T_w(x) = P(w) + w x,
    so the walk from the origin is P(w) and T_w(x) - T_w(0) is w x.
    """
    p = list(start)
    for i in reversed(word):
        i -= 1
        v = 1 - p[i]
        for j, a in rows[i]:
            v -= a * p[j]
        p[i] = v
    return tuple(p)


def ascend(minimal, h, cd: CartanData, visit=None) -> list[tuple[int, ...]]:
    """The orbit of ``minimal``, its point with no descent, in walk order.

    h >= 0 is the pairing vector of ``minimal``, a quadric point's 1 - A x or
    a root's -A r.  Every other point y has one parent, T_k(y) for its
    smallest descent k, so the walk steps from x to y = T_i(x) only when
    h_i(x) > 0 and no k < i is a descent of y.  T_i adds -h_i A_ki >= 0 to
    h_k (k != i), so a descent of y below i is a descent k of x with
    h_k < h_i A_ki.  With k0 the first descent of x, the rule is read off
    without testing every coordinate:

    - each i < k0 with h_i > 0 is a step, as x has no descent below i;
    - an i > k0 must clear k0, which needs A_{k0,i} != 0, so the candidates
      are the neighbours (i, A_{k0,i}) in the sparse row k0 of ``cd.sparse`` with
      h_i > 0 and h_k0 >= h_i A_{k0,i}; a candidate is blocked by any k with
      k0 < k < i and h_k < h_i A_ki (only a descent can pass that test: one
      that is no neighbour of i, or a neighbour that T_i does not clear).

    So the scan of h stops at k0, and no point is looked up or reached twice.
    The points wait on a stack, and the steps from x are pushed in ascending
    i.  A step negates h_i and changes only the h_k of the sparse column i.
    ``visit(x, i, y)`` (i 0-based) is called at each step, after x's own.

    The walk is ``cd.ascent``, straight-line code generated once per type
    (`codegen._ascent_source`), so no rule above is looked up while it runs.
    """
    return cd.ascent(tuple(minimal), list(h), visit)


def _kept(build):
    """``build(cd)``, a per-type kernel, built on cd's first call and kept in its
    instance dict under build's name, beside the cached properties: a copy or
    pickle of cd starts cold, and nothing at module level keeps a type alive.
    Kernels are kept this way, never results."""
    name = build.__name__

    @wraps(build)
    def kept(cd):
        got = cd.__dict__.get(name)
        if got is None:
            got = cd.__dict__[name] = build(cd)
        return got

    return kept


# no __slots__: the cached properties below live in the instance __dict__
class CartanData(namedtuple("CartanData", "spec n A k links gram adjA detA two_delta")):
    """Everything exact about one (product) type; every field is integer.

    ``gram[i][j] = k[i] * A[i][j]`` is the symmetric integer matrix of the
    inner product of simple roots; ``adjA`` is the adjugate of A, with
    A adjA = detA I, and ``two_delta`` = 2 adjA (1, ..., 1) / detA is the sum
    of the positive roots, so <delta, delta> = sum_i k_i two_delta_i / 2.
    ``sparse`` is the sparse view (rows, cols) of A (`sparse_cartan`) that every
    step by one T_i or one s_i reads: the T-walk, descent stripping, the
    ascent walk and the root closure.  ``ascent`` is the generated walk of
    `ascend`.  Cached properties are built on first read and kept in the
    instance dict.  The same dict keeps the per-type kernels of the other
    layers, each built on its first call through `_kept`: the two forms
    (`quadrics.primary_form` and `quadrics.secondary_form`, each with its
    generated ``value``), the generated x_h solve of `orbits._integral_minimal`
    and the orbit sizes of `orbits._orbit_sizes` with their dict of zero-set
    sizes.  A pickle or copy carries the fields alone, so it starts cold.
    """

    def __str__(self) -> str:
        return str(self.spec)

    def __getstate__(self):
        return None  # cached properties and kept kernels, compiled ones too, are rebuilt on a copy

    @cached_property
    def positive_root_count(self) -> int:
        # |Phi+| from the catalog; the root closure checks itself against it
        return sum(POSITIVE_ROOT_COUNT[fam](rank) for fam, rank in self.spec.components)

    @cached_property
    def sparse(self) -> tuple[tuple, tuple]:
        return sparse_cartan(self.A)

    @cached_property
    def ascent(self):
        # the walk of `ascend`, generated and compiled on first use; `codegen`
        # loads only then, so importing this module or `build_cartan` compiles none of it
        from .codegen import _ascent_source, _generated

        return _generated("ascent", "x, h, visit", _ascent_source(self))

    @cached_property
    def root_closure(self) -> RootClosure:
        # built on first use, so `build_cartan` does not pay for it
        return _root_closure(self)


def build_cartan(spec: LieTypeSpec) -> CartanData:
    """Assemble block-diagonal Cartan data for a (product) type.

    Raises CapExceededError, before any other work, if the total rank is over
    MAX_RANK, and InvariantError if a check on the result fails.
    """
    n = spec.rank
    if n > MAX_RANK:
        raise CapExceededError(f"type {spec} has rank {n}, exceeding MAX_RANK {MAX_RANK}")
    a = [[0] * n for _ in range(n)]
    k: list[int] = []
    blocks = []  # (offset, adj_f, det_f) per component
    offset = 0
    for fam, rank in spec.components:
        block, kblock = _component_cartan(fam, rank)
        for i in range(rank):
            a[offset + i][offset : offset + rank] = block[i]
        k.extend(kblock)
        adj_f, det_f = _adjugate(block)
        expected_det = DET_CATALOG[fam](rank)
        if det_f != expected_det:
            message = f"det A of {fam}{rank} in {spec} is {det_f}, expected {expected_det}"
            raise InvariantError(message)
        blocks.append((offset, adj_f, det_f))
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

    # adj of a block-diagonal A: block f is (detA / det_f) adj_f, zero off the blocks
    detA = prod(det_f for _, _, det_f in blocks)
    adj = []
    for offset, adj_f, det_f in blocks:
        scale, pad = detA // det_f, n - offset - len(adj_f)
        adj.extend(tuple([0] * offset + [scale * v for v in row] + [0] * pad) for row in adj_f)
    adjA = tuple(adj)
    if any(v < 0 for row in adjA for v in row):
        raise InvariantError(f"adjugate of {spec} has a negative entry")
    # A adjA = detA I and A two_delta = 2 (1, ..., 1), row i of A read as its
    # diagonal 2 plus its off-diagonal nonzeros
    rows, _ = sparse_cartan(A)
    for i, off in enumerate(rows):
        got = [2 * v for v in adjA[i]]
        for j, a_ij in off:
            got = [g + a_ij * v for g, v in zip(got, adjA[j])]
        if got[i] != detA or any(got[:i]) or any(got[i + 1 :]):
            raise InvariantError(f"A adjA != detA I for {spec} at row {i}")
    two_delta = []
    for i, row in enumerate(adjA):
        t, rem = divmod(2 * sum(row), detA)
        if rem:
            raise InvariantError(f"2 delta of {spec} is not integral at {i}")
        two_delta.append(t)
    for i, off in enumerate(rows):
        if 2 * two_delta[i] + sum(a_ij * two_delta[j] for j, a_ij in off) != 2:
            raise InvariantError(f"A delta != 1 for {spec} at row {i}")

    return CartanData(
        spec=spec,
        n=n,
        A=A,
        k=tuple(k),
        links=links,
        gram=gram,
        adjA=adjA,
        detA=detA,
        two_delta=tuple(two_delta),
    )


def bilinear(x: Vector, y: Vector, cd: CartanData):
    """The inner product x^T gram y; exact, integer-valued on integer input."""
    if len(x) != cd.n or len(y) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vectors, got {len(x)} and {len(y)}")
    return sum(map(mul, x, mat_vec(cd.gram, y)))


class Root(namedtuple("Root", "coords grade length_sq")):
    """A positive root in simple-root coordinates with its grade and squared length."""

    __slots__ = ()


class RootClosure(namedtuple("RootClosure", "roots positive support_heights")):
    """The roots of a type: the W-orbits of the simple roots, listed by the walk.

    ``roots`` maps every root to its squared length.  ``positive`` is sorted
    by coordinates; ``support_heights[r]`` is the bitmask of the nodes in the
    support of ``positive[r]`` and its height.
    """

    __slots__ = ()


def _root_closure(cd: CartanData) -> RootClosure:
    n, A = cd.n, cd.A
    # a root r with h = -A r steps as a quadric point does, s_i r = r + h_i e_i:
    # a simple root not listed yet is stripped to the lowest root of its orbit,
    # the orbit is listed from there, and its roots keep that simple root's length
    roots = {}
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        if e not in roots:
            lowest, h, _ = _strip_descents(e, tuple(-row[i] for row in A), cd)
            roots.update(dict.fromkeys(ascend(lowest, h, cd), cd.gram[i][i]))
    # every root is primitive, since W acts unimodularly on the root lattice;
    # the root-multiple test of `ordering.bruhat_from_primary` relies on it
    for r in roots:
        if gcd(*r) != 1:
            raise InvariantError(f"root {r} of {cd.spec} is not primitive")
    pos = sorted(r for r in roots if min(r) >= 0)
    expected = cd.positive_root_count
    if len(roots) != 2 * len(pos) or len(pos) != expected:
        raise InvariantError(
            f"{cd.spec} has {len(roots)} roots, {len(pos)} positive; expected {expected} positive"
        )
    bits = [1 << i for i in range(n)]
    return RootClosure(
        roots=roots,
        positive=tuple(Root(r, _grade_of(r, roots[r], cd), roots[r]) for r in pos),
        support_heights=tuple((sum(compress(bits, r)), sum(r)) for r in pos),
    )


def _grade_of(coords: tuple[int, ...], length_sq: int, cd: CartanData) -> int:
    # 2<alpha, delta> / <alpha, alpha>; <e_i, delta> = k_i makes the numerator integral
    g, rem = divmod(2 * sum(map(mul, coords, cd.k)), length_sq)
    if rem:
        raise InvariantError(f"grade of {coords} is not an integer")
    return g


def positive_roots(cd: CartanData) -> tuple[Root, ...]:
    """All positive roots, sorted lexicographically by coordinates.

    Listed by the walk over the W-orbits of the simple roots.
    """
    return cd.root_closure.positive


def grade(coords: tuple[int, ...], cd: CartanData) -> int:
    """The integer 2<alpha,delta>/<alpha,alpha> of a root; negated for -alpha."""
    coords = tuple(coords)
    length_sq = cd.root_closure.roots.get(coords)
    if length_sq is None:
        raise NotARootError(f"{coords} is not a root of {cd.spec}")
    return _grade_of(coords, length_sq, cd)


def parabolic_order(cd: CartanData, generators) -> int:
    """Order of the subgroup W_J generated by the simple reflections s_i, i in J = generators.

    Indices are 1-based.  The empty set gives the trivial group.  The order is
    the product of (ht a + 1) / ht a over the positive roots a supported in J.
    """
    gens = sorted(set(generators))
    if any(not isinstance(i, int) or i < 1 or i > cd.n for i in gens):
        raise BadIndexSetError(f"generator indices must lie in 1..{cd.n}: {gens}")
    outside = ~sum(1 << (i - 1) for i in gens)
    num = den = 1
    for support, height in cd.root_closure.support_heights:
        if not support & outside:
            num *= height + 1
            den *= height
    order, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"root-height product of W_{gens} in {cd.spec} is {num}/{den}")
    return order


def weyl_order(cd: CartanData) -> int:
    """Order of the Weyl group generated by all s_i."""
    return parabolic_order(cd, range(1, cd.n + 1))
