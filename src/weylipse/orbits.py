"""Integral points of the two quadrics: enumeration, orbit seeds, orbit expansion.

The nonnegative integral solutions of the secondary equation are found by a
depth-first search with exact interval pruning.  Writing the constraint as
h^T G h = c with G = detA * diag(k) * Ainv (a positive-definite integer matrix
which is entrywise nonnegative for every catalog type), each node carries the
budget b >= 0 that its prefix of nonnegative coordinates leaves.  With g = G_ii
and s >= 0 the cross term of the prefix, the next coordinate t ranges over
g t^2 + 2 s t <= b, i.e. (g t + s)^2 <= s^2 + g b; as g t + s is an integer,
the largest t is exactly (isqrt(s^2 + g b) - s) // g, with nothing to adjust.
The last coordinate is not searched: it is the one nonnegative root of a
quadratic with linear coefficient 2 s >= 0, which one integer square root
settles.  Every quantity a node's loop over t needs is a polynomial in t of
degree at most two, so it is stepped by its differences, not recomputed: the
child budget b - g t^2 - 2 s t, the discriminant of the last coordinate's
quadratic at the depth before it, and the cross terms of the coordinates
after the node, which move by the nonzero couplings only.  The coordinates
are searched factor by factor (the connected components of G), the factors in
descending order of their largest G_ii and each factor in descending order of
G_ii, so the tightest ranges of a factor come first; the order only permutes a
nonnegative G, so every bound above stays exact.  The solutions of the last
two coordinates depend only on the budget their prefix leaves and on its two
cross terms, so each such state is solved once; most nodes of the search sit
there.  After each factor of a product type every cross term is zero, so the
rest is solved once per budget left.  The solutions are mapped back to the
original coordinates and sorted once, into lexicographic order.  No floating
point is involved anywhere, so points on the quadric surface cannot be missed.
Each solution is then checked against the dense secondary form by its
generated `QuadForm.value`, which shares nothing with the search.

Orbits of the T_i action on the primary integral points are parametrized by
those solutions h whose candidate minimal vector x_h = Ainv (1 - h) is
integral; the orbit size is |W| / |W_h| with W_h the parabolic subgroup at the
zero coordinates of h.  One `orbit_seeds` call is one pass over the census.
What a pass reads of the type is built on the type's first pass and kept on
its `CartanData` (`cartan._kept`): the two quadrics with their generated
``value``, |W| with the orbit sizes, and the solve of x_h along the Dynkin
diagram, a forest.  Every later pass, `orbit_size` and `expand_orbit` read the
same kernels; each call still runs the search and checks every row and every
seed.  x_h is read from adjA at all leaves but one of each tree and from one
equation of A x = 1 - h per other node, so a row costs about one adjA row per
tree, not one per coordinate; the solve is generated once per type, as
straight-line code that returns None at the first remainder.  Each integral
x_h is then checked on the primary quadric by the kept primary form's
``value``, which reads the point alone, not the h it was solved from.  |W_h|
is the product of the orders of the connected components of the zero set of
h, each component's order computed once per type, and is checked to divide
|W| once per distinct zero set.  `expand_orbit` knows that size before it
lists the orbit by the canonical ascent walk from its minimum.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, islice
from math import isqrt
from operator import eq, itemgetter, not_

from .cartan import CartanData, _kept, _strip_descents, ascend, parabolic_order, weyl_order
from .codegen import _generated, _literal, _sum_source
from .errors import (
    DEFAULT_EXPAND_CAP,
    CapExceededError,
    DimensionMismatchError,
    InvariantError,
    NotASolutionError,
    NotOnEllipsoidError,
)
from .quadrics import _lex_sort, h_vector, primary_form, secondary_form

__all__ = [
    "OrbitRecord",
    "DEFAULT_EXPAND_CAP",
    "enumerate_secondary_nonneg",
    "orbit_seeds",
    "orbit_size",
    "expand_orbit",
]


class OrbitRecord(namedtuple("OrbitRecord", "h minimal size elements", defaults=(None,))):
    """One orbit: its nonnegative h, minimal vector, size, optional elements."""

    __slots__ = ()


def _dfs_nonneg(g, c):
    """All h >= 0 with sum_ij g_ij h_i h_j == c, in lexicographic order.

    The coordinates are searched factor by factor (the connected components of
    g's nonzero entries), each factor in descending order of g_ii and the
    factors in descending order of their largest g_ii, ties in index order.
    The solutions are mapped back to the input's coordinates and sorted once.

    The last two coordinates (the pair) have the same solutions under every
    prefix that leaves them the same state: the child budget and the cross term
    of each.  So each state is solved once, inside the loop of the coordinate
    before them, and its solutions are kept in a dict local to the call.  The
    factor-boundary memo is the same rule with every cross term zero: at a depth
    where no entry of g couples the coordinates before it to those from it on,
    the tails are searched once per (depth, budget).

    A node at depth d with budget b and cross term s loops over v = 0..top and
    steps each quantity by its differences, with no product in v:

    - the child budget b - g_dd v^2 - 2 s v falls by ``step``, which starts at
      g_dd + 2 s and grows by 2 g_dd; ``budget`` itself is left as it is, since
      it keys the memo;
    - the cross terms of the coordinates j > d rise by g_dj per v, over the
      nonzero couplings ``ahead[d]`` only, and drop by (top + 1) g_dj once after
      the loop; the pair's parent steps its two cross terms as locals;
    - in the pair, the discriminant s_u^2 + g_last rest(u) of the last
      coordinate's quadratic, with s_u = s_t + g_cross u, has second
      difference 2 (g_cross^2 - g_last g_pen), so each u costs one isqrt and
      three additions.
    """
    n = len(g)
    last = n - 1
    if last == 0:
        v = isqrt(c // g[0][0])  # the one candidate root v >= 0 of g_00 v^2 == c
        return [(v,)] if g[0][0] * v * v == c else []
    factors, seen = [], set()
    for start in range(n):
        if start not in seen:
            factor = [start]
            seen.add(start)
            for i in factor:  # grows as the search reaches new coordinates
                for j in range(n):
                    if g[i][j] and j not in seen:
                        seen.add(j)
                        factor.append(j)
            factors.append(sorted(factor, key=lambda i: (-g[i][i], i)))
    factors.sort(key=lambda f: -g[f[0]][f[0]])  # stable: ties keep their first coordinate's order
    axes = [i for f in factors for i in f]
    g = [[g[i][j] for j in axes] for i in axes]
    pen = last - 1  # the pair is (pen, last)
    g_pen, g_cross, g_last = g[pen][pen], g[pen][last], g[last][last]
    # split[d]: d < pen is a factor boundary (one at pen is keyed in ``pairs``).  A
    # first visit at (d, budget) appends its solutions under the current prefix,
    # and their tails are kept for the next prefix.
    split = [
        0 < d < pen and not any(g[i][j] for i in range(d) for j in range(d, n))
        for d in range(n)
    ]
    # ahead[d]: the nonzero couplings (j, g_dj) of d to the coordinates after it
    ahead = [[(j, g[d][j]) for j in range(d + 1, n) if g[d][j]] for d in range(n)]
    memo, pairs, out = {}, {}, []
    h = [0] * n
    cross = [0] * n  # cross[j] = sum over fixed i of g_ij h_i

    def pair(budget, s, s_t):
        """(u, t) >= 0 with g_pen u^2 + 2 g_cross u t + g_last t^2 + 2 s u + 2 s_t t == budget."""
        # at each u, with s_t stepped by g_cross per u, t solves g_last t^2 + 2 s_t t == rest(u):
        # t = (r - s_t) / g_last with r^2 = disc = s_t^2 + g_last rest(u).  u <= top
        # keeps rest(u) >= 0, so disc >= s_t^2 >= 0 and r >= s_t >= 0.
        top = (isqrt(s * s + g_pen * budget) - s) // g_pen
        disc = s_t * s_t + g_last * budget
        curve = g_cross * g_cross - g_last * g_pen
        step = curve + 2 * (s_t * g_cross - g_last * s)
        curve *= 2
        found = []
        for u in range(top + 1):
            r = isqrt(disc)
            if r * r == disc and not (r - s_t) % g_last:
                found.append((u, (r - s_t) // g_last))
            disc += step
            step += curve
            s_t += g_cross
        return found

    def rec(depth, budget):
        if split[depth]:
            tails = memo.get((depth, budget))
            if tails is not None:
                head = tuple(h[:depth])
                out.extend([head + t for t in tails])
                return
            mark = len(out)
        gi = g[depth][depth]
        s = cross[depth]
        top = (isqrt(s * s + gi * budget) - s) // gi
        rest, step, curve = budget, gi + 2 * s, 2 * gi
        if depth == pen - 1:  # the pair's parent: one dict lookup per v
            s_u, s_t = cross[pen], cross[last]
            g_u, g_t = g[depth][pen], g[depth][last]
            for v in range(top + 1):
                key = (rest, s_u, s_t)
                tails = pairs.get(key)
                if tails is None:
                    tails = pairs[key] = pair(rest, s_u, s_t)
                if tails:
                    head = (*h[:depth], v)
                    out.extend([head + t for t in tails])
                rest -= step
                step += curve
                s_u += g_u
                s_t += g_t
        else:
            row = ahead[depth]
            for v in range(top + 1):
                h[depth] = v
                rec(depth + 1, rest)
                rest -= step
                step += curve
                for j, gj in row:
                    cross[j] += gj
            for j, gj in row:
                cross[j] -= (top + 1) * gj
            h[depth] = 0
        if split[depth]:
            memo[depth, budget] = [t[depth:] for t in out[mark:]]

    if pen:
        rec(0, c)
    else:
        out.extend(pair(c, 0, 0))
    unpermute = itemgetter(*sorted(range(n), key=axes.__getitem__))
    return sorted(map(unpermute, out))


def enumerate_secondary_nonneg(cd: CartanData) -> list[tuple[int, ...]]:
    """The complete list of nonnegative integral secondary solutions, in lexicographic order."""
    form = secondary_form(cd)
    # value(h) = h^T g h - c for g = quad / 2 = k_i adjA_ij (checked symmetric by QuadForm)
    # and c = -constant
    g = [[q // 2 for q in row] for row in form.quad]
    if any(v < 0 for row in g for v in row):
        raise InvariantError(f"scaled secondary matrix of {cd.spec} is not nonnegative")
    sols = _dfs_nonneg(g, -form.constant)
    value = form.value  # generated from the form's fields alone, once per type
    for h in sols:
        if value(h) != 0:
            raise InvariantError(
                f"census produced {h}, which is not a secondary solution of {cd.spec}"
            )
    return sols


def _forest_plan(cd: CartanData):
    """The solve of A x = 1 - h along the Dynkin diagram: (starts, steps).

    Each tree is rooted at its first leaf.  x_c is read from adjA at each leaf
    c of the rooted tree, as (sum of adjA row c - adjA row c . h) / detA; these
    are the ``starts`` (i, adjA row i, its sum), all leaves but the root, or
    the one node of a single-node tree.  Every other x_p comes from equation c
    of A x = 1 - h at one child c of p, 2 x_c + sum_m A_cm x_m = 1 - h_c, once
    x_c and the x_m of c's own children are known: the ``steps``
    (p, c, A_cp, the other (m, A_cm) of the sparse row c), children before
    parents.  A diagram with a cycle has no such solve and raises
    InvariantError; a Cartan matrix of finite type has none.
    """
    rows, _ = cd.sparse
    parent = [None] * cd.n
    starts, steps, solved = [], [], set()
    for root in range(cd.n):
        if parent[root] is not None or len(rows[root]) > 1:
            continue
        parent[root] = root
        order = [root]
        for c in order:  # grows as the walk reaches new nodes
            for m, _ in rows[c]:
                if parent[m] is None:
                    parent[m] = c
                    order.append(m)
                elif m != parent[c]:
                    raise InvariantError(f"the Dynkin diagram of {cd.spec} has a cycle")
        for c in reversed(order):
            p = parent[c]
            if c not in solved:  # no child of c gives x_c: c is a leaf
                starts.append((c, cd.adjA[c], sum(cd.adjA[c])))
            if p != c and p not in solved:
                solved.add(p)
                (a,) = [a for m, a in rows[c] if m == p]
                steps.append((p, c, a, [(m, b) for m, b in rows[c] if m != p]))
    if None in parent:  # a tree with no leaf
        raise InvariantError(f"the Dynkin diagram of {cd.spec} has a cycle")
    return starts, steps


@_kept
def _integral_minimal(cd: CartanData):
    """x_h = Ainv (1 - h) by the `_forest_plan` of cd, as one generated function
    of h that returns None at the first remainder, built once per type and kept on cd.

    A start divides by detA, and only where detA > 1.  A step divides by A_cp,
    which is -1 unless c is the short end of a multiple edge (k_c < k_p), where
    it is -2 or -3: a step by -1 negates, the others test the remainder first.
    """
    starts, steps = _forest_plan(cd)
    det = cd.detA
    hs = [f"h{i}" for i in range(cd.n)]
    xs = [f"x{i}" for i in range(cd.n)]
    lines = [f"{', '.join(hs)}, = h"]

    def divide(i, terms, d):
        if d == -1:
            lines.append(f"{xs[i]} = {_sum_source([(-c, e) for c, e in terms])}")
        elif d == 1:
            lines.append(f"{xs[i]} = {_sum_source(terms)}")
        else:
            d = _literal(d)
            lines.extend([f"t = {_sum_source(terms)}", f"if t % {d}:", "    return None"])
            lines.append(f"{xs[i]} = t // {d}")

    for i, row, total in starts:
        divide(i, [(total, None), *((-a, hj) for a, hj in zip(row, hs))], det)
    for p, c, a, terms in steps:
        divide(p, [(1, None), (-1, hs[c]), (-2, xs[c]), *((-b, xs[m]) for m, b in terms)], a)
    lines.append(f"return ({', '.join(xs)},)")
    return _generated("minimal", "h", lines)


@_kept
def _orbit_sizes(cd: CartanData):
    """h -> |W| / |W_h| for checked solutions h, built once per type and kept on cd.

    |W_h| is the product of |W_J| over the connected components J of the zero
    set of h in the Dynkin diagram; each component's order and each zero set's
    size are kept in dicts that live as long as the returned function, so the
    check that |W_h| divides |W| runs once per distinct zero set of the type.
    """
    order = weyl_order(cd)
    rows, _ = cd.sparse
    indices = range(cd.n)
    sizes: dict[tuple[int, ...], int] = {}
    orders: dict[tuple[int, ...], int] = {}

    def size_at(h) -> int:
        zeros = tuple(compress(indices, map(not_, h)))
        size = sizes.get(zeros)
        if size is None:
            stabilizer, left = 1, set(zeros)
            for i in zeros:
                if i in left:
                    left.remove(i)
                    part = [i]
                    for c in part:  # grows as the walk reaches the rest of the component
                        for m, _ in rows[c]:
                            if m in left:
                                left.remove(m)
                                part.append(m)
                    part = tuple(sorted(part))
                    part_order = orders.get(part)
                    if part_order is None:
                        part_order = orders[part] = parabolic_order(cd, [j + 1 for j in part])
                    stabilizer *= part_order
            if order % stabilizer:
                raise InvariantError(
                    f"|W_h| = {stabilizer} does not divide |W({cd.spec})| = {order}"
                )
            size = sizes[zeros] = order // stabilizer
        return size

    return size_at


def orbit_size(h, cd: CartanData) -> int:
    """|W| / |W_h|, where W_h is generated by the reflections at the zeros of h."""
    h = tuple(h)
    if len(h) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vector, got {len(h)}")
    if not all(isinstance(v, int) and v >= 0 for v in h) or secondary_form(cd).value(h):
        raise NotASolutionError(f"{h} is not a nonnegative integral secondary solution of {cd.spec}")
    return _orbit_sizes(cd)(h)


def orbit_seeds(cd: CartanData) -> list[OrbitRecord]:
    """Orbit parameters: solutions h with integral x_h, sorted by minimal vector."""
    return _seeds_from(cd, enumerate_secondary_nonneg(cd))


def _seeds_from(cd: CartanData, sols) -> list[OrbitRecord]:
    """`orbit_seeds` over ``sols``, the output of `enumerate_secondary_nonneg(cd)`."""
    size_at, minimal_of, primary = _orbit_sizes(cd), _integral_minimal(cd), primary_form(cd).value
    records = []
    # the census has checked every h against the secondary form before its size is recorded
    for h in sols:
        minimal = minimal_of(h)
        if minimal is None:
            continue
        if primary(minimal):
            raise InvariantError(f"minimal vector {minimal} of h = {h} is off the primary quadric")
        records.append(OrbitRecord(h=h, minimal=minimal, size=size_at(h)))
    records.sort(key=lambda r: r.minimal)
    return records


def expand_orbit(a, cd: CartanData, cap: int = DEFAULT_EXPAND_CAP) -> list[tuple[int, ...]]:
    """The full orbit of a under all T_i, sorted: the ascent walk from a's orbit minimum.

    Raises NotOnEllipsoidError if a is not an integral primary solution,
    CapExceededError before the walk if the orbit size |W| / |W_h| exceeds
    cap, and InvariantError unless the walk lists that many distinct points.
    """
    a = tuple(a)
    if len(a) != cd.n:
        raise DimensionMismatchError(f"expected {cd.n}-vector, got {len(a)}")
    if any(not isinstance(v, int) for v in a) or primary_form(cd).value(a):
        raise NotOnEllipsoidError(f"{a} is not an integral primary solution of {cd.spec}")
    minimal, h, _ = _strip_descents(a, h_vector(a, cd), cd)
    size = _orbit_sizes(cd)(h)
    if size > cap:
        raise CapExceededError(f"orbit of {a} in {cd.spec} has {size} points, exceeding cap {cap}")
    points = ascend(minimal, h, cd)
    _lex_sort(points, cd.n)
    if len(points) != size or any(map(eq, points, islice(points, 1, None))):
        raise InvariantError(f"walk from {minimal} in {cd.spec}: not {size} distinct points")
    return points
