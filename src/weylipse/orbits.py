"""Integral points of the two quadrics: enumeration, orbit seeds, orbit expansion.

The nonnegative integral solutions of the secondary equation are found by a
depth-first search with exact interval pruning.  Writing the constraint as
h^T G h = c with G = detA * diag(k) * Ainv (a positive-definite integer matrix
which is entrywise nonnegative for every catalog type), every partial
assignment of nonnegative coordinates already accounts for a monotone part of
the sum, so a prefix is viable only while its value stays <= c and each new
coordinate ranges over an exactly-computed integer interval.  No floating
point is involved anywhere, so points on the quadric surface cannot be missed.

Orbits of the T_i action on the primary integral points are parametrized by
those solutions h whose candidate minimal vector x_h = Ainv (1 - h) is
integral; the orbit size is |W| / |W_h| with W_h the parabolic subgroup at the
zero coordinates of h.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanData, parabolic_order, weyl_order
from .errors import CapExceededError, InvariantError, NotASolutionError, NotOnEllipsoidError
from .exact import max_shifted_root, solve_shifted_root
from .quadrics import h_vector, primary_form, secondary_form

__all__ = [
    "OrbitRecord",
    "DEFAULT_EXPAND_CAP",
    "enumerate_secondary_nonneg",
    "orbit_seeds",
    "orbit_size",
    "expand_orbit",
]

DEFAULT_EXPAND_CAP = 10_000_000


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: its nonnegative h, minimal vector, size, optional elements."""

    h: tuple[int, ...]
    minimal: tuple[int, ...]
    size: int
    elements: tuple[tuple[int, ...], ...] | None = None


def _scaled_secondary(cd: CartanData) -> tuple[list[list[int]], int]:
    n = cd.n
    g = [[cd.k[i] * cd.adjA[i][j] for j in range(n)] for i in range(n)]
    c = sum(g[i][j] for i in range(n) for j in range(n))
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i] or g[i][j] < 0:
                raise InvariantError(
                    f"scaled secondary matrix of {cd.spec} is not symmetric and nonnegative"
                )
    return g, c


def _dfs_nonneg(g, c, first_values=None):
    """All h >= 0 with sum_ij g_ij h_i h_j == c, coordinate 0 restricted if asked."""
    n = len(g)
    out = []
    h = [0] * n
    cross = [0] * n  # cross[j] = sum over fixed i of g_ij h_i

    def rec(depth, acc):
        gi = g[depth][depth]
        s = cross[depth]
        budget = c - acc
        if depth == n - 1:
            v = solve_shifted_root(gi, s, budget)
            if v is not None:
                h[depth] = v
                out.append(tuple(h))
                h[depth] = 0
            return
        top = max_shifted_root(gi, s, budget)
        values = range(top + 1)
        if depth == 0 and first_values is not None:
            values = [v for v in first_values if v <= top]
        for v in values:
            h[depth] = v
            if v:
                for j in range(depth + 1, n):
                    cross[j] += g[depth][j] * v
            rec(depth + 1, acc + gi * v * v + 2 * s * v)
            if v:
                for j in range(depth + 1, n):
                    cross[j] -= g[depth][j] * v
        h[depth] = 0

    rec(0, 0)
    return out


def _enumerate_slice(args):
    g, c, values = args
    return _dfs_nonneg(g, c, first_values=values)


def enumerate_secondary_nonneg(cd: CartanData, threads: int = 1) -> list[tuple[int, ...]]:
    """The complete list of nonnegative integral secondary solutions, sorted.

    With threads > 1 the search tree is split on the first coordinate and the
    slices run in worker processes; the merged result is identical.
    """
    g, c = _scaled_secondary(cd)
    if threads <= 1 or cd.n == 1:
        sols = _dfs_nonneg(g, c)
    else:
        from concurrent.futures import ProcessPoolExecutor

        top = max_shifted_root(g[0][0], 0, c)
        slices = [(g, c, [v]) for v in range(top + 1)]
        sols = []
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for chunk in pool.map(_enumerate_slice, slices):
                sols.extend(chunk)
    sols.sort()
    form = secondary_form(cd)
    for h in sols:
        if form.value(h) != 0:
            raise InvariantError(
                f"census produced {h}, which is not a secondary solution of {cd.spec}"
            )
    return sols


def _integral_minimal(h, cd: CartanData):
    """x_h = Ainv (1 - h) as an integer tuple, or None when not integral."""
    n = cd.n
    out = []
    for i in range(n):
        num = sum(cd.adjA[i][j] * (1 - h[j]) for j in range(n))
        if num % cd.detA:
            return None
        out.append(num // cd.detA)
    return tuple(out)


def orbit_size(h, cd: CartanData) -> int:
    """|W| / |W_h|, where W_h is generated by the reflections at the zeros of h."""
    h = tuple(h)
    if (
        len(h) != cd.n
        or any(not isinstance(v, int) for v in h)
        or any(v < 0 for v in h)
        or secondary_form(cd).value(h) != 0
    ):
        raise NotASolutionError(
            f"{h} is not a nonnegative integral secondary solution of {cd.spec}"
        )
    stabilizer = parabolic_order(cd, [i + 1 for i, v in enumerate(h) if v == 0])
    order = weyl_order(cd)
    if order % stabilizer:
        raise InvariantError(f"|W_h| = {stabilizer} does not divide |W({cd.spec})| = {order}")
    return order // stabilizer


def orbit_seeds(cd: CartanData, threads: int = 1) -> list[OrbitRecord]:
    """Orbit parameters: solutions h with integral x_h, sorted by minimal vector."""
    records = []
    for h in enumerate_secondary_nonneg(cd, threads=threads):
        minimal = _integral_minimal(h, cd)
        if minimal is None:
            continue
        if primary_form(cd).value(minimal) != 0:
            raise InvariantError(f"minimal vector {minimal} of h = {h} is off the primary quadric")
        records.append(OrbitRecord(h=h, minimal=minimal, size=orbit_size(h, cd)))
    records.sort(key=lambda r: r.minimal)
    return records


def expand_orbit(a, cd: CartanData, cap: int = DEFAULT_EXPAND_CAP) -> list[tuple[int, ...]]:
    """Closure of {a} under all T_i: the full orbit of a, sorted.

    Raises NotOnEllipsoidError if a is not an integral primary solution and
    CapExceededError (discarding all work) if the orbit would exceed cap.
    """
    a = tuple(a)
    if any(not isinstance(v, int) for v in a) or primary_form(cd).value(a) != 0:
        raise NotOnEllipsoidError(f"{a} is not an integral primary solution of {cd.spec}")
    n = cd.n
    columns = tuple(zip(*cd.A))
    seen = {a}
    # each stack entry carries h = 1 - A x; T_i changes it by -h_i A[:, i]
    stack = [(a, h_vector(a, cd))]
    while stack:
        x, h = stack.pop()
        for i in range(n):
            hi = h[i]
            if hi == 0:
                continue
            y = x[:i] + (x[i] + hi,) + x[i + 1 :]
            if y not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        f"orbit of {a} in {cd.spec} exceeds cap {cap}"
                    )
                seen.add(y)
                stack.append((y, tuple(v - hi * c for v, c in zip(h, columns[i]))))
    return sorted(seen)


def _expand_positive_sweep(a, cd: CartanData) -> list[tuple[int, ...]]:
    """Generation variant used as a cross-check: only shift along positive h_i.

    Starting from an orbit minimum this increasing sweep must produce the same
    set as the full closure; tests assert that.
    """
    a = tuple(a)
    n = cd.n
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        h = h_vector(x, cd)
        for i in range(n):
            if h[i] > 0:
                y = x[:i] + (x[i] + h[i],) + x[i + 1 :]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return sorted(seen)
