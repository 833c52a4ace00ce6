"""A fixed kernel that reads the machine's current speed.

The machine this benchmark is tuned on changes speed by up to 70% from one
stretch of seconds to the next (a shared host), which moves every raw time
of a run together.  The benchmark therefore runs this kernel just before
each timed call, on the CPU the call runs on, and reports the call's time
scaled to a reference speed:

    reported = measured * NOMINAL_NS / kernel time just before the call

NOMINAL_NS is the kernel's median time on that machine (2 vCPU Xeon VM,
Python 3.11.7), so reported values stay close to seconds there.  The kernel
is the benchmark's own code and does what the library's hot paths do --
integer matrix products on tuples, dict lookups of tuple keys, small
Fractions -- so a change to weylipse cannot move it.  Raw times go into the
run record beside the scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

NOMINAL_NS = 2_500_000

_A = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))
_DELTA = (Fraction(4), Fraction(7), Fraction(9), Fraction(11, 2))


def _mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n))


def kernel() -> Fraction:
    """Three levels of the B4 group's matrix breadth-first search."""
    n = len(_A)
    gens = [
        tuple(tuple((1 if r == c else 0) - (_A[i][c] if r == i else 0) for c in range(n)) for r in range(n))
        for i in range(n)
    ]
    ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    seen = {ident}
    frontier = [ident]
    acc = Fraction(0)
    for _ in range(3):
        nxt = []
        for m in frontier:
            for g in gens:
                p = _mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    acc += sum(p[0][j] * _DELTA[j] for j in range(n))
        frontier = nxt
    return acc


def kernel_ns() -> int:
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def scale(ns: float, kernel_time_ns: int) -> float:
    """A measured time in ns, scaled to the reference speed."""
    return ns * NOMINAL_NS / kernel_time_ns
