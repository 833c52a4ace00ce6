"""Self-verification: recompute invariants of every layer at a scale suited to
the requested type and report one PASS/FAIL/SKIP row per check.

A FAIL is a finding, not necessarily a programming error: the agreement of
the two Bruhat constructions is a cross-validation target that the computed
objects are allowed to contradict (they do on A3, B3 and D4); the command
exists precisely to surface such contradictions loudly instead of patching
them away. The E8 census target is a plain correctness check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanData, bilinear, positive_roots, weyl_order
from .exact import mat_vec
from .oracles import exhaustive_word_search, orbit_by_closure, primary_box, primary_solutions_by_box_scan
from .orbits import expand_orbit, _seeds_from, enumerate_secondary_nonneg
from .quadrics import apply_T, h_vector, primary_form, secondary_form, sphere_identity_holds
from .weyl import S_map, build_group_table, p_alpha_b, star
from .ordering import (
    bruhat_from_primary,
    bruhat_from_subwords,
    first_letters,
    reduced_words,
    relation_counts,
)

RNG_SEED = 20260808
RANDOM_POINTS = 1000

# Orbits of the pure E8 census: one per dominant vector of norm |rho|^2 = 620.
# Their sizes sum to 240*sigma_3(310), the norm-620 coefficient of the E8
# theta series E4, so no orbit is missing from these 158.
E8_CENSUS_TARGET = 158

# scale gates
TABLE_GATE = 20_000
EXPAND_SUM_GATE = 20_000
BOX_GATE = 2_000_000
BOX_RANK_GATE = 4
BRUHAT_GATE = 200
EXHAUSTIVE_GROUP_GATE = 48
WORD_SEARCH_GATE = 20_000

# the checks that need the group table, in the order they report
TABLE_CHECKS = (
    "group-bijections", "star-group-axioms", "transfer-integrality",
    "first-letter-exhaustive", "bruhat-implies-componentwise", "bruhat-constructions-agree",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str = ""


def _pass(name, detail=""):
    return CheckResult(name, "PASS", detail)


def _fail(name, detail):
    return CheckResult(name, "FAIL", detail)


def _skip(name, reason):
    return CheckResult(name, "SKIP", reason)


def run_verification(cd: CartanData) -> list[CheckResult]:
    results: list[CheckResult] = []
    n = cd.n
    rng = random.Random(RNG_SEED)
    roots = positive_roots(cd)
    prim = primary_form(cd)
    sec = secondary_form(cd)
    order = weyl_order(cd)

    # -- structural invariants of the Cartan data --
    ok = all(cd.A[i][i] == 2 for i in range(n))
    ok &= all(
        cd.A[i][j] in (0, -1, -2, -3) and (cd.A[i][j] == 0) == (cd.A[j][i] == 0)
        for i in range(n)
        for j in range(n)
        if i != j
    )
    ok &= all(
        cd.k[i] * cd.A[i][j] == cd.k[j] * cd.A[j][i] for i in range(n) for j in range(n)
    )
    ok &= mat_vec(cd.A, cd.delta) == (Fraction(1),) * n
    results.append(
        _pass("cartan-invariants") if ok else _fail("cartan-invariants", "matrix laws broken")
    )

    ok = all(r.grade >= 1 for r in roots) and all(
        (r.grade == 1) == (sum(r.coords) == 1) for r in roots
    )
    results.append(_pass("root-grades") if ok else _fail("root-grades", "grade law broken"))

    # -- quadric identities on random integer points --
    bad = 0
    for _ in range(RANDOM_POINTS):
        x = tuple(rng.randint(-10, 10) for _ in range(n))
        two_delta = cd.two_delta
        shifted = tuple(xi - ti for xi, ti in zip(x, two_delta))
        if 2 * prim.value(x) != bilinear(x, shifted, cd):
            bad += 1
        h = tuple(rng.randint(-10, 10) for _ in range(n))
        u = mat_vec(cd.adjA, tuple(1 - v for v in h))
        v = mat_vec(cd.adjA, tuple(1 + v for v in h))
        eq4_scaled, rem = divmod(bilinear(u, v, cd), cd.detA)
        if rem or sec.value(h) != -eq4_scaled:
            bad += 1
        if sec.value(h_vector(x, cd)) != 2 * cd.detA * prim.value(x):
            bad += 1
    results.append(
        _pass("quadric-identities", f"{RANDOM_POINTS} random points")
        if bad == 0
        else _fail("quadric-identities", f"{bad} mismatches")
    )

    # -- sphere oracle agrees with form membership --
    bad = 0
    for _ in range(200):
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        if (prim.value(x) == 0) != sphere_identity_holds(x, cd):
            bad += 1
    graded = [tuple(r.grade * c for c in r.coords) for r in roots]
    for x in graded + [(0,) * n, cd.two_delta]:
        if prim.value(x) != 0 or not sphere_identity_holds(x, cd):
            bad += 1
    results.append(
        _pass("sphere-membership-oracle") if bad == 0 else _fail("sphere-membership-oracle", f"{bad} points")
    )

    # -- involutions along a random walk on the quadric --
    bad = 0
    x = (0,) * n
    for _ in range(200):
        i = rng.randint(1, n)
        y = apply_T(i, x, cd)
        if apply_T(i, y, cd) != x:
            bad += 1
        if h_vector(y, cd)[i - 1] != -h_vector(x, cd)[i - 1]:
            bad += 1
        x = y
    results.append(
        _pass("involution-walk") if bad == 0 else _fail("involution-walk", f"{bad} violations")
    )

    # -- secondary enumeration basics --
    sols = enumerate_secondary_nonneg(cd)
    all_positive = [h for h in sols if all(v > 0 for v in h)]
    ok = (
        sols == sorted(sols)
        and all(sec.value(h) == 0 and all(v >= 0 for v in h) for h in sols)
        and all_positive == [(1,) * n]
    )
    results.append(
        _pass("secondary-enumeration", f"{len(sols)} solutions")
        if ok
        else _fail("secondary-enumeration", "solution-set laws broken")
    )

    seeds = _seeds_from(cd, sols)
    ok = all(prim.value(r.minimal) == 0 for r in seeds) and sum(
        1 for r in seeds if r.minimal == (0,) * n
    ) == 1
    main = next(r for r in seeds if r.minimal == (0,) * n)
    ok &= main.size == order and main.h == (1,) * n
    ok &= all(order % r.size == 0 for r in seeds)
    results.append(
        _pass("orbit-seeds", f"{len(seeds)} orbits")
        if ok
        else _fail("orbit-seeds", "seed laws broken")
    )

    if str(cd.spec) == "E8":
        found = len(seeds)
        results.append(
            _pass("e8-census-target")
            if found == E8_CENSUS_TARGET
            else _fail(
                "e8-census-target",
                f"census target {E8_CENSUS_TARGET}, computed {found}",
            )
        )

    # -- partition of the box scan into orbits --
    if n > BOX_RANK_GATE:
        results.append(_skip("orbit-partition", f"rank {n} > BOX_RANK_GATE {BOX_RANK_GATE}"))
    elif (volume := math.prod(hi - lo + 1 for lo, hi in zip(*primary_box(cd)))) > BOX_GATE:
        results.append(_skip("orbit-partition", f"box volume {volume} > BOX_GATE {BOX_GATE}"))
    else:
        scan = primary_solutions_by_box_scan(cd)
        union: set[tuple[int, ...]] = set()
        disjoint = True
        for rec in seeds:
            orbit = set(expand_orbit(rec.minimal, cd))
            if union & orbit:
                disjoint = False
            union |= orbit
        ok = disjoint and union == set(scan)
        results.append(
            _pass("orbit-partition", f"{len(scan)} integral solutions")
            if ok
            else _fail("orbit-partition", "box scan does not match disjoint orbit union")
        )

    # -- orbit sizes against expansion; expansion against the plain closure --
    size_sum = sum(r.size for r in seeds)
    if size_sum <= EXPAND_SUM_GATE:
        ok = True
        for rec in seeds:
            elements = expand_orbit(rec.minimal, cd)
            ok &= len(elements) == rec.size
            ok &= all(all(m <= v for m, v in zip(rec.minimal, e)) for e in elements)
            ok &= orbit_by_closure(rec.minimal, cd) == elements
        results.append(
            _pass("orbit-size-law") if ok else _fail("orbit-size-law", "size or closure mismatch")
        )
    else:
        results.append(
            _skip(
                "orbit-size-law",
                f"orbit sizes sum to {size_sum} > EXPAND_SUM_GATE {EXPAND_SUM_GATE}",
            )
        )

    # -- group table, bijections, transferred operation --
    if order <= TABLE_GATE:
        table = build_group_table(cd)
        svecs = {p: S_map(table.elements[p], cd) for p in table.nodes}
        ok = len(set(svecs.values())) == order
        ok &= all(svecs[p] == h_vector(p, cd) for p in table.nodes)
        main_orbit = orbit_by_closure((0,) * n, cd)
        ok &= list(table.nodes) == main_orbit
        ok &= sorted(svecs.values()) == sorted(h_vector(x, cd) for x in main_orbit)
        ok &= sum(1 for s in svecs.values() if all(v >= 0 for v in s)) == 1
        results.append(
            _pass("group-bijections") if ok else _fail("group-bijections", "P/S laws broken")
        )

        if order <= EXHAUSTIVE_GROUP_GATE:
            nodes = table.nodes
            by_pair = {(a, b): star(a, b, table) for a in nodes for b in nodes}
            zero = (0,) * n
            ok = all(by_pair[(zero, b)] == b and by_pair[(b, zero)] == b for b in nodes)
            ok &= all(
                by_pair[(by_pair[(a, b)], c)] == by_pair[(a, by_pair[(b, c)])]
                for a in nodes
                for b in nodes
                for c in nodes
            )
            ok &= all(any(by_pair[(a, b)] == zero for b in nodes) for a in nodes)
            results.append(
                _pass("star-group-axioms") if ok else _fail("star-group-axioms", "axiom broken")
            )

            ok = True
            try:
                for root in roots:
                    for b in nodes:
                        p_alpha_b(root, b, table)
            except Exception as exc:  # surfaced, never swallowed
                ok = False
                detail = str(exc)
            results.append(
                _pass("transfer-integrality")
                if ok
                else _fail("transfer-integrality", detail)
            )
        else:
            reason = f"|W| = {order} > EXHAUSTIVE_GROUP_GATE {EXHAUSTIVE_GROUP_GATE}"
            results.append(_skip("star-group-axioms", reason))
            results.append(_skip("transfer-integrality", reason))

        longest = max(table.lengths())
        words = cd.n**longest
        if words <= WORD_SEARCH_GATE:
            best = exhaustive_word_search(cd, longest)
            ok = True
            for p in table.nodes:
                w = table.elements[p]
                depth, letters, _ = best[p]
                ok &= depth == len(w.word)
                ok &= letters == set(first_letters(w, cd))
                rw = reduced_words(w, cd)
                ok &= rw.length == depth
                ok &= {word[0] for word in rw.words if word} == letters
            results.append(
                _pass("first-letter-exhaustive")
                if ok
                else _fail("first-letter-exhaustive", "descent sets disagree with word search")
            )
        else:
            reason = f"word search {cd.n}^{longest} = {words} > WORD_SEARCH_GATE {WORD_SEARCH_GATE}"
            results.append(_skip("first-letter-exhaustive", reason))

        if order <= BRUHAT_GATE:
            filtered = bruhat_from_primary(table)
            subword = bruhat_from_subwords(table)
            # the componentwise order is transitive, so checking the covers suffices
            ok = all(
                all(x <= y for x, y in zip(subword.nodes[a], subword.nodes[b]))
                for a, b in subword.covers
            )
            results.append(
                _pass("bruhat-implies-componentwise")
                if ok
                else _fail("bruhat-implies-componentwise", "subword order exceeds componentwise order")
            )
            # a finite order has one Hasse diagram: the orders agree iff their covers do
            if filtered.covers == subword.covers:
                results.append(_pass("bruhat-constructions-agree"))
            else:
                n_f, n_s, missing, extra = relation_counts(filtered, subword)
                results.append(
                    _fail(
                        "bruhat-constructions-agree",
                        f"link-filter order has {n_f} relations, subword order {n_s}; "
                        f"missing {missing}, extra {extra}",
                    )
                )
        else:
            reason = f"|W| = {order} > BRUHAT_GATE {BRUHAT_GATE}"
            results.append(_skip("bruhat-implies-componentwise", reason))
            results.append(_skip("bruhat-constructions-agree", reason))
    else:
        reason = f"|W| = {order} > TABLE_GATE {TABLE_GATE}"
        results.extend(_skip(name, reason) for name in TABLE_CHECKS)

    return results
