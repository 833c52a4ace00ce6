"""Self-verification: recompute invariants of every layer at a scale suited to
the requested type and report one PASS/FAIL/SKIP row per check.

A FAIL is a finding, not necessarily a programming error: the agreement of
the two Bruhat constructions is a cross-validation target that the computed
objects are allowed to contradict (they do on A3, B3 and D4); the command
exists precisely to surface such contradictions loudly instead of patching
them away. The E8 census target is a plain correctness check.

`CHECKS` lists the checks in report order as (name, gates, body) rows.  The
gates of a row are names of the scale constants below; `_over` measures the
type against each in turn, with the constant read as it runs, and the first
one exceeded gives the SKIP row.  Otherwise the body returns (ok, detail), or
None where the check does not apply to the type.  One `_Run` holds what the
checks share: the roots, the two forms, |W|, the census and its seeds from the
start; the group table, the subword order, each seed's orbit and the oracle
closure of each start point from first use.  Its one `rng` is drawn from in
report order.

The costly bodies do each piece of work once: `quadric-identities` evaluates
the forms under test once per point and regroups only the reference sides,
`star-group-axioms` reads its axioms off one table of node indices, and
`first-letter-exhaustive` compares whole word sets from one reduced-word search.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache, cached_property
from operator import mul

from .cartan import CartanData, positive_roots, weyl_order
from .exact import mat_vec
from .oracles import (
    exhaustive_word_search,
    orbit_by_closure,
    primary_solutions_by_box_scan,
    sphere_identity_holds,
)
from .orbits import expand_orbit, _seeds_from, enumerate_secondary_nonneg
from .quadrics import apply_T, h_vector, primary_form, secondary_form
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
BOX_RANK_GATE = 4
BRUHAT_GATE = 200
EXHAUSTIVE_GROUP_GATE = 48
WORD_SEARCH_GATE = 20_000


class CheckResult(namedtuple("CheckResult", "name status detail", defaults=("",))):
    """One report row; ``status`` is PASS, FAIL or SKIP."""

    __slots__ = ()


class _Run:
    """What the checks of one `run_verification` share."""

    def __init__(self, cd: CartanData):
        self.cd = cd
        self.rng = random.Random(RNG_SEED)
        self.roots = positive_roots(cd)
        self.prim = primary_form(cd)
        self.sec = secondary_form(cd)
        self.order = weyl_order(cd)
        self.sols = enumerate_secondary_nonneg(cd)
        self.seeds = _seeds_from(cd, self.sols)
        self.orbit = cache(lambda minimal: expand_orbit(minimal, cd))
        self.closure = cache(lambda start: orbit_by_closure(start, cd))

    @cached_property
    def table(self):
        return build_group_table(self.cd)

    @cached_property
    def subword(self):
        return bruhat_from_subwords(self.table)


def _over(run, gate):
    """The SKIP reason "<what> <value> > <gate> <limit>" if the type's measure for
    ``gate``, the name of a scale constant, exceeds it as it reads now; else None."""
    n, longest = run.cd.n, run.cd.positive_root_count  # the length of w0 is |Phi+|
    what, value = {
        "TABLE_GATE": ("|W| =", run.order),
        "EXHAUSTIVE_GROUP_GATE": ("|W| =", run.order),
        "BRUHAT_GATE": ("|W| =", run.order),
        "BOX_RANK_GATE": ("rank", n),
        "EXPAND_SUM_GATE": ("orbit sizes sum to", sum(r.size for r in run.seeds)),
        "WORD_SEARCH_GATE": (f"word search {n}^{longest} =", n**longest),
    }[gate]
    limit = globals()[gate]
    return f"{what} {value} > {gate} {limit}" if value > limit else None


def _cartan_invariants(run):
    cd, n = run.cd, run.cd.n
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
    ok &= mat_vec(cd.A, cd.two_delta) == (2,) * n
    return ok, "" if ok else "matrix laws broken"


def _root_grades(run):
    ok = all(r.grade >= 1 for r in run.roots) and all(
        (r.grade == 1) == (sum(r.coords) == 1) for r in run.roots
    )
    return ok, "" if ok else "grade law broken"


def _quadric_identities(run):
    """Three identities per random point, each form under test evaluated as is.

    The reference sides are regrouped by exact bilinear algebra over gram and
    adjA: <x, x - 2 delta> is x.Gx - x.G(2 delta); with K = adjA^T G adjA, so
    that <adjA h, adjA h> = h.Kh, and G symmetric (checked by `build_cartan`),
    <adjA(1 - h), adjA(1 + h)> is 1.K1 - h.Kh.  Per point, x takes n draws
    and then h takes n.
    """
    cd, n, rng, prim, sec = run.cd, run.cd.n, run.rng, run.prim.value, run.sec.value
    gram, detA = cd.gram, cd.detA
    g_two_delta = mat_vec(gram, cd.two_delta)
    cols = tuple(zip(*cd.adjA))
    adj_gram = tuple(tuple(sum(map(mul, u, mat_vec(gram, v))) for v in cols) for u in cols)
    ones_norm = sum(map(sum, adj_gram))
    bad = 0
    for _ in range(RANDOM_POINTS):
        x = tuple(rng.randint(-10, 10) for _ in range(n))
        h = tuple(rng.randint(-10, 10) for _ in range(n))
        px = prim(x)
        if 2 * px != sum(map(mul, x, mat_vec(gram, x))) - sum(map(mul, x, g_two_delta)):
            bad += 1
        eq4_scaled, rem = divmod(ones_norm - sum(map(mul, h, mat_vec(adj_gram, h))), detA)
        if rem or sec(h) != -eq4_scaled:
            bad += 1
        if sec(h_vector(x, cd)) != 2 * detA * px:
            bad += 1
    return bad == 0, f"{RANDOM_POINTS} random points" if bad == 0 else f"{bad} mismatches"


def _sphere_membership_oracle(run):
    cd, n, prim = run.cd, run.cd.n, run.prim
    bad = 0
    for _ in range(200):
        x = tuple(run.rng.randint(-6, 6) for _ in range(n))
        if (prim.value(x) == 0) != sphere_identity_holds(x, cd):
            bad += 1
    graded = [tuple(r.grade * c for c in r.coords) for r in run.roots]
    for x in graded + [(0,) * n, cd.two_delta]:
        if prim.value(x) != 0 or not sphere_identity_holds(x, cd):
            bad += 1
    return bad == 0, "" if bad == 0 else f"{bad} points"


def _involution_walk(run):
    cd = run.cd
    bad = 0
    x = (0,) * cd.n
    for _ in range(200):
        i = run.rng.randint(1, cd.n)
        y = apply_T(i, x, cd)
        if apply_T(i, y, cd) != x:
            bad += 1
        if h_vector(y, cd)[i - 1] != -h_vector(x, cd)[i - 1]:
            bad += 1
        x = y
    return bad == 0, "" if bad == 0 else f"{bad} violations"


def _secondary_enumeration(run):
    sols, n = run.sols, run.cd.n
    all_positive = [h for h in sols if all(v > 0 for v in h)]
    ok = (
        sols == sorted(sols)
        and all(run.sec.value(h) == 0 and all(v >= 0 for v in h) for h in sols)
        and all_positive == [(1,) * n]
    )
    return ok, f"{len(sols)} solutions" if ok else "solution-set laws broken"


def _orbit_seeds(run):
    seeds, n, order = run.seeds, run.cd.n, run.order
    origin = (0,) * n
    main = next((r for r in seeds if r.minimal == origin), None)
    ok = (
        all(run.prim.value(r.minimal) == 0 for r in seeds)
        and sum(1 for r in seeds if r.minimal == origin) == 1
        and main.size == order
        and main.h == (1,) * n
        and all(order % r.size == 0 for r in seeds)
    )
    return ok, f"{len(seeds)} orbits" if ok else "seed laws broken"


def _e8_census_target(run):
    if str(run.cd.spec) != "E8":
        return None
    found = len(run.seeds)
    ok = found == E8_CENSUS_TARGET
    return ok, "" if ok else f"census target {E8_CENSUS_TARGET}, computed {found}"


def _orbit_partition(run):
    scan = primary_solutions_by_box_scan(run.cd)
    union: set[tuple[int, ...]] = set()
    disjoint = True
    for rec in run.seeds:
        orbit = set(run.orbit(rec.minimal))
        if union & orbit:
            disjoint = False
        union |= orbit
    ok = disjoint and union == set(scan)
    return ok, (
        f"{len(scan)} integral solutions" if ok else "box scan does not match disjoint orbit union"
    )


def _orbit_size_law(run):
    ok = True
    for rec in run.seeds:
        elements = run.orbit(rec.minimal)
        ok &= len(elements) == rec.size
        ok &= all(all(m <= v for m, v in zip(rec.minimal, e)) for e in elements)
        ok &= run.closure(rec.minimal) == elements
    return ok, "" if ok else "size or closure mismatch"


def _group_bijections(run):
    cd, table = run.cd, run.table
    svecs = {p: S_map(table.elements[p], cd) for p in table.nodes}
    ok = len(set(svecs.values())) == run.order
    ok &= all(svecs[p] == h_vector(p, cd) for p in table.nodes)
    main_orbit = run.closure((0,) * cd.n)
    ok &= list(table.nodes) == main_orbit
    ok &= sorted(svecs.values()) == sorted(h_vector(x, cd) for x in main_orbit)
    ok &= sum(1 for s in svecs.values() if all(v >= 0 for v in s)) == 1
    return ok, "" if ok else "P/S laws broken"


def _star_group_axioms(run):
    """Closure, identity, associativity and inverses of `star` on the table's
    nodes, from one product table m[a][b] of node indices."""
    table = run.table
    nodes, index = table.nodes, table.index
    m = [[index.get(star(a, b, table)) for b in nodes] for a in nodes]
    if any(None in row for row in m):
        return False, "closure broken"
    e, every = index[(0,) * run.cd.n], range(len(nodes))
    ok = m[e] == list(every) and all(row[e] == b for b, row in enumerate(m))
    # (ab)c over all c is row ab of m; a(bc) is row a read at the entries of row b
    ok &= all(m[ra[b]] == [ra[bc] for bc in m[b]] for ra in m for b in every)
    ok &= all(e in row for row in m)
    return ok, "" if ok else "axiom broken"


def _transfer_integrality(run):
    table = run.table
    try:
        for root in run.roots:
            for b in table.nodes:
                p_alpha_b(root, b, table)
    except Exception as exc:  # surfaced, never swallowed
        return False, str(exc)
    return True, ""


def _first_letter_exhaustive(run):
    cd, table = run.cd, run.table
    best = exhaustive_word_search(cd, cd.positive_root_count)
    ok = True
    for p in table.nodes:
        w = table.elements[p]
        depth, letters, words = best[p]
        ok &= depth == len(w.word)
        ok &= letters == set(first_letters(w, cd))
        rw = reduced_words(w, cd)
        ok &= rw.length == depth
        ok &= set(rw.words) == words
    return ok, "" if ok else "descent sets disagree with word search"


def _bruhat_implies_componentwise(run):
    subword = run.subword
    # the componentwise order is transitive, so checking the covers suffices
    ok = all(
        all(x <= y for x, y in zip(subword.nodes[a], subword.nodes[b]))
        for a, b in subword.covers
    )
    return ok, "" if ok else "subword order exceeds componentwise order"


def _bruhat_constructions_agree(run):
    filtered, subword = bruhat_from_primary(run.table), run.subword
    # a finite order has one Hasse diagram: the orders agree iff their covers do
    if filtered.covers == subword.covers:
        return True, ""
    n_f, n_s, missing, extra = relation_counts(filtered, subword)
    return False, (
        f"link-filter order has {n_f} relations, subword order {n_s}; "
        f"missing {missing}, extra {extra}"
    )


CHECKS = (
    ("cartan-invariants", (), _cartan_invariants),
    ("root-grades", (), _root_grades),
    ("quadric-identities", (), _quadric_identities),
    ("sphere-membership-oracle", (), _sphere_membership_oracle),
    ("involution-walk", (), _involution_walk),
    ("secondary-enumeration", (), _secondary_enumeration),
    ("orbit-seeds", (), _orbit_seeds),
    ("e8-census-target", (), _e8_census_target),
    ("orbit-partition", ("BOX_RANK_GATE",), _orbit_partition),
    ("orbit-size-law", ("EXPAND_SUM_GATE",), _orbit_size_law),
    ("group-bijections", ("TABLE_GATE",), _group_bijections),
    ("star-group-axioms", ("TABLE_GATE", "EXHAUSTIVE_GROUP_GATE"), _star_group_axioms),
    ("transfer-integrality", ("TABLE_GATE", "EXHAUSTIVE_GROUP_GATE"), _transfer_integrality),
    ("first-letter-exhaustive", ("TABLE_GATE", "WORD_SEARCH_GATE"), _first_letter_exhaustive),
    ("bruhat-implies-componentwise", ("TABLE_GATE", "BRUHAT_GATE"), _bruhat_implies_componentwise),
    ("bruhat-constructions-agree", ("TABLE_GATE", "BRUHAT_GATE"), _bruhat_constructions_agree),
)


def run_verification(cd: CartanData) -> list[CheckResult]:
    """One row per entry of `CHECKS` that applies to the type, in that order."""
    run = _Run(cd)
    results = []
    for name, gates, body in CHECKS:
        reason = next(filter(None, (_over(run, gate) for gate in gates)), None)
        if reason is not None:
            results.append(CheckResult(name, "SKIP", reason))
        elif (outcome := body(run)) is not None:
            ok, detail = outcome
            results.append(CheckResult(name, "PASS" if ok else "FAIL", detail))
    return results
