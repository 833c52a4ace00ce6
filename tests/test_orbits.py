import copy
import pickle
from collections import Counter
from itertools import combinations

import pytest

from weylipse import (
    CapExceededError,
    DimensionMismatchError,
    InvariantError,
    NotASolutionError,
    NotOnEllipsoidError,
    apply_T,
    build_cartan,
    enumerate_secondary_nonneg,
    expand_orbit,
    h_vector,
    orbit_seeds,
    orbit_size,
    parse_type,
    positive_roots,
    secondary_form,
    weyl_order,
)
from weylipse.cartan import ascend
from weylipse.oracles import orbit_by_closure, sphere_identity_holds

from oracles import (
    e8_dominant_count_euclid,
    primary_solutions_by_box_scan,
    secondary_nonneg_by_box_scan,
)

SMALL = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "B2xA1"]
RANK4 = ["A4", "B4", "C4", "D4", "F4", "B2xG2"]


def cd_of(text):
    return build_cartan(parse_type(text))


# --- enumeration of nonnegative secondary solutions ---


def test_enumerate_examples():
    assert enumerate_secondary_nonneg(cd_of("A1")) == [(1,)]
    assert enumerate_secondary_nonneg(cd_of("A2")) == [(1, 1)]


@pytest.mark.parametrize("text", SMALL + RANK4 + ["D5", "E6"])
def test_enumerate_matches_box_scan(text):
    cd = cd_of(text)
    found = enumerate_secondary_nonneg(cd)
    assert found == secondary_nonneg_by_box_scan(cd)
    form = secondary_form(cd)
    for h in found:
        assert form.value(h) == 0 and all(v >= 0 for v in h)
    # the all-ones vector is always the unique all-positive solution
    assert [h for h in found if all(v > 0 for v in h)] == [(1,) * cd.n]


@pytest.mark.parametrize("left,right", [("E8", "A1"), ("G2", "B2")])
def test_census_of_a_product_is_invariant_under_swapping_factors(left, right):
    # left x right has the coordinates of left first; right x left has them last
    m = cd_of(left).n

    def swap(v):
        return v[m:] + v[:m]

    ab, ba = cd_of(f"{left}x{right}"), cd_of(f"{right}x{left}")
    assert enumerate_secondary_nonneg(ba) == sorted(map(swap, enumerate_secondary_nonneg(ab)))
    swapped = sorted(
        ((swap(r.h), swap(r.minimal), r.size) for r in orbit_seeds(ab)), key=lambda t: t[1]
    )
    assert [(r.h, r.minimal, r.size) for r in orbit_seeds(ba)] == swapped


# --- seeds ---


def test_seed_examples():
    a1 = orbit_seeds(cd_of("A1"))
    assert len(a1) == 1 and a1[0].h == (1,) and a1[0].minimal == (0,) and a1[0].size == 2

    a2 = orbit_seeds(cd_of("A2"))
    assert len(a2) == 1 and a2[0].h == (1, 1) and a2[0].minimal == (0, 0) and a2[0].size == 6


def test_seed_integrality_filter_b4():
    cd = cd_of("B4")
    raw = enumerate_secondary_nonneg(cd)
    assert len(raw) == 5
    seeds = orbit_seeds(cd)
    kept = {r.h for r in seeds}
    assert kept == {(0, 0, 1, 3), (1, 1, 1, 1), (4, 0, 0, 1)}
    dropped = set(raw) - kept
    assert dropped == {(1, 0, 0, 4), (2, 1, 1, 0)}
    # dropped h really have non-integral candidate minima
    for h in dropped:
        nums = [
            sum(cd.adjA[i][j] * (1 - h[j]) for j in range(cd.n)) for i in range(cd.n)
        ]
        assert any(v % cd.detA for v in nums)
    assert [r.minimal for r in seeds] == sorted(r.minimal for r in seeds)


def test_seeds_product_type():
    cd = cd_of("B2xA1")
    seeds = orbit_seeds(cd)
    assert [(r.h, r.minimal, r.size) for r in seeds] == [
        ((1, 1, 1), (0, 0, 0), 16),
        ((0, 1, 3), (1, 1, -1), 8),
    ]


def test_seeds_refuse_a_minimal_vector_off_the_primary_quadric(monkeypatch):
    import weylipse.orbits as orbits

    real = orbits._integral_minimal

    def shifted(cd):
        minimal_of = real(cd)

        def minimal(h):
            # a shift by e_1 would land on T_1(0) = e_1, which is on the quadric; 2 e_1 is not
            x = minimal_of(h)
            return None if x is None else (x[0] + 2, *x[1:])

        return minimal

    # a solve already kept on cd, as an earlier pass leaves it, must not hide the patch
    cd = cd_of("B3")
    orbit_seeds(cd)
    assert "_integral_minimal" in vars(cd)
    monkeypatch.setattr(orbits, "_integral_minimal", shifted)
    with pytest.raises(InvariantError, match=r"\(2, 0, 0\) of h = \(1, 1, 1\) is off the primary"):
        orbit_seeds(cd)


@pytest.mark.parametrize("text", SMALL + RANK4 + ["E6xA3"])
def test_seed_invariants(text):
    cd = cd_of(text)
    order = weyl_order(cd)
    seeds = orbit_seeds(cd)
    assert sum(1 for r in seeds if r.h == (1,) * cd.n) == 1
    for rec in seeds:
        assert sphere_identity_holds(rec.minimal, cd)
        assert h_vector(rec.minimal, cd) == rec.h
        assert order % rec.size == 0
        assert rec.size == orbit_size(rec.h, cd)
    main = next(r for r in seeds if r.h == (1,) * cd.n)
    assert main.minimal == (0,) * cd.n and main.size == order


def test_seeds_build_per_type_work_once(monkeypatch):
    import weylipse.orbits as orbits
    from weylipse.quadrics import QuadForm

    calls = {"parabolic_order": 0, "secondary_form": 0}

    def counting(name):
        real = getattr(orbits, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(orbits, name, counting(name))
    # every form built, primary or secondary, whatever module builds it
    forms = []
    real_new = QuadForm.__new__
    monkeypatch.setattr(QuadForm, "__new__", lambda *a, **k: forms.append(a) or real_new(*a, **k))
    cd = cd_of("E7xA2")
    seeds = orbit_seeds(cd)
    zero_sets = {frozenset(i for i, v in enumerate(r.h) if v == 0) for r in seeds}
    assert len(seeds) > len(zero_sets)
    # |W_h| is a product over the connected components of the zero set in the
    # diagram, and each component's order is computed once per type
    parts = set()
    for zeros in zero_sets:
        left = set(zeros)
        while left:
            part = {left.pop()}
            grown = True
            while grown:
                near = {j for j in left if any(cd.A[i][j] for i in part)}
                left -= near
                part |= near
                grown = bool(near)
            parts.add(frozenset(part))
    assert calls["parabolic_order"] == len(parts) < len(zero_sets)
    assert calls["secondary_form"] <= 2 and len(forms) <= 2
    # a second pass on the same type reads the kept kernels: no form, no order
    orders, built = calls["parabolic_order"], len(forms)
    assert orbit_seeds(cd) == seeds
    assert (calls["parabolic_order"], len(forms)) == (orders, built)


# --- per-type kernels, kept on CartanData: compiled once, results fresh on every call ---

# each entry point on a fresh type, and what its first call compiles, in order:
# the forms' value, the x_h solve and the ascent walk (|W| reads the root closure)
SECOND_CALLS = {
    "enumerate_secondary_nonneg": (enumerate_secondary_nonneg, ["value"]),
    "orbit_seeds": (orbit_seeds, ["value", "ascent", "minimal", "value"]),
    "orbit_size": (lambda cd: orbit_size((1,) * cd.n, cd), ["value", "ascent"]),
    "expand_orbit": (lambda cd: expand_orbit((0,) * cd.n, cd), ["value", "ascent"]),
    "apply_T": (lambda cd: [apply_T(i, (0,) * cd.n, cd) for i in range(1, cd.n + 1)], ["value"]),
}
KEPT = {"primary_form", "secondary_form", "_integral_minimal", "_orbit_sizes", "ascent"}


@pytest.mark.parametrize("name", SECOND_CALLS)
def test_a_second_call_compiles_nothing_and_returns_a_fresh_result(name, compiled):
    call, first_compiles = SECOND_CALLS[name]
    cd = cd_of("G2xA1")
    first = call(cd)
    assert compiled == first_compiles
    second = call(cd)
    assert compiled == first_compiles
    assert second == first
    if isinstance(first, list):
        # kernels are kept, results are not: each call builds a new list
        assert second is not first
        expected = list(first)
        first.clear()
        second.append(None)
        assert call(cd) == expected
    assert compiled == first_compiles


def test_copies_and_new_builds_of_a_type_start_cold_and_agree():
    cd = cd_of("B3")
    results = [call(cd) for call, _ in SECOND_CALLS.values()]
    assert KEPT <= set(vars(cd))
    pickles = [pickle.loads(pickle.dumps(cd, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*pickles, copy.copy(cd), copy.deepcopy(cd), cd_of("B3")]:
        assert twin == cd and vars(twin) == {}
        assert [call(twin) for call, _ in SECOND_CALLS.values()] == results
        assert KEPT <= set(vars(twin))
        assert all(vars(twin)[name] is not vars(cd)[name] for name in KEPT)


def test_verify_runs_the_census_once(monkeypatch):
    import weylipse.orbits as orbits
    from weylipse.verify import run_verification

    calls = []
    real = orbits._dfs_nonneg
    monkeypatch.setattr(orbits, "_dfs_nonneg", lambda *args: calls.append(args) or real(*args))
    run_verification(cd_of("E8"))
    assert len(calls) == 1


# --- orbit_size ---


def test_orbit_size_error_paths():
    a2 = cd_of("A2")
    with pytest.raises(NotASolutionError):
        orbit_size((0, 1), a2)
    with pytest.raises(NotASolutionError):
        orbit_size((-1, -1), a2)  # solves the equation but is not nonnegative
    with pytest.raises(DimensionMismatchError):
        orbit_size((1,), a2)


def test_orbit_size_parabolic_values():
    b2a1 = cd_of("B2xA1")
    assert orbit_size((0, 1, 3), b2a1) == 8  # stabilizer A1 at the zero index
    f4 = cd_of("F4")
    assert orbit_size((0, 0, 2, 3), f4) == 1152 // 6  # stabilizer A2 at {1,2}


# --- expansion ---


def test_expand_examples():
    assert expand_orbit((0, 0), cd_of("A2")) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    assert expand_orbit((0, 0), cd_of("B2")) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 3),
        (2, 1),
        (2, 4),
        (3, 3),
        (3, 4),
    ]
    assert expand_orbit((0,), cd_of("A1")) == [(0,), (1,)]


def test_expand_errors():
    a2 = cd_of("A2")
    with pytest.raises(NotOnEllipsoidError):
        expand_orbit((1, 1), a2)
    with pytest.raises(CapExceededError):
        expand_orbit((0, 0), a2, cap=3)


def test_expand_rejects_malformed_coordinates():
    # the length is checked first, then integrality, before h is computed
    a2 = cd_of("A2")
    for junk in [("a", 0), (None, 0), ([0], 0), (1, 0.0)]:
        with pytest.raises(NotOnEllipsoidError):
            expand_orbit(junk, a2)
    with pytest.raises(DimensionMismatchError):
        expand_orbit(("a",), a2)


@pytest.mark.parametrize("text", SMALL + RANK4)
def test_orbit_size_law_and_sweep(text):
    cd = cd_of(text)
    for rec in orbit_seeds(cd):
        elements = expand_orbit(rec.minimal, cd)
        assert len(elements) == rec.size
        assert orbit_by_closure(rec.minimal, cd) == elements
        # unique componentwise minimum
        assert all(all(m <= v for m, v in zip(rec.minimal, e)) for e in elements)
        others = [e for e in elements if e != rec.minimal]
        assert not any(all(v <= m for v, m in zip(e, rec.minimal)) for e in others)


def _walk_counts(rec, cd):
    """Steps per reached point of the ascent walk from rec.minimal, and the points it lists.

    Each step (x, i, y) is checked to go from x to its child y = T_i(x): h_i(x) > 0,
    and i is the smallest descent of y, so x is y's canonical parent.
    """
    steps = []
    points = ascend(rec.minimal, rec.h, cd, visit=lambda x, i, y: steps.append((x, i, y)))
    for x, i, y in steps:
        assert h_vector(x, cd)[i] > 0
        assert y == apply_T(i + 1, x, cd)
        h = h_vector(y, cd)
        assert h[i] < 0 and min(h[:i], default=0) >= 0
    return Counter(y for _, _, y in steps), points


@pytest.mark.parametrize("text", SMALL + RANK4)
def test_ascent_walk_visits_each_point_once(text):
    cd = cd_of(text)
    for rec in orbit_seeds(cd):
        counts, points = _walk_counts(rec, cd)
        assert set(counts.values()) <= {1} and rec.minimal not in counts
        assert len(points) == rec.size == len(counts) + 1
        assert sorted(points) == orbit_by_closure(rec.minimal, cd)


def test_ascent_walk_visits_each_point_once_e6():
    cd = cd_of("E6")
    rec = next(r for r in orbit_seeds(cd) if r.size == 12960)
    counts, points = _walk_counts(rec, cd)
    assert set(counts.values()) == {1} and len(counts) == 12959
    assert sorted(points) == orbit_by_closure(rec.minimal, cd)


@pytest.mark.parametrize("text", ["B2xA1", "G2xA1", "C3"])
def test_expand_from_every_orbit_point(text):
    cd = cd_of(text)
    for rec in orbit_seeds(cd):
        orbit = expand_orbit(rec.minimal, cd)
        assert all(expand_orbit(x, cd) == orbit for x in orbit)


def test_expand_refuses_before_walking(monkeypatch):
    import weylipse.orbits as orbits

    monkeypatch.setattr(orbits, "ascend", lambda *args: pytest.fail("walked past the cap"))
    with pytest.raises(CapExceededError, match="696729600 points"):
        expand_orbit((0,) * 8, cd_of("E8"))
    with pytest.raises(CapExceededError):
        expand_orbit((2, 2), cd_of("A2"), cap=5)


@pytest.mark.parametrize("broken", ["drop", "repeat"])
def test_expand_checks_the_walk(monkeypatch, broken):
    import weylipse.orbits as orbits

    real = orbits.ascend

    def bad_walk(*args):
        points = real(*args)
        return points[:-1] if broken == "drop" else points[:-1] + points[:1]

    monkeypatch.setattr(orbits, "ascend", bad_walk)
    with pytest.raises(InvariantError):
        expand_orbit((0, 0, 0), cd_of("B3"))


@pytest.mark.parametrize("text", ["A2", "B2", "G2", "B2xA1"])
def test_orbit_invariance_under_T(text):
    cd = cd_of(text)
    for rec in orbit_seeds(cd):
        members = set(expand_orbit(rec.minimal, cd))
        for x in members:
            for i in range(1, cd.n + 1):
                assert apply_T(i, x, cd) in members


@pytest.mark.parametrize("text", SMALL)
def test_partition_of_box_scan(text):
    cd = cd_of(text)
    scanned = primary_solutions_by_box_scan(cd)
    union: set = set()
    for rec in orbit_seeds(cd):
        orbit = set(expand_orbit(rec.minimal, cd))
        assert not union & orbit
        union |= orbit
    assert union == set(scanned)


@pytest.mark.parametrize("text", SMALL + RANK4)
def test_main_orbit_contents(text):
    cd = cd_of(text)
    main = set(expand_orbit((0,) * cd.n, cd))
    assert (0,) * cd.n in main and cd.two_delta in main
    for root in positive_roots(cd):
        scaled = tuple(root.grade * c for c in root.coords)
        assert scaled in main
        assert tuple(t - s for t, s in zip(cd.two_delta, scaled)) in main
    for x in main:
        assert all(v >= 0 for v in x)
        assert all(v != 0 for v in h_vector(x, cd))


@pytest.mark.parametrize("text", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_main_orbit_subset_sums_of_roots(text):
    cd = cd_of(text)
    roots = [r.coords for r in positive_roots(cd)]
    sums = set()
    for size in range(len(roots) + 1):
        for combo in combinations(roots, size):
            sums.add(tuple(sum(col) for col in zip((0,) * cd.n, *combo)))
    assert set(expand_orbit((0,) * cd.n, cd)) <= sums


# --- the E8 census, against an independent euclidean-coordinate count ---


def test_e8_census_matches_euclidean_dominant_count():
    cd = cd_of("E8")
    raw = enumerate_secondary_nonneg(cd)
    seeds = orbit_seeds(cd)
    assert len(raw) == len(seeds)  # detA = 1: every candidate minimum is integral
    assert len(seeds) == e8_dominant_count_euclid() == 158
    assert (0, 0, 0, 0, 1, 0, 0, 15) in raw  # the solution a clipped scan misses
    # sum of orbit sizes = all Weyl images of the dominant shell representatives,
    # i.e. the number of norm-620 vectors of the even unimodular rank-8 lattice,
    # which the lattice theta series gives as 240 * sigma_3(310)
    sigma3 = sum(d**3 for d in range(1, 311) if 310 % d == 0)
    assert sum(r.size for r in seeds) == 240 * sigma3


def test_e8_expansion_is_capped():
    cd = cd_of("E8")
    with pytest.raises(CapExceededError):
        expand_orbit((0,) * 8, cd, cap=10_000)
