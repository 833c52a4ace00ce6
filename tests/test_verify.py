"""`verify` as a table of gated checks: what the gates rest on, the work the
checks share, and the faults the costly checks still catch."""

import math
import random
from itertools import product
from types import SimpleNamespace

import pytest

import weylipse.verify as verify
from weylipse import build_cartan, build_group_table, parse_type
from weylipse.oracles import primary_box
from weylipse.orbits import orbit_seeds


def cd_of(text):
    return build_cartan(parse_type(text))


def test_checks_are_one_table_in_report_order():
    names = [name for name, _, _ in verify.CHECKS]
    assert len(set(names)) == len(names)
    assert [r.name for r in verify.run_verification(cd_of("A2"))] == [
        name for name in names if name != "e8-census-target"
    ]


def test_each_seed_is_expanded_once(monkeypatch):
    calls = []
    real = verify.expand_orbit
    monkeypatch.setattr(verify, "expand_orbit", lambda a, cd: calls.append(a) or real(a, cd))
    cd = cd_of("A3")
    results = verify.run_verification(cd)
    assert {r.name: r.status for r in results}["orbit-size-law"] == "PASS"
    assert sorted(calls) == sorted(r.minimal for r in orbit_seeds(cd))


def test_each_start_point_is_closed_once(monkeypatch):
    # the origin starts both the main orbit of `group-bijections` and the main
    # seed's orbit of `orbit-size-law`
    calls = []
    real = verify.orbit_by_closure
    monkeypatch.setattr(verify, "orbit_by_closure", lambda a, cd: calls.append(a) or real(a, cd))
    cd = cd_of("A3")
    status = {r.name: r.status for r in verify.run_verification(cd)}
    assert status["orbit-size-law"] == status["group-bijections"] == "PASS"
    assert sorted(calls) == sorted(r.minimal for r in orbit_seeds(cd))


def test_e6_builds_no_group_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify E6 built the group table")

    monkeypatch.setattr(verify, "build_group_table", refuse)
    statuses = {r.name: r.status for r in verify.run_verification(cd_of("E6"))}
    assert statuses["first-letter-exhaustive"] == "SKIP"


def test_gates_read_their_constant_at_each_run(monkeypatch):
    monkeypatch.setattr(verify, "BRUHAT_GATE", 5)
    rows = {r.name: r for r in verify.run_verification(cd_of("A2"))}
    assert rows["bruhat-constructions-agree"].detail == "|W| = 6 > BRUHAT_GATE 5"


def _types_up_to_rank(limit):
    irreducible = [f"A{n}" for n in range(1, limit + 1)]
    irreducible += [f"B{n}" for n in range(2, limit + 1)] + [f"C{n}" for n in range(3, limit + 1)]
    irreducible += ["D4", "F4", "G2"]
    rank = {t: int(t[1:]) for t in irreducible}
    for count in range(1, limit + 1):
        for parts in product(irreducible, repeat=count):
            if sum(rank[t] for t in parts) <= limit:
                yield "x".join(parts)


def test_box_of_every_type_within_the_rank_gate_is_small():
    # why orbit-partition needs no gate on the box volume: behind BOX_RANK_GATE,
    # the largest box (F4: 875840 points) is far below a million
    volumes = {}
    for text in _types_up_to_rank(verify.BOX_RANK_GATE):
        lo, hi = primary_box(cd_of(text))
        volumes[text] = math.prod(h - l + 1 for l, h in zip(lo, hi))
    assert len(volumes) == 45  # 12 irreducible types, 33 ordered products
    assert max(volumes.values()) == volumes["F4"] == 875840 < 10**6


@pytest.mark.parametrize("text", ["A3", "B3", "D4", "F4", "G2xA1"])
def test_longest_element_has_length_positive_root_count(text):
    # the word-search gate reads the depth from the Cartan data, not the table
    cd = cd_of(text)
    assert max(build_group_table(cd).lengths()) == cd.positive_root_count


# --- each check still catches the fault it is there for ---


def _rows(text):
    return {r.name: r for r in verify.run_verification(cd_of(text))}


@pytest.mark.parametrize("text", ["A3", "B2", "G2xA1"])
def test_two_delta_off_by_one_fails_the_cartan_invariants(text):
    cd = cd_of(text)
    assert verify._cartan_invariants(SimpleNamespace(cd=cd)) == (True, "")
    for i in range(cd.n):
        for step in (1, -1):
            off = list(cd.two_delta)
            off[i] += step
            run = SimpleNamespace(cd=cd._replace(two_delta=tuple(off)))
            assert verify._cartan_invariants(run) == (False, "matrix laws broken")


@pytest.mark.parametrize("form", ["primary_form", "secondary_form"])
def test_a_form_off_by_a_constant_fails_the_quadric_identities(monkeypatch, form):
    # each point takes one of the form's two identities with it: 2 per point
    real = getattr(verify, form)
    monkeypatch.setattr(verify, form, lambda cd: real(cd)._replace(constant=real(cd).constant + 1))
    row = _rows("A3")["quadric-identities"]
    assert (row.status, row.detail) == ("FAIL", f"{2 * verify.RANDOM_POINTS} mismatches")


def test_quadric_identities_draw_2n_integers_per_point():
    cd = cd_of("G2xA1")
    run = verify._Run(cd)
    assert verify._quadric_identities(run) == (True, f"{verify.RANDOM_POINTS} random points")
    expected = random.Random(verify.RNG_SEED)
    for _ in range(2 * cd.n * verify.RANDOM_POINTS):
        expected.randint(-10, 10)
    assert run.rng.getstate() == expected.getstate()


def _outside(real, a, b, table):
    # every square of a non-identity element leaves the group
    return (-1, -1) if a == b != (0, 0) else real(a, b, table)


def _non_associative(real, a, b, table):
    # s1 * s2 answered as s2 s1 (P(s_i) = alpha_i): identity, closure and
    # inverses still hold, but (s1 * s2) * s2 = s2 s1 s2 is not s1 * (s2 * s2) = s1
    return real(b, a, table) if (a, b) == ((1, 0), (0, 1)) else real(a, b, table)


def _no_inverses(real, a, b, table):
    # the identity adjoined to a left-zero semigroup: closed and associative,
    # but no a other than the identity has an inverse
    return b if a == (0, 0) else a


@pytest.mark.parametrize(
    "fake,detail",
    [
        (_outside, "closure broken"),
        (_non_associative, "axiom broken"),
        (_no_inverses, "axiom broken"),
    ],
)
def test_a_star_that_is_not_a_group_law_fails_the_group_axioms(monkeypatch, fake, detail):
    real = verify.star
    monkeypatch.setattr(verify, "star", lambda a, b, table: fake(real, a, b, table))
    row = _rows("A2")["star-group-axioms"]
    assert (row.status, row.detail) == ("FAIL", detail)


def test_first_letters_missing_a_letter_fail_the_word_search(monkeypatch):
    real = verify.first_letters
    monkeypatch.setattr(verify, "first_letters", lambda w, cd: sorted(real(w, cd))[1:])
    row = _rows("A3")["first-letter-exhaustive"]
    assert (row.status, row.detail) == ("FAIL", "descent sets disagree with word search")


def test_a_reduced_word_missing_fails_the_word_search(monkeypatch):
    real = verify.reduced_words
    dropped = []

    def one_short(w, cd):
        # drop the last word only where the first letters survive, so only the
        # comparison of whole word sets can see it
        rw = real(w, cd)
        short = rw.words[:-1]
        if {word[0] for word in short} != {word[0] for word in rw.words if word}:
            return rw
        dropped.append(rw.words[-1])
        return rw._replace(words=short)

    monkeypatch.setattr(verify, "reduced_words", one_short)
    row = _rows("A3")["first-letter-exhaustive"]
    assert dropped
    assert (row.status, row.detail) == ("FAIL", "descent sets disagree with word search")


def test_seeds_without_the_origin_fail_orbit_seeds_with_no_traceback(monkeypatch, capsys):
    from weylipse.cli import main

    real = verify._seeds_from

    def without_origin(cd, sols):
        return [r for r in real(cd, sols) if any(r.minimal)]

    monkeypatch.setattr(verify, "_seeds_from", without_origin)
    row = _rows("A2")["orbit-seeds"]
    assert (row.status, row.detail) == ("FAIL", "seed laws broken")
    assert main(["verify", "A2"]) == 3
    assert "FAIL orbit-seeds: seed laws broken\n" in capsys.readouterr().out
