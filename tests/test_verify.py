"""`verify` as a table of gated checks: what the gates rest on, and the work
the checks share."""

import math
from itertools import product

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
