"""The four workloads: what one pass calls, and what each call must return.

A workload is a fixed list of operations drawn from the seed.  The runner
repeats the list (a pass) until the run's time is up, timing each operation
on its own.  Every operation has a fingerprint, taken outside its timed call,
and an expected fingerprint, computed after the timed phase from goldens or
from ``oracle``; a call that raises or whose fingerprint differs is failed.

Why these workloads (each stresses other layers):

* census   -- secondary census (``enumerate_secondary_nonneg`` and
  ``orbit_seeds``) on high-rank and product types: the ``orbits`` DFS and its
  per-seed orbit-size and quadric evaluation; ``weyl`` and ``ordering`` idle.
* group    -- whole-group bulk work on mid-size types: the matrix-BFS group
  table, the three poset constructions and their relation, orbit BFS,
  reduced words of w0, ``star`` and ``run_verification``.
* elements -- per-element queries in groups too large to tabulate (E7, E8,
  E6xA2): the same ``weyl``/``ordering`` code one element at a time, so work
  moved into a table or into set-up costs here while ``group`` gains.
* cli      -- fresh ``python -m weylipse.cli`` processes over a fixed command
  mix, the only workload that pays interpreter start, import and argparse.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

CENSUS_TYPES = {
    "full": ("A9", "B8", "C8", "D9", "E8", "E8xA1", "E7xA2", "E6xA3"),
    "tiny": ("A3", "B3", "G2xA1"),
}
# Census row counts known independently of this code: E8 by the theta-series
# count of dominant vectors in the tests' oracles (158, not the target 157).
KNOWN_CENSUS_ROWS = {"E8": 158}

GROUP = {
    "full": dict(
        tables=("A5", "B4", "D5", "F4"),
        primary=("D4", "A4"),
        subword=("D4", "B4", "A5"),
        main_orbits=("D5", "E6"),
        other_orbits=(("E6", 12960), ("E6", 2160), ("D5", 160)),
        words=("A4", "D4"),
        star=("F4", 300),
        verify=("A3", "D4", "G2xA1"),
    ),
    "tiny": dict(
        tables=("A3", "B3"),
        primary=("A3",),
        subword=("A3", "B3"),
        main_orbits=("A3",),
        other_orbits=(("B2xA1", 8),),
        words=("A3", "B3"),
        star=("A3", 20),
        verify=("A2",),
    ),
}
# Reduced-word counts of w0 (Stanley 1984 and its type-B/D analogues).
W0_WORDS = {"A3": 16, "A4": 768, "B3": 42, "D4": 2316}

ELEMENTS = {
    "full": dict(types=("E7", "E8", "E6xA2"), per_type=24, lengths=(10, 60)),
    "tiny": dict(types=("A3", "B3"), per_type=4, lengths=(2, 9)),
}

# (metric label, argv) with None standing for the seeded argument.
CLI_MIX = (
    ("info", ("info", "F4")),
    ("primary_eq", ("primary-eq", "E8")),
    ("secondary_eq_json", ("secondary-eq", "E8", "--json")),
    ("orbits_csv", ("orbits", "E8", "--csv")),
    ("orbits_expand", ("orbits", "B2xA1", "--json", "--expand")),
    ("expand", ("expand", "B3")),
    ("realize", ("realize", "E8", "--word", None)),
    ("reduced_words", ("reduced-words", "A3", "--pvector", None)),
    ("bruhat_subword", ("bruhat", "A3", "--method", "subword", "--json")),
    ("bruhat_both_a2", ("bruhat", "A2", "--method", "both")),
    ("bruhat_both_a3", ("bruhat", "A3", "--method", "both")),
    ("verify", ("verify", "B2")),
)
CLI_MIN_INVOCATIONS = {"full": 100, "tiny": len(CLI_MIX)}
CLI_TIMEOUT_S = 60
E8_WORD_POOL = (32, 10, 60)  # pool size and word-length range, drawn from POOL_SEED
POOL_SEED = 1109


@dataclass
class Op:
    """One timed call.  ``counts`` maps a fingerprint to work counts."""

    name: str
    call: Callable[[], Any]
    fingerprint: Callable[[Any], Any]
    expect: Callable[[], Any]
    counts: Callable[[Any], dict] = field(default=lambda fp: {})

    @property
    def span(self) -> str:
        """Name of the span around the whole operation when tracing."""
        kind, _, rest = self.name.partition(":")
        return f"cli.{rest}" if kind == "cli" else f"bench.{kind}"


@dataclass
class Workload:
    """Pass k runs ``cycles[k % len(cycles)]``; operation names repeat across cycles."""

    cycles: list[list[Op]]
    types: tuple[str, ...]  # built by build_cartan during set-up
    min_passes: int = 1


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


# -- census ----------------------------------------------------------------


def census(lib, rng, size, goldens) -> Workload:
    orbits = lib.orbits
    types = list(CENSUS_TYPES[size])
    rng.shuffle(types)
    ops = []
    for t in types:
        cd = lib.cd(t)
        gold = goldens["census"][t]
        ops.append(
            Op(
                f"enumerate:{t}",
                lambda cd=cd: orbits.enumerate_secondary_nonneg(cd),
                lambda sols: (len(sols), digest(sols)),
                lambda g=gold: (g["solutions"], g["solutions_sha"]),
                lambda fp: {"orbits.solutions": fp[0]},
            )
        )
        ops.append(
            Op(
                f"seeds:{t}",
                lambda cd=cd: orbits.orbit_seeds(cd),
                lambda recs: (len(recs), digest([(r.h, r.minimal, r.size) for r in recs])),
                lambda g=gold: (g["rows"], g["rows_sha"]),
                lambda fp: {"orbits.seeds": fp[0]},
            )
        )
    return Workload([ops], tuple(types))


# -- group -----------------------------------------------------------------


def vector_pairs(nodes, pairs):
    return frozenset((nodes[a], nodes[b]) for a, b in pairs)


def group(lib, rng, size, goldens) -> Workload:
    weyl, ordering, orbits, verify = lib.weyl, lib.ordering, lib.orbits, lib.verify
    spec = GROUP[size]
    gold = goldens["group"]
    ops = []

    for t in spec["tables"]:
        cd = lib.cd(t)
        ops.append(
            Op(
                f"table:{t}",
                lambda cd=cd: weyl.build_group_table(cd),
                lambda tab: (len(tab.elements), tab.order, max(len(e.word) for e in tab.elements.values())),
                lambda cd=cd: (lib.weyl_order(cd),) * 2 + (len(lib.positive_roots(cd)),),
                lambda fp: {"weyl.table_elements": fp[0]},
            )
        )

    tables = {}

    def fresh_table(t):
        # a new GroupTable on the same elements: its cached properties start cold
        if t not in tables:
            tables[t] = weyl.build_group_table(lib.cd(t))
        tab = tables[t]
        return weyl.GroupTable(cd=tab.cd, elements=tab.elements, order=tab.order)

    def poset_fp(p):
        return (len(p.covers), hash(vector_pairs(p.nodes, p.covers)))

    def poset_counts(fp):
        return {"ordering.covers": fp[0]}

    for fn_name, types in (
        ("primary_poset", spec["primary"]),
        ("bruhat_from_primary", spec["primary"]),
        ("bruhat_from_subwords", spec["subword"]),
    ):
        for t in types:
            key = f"{fn_name}:{t}"
            ops.append(
                Op(
                    key,
                    lambda t=t, f=fn_name: getattr(ordering, f)(fresh_table(t)),
                    poset_fp,
                    lambda key=key: tuple(gold[key]),
                    poset_counts,
                )
            )
    for t in set(spec["primary"]) | set(spec["subword"]):
        fresh_table(t)  # built now, so no timed call pays for it
    for t in spec["subword"]:
        key = f"relation:{t}"
        poset = ordering.bruhat_from_subwords(fresh_table(t))
        ops.append(
            Op(
                key,
                lambda p=poset: p.relation(),
                lambda rel, p=poset: (len(rel), hash(vector_pairs(p.nodes, rel))),
                lambda key=key: tuple(gold[key]),
                lambda fp: {"ordering.relation_pairs": fp[0]},
            )
        )

    for t in spec["main_orbits"]:
        cd = lib.cd(t)
        ops.append(
            Op(
                f"expand:{t}:main",
                lambda cd=cd: orbits.expand_orbit((0,) * cd.n, cd),
                lambda pts: (len(pts), pts[0]),
                lambda cd=cd: (lib.weyl_order(cd), (0,) * cd.n),
                lambda fp: {"orbits.expand_states": fp[0]},
            )
        )
    # one non-main orbit drawn from each (type, size) class, so every seed
    # expands the same number of points
    for t, size in spec["other_orbits"]:
        cd = lib.cd(t)
        main_h = (1,) * cd.n
        rec = rng.choice([r for r in orbits.orbit_seeds(cd) if r.h != main_h and r.size == size])
        ops.append(
            Op(
                f"expand:{t}:{','.join(map(str, rec.h))}",
                lambda cd=cd, a=rec.minimal: orbits.expand_orbit(a, cd),
                lambda pts: (len(pts), pts[0]),
                lambda rec=rec: (rec.size, rec.minimal),
                lambda fp: {"orbits.expand_states": fp[0]},
            )
        )

    for t in spec["words"]:
        cd = lib.cd(t)
        w0 = weyl.word_to_element(oracle.longest_word(cd.A), cd)
        ops.append(
            Op(
                f"reduced_words:{t}:w0",
                lambda w0=w0, cd=cd: ordering.reduced_words(w0, cd),
                lambda rws: (len(rws.words), rws.length, len(set(rws.words))),
                lambda t=t, cd=cd: (W0_WORDS[t], len(lib.positive_roots(cd)), W0_WORDS[t]),
                lambda fp: {"ordering.words": fp[0]},
            )
        )

    star_type, star_pairs = spec["star"]
    star_table = fresh_table(star_type)
    vectors = sorted(star_table.elements)
    pairs = [(rng.choice(vectors), rng.choice(vectors)) for _ in range(star_pairs)]
    A = lib.cd(star_type).A
    ops.append(
        Op(
            f"star:{star_type}",
            lambda: [weyl.star(a, b, star_table) for a, b in pairs],
            tuple,
            lambda: tuple(oracle.star_by_walk(a, b, A) for a, b in pairs),
        )
    )

    for t in spec["verify"]:
        cd = lib.cd(t)
        key = f"verify:{t}"
        ops.append(
            Op(
                key,
                lambda cd=cd: verify.run_verification(cd),
                lambda res: tuple((r.name, r.status) for r in res),
                lambda key=key: tuple(tuple(r) for r in gold[key]),
                lambda fp: {
                    f"verify.{s.lower()}": sum(1 for _, st in fp if st == s) for s in ("PASS", "FAIL", "SKIP")
                },
            )
        )

    rng.shuffle(ops)
    types = set(spec["tables"]) | set(spec["primary"]) | set(spec["subword"]) | set(spec["main_orbits"])
    types |= {t for t, _ in spec["other_orbits"]} | set(spec["words"]) | {star_type} | set(spec["verify"])
    return Workload([ops], tuple(sorted(types)))


# -- elements --------------------------------------------------------------


def elements(lib, rng, size, goldens) -> Workload:
    weyl, ordering, quadrics = lib.weyl, lib.ordering, lib.quadrics
    spec = ELEMENTS[size]
    ops = []
    for t in spec["types"]:
        cd = lib.cd(t)
        n_roots = len(lib.positive_roots(cd))
        # lengths are spread evenly over the range and words drawn at each
        # length; the short element is the longest element of a parabolic
        # subgroup on a chain of three nodes, drawn by the seed, whose
        # reduced words are as many for every chain of one type.  So every
        # seed asks for the same amount of work.
        lo, hi = spec["lengths"]
        per_type = spec["per_type"]
        chains = oracle.chains_of_three(cd.A)
        for k in range(per_type):
            length = min(n_roots, lo + (hi - lo) * k // (per_type - 1))
            word, p = oracle.ascent_walk(cd.A, length, rng)
            short = oracle.longest_word(cd.A, rng.choice(chains))

            def query(cd=cd, word=word, p=p, short=short):
                w = weyl.word_to_element(word, cd)
                pv = weyl.P_map(w, cd)
                walk = p
                for i in word:
                    walk = quadrics.apply_T(i, walk, cd)
                rws = ordering.reduced_words(weyl.word_to_element(short, cd), cd)
                return (
                    w,
                    pv,
                    weyl.S_map(w, cd),
                    weyl.element_from_pvector(pv, cd),
                    ordering.first_letters(w, cd),
                    quadrics.h_vector(p, cd),
                    walk,
                    rws,
                )

            def fingerprint(r):
                w, pv, sv, back, letters, h, walk, rws = r
                return (
                    pv,
                    sv,
                    back.mat == w.mat,
                    len(back.word),
                    tuple(sorted(letters)),
                    h,
                    walk,
                    len(rws.words),
                    rws.length,
                    len(set(rws.words)),
                )

            def expect(cd=cd, word=word, p=p, short=short):
                h = oracle.h_of(p, cd.A)
                w = weyl.word_to_element(word, cd)
                roots = [r.coords for r in lib.positive_roots(cd)]
                if oracle.inversions(w.mat, roots) != len(word):
                    return ("length is not the inversion count", word)
                short_p = oracle.p_of_word(short, cd.A)
                n_words = oracle.count_reduced_words(short_p, cd.A)
                return (
                    p,
                    h,
                    True,
                    len(word),
                    tuple(i + 1 for i in range(cd.n) if h[i] < 0),
                    h,
                    (0,) * cd.n,
                    n_words,
                    len(short),
                    n_words,
                )

            ops.append(
                Op(
                    f"query:{t}:{k}",
                    query,
                    fingerprint,
                    expect,
                    lambda fp: {"ordering.words": fp[7]},
                )
            )
    rng.shuffle(ops)
    return Workload([ops], tuple(spec["types"]))


# -- cli -------------------------------------------------------------------


def e8_word_pool(A) -> list[str]:
    rng = random.Random(POOL_SEED)
    count, lo, hi = E8_WORD_POOL
    return [",".join(map(str, oracle.ascent_walk(A, rng.randint(lo, hi), rng)[0])) for _ in range(count)]


def a3_pvector_pool(A) -> list[str]:
    return [",".join(map(str, p)) for p in oracle.main_orbit(A)]


def cli_pools(lib) -> dict[str, list[str]]:
    """The values a seed can draw for each seeded argument of the mix."""
    return {
        "realize": e8_word_pool(lib.cd("E8").A),
        "reduced_words": a3_pvector_pool(lib.cd("A3").A),
    }


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, src: Path, cwd: Path) -> tuple[int, str, int]:
    """One fresh ``python -m weylipse.cli`` process: (exit code, stdout digest, bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "weylipse.cli", *argv],
        cwd=cwd,
        env=cli_env(src),
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout)


def cli(lib, rng, size, goldens) -> Workload:
    # one pass is one cycle of the mix; the seed draws the arguments of each
    # cycle, and enough cycles are drawn to reach the minimum invocation count
    n_cycles = -(-CLI_MIN_INVOCATIONS[size] // len(CLI_MIX))
    pools = cli_pools(lib)
    cycles = [
        [
            _cli_op(label, tuple(rng.choice(pools[label]) if a is None else a for a in argv), lib, goldens)
            for label, argv in CLI_MIX
        ]
        for _ in range(n_cycles)
    ]
    return Workload(cycles, ("E8", "A3"), min_passes=n_cycles)


def _cli_op(label, argv, lib, goldens) -> Op:
    key = " ".join(argv)
    return Op(
        f"cli:{label}",
        lambda: run_cli(argv, lib.src, lib.root),
        lambda r: r[:2],
        lambda: tuple(goldens["cli"][key][:2]),
    )


BUILDERS = {"census": census, "group": group, "elements": elements, "cli": cli}
