"""The benchmark's metrics: names, units, direction, bounds, and what moves what.

``python3 bench/metrics.py`` prints the ``BENCHMARK.json`` these entries
define.  Later changes claim their gains against these names.

End-to-end metrics are measured with tracing off, on every workload.  Every
time is scaled to a reference machine speed read just before it was taken
(see ``reference.py``); the run record holds the times as measured.

* ``wall_s``      -- one pass of the workload's job: the sum over its
                     operations of each operation's median time.
* ``setup_s``     -- median over fresh processes of ``import weylipse`` plus
                     ``build_cartan`` of the workload's types; for ``cli`` the
                     wall time of a fresh ``python -c "import weylipse.cli"``.
* ``peak_rss_mb`` -- peak resident memory of the workload process; for
                     ``cli`` of the largest child.
* ``op_p50_ms``, ``op_p90_ms`` -- per-operation latency: the median and
                     90th percentile over the workload's operations of each
                     one's median time; on ``cli`` an operation is one command
                     of the mix run as a fresh process.

Operations attempted and failed are the result's ``attempted`` and
``failed``, not metrics: the failed share is 0 on a correct program.
"""

from __future__ import annotations

import json

WORKLOADS = (
    ("census", "secondary census DFS and orbit seeds on high-rank and product types; orbits layer only"),
    ("group", "whole-group bulk work: group table, posets, orbit BFS, reduced words of w0, star, verify"),
    ("elements", "one-element queries in E7, E8, E6xA2 with no table: weyl, quadrics, ordering per element"),
    ("cli", "fresh weylipse CLI processes over a fixed command mix; the only workload paying import"),
)

END_TO_END = (
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
)

LAYERS = ("cartan", "quadrics", "orbits", "weyl", "ordering", "verify", "cli")

# Mean inclusive time per call of one layer function, from the traced run:
# metric name -> (span name, unit).
FUNCTION_TIMES = {
    "cartan.build_cartan_ms": ("cartan.build_cartan", "ms"),
    "cartan.positive_roots_ms": ("cartan.positive_roots", "ms"),
    "quadrics.apply_T_us": ("quadrics.apply_T", "us"),
    "quadrics.h_vector_us": ("quadrics.h_vector", "us"),
    "orbits.enumerate_ms": ("orbits.enumerate_secondary_nonneg", "ms"),
    "orbits.seeds_ms": ("orbits.orbit_seeds", "ms"),
    "orbits.expand_ms": ("orbits.expand_orbit", "ms"),
    "weyl.table_ms": ("weyl.build_group_table", "ms"),
    "weyl.star_us": ("weyl.star", "us"),
    "weyl.word_to_element_us": ("weyl.word_to_element", "us"),
    "weyl.P_map_us": ("weyl.P_map", "us"),
    "weyl.element_from_pvector_us": ("weyl.element_from_pvector", "us"),
    "ordering.primary_poset_ms": ("ordering.primary_poset", "ms"),
    "ordering.bruhat_from_primary_ms": ("ordering.bruhat_from_primary", "ms"),
    "ordering.bruhat_from_subwords_ms": ("ordering.bruhat_from_subwords", "ms"),
    "ordering.relation_ms": ("ordering.relation", "ms"),
    "ordering.reduced_words_ms": ("ordering.reduced_words", "ms"),
    "verify.run_ms": ("verify.run_verification", "ms"),
}

# Work done in one pass, counted from the results; they do not depend on the
# machine and repeat exactly for a seed.  name -> better
WORK_COUNTS = {
    "orbits.solutions": "lower",
    "orbits.seeds": "lower",
    "orbits.expand_states": "lower",
    "weyl.table_elements": "lower",
    "ordering.covers": "lower",
    "ordering.relation_pairs": "lower",
    "ordering.words": "lower",
    "verify.pass": "higher",
    "verify.fail": "lower",
    "verify.skip": "lower",
}

# Work per second of the function doing it: count -> (rate metric, span name).
RATES = {
    "orbits.expand_states": ("orbits.expand_states_per_s", "orbits.expand_orbit"),
    "weyl.table_elements": ("weyl.table_elements_per_s", "weyl.build_group_table"),
    "ordering.words": ("ordering.words_per_s", "ordering.reduced_words"),
}

CLI_LABELS = (
    "info",
    "primary_eq",
    "secondary_eq_json",
    "orbits_csv",
    "orbits_expand",
    "expand",
    "realize",
    "reduced_words",
    "bruhat_subword",
    "bruhat_both_a2",
    "bruhat_both_a3",
    "verify",
)


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(name, unit, "lower") for name, (_, unit) in FUNCTION_TIMES.items()]
    out += [(name, "count", better) for name, better in WORK_COUNTS.items()]
    out.append(("orbits.seed_yield", "ratio", "higher"))
    out += [(rate, "1/s", "higher") for rate, _ in RATES.values()]
    out += [("cli.import_ms", "ms", "lower"), ("cli.bare_python_ms", "ms", "lower")]
    out += [(f"cli.{label}_ms", "ms", "lower") for label in CLI_LABELS]
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.failed", "count", "lower"),
            (f"{layer}.self_ms", "ms", "lower"),
        ]
    out += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out


# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "cartan.build_cartan_ms": "setup_s on every workload",
    "cartan.positive_roots_ms": "setup_s on every workload; elements.wall_s (element_from_pvector recomputes the roots)",
    "quadrics.apply_T_us": "elements.wall_s",
    "quadrics.h_vector_us": "elements.wall_s",
    "orbits.enumerate_ms": "census.wall_s",
    "orbits.seeds_ms": "census.wall_s",
    "orbits.solutions": "census.wall_s",
    "orbits.seeds": "census.wall_s",
    "orbits.seed_yield": "census.wall_s",
    "orbits.expand_ms": "group.wall_s",
    "orbits.expand_states": "group.wall_s",
    "orbits.expand_states_per_s": "group.wall_s",
    "weyl.table_ms": "group.wall_s, group.peak_rss_mb",
    "weyl.table_elements": "group.wall_s, group.peak_rss_mb",
    "weyl.table_elements_per_s": "group.wall_s, group.peak_rss_mb",
    "weyl.star_us": "group.wall_s",
    "weyl.word_to_element_us": "elements.wall_s",
    "weyl.P_map_us": "elements.wall_s",
    "weyl.element_from_pvector_us": "elements.wall_s",
    "ordering.primary_poset_ms": "group.wall_s",
    "ordering.bruhat_from_primary_ms": "group.wall_s",
    "ordering.bruhat_from_subwords_ms": "group.wall_s",
    "ordering.relation_ms": "group.wall_s",
    "ordering.covers": "group.wall_s",
    "ordering.relation_pairs": "group.wall_s",
    "ordering.reduced_words_ms": "elements.wall_s, group.wall_s, peak_rss_mb",
    "ordering.words": "elements.wall_s, group.wall_s, peak_rss_mb",
    "ordering.words_per_s": "elements.wall_s, group.wall_s, peak_rss_mb",
    "verify.run_ms": "group.wall_s, cli.op_p90_ms",
    "verify.pass": "group.wall_s, cli.op_p90_ms",
    "verify.fail": "group.wall_s, cli.op_p90_ms",
    "verify.skip": "group.wall_s, cli.op_p90_ms",
    "cli.import_ms": "cli.op_p50_ms, cli.op_p90_ms, cli.setup_s",
    "cli.bare_python_ms": "cli.op_p50_ms, cli.op_p90_ms, cli.setup_s (the interpreter floor)",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in per_layer_catalogue()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
