"""Record ``goldens.json``: the expected results that have no independent oracle.

    python3 bench/goldens.py

Records, from the library under ``src``: census solutions and rows per type,
cover and relation fingerprints of the posets, the ``verify`` rows, and the
exit code and stdout digest of every CLI invocation the seeds can draw.
Re-record only when a change of output is intended, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402


def record(lib) -> dict:
    census = {}
    for t in sorted(set(W.CENSUS_TYPES["full"]) | set(W.CENSUS_TYPES["tiny"])):
        cd = lib.cd(t)
        sols = lib.orbits.enumerate_secondary_nonneg(cd)
        recs = lib.orbits.orbit_seeds(cd)
        census[t] = {
            "solutions": len(sols),
            "solutions_sha": W.digest(sols),
            "rows": len(recs),
            "rows_sha": W.digest([(r.h, r.minimal, r.size) for r in recs]),
        }
        if t in W.KNOWN_CENSUS_ROWS and len(recs) != W.KNOWN_CENSUS_ROWS[t]:
            raise SystemExit(f"{t} census has {len(recs)} rows, not {W.KNOWN_CENSUS_ROWS[t]}")

    group = {}
    for spec in W.GROUP.values():
        for fn_name, types in (
            ("primary_poset", spec["primary"]),
            ("bruhat_from_primary", spec["primary"]),
            ("bruhat_from_subwords", spec["subword"]),
        ):
            for t in types:
                p = getattr(lib.ordering, fn_name)(lib.weyl.build_group_table(lib.cd(t)))
                group[f"{fn_name}:{t}"] = [len(p.covers), hash(W.vector_pairs(p.nodes, p.covers))]
                if fn_name == "bruhat_from_subwords":
                    rel = p.relation()
                    group[f"relation:{t}"] = [len(rel), hash(W.vector_pairs(p.nodes, rel))]
        for t in spec["verify"]:
            group[f"verify:{t}"] = [[r.name, r.status] for r in lib.verify.run_verification(lib.cd(t))]

    cli = {}
    pools = W.cli_pools(lib)
    argvs = []
    for label, argv in W.CLI_MIX:
        if label in pools:
            argvs += [tuple(v if a is None else a for a in argv) for v in pools[label]]
        else:
            argvs.append(argv)
    for argv in argvs:
        code, digest, size = W.run_cli(argv, lib.src, lib.root)
        cli[" ".join(argv)] = [code, digest, size]
    return {"census": census, "group": group, "cli": cli}


def main() -> int:
    lib = run.Lib(run.ROOT / "src", run.ROOT)
    goldens = record(lib)
    W.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.GOLDENS}: {sum(len(v) for v in goldens.values())} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
