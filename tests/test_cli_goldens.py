"""Fresh-process goldens: a few manifest rows run as new CLI processes in tier-1.

The digests are the rows of `cli_manifest.txt`; this file keeps no copy of
them.  `test_cli_manifest.py` runs every fast row in process, where caches and
imports are already warm from earlier tests; here a spread of rows also runs
through `scripts/cli_manifest.py`'s fresh-process harness, so a command whose
bytes depend on what ran before it in the same interpreter fails.  The rows
reach verify's FAIL exit (A3, D4), its E8 census row, a product type, an
`info` row with half-integer delta and a CSV census.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "cli_manifest", os.path.join(ROOT, "scripts", "cli_manifest.py")
)
cli_manifest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_manifest)

FRESH = [
    "verify A3",
    "verify D4",
    "verify D5",
    "verify E6",
    "verify E8",
    "verify F4",
    "verify G2xA1",
    "orbits D9 --csv",
    "info F4",
]
ROWS = {" ".join(argv): (code, out, err) for _, code, out, err, argv in cli_manifest.manifest_rows()}


@pytest.mark.parametrize("argv", FRESH, ids=FRESH)
def test_stdout_golden(argv):
    assert cli_manifest.run_fresh(argv.split(), timeout=60)[:3] == ROWS[argv]
