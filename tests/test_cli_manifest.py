"""The CLI byte-identity manifest: exit code, stdout and stderr per command.

`cli_manifest.txt` holds the rows; the fast ones run here in process, where
caches and imports are already warm from earlier tests, and
`scripts/cli_manifest.py` runs any tier as fresh processes, with wall time and
peak RSS.  A spread of fast rows also runs here through that script's
fresh-process harness, so the two paths are pinned to the same digests and a
command whose bytes depend on what ran before it in the same interpreter
fails.  Those rows reach verify's FAIL exit (A3, D4), its E8 census row, a
product type, an `info` row with half-integer delta, a CSV census and a row
with a stderr line.  The script's --update rewrite is run on a copy of one
row.
"""

import contextlib
import hashlib
import importlib.util
import io
import os

import pytest

from weylipse.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "cli_manifest", os.path.join(ROOT, "scripts", "cli_manifest.py")
)
cli_manifest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_manifest)

ROWS = cli_manifest.manifest_rows()
FAST = [row for row in ROWS if row[0] == "fast"]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_manifest_tiers():
    assert {tier for tier, *_ in ROWS} == {"fast", "slow"}
    assert len({" ".join(argv) for *_, argv in ROWS}) == len(ROWS)


@pytest.mark.parametrize("tier, code, out, err, argv", FAST, ids=[" ".join(r[4]) for r in FAST])
def test_fast_row_in_process(tier, code, out, err, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = main(argv)
    assert (got, sha(stdout.getvalue()), sha(stderr.getvalue())) == (code, out, err)


# argv of the rows run as fresh processes, and whether each writes to stderr
FRESH = {
    "verify A3": False,
    "verify D4": False,
    "verify D5": False,
    "verify E6": False,
    "verify E8": False,
    "verify F4": False,
    "verify G2xA1": False,
    "orbits D9 --csv": False,
    "info F4": False,
    "orbits G2 --expand --cap 1": True,
}
ROW_OF = {" ".join(argv): (code, out, err) for _, code, out, err, argv in FAST}


@pytest.mark.parametrize("argv, stderr", FRESH.items(), ids=list(FRESH))
def test_fresh_process_matches_its_row(argv, stderr):
    code, out, err = ROW_OF[argv]
    assert (err != sha("")) == stderr
    assert cli_manifest.run_fresh(argv.split(), timeout=60)[:3] == (code, out, err)


def test_update_rewrites_only_the_rows_that_changed(tmp_path, monkeypatch, capsys):
    (row,) = [r for r in FAST if r[4] == ["orbits", "G2", "--expand", "--cap", "1"]]
    _, code, out, err, argv = row
    stale = f"fast {code} {out} {'0' * 64} {' '.join(argv)}\n"
    kept = "slow 0 {0} {0} orbits A14\n".format("1" * 64)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# header\n" + stale + kept)
    monkeypatch.setattr(cli_manifest, "MANIFEST", str(manifest))
    assert cli_manifest.update("fast", timeout=60) == 0
    fresh = f"fast {code} {out} {err} {' '.join(argv)}\n"
    assert manifest.read_text() == "# header\n" + fresh + kept
    assert capsys.readouterr().out == f"changed: {fresh}"
