#!/usr/bin/env python3
"""Check the CLI byte-identity manifest with fresh processes.

Each row of tests/cli_manifest.txt names a tier, an exit code, the sha256 of
stdout and of stderr, and the argv of one `weylipse` command.  This script
runs the rows of one tier, each as a fresh `python -B -m weylipse.cli` process
on this checkout's src, and prints per row whether all three agree, the wall
time and the peak RSS (the child's ru_maxrss, read by wait4).  A row still
running after --timeout seconds is killed and fails.  Exit status 1 if any row
fails.  The fast rows also run in process, in tests/test_cli_manifest.py.

Run e.g.:  python scripts/cli_manifest.py --tier slow
"""

import argparse
import hashlib
import os
import signal
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "cli_manifest.txt")


def manifest_rows():
    """(tier, exit code, stdout sha256, stderr sha256, argv) per row of the manifest."""
    with open(MANIFEST) as fh:
        lines = [line.split(maxsplit=4) for line in fh if line.strip() and not line.startswith("#")]
    return [(tier, int(code), out, err, argv.split()) for tier, code, out, err, argv in lines]


def run_fresh(argv, timeout):
    """(exit code, stdout sha256, stderr sha256, wall s, peak RSS MB) of one fresh CLI process;
    exit code None if it was killed at the timeout."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-B", "-m", "weylipse.cli", *argv],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        killed = False
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if not killed and time.perf_counter() - start > timeout:
                os.kill(pid, signal.SIGKILL)
                killed = True
            time.sleep(0.01)
        wall = time.perf_counter() - start
        digests = []
        for fh in (out, err):
            fh.seek(0)
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    code = None if killed else os.waitstatus_to_exitcode(status)
    return code, *digests, wall, usage.ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--tier", choices=["fast", "slow", "all"], default="slow")
    ap.add_argument(
        "--timeout", type=float, default=60.0, help="seconds per row (default %(default)s)"
    )
    args = ap.parse_args()
    failed = 0
    for tier, code, out, err, argv in manifest_rows():
        if args.tier not in ("all", tier):
            continue
        got = run_fresh(argv, args.timeout)
        ok = got[:3] == (code, out, err)
        failed += not ok
        wall, rss = got[3:]
        print(f"{'ok' if ok else 'FAIL':4} exit {got[0]} {wall:7.2f} s {rss:7.1f} MB  {' '.join(argv)}")
        if not ok:
            print(f"     expected exit {code} stdout {out[:12]} stderr {err[:12]}; "
                  f"got stdout {got[1][:12]} stderr {got[2][:12]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
