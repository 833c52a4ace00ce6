import os
import re
import subprocess
import sys

import weylipse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    src = os.path.dirname(os.path.dirname(weylipse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_bruhat_graphs_counts():
    assert run_script("bruhat_graphs.py", "A3", "B3") == (
        "A3: |W|=24 componentwise=197 link-filter=183 subword=189 agree=False filter-missing=6\n"
        "B3: |W|=48 componentwise=851 link-filter=758 subword=799 agree=False filter-missing=41\n"
    )


def test_orbit_census_rows():
    lines = run_script("orbit_census.py", "A2", "B3", "G2xA1").splitlines()
    assert lines[0].split() == ["type", "|W|", "raw", "h>=0", "orbits", "time", "sizes"]
    # the time column is the only one that varies between runs
    rows = [re.sub(r" \d+\.\d\ds ", " - ", line).split() for line in lines[1:]]
    assert rows == [
        ["A2", "6", "1", "1", "-", "6"],
        ["B3", "48", "1", "1", "-", "48"],
        ["G2xA1", "24", "2", "2", "-", "12,", "24"],
    ]
