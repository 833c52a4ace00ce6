"""Stdout goldens: exit code and sha256 of stdout for a fixed command list.

The digests were recorded before the order, product and oracle paths were
merged (one Hasse routine, one T-walk, one oracle module), so any byte of
drift in those commands fails here.  Each row reads: exit code, digest, argv.
"""

import contextlib
import hashlib
import io

import pytest

from weylipse.cli import main

GOLDENS = """
0 7f9880122a716e9a8416e8cba0e1313ef76400accab77c6cf326875bcbf06fb9 bruhat A3 --method primary --json
0 d9d8212cb250fc2c98bcab89caee7532cbf91f6eec905d05a2b159b45edf4a4c bruhat B3 --method primary --json
0 b287da148532e3479c4231edaf0c6d11660fad0a06ba1f2a13c820f16c1d7829 bruhat D4 --method primary --json
0 fce68268eb7032338f3d29a2eb81e5bda66f8efa54c7071ea47630fbf1daea34 bruhat A3 --method subword --json
0 fa21a39fdb3085bc2eb35624f3a201411c8eb414fc71c90cc98a743392fbd591 bruhat B3 --method subword --json
0 5acc45ed90018b2c28734e14938b13779b80548735d0ecda8cb4f420b0ea77a3 bruhat D4 --method subword --json
3 1def2e224471243639cf5afdff41def9554b7e36597c2ef4c04862068b052853 bruhat A3 --method both
0 73fac306852c27240766f3ad7d6a77950aaa8a801a75e06c738ca97a5b4388a4 verify A2
3 6d12ad09386642ede3e7ec717c1fc12f8553ce1179723c140a5bb648e231120d verify B3
0 c7cb9d380f35bd73263b3c7610fd56822234b48ff5466fd286feb39f6fa606d9 verify G2xA1
0 dc080cdebbc756eb36c26663a8c74359b78acddbce8e889a439576114fdbad87 reduced-words A3 --word 1,2,1,3,2,1 --json
"""
ROWS = [line.split(maxsplit=2) for line in GOLDENS.strip().splitlines()]


@pytest.mark.parametrize("code, digest, argv", ROWS, ids=[argv for _, _, argv in ROWS])
def test_stdout_golden(code, digest, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(argv.split())
    assert got == int(code)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
