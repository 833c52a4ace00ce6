"""Stdout goldens: exit code and sha256 of stdout for a fixed command list.

The digests were recorded before the order, product and oracle paths were
merged (one Hasse routine, one T-walk, one oracle module), so any byte of
drift in those commands fails here.  The `verify` rows from A1 to E8 were
recorded before `verify` became one table of gated checks; together they
reach every gate, a FAIL row and the E8 census row.  The `orbits`, `expand`,
`reduced-words --pvector` and `info` rows were recorded before the census
interval became a closed form and before the census and the reduced words
stopped re-sorting their output.  The `info` rows on A3, B2, C3, E7, F4 and
B2xG2, whose delta has both half-integer and integer entries, were recorded
while delta was still printed from Fractions.  The `bruhat` rows on F4, A4,
B4, D5, G2xA1 and B2xA1 were recorded while the subword order was still
peeled from one interval bitmask per element.  The four text rows after
them, the first two on `--method primary`, were recorded while the text output
still formatted both node vectors of every cover.  Each row reads: exit code,
digest, argv.
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
0 8a7590b8b1fe5ad7249bc87c068c91352ea6a2462fac689b584b7c882d4b1daf bruhat F4 --method subword --json
0 9cc6b30c475da9357d1bd6ea3300e278e51457a368b509b6242247b398b0d8e6 bruhat A4 --method subword
3 285c44628d5afd76239e851e19ec6279a636cf56a1a25b355baf2dced8495b63 bruhat B4 --method both
3 04e81ee730b34be11b824304530bda6803d7345d3e121e4ce3cd0bf2ee222934 bruhat D5 --method both
0 b5350ea18e88782ac1f93ed66e0cb2d6024e56821145fe403f5bdeb2f73cdd0a bruhat G2xA1 --method subword --json
0 ab2e1f0c3655346854b3cee96e606cde5cf2471e38aca04f3fec8beb73affef8 bruhat B2xA1 --method subword
0 055b10beb1de934a4fc3b486af196ee27230e3d7617746a7d4dfc4258c8474e7 bruhat F4 --method primary
0 1be7fe6abf878b0dc73c990053e7ceef0e1f9bbb7fe28d1c901014e57b26ba70 bruhat D4 --method primary
0 04e81ee730b34be11b824304530bda6803d7345d3e121e4ce3cd0bf2ee222934 bruhat D5 --method subword
0 1c6862e6a7f9a6c1b8a4e15e890c2966804907cdfaff8147acc5fd88385077c7 bruhat G2xA1 --method both
0 73fac306852c27240766f3ad7d6a77950aaa8a801a75e06c738ca97a5b4388a4 verify A2
3 6d12ad09386642ede3e7ec717c1fc12f8553ce1179723c140a5bb648e231120d verify B3
0 c7cb9d380f35bd73263b3c7610fd56822234b48ff5466fd286feb39f6fa606d9 verify G2xA1
0 bf01bb1055b7241e3bf13b8b4f5452e8219de2950fbeae19e507b7c36d1eb092 verify A1
3 29bcbc9e4bff6d594c254754907ad2fa27736057eb67a692242309747eb20338 verify A3
3 998df72362973d8cc8eab2e5ec54cc634f52a60841f4d89d84aa6cf47b11414c verify A4
3 86be0f9858cdb667c2ee39cd937f3e5ba8eee547ec4839e927a24406c09369f5 verify C3
3 8ca2a1ee4dc7a515fa873ee797aff0ae8f4b1ea8e80ad8dc4625d9c985cb6768 verify D4
0 9213118e0090fe42934f620411614a2e7f0b5a6eb9c718301af859bca620008e verify D5
0 a68ebebd2751890965e2fd4a37b37c98242c945ddbe488dade283313cae1ee85 verify F4
0 b60a0e40880ea9c8c6161dca7351d3eaa22f073cb2907aef3720bc6bf1f7c674 verify B2xA1
0 8f3ce91ff462a19fd5fe307648bf36f4c2de0504b3549535f6c471b142986ec1 verify E6
0 14f4d2c0224bd11c5134c276e5cfc01ceab8d7699f45f8661512233028f87bb0 verify E8
0 dc080cdebbc756eb36c26663a8c74359b78acddbce8e889a439576114fdbad87 reduced-words A3 --word 1,2,1,3,2,1 --json
0 cc5af605985bb08fa15166c4ff9b803aa0b3f4a4ec2c0a9da0c1bf86357e1b40 orbits E8
0 5d89f10b472f07fc523dc69950b9b503f6cbf229846de7d4ccd2e57754c86431 orbits G2xA1 --expand
0 3442673c9b12900d69f73781cfc817a29a4f9bfaa4b25d22dcebda5b2dafec17 orbits D9 --csv
0 99bb98d9e85e1552b619961a4bc7150ba6859ac3bb8ebc648f883d17528b3c00 orbits E7xA2 --json
0 62c34b20580c9a8fc2f2627c2e885eeb06d1f3c7eaea866f3515bf4219154663 expand B3 --json
0 acb061ef6fdaca41cf4c115217dd9e2c77bf49412633a73abc3130c3e6b8270d reduced-words D4 --pvector 6,10,6,6
0 37d344265ca667dfd0e3605c73cd8bccc4a1db7be51efcd3f345ea755bf328c2 reduced-words A4 --pvector 4,6,6,4 --json
0 dfe3ba7f31edbc406c752678ef5db64f13fef5cb2f4292162fedc69014d834e5 info G2xA1
0 a5a964ed574dbe8d7d28603f3245e5c2b353a2a1889d0b84f21f46c9c8d7596c info A3
0 47b85353837ba08542065374895313ae7cac6991b6cb93549869ef48e3c47f11 info B2
0 782ae412d05223407df4a210cccedb2f19f391ca81c542a96d07a5b88122f3a7 info C3
0 e3fd16180a4449a3ee2c264b55c7c632e287a86df8de5e0c3192e78ff423791e info E7
0 a5636cf801b694bb266f08b7cb8c2b34bd67c9205f43d69ac2b55f581f9caf20 info F4
0 2bd098d98e891c34fd4b90cd7df453f1d12ece2649e90d4c61edf2b2e494a9c6 info B2xG2
"""
ROWS = [line.split(maxsplit=2) for line in GOLDENS.strip().splitlines()]


@pytest.mark.parametrize("code, digest, argv", ROWS, ids=[argv for _, _, argv in ROWS])
def test_stdout_golden(code, digest, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(argv.split())
    assert got == int(code)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
