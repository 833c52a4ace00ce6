import json
import os
import re
import subprocess
import sys
import time

import pytest

from weylipse import (
    bruhat_from_primary,
    bruhat_from_subwords,
    build_cartan,
    build_group_table,
    cli,
    parse_type,
)
from weylipse.cli import main
from weylipse.errors import MAX_RANK
from weylipse.orbits import DEFAULT_EXPAND_CAP
from weylipse.ordering import MASK_BYTE_CAP
from weylipse.weyl import DEFAULT_TABLE_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- info and equations ---


def test_info(capsys):
    code, out, err = run_cli(capsys, "info", "B2")
    assert code == 0 and err == ""
    assert "type: B2" in out
    assert "rank: 2" in out
    assert "detA: 2" in out
    assert "weyl_order: 8" in out
    assert "delta: (3/2,2)" in out


def test_equations(capsys):
    code, out, _ = run_cli(capsys, "primary-eq", "A2")
    assert code == 0
    assert out.strip() == "x1^2 + x2^2 - x1*x2 - x1 - x2 = 0"

    code, out, _ = run_cli(capsys, "secondary-eq", "A1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equation"] == "h1^2 - 1 = 0"
    assert payload["quad"] == [[2]] and payload["constant"] == -1


# --- orbits ---


def test_orbits_csv(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A2", "--csv")
    assert code == 0
    assert out == "h;minimal;size\n1,1;0,0;6\n"


def test_orbits_json_schema(capsys):
    code, out, _ = run_cli(capsys, "orbits", "B2xA1", "--json", "--expand")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "B2xA1"
    orbits = payload["orbits"]
    assert [o["h"] for o in orbits] == [[1, 1, 1], [0, 1, 3]]
    assert [o["minimal"] for o in orbits] == [[0, 0, 0], [1, 1, -1]]
    assert [o["size"] for o in orbits] == [16, 8]
    for o in orbits:
        assert len(o["elements"]) == o["size"]
        assert o["minimal"] in o["elements"]


def test_orbits_expand_respects_cap(capsys):
    code, out, err = run_cli(capsys, "orbits", "B2", "--json", "--expand", "--cap", "4")
    assert code == 0
    payload = json.loads(out)
    assert "elements" not in payload["orbits"][0]
    assert "omitted" in err


def test_orbits_expand_cap_bounds_the_total(capsys):
    code, out, err = run_cli(capsys, "orbits", "B2xA1", "--json", "--expand", "--cap", "20")
    assert code == 0
    orbits = json.loads(out)["orbits"]
    assert [o["size"] for o in orbits] == [16, 8]
    assert len(orbits[0]["elements"]) == 16 and "elements" not in orbits[1]
    assert err == "orbit at h=(0,1,3) has size 8 > 4 left of cap 20; elements omitted\n"


def test_orbits_expand_d9_lists_at_most_the_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", "D9", "--expand", "--cap", "5000")
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 1.0
    lines = out.splitlines()
    rows = [k for k, line in enumerate(lines) if line.startswith("h=")]
    expanded = [k for k in rows if k + 1 < len(lines) and lines[k + 1].startswith("  (")]
    listed = sum(1 for line in lines if line.startswith("  ("))
    assert 0 < listed <= 5000 and expanded
    # every orbit row either lists its elements or is named on stderr
    assert len(rows) == int(lines[1].removeprefix("orbits: "))
    assert err.count("elements omitted\n") == err.count("\n") == len(rows) - len(expanded)


def test_orbits_csv_expand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "orbits", "A2", "--csv", "--expand")
    assert code == 1 and "--expand" in err


# --- expand ---


def test_expand_default_origin(capsys):
    code, out, _ = run_cli(capsys, "expand", "A2")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "1,0", "1,2", "2,1", "2,2"]


def test_expand_cap_exceeded_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "A2", "--cap", "3")
    assert code == 2 and "cap" in err


def test_expand_e8_refuses_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", "E8")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "696729600 points" in err and "cap 10000000" in err


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", ["orbits", "expand", "bruhat"])
def test_cap_below_one_is_usage_error(capsys, command, value):
    code, out, err = run_cli(capsys, command, "A2", "--cap", value)
    assert code == 1 and out == ""
    assert err.startswith("error: argument --cap") and err.count("\n") == 1


def test_expand_bad_point_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "A2", "--point", "1,1")
    assert code == 2 and "primary" in err


def test_vectors_with_a_leading_minus_are_values(capsys):
    # -1,1,2,2 is the minimal vector `orbits B4` prints for h = (4,0,0,1)
    code, out, err = run_cli(capsys, "expand", "B4", "--point", "-1,1,2,2")
    assert code == 0 and err == "" and out.startswith("-1,1,2,2\n")
    assert run_cli(capsys, "expand", "B4", "--point=-1,1,2,2") == (code, out, err)
    code, out, err = run_cli(capsys, "reduced-words", "A3", "--pvector", "-1,0,0")
    assert code == 2 and out == ""
    assert err == "error: (-1, 0, 0) is not in the main orbit of A3\n"


# --- realize and reduced-words ---


def test_realize_identity(capsys):
    code, out, _ = run_cli(capsys, "realize", "A2", "--word", "")
    assert code == 0
    assert "P: (0,0)" in out and "S: (1,1)" in out and "length: 0" in out


def test_realize_json(capsys):
    code, out, _ = run_cli(capsys, "realize", "B2", "--word", "1,2,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pvector"] == [3, 4]
    assert payload["svector"] == [-1, -1]
    assert payload["length"] == 4


def test_realize_bad_word(capsys):
    code, _, err = run_cli(capsys, "realize", "A2", "--word", "1,x")
    assert code == 1 and "word" in err
    code, _, err = run_cli(capsys, "realize", "A2", "--word", "9")
    assert code == 1


def test_reduced_words_by_word_and_pvector(capsys):
    code, out, _ = run_cli(capsys, "reduced-words", "A2", "--word", "1,2,1")
    assert code == 0
    assert "count: 2" in out and "1,2,1" in out and "2,1,2" in out

    code, out2, _ = run_cli(capsys, "reduced-words", "A2", "--pvector", "2,2")
    assert code == 0
    assert out2 == out

    code, out, _ = run_cli(capsys, "reduced-words", "A2", "--word", " ")  # blank: the identity
    assert code == 0 and out == "element: (0,0)\nlength: 0\ncount: 1\n(empty)\n"

    code, _, err = run_cli(capsys, "reduced-words", "A2")
    assert code == 1
    code, _, err = run_cli(capsys, "reduced-words", "A2", "--word", "1", "--pvector", "1,0")
    assert code == 1
    code, _, err = run_cli(capsys, "reduced-words", "A2", "--pvector", "3,0")
    assert code == 2


@pytest.mark.parametrize(
    "argv, what",
    [
        (["reduced-words", "A3", "--pvector", "1,2"], "expected 3-vector, got 2"),
        (["reduced-words", "A3", "--pvector", ""], "expected 3-vector, got 0"),
        (["expand", "A3", "--point", "1,2"], "expected 3-vector, got 2"),
        (["expand", "A3", "--point", ""], "expected 3-vector, got 0"),
        (["expand", "A3", "--point", "1,x,0"], "cannot parse point '1,x,0'"),
        (["reduced-words", "A3", "--word", "1,x"], "cannot parse word '1,x'"),
    ],
)
def test_malformed_vectors_are_usage_errors(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {what}") and err.count("\n") == 1


# --- bruhat ---


def test_bruhat_agreement_exit_codes(capsys):
    code, out, err = run_cli(capsys, "bruhat", "A2", "--method", "both")
    assert code == 0 and "disagree" not in err
    assert "kind: bruhat_subword" in out

    for text, missing in (("A3", 6), ("B3", 41), ("D4", 1119)):
        code, _, err = run_cli(capsys, "bruhat", text, "--method", "both")
        assert code == 3
        assert "disagree" in err and f"missing {missing}" in err
        # the popcounts of the down sets against the pair sets of the relations
        table = build_group_table(build_cartan(parse_type(text)))
        found, truth = bruhat_from_primary(table).relation(), bruhat_from_subwords(table).relation()
        assert len(truth - found) == missing
        assert err == (
            f"bruhat constructions disagree on {text}: link-filter has {len(found)} relations, "
            f"subword has {len(truth)} (missing {missing}, extra {len(found - truth)})\n"
        )


def test_bruhat_single_methods(capsys):
    code, out, _ = run_cli(capsys, "bruhat", "A3", "--method", "primary")
    assert code == 0 and "kind: bruhat_primary_filtered" in out and "covers: 54" in out
    code, out, _ = run_cli(capsys, "bruhat", "A3", "--method", "subword")
    assert code == 0 and "kind: bruhat_subword" in out


def test_bruhat_json_and_dot(capsys, tmp_path):
    dot_file = tmp_path / "a2.dot"
    code, out, _ = run_cli(
        capsys, "bruhat", "A2", "--method", "subword", "--dot", str(dot_file), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bruhat_subword"
    assert sorted(map(tuple, payload["nodes"])) == [
        (0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2),
    ]
    for a, b in payload["covers"]:
        assert 0 <= a < 6 and 0 <= b < 6
    text = dot_file.read_text()
    assert text.startswith('digraph "bruhat_subword"') and text.count("->") == len(
        payload["covers"]
    )


def test_bruhat_text_formats_each_node_once(capsys, monkeypatch):
    calls = 0
    real = cli._vec

    def counted(v):
        nonlocal calls
        calls += 1
        return real(v)

    monkeypatch.setattr(cli, "_vec", counted)
    code, out, _ = run_cli(capsys, "bruhat", "A4", "--method", "subword")
    assert code == 0 and "covers: 444" in out
    assert calls == 120  # |W(A4)|, not two per cover


def vector(label):
    return tuple(int(x) for x in label.strip("()").split(","))


@pytest.mark.parametrize("method", ["primary", "subword"])
@pytest.mark.parametrize("text", ["A3", "B3", "D4", "G2xA1", "B2xA1", "A2xA2"])
def test_bruhat_renderers_list_one_cover_order(capsys, tmp_path, text, method):
    _, out, _ = run_cli(capsys, "bruhat", text, "--method", method)
    lines = [line.split(" < ") for line in out.splitlines() if " < " in line]
    from_text = [(vector(a), vector(b)) for a, b in lines]

    _, out, _ = run_cli(capsys, "bruhat", text, "--method", method, "--json")
    payload = json.loads(out)
    nodes = [tuple(v) for v in payload["nodes"]]
    from_json = [(nodes[a], nodes[b]) for a, b in payload["covers"]]

    dot_file = tmp_path / "order.dot"
    run_cli(capsys, "bruhat", text, "--method", method, "--dot", str(dot_file))
    dot = dot_file.read_text()
    labels = dict(re.findall(r'^  (n\d+) \[label="(.*)"\];$', dot, re.M))
    edges = re.findall(r"^  (n\d+) -> (n\d+);$", dot, re.M)
    from_dot = [(vector(labels[a]), vector(labels[b])) for a, b in edges]

    assert from_text
    assert from_text == from_json == from_dot
    assert all(x < y for x, y in zip(from_text, from_text[1:]))


def test_bruhat_unwritable_dot_is_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "a2.dot"
    code, out, err = run_cli(capsys, "bruhat", "A2", "--dot", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("method", ["subword", "both"])
def test_bruhat_failed_check_is_one_line_exit_2(capsys, monkeypatch, method):
    import weylipse.weyl
    from weylipse import WeylElement, build_group_table

    def corrupted(cd, cap):
        # s_2 is no descent of s_1, so the subword intervals refuse this word
        table = build_group_table(cd, cap=cap)
        table.elements[(1, 0)] = WeylElement((2,), cd.A)
        return table

    # the command imports its layers when it runs, so it reads the patched name
    monkeypatch.setattr(weylipse.weyl, "build_group_table", corrupted)
    code, out, err = run_cli(capsys, "bruhat", "A2", "--method", method)
    assert code == 2 and out == ""
    assert err == "error: parent (1, 2) of (1, 0) in A2 is not before it\n"


def test_bruhat_cap(capsys):
    code, _, err = run_cli(capsys, "bruhat", "E8")
    assert code == 2 and "cap" in err


def test_bruhat_d7_refuses_its_masks_at_once(capsys):
    # |W(D7)| = 322560 passes the table cap, but its down-set masks would not fit;
    # the subword covers build no mask, yet the command keeps the one bound for it too
    for method in ((), ("--method", "subword")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bruhat", "D7", *method)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (
            "error: down-set masks of 322560 nodes need about 6502809600 bytes, "
            "exceeding cap MASK_BYTE_CAP = 1073741824\n"
        )


# --- verify ---


def test_verify_small_type_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "A2")
    assert code == 0
    assert "FAIL" not in out
    assert "bruhat-constructions-agree" in out


def test_verify_e8_census_target_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "E8")
    assert code == 0
    assert "PASS e8-census-target" in out
    assert "FAIL" not in out


def test_verify_skip_rows_name_their_gate(capsys):
    import weylipse.verify as verify

    names = {}
    for text in ("A4", "D4", "D5", "E6"):
        _, out, _ = run_cli(capsys, "verify", text)
        assert "SKIP" in out
        rows = out.splitlines()[:-1]  # the last line is the summary
        for line in rows:
            if line.startswith("SKIP"):
                found = re.match(r"^SKIP \S+: .+ (\d+) > ([A-Z_]+_GATE) (\d+)$", line)
                assert found, line
                value, name, limit = found.groups()
                assert int(limit) == getattr(verify, name) and int(value) > int(limit), line
        names[text] = [line.split()[1].rstrip(":") for line in rows]
    # E6 is past TABLE_GATE: each table check still reports, as a SKIP naming |W|
    assert names["E6"] == names["D5"]
    assert "SKIP first-letter-exhaustive: |W| = 51840 > TABLE_GATE 20000" in out


def test_verify_a3_surfaces_bruhat_divergence(capsys):
    code, out, _ = run_cli(capsys, "verify", "A3")
    assert code == 3
    assert "FAIL bruhat-constructions-agree" in out


# --- usage errors and determinism ---


def test_unknown_type_and_flags(capsys):
    code, _, err = run_cli(capsys, "info", "H3")
    assert code == 1
    code, _, err = run_cli(capsys, "orbits", "A2", "--nonsense")
    assert code == 1
    code, _, err = run_cli(capsys, "info", "E9")
    assert code == 1


def test_type_parse_error_wins_over_other_faults(capsys):
    # the type is parsed with the arguments, before any command checks its options
    code, out, err = run_cli(capsys, "orbits", "X9", "--csv", "--expand")
    assert code == 1 and out == ""
    assert err == "error: cannot parse type token 'X9'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("A3x", "type 'A3x' has an empty factor 2 of 2"),
        ("xA3", "type 'xA3' has an empty factor 1 of 2"),
        ("A3xxB2", "type 'A3xxB2' has an empty factor 2 of 3"),
    ],
)
def test_an_empty_type_factor_names_the_type(capsys, text, message):
    code, out, err = run_cli(capsys, "orbits", text)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, bounds",
    [
        ("orbits", [DEFAULT_EXPAND_CAP]),
        ("expand", [DEFAULT_EXPAND_CAP]),
        ("bruhat", [DEFAULT_TABLE_CAP, MASK_BYTE_CAP]),
    ],
)
def test_help_states_the_bounds(capsys, command, bounds):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert all(str(bound) in text for bound in bounds)


@pytest.mark.parametrize("argv", [["info", "A3000"], ["primary-eq", "A2000"]])
def test_a_type_over_the_rank_bound_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    rank = argv[1][1:]
    assert err == f"error: type {argv[1]} has rank {rank}, exceeding MAX_RANK {MAX_RANK}\n"


@pytest.mark.parametrize(
    "command",
    ["", "info", "primary-eq", "secondary-eq", "orbits", "expand", "realize", "reduced-words",
     "bruhat", "verify"],
)
def test_help_states_the_rank_bound(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
    stated = f"rank over MAX_RANK = {MAX_RANK}" if not command else f"rank at most {MAX_RANK}"
    assert stated in text


def test_byte_identical_runs(capsys):
    first = run_cli(capsys, "orbits", "F4", "--json")
    second = run_cli(capsys, "orbits", "F4", "--json")
    assert first == second


def child_env():
    import weylipse

    # the child finds the package where this process did, with or without PYTHONPATH
    src = os.path.dirname(os.path.dirname(weylipse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "weylipse.cli", "orbits", "A3", "--csv"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "h;minimal;size\n1,1,1;0,0,0;24\n"


def test_bruhat_into_a_closed_pipe_exits_0_quietly():
    # F4 prints 167240 bytes, more than a pipe holds, so the child is still
    # printing covers line by line when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylipse.cli", "bruhat", "F4", "--method", "subword"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"type: F4\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""
