"""Command-line interface.

All data goes to stdout, diagnostics to stderr.  Output is canonically
ordered, so identical invocations are byte-identical.  Exit codes:
0 success, 1 usage error, 2 computation error (cap exceeded, not a solution),
3 verification or divergence failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .cartan import build_cartan, parse_type, weyl_order
from .errors import (
    DEFAULT_EXPAND_CAP,
    DEFAULT_TABLE_CAP,
    MASK_BYTE_CAP,
    MAX_RANK,
    ComputationError,
    UsageError,
    WeylipseError,
)

# each _cmd_* imports the layers it runs, so a process loads only those of its command

SAFE_INT = 2**53


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus then a digit starts a value, as in "--point -1,1,2,2": no option does
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):  # argparse default exits with 2; usage errors are 1 here
        raise UsageError(message)


def _json_int(v: int):
    return v if abs(v) < SAFE_INT else str(v)


def _print_json(payload, indent=2) -> None:
    import json  # loaded only by the commands that print JSON

    print(json.dumps(payload, indent=indent))


def _vec(v) -> str:
    return ",".join(str(x) for x in v)


def _cartan(text: str):
    return build_cartan(parse_type(text))


def _ints(what: str, unit: str = "integers"):
    """An argparse type: comma-separated integers, the empty tuple for a blank text."""

    def parse(text: str) -> tuple[int, ...]:
        if not text.strip():
            return ()
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError:
            message = f"cannot parse {what} {text!r}: expected comma-separated {unit}"
            raise UsageError(message) from None

    return parse


def _cap(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _quadform_json(form) -> dict:
    return {
        "n": form.n,
        "quad": [list(row) for row in form.quad],
        "linear": list(form.linear),
        "constant": form.constant,
        "convention": "value(x) = x.quad.x/2 + linear.x + constant",
    }


def _poset_json(p) -> dict:
    return {
        "nodes": [list(v) for v in p.nodes],
        "covers": [list(c) for c in sorted(p.covers)],
        "kind": p.kind,
    }


def _cmd_info(cd, args) -> int:
    out = sys.stdout
    print(f"type: {cd.spec}", file=out)
    print(f"rank: {cd.n}", file=out)
    print(f"detA: {cd.detA}", file=out)
    print(f"weyl_order: {weyl_order(cd)}", file=out)
    print(f"k: ({_vec(cd.k)})", file=out)
    halves = (str(t // 2) if t % 2 == 0 else f"{t}/2" for t in cd.two_delta)
    print(f"delta: ({','.join(halves)})", file=out)
    print("cartan_matrix:", file=out)
    for row in cd.A:
        print(f"  [{' '.join(f'{v:3d}' for v in row)}]", file=out)
    return 0


def _cmd_equation(cd, args) -> int:
    from .quadrics import primary_form, secondary_form

    primary = args.command == "primary-eq"
    form, var = (primary_form(cd), "x") if primary else (secondary_form(cd), "h")
    if args.json:
        payload = {"type": str(cd.spec), "equation": form.equation_text(var)}
        payload.update(_quadform_json(form))
        _print_json(payload)
    else:
        print(form.equation_text(var))
    return 0


def _cmd_orbits(cd, args) -> int:
    from .orbits import expand_orbit, orbit_seeds

    if args.csv and args.expand:
        raise UsageError("--expand is not available with --csv output")
    records = orbit_seeds(cd)
    if args.expand:
        # the cap bounds the elements listed in all, so at most cap points are held at once
        left = args.cap
        expanded = []
        for rec in records:
            if rec.size <= left:
                elements = tuple(expand_orbit(rec.minimal, cd, cap=left))
                left -= rec.size
                expanded.append(rec._replace(elements=elements))
            else:
                over = f"cap {args.cap}"
                if rec.size <= args.cap:
                    over = f"{left} left of {over}"
                print(
                    f"orbit at h=({_vec(rec.h)}) has size {rec.size} > {over}; elements omitted",
                    file=sys.stderr,
                )
                expanded.append(rec)
        records = expanded
    if args.json:
        payload = {
            "type": str(cd.spec),
            "orbits": [
                {
                    "h": list(rec.h),
                    "minimal": list(rec.minimal),
                    "size": _json_int(rec.size),
                    **(
                        {"elements": [list(e) for e in rec.elements]}
                        if rec.elements is not None
                        else {}
                    ),
                }
                for rec in records
            ],
        }
        _print_json(payload)
    elif args.csv:
        print("h;minimal;size")
        for rec in records:
            print(f"{_vec(rec.h)};{_vec(rec.minimal)};{rec.size}")
    else:
        print(f"type: {cd.spec}")
        print(f"orbits: {len(records)}")
        line = "  (" + ",".join(["%d"] * cd.n) + ")\n"  # one element, as `_vec` writes it
        for rec in records:
            print(f"h=({_vec(rec.h)}) minimal=({_vec(rec.minimal)}) size={rec.size}")
            if rec.elements is not None:
                sys.stdout.writelines(line % e for e in rec.elements)
    return 0


def _cmd_expand(cd, args) -> int:
    from .orbits import expand_orbit

    point = (0,) * cd.n if args.point is None else args.point
    elements = expand_orbit(point, cd, cap=args.cap)
    if args.json:
        _print_json({"type": str(cd.spec), "elements": [list(e) for e in elements]}, indent=None)
    else:
        line = ",".join(["%d"] * cd.n) + "\n"
        sys.stdout.writelines(line % e for e in elements)
    return 0


def _cmd_realize(cd, args) -> int:
    from .weyl import P_map, S_map, element_from_pvector, word_to_element

    w = word_to_element(args.word, cd)
    p = P_map(w, cd)
    s = S_map(w, cd)
    length = len(element_from_pvector(p, cd).word)
    if args.json:
        payload = {
            "type": str(cd.spec),
            "word": list(w.word),
            "length": length,
            "matrix": [list(row) for row in w.mat],
            "pvector": list(p),
            "svector": list(s),
        }
        _print_json(payload)
    else:
        print(f"type: {cd.spec}")
        print(f"word: {_vec(w.word) if w.word else '(empty)'}")
        print(f"length: {length}")
        print("matrix:")
        for row in w.mat:
            print(f"  [{' '.join(f'{v:3d}' for v in row)}]")
        print(f"P: ({_vec(p)})")
        print(f"S: ({_vec(s)})")
    return 0


def _cmd_reduced_words(cd, args) -> int:
    from .ordering import reduced_words
    from .weyl import element_from_pvector, word_to_element

    if (args.word is None) == (args.pvector is None):
        raise UsageError("provide exactly one of --word or --pvector")
    if args.word is not None:
        w = word_to_element(args.word, cd)
    else:
        w = element_from_pvector(args.pvector, cd)
    rws = reduced_words(w, cd)
    if args.json:
        payload = {
            "type": str(cd.spec),
            "element": list(rws.element),
            "length": rws.length,
            "count": len(rws.words),
            "words": [list(word) for word in rws.words],
        }
        _print_json(payload)
    else:
        print(f"element: ({_vec(rws.element)})")
        print(f"length: {rws.length}")
        print(f"count: {len(rws.words)}")
        for word in rws.words:
            print(_vec(word) if word else "(empty)")
    return 0


def _cmd_bruhat(cd, args) -> int:
    from .ordering import (
        _mask_budget,
        bruhat_from_primary,
        bruhat_from_subwords,
        emit_dot,
        relation_counts,
    )
    from .weyl import build_group_table

    _mask_budget(weyl_order(cd))
    table = build_group_table(cd, cap=args.cap)
    diverged = False
    if args.method == "primary":
        poset = bruhat_from_primary(table)
    elif args.method == "subword":
        poset = bruhat_from_subwords(table)
    else:
        filtered = bruhat_from_primary(table)
        poset = bruhat_from_subwords(table)
        # both are Hasse diagrams, so the orders differ exactly when the covers do
        if filtered.covers != poset.covers:
            diverged = True
            n_f, n_s, missing, extra = relation_counts(filtered, poset)
            print(
                f"bruhat constructions disagree on {cd.spec}: "
                f"link-filter has {n_f} relations, subword has {n_s} "
                f"(missing {missing}, extra {extra})",
                file=sys.stderr,
            )
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(emit_dot(poset))
        except OSError as exc:
            raise ComputationError(f"cannot write {args.dot}: {exc.strerror or exc}") from None
    if args.json:
        _print_json(_poset_json(poset))
    elif not args.dot:
        print(f"type: {cd.spec}")
        print(f"kind: {poset.kind}")
        print(f"nodes: {len(poset.nodes)}")
        print(f"covers: {len(poset.covers)}")
        # nodes are the sorted, distinct GroupTable.nodes: index pairs sort as vector pairs
        labels = [f"({_vec(v)})" for v in poset.nodes]
        for a, b in sorted(poset.covers):
            print(f"{labels[a]} < {labels[b]}")
    return 3 if diverged else 0


def _cmd_verify(cd, args) -> int:
    from .verify import run_verification

    results = run_verification(cd)
    failed = 0
    for res in results:
        line = f"{res.status:4s} {res.name}"
        if res.detail:
            line += f": {res.detail}"
        print(line)
        failed += res.status == "FAIL"
    passed = sum(1 for r in results if r.status == "PASS")
    skipped = sum(1 for r in results if r.status == "SKIP")
    print(f"summary: {passed} passed, {failed} failed, {skipped} skipped")
    return 3 if failed else 0


def build_parser() -> _Parser:
    rank_bound = f"a type of total rank over MAX_RANK = {MAX_RANK} exits 2 before any work"
    parser = _Parser(prog="weylipse", description=__doc__, epilog=rank_bound)
    sub = parser.add_subparsers(dest="command", required=True)
    type_help = f"type string, e.g. A3 or B2xG2, of total rank at most {MAX_RANK}"

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("cd", metavar="type", type=_cartan, help=type_help)
        p.set_defaults(func=func)
        return p

    add("info", _cmd_info, help="rank, Cartan matrix, weights, delta, detA, |W|")

    p = add("primary-eq", _cmd_equation, help="primary quadric equation")
    p.add_argument("--json", action="store_true")
    p = add("secondary-eq", _cmd_equation, help="secondary quadric equation")
    p.add_argument("--json", action="store_true")

    p = add("orbits", _cmd_orbits, help="orbit census: h, minimal vector, size")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--expand", action="store_true", help="include orbit elements (subject to cap)")
    cap_help = (
        "most orbit elements that --expand lists in all; an orbit that does not fit in "
        "what is left is named on stderr, without elements (default %(default)s)"
    )
    p.add_argument("--cap", type=_cap, default=DEFAULT_EXPAND_CAP, help=cap_help)

    p = add("expand", _cmd_expand, help="expand one orbit from a starting point")
    p.add_argument("--point", type=_ints("point"), help="comma-separated start, default origin")
    p.add_argument("--json", action="store_true")
    cap_help = "exit 2, before the walk, on an orbit of more than CAP points (default %(default)s)"
    p.add_argument("--cap", type=_cap, default=DEFAULT_EXPAND_CAP, help=cap_help)

    word = _ints("word", "indices")
    p = add("realize", _cmd_realize, help="matrix, P- and S-vector of a word")
    p.add_argument(
        "--word", type=word, required=True, help='comma-separated indices, "" for identity'
    )
    p.add_argument("--json", action="store_true")

    p = add("reduced-words", _cmd_reduced_words, help="all reduced expressions of an element")
    p.add_argument("--word", type=word)
    p.add_argument("--pvector", type=_ints("pvector"))
    p.add_argument("--json", action="store_true")

    about = "Bruhat order poset (exit 3 if methods disagree)"
    masks = f"{about}; exit 2 at once if its bitmasks, |W|^2/16 bytes, pass {MASK_BYTE_CAP} bytes"
    p = add("bruhat", _cmd_bruhat, help=about, description=masks)
    p.add_argument("--method", choices=["primary", "subword", "both"], default="both")
    p.add_argument("--dot", default=None, metavar="FILE")
    p.add_argument("--json", action="store_true")
    cap_help = "exit 2, before the group table, if |W| is more than CAP (default %(default)s)"
    p.add_argument("--cap", type=_cap, default=DEFAULT_TABLE_CAP, help=cap_help)

    add("verify", _cmd_verify, help="run the invariant suite sized to this type")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args.cd, args)
    except WeylipseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
