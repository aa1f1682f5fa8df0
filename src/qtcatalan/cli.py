"""Batch front end: polynomials, verification suites, and path tables.

Exit codes: 0 on success, 1 when a verification suite finds a counterexample
(reported as JSON on stdout), 2 on usage errors, and 141 (128 + SIGPIPE, as a
shell reports a process a closed pipe ends) with nothing on stderr when the
reader of stdout closes it early, as ``| head`` does.  Progress goes to
stderr, results to stdout; closing stderr early stops only the progress.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalan import catalan_poly3, catalan_poly_k4, catalan_poly_lambda3
from .dyck import H_REGIONS, KVec3, _rows3, _rows4
from .involution import _case, verify_involution
from .omega import GF_SECTIONS, check_gf_section


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        count = "one integer" if n == 1 else f"{n} comma-separated integers"
        raise ValueError(f"{what} needs {count}, got {text!r}")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None
    if min(values) < 0:
        raise ValueError(f"{what} must be nonnegative, got {text!r}")
    return values


def _to_devnull(stream) -> None:
    # the reader of ``stream`` closed it: later writes, and the flush at
    # exit, go to devnull instead of raising BrokenPipeError
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _progress(msg: str):
    try:
        print(msg, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)  # progress is optional: stop it, keep verifying


def _fail(suite: str, counterexample: dict) -> int:
    print(json.dumps({"suite": suite, "status": "fail",
                      "counterexample": counterexample}))
    return 1


def _pass(suite: str, checked: int) -> int:
    print(json.dumps({"suite": suite, "status": "pass", "checked": checked}))
    return 0


def _verify_symmetry3(max_k: int) -> int:
    for k1 in range(max_k + 1):
        _progress(f"symmetry3: k1={k1}")
        for k2 in range(max_k + 1):
            for k3 in range(max_k + 1):
                if not catalan_poly3(KVec3(k1, k2, k3)).is_symmetric("q", "t"):
                    return _fail("symmetry3", {"k": [k1, k2, k3]})
    return _pass("symmetry3", (max_k + 1) ** 3)


def _verify_symmetry4(max_k: int) -> int:
    for k in range(max_k + 1):
        _progress(f"symmetry4: k={k}")
        if not catalan_poly_k4(k).is_symmetric("q", "t"):
            return _fail("symmetry4", {"k": k})
    return _pass("symmetry4", max_k + 1)


def _verify_involution(max_ac: int) -> int:
    checked = 0
    for a in range(max_ac + 1):
        _progress(f"involution: a={a}")
        for c in range(max_ac + 1):
            report = verify_involution(a, c)
            checked += report.checked
            if not report.ok:
                return _fail("involution", report.to_json_dict())
    return _pass("involution", checked)


def _verify_gf(max_order: int) -> int:
    """Crude = closed = enumeration for every region, then both identities."""
    checked = 0
    for section in GF_SECTIONS:
        _progress(f"gf: {section}")
        checks, terms = check_gf_section(section, max_order)
        for name, diff in checks:
            if not diff.equal:
                region = {} if name == section else {"region": section}
                # each side named for what it holds: a region compares
                # crude_vs_closed and closed_vs_paths, an identity its
                # product form with the paths
                left, right = name.split("_vs_") if region else ("product", "paths")
                return _fail("gf", {"identity": name, **region,
                                    "exps": dict(zip(diff.names, diff.witness)),
                                    left: diff.left, right: diff.right})
        checked += terms
    return _pass("gf", checked)


# per suite, in the order --help lists them: its check, the range option it
# reads and that option's default
_SUITES = {"symmetry3": (_verify_symmetry3, "max", 8),
           "symmetry4": (_verify_symmetry4, "max", 8),
           "involution": (_verify_involution, "max", 8), "gf": (_verify_gf, "truncate", 4)}


def _table_stats3(k: KVec3, fmt: str):
    # the rows the length-3 polynomials sum, each with its involution case
    # at its run parameters (b, d)
    rows = []
    for _, (area, bounce, a, c, _, r2, r3) in _rows3([(k.k1, k.k2, k.k3)]):
        b, d = a - r2, r2 + c - r3
        rows.append({"r2": r2, "r3": r3, "b": b, "d": d, "area": area, "bounce": bounce,
                     "case": _case(a, c, b, d)[0]})
    _emit_table(rows, ("r2", "r3", "b", "d", "area", "bounce", "case"), fmt)


def _table_stats4(k: int, fmt: str):
    # the rows the k^4 polynomials sum
    rows = [{"a": a, "b": b, "c": c, "area": area, "bounce": bounce, "case": H_REGIONS[region]}
            for region, (area, bounce, _, a, b, c) in _rows4([k])]
    _emit_table(rows, ("a", "b", "c", "area", "bounce", "case"), fmt)


def _emit_table(rows: list[dict], fields: tuple[str, ...], fmt: str):
    if fmt == "json":
        print(json.dumps(rows))
        return
    import csv  # here, its one user: importing it costs every command about 1 ms
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtcatalan",
        description="q,t-Catalan polynomials of k-Dyck paths: compute, "
                    "tabulate, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_kw = dict(choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("poly3", help="polynomial for a length-3 vector")
    p.add_argument("--k", required=True, metavar="K1,K2,K3")
    p.add_argument("--format", **fmt_kw)

    p = sub.add_parser("poly-lambda", help="polynomial for a partition")
    p.add_argument("--lambda", dest="lam", required=True, metavar="L1,L2,L3")
    p.add_argument("--format", **fmt_kw)

    p = sub.add_parser("poly4", help="polynomial for k^4")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--format", **fmt_kw)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    # no argparse defaults, so that _run sees which option was given
    p.add_argument("--max", type=int,
                   help="range bound for symmetry/involution suites")
    p.add_argument("--truncate", type=int,
                   help="series order for the gf suite")

    p = sub.add_parser("table", help="per-path statistics table")
    p.add_argument("--what", required=True, choices=("stats3", "stats4"))
    p.add_argument("--k", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    for p in sub.choices.values():
        # _run reports its own usage errors, as argparse does, with the
        # subcommand's usage line
        p.set_defaults(usage_error=p.error)
    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "verify":
            # a suite reads one range option, with its default, and rejects the other
            check, option, default = _SUITES[args.suite]
            other = next(o for _, o, _ in _SUITES.values() if o != option)
            given = vars(args)
            if given[other] is not None:
                raise ValueError(f"--suite {args.suite} reads --{option}, not --{other}")
            bound = default if given[option] is None else given[option]
            if bound < 0:
                raise ValueError(f"--{option} must be nonnegative")
            return check(bound)
        if args.command == "table":
            if args.what == "stats3":
                _table_stats3(KVec3(*_parse_ints(args.k, 3, "--k")), args.format)
            else:
                _table_stats4(*_parse_ints(args.k, 1, "--k"), args.format)
            return 0
        if args.command == "poly3":
            poly = catalan_poly3(KVec3(*_parse_ints(args.k, 3, "--k")))
        elif args.command == "poly-lambda":
            poly = catalan_poly_lambda3(_parse_ints(args.lam, 3, "--lambda"))
        elif args.k < 0:
            raise ValueError("--k must be nonnegative")
        else:
            poly = catalan_poly_k4(args.k)
        print({"json": poly.to_json, "latex": poly.latex, "text": poly.text}[args.format]())
        return 0
    except ValueError as exc:
        args.usage_error(str(exc))  # exits 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); nothing reaches stderr
        _to_devnull(sys.stdout)
        return 141


if __name__ == "__main__":
    sys.exit(main())
