"""Batch front end: polynomials, verification suites, and path tables.

Exit codes: 0 on success, 1 when a verification suite finds a
counterexample (reported as JSON on stdout), 2 on usage errors.  Progress
goes to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .catalan import H_REGIONS, catalan_poly3, catalan_poly_k4, catalan_poly_lambda3
from .dyck import (KVec3, _bounce4, area3, area4, bounce3, enumerate_paths3,
                   enumerate_paths4, to_param3)
from .involution import classify, verify_involution
from .omega import GF_SECTIONS, check_gf_section
from .polynomial import SparsePoly


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None
    if min(values) < 0:
        raise ValueError(f"{what} must be nonnegative, got {text!r}")
    return values


def _emit_poly(poly: SparsePoly, fmt: str):
    if fmt == "json":
        print(json.dumps(poly.to_json_dict()))
    elif fmt == "latex":
        print(poly.latex())
    else:
        print(poly.text())


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _fail(suite: str, counterexample: dict) -> int:
    print(json.dumps({"suite": suite, "status": "fail",
                      "counterexample": counterexample}))
    return 1


def _pass(suite: str, checked: int) -> int:
    print(json.dumps({"suite": suite, "status": "pass", "checked": checked}))
    return 0


def _verify_symmetry3(max_k: int) -> int:
    checked = 0
    for k1 in range(max_k + 1):
        _progress(f"symmetry3: k1={k1}")
        for k2 in range(max_k + 1):
            for k3 in range(max_k + 1):
                checked += 1
                if not catalan_poly3(KVec3(k1, k2, k3)).is_symmetric("q", "t"):
                    return _fail("symmetry3", {"k": [k1, k2, k3]})
    return _pass("symmetry3", checked)


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
                return _fail("gf", {"identity": name, **region,
                                    "exps": list(diff.witness),
                                    "left": diff.left, "right": diff.right})
        checked += terms
    return _pass("gf", checked)


def _table_stats3(k: KVec3, fmt: str):
    rows = []
    for p in enumerate_paths3(k):
        pp = to_param3(p)
        rows.append({"r2": p.r2, "r3": p.r3, "b": pp.b, "d": pp.d,
                     "area": area3(p), "bounce": bounce3(p),
                     "case": classify(pp.a, pp.c, pp.b, pp.d)})
    _emit_table(rows, ("r2", "r3", "b", "d", "area", "bounce", "case"), fmt)


def _table_stats4(k: int, fmt: str):
    rows = []
    for p in enumerate_paths4(k):
        case, bounce = _bounce4(k, p.a, p.b, p.c)
        rows.append({"a": p.a, "b": p.b, "c": p.c, "area": area4(p),
                     "bounce": bounce, "case": H_REGIONS[case - 1]})
    _emit_table(rows, ("a", "b", "c", "area", "bounce", "case"), fmt)


def _emit_table(rows: list[dict], fields: tuple[str, ...], fmt: str):
    if fmt == "json":
        print(json.dumps(rows))
        return
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
    p.add_argument("--suite", required=True,
                   choices=("symmetry3", "symmetry4", "involution", "gf"))
    p.add_argument("--max", type=int, default=8,
                   help="range bound for symmetry/involution suites")
    p.add_argument("--truncate", type=int, default=4,
                   help="series order for the gf suite")

    p = sub.add_parser("table", help="per-path statistics table")
    p.add_argument("--what", required=True, choices=("stats3", "stats4"))
    p.add_argument("--k", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "poly3":
            _emit_poly(catalan_poly3(KVec3(*_parse_ints(args.k, 3, "--k"))),
                       args.format)
            return 0
        if args.command == "poly-lambda":
            _emit_poly(catalan_poly_lambda3(_parse_ints(args.lam, 3, "--lambda")),
                       args.format)
            return 0
        if args.command == "poly4":
            if args.k < 0:
                raise ValueError("--k must be nonnegative")
            _emit_poly(catalan_poly_k4(args.k), args.format)
            return 0
        if args.command == "verify":
            if args.max < 0 or args.truncate < 0:
                raise ValueError("--max and --truncate must be nonnegative")
            if args.suite == "symmetry3":
                return _verify_symmetry3(args.max)
            if args.suite == "symmetry4":
                return _verify_symmetry4(args.max)
            if args.suite == "involution":
                return _verify_involution(args.max)
            return _verify_gf(args.truncate)
        if args.command == "table":
            if args.what == "stats3":
                _table_stats3(KVec3(*_parse_ints(args.k, 3, "--k")), args.format)
            else:
                (k,) = _parse_ints(args.k, 1, "--k")
                _table_stats4(k, args.format)
            return 0
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
