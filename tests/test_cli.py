import csv
import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import qtcatalan
from qtcatalan.cli import main
from qtcatalan.dyck import KVec3, enumerate_paths3
from qtcatalan.involution import classify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    capsys.readouterr()
    return exc.value.code


def usage_error_lines(capsys, *argv):
    """Exit 2 and an empty stdout; returns the usage lines and the error line."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    *usage, error = err.splitlines()
    return " ".join(" ".join(usage).split()), error


def test_poly3_text(capsys):
    code, out, _ = run(capsys, "poly3", "--k", "1,1,1")
    assert code == 0
    assert out.strip() == "q^3 + q^2*t + q*t^2 + q*t + t^3"


def test_poly3_trivial(capsys):
    code, out, _ = run(capsys, "poly3", "--k", "0,0,0")
    assert code == 0
    assert out.strip() == "1"


def test_poly3_json_canonical(capsys):
    code, out, _ = run(capsys, "poly3", "--k", "1,1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["q", "t"]
    assert [t["exps"] for t in doc["terms"]] == [
        [3, 0], [2, 1], [1, 2], [1, 1], [0, 3]]


def test_poly3_latex(capsys):
    code, out, _ = run(capsys, "poly3", "--k", "1,1,1", "--format", "latex")
    assert code == 0
    assert "q^{3}" in out


def test_poly_lambda(capsys):
    code, out, _ = run(capsys, "poly-lambda", "--lambda", "2,1,1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_exps = {tuple(t["exps"]): t["coeff"] for t in doc["terms"]}
    assert by_exps == {tuple(reversed(k)): v for k, v in by_exps.items()}


def test_poly_lambda_rejects_increasing(capsys):
    assert run_usage_error(capsys, "poly-lambda", "--lambda", "1,2,3") == 2


def test_poly4(capsys):
    code, out, _ = run(capsys, "poly4", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sum(t["coeff"] for t in doc["terms"]) == 14


def test_malformed_k_exits_2(capsys):
    assert run_usage_error(capsys, "poly3", "--k", "1,1") == 2
    assert run_usage_error(capsys, "poly3", "--k", "1,1,x") == 2
    assert run_usage_error(capsys, "poly3", "--k", "1,1,-1") == 2
    assert run_usage_error(capsys, "poly4", "--k", "nope") == 2
    # the CLI's own checks report through the subcommand's parser, as
    # argparse's do, so the usage line names the subcommand's options
    assert usage_error_lines(capsys, "poly3", "--k", "1,1") == (
        "usage: qtcatalan poly3 [-h] --k K1,K2,K3 [--format {text,json,latex}]",
        "qtcatalan poly3: error: --k needs 3 comma-separated integers, got '1,1'")
    assert usage_error_lines(capsys, "poly4", "--k", "-1") == (
        "usage: qtcatalan poly4 [-h] --k K [--format {text,json,latex}]",
        "qtcatalan poly4: error: --k must be nonnegative")
    # a one-integer option is not a list of them
    assert usage_error_lines(capsys, "table", "--what", "stats4", "--k", "1,2") == (
        "usage: qtcatalan table [-h] --what {stats3,stats4} --k K [--format {csv,json}]",
        "qtcatalan table: error: --k needs one integer, got '1,2'")


def test_unknown_flags_exit_2(capsys):
    assert run_usage_error(capsys, "poly3", "--q", "1") == 2
    assert run_usage_error(capsys, "verify", "--suite", "nope") == 2


def test_verify_rejects_the_range_option_its_suite_does_not_read(capsys):
    assert run_usage_error(capsys, "verify", "--suite", "gf", "--max", "12") == 2
    assert run_usage_error(capsys, "verify", "--suite", "involution", "--truncate", "30") == 2
    assert usage_error_lines(capsys, "verify", "--suite", "gf", "--max", "3") == (
        "usage: qtcatalan verify [-h] --suite {symmetry3,symmetry4,involution,gf}"
        " [--max MAX] [--truncate TRUNCATE]",
        "qtcatalan verify: error: --suite gf reads --truncate, not --max")


def test_verify_names_the_negative_range_option(capsys):
    # the bound a suite reads, from its row of cli._SUITES
    assert usage_error_lines(capsys, "verify", "--suite", "gf", "--truncate", "-1")[1] == (
        "qtcatalan verify: error: --truncate must be nonnegative")
    assert usage_error_lines(capsys, "verify", "--suite", "involution", "--max", "-1")[1] == (
        "qtcatalan verify: error: --max must be nonnegative")


def test_verify_symmetry3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symmetry3", "--max", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"suite": "symmetry3", "status": "pass", "checked": 64}


def test_verify_symmetry4(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symmetry4", "--max", "3")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_involution(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "involution", "--max", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_gf(capsys):
    code, out, err = run(capsys, "verify", "--suite", "gf", "--truncate", "2")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert "EQ2" in err  # progress goes to stderr


def test_table_stats3(capsys):
    code, out, _ = run(capsys, "table", "--what", "stats3", "--k", "1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r2,r3,b,d,area,bounce,case"
    assert len(lines) == 6


def test_table_stats3_trivial(capsys):
    code, out, _ = run(capsys, "table", "--what", "stats3", "--k", "0,0,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,0,0,0,0,0")


def test_table_stats4(capsys):
    code, out, _ = run(capsys, "table", "--what", "stats4", "--k", "1",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 14
    assert {"a", "b", "c", "area", "bounce", "case"} <= set(rows[0])


def test_table_stats4_classifies_each_path_once(capsys, monkeypatch):
    import qtcatalan.cli as cli_mod
    import qtcatalan.dyck as dyck_mod

    points = []

    def counting(k, a, b, cs, *appenders):
        cs = list(cs)
        points.extend((k, a, b, c) for c in cs)
        return real(k, a, b, cs, *appenders)

    # the paths are classified a run (k, a, b) at a time, by the loop form
    real = dyck_mod._bounce4_rows
    monkeypatch.setattr(dyck_mod, "_bounce4_rows", counting)
    monkeypatch.setattr(cli_mod, "_bounce4_rows", counting, raising=False)
    code, out, _ = run(capsys, "table", "--what", "stats4", "--k", "3")
    assert code == 0
    assert len(out.splitlines()) == 1 + 140
    assert len(points) == len(set(points)) == 140


def _stats3_rows_from_path_objects(k: KVec3) -> list[dict]:
    # the stats3 table as built from validated path objects and their
    # stats(), the reference for the table read from the row stream
    rows = []
    for p in enumerate_paths3(k):
        _, area, bounce = p.stats()
        b, d = k.k1 - p.r2, p.r2 + k.k2 - p.r3  # run parameters
        rows.append({"r2": p.r2, "r3": p.r3, "b": b, "d": d, "area": area, "bounce": bounce,
                     "case": classify(k.k1, k.k2, b, d)})
    return rows


def test_table_stats3_matches_the_path_object_table(capsys):
    fields = ("r2", "r3", "b", "d", "area", "bounce", "case")
    for k1, k2, k3 in product(range(7), range(7), range(2)):
        rows = _stats3_rows_from_path_objects(KVec3(k1, k2, k3))
        want_csv = io.StringIO()
        writer = csv.DictWriter(want_csv, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        vector = f"{k1},{k2},{k3}"
        assert run(capsys, "table", "--what", "stats3", "--k", vector) == (
            0, want_csv.getvalue(), ""), vector
        assert run(capsys, "table", "--what", "stats3", "--k", vector, "--format", "json") == (
            0, json.dumps(rows) + "\n", ""), vector


def test_table_stats3_classifies_each_path_once(capsys, monkeypatch):
    import qtcatalan.cli as cli_mod
    import qtcatalan.dyck as dyck_mod
    import qtcatalan.involution as involution_mod

    calls = {"_bounce3": 0, "_case": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(dyck_mod, "_bounce3", counting("_bounce3", dyck_mod._bounce3))
    case = counting("_case", involution_mod._case)
    monkeypatch.setattr(involution_mod, "_case", case)
    monkeypatch.setattr(cli_mod, "_case", case, raising=False)
    code, out, _ = run(capsys, "table", "--what", "stats3", "--k", "4,2,1")
    assert code == 0
    # (k1 + 1)(k2 + 1) + k1(k1 + 1)/2 = 25 paths for (4, 2, 1)
    assert len(out.splitlines()) == 1 + 25
    assert calls == {"_bounce3": 25, "_case": 25}


def test_verify_gf_classifies_each_path_once(capsys, monkeypatch):
    import qtcatalan.catalan as catalan_mod
    import qtcatalan.dyck as dyck_mod

    calls = {3: 0, 4: 0}
    yielded = {3: 0, 4: 0}
    cached = {}

    def counting(family, real):
        def wrapper(*args):
            calls[family] += 1
            return real(*args)
        return wrapper

    def counting_runs(real):
        # a k^4 run (k, a, b) is classified by one loop-form call over its c values
        def wrapper(k, a, b, cs, *appenders):
            cs = list(cs)
            calls[4] += len(cs)
            return real(k, a, b, cs, *appenders)
        return wrapper

    def yielding(family, real):
        def wrapper(*args):
            for row in real(*args):
                yielded[family] += 1
                yield row
        return wrapper

    def keeping(three, order):
        cached[three, order] = views = real_rows(three, order)
        return views

    real_rows = catalan_mod._gf_rows
    monkeypatch.setattr(dyck_mod, "_bounce3", counting(3, dyck_mod._bounce3))
    monkeypatch.setattr(dyck_mod, "_bounce4_rows", counting_runs(dyck_mod._bounce4_rows))
    monkeypatch.setattr(catalan_mod, "_rows3", yielding(3, catalan_mod._rows3))
    monkeypatch.setattr(catalan_mod, "_rows4", yielding(4, catalan_mod._rows4))
    monkeypatch.setattr(catalan_mod, "_gf_rows", keeping)
    real_rows.cache_clear()
    code, out, _ = run(capsys, "verify", "--suite", "gf", "--truncate", "8")
    assert code == 0
    assert out == '{"suite": "gf", "status": "pass", "checked": 10528}\n'
    # one enumeration and one classification per path, however many
    # sections read it: 2,079 rows of paths with k1 + k2 + k3 <= 8 and
    # 4,845 of k^4 paths with k <= 8
    assert yielded == {3: 2079, 4: 4845}
    assert calls == {3: 2079, 4: 4845}
    # the cache keeps each row packed, four bytes per column: seven columns
    # per length-3 path and six per k^4 path, not a tuple per path
    assert set(cached) == {(True, 8), (False, 8)}
    for key, width, paths in (((True, 8), 7, 2079), ((False, 8), 6, 4845)):
        views = cached[key].values()
        assert all(type(v) is memoryview and v.readonly and v.format == "I" for v in views)
        assert sum(v.nbytes for v in views) == 4 * width * paths


def test_verify_reports_counterexample_with_exit_1(capsys, monkeypatch):
    import qtcatalan.cli as cli_mod
    from qtcatalan.polynomial import SparsePoly, VarTable

    broken = SparsePoly(VarTable(("q", "t")), {(1, 0): 1})
    monkeypatch.setattr(cli_mod, "catalan_poly3", lambda k: broken)
    code, out, _ = run(capsys, "verify", "--suite", "symmetry3", "--max", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["counterexample"] == {"k": [0, 0, 0]}


def test_verify_symmetry4_reports_counterexample_with_exit_1(capsys, monkeypatch):
    import qtcatalan.cli as cli_mod
    from qtcatalan.polynomial import SparsePoly, VarTable

    broken = SparsePoly(VarTable(("q", "t")), {(1, 0): 1})
    monkeypatch.setattr(cli_mod, "catalan_poly_k4", lambda k: broken)
    code, out, err = run(capsys, "verify", "--suite", "symmetry4", "--max", "1")
    assert code == 1
    assert out == '{"suite": "symmetry4", "status": "fail", "counterexample": {"k": 0}}\n'
    assert err == "symmetry4: k=0\n"


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "poly4", "--k", "2", "--format", "json")
    _, out2, _ = run(capsys, "poly4", "--k", "2", "--format", "json")
    assert out1 == out2


def drop_first_numerator_term(monkeypatch, form_id):
    import copy

    from qtcatalan import omega

    registry = copy.deepcopy(omega._closed_form_registry())
    del registry[form_id]["numerator"][0]
    monkeypatch.setattr(omega, "_closed_form_registry", lambda: registry)


def test_verify_gf_reports_broken_region_form(capsys, monkeypatch):
    # F11's first numerator term has x-degree 1, so truncate 2 sees it
    drop_first_numerator_term(monkeypatch, "F11")
    code, out, err = run(capsys, "verify", "--suite", "gf", "--truncate", "2")
    assert code == 1
    assert out == ('{"suite": "gf", "status": "fail", "counterexample": '
                   '{"identity": "crude_vs_closed", "region": "F P1C1", '
                   '"exps": {"q": 3, "t": 1, "x1": 2, "x2": 0, "x3": 0, "y2": 2, "y3": 1}, '
                   '"crude": 1, "closed": 0}}\n')
    assert err == "gf: F P1C1\n"


def test_verify_gf_reports_broken_identity_without_region(capsys, monkeypatch):
    drop_first_numerator_term(monkeypatch, "EQ2")
    code, out, err = run(capsys, "verify", "--suite", "gf", "--truncate", "2")
    assert code == 1
    assert out == ('{"suite": "gf", "status": "fail", "counterexample": '
                   '{"identity": "EQ2", "exps": {"q": 12, "t": 0, "x": 2}, '
                   '"product": 0, "paths": 1}}\n')
    assert err.splitlines()[-2:] == ["gf: H P3C3", "gf: EQ2"]


def test_verify_involution_reports_wrong_case_exchange(capsys, monkeypatch):
    from qtcatalan.involution import CASE_EXCHANGE

    monkeypatch.setitem(CASE_EXCHANGE, "L12", "L12")
    code, out, _ = run(capsys, "verify", "--suite", "involution", "--max", "3")
    assert code == 1
    assert out == ('{"suite": "involution", "status": "fail", "counterexample": '
                   '{"a": 1, "c": 1, "checked": 5, "failures": ['
                   '{"b": 1, "d": 0, "reason": "wrong_case_exchange"}, '
                   '{"b": 1, "d": 1, "reason": "wrong_case_exchange"}]}}\n')


@pytest.mark.parametrize("k, first_line", [
    # about 120 KB of rows, more than a pipe buffer: the CLI is still
    # writing rows when the reader goes away
    ("60,60,1", b"r2,r3,b,d,area,bounce,case\n"),
    # a few rows, all buffered: the reader is gone before they are flushed
    ("1,2,1", None),
])
def test_a_reader_closing_the_pipe_early_gets_exit_141_and_no_stderr(k, first_line):
    # stdout block-buffered, as a shell leaves it for a pipe
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(qtcatalan.__file__).parents[1])
    with subprocess.Popen([sys.executable, "-m", "qtcatalan.cli", "table", "--what", "stats3",
                           "--k", k], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("lines_read", [
    # the reader takes the first progress line, then goes away
    1,
    # the reader is gone before the first line is written
    0,
])
def test_a_reader_closing_stderr_early_stops_only_the_progress(lines_read):
    env = dict(os.environ, PYTHONPATH=str(Path(qtcatalan.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "qtcatalan.cli", "verify", "--suite",
                           "symmetry3", "--max", "6"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        for _ in range(lines_read):
            assert proc.stderr.readline() == b"symmetry3: k1=0\n"
        proc.stderr.close()
        out = proc.stdout.read()
        assert proc.wait(timeout=60) == 0
    assert out == b'{"suite": "symmetry3", "status": "pass", "checked": 343}\n'
