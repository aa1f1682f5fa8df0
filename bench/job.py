"""One benchmark job in a fresh process: set up qtcatalan, run, report.

Run as ``python job.py``; it imports qtcatalan from the ``src/`` directory
next to the benchmark's directory and from nowhere else.  It reads a
marshalled spec on stdin, ``{"kind": "reference"}``, ``{"kind": "setup"}``
or ``{"kind": "job", "workload": ..., "params": ..., "trace": bool}``, and
writes a marshalled result on stdout.  Only ``sys``, ``os``, ``time`` and ``marshal`` are loaded
before the set-up clock starts, so ``setup_s`` covers every import the
package needs.

The verdict clock covers the workload's own calls and nothing else.  What
the checks need is collected after it stops, or, for values the CLI keeps
to itself, by thin wrappers that keep a reference to a few return values.
"""

import marshal
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REFERENCE_RUNS = 5


def reference_loop() -> float:
    """Seconds to build and sum 150k small tuples.

    Allocation-heavy, like the workloads.  A loop over a small dict slowed
    more under contention than the jobs did and over-corrected them.
    """
    t0 = time.perf_counter()
    rows = [(i, 2 * i, 3 * i) for i in range(150_000)]
    sum(a + b - c for a, b, c in rows)
    return time.perf_counter() - t0


def setup() -> float:
    """Seconds to import qtcatalan and its CLI and load the closed forms."""
    t0 = time.perf_counter()
    import qtcatalan.cli  # noqa: F401
    from qtcatalan.omega import closed_form
    closed_form("EQ1")
    return time.perf_counter() - t0


def _poly(p) -> tuple:
    return (list(p.vars.names), p.terms)


def peak_rss_mib() -> float:
    """High-water resident set of this process since exec (VmHWM).

    ``ru_maxrss`` would also count the parent's pages the child held
    between fork and exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cli(argv: list) -> tuple[float, dict]:
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from qtcatalan import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        verdict_s = time.perf_counter() - t0
    return verdict_s, {"rc": rc, "stdout": out.getvalue()}


def run_gf_verify(params: dict) -> tuple[float, dict]:
    import qtcatalan
    from qtcatalan import catalan, omega
    from spans import Rebinder
    closed_form, expand = omega.closed_form, omega.expand_truncated
    forms, kept = {}, {"closed": {}}

    def keep_closed_form(form_id):
        expr = closed_form(form_id)
        forms[id(expr)] = (form_id, expr)
        return expr

    def keep_expand(expr, wv):
        result = expand(expr, wv)
        if id(expr) in forms:
            kept["closed"][forms[id(expr)][0]] = result
        return result

    def keep_oracle(fn, key):
        def wrapper(max_order, region=None, refined=False):
            result = fn(max_order, region=region, refined=refined)
            if region is None and not refined:
                kept[key] = result
            return result
        return wrapper

    # rebound wherever the package refers to them, so the capture does not
    # depend on which module makes the calls
    patch = Rebinder(qtcatalan)
    patch.replace({closed_form: keep_closed_form, expand: keep_expand,
                   catalan.gf_series3: keep_oracle(catalan.gf_series3, "oracle3"),
                   catalan.gf_series4: keep_oracle(catalan.gf_series4, "oracle4")})
    try:
        verdict_s, out = _cli(["verify", "--suite", "gf",
                               "--truncate", str(params["truncate"])])
    finally:
        patch.restore()
    out["closed"] = {k: _poly(p) for k, p in kept.pop("closed").items()}
    out.update((k, _poly(p)) for k, p in kept.items())
    return verdict_s, out


def run_involution_grid(params: dict) -> tuple[float, dict]:
    import qtcatalan
    verdict_s, out = _cli(["verify", "--suite", "involution",
                           "--max", str(params["max"])])
    out["images"] = [[qtcatalan.involution_map(a, c, b, d)
                      for b in range(a + 1) for d in range(a - b + c + 1)]
                     for a, c in params["check_pairs"]]
    return verdict_s, out


def run_k4_ring(params: dict) -> tuple[float, dict]:
    import qtcatalan
    t0 = time.perf_counter()
    polys, symmetric = {}, {}
    for k in params["ks"]:
        poly = qtcatalan.catalan_poly_k4(k)
        polys[k] = poly
        symmetric[k] = poly.is_symmetric("q", "t")
    products = [polys[i] * polys[j] for i, j in params["pairs"]]
    verdict_s = time.perf_counter() - t0
    return verdict_s, {"polys": {k: _poly(p) for k, p in polys.items()},
                       "products": [_poly(p) for p in products],
                       "symmetric": symmetric}


JOBS = {"gf_verify": run_gf_verify,
        "involution_grid": run_involution_grid,
        "k4_ring": run_k4_ring}


def main() -> int:
    spec = marshal.loads(sys.stdin.buffer.read())
    if spec["kind"] == "reference":
        runs = [reference_loop() for _ in range(REFERENCE_RUNS)]
        sys.stdout.buffer.write(marshal.dumps({"reference_s": sum(runs) / len(runs)}))
        return 0
    sys.path.insert(0, SRC)
    result = {"setup_s": setup()}
    import qtcatalan
    if not os.path.abspath(qtcatalan.__file__).startswith(SRC + os.sep):
        print(f"job: imported {qtcatalan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if spec["kind"] == "job":
        recorder = None
        if spec["trace"]:
            import spans
            recorder = spans.install(qtcatalan)
        try:
            result["verdict_s"], result["out"] = JOBS[spec["workload"]](spec["params"])
        finally:
            if recorder is not None:
                recorder.restore()
        result["peak_rss_mib"] = peak_rss_mib()
        if recorder is not None:
            result["spans"] = recorder.spans
    sys.stdout.buffer.write(marshal.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
