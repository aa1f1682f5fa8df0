"""Workload inputs, independent correctness checks and work counts.

Nothing here imports qtcatalan: every expected value is computed from the
workload's inputs by lattice-point counts, closed formulas or required
properties, never copied from an earlier run.  The checks read the plain
data a child process reports (see ``job.py``): a polynomial arrives as
``(variable names, {exponent tuple: coefficient})``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import comb

WORKLOADS = ("gf_verify", "involution_grid", "k4_ring")

# gf_verify: `verify --suite gf --truncate GF_TRUNCATE`.
GF_TRUNCATE = 8
F_FORMS = ("F11", "F12", "F21", "F22")
H_FORMS = ("H11", "H12", "H21", "H22", "H23", "H31", "H32", "H33")

# involution_grid: `verify --suite involution --max INV_MAX`, then the
# seeded (a, c) pairs whose maps the benchmark checks itself, half with
# a <= c (phi) and half with a > c (psi).
INV_MAX = 30
INV_CHECK_PAIRS = 6  # per regime

# k4_ring: catalan_poly_k4(k) for k = 0..K4_MAX, then one product per pool
# pair in a seeded order.  Every pool pair multiplies 236k to 245k term
# pairs, so the seed (which fixes the order, the left operand and the
# evaluation points) leaves the amount of work unchanged; drawing pairs at
# random moved the term-pair count by several percent between seeds.
K4_MAX = 24
K4_POOL = ((3, 18), (4, 14), (7, 8))
K4_POINTS = 3  # seeded integer (q, t) points per product


def make_params(workload: str, seed: int) -> dict:
    """Job parameters of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gf_verify":
        return {"truncate": GF_TRUNCATE}
    if workload == "involution_grid":
        pairs = []
        while len(pairs) < 2 * INV_CHECK_PAIRS:
            a, c = rng.randint(0, INV_MAX), rng.randint(0, INV_MAX)
            want_phi = len(pairs) < INV_CHECK_PAIRS
            if (a <= c) == want_phi:
                pairs.append((a, c))
        return {"max": INV_MAX, "check_pairs": pairs}
    if workload == "k4_ring":
        ks = list(range(K4_MAX + 1))
        pairs = [p if rng.random() < 0.5 else p[::-1] for p in K4_POOL]
        rng.shuffle(pairs)
        points = [[(rng.randint(2, 99), rng.randint(2, 99))
                   for _ in range(K4_POINTS)] for _ in pairs]
        return {"ks": ks, "pairs": pairs, "points": points}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ----------------------------------------------------------------------
# independent counts


def lattice3(k1: int, k2: int) -> int:
    """Points (r2, r3) with 0 <= r2 <= k1 and 0 <= r3 <= r2 + k2."""
    return sum(r2 + k2 + 1 for r2 in range(k1 + 1))


def lattice4(k: int) -> int:
    """Points (a, b, c) with a <= k, b <= 2k - a, c <= 3k - a - b."""
    return sum(3 * k - a - b + 1
               for a in range(k + 1) for b in range(2 * k - a + 1))


def rational_catalan4(k: int) -> int:
    """C(4k+5, 4) / (4k+5), the number of k^4 paths."""
    n = 4 * k + 5
    q, r = divmod(comb(n, 4), n)
    if r:
        raise ArithmeticError(f"C({n}, 4) is not divisible by {n}")
    return q


def involution_points(max_ac: int) -> int:
    """Sum over a, c <= max_ac and b <= a of (a - b + c + 1)."""
    return sum(a - b + c + 1 for a in range(max_ac + 1)
               for c in range(max_ac + 1) for b in range(a + 1))


def checked_count(workload: str, params: dict, out: dict) -> int:
    """Items one job's verdict covers; the inputs fix it."""
    if workload == "k4_ring":
        sizes = {k: len(terms) for k, (_, terms) in out["polys"].items()}
        return (sum(lattice4(k) for k in params["ks"])
                + sum(sizes[i] * sizes[j] for i, j in params["pairs"]))
    report = _cli_report(out)
    return int(report.get("checked", 0)) if report else 0


# ----------------------------------------------------------------------
# checks: each returns a list of (name, passed, detail)


def _cli_report(out: dict) -> dict | None:
    try:
        return json.loads(out["stdout"])
    except (KeyError, ValueError):
        return None


def _cli_check(suite: str, out: dict):
    report = _cli_report(out)
    ok = (out.get("rc") == 0 and report is not None
          and report.get("suite") == suite and report.get("status") == "pass")
    return (f"{suite}.cli_pass", ok, f"rc={out.get('rc')} stdout={out.get('stdout')!r}")


def evaluate(poly, point: dict) -> int:
    names, terms = poly
    values = [point[n] for n in names]
    total = 0
    for exps, coeff in terms.items():
        term = coeff
        for v, e in zip(values, exps):
            term *= v ** e
        total += term
    return total


def is_symmetric(poly, u: str, v: str) -> bool:
    names, terms = poly
    iu, iv = names.index(u), names.index(v)
    for exps, coeff in terms.items():
        e = list(exps)
        e[iu], e[iv] = e[iv], e[iu]
        if terms.get(tuple(e)) != coeff:
            return False
    return True


def x_slice(poly, keep: tuple[str, ...], x_names: tuple[str, ...],
            max_x: int) -> dict:
    """Terms of x-degree <= max_x over ``keep``; other variables set to 1."""
    names, terms = poly
    idx = [names.index(n) for n in keep]
    xs = [names.index(n) for n in x_names]
    acc: Counter = Counter()
    for exps, coeff in terms.items():
        if sum(exps[i] for i in xs) <= max_x:
            acc[tuple(exps[i] for i in idx)] += coeff
    return {k: c for k, c in acc.items() if c}


def check_k4_ring(params: dict, out: dict) -> list:
    results = []
    polys, products = out.get("polys", {}), out.get("products", [])
    for k in sorted(params["ks"]):
        poly = polys.get(k)
        total = sum(poly[1].values()) if poly else None
        results.append((f"k4.catalan[{k}]", total == rational_catalan4(k),
                        f"sum of coefficients {total}, expected {rational_catalan4(k)}"))
        ok = (poly is not None and is_symmetric(poly, "q", "t")
              and out.get("symmetric", {}).get(k) is True)
        results.append((f"k4.symmetric[{k}]", ok,
                        f"reported {out.get('symmetric', {}).get(k)}"))
    for n, ((i, j), points) in enumerate(zip(params["pairs"], params["points"])):
        for q, t in points:
            point = {"q": q, "t": t}
            try:
                got = evaluate(products[n], point)
                want = evaluate(polys[i], point) * evaluate(polys[j], point)
            except (IndexError, KeyError) as exc:
                got, want = f"missing {exc}", 0
            results.append((f"k4.product[{i}*{j}]@({q},{t})", got == want,
                            f"product evaluates to {got}, factors to {want}"))
    return results


def check_involution_grid(params: dict, out: dict) -> list:
    results = [_cli_check("involution", out)]
    want = involution_points(params["max"])
    got = (_cli_report(out) or {}).get("checked")
    results.append(("involution.points", got == want, f"checked={got}, expected {want}"))
    images = out.get("images", [])
    for n, (a, c) in enumerate(params["check_pairs"]):
        domain = [(b, d) for b in range(a + 1) for d in range(a - b + c + 1)]
        image = dict(zip(domain, map(tuple, images[n]))) if n < len(images) else {}
        bad = [p for p in domain
               if p not in image or image.get(image[p]) != p]
        ok = (not bad and len(image) == len(domain)
              and set(image.values()) == set(domain))
        results.append((f"involution.bijection[{a},{c}]", ok,
                        f"{len(bad)} points not fixed by the square, e.g. {bad[:3]}"))
    return results


def check_gf_verify(params: dict, out: dict) -> list:
    n = params["truncate"]
    results = [_cli_check("gf", out)]
    closed = out.get("closed", {})

    oracle3 = out.get("oracle3")
    counts3 = (x_slice(oracle3, ("x1", "x2", "x3"), ("x1", "x2", "x3"), n)
               if oracle3 else {})
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            for k3 in range(n - k1 - k2 + 1):
                got, want = counts3.get((k1, k2, k3)), lattice3(k1, k2)
                results.append((f"gf.slice3[{k1},{k2},{k3}]", got == want,
                                f"oracle {got} paths, lattice count {want}"))
    oracle4 = out.get("oracle4")
    counts4 = x_slice(oracle4, ("x",), ("x",), n) if oracle4 else {}
    for k in range(n + 1):
        got, want = counts4.get((k,)), lattice4(k)
        results.append((f"gf.slice4[{k}]", got == want,
                        f"oracle {got} paths, lattice count {want}"))

    for eq, forms, xs in (("EQ1", F_FORMS, ("x1", "x2", "x3")),
                          ("EQ2", H_FORMS, ("x",))):
        keep = ("q", "t") + xs
        missing = [f for f in forms + (eq,) if f not in closed]
        if missing:
            results.append((f"gf.regions_sum[{eq}]", False, f"missing {missing}"))
            results.append((f"gf.symmetric[{eq}]", False, f"missing {missing}"))
            continue
        total: Counter = Counter()
        for form in forms:
            total.update(x_slice(closed[form], keep, xs, n))
        total = {k: c for k, c in total.items() if c}
        series = x_slice(closed[eq], keep, xs, n)
        diff = sorted(k for k in set(total) | set(series)
                      if total.get(k, 0) != series.get(k, 0))
        results.append((f"gf.regions_sum[{eq}]", not diff,
                        f"{len(diff)} terms differ, e.g. {diff[:3]}"))
        results.append((f"gf.symmetric[{eq}]",
                        is_symmetric((keep, series), "q", "t"),
                        f"{eq} slice is not q<->t symmetric"))
    return results


CHECKS = {"gf_verify": check_gf_verify,
          "involution_grid": check_involution_grid,
          "k4_ring": check_k4_ring}
