"""Self-tests of the benchmark: its checks pass on real outputs, catch
corrupted ones (the negative controls), and the traced run counts the work
the job did and leaves the package as it found it.

    python -m pytest bench
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import job  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_K4 = {"ks": list(range(6)), "pairs": [(2, 5), (3, 3)],
            "points": [[(2, 3), (5, 7)], [(3, 2), (11, 4)]]}
SMALL_GF = {"truncate": 3}


def failed(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


def test_k4_checks_catch_one_corrupt_product_term():
    _, out = job.run_k4_ring(SMALL_K4)
    assert failed(workloads.check_k4_ring(SMALL_K4, out)) == []
    terms = out["products"][1][1]
    terms[next(iter(terms))] += 1
    assert failed(workloads.check_k4_ring(SMALL_K4, out)) == [
        "k4.product[3*3]@(3,2)", "k4.product[3*3]@(11,4)"]


def test_gf_checks_catch_one_dropped_closed_form_term():
    import qtcatalan
    _, out = job.run_gf_verify(SMALL_GF)
    assert failed(workloads.check_gf_verify(SMALL_GF, out)) == []

    closed_form = qtcatalan.omega.closed_form

    def drop_first_numerator_term(form_id):
        expr = closed_form(form_id)
        if form_id == "EQ1":
            expr.numerator = expr.numerator[1:]
        return expr

    patch = spans.Rebinder(qtcatalan)
    patch.replace({closed_form: drop_first_numerator_term})
    try:
        _, out = job.run_gf_verify(SMALL_GF)
    finally:
        patch.restore()
    results = {name: detail for name, ok, detail
               in workloads.check_gf_verify(SMALL_GF, out) if not ok}
    assert "gf.cli_pass" in results
    assert "terms differ" in results["gf.regions_sum[EQ1]"]


def test_involution_checks_catch_a_map_that_is_not_an_involution():
    params = {"max": 3, "check_pairs": [(2, 3), (3, 1)]}
    _, out = job.run_involution_grid(params)
    assert failed(workloads.check_involution_grid(params, out)) == []
    out["images"][1][0] = out["images"][1][1]
    assert failed(workloads.check_involution_grid(params, out)) == [
        "involution.bijection[3,1]"]


def test_trace_counts_the_work_and_restore_puts_the_package_back():
    import qtcatalan
    originals = (qtcatalan.catalan.enumerate_paths4,
                 qtcatalan.SparsePoly.__mul__, qtcatalan.catalan_poly_k4)
    recorder = spans.install(qtcatalan)
    try:
        verdict_s, out = job.run_k4_ring(SMALL_K4)
    finally:
        recorder.restore()
    assert (qtcatalan.catalan.enumerate_paths4, qtcatalan.SparsePoly.__mul__,
            qtcatalan.catalan_poly_k4) == originals

    layers = spans.layer_metrics(recorder.spans)
    paths = sum(workloads.lattice4(k) for k in SMALL_K4["ks"])
    assert layers["dyck.paths"] == paths
    assert layers["polynomial.mul_term_pairs"] == (
        workloads.checked_count("k4_ring", SMALL_K4, out) - paths)
    assert layers["catalan.terms_out"] == sum(
        len(terms) for _, terms in out["polys"].values())
    self_total = sum(t for t, _ in spans.self_times(recorder.spans).values())
    assert 0 < self_total <= verdict_s
