"""Re-measure the baseline table of ROADMAP.md with the benchmark's runner.

    python3 bench/baseline.py

Each row runs ``REPEAT`` times as a benchmark round: a fresh child, the
independent checks afterwards, and the same reference-loop scaling.  It
prints a Markdown table of the median raw and scaled verdict times.  The k4(20)^2 row also
builds k4(20) itself, about 0.15 s of its time.
"""

from __future__ import annotations

import statistics
import sys

import run

REPEAT = 3
ROWS = [
    ("verify --suite gf --truncate 6", "gf_verify", {"truncate": 6}),
    ("verify --suite gf --truncate 8", "gf_verify", {"truncate": 8}),
    ("verify --suite gf --truncate 10", "gf_verify", {"truncate": 10}),
    ("verify --suite gf --truncate 12", "gf_verify", {"truncate": 12}),
    ("verify --suite involution --max 40", "involution_grid",
     {"max": 40, "check_pairs": []}),
    ("catalan_poly_k4(40)", "k4_ring", {"ks": [40], "pairs": [], "points": []}),
    ("catalan_poly_k4(60)", "k4_ring", {"ks": [60], "pairs": [], "points": []}),
    ("catalan_poly_k4(20) squared", "k4_ring",
     {"ks": [20], "pairs": [(20, 20)], "points": [[(2, 3)]]}),
]


def main() -> int:
    run.prepare()
    print("| workload | raw median (s) | scaled median (s) | checks failed |")
    print("| --- | --- | --- | --- |")
    failed = 0
    for label, workload, params in ROWS:
        rows = run.Run(workload, params)
        for _ in range(REPEAT):
            rows.round(False)
        raw = statistics.median(r["raw_verdict_s"] for r in rows.rounds)
        scaled = statistics.median(r["verdict_s"] for r in rows.rounds)
        print(f"| `{label}` | {raw:.2f} | {scaled:.2f} | "
              f"{rows.failed} of {rows.attempted} |", flush=True)
        failed += rows.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
