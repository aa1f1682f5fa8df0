"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 bench/steady.py --seeds 1-10                  # every workload
    python3 bench/steady.py --workload k4_ring --seeds 1-5 --trace 1

For each metric it prints the median over the runs and the spread, the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``!`` marks an end-to-end spread above a third of its
bound, ``setup_s`` included, and makes the exit code 1.  Runs go one at a
time, each for ``BENCHMARK.json``'s ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            argv = ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(
                config["command"] + argv,
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in runs[-1]["metrics"].items()
                if n in bounds), file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and s > bound / 3:
                mark, steady = "!", False
            print(f"  {name:28s} median {statistics.median(values):<12.6g} "
                  f"spread {s:7.2%}  bound {bound if bound is not None else '-'} {mark}")
        steady &= len(shares) == 1 and all(r["correct"] for r in runs)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
