"""qtcatalan benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload gf_verify --seed 1 --seconds 32 --trace 0

Closed loop, one client, no threads: each round runs the workload's job in
a fresh child process (``job.py``), waits for it, then checks its outputs
in this process with the independent checks of ``workloads.py``.  Rounds
repeat until ``--seconds`` have passed; the last round always completes.
Five set-up-only children run first, so ``setup_s`` is a median over them
and every round.  Every other time is a median over the rounds.

Times are scaled to a steady machine speed.  On a shared host the same
job runs up to 1.7 times slower while a neighbour keeps the core busy, and
that state changes within seconds.  So this process and its children stay
on one CPU, a fixed reference loop (``job.reference_loop``) runs in a fresh
process on it between consecutive children, and each time a child reports
is multiplied by ``(REFERENCE_S / r) ** SLOWDOWN_EXPONENT``, where ``r``
is the mean of the reference-loop times just before and just after it.
The raw times are kept in the result file.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics plus
``trace.overhead_s``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
run metadata goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
WARMUP_REFERENCES = 5
# mean reference-loop time in a fresh process on an uncontended core of a
# 2-vCPU Intel Xeon VM with Python 3.11: the scaled times read as seconds
# on that core
REFERENCE_S = 0.04
# the jobs slow down more than the reference loop under contention: over
# 105 rounds of the three jobs with probes around each, log job time
# against log reference time had slopes of 1.11 to 1.22
SLOWDOWN_EXPONENT = 1.2

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s",
                    "checked": "count", "checked_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


class ChildFailed(RuntimeError):
    pass


def reference_mean() -> float:
    """Mean reference-loop time in a fresh process.

    A fresh process, like the jobs: in this long-lived one the loop ran
    slower for its first rounds and made the early rounds read too fast.
    """
    return run_child({"kind": "reference"})[0]["reference_s"]


def prepare():
    """Keep this process and its children on one CPU and warm it up.

    The last CPU: device interrupts and other processes land on the first
    one, and children pinned there lost up to 0.5 s of a 1.5 s round.  The
    core runs slower for about a second after a pause.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for _ in range(WARMUP_REFERENCES):
        reference_mean()


def run_child(spec: dict) -> tuple[dict, float]:
    """Run one job in a fresh process; return its result and CPU seconds."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "job.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(marshal.dumps(spec))
        proc.stdin.close()
        data = proc.stdout.read()
        proc.stdout.close()
    finally:
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"job {spec.get('workload', spec['kind'])} exited "
                          f"with {proc.returncode}")
    return marshal.loads(data), usage.ru_utime + usage.ru_stime


def scale_of(reference_s: float) -> float:
    """Factor that brings a time measured next to ``reference_s`` to the
    reference speed."""
    return (REFERENCE_S / reference_s) ** SLOWDOWN_EXPONENT


def scaled(value: float, unit: str, scale: float) -> float:
    """A time or rate at the reference speed; counts stay as they are."""
    if unit == "s":
        return value * scale
    return value / scale if unit == "1/s" else value


def git_sha() -> str | None:
    """HEAD of the repository holding the benchmark, read without git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Rounds of one workload and everything measured and checked in them."""

    def __init__(self, workload: str, params: dict):
        self.workload = workload
        self.params = params
        self.setup: list[float] = []
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_s: float | None = None

    def probed(self, spec: dict) -> tuple[dict, float, float]:
        """Run one child; return its result, its CPU seconds and the mean
        of the reference probes around it.

        The probe after one child is the probe before the next.
        """
        if self.reference_s is None:
            self.reference_s = reference_mean()
        before = self.reference_s
        result, cpu_s = run_child(spec)
        self.reference_s = reference_mean()
        return result, cpu_s, statistics.fmean((before, self.reference_s))

    def probe_setup(self, probes: int):
        for _ in range(probes):
            result, _, reference_s = self.probed({"kind": "setup"})
            self.setup.append(result["setup_s"] * scale_of(reference_s))

    def round(self, trace: bool, warmup: bool = False):
        result, cpu_s, reference_s = self.probed(
            {"kind": "job", "workload": self.workload,
             "params": self.params, "trace": trace})
        scale = scale_of(reference_s)
        self.setup.append(result["setup_s"] * scale)
        out = result["out"]
        for name, ok, detail in workloads.CHECKS[self.workload](self.params, out):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {detail}")
        sample = {"trace": trace, "warmup": warmup, "reference_s": reference_s,
                  "raw_verdict_s": result["verdict_s"], "raw_cpu_s": cpu_s,
                  "verdict_s": result["verdict_s"] * scale, "cpu_s": cpu_s * scale,
                  "peak_rss_mib": result["peak_rss_mib"],
                  "checked": workloads.checked_count(self.workload, self.params, out)}
        if trace:
            sample["layers"] = {
                name: scaled(value, spans.unit_of(name), scale)
                for name, value in spans.layer_metrics(result["spans"]).items()}
            sample["spans"] = result["spans"]
        self.rounds.append(sample)

    def measured(self, trace: bool) -> list[dict]:
        return [r for r in self.rounds if r["trace"] == trace and not r["warmup"]]

    def end_to_end(self) -> dict[str, float]:
        plain = self.measured(False)
        verdict = statistics.median(r["verdict_s"] for r in plain)
        checked = plain[0]["checked"]  # the same in every round, see correct()
        return {"setup_s": statistics.median(self.setup),
                "verdict_s": verdict,
                "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                "checked": checked,
                "checked_per_s": checked / verdict,
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain)}

    def per_layer(self) -> dict[str, float]:
        traced, plain = self.measured(True), self.measured(False)
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["verdict_s"] for r in traced)
            - statistics.median(r["verdict_s"] for r in plain))
        return values

    def correct(self) -> bool:
        return self.failed == 0 and len({r["checked"] for r in self.rounds}) == 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtcatalan" / "__init__.py").is_file():
        print(f"run.py: no qtcatalan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, workloads.make_params(args.workload, args.seed))
    trace = bool(args.trace)
    try:
        prepare()
        run.probe_setup(SETUP_PROBES)
        run.round(False, warmup=True)  # checked, not measured
        start = time.perf_counter()
        while True:
            run.round(False)
            if trace:
                run.round(True)
            if time.perf_counter() - start >= args.seconds:
                break
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if trace:
        metrics = run.per_layer()
        units = {name: spans.unit_of(name) for name in metrics}
    else:
        metrics = run.end_to_end()
        units = END_TO_END_UNITS
    report = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    correct = run.correct()
    for failure in run.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": run.params,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "cpu": max(os.sched_getaffinity(0)),
        "reference_s": REFERENCE_S,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures[:10], "setup_samples": run.setup,
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in run.rounds],
        "metrics": report,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps(run.measured(True)[-1]["spans"]) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
