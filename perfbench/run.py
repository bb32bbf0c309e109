#!/usr/bin/env python3
"""Layered benchmark for godeaux.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the compiled kernel into ``perfbench/.build`` (never under
``src/``), measures set-up in fresh processes, then runs one workload as a
closed loop with one client.  With ``--trace 0`` requests run until their
summed wall time reaches ``--seconds`` and the end-to-end metrics are
reported.  With ``--trace 1`` a fixed number of requests, derived from
``--seconds``, alternate in blocks between traced and untraced, and the
per-layer metrics are reported.  Every verdict is checked against a known answer
after the measured loop; a wrong one makes the command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import build
import launch
import workloads

WORK_DIR = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 9

#: Requests per second of ``--seconds`` in a traced run, so that a traced
#: run takes about ``--seconds`` on a 2-core x86-64 machine.
TRACE_RATE = {"verify-pure": 0.4, "verify-compiled": 3.0, "ideals": 200.0,
              "reverify": 40.0}
#: Traced and untraced requests alternate in blocks of this many, so that
#: every operation of the four-operation ideals cycle is traced.
TRACE_BLOCK = 4

#: The end-to-end metrics of ``BENCHMARK.json``.  ``verdict_s.tail``,
#: ``failed_ratio`` and ``wrong_verdicts`` are printed beside them but not
#: bounded: the tail of identical requests is host scheduling noise (its
#: spread over five runs reached 48% on ``reverify``), and the other two
#: are zero on a correct run.
END_TO_END = (("verdict_s.p50", "s"), ("verdict_cpu_s.p50", "s"),
              ("verdicts_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest whole percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 samples or
    fewer no percentile qualifies, and the maximum is returned as the
    100th percentile with 0 samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    pct = int(100 * (n - 10) / n)
    index = max(0, -(-pct * n // 100) - 1)   # nearest rank
    return ordered[index], float(pct), n - 1 - index


def measure_setup(so_path: str | None, env: dict) -> float:
    """Median seconds from spawn to exit of a process that imports the
    package and loads the fixtures."""
    cmd = [sys.executable, str(workloads.LAUNCH)]
    if so_path:
        cmd += ["--so", so_path]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd + ["setup"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.exists() else ref
    return ref


def run_loop(workload, seconds: float, trace: bool, trace_dir: Path):
    """Execute requests; return the samples and the traced span totals."""
    import tracing

    samples = []
    totals: dict = {}
    if not trace:
        busy = 0.0
        for request in workload.requests():
            if busy >= seconds:
                break
            sample = workload.execute(request)
            samples.append(sample)
            busy += sample.wall
        return samples, totals
    count = max(TRACE_BLOCK + 1, round(seconds * TRACE_RATE[workload.name]))
    tracer = tracing.Tracer() if workload.in_process else None
    for index, request in zip(range(count), workload.requests()):
        traced = (index // TRACE_BLOCK) % 2 == 0
        if workload.in_process:
            sample = workload.execute(request, tracer if traced else None,
                                      index)
        else:
            trace_file = str(trace_dir / f"{index}.json") if traced else None
            sample = workload.execute(request, trace_file, index)
        samples.append(sample)
    if tracer is not None:
        tracer.dump(str(trace_dir / "spans.json"))
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text())
        for key, value in tracing.span_totals(data["spans"],
                                              data["values"]).items():
            totals[key] = totals.get(key, 0.0) + value
    return samples, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        kernel = build.build_kernel()
    except build.BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ["GODEAUX_BACKEND"] = "compiled"
    launch.prepare(kernel["so"])
    import godeaux

    import tracing

    launch.check_backend(kernel["so"])
    ring = godeaux.PolyRing(("x", "y"), 5)
    probe = godeaux.buchberger([ring.gen(0) ** 2 - ring.gen(1)])
    if probe.backend != "compiled":
        print("error: compiled kernel not selected", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed, kernel)
    setup_env = dict(os.environ, GODEAUX_BACKEND=workload.backend)
    try:
        setup_s = measure_setup(workload.so, setup_env)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up process failed: {exc}", file=sys.stderr)
        return 2

    trace_dir = WORK_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    samples, totals = run_loop(workload, args.seconds, bool(args.trace),
                               trace_dir)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(s.rss_kb for s in samples)
    verdict = workload.gate()

    attempted = len(samples)
    failed = sum(s.failed for s in samples)
    wrong = verdict["wrong"]
    walls = [s.wall for s in samples]
    tail_value, tail_pct, tail_beyond = tail(walls)
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "interpreter": f"{platform.python_implementation()} "
                       f"{platform.python_version()} ({sys.executable})",
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "git_commit": git_commit(launch.SRC.parent),
        "backends": list(godeaux.available_backends()),
        "request_backend": workload.backend,
        "kernel_build": kernel,
        "work": verdict["work"],
        "tail_percentile": tail_pct, "tail_samples_beyond": tail_beyond,
        "failed_ratio": failed / attempted, "wrong_verdicts": wrong,
    }
    if args.trace:
        traced = [s.wall for s in samples if s.traced]
        untraced = [s.wall for s in samples if not s.traced]
        totals["trace.requests"] = len(traced)
        totals["trace.request_s"] = sum(traced)
        totals["trace.verdict_s.p50"] = statistics.median(traced)
        totals["trace.untraced_verdict_s.p50"] = statistics.median(untraced)
        totals["trace.overhead_s"] = (totals["trace.verdict_s.p50"]
                                      - totals["trace.untraced_verdict_s.p50"])
        metrics = tracing.layer_metrics(totals)
    else:
        values = {
            "verdict_s.p50": statistics.median(walls),
            "verdict_cpu_s.p50": statistics.median(s.cpu for s in samples),
            "verdicts_per_s": attempted / sum(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"context": context}))
    for name, entry in metrics.items():
        print(f"{args.workload:<16} {name:<36} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(f"{args.workload:<16} {'verdict_s.tail':<36} {tail_value:>14.6g} s"
          f"  (p{tail_pct:g}, {tail_beyond} samples beyond)")
    print(f"{args.workload:<16} {'failed_ratio':<36} "
          f"{failed / attempted:>14.6g} ratio")
    print(f"{args.workload:<16} {'wrong_verdicts':<36} {wrong:>14d} count")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
