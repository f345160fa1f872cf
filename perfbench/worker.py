"""One workload process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --out DIR [--setup-only]

The process imports ``hypermaps`` from the checkout's ``src/``, builds the
workload's inputs from the seed, prints its CLOCK_MONOTONIC ready time, and
(unless ``--setup-only``) runs the op cycle in a closed loop: one client,
each op starting when the previous one and its untimed check have ended.

Untraced (``--trace 0``): whole cycles until ``S`` seconds have passed.
Traced (``--trace 1``): set-up is traced; after one warm-up cycle a fixed
number of cycles runs untraced and the same cycles run again traced, so the
per-layer counts repeat exactly for a seed and the two wall times give the
tracing overhead.  The spans go to ``DIR`` when the run ends.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class LoopStats:
    samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # well-formed ops that failed
    failures: Counter = field(default_factory=Counter)

    def record(self, op, seconds: float, outcome: str | None) -> None:
        self.samples.append(seconds)
        self.attempted += 1
        if outcome is None:
            return
        self.failed += 1
        if op.well_formed:
            self.wrong += 1
        self.failures[f"{op.name}: {outcome}"] += 1

    def __add__(self, other: "LoopStats") -> "LoopStats":
        return LoopStats(self.samples + other.samples, self.attempted + other.attempted,
                         self.failed + other.failed, self.wrong + other.wrong,
                         self.failures + other.failures)


def run_loop(ops, seconds: float | None = None, cycles: int | None = None,
             tracer=None) -> LoopStats:
    """Replay whole cycles of ``ops`` for ``seconds``, or for ``cycles``."""
    stats = LoopStats()
    start = time.perf_counter()
    done = 0
    while True:
        for i, op in enumerate(ops):
            result, outcome = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    with tracer.span("bench.op", request_id=done * len(ops) + i):
                        result = op.run()
            except Exception as exc:  # an uncaught exception is a failed op
                outcome = type(exc).__name__
            elapsed = time.perf_counter() - t0
            if outcome is None:
                try:
                    if not op.check(result):
                        outcome = "wrong result"
                except Exception as exc:
                    outcome = f"unreadable result ({type(exc).__name__})"
            stats.record(op, elapsed, outcome)
        done += 1
        if cycles is not None:
            if done >= cycles:
                return stats
        elif time.perf_counter() - start >= seconds:
            return stats


def _timed_enumeration(h, workers: int) -> float:
    import hypermaps as hm

    t0 = time.perf_counter()
    hm.enumerate_partial_duals(h, hm.EngineConfig(worker_count=workers))
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import hypermaps
    import numpy

    if not Path(hypermaps.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hypermaps was imported from {hypermaps.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    nproc = len(os.sched_getaffinity(0))
    scratch = Path(args.out) / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        build = workloads.WORKLOADS[args.workload]
        if tracer is None:
            wl = build(args.seed, nproc, scratch)
        else:
            tracer.install()
            with tracer.span("bench.setup"):
                wl = build(args.seed, nproc, scratch)
            tracer.uninstall()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)  # run.py's clock too
        report: dict = {"ready": ready, "workers": wl.workers, "nproc": nproc,
                        "numpy": numpy.__version__}
        if args.setup_only:
            print(json.dumps(report))
            return 0

        if tracer is None:
            stats = run_loop(wl.ops, seconds=args.seconds)
            report.update(samples=stats.samples)
        else:
            warm = run_loop(wl.ops, cycles=1)  # so neither phase gets the cold op
            plain = run_loop(wl.ops, cycles=wl.trace_cycles)
            tracer.install()
            traced = run_loop(wl.ops, cycles=wl.trace_cycles, tracer=tracer)
            tracer.uninstall()
            layers = tracer.layer_metrics()
            layers["trace.overhead_ratio"] = {
                "value": sum(traced.samples) / sum(plain.samples), "unit": "ratio"}
            subsets = tracer.work("genuspoly.enumerate_partial_duals")
            layers["genuspoly.ns_per_subset"] = {
                "value": tracer.inclusive_seconds("genuspoly.enumerate_partial_duals")
                / subsets * 1e9 if subsets else 0.0,
                "unit": "ns"}
            scaling = 0.0
            if wl.enum_input is not None:
                # One of the two timings is the untraced ops' own median.
                own = statistics.median(plain.samples)
                if wl.workers == 1:
                    t1, tn = own, _timed_enumeration(wl.enum_input, nproc)
                else:
                    t1, tn = _timed_enumeration(wl.enum_input, 1), own
                scaling = t1 / (nproc * tn)
            layers["genuspoly.scaling_eff"] = {"value": scaling, "unit": "ratio"}
            stats = warm + plain + traced
            layers["error_rate"] = {"value": stats.failed / stats.attempted,
                                    "unit": "ratio"}
            report.update(layers=layers, missing=tracer.missing)
            spans_path = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
            report["spans_file"] = str(spans_path)

        report.update(
            attempted=stats.attempted,
            failed=stats.failed,
            wrong=stats.wrong,
            failures=stats.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(report))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
