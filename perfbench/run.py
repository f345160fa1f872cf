"""The hypermaps benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each run starts the workload in its own
process (``worker.py``) with ``hypermaps`` imported from the checkout's
``src/`` and nothing else; no package needs installing.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment.  A copy of both, with the per-op failure
kinds, goes to ``.perfbench_out/`` in the checkout.

Workloads (one client, closed loop; see BENCHMARK.json for why each exists):
  poly_ladder    enumerate_partial_duals(ladder(20)), 1 worker
  poly_join      enumerate_partial_duals on a join chain, e=20, nproc workers
  check_suite    verify_bundled() and verify_hypermap on small maps
  transform_cli  HMF verbs through cli.run, 1 request in 20 malformed

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (launch until the
inputs are ready, interpreter start-up and ``import hypermaps`` included;
median of nine set-ups), ``op_p50_s``, ``op_p90_s``, ``ops_per_s`` (ops per
second of op time) and ``peak_rss_mb``.  ``--trace 1`` reports the per-layer
metrics of a separate traced run (see ``tracer.py``).

``failed`` counts ops with a wrong answer, an uncaught exception or a wrong
exit code; ``failed / attempted`` is the error rate.  ``correct`` is false
when a well-formed request failed.  Malformed requests whose documented
outcome (exit 1, JSON error on stderr) is not met count in ``failed`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# The keys of workloads.WORKLOADS, which this process does not import: only
# the worker imports hypermaps.
WORKLOAD_NAMES = ("poly_ladder", "poly_join", "check_suite", "transform_cli")
SETUP_PROBES = 8          # extra set-up-only processes; setup_s is the median of 9
CHILD_TIMEOUT_S = 150


def _env_for_child() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HM_THREADS", None)  # worker counts are always passed explicitly
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _run_worker(args, extra: list[str]) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT), *extra]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env_for_child(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report["ready"] - launched, report


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision() -> dict[str, str]:
    """Git commit when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypermaps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hypermaps" / "__init__.py").is_file():
        print(f"no hypermaps sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_run_worker(args, ["--setup-only"])[0])
        setup, report = _run_worker(args, [])
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        metrics = report["layers"]
    else:
        samples = report["samples"]
        p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] \
            if len(samples) > 1 else samples[0]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "op_p50_s": _metric(statistics.median(samples), "s"),
            "op_p90_s": _metric(p90, "s"),
            "ops_per_s": _metric(len(samples) / sum(samples), "1/s"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
        }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": report["nproc"],
        "workers": report["workers"],
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        **_revision(),
        "ops": report["attempted"],
        "failures": report["failures"],
        "setup_samples_s": setups,
        "missing_layers": report.get("missing", []),
        "spans_file": report.get("spans_file"),
    }
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result,
                                  "op_samples_s": report.get("samples")}, indent=1),
                      encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
