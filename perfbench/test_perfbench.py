"""Self-tests of the benchmark, on inputs small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hypermaps as hm  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_loop  # noqa: E402


def test_right_oracle_passes_and_wrong_oracle_counts_failures(tmp_path):
    good = workloads.poly_ladder(0, 1, tmp_path, n=5)
    stats = run_loop(good.ops, cycles=2)
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 0, 0)

    bad = workloads.poly_ladder(0, 1, tmp_path, n=5, oracle=hm.closed_form("ladder", 4))
    stats = run_loop(bad.ops, cycles=2)
    assert stats.failed / stats.attempted > 0
    assert stats.wrong == stats.failed == 2


def test_join_oracle_is_the_product_of_the_factors(tmp_path):
    wl = workloads.poly_join(3, 2, tmp_path, factors=[("ladder", 3), ("digon", 1),
                                                      ("cycle_hypertree", 3)])
    assert wl.enum_input.e == 7 and not wl.enum_input.is_orientable()
    assert run_loop(wl.ops, cycles=1).failed == 0


def test_check_suite_small_pool(tmp_path):
    wl = workloads.check_suite(1, 1, tmp_path, pool=((("star", 2), ("digon", 1)),))
    assert len(wl.ops) == 3
    assert run_loop(wl.ops, cycles=1).failed == 0


def test_transform_cli_fails_only_on_malformed_requests(tmp_path):
    wl = workloads.transform_cli(5, 1, tmp_path, tree_edges=12, ladder_rungs=4)
    assert len(wl.ops) == 60
    assert sum(not op.well_formed for op in wl.ops) == 3
    stats = run_loop(wl.ops, cycles=1)
    assert stats.wrong == 0
    assert stats.failed <= 3


def test_tracer_self_time_and_uninstall(tmp_path):
    original = hm.duality.partial_dual
    tracer = Tracer()
    tracer.install()
    assert hm.partial_dual is not original
    wl = workloads.check_suite(2, 1, tmp_path, pool=((("ladder", 2),),))
    traced = run_loop(wl.ops, cycles=1, tracer=tracer)
    tracer.uninstall()
    assert hm.partial_dual is original and hm.verify.partial_dual is original
    assert traced.failed == 0

    layers = tracer.layer_metrics()
    assert layers["verify.verify_bundled.calls"]["value"] == 1
    assert layers["verify.verify_hypermap.calls"]["value"] == 2 + 3  # 3 inside the suite
    assert layers["duality.partial_dual.calls"]["value"] > 0
    assert layers["perm.init.calls"]["value"] > 0
    assert layers["cli.run.calls"]["value"] == 0
    # Self times of all layers fit inside the benchmark's op spans.
    ops_total = tracer.inclusive_seconds("bench.op")
    assert 0 < sum(v["value"] for k, v in layers.items() if k.endswith(".self_s")) <= ops_total
    ids = {s[0] for s in tracer.spans}
    assert all(s[1] == 0 or s[1] in ids for s in tracer.spans)


def test_missing_targets_are_reported_absent(monkeypatch):
    monkeypatch.setattr("tracer.TARGETS", (("nope.gone", "hypermaps.nope", "gone", None),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["nope.gone"]
    assert tracer.layer_metrics() == {}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
