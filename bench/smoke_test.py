"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, in well under a minute.

    python3 bench/smoke_test.py        (or: python3 -m pytest bench/smoke_test.py)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing

# scale shrinks each batch (or cli-cold cycle) to a few items
TINY = {"hom-oracle": 0.002, "ext-oracle": 0.02, "closed-form": 0.002, "cli-cold": 0.1}


def _declared():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def test_declared_metrics_match_run_py():
    end_to_end, per_layer, names = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert names == list(run.WORKLOADS)


def _check(workload, trace):
    end_to_end, per_layer, _ = _declared()
    record = run.measure(workload, seed=1, seconds=0, trace=trace, scale=TINY[workload])
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["failed_items"]
    assert result["attempted"] >= 1
    expected = per_layer if trace else end_to_end
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead"]["value"] > 0
    return record


def test_every_workload_untraced():
    for workload in run.WORKLOADS:
        _check(workload, trace=False)


def test_every_workload_traced():
    for workload in run.WORKLOADS:
        record = _check(workload, trace=True)
        metrics = record["result"]["metrics"]
        if workload == "hom-oracle":
            assert metrics["reps.hom_space_dim.calls"]["value"] >= record["result"]["attempted"]
            assert metrics["reps.identify.calls"]["value"] == 0
        if workload == "ext-oracle":
            assert metrics["extensions.u_points"]["value"] > 0
            assert metrics["grassmannian.points"]["value"] > 0
        if workload == "closed-form":
            assert metrics["linalg.rref.calls"]["value"] == 0
        if workload == "cli-cold":
            assert metrics["cli.main_s"]["value"] > 0


def test_fails_without_sources():
    """In a directory holding only the benchmark, the run fails fast."""
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hom-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_coverage_check_catches_a_stale_binding():
    run._import_library()
    import quiverlab.extensions

    tracer = tracing.Tracer()
    tracer.install()
    wrapped = quiverlab.extensions.identify
    quiverlab.extensions.identify = tracer.originals["reps.identify"]
    try:
        tracer.check_coverage()
    except tracing.TraceError as exc:
        assert "quiverlab.extensions.identify" in str(exc)
    else:
        raise AssertionError("a stale binding went unnoticed")
    finally:
        quiverlab.extensions.identify = wrapped


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name, flush=True)
