"""quiverlab benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``.  Each workload is a closed loop with one client: the next item
starts only when the previous one has returned.  Work runs in fresh
child processes, one alive at a time, so every batch starts from cold
module caches.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (inputs, machine, notes) goes to ``.bench_out/``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("hom-oracle", "ext-oracle", "closed-form", "cli-cold")
# Work per run is fixed by --seconds, not by the clock, so that a run
# does the same work on every commit: one batch per BATCH_SECONDS and one
# cli-cold cycle per CLI_CYCLE_SECONDS (what each takes on a 2-core Xeon
# sandbox).  ext-oracle always sweeps a quarter of its pool, twice (see
# workloads.py).
BATCH_SECONDS = 2
CLI_CYCLE_SECONDS = 4
MIN_BATCHES = 3  # set-ups per run, for the setup_s median
SETUPS_PER_CYCLE = 2  # cli-cold: fresh imports timed per cycle for setup_s
CHILD_TIMEOUT_S = 150
# hom-oracle and closed-form time their fastest windows of items, and
# ext-oracle each item's fastest pass (see fast_windows)
FAST_WINDOW = 250
FAST_WINDOWS = 3
EXT_PASSES = 2

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}

CALLS_AND_SELF = tuple(f"{module}.{name}" for module, name, _ in tracing.WRAPPED)
HIT_RATIOS = tuple(f"{module}.{name}" for module, name in tracing.CACHED)


def per_layer_units():
    units = {}
    for name in CALLS_AND_SELF:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for q in workloads.HOM_FIELDS:
        units[f"linalg.rref.q{q}.self_s"] = "s"
    units["linalg.rref.cells"] = "count"
    units["reps.hom_space_dim.cols"] = "count"
    for name in HIT_RATIOS:
        units[name + ".hit_ratio"] = "ratio"
    units.update({
        "extensions.u_points": "count",
        "extensions.u_yield": "ratio",
        "grassmannian.points": "count",
        "grassmannian.strata_yield": "ratio",
        "klr.support_pair_gap": "count",
        "cli.import_s": "s",
        "cli.main_s": "s",
        "trace.overhead": "ratio",
    })
    return units


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------------ children


def _env(hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _spawn(argv, stdin_data=None, ready=False, hash_seed=None):
    """Run one child to completion.  Returns (setup_s, wall_s, rss_mb,
    returncode, stdout); setup_s is spawn-to-``ready`` when ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(hash_seed), text=True,
        stdin=subprocess.PIPE if stdin_data is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        if stdin_data is not None:
            try:
                proc.stdin.write(stdin_data)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        setup_s = None
        if ready:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError(f"child did not start: {line.strip()!r}")
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    # ru_maxrss is in KiB on Linux
    return setup_s, wall_s, usage.ru_maxrss / 1024, proc.returncode, stdout


def run_batch_child(workload, pools, items, hash_seed, trace_path=None):
    spec = {"workload": workload, "pools": pools, "items": items,
            "trace": trace_path is not None,
            "trace_path": str(trace_path) if trace_path else None}
    setup_s, _, rss, rc, stdout = _spawn(
        [sys.executable, str(BENCH / "child.py")], json.dumps(spec), ready=True,
        hash_seed=hash_seed,
    )
    if rc != 0:
        raise BenchError(f"{workload} child exited with {rc}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result.update(setup_s=setup_s, rss_mb=rss)
    return result


# ------------------------------------------------------------------ statistics


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, n); the maximum when there are ten or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def fast_windows(latencies):
    """Timings over the run's FAST_WINDOWS fastest windows of
    FAST_WINDOW consecutive items (or of whole batches, if shorter).

    The host's vCPU alternates between a fast state and one about 45%
    slower, in stretches of up to a minute or two (see README.md), so a
    run's median and mean say more about the host than about the
    program.  Its fastest windows are the least disturbed.
    """
    size = min(FAST_WINDOW, min(map(len, latencies)))
    windows = sorted(
        (batch[k : k + size] for batch in latencies for k in range(0, len(batch) - size + 1, size)),
        key=sum,
    )
    best = windows[:FAST_WINDOWS]
    pooled = [t for w in best for t in w]
    tails = [tail(w) for w in best]
    timings = {
        "items_per_s": len(pooled) / sum(pooled),
        "query_p50_ms": 1000 * statistics.median(pooled),
        "query_tail_ms": 1000 * statistics.median(t[0] for t in tails),
    }
    note = (f"items_per_s, query_p50_ms and query_tail_ms are taken over the fastest "
            f"{len(best)} of {len(windows)} windows of {size} consecutive items; "
            f"query_tail_ms is the median of their p{tails[0][1]:.2f}")
    return timings, note


def whole_run(latencies):
    """Timings over every item of the run."""
    pooled = [t for batch in latencies for t in batch]
    value, pct, n = tail(pooled)
    timings = {
        "items_per_s": len(pooled) / sum(pooled),
        "query_p50_ms": 1000 * statistics.median(pooled),
        "query_tail_ms": 1000 * value,
    }
    return timings, f"query_tail_ms is the p{pct:.2f} of {n} samples"


def end_to_end(timings, setups, rss):
    """End-to-end metrics: timings plus the medians of the set-up times
    and peak memory of the run's children."""
    metrics = {
        "items_per_s": timings["items_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "query_p50_ms": timings["query_p50_ms"],
        "query_tail_ms": timings["query_tail_ms"],
    }
    note = f"setup_s and peak_rss_mb are medians of {len(setups)} and {len(rss)} samples"
    return metrics, note


# ------------------------------------------------------------------ workloads


def _check_sources():
    if not (SRC / "quiverlab" / "cli.py").is_file():
        raise BenchError(f"no quiverlab sources under {SRC}")


def _import_library():
    _check_sources()
    sys.path.insert(0, str(SRC))
    import quiverlab

    return quiverlab


def measure_in_process(workload, seed, seconds, trace, scale=1.0):
    ql = _import_library()
    inputs = workloads.Inputs(ql, workload, seed, max(MIN_BATCHES, seconds // BATCH_SECONDS), scale)
    batches = inputs.batches
    # a hash seed per batch, from the run's seed, makes a batch's work the
    # same in every child that runs it
    hash_seeds = [random.Random(f"{workload}/{seed}/{k}").randrange(2**32)
                  for k in range(len(batches))]
    passes = [[run_batch_child(workload, inputs.pools, batch, h)
               for batch, h in zip(batches, hash_seeds)]
              for _ in range(EXT_PASSES if workload == "ext-oracle" else 1)]
    runs = passes[0]
    failed = set()
    for p in passes:
        failed |= _failed_items(batches, [r["failed"] for r in p])
        failed |= _differing_items(batches, runs, p)
    if workload == "ext-oracle":
        # each item's time is the fastest of its passes
        latencies = [[min(ts) for ts in zip(*(p[k]["item_s"] for p in passes))]
                     for k in range(len(batches))]
        timings, note = whole_run(latencies)
    else:
        timings, note = fast_windows([r["item_s"] for r in runs])
    everyone = [r for p in passes for r in p]
    setups = [r["setup_s"] for r in everyone]
    metrics, more = end_to_end(timings, setups, [r["rss_mb"] for r in everyone])
    notes = [note, more]
    samples = {"setup_s": setups}
    gap = sum(r["counts"]["klr.support_pair_gap"] for r in runs)

    if trace:
        OUT.mkdir(exist_ok=True)
        traced = [
            run_batch_child(workload, inputs.pools, batch, h,
                            OUT / f"spans-{workload}-seed{seed}-batch{k}.jsonl.gz")
            for k, (batch, h) in enumerate(zip(batches, hash_seeds))
        ]
        failed |= _failed_items(batches, [r["failed"] for r in traced])
        failed |= _differing_items(batches, runs, traced)
        metrics, more = per_layer(
            [r["trace"] for r in traced],
            import_s=[r["import_s"] for r in traced],
            main_s=None,
            overhead=sum(r["elapsed_s"] for r in traced) / sum(r["elapsed_s"] for r in runs),
            gap=gap,
        )
        notes += more
    else:
        notes.append(f"klr.support_pair_gap={gap}")

    inputs_record = {
        "batches": len(batches),
        "items": sum(len(b) for b in batches),
        "strata": {repr(k): v for k, v in inputs.quotas.items()},
        "pool_sizes": {k: len(v) for k, v in inputs.pools.items()},
        "fields": list({"hom-oracle": workloads.HOM_FIELDS,
                        "ext-oracle": workloads.EXT_FIELDS}.get(workload, ())),
    }
    return inputs_record["items"], failed, metrics, notes, inputs_record, samples


def _differing_items(batches, runs, others):
    """Run-wide indices of the items whose outputs differ between two
    runs of the same batches."""
    return _failed_items(batches, [
        [k for k, (a, b) in enumerate(zip(r["outputs"], o["outputs"])) if a != b]
        for r, o in zip(runs, others)
    ])


def _failed_items(batches, per_batch):
    """Run-wide indices of the items each batch reports as failed."""
    out, offset = set(), 0
    for batch, indices in zip(batches, per_batch):
        out.update(offset + k for k in indices)
        offset += len(batch)
    return out


def _cli_argv(traced_prefix, query):
    if traced_prefix is None:
        return [sys.executable, "-m", "quiverlab.cli", *query]
    return [sys.executable, str(BENCH / "child.py"), "--cli", str(traced_prefix), *query]


def _cli_pass(order, traced_prefix=None):
    """Run queries in the given order; returns per-query records."""
    records = []
    for k, q in enumerate(order):
        argv, expected_rc, check = workloads.CLI_QUERIES[q]
        prefix = None if traced_prefix is None else f"{traced_prefix}-{k}"
        _, wall, rss, rc, stdout = _spawn(_cli_argv(prefix, argv))
        try:
            ok = rc == expected_rc and bool(check(json.loads(stdout)))
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        records.append({"query": q, "wall_s": wall, "rss_mb": rss, "rc": rc,
                        "stdout": stdout, "ok": ok, "prefix": prefix})
    return records


def measure_cli(seed, seconds, trace, scale=1.0):
    _check_sources()
    rng = random.Random(f"cli-cold/{seed}")
    per_cycle = max(1, int(len(workloads.CLI_QUERIES) * scale))
    cycles = max(1, round(seconds / CLI_CYCLE_SECONDS))
    setups, records, order = [], [], []
    # set-ups are timed before every cycle, so that they sample the whole run
    for _ in range(cycles):
        for _ in range(SETUPS_PER_CYCLE if scale >= 1 else 1):
            _, wall, _, rc, _ = _spawn([sys.executable, "-c", "import quiverlab.cli"])
            if rc != 0:
                raise BenchError("importing quiverlab.cli failed")
            setups.append(wall)
        cycle = workloads.cli_cycle(rng)[:per_cycle]
        records += _cli_pass(cycle)
        order += cycle
    failed = {k for k, r in enumerate(records) if not r["ok"]}
    timings, note = whole_run([[r["wall_s"] for r in records]])
    metrics, more = end_to_end(timings, setups, [r["rss_mb"] for r in records])
    notes = [note, more]
    samples = {"setup_s": setups}
    if trace:
        OUT.mkdir(exist_ok=True)
        traced = _cli_pass(order, OUT / f"cli-seed{seed}")
        failed |= {k for k, r in enumerate(traced) if not r["ok"]}
        failed |= {k for k, (a, b) in enumerate(zip(records, traced))
                   if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"])}
        try:
            reports = [json.loads(Path(r["prefix"] + ".json").read_text()) for r in traced]
        except FileNotFoundError as exc:
            raise BenchError(f"a traced cli-cold child wrote no trace: {exc.filename}") from exc
        metrics, more = per_layer(
            [r["trace"] for r in reports],
            import_s=[r["import_s"] for r in reports],
            main_s=[r["main_s"] for r in reports],
            overhead=sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in records),
            gap=0,
        )
        notes += more
    inputs_record = {"cycles": cycles, "items": len(records), "queries_per_cycle": per_cycle,
                     "setup_repeats": len(setups), "order": order}
    return len(records), failed, metrics, notes, inputs_record, samples


# ------------------------------------------------------------------ per layer


def per_layer(summaries, import_s, main_s, overhead, gap):
    """Add up the children's raw trace sums into per-layer metrics."""
    layers, caches = {}, {}
    sums = dict.fromkeys(("linalg.rref.cells", "reps.hom_space_dim.cols", "extensions.u_points",
                          "extensions.u_classes", "grassmannian.points", "grassmannian.pairs"), 0)
    missing_cache = set()
    for s in summaries:
        for name, (calls, ns) in s["layers"].items():
            slot = layers.setdefault(name, [0, 0])
            slot[0] += calls
            slot[1] += ns
        for key in sums:
            sums[key] += s[key]
        for name, delta in s["caches"].items():
            if delta is None:
                missing_cache.add(name)
                continue
            slot = caches.setdefault(name, [0, 0])
            slot[0] += delta[0]
            slot[1] += delta[1]

    notes, metrics = [], {}
    idle = []

    def ratio(num, den, name):
        if den == 0:
            idle.append(name)
            return 0.0
        return num / den

    for name in CALLS_AND_SELF:
        calls, ns = layers.get(name, (0, 0))
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = ns / 1e9
    for q in workloads.HOM_FIELDS:
        metrics[f"linalg.rref.q{q}.self_s"] = layers.get(f"linalg.rref.q{q}", (0, 0))[1] / 1e9
    metrics["linalg.rref.cells"] = sums["linalg.rref.cells"]
    metrics["reps.hom_space_dim.cols"] = sums["reps.hom_space_dim.cols"]
    for name in HIT_RATIOS:
        key = name + ".hit_ratio"
        if name in missing_cache:
            notes.append(f"{key} missing: {name} has no cache_info()")
            continue
        hits, misses = caches.get(name, (0, 0))
        metrics[key] = ratio(hits, hits + misses, key)
    metrics["extensions.u_points"] = sums["extensions.u_points"]
    metrics["extensions.u_yield"] = ratio(
        sums["extensions.u_classes"], sums["extensions.u_points"], "extensions.u_yield")
    metrics["grassmannian.points"] = sums["grassmannian.points"]
    metrics["grassmannian.strata_yield"] = ratio(
        sums["grassmannian.pairs"], sums["grassmannian.points"], "grassmannian.strata_yield")
    metrics["klr.support_pair_gap"] = gap
    metrics["cli.import_s"] = statistics.median(import_s)
    if main_s:
        metrics["cli.main_s"] = statistics.median(main_s)
    else:
        metrics["cli.main_s"] = 0.0
        idle.append("cli.main_s")
    metrics["trace.overhead"] = overhead
    if idle:
        notes.append("not exercised on this workload (reported as 0): " + ", ".join(idle))
    notes.append("linalg.rref.cells and reps.hom_space_dim.cols are computed from input shapes")
    return metrics, notes


# ------------------------------------------------------------------ records


def machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
    }


def _commit():
    """The checked-out commit, marked dirty if the tree has changes."""
    # look no higher than the checkout, which may sit inside another repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()

    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return head + ("-dirty" if status else "")


def measure(workload, seed, seconds, trace, scale=1.0):
    """Run one workload; returns the full record (see README.md)."""
    if workload == "cli-cold":
        attempted, failed, metrics, notes, inputs, samples = measure_cli(
            seed, seconds, trace, scale)
    else:
        attempted, failed, metrics, notes, inputs, samples = measure_in_process(
            workload, seed, seconds, trace, scale)
    units = per_layer_units() if trace else END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": inputs,
        "machine": machine(),
        "notes": notes,
        "untraced_samples": samples,
        "fail_frac": len(failed) / attempted,
        "failed_items": sorted(failed)[:20],
        "result": {
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} inputs={record['inputs'].get('items')} "
          f"items; nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"commit={m['commit']}")
    print(f"# fail_frac {record['fail_frac']:.6g}")
    for name, metric in record["result"]["metrics"].items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")
    for note in record["notes"]:
        print(f"# note: {note}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
