"""One benchmark child process: a batch of items from cold caches.

Usage (run by ``run.py``, with ``src`` on ``PYTHONPATH``):

    python3 bench/child.py < spec.json
        Runs the in-process workload described by the JSON spec on
        stdin.  Prints ``ready`` just before the first item, then one
        JSON result line.

    python3 bench/child.py --cli TRACE_PREFIX ARG...
        Runs one traced ``quiverlab`` command line.  stdout and the exit
        code are the command's own; the trace goes to TRACE_PREFIX.json
        and TRACE_PREFIX.spans.jsonl.gz.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing
import workloads


def _import_quiverlab(module):
    t0 = time.perf_counter()
    imported = __import__(module, fromlist=["_"])
    return imported, time.perf_counter() - t0


def run_batch(spec):
    ql, import_s = _import_quiverlab("quiverlab")
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    ctx = workloads.Context(ql, spec["workload"], spec["pools"])
    run_item = workloads.ITEMS[spec["workload"]]
    if tracer:
        tracer.check_coverage()
        tracer.end_setup()
    print("ready", flush=True)

    results, item_s = [], []
    clock = time.perf_counter
    t0 = clock()
    for k, item in enumerate(spec["items"]):
        token = tracer.begin_item(k) if tracer else None
        start = clock()
        try:
            results.append(run_item(ctx, item))
        except Exception as exc:  # a raising item is a failed item, not a failed run
            results.append((f"{type(exc).__name__}: {exc}", False))
        finally:
            item_s.append(clock() - start)
            if tracer:
                tracer.end_item(token)
    elapsed = clock() - t0

    out = {
        "elapsed_s": elapsed,
        "item_s": item_s,
        "outputs": [repr(o) for o, _ in results],
        "failed": [k for k, (_, ok) in enumerate(results) if not ok],
        "counts": ctx.counts,
        "import_s": import_s,
        "trace": None,
    }
    if tracer:
        tracer.check_coverage()
        out["trace"] = tracer.summary()
        tracer.write(spec["trace_path"])
    return out


def run_cli(prefix, argv):
    cli, import_s = _import_quiverlab("quiverlab.cli")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.end_setup()
    token = tracer.begin_item(0)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.end_item(token)
    sys.stdout.flush()
    tracer.check_coverage()
    Path(prefix + ".json").write_text(
        json.dumps({"import_s": import_s, "main_s": main_s, "trace": tracer.summary()})
    )
    tracer.write(prefix + ".spans.jsonl.gz")
    return rc


def main():
    if sys.argv[1:2] == ["--cli"]:
        return run_cli(sys.argv[2], sys.argv[3:])
    print(json.dumps(run_batch(json.load(sys.stdin))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
