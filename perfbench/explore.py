"""``explore``: one analyst, closed loop, the library API, cold queries.

Each request is ``ShapeSearch.prepare(query, ...).run(k)`` on a
``workers=nproc, backend="process"`` session with no index and no
cache, over a corpus whose x values carry several y values (so the
mean aggregate runs).  Queries are distinct and mix the three front
ends: regex, natural language and sketches.  Parsing, ScanTable,
worker-side Extract/Group, Score and MergeTopK do the work; serving,
the index and the tail code do none.
"""

from __future__ import annotations

import gc
import os
import random

from perfbench import common, gen, procfs
from perfbench.trace import ENGINE_POINTS, Tracer

VISUAL = {"z": "z", "x": "x", "y": "y", "aggregate": "mean"}


def _setup(columns, warmup, k):
    """Table, session, pool spawn, shm publish and the first NL parse."""
    from repro import ShapeSearch

    common.point_tagger_at_weights()
    session = ShapeSearch.from_arrays(
        columns=columns, workers=gen.NPROC, backend="process"
    )
    _search(session, warmup, k)
    return session


def _search(session, query, k):
    from repro.sketch import parser as sketch_parser

    if query[0] == "sketch":
        spec = sketch_parser.parse_sketch(query[1], mode=query[2])
    else:
        spec = query[1]
    return session.prepare(spec, **VISUAL).run(k)


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = gen.explore_inputs(seed)
    k = inputs["k"]
    limit = common.slo_ms("explore")
    shm_before = procfs.shm_segments()
    me = os.getpid()

    setups = []
    session = None
    for _ in range(common.SETUP_REPS):
        if session is not None:
            session.close()
        started = common.clock()
        session = _setup(inputs["columns"], inputs["warmup"], k)
        setups.append(common.clock() - started)
    gc.collect()

    tracer = Tracer()
    if trace:
        tracer.install(ENGINE_POINTS)
    latencies, traced_ms, untraced_ms, stats, done = [], [], [], [], []
    failed = attempted = 0
    workers = procfs.descendants(me)
    cpu_before = procfs.tree_cpu_s([me] + workers)
    window_start = common.clock()
    try:
        for index, query in enumerate(inputs["queries"]):
            if common.clock() - window_start >= seconds:
                break
            attempted += 1
            # Traced runs measure each query twice, traced and untraced,
            # in alternating order, so the pair gives the tracer's cost.
            passes = (False,) if not trace else (
                (False, True) if index % 2 else (True, False)
            )
            try:
                for traced in passes:
                    tracer.enabled = traced
                    started = common.clock()
                    with tracer.span("request"):
                        result = _search(session, query, k)
                    elapsed_ms = (common.clock() - started) * 1000.0
                    (traced_ms if traced else untraced_ms).append(elapsed_ms)
            except Exception as exc:  # a failed query is counted, not fatal
                failed += 1
                print("explore: query {!r} failed: {!r}".format(query, exc))
                continue
            finally:
                tracer.enabled = False
            latencies.append(untraced_ms[-1])
            stats.append(common.stats_dict(result.stats))
            done.append(query)
        window_s = common.clock() - window_start
        cpu_after = procfs.tree_cpu_s([me] + workers)
        pss = procfs.pss_mb([me] + procfs.descendants(me))
    finally:
        tracer.uninstall()

    # -- verification (untimed): a seeded subset against workers=1 -----------
    mismatches = []
    from repro import ShapeSearch

    checks = random.Random(inputs["check_seed"]).sample(
        done, min(gen.EXPLORE_CHECKS, len(done))
    )
    with ShapeSearch(session.table, workers=1) as reference:
        for query in checks:
            expected = _search(reference, query, k).to_records()
            if _search(session, query, k).to_records() != expected:
                mismatches.append(query)
    session.close()
    leaks = common.leaks(me, shm_before)

    completed = len(latencies)
    metrics = {"setup_s": (common.median(setups), "s")}
    metrics.update(common.latency_metrics(latencies, attempted, limit))
    rows = len(inputs["columns"]["z"])
    metrics["rows_per_s"] = (rows * completed / window_s, "rows/s")
    metrics["pss_mb"] = (pss, "MB")

    layer = {}
    coverage = {}
    if trace:
        totals = tracer.totals()
        layer.update(common.span_metrics(totals, len(traced_ms)))
        # The request root covers each traced request end to end, so the
        # self times of all spans add up to the traced latency.
        coverage = {
            "traced_mean_ms": sum(traced_ms) / max(1, len(traced_ms)),
            "self_sum_ms": sum(entry["self_s"] for entry in totals.values())
            * 1000.0 / max(1, len(traced_ms)),
        }
        layer.update(common.stats_counters(stats, completed))
        layer["trace.overhead_ratio"] = sum(traced_ms) / max(1e-9, sum(untraced_ms)) - 1.0
    # Per execution: a traced run executes each completed query twice.
    executions = max(1, len(traced_ms) + len(untraced_ms))
    parent_cpu = cpu_after[me] - cpu_before[me]
    worker_cpu = sum(cpu_after[p] - cpu_before[p] for p in workers)
    layer["parent.cpu_ms"] = parent_cpu * 1000.0 / executions
    layer["workers.cpu_ms"] = worker_cpu * 1000.0 / executions
    layer["failed_ratio"] = failed / max(1, attempted)

    return {
        "correct": not mismatches and not leaks and completed > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layer,
        "spans": tracer.dump() if trace else None,
        "record": {
            "setups_s": setups,
            "latency": common.latency_record(latencies),
            "window_s": window_s,
            "slo_ms": limit,
            "checked": len(checks),
            "trace_coverage": coverage,
            "mismatches": [repr(query) for query in mismatches],
            "leaks": leaks,
            "kinds": {kind: sum(1 for q in done if q[0] == kind)
                      for kind in ("regex", "nl", "sketch")},
        },
        "config": {
            "groups": gen.EXPLORE_GROUPS, "length": gen.EXPLORE_LENGTH,
            "reps": gen.EXPLORE_REPS, "rows": rows, "k": k,
            "workers": gen.NPROC, "backend": "process",
            "block": gen.EXPLORE_BLOCK, "blocks": gen.EXPLORE_BLOCKS,
        },
    }

