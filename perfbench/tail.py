"""``tail``: a feeder appends row batches under a few standing searches.

One closed-loop feeder appends seeded batches, each touching a fixed
share of the groups, to every standing regex ``TailSearch`` of one
session (``workers=nproc, backend="process"``), and times each
``append_rows`` until the refreshed ``ResultSet`` comes back.  The
work runs through ``Table.append_rows``, shared-memory delta segments,
``score_tail_groups`` and ``IncrementalMerge`` instead of full
publishes, so a change that speeds up cold reads but slows writes
shows up here.
"""

from __future__ import annotations

import gc
import os

from perfbench import common, gen, procfs
from perfbench.trace import ENGINE_POINTS, Tracer

VISUAL = {"z": "z", "x": "x", "y": "y"}


def _setup(columns, queries, k):
    """Table, session, pool spawn, and each tail's initial full pass."""
    from repro import ShapeSearch

    session = ShapeSearch.from_arrays(
        columns=columns, workers=gen.NPROC, backend="process"
    )
    tails = [session.tail(query, k=k, **VISUAL) for query in queries]
    return session, tails


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = gen.tail_inputs(seed)
    k = inputs["k"]
    limit = common.slo_ms("tail")
    shm_before = procfs.shm_segments()
    me = os.getpid()

    setups = []
    session = None
    for _ in range(common.SETUP_REPS):
        if session is not None:
            session.close()
        started = common.clock()
        session, tails = _setup(inputs["columns"], inputs["queries"], k)
        setups.append(common.clock() - started)
    gc.collect()

    tracer = Tracer()
    if trace:
        tracer.install(ENGINE_POINTS)
    latencies, traced_ms, untraced_ms, rescored = [], [], [], []
    failed = attempted = rows = 0
    batches = inputs["batches"]
    workers = procfs.descendants(me)
    cpu_before = procfs.tree_cpu_s([me] + workers)
    window_start = common.clock()
    try:
        while common.clock() - window_start < seconds:
            batch = next(batches)
            rows += len(batch)
            for tail in tails:
                attempted += 1
                # Traced runs trace every other append, so the untraced
                # ones give the tracer's cost.
                tracer.enabled = trace and attempted % 2 == 0
                started = common.clock()
                try:
                    result = tail.append_rows(batch)
                except Exception as exc:  # a failed append is counted, not fatal
                    failed += 1
                    print("tail: append failed: {!r}".format(exc))
                    continue
                finally:
                    tracer.enabled = False
                elapsed_ms = (common.clock() - started) * 1000.0
                latencies.append(elapsed_ms)
                (traced_ms if trace and attempted % 2 == 0 else untraced_ms).append(
                    elapsed_ms
                )
                rescored.append(result.stats.scored / max(1, result.stats.candidates))
        window_s = common.clock() - window_start
        cpu_after = procfs.tree_cpu_s([me] + workers)
        pss = procfs.pss_mb([me] + procfs.descendants(me))
    finally:
        tracer.uninstall()

    # -- verification (untimed): each tail against a cold run --------------
    from repro import ShapeSearch

    mismatches = []
    for tail, query in zip(tails, inputs["queries"]):
        with ShapeSearch(tail.table, workers=1) as reference:
            cold = reference.prepare(query, **VISUAL).run(k)
        if tail.results.to_records() != cold.to_records():
            mismatches.append(query)
    final_rows = [len(tail.table) for tail in tails]
    session.close()
    leaks = common.leaks(me, shm_before)

    completed = len(latencies)
    metrics = {"setup_s": (common.median(setups), "s")}
    metrics.update(common.latency_metrics(latencies, attempted, limit))
    metrics["rows_per_s"] = (rows / window_s, "rows/s")
    metrics["pss_mb"] = (pss, "MB")

    layer = {}
    if trace:
        layer.update(common.span_metrics(tracer.totals(), len(traced_ms)))
        layer["trace.overhead_ratio"] = common.overhead_ratio(traced_ms, untraced_ms)
    layer["tail.rescored_ratio"] = sum(rescored) / max(1, len(rescored))
    layer["parent.cpu_ms"] = (cpu_after[me] - cpu_before[me]) * 1000.0 / max(1, completed)
    layer["workers.cpu_ms"] = sum(
        cpu_after[p] - cpu_before[p] for p in workers
    ) * 1000.0 / max(1, completed)
    layer["failed_ratio"] = failed / max(1, attempted)

    return {
        "correct": not mismatches and not leaks and completed > 0
        and len(set(final_rows)) == 1,
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
            "rows_appended": rows,
            "final_rows": final_rows,
            "touched_share": layer["tail.rescored_ratio"],
            "mismatches": mismatches,
            "leaks": leaks,
        },
        "config": {
            "groups": gen.TAIL_GROUPS, "length": gen.TAIL_LENGTH,
            "touch_share": gen.TAIL_TOUCH_SHARE, "points": gen.TAIL_POINTS,
            "queries": inputs["queries"], "k": k, "workers": gen.NPROC,
            "backend": "process",
        },
    }
