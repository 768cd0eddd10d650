"""Shared pieces: checkout paths, CRF weights, statistics, metric assembly."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (ignored by git): CRF weights,
#: artifact stores, result records.
BUILD_DIR = ROOT / ".bench_build"
WEIGHTS = BUILD_DIR / "crf_weights.npz"

#: Setups per run; ``setup_s`` is their median.
SETUP_REPS = 5

clock = time.perf_counter


def ensure_crf_weights() -> Optional[float]:
    """Train the entity CRF once per checkout; returns the seconds spent.

    This is the checkout's build step, outside every timed region: the
    program's own trainer (:func:`repro.nlp.tagger.train_default_crf`)
    fits the model on its generated corpus, as
    ``python -m repro.nlp.tagger`` would, and the weights are written
    under ``.bench_build``.  Returns None when they already exist.
    """
    if WEIGHTS.is_file():
        return None
    from repro.nlp.tagger import train_default_crf

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    started = clock()
    model = train_default_crf()
    partial = BUILD_DIR / "crf_weights.{}.npz".format(os.getpid())
    model.save(str(partial))
    os.replace(partial, WEIGHTS)
    return clock() - started


def point_tagger_at_weights() -> None:
    """Make the next NL parse load the checkout's weights, as a fresh process.

    The tagger keeps one model per process and loads shipped weights on
    first use; clearing that slot before each setup makes every setup
    pay the load the first NL query of a new process pays.
    """
    from repro.nlp import tagger

    tagger._WEIGHTS_PATH = str(WEIGHTS)
    tagger._MODEL = None


def spec() -> dict:
    """BENCHMARK.json: workloads (with their latency limits) and metrics."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def slo_ms(workload: str) -> float:
    """The workload's latency limit, as written in BENCHMARK.json."""
    for entry in spec()["workloads"]:
        if entry["name"] == workload:
            match = re.search(r"SLO (\d+(?:\.\d+)?) ?ms", entry["why"])
            if match:
                return float(match.group(1))
    raise SystemExit("BENCHMARK.json names no SLO for workload {!r}".format(workload))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def latency_metrics(samples_ms: Sequence[float], attempted: int, limit_ms: float,
                    kept_ms: Optional[Sequence[float]] = None) -> Dict:
    """p50/p95 and the share of attempts completed within ``limit_ms``.

    ``kept_ms``, when given, is the subset the percentiles are taken
    over; ``slo_ratio`` always counts every sample.
    """
    within = sum(1 for value in samples_ms if value <= limit_ms)
    kept = samples_ms if kept_ms is None else kept_ms
    return {
        "latency_p50_ms": (percentile(kept, 50), "ms"),
        "latency_p95_ms": (percentile(kept, 95), "ms"),
        "slo_ratio": (within / max(1, attempted), "ratio"),
    }


def latency_record(samples_ms: Sequence[float]) -> dict:
    """Sample count and the tail percentiles with how many samples lie beyond."""
    out = {"samples": len(samples_ms), "p50_ms": percentile(samples_ms, 50)}
    for q in (95, 99):
        value = percentile(samples_ms, q)
        out["p{}_ms".format(q)] = value
        out["beyond_p{}".format(q)] = sum(1 for sample in samples_ms if sample > value)
    return out


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
            # A checkout need not be a repository; never search above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def meta(seed: int, workload: str, config: dict) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload,
        "config": config,
    }


#: Span name -> (self-time metric, calls metric or None).
_SPAN_METRICS = {
    "parse": ("parse.self_ms", "parse.calls"),
    "compile": ("compile.self_ms", None),
    "scan_table": ("scan_table.self_ms", None),
    "extract_group": ("extract_group.self_ms", None),
    "index_prune": ("index_prune.self_ms", None),
    "shape_index.build": ("shape_index.build_ms", "shape_index.builds"),
    "score": ("score.self_ms", None),
    "merge_topk": ("merge_topk.self_ms", None),
    "run": ("run.dispatch_ms", None),
    "shm.publish": ("shm.publish_ms", "shm.publish_calls"),
    "table.append": ("table.append_ms", None),
    "tail.rescore": ("tail.rescore_ms", None),
    "incremental_merge": ("incremental_merge.self_ms", None),
    "artifacts.save": ("artifacts.save_ms", None),
    "artifacts.load": ("artifacts.load_ms", "artifacts.loads"),
    "admission": ("admission.self_ms", None),
    "protocol.encode": ("protocol.encode_ms", None),
}

#: Spans whose self time is glue between layers, not a layer: the
#: benchmark's own request root and PhysicalPlan.run around the operators.
GLUE_SPANS = ("request", "plan")


def span_metrics(totals: Dict[str, Dict[str, float]], completed: int) -> Dict[str, float]:
    """Per-completed-request self times and call counts from span totals."""
    out: Dict[str, float] = {}
    per = 1.0 / max(1, completed)
    for span_name, (time_metric, calls_metric) in _SPAN_METRICS.items():
        entry = totals.get(span_name)
        if entry is None:
            continue
        out[time_metric] = entry["self_s"] * 1000.0 * per
        if calls_metric is not None:
            out[calls_metric] = entry["calls"] * per
    glue = sum(totals[name]["self_s"] for name in GLUE_SPANS if name in totals)
    out["unattributed_ms"] = glue * 1000.0 * per
    return out


def stats_counters(stats: Iterable, completed: int) -> Dict[str, float]:
    """Counters summed over ExecutionStats-shaped dicts, per request/ratio."""
    rows = list(stats)
    per = 1.0 / max(1, completed)
    candidates = sum(row.get("index_candidates", 0) for row in rows)
    pruned = sum(row.get("index_pruned", 0) for row in rows)
    return {
        "plan_cache.hit_ratio": sum(bool(row.get("plan_cache_hit")) for row in rows)
        / max(1, len(rows)),
        "trendline_cache.hit_ratio": sum(
            bool(row.get("trendline_cache_hit")) for row in rows
        ) / max(1, len(rows)),
        "extract_group.trendlines": sum(row.get("extracted", 0) for row in rows) * per,
        "score.scored": sum(row.get("scored", 0) for row in rows) * per,
        "score.shards": sum(row.get("shards", 0) for row in rows) * per,
        "index_prune.pruned_ratio": pruned / candidates if candidates else 0.0,
    }


def stats_dict(stats) -> dict:
    """The counters of one :class:`ExecutionStats` as a plain dict."""
    from repro.serving.protocol import stats_payload

    return stats_payload(stats) or {}


def per_layer(values: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric of BENCHMARK.json; layers a workload does not use read 0."""
    return {
        entry["name"]: (float(values.get(entry["name"], 0.0)), entry["unit"])
        for entry in spec()["per_layer"]
    }


def write_record(workload: str, seed: int, trace: bool, record: dict,
                 spans: Optional[list] = None) -> Path:
    """The run's record (and, for traced runs, its spans) as JSON files."""
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / "{}-seed{}-trace{}.json".format(workload, seed, int(trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
    if spans is not None:
        with open(path.with_suffix(".spans.json"), "w") as handle:
            json.dump(spans, handle)
    return path


def overhead_ratio(traced: List[float], untraced: List[float]) -> float:
    """Median traced latency over median untraced latency, minus one."""
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def leaks(pid: int, shm_before, orphans=(), timeout_s: float = 10.0) -> dict:
    """Processes and /dev/shm segments that outlived the system under test.

    Checks the descendants of ``pid`` plus ``orphans`` -- workers of a
    stopped child process, which the kernel re-parents when their parent
    exits -- waiting up to ``timeout_s`` for shut-down workers to exit.
    The interpreter's multiprocessing resource tracker is not part of the
    system under test and is stopped separately at exit.
    """
    from perfbench import procfs

    deadline = clock() + timeout_s
    while True:
        alive = [p for p in procfs.descendants(pid) if not procfs.is_resource_tracker(p)]
        alive += [p for p in orphans if procfs.alive(p) and p not in alive]
        segments = sorted(procfs.shm_segments() - set(shm_before))
        if (not alive and not segments) or clock() >= deadline:
            break
        time.sleep(0.05)
    return {"processes": alive, "segments": segments} if alive or segments else {}
