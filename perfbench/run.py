"""Layered end-to-end benchmark of ShapeSearch: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced); ``--trace 1``
prints the per-layer breakdown from the span recorder.  Each run
generates its inputs from ``--seed``, sets the system up several times
(``setup_s`` is the median), measures for ``--seconds``, verifies the
outputs after the window, and prints one metric per line with its unit,
then a JSON summary as the last line.  A full record (meta, config,
samples, verification) is written under ``.bench_build/results/``.

End-to-end metrics (every workload reports each one):

* ``setup_s`` -- from nothing to ready: table build, pool spawn, shm
  publish, the CRF weights load on the first NL parse; for ``serve`` also
  server start, table publish and index builds and saves; for ``tail``
  each standing search's initial pass;
* ``latency_p50_ms`` / ``latency_p95_ms`` -- ``explore``: prepare plus
  run; ``serve``: from when the request was due to its terminal frame,
  leaving out the window's slowest 2-second slices (see
  :data:`perfbench.serve.LATENCY_SLICE_S`); ``tail``: append until the
  refreshed result returns.  The record also gives the whole-window
  p50/p95/p99 and how many samples lie beyond each percentile;
* ``slo_ratio`` -- share of attempted requests completed without error
  within the workload's limit (the ``SLO`` in BENCHMARK.json);
* ``rows_per_s`` -- table rows searched per second (``explore``,
  ``serve``), rows appended per second (``tail``);
* ``pss_mb`` -- summed PSS of the process tree under test at the end of
  the window.

The first run in a checkout trains the entity CRF (the checkout's build
step, see :func:`perfbench.common.ensure_crf_weights`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("explore", "serve", "tail")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program under {}/src/repro".format(root), file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]

    import importlib

    from perfbench import common, procfs

    trained_s = common.ensure_crf_weights()
    workload = importlib.import_module("perfbench." + args.workload)
    steal_before = procfs.steal_s()
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()

    if args.trace:
        metrics = common.per_layer(outcome["layers"])
    else:
        metrics = outcome["metrics"]
    record = {
        "meta": common.meta(args.seed, args.workload, outcome["config"]),
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "crf_train_s": trained_s,
        # CPU time the hypervisor took from this machine during the run:
        # a run disturbed by its neighbours shows here.
        "host_steal_s": procfs.steal_s() - steal_before,
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: value for name, (value, _unit) in outcome["metrics"].items()},
        "layers": outcome["layers"],
        "run": outcome["record"],
    }
    path = common.write_record(
        args.workload, args.seed, bool(args.trace), record, outcome.get("spans")
    )
    for name, (value, unit) in metrics.items():
        print("{:<28} {:>14.4f} {}".format(name, value, unit))
    latency = outcome["record"].get("latency")
    if latency and not args.trace:
        for q in (95, 99):
            print("(record) latency_p{0}_ms {1:.4f} ms: {2} of {3} samples beyond".format(
                q, latency["p{}_ms".format(q)], latency["beyond_p{}".format(q)],
                latency["samples"]))
    print("record: {}".format(path.relative_to(root)))
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to exit."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
