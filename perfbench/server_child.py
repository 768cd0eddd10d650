"""The ``serve`` workload's system under test: a live server in its own process.

Started by :mod:`perfbench.serve` as
``python -m perfbench.server_child --store DIR [--trace]``.  It runs a
:class:`~repro.serving.app.ShapeServingApp` (sessions with
``workers=nproc, backend="process", index=True, store=DIR``) on an
ephemeral port, prints ``{"port": ...}`` on stdout, then answers one
JSON command per stdin line with one JSON line:

* ``{"op": "pause"}`` -- stop recording the set-up spans (``--trace``
  records from start);
* ``{"op": "trace", "origin": t, "period": s}`` -- when started with
  ``--trace``, record spans in alternating ``s``-second slices
  (untraced, traced, untraced, ...) from monotonic time ``t`` on;
* ``{"op": "gc"}`` -- collect garbage (after setup, before the window);
* ``{"op": "window"}`` -- start fresh per-endpoint latency stats, so
  ``/v1/stats`` p50/p99 cover the timed window only;
* ``{"op": "summary"}`` -- stop recording; span totals and the spans;
* ``{"op": "verify", "items": [...]}`` -- recompute every served key
  with a direct session run in this process and compare digests;
* ``{"op": "stop"}`` -- stop the server (sessions, pools and shared
  memory are released) and exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import threading
import time

#: Latency samples per endpoint kept for the window's /v1/stats (all of them).
WINDOW_SAMPLES = 1 << 16


def _serve(args) -> int:
    from perfbench import common, gen
    from perfbench.trace import ENGINE_POINTS, SERVING_POINTS, Tracer
    from perfbench.verify import payload_digest
    from repro.serving import (
        ServerStats, ShapeServingApp, json_dumps, result_payload, start_in_thread,
    )

    common.point_tagger_at_weights()
    tracer = Tracer()
    if args.trace:
        tracer.install(ENGINE_POINTS + SERVING_POINTS)
        # Set-up work (publish, index builds and saves, the first NL
        # parse) is traced until the "pause" command.
        tracer.enabled = True
    app = ShapeServingApp(session_options={
        "workers": gen.NPROC, "backend": "process", "index": True,
        "store": args.store,
    })
    handle = start_in_thread(app)
    stop_slices = threading.Event()
    reply({"port": handle.address[1]})
    try:
        for line in _lines():
            command = json.loads(line)
            op = command["op"]
            if op == "trace":
                threading.Thread(
                    target=_slices,
                    args=(tracer, command["origin"], command["period"], stop_slices),
                    daemon=True,
                ).start()
                reply({"ok": True})
            elif op == "pause":
                tracer.enabled = False
                reply({"ok": True})
            elif op == "gc":
                gc.collect()
                reply({"ok": True})
            elif op == "window":
                app.stats = ServerStats(window=WINDOW_SAMPLES)
                reply({"ok": True})
            elif op == "summary":
                stop_slices.set()
                tracer.enabled = False
                reply({"totals": tracer.totals(), "spans": tracer.dump()})
            elif op == "verify":
                # Submitted together, so the sessions' dispatchers overlap them.
                futures = [
                    app.registry.get(item["table"])
                    .prepare(item["query"], z="z", x="x", y="y")
                    .submit(item["k"])
                    for item in command["items"]
                ]
                mismatches = [
                    item["id"] for item, future in zip(command["items"], futures)
                    if payload_digest(json_dumps(result_payload(future.result())))
                    != item["digest"]
                ]
                reply({"checked": len(command["items"]), "mismatches": mismatches})
            elif op == "stop":
                break
    finally:
        stop_slices.set()
        tracer.enabled = False
        handle.stop()
        tracer.uninstall()
    reply({"stopped": True})
    return 0


def _slices(tracer, origin: float, period: float, stop: threading.Event) -> None:
    """From monotonic ``origin`` on, record spans in odd ``period`` slices."""
    stop.wait(max(0.0, origin - time.monotonic()))
    index = 0
    while not stop.is_set():
        tracer.enabled = index % 2 == 1
        index += 1
        stop.wait(max(0.0, origin + index * period - time.monotonic()))
    tracer.enabled = False


# The control channel uses the raw descriptors, never sys.stdin/stdout: the
# engine's pool forks workers from other threads, and a child forked while
# this thread holds a stream's lock would deadlock when multiprocessing
# closes or flushes that stream in the child.
def _lines():
    """Command lines from stdin until EOF."""
    pending = b""
    while True:
        chunk = os.read(0, 65536)
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line


def reply(obj) -> None:
    data = (json.dumps(obj) + "\n").encode("utf-8")
    while data:
        data = data[os.write(1, data):]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench serve: server process")
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    return _serve(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
