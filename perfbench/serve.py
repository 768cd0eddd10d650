"""``serve``: a live server under an open-loop, Zipf-popular request stream.

The system under test is a :mod:`perfbench.server_child` process (the
``ShapeServingApp`` with ``workers=nproc, backend="process",
index=True`` sessions and a fresh, empty artifact store per setup).
This process is the load generator: one asyncio loop drives at most
``nproc`` WebSocket connections, one tenant each, with a raw client
built on :mod:`repro.serving.ws` (``encode_frame`` / ``FrameParser``).
Requests follow a seeded Poisson schedule at one offered rate; each is
timed from when it was *due*, so a stalled generator or server shows as
latency, and the generator's own lateness is reported.  Keys (table,
query, k) come from a universe larger than the result cache, with Zipf
popularity, so hits, misses and evictions all happen; a small share of
misses is cancelled after its first progress frame.

Before the window the client fills the result cache with the most
popular keys (untimed, not part of ``setup_s``), so the window runs in
steady state: a full cache where every miss evicts.

Traced runs (``--trace 1``) record spans in the server process during
the measured server's set-up (publish, index builds and saves, the
first NL parse) and in alternating one-second slices of the window.
Per-request values divide by the requests completed in traced slices,
so set-up work shows amortized over them; the untraced slices give
``trace.overhead_ratio``.
"""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import os
import shutil
import subprocess
import sys
from typing import List

from perfbench import common, gen, procfs
from perfbench.verify import payload_digest, result_bytes
from repro.serving import ServingClient

HOST = "127.0.0.1"
#: Seconds to wait for outstanding replies after the last arrival.
DRAIN_S = 60.0
#: Length of the alternating traced / untraced slices in a traced run.
TRACE_SLICE_S = 1.0
#: The reported p50/p95 leave out the window's slowest time slices: the
#: window is cut into slices of about LATENCY_SLICE_S by due time, the
#: slices are ranked by their median latency, and the slowest
#: LATENCY_SLICES_DROPPED share of them is left out.  On a shared 2-core
#: VM, bursts of hypervisor CPU steal lasting a few seconds multiply the
#: millisecond latencies of cache hits (most requests) several times
#: over while they last (one measured burst took the median hit from 3
#: to 21 ms); without the cut one such burst moves a run's p50 and p95
#: by a third or more.  The whole-window p50/p95/p99 are in the record,
#: and ``slo_ratio`` counts every request.
LATENCY_SLICE_S = 2.0
LATENCY_SLICES_DROPPED = 0.2


class ServerProcess:
    """The server child and its line-oriented control channel."""

    def __init__(self, store: str, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.ROOT / "src"), str(common.ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [sys.executable, "-m", "perfbench.server_child", "--store", store]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, cwd=str(common.ROOT), env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.port = self._read()["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited (code {})".format(self.proc.poll()))
        return json.loads(line)

    def call(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> List[int]:
        """Stop the server; returns its worker pids (to check they exit)."""
        workers = procfs.descendants(self.proc.pid)
        try:
            if self.proc.poll() is None:
                self.call({"op": "stop"})
                self.proc.wait(timeout=30)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()
        return workers


class _Request:
    __slots__ = ("due", "sent", "end", "key", "cancel", "cancel_sent", "outcome",
                 "cache", "frame")

    def __init__(self, due: float, key: int, cancel: bool) -> None:
        self.due = due
        self.sent = None
        self.end = None
        self.key = key
        self.cancel = cancel
        self.cancel_sent = False
        self.outcome = None
        self.cache = None
        self.frame = b""


class _Connection:
    """A raw client WebSocket over asyncio streams."""

    def __init__(self, reader, writer) -> None:
        from repro.serving.ws import FrameParser

        self.reader = reader
        self.writer = writer
        self.parser = FrameParser()

    @classmethod
    async def open(cls, port: int, tenant: str) -> "_Connection":
        reader, writer = await asyncio.open_connection(HOST, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write((
            "GET /v1/submit HTTP/1.1\r\nHost: {}:{}\r\nUpgrade: websocket\r\n"
            "Connection: Upgrade\r\nSec-WebSocket-Key: {}\r\n"
            "Sec-WebSocket-Version: 13\r\nX-Tenant: {}\r\n\r\n"
        ).format(HOST, port, key, tenant).encode("latin-1"))
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise ConnectionError("websocket handshake refused: {!r}".format(head[:80]))
        return cls(reader, writer)

    def send(self, message: dict) -> None:
        from repro.serving.ws import encode_frame

        data = json.dumps(message, separators=(",", ":")).encode("utf-8")
        self.writer.write(encode_frame(data, mask=os.urandom(4)))

    async def frames(self):
        from repro.serving.ws import OP_CLOSE, OP_PING, OP_PONG, OP_TEXT, encode_frame

        while True:
            data = await self.reader.read(65536)
            if not data:
                return
            for opcode, payload in self.parser.feed(data):
                if opcode == OP_TEXT:
                    yield payload
                elif opcode == OP_PING:
                    self.writer.write(encode_frame(payload, OP_PONG, mask=os.urandom(4)))
                elif opcode == OP_CLOSE:
                    return

    async def close(self) -> None:
        from repro.serving.ws import OP_CLOSE, encode_frame

        try:
            self.writer.write(encode_frame(b"\x03\xe8", OP_CLOSE, mask=os.urandom(4)))
            await self.writer.drain()
        except ConnectionError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def _drive(port: int, inputs, messages, before_window, on_start) -> tuple:
    """Fill the result cache, then send the schedule open-loop.

    The fill (untimed) fetches ``inputs["fill"]`` keys with
    :data:`gen.SERVE_FILL_DEPTH` searches in flight per connection.  Then
    ``before_window()`` runs, the window's start ``t0`` (monotonic) is
    fixed half a second ahead, and ``on_start(t0)`` runs.  Returns the
    requests (fill first), ``t0`` and the time the last reply arrived (or
    the drain gave up).
    """
    loop = asyncio.get_running_loop()
    conns = [await _Connection.open(port, "tenant-{}".format(i))
             for i in range(inputs["connections"])]
    fill = inputs["fill"]
    requests = [_Request(0.0, key, False) for key in fill]
    requests += [_Request(0.0, key, cancel) for _due, _conn, key, cancel in inputs["schedule"]]
    pending: dict = {}

    async def read(conn: _Connection) -> None:
        async for frame in conn.frames():
            message = json.loads(frame)
            request = requests[message["id"]]
            kind = message.get("type")
            if kind == "accepted":
                continue
            if kind == "progress":
                if request.cancel and not request.cancel_sent:
                    request.cancel_sent = True
                    conn.send({"type": "cancel", "id": message["id"]})
                continue
            request.end = loop.time()
            request.outcome = {"result": "ok", "cancelled": "cancelled"}.get(kind, "error")
            request.frame = frame
            if kind == "result":
                request.cache = message.get("cache")
            waiter = pending.pop(message["id"], None)
            if waiter is not None:
                waiter.set_result(None)

    def send(index: int, conn: int):
        request = requests[index]
        request.sent = loop.time()
        waiter = pending[index] = loop.create_future()
        conns[conn].send(dict(messages[request.key], id=index, type="search"))
        return waiter

    async def fill_lane(conn: int, indices) -> None:
        for index in indices:
            requests[index].due = loop.time()
            await send(index, conn)

    readers = [asyncio.ensure_future(read(conn)) for conn in conns]
    lanes = len(conns) * gen.SERVE_FILL_DEPTH
    await asyncio.gather(*(
        fill_lane(lane % len(conns), range(lane, len(fill), lanes)) for lane in range(lanes)
    ))
    before_window()
    t0 = loop.time() + 0.5
    on_start(t0)
    for offset, (due, conn, _key, _cancel) in enumerate(inputs["schedule"]):
        index = len(fill) + offset
        requests[index].due = t0 + due
        delay = requests[index].due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        send(index, conn)
    if pending:
        await asyncio.wait(list(pending.values()), timeout=DRAIN_S)
    end = loop.time()
    for conn in conns:
        await conn.close()
    await asyncio.gather(*readers, return_exceptions=True)
    return requests, t0, end


def _messages(inputs) -> list:
    """One search message body per universe key (sketches as regex)."""
    from repro.algebra.printer import to_regex
    from repro.sketch.parser import parse_sketch

    bodies = []
    for table, query, k in inputs["universe"]:
        text = query[1] if query[0] != "sketch" else to_regex(
            parse_sketch(query[1], mode=query[2])
        )
        bodies.append({"table": table, "query": text, "z": "z", "x": "x", "y": "y", "k": k})
    return bodies


def _setup(inputs, bodies, store: str, trace: bool):
    """Server start, table publish, index builds + saves, first NL parse."""
    server = ServerProcess(store, trace)
    try:
        with ServingClient(HOST, server.port) as client:
            fingerprints = [
                client.request("POST", "/v1/tables", {"columns": body})["fingerprint"]
                for body in bodies
            ]
            for table, query, k in inputs["warmup"]:
                client.search(fingerprints[table], query[1], z="z", x="x", y="y", k=k)
            client.search(fingerprints[0], "rising then falling", z="z", x="x", y="y", k=3)
    except BaseException:
        server.stop()
        raise
    return server, fingerprints


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = gen.serve_inputs(seed, seconds)
    limit = common.slo_ms("serve")
    shm_before = procfs.shm_segments()
    me = os.getpid()
    table_bodies = [
        {name: values.tolist() for name, values in columns.items()}
        for columns in inputs["tables"]
    ]
    universe_bodies = _messages(inputs)
    stores = []
    stopped: List[int] = []

    setups = []
    server = None
    try:
        for rep in range(common.SETUP_REPS):
            if server is not None:
                stopped += server.stop()
            store = common.BUILD_DIR / "serve-store-{}-{}".format(me, rep)
            shutil.rmtree(store, ignore_errors=True)
            store.mkdir(parents=True)
            stores.append(store)
            started = common.clock()
            server, fingerprints = _setup(inputs, table_bodies, str(store), trace)
            setups.append(common.clock() - started)
        messages = [dict(body, table=fingerprints[body["table"]]) for body in universe_bodies]
        server.call({"op": "pause"})

        sut = [server.proc.pid] + procfs.descendants(server.proc.pid)
        cpu_before = {}
        before = {}

        def before_window() -> None:
            # After set-up and the cache fill.
            gc.collect()
            server.call({"op": "gc"})
            server.call({"op": "window"})
            with ServingClient(HOST, server.port) as client:
                before.update(client.stats())

        def on_start(t0: float) -> None:
            if trace:
                server.call({"op": "trace", "origin": t0, "period": TRACE_SLICE_S})
            cpu_before.update(procfs.tree_cpu_s(sut))

        requests, t0, end = asyncio.run(
            _drive(server.port, inputs, messages, before_window, on_start)
        )
        cpu_after = procfs.tree_cpu_s(sut)
        pss = procfs.pss_mb([server.proc.pid] + procfs.descendants(server.proc.pid))
        summary = server.call({"op": "summary"}) if trace else {}
        totals = summary.get("totals", {})
        with ServingClient(HOST, server.port) as client:
            snapshot = client.stats()

        # -- verification (untimed): every served key against a direct run ----
        served = {}
        for request in requests:
            if request.outcome == "ok":
                served.setdefault(request.key, set()).add(
                    payload_digest(result_bytes(request.frame))
                )
        inconsistent = sorted(key for key, digests in served.items() if len(digests) > 1)
        items = [
            dict(messages[key], id=key, digest=next(iter(digests)))
            for key, digests in sorted(served.items())
        ]
        verify_started = common.clock()
        verdict = server.call({"op": "verify", "items": items})
        verify_s = common.clock() - verify_started
    finally:
        if server is not None:
            stopped += server.stop()
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)
    leaks = common.leaks(me, shm_before, orphans=stopped)

    filled = requests[:len(inputs["fill"])]
    timed = requests[len(inputs["fill"]):]
    ok = [r for r in timed if r.outcome == "ok"]
    cancelled = sum(1 for r in timed if r.outcome == "cancelled")
    failed = sum(1 for r in timed if r.outcome in ("error", None))
    attempted = len(timed) - cancelled
    latencies = [(r.end - r.due) * 1000.0 for r in ok]
    window_s = end - t0
    rows = [len(columns["z"]) for columns in inputs["tables"]]
    metrics = {"setup_s": (common.median(setups), "s")}
    count = max(1, int(round(seconds / LATENCY_SLICE_S)))
    slices: List[List[float]] = [[] for _ in range(count)]
    for request in ok:
        position = int((request.due - t0) / seconds * count)
        slices[min(count - 1, max(0, position))].append((request.end - request.due) * 1000.0)
    ranked = sorted((part for part in slices if part), key=common.median)
    kept = ranked[:len(ranked) - int(len(ranked) * LATENCY_SLICES_DROPPED)]
    metrics.update(common.latency_metrics(
        latencies, attempted, limit, [value for part in kept for value in part]
    ))
    metrics["rows_per_s"] = (
        sum(rows[universe_bodies[r.key]["table"]] for r in ok) / window_s, "rows/s"
    )
    metrics["pss_mb"] = (pss, "MB")

    hits = sum(1 for r in ok if r.cache == "result")
    endpoint = snapshot["endpoints"].get("WS /v1/submit", {})

    def window_delta(section: str, field: str) -> int:
        return snapshot[section][field] - before[section][field]

    completed = max(1, len(ok))
    layer = {
        "result_cache.hit_ratio": hits / completed,
        "result_cache.evictions": window_delta("result_cache", "evictions") / completed,
        "admission.refused": (window_delta("admission", "rate_limited")
                              + window_delta("admission", "overloaded")) / completed,
        "protocol.bytes_per_resp": sum(len(r.frame) for r in ok) / completed,
        "server.request_p50_ms": endpoint.get("p50_ms", 0.0),
        "server.request_p99_ms": endpoint.get("p99_ms", 0.0),
        "transport.ms": common.median([(r.end - r.sent) * 1000.0 for r in ok])
        - endpoint.get("p50_ms", 0.0),
        "loadgen.lag_p99_ms": common.percentile(
            [(r.sent - r.due) * 1000.0 for r in timed], 99
        ),
        "loadgen.cancelled": cancelled / completed,
        "failed_ratio": failed / max(1, attempted),
        "parent.cpu_ms": (cpu_after[sut[0]] - cpu_before[sut[0]]) * 1000.0 / completed,
        "workers.cpu_ms": sum(cpu_after[p] - cpu_before[p] for p in sut[1:]) * 1000.0
        / completed,
    }
    if trace:
        traced = [r for r in ok if _traced(r.end, t0)]
        untraced = [r for r in ok if not _traced(r.end, t0)]
        layer.update(common.span_metrics(totals, len(traced)))
        misses = [json.loads(result_bytes(r.frame))["stats"] for r in ok if r.cache is None]
        layer.update(common.stats_counters(misses, len(ok)))
        layer["trace.overhead_ratio"] = common.overhead_ratio(
            [(r.end - r.due) * 1000.0 for r in traced],
            [(r.end - r.due) * 1000.0 for r in untraced],
        )
    correct = (
        not inconsistent and not verdict["mismatches"] and not leaks and bool(ok)
    )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layer,
        "spans": summary.get("spans"),
        "record": {
            "setups_s": setups,
            "latency": common.latency_record(latencies),
            "latency_slices": [common.latency_record(part) for part in slices],
            # Per completed request: due time from the window start (s),
            # latency (ms) and whether the result cache served it.
            "samples": [[r.due - t0, (r.end - r.due) * 1000.0, r.cache == "result"]
                        for r in ok],
            "scheduled": len(timed),
            "fill_requests": len(filled),
            "fill_failed": sum(1 for r in filled if r.outcome in ("error", None)),
            "fill_s": t0 - min((r.sent for r in filled), default=t0),
            "cancelled": cancelled,
            "hit_share": hits / completed,
            "evictions": window_delta("result_cache", "evictions"),
            "hit_latency": common.latency_record(
                [(r.end - r.due) * 1000.0 for r in ok if r.cache == "result"]
            ),
            "miss_latency": common.latency_record(
                [(r.end - r.due) * 1000.0 for r in ok if r.cache != "result"]
            ),
            "distinct_keys_served": len(served),
            "window_s": window_s,
            "slo_ms": limit,
            "verified_keys": verdict["checked"],
            "verify_s": verify_s,
            "mismatched_keys": verdict["mismatches"],
            "inconsistent_keys": inconsistent,
            "errors": [r.frame.decode("utf-8", "replace")[:200]
                       for r in requests if r.outcome == "error"][:5],
            "error_offsets_s": [round(r.due - t0, 3) for r in timed
                                if r.outcome in ("error", None)][:50],
            "leaks": leaks,
            "server_stats": snapshot,
        },
        "config": {
            "tables": gen.SERVE_TABLES, "ks": gen.SERVE_KS,
            "queries_per_table": gen.SERVE_QUERIES, "universe": len(messages),
            "zipf": gen.SERVE_ZIPF, "rate_per_s": gen.SERVE_RATE,
            "cancel_share": gen.SERVE_CANCEL_SHARE, "fill": gen.SERVE_FILL,
            "connections": inputs["connections"], "workers": gen.NPROC,
            "backend": "process", "index": True,
        },
    }


def _traced(when: float, origin: float) -> bool:
    return int((when - origin) // TRACE_SLICE_S) % 2 == 1

