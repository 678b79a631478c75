"""The streaming workloads: direct ``StreamService`` ingest and the HTTP gateway.

``stream-mixed`` and ``stream-deep`` drive a :class:`StreamService` in a
closed loop (each batch is submitted after the previous one returns).
``gateway`` drives an :class:`AuditGateway` running in a child process
(``bench/gateway_server.py``) with an open-loop phase at a fixed request
rate followed by a closed-loop phase.
"""

from __future__ import annotations

import json
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from bench import layers
from bench.common import (
    DIGEST_OPS,
    MIX_PYTHON,
    ROOT,
    OpTimer,
    check,
    child_env,
    e2e_result,
    op_count,
    peak_rss_mb,
    percentile,
    sha256_json,
    slowdown,
    timed_setups,
    wall_note,
    work_dir,
)

#: Delta mix: the rest of each batch is inserts.
P_DELETE = 0.05
P_RELABEL = 0.05

#: Rates below are per reference second (see ``bench.common``).
#: stream-mixed: age x race x sex (12 leaf cells) plus a numeric column.
MIXED_PRELOAD = (40, 1000)  # batches x deltas set up before timing
MIXED_BATCH = 1000
MIXED_BATCHES_PER_S = 30.0
#: stream-deep: 6 binary attributes (64 leaf cells, 729 regions).
DEEP_PRELOAD = (10, 1000)
DEEP_BATCH = 200
DEEP_BATCHES_PER_S = 9.0
#: gateway: insert-only batches, open loop at a fixed rate, then closed loop.
GATEWAY_BATCH = 500
#: ~40% of the closed-loop capacity (~50 requests/s): queueing shows, and
#: the open loop stays far from saturation.  The schedule runs in
#: reference time, so the load is the same share of the machine in a slow
#: spell of the host as in a fast one.
GATEWAY_RATE = 20.0
GATEWAY_SENDERS = 2
#: Nominal length of each phase, as a share of ``--seconds``.  With shorter
#: phases (0.7 and 0.3) the medians of ten runs spread by 10-16%.
GATEWAY_OPEN_SHARE = 1.0
GATEWAY_CLOSED_SHARE = 0.5
GATEWAY_CLOSED_PER_S = 50.0  # nominal closed-loop requests/s
#: Each gateway phase runs in segments, with a slowdown measurement of
#: that many kernel runs between them.
GATEWAY_CALIB_REPS = 5
GATEWAY_SEGMENTS = 12


class DeltaGen:
    """Seeded delta source over categorical cells; tracks the live row ids.

    Row ids are insertion indices, so the generator knows every id the
    service will assign and only ever deletes or relabels a live row: no
    delta it makes is quarantined.
    """

    def __init__(self, seed, cards, numeric: bool, p_pos, mix=(P_DELETE, P_RELABEL)):
        self.rng = np.random.default_rng(seed)
        self.cards = np.asarray(cards)
        self.numeric = numeric
        self.p_pos = p_pos
        self.p_delete, self.p_relabel = mix
        self.alive: list[int] = []
        self.next_id = 0

    def batch(self, n: int) -> list:
        from repro.stream.deltas import DeleteDelta, InsertDelta, RelabelDelta

        rng = self.rng
        cells = rng.integers(0, self.cards, size=(n, len(self.cards)))
        labels = (rng.random(n) < self.p_pos(cells)).astype(int).tolist()
        roll, pick, score = rng.random(n).tolist(), rng.random(n).tolist(), rng.random(n).tolist()
        alive = self.alive
        deltas = []
        for i, cell in enumerate(cells.tolist()):
            if roll[i] < self.p_delete and alive:
                j = int(pick[i] * len(alive))
                alive[j], alive[-1] = alive[-1], alive[j]
                deltas.append(DeleteDelta(row=alive.pop()))
            elif roll[i] < self.p_delete + self.p_relabel and alive:
                deltas.append(RelabelDelta(row=alive[int(pick[i] * len(alive))], label=labels[i]))
            else:
                values = (*cell, score[i]) if self.numeric else tuple(cell)
                deltas.append(InsertDelta(values=values, label=labels[i]))
                alive.append(self.next_id)
                self.next_id += 1
        return deltas


def _config(columns, numeric: bool):
    """Stream over categorical ``columns`` (all protected), plus a numeric one."""
    from repro.data.schema import Column, Schema
    from repro.stream.journal import StreamConfig

    cols = [Column(name, "categorical", domain) for name, domain in columns]
    if numeric:
        cols.append(Column("score", "numeric"))
    return StreamConfig(
        schema=Schema(cols), protected=tuple(name for name, _ in columns), tau_c=0.1, k=30
    )


_SERVE_COLUMNS = (("age", ("<30", ">=30")), ("race", ("a", "b", "c")), ("sex", ("f", "m")))
_DEEP_COLUMNS = tuple((f"a{i}", ("0", "1")) for i in range(6))


def serve_config():
    """The gateway's stream: age x race x sex, no numeric column."""
    return _config(_SERVE_COLUMNS, numeric=False)


def _race_skew(cells):
    return np.where(cells[:, 1] == 0, 0.75, 0.45)  # planted race=a skew


def _deep_skew(cells):
    return 0.45 + 0.3 * cells[:, 0] * cells[:, 1] - 0.2 * (1 - cells[:, 2]) * cells[:, 3]


def gateway_batch(seed: int, *index: int) -> list:
    """One insert-only gateway batch, a pure function of seed and index."""
    gen = DeltaGen([seed, *index], (2, 3, 2), False, _race_skew, mix=(0.0, 0.0))
    return gen.batch(GATEWAY_BATCH)


def _stream(name, seed, seconds, trace, config, make_gen, preload, batch_size, per_second, floors):
    """Closed-loop ingest of ``batch_size``-delta batches into a StreamService."""
    from repro.core import ibs
    from repro.stream.service import StreamService

    with work_dir(name) as work:

        def setup(rep: int):
            gen = make_gen()
            service = StreamService.create(work / f"stream-{rep}", config)
            service.ingest([(f"p{i:05d}", gen.batch(preload[1])) for i in range(preload[0])])
            return service, gen

        setup_s, (service, gen) = timed_setups(setup, lambda state: state[0].close(), MIX_PYTHON)
        directory = service.log.directory
        input_digest = service.auditor.digest()

        timer = OpTimer(trace, MIX_PYTHON)
        bytes_before = service.log.generation_bytes()
        n_deltas = 0
        prefix_digest = ""
        for i in range(op_count(seconds, per_second)):
            batch = [(f"m{i:06d}", gen.batch(batch_size))]
            timer.run(lambda: service.ingest(batch))
            n_deltas += batch_size
            if timer.n == DIGEST_OPS:
                prefix_digest = service.auditor.digest()
        rss = peak_rss_mb()
        bytes_per_delta = (service.log.generation_bytes() - bytes_before) / n_deltas
        failed = len({entry["batch"] for entry in service.log.dead_letters()})

        checks: list = []
        auditor = service.auditor
        reference = ibs.identify_ibs(
            auditor.state.materialize(), config.tau_c, T=config.T, k=config.k,
            method=ibs.METHOD_VECTORIZED,
        )
        check(checks, "reports == identify_ibs(materialize())", auditor.reports() == reference)
        live = auditor.digest()
        service.close()
        del service, auditor
        replayed, _ = StreamService.open(directory)
        check(checks, "live digest == replayed digest", replayed.auditor.digest() == live)
        replayed.close()

    out = {
        "attempted": timer.n,
        "failed": failed,
        "checks": checks,
        "input_digest": input_digest,
        "output_digest": prefix_digest,
        "floors": {},
    }
    lat = timer.untraced_ref
    if floors:
        decile = max(1, len(lat) // 10)
        out["floors"]["late_over_early_p95"] = percentile(lat[-decile:], 95) / percentile(lat[:decile], 95)
    if trace:
        export = timer.recorder.export()
        extras = timer.trace_extras(export)
        extras["journal.bytes_per_delta"] = bytes_per_delta
        out["metrics"] = layers.layer_metrics(export, len(timer.traced), extras)
        out["ops"] = f"{len(timer.traced)} batches traced"
        return out
    out.update(e2e_result(setup_s, lat, batch_size / np.mean(lat), rss, [
        ["latency_ms", "batch_ms", f"median StreamService.ingest; p95 {percentile(lat, 95) * 1000:.2f} ms; {wall_note(timer)}", len(lat)],
        ["rows_per_s", "ingest_deltas_per_s", "deltas acked / s of ingest", len(lat)],
    ]))
    return out


def stream_mixed(seed: int, seconds: float, trace: bool, preload=MIXED_PRELOAD, batch_size=MIXED_BATCH) -> dict:
    """12 leaf cells: per-delta validation and state dominate a batch."""
    config = _config(_SERVE_COLUMNS, numeric=True)
    return _stream(
        "stream-mixed", seed, seconds, trace, config,
        lambda: DeltaGen(seed, (2, 3, 2), True, _race_skew),
        preload, batch_size, MIXED_BATCHES_PER_S, floors=True,
    )


def stream_deep(seed: int, seconds: float, trace: bool, preload=DEEP_PRELOAD, batch_size=DEEP_BATCH) -> dict:
    """729 regions: dirty-region re-scoring dominates a batch."""
    config = _config(_DEEP_COLUMNS, numeric=True)
    return _stream(
        "stream-deep", seed, seconds, trace, config,
        lambda: DeltaGen(seed, (2,) * 6, True, _deep_skew),
        preload, batch_size, DEEP_BATCHES_PER_S, floors=False,
    )


class _Server:
    """One ``bench/gateway_server.py`` child, returned once it is ready."""

    def __init__(self, directory: Path, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.gateway_server", "--dir", str(directory),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        self.directory = directory
        try:
            info = self._reply()
        except RuntimeError:
            self.kill()
            raise
        self.host, self.port = info["host"], info["port"]

    def _reply(self) -> dict:
        """The server's next JSON line on standard output."""
        line = ""
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            return json.loads(line)
        except (ValueError, OSError):
            raise RuntimeError(f"gateway server gave no reply: {line!r}")

    def slowdown(self) -> float:
        """Mean slowdown of this process and the server, measured at once.

        Only call it while no request is in flight: the server's
        calibration runs beside its request handlers.
        """
        self.proc.stdin.write("calibrate\n")
        self.proc.stdin.flush()
        here = slowdown(MIX_PYTHON, GATEWAY_CALIB_REPS)
        return (here + self._reply()["slowdown"]) / 2

    def client(self):
        from repro.resilience import RetryPolicy
        from repro.serve.client import GatewayClient

        return GatewayClient(self.host, self.port, retry=RetryPolicy(max_attempts=1))

    def stop(self) -> dict:
        """Drain the server (SIGTERM) and return its exit report."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"gateway server exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _send(client, batch_id: str, deltas) -> tuple[float, float, dict | None]:
    """One ingest: ``(sent, done, ack or None on failure)``."""
    from repro.errors import ReproError

    sent = time.perf_counter()
    try:
        ack = client.ingest(batch_id, deltas)
    except ReproError:
        ack = None
    return sent, time.perf_counter(), ack


def _open_loop(server: _Server, seed: int, indices, rate: float) -> list:
    """Requests ``indices`` due ``1/rate`` wall seconds apart, from :data:`GATEWAY_SENDERS` threads.

    Returns ``[batch_id, due, sent, done, ack]`` per request: latency is
    timed from the due time, so a stall delays every request behind it.
    """
    indices = list(indices)
    results: list = [None] * len(indices)
    lock = threading.Lock()
    counter = iter(range(len(indices)))
    t0 = time.perf_counter() + 0.05

    def sender() -> None:
        client = server.client()
        while True:
            with lock:
                k = next(counter, None)
            if k is None:
                return
            i = indices[k]
            deltas = gateway_batch(seed, 1, i)
            due = t0 + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            results[k] = [f"a{i:05d}", due, *_send(client, f"a{i:05d}", deltas)]

    threads = [threading.Thread(target=sender) for _ in range(GATEWAY_SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _closed_loop(server: _Server, seed: int, indices) -> list:
    """Each producer sends batches ``indices``, the next when the last is acked."""
    batches = [
        [(f"b{p}-{j:05d}", gateway_batch(seed, 2, p, j)) for j in indices]
        for p in range(GATEWAY_SENDERS)
    ]
    results: list = []
    lock = threading.Lock()

    def producer(p: int) -> None:
        client = server.client()
        for batch_id, deltas in batches[p]:
            row = [batch_id, *_send(client, batch_id, deltas)]
            with lock:
                results.append(row)

    threads = [threading.Thread(target=producer, args=(p,)) for p in range(GATEWAY_SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _gateway_pass(name: str, server: _Server, seed: int, seconds: float) -> dict:
    """Warm-up, open-loop and closed-loop phases against one server, then verify.

    Each phase runs in :data:`GATEWAY_SEGMENTS` segments with a slowdown
    measurement (:meth:`_Server.slowdown`) before the first and after each
    one, while no request is in flight.  An open-loop segment's schedule is
    stretched by the slowdown before it; the requests of a segment are
    divided by the mean slowdown around it.
    """
    from repro.stream.service import StreamService

    n_open = op_count(seconds * GATEWAY_OPEN_SHARE, GATEWAY_RATE)
    per_producer = op_count(
        seconds * GATEWAY_CLOSED_SHARE, GATEWAY_CLOSED_PER_S / GATEWAY_SENDERS
    )
    open_rows: list = []
    open_slow: list[float] = []
    closed_rows: list = []
    closed_slow: list[float] = []
    try:
        client = server.client()
        warm = [
            [f"w{i}", *_send(client, f"w{i}", gateway_batch(seed, 0, i))]
            for i in range(DIGEST_OPS)
        ]
        prefix_digest = client.health()["stream"]["digest"]
        slow = [server.slowdown()]
        for part in np.array_split(np.arange(n_open), min(GATEWAY_SEGMENTS, n_open)):
            open_rows += _open_loop(server, seed, part.tolist(), GATEWAY_RATE / slow[-1])
            slow.append(server.slowdown())
            open_slow += [(slow[-2] + slow[-1]) / 2] * len(part)
        for part in np.array_split(np.arange(per_producer), min(GATEWAY_SEGMENTS, per_producer)):
            segment = _closed_loop(server, seed, part.tolist())
            slow.append(server.slowdown())
            closed_rows += segment
            closed_slow += [(slow[-2] + slow[-1]) / 2] * len(segment)
        health = client.health()
        report = server.stop()
    except BaseException:
        server.kill()
        raise

    rows = warm + [[r[0], *r[2:]] for r in open_rows] + closed_rows
    acks = [row[3] for row in rows]
    checks: list = []
    acked_ids = [a["batch"] for a in acks if a is not None]
    check(
        checks, f"{name}: every batch acked once",
        sorted(acked_ids) == sorted(row[0] for row in rows)
        and not any(a["duplicate"] for a in acks if a is not None)
        and health["acked_batches"] == len(acked_ids),
    )
    replayed, _ = StreamService.open(server.directory)
    check(checks, f"{name}: /health digest == replay", replayed.auditor.digest() == health["stream"]["digest"])
    replayed.close()
    return {
        "rows": rows,
        "open": open_rows,
        "closed": closed_rows,
        "report": report,
        "checks": checks,
        "slow": slow,
        "open_slow": open_slow,
        "closed_slow": closed_slow,
        "prefix_digest": prefix_digest,
        "input_digest": sha256_json([d.to_record() for d in gateway_batch(seed, 0, 0)]),
    }


def gateway(seed: int, seconds: float, trace: bool) -> dict:
    """Open-loop then closed-loop HTTP ingest through an AuditGateway child."""
    with work_dir("gateway") as work:
        if not trace:
            setup_s, server = timed_setups(
                lambda rep: _Server(work / f"stream-{rep}", trace=False), _Server.stop, MIX_PYTHON
            )
            passes = [_gateway_pass("untraced", server, seed, seconds)]
        else:
            passes = [
                _gateway_pass(label, _Server(work / label, trace=label == "traced"), seed, seconds / 2)
                for label in ("traced", "untraced")
            ]

    checks = [c for p in passes for c in p["checks"]]
    if trace:
        check(checks, "traced and untraced streams agree", len({p["prefix_digest"] for p in passes}) == 1)
    first = passes[0]
    out = {
        "attempted": sum(len(p["rows"]) for p in passes),
        "failed": sum(1 for p in passes for row in p["rows"] if row[3] is None),
        "checks": checks,
        "input_digest": first["input_digest"],
        "output_digest": first["prefix_digest"],
        "floors": {},
    }
    late = [r[2] - r[1] for p in passes for r in p["open"]]
    if trace:
        traced, untraced = passes
        export = traced["report"]["export"]
        keys = export["keys"]
        http: list[float] = []
        service: list[float] = []
        for batch_id, sent, done, ack in traced["rows"]:
            spans = keys.get(batch_id)
            if ack is not None and spans is not None:
                service.append(spans.get("service.submit", 0.0) + spans.get("service.drain", 0.0))
                http.append(done - sent - service[-1] - spans.get("gateway.decode", 0.0))
        rt = [row[2] - row[1] for row in traced["rows"]]
        traced_rt = np.median(_round_trips_ref(traced))
        untraced_rt = np.median(_round_trips_ref(untraced))
        out["metrics"] = layers.layer_metrics(
            export, len(traced["rows"]), {
                "gateway.service_ms": float(np.mean(service)) * 1000.0 if service else 0.0,
                "gateway.http_ms": float(np.mean(http)) * 1000.0 if http else 0.0,
                "gateway.refused": sum(1 for row in traced["rows"] if row[3] is None),
                "journal.bytes_per_delta": traced["report"]["bytes_per_delta"],
                "loadgen.late_ms_p99": percentile(late, 99) * 1000.0,
                "latency_ms_p90": percentile(_request_ref(untraced), 90) * 1000.0,
                "machine.slowdown": float(np.median(untraced["slow"])),
                "trace.overhead": float(traced_rt / untraced_rt - 1.0),
                "trace.coverage": (layers.self_seconds(export) + sum(http)) / sum(rt),
            },
        )
        out["ops"] = f"{len(traced['rows'])} requests traced"
        return out
    (only,) = passes
    request = _request_ref(only)
    # Closed-loop throughput by Little's law: the producers' batches in
    # flight over the median round trip, in reference seconds.  The median
    # keeps a stall of one request from moving the whole figure.
    closed = only["closed"]
    round_trip = np.median([(r[2] - r[1]) / slow for r, slow in zip(closed, only["closed_slow"])])
    rows_per_s = GATEWAY_SENDERS * GATEWAY_BATCH / round_trip
    out.update(e2e_result(setup_s, request, rows_per_s, only["report"]["peak_rss_mb"], [
        [
            "latency_ms", "request_ms",
            f"median from due time to ack, open loop at {GATEWAY_RATE:g} req/s; "
            f"p90 {percentile(request, 90) * 1000:.2f} ms, p99 {percentile(request, 99) * 1000:.2f} ms, "
            f"sender late p99 {percentile(late, 99) * 1000:.2f} ms; "
            f"slowdown {min(only['slow']):.2f}-{max(only['slow']):.2f}",
            len(request),
        ],
        ["rows_per_s", "ingest_deltas_per_s", f"closed loop, {GATEWAY_SENDERS} producers", len(closed)],
        ["peak_rss_mb", "peak_rss_mb", "gateway server process", 1],
    ]))
    return out


def _request_ref(gateway_pass: dict) -> list[float]:
    """Open-loop request latencies (due time to ack) in reference seconds."""
    return [(r[3] - r[1]) / slow for r, slow in zip(gateway_pass["open"], gateway_pass["open_slow"])]


def _round_trips_ref(gateway_pass: dict) -> list[float]:
    """Open-loop round trips (send to ack) in reference seconds."""
    return [(r[3] - r[2]) / slow for r, slow in zip(gateway_pass["open"], gateway_pass["open_slow"])]
