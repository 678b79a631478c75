"""Server child of the gateway workload: one AuditGateway over a fresh stream.

Usage: ``python3 -m bench.gateway_server --dir STREAM_DIR --trace 0|1``
(with ``src`` and the repository root on ``PYTHONPATH``).  Prints one JSON
ready line with the bound address, serves until SIGTERM drains it, then
prints one JSON exit report: peak RSS, journal bytes per delta, and with
``--trace 1`` the layer spans recorded in this process.  For each
``calibrate`` line on standard input it prints ``{"slowdown": ...}``
measured in this process, so the load generator can calibrate both
processes while no request is in flight.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import threading

from bench import layers
from bench.common import MIX_PYTHON, slowdown
from bench.streams import GATEWAY_CALIB_REPS, serve_config


def _answer_calibrations() -> None:
    for line in sys.stdin:
        if line.strip() == "calibrate":
            print(json.dumps({"slowdown": slowdown(MIX_PYTHON, GATEWAY_CALIB_REPS)}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro.serve.gateway import AuditGateway
    from repro.stream.service import StreamService

    service = StreamService.create(args.dir, serve_config())
    gateway = AuditGateway(service)
    recorder = layers.Recorder()
    bytes_at_start = service.log.generation_bytes()
    with layers.installed(recorder) if args.trace else contextlib.nullcontext():
        host, port = gateway.address
        print(json.dumps({"host": host, "port": port}), flush=True)
        threading.Thread(target=_answer_calibrations, daemon=True).start()
        gateway.run()  # returns once SIGTERM has drained it
    deltas = service.auditor.state.next_row_id
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_per_delta": (service.log.generation_bytes() - bytes_at_start) / max(deltas, 1),
        "export": recorder.export() if args.trace else None,
    }
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
