"""``opaq serve`` with every layer wrapped by :mod:`layers`.

Identical to ``python -m repro.cli serve ARGS`` except that layer spans
and the program's own :mod:`repro.obs` counters are collected.  SIGUSR1
writes them to ``--dump`` and then shuts the server down the way SIGTERM
does, so the dump covers start-up and the measured loop but not the
shutdown flush::

    PYTHONPATH=src:repobench python3 repobench/serve_traced.py \\
        --dump layers.json -- --port 0 --shards 2
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from layers import LayerTracer, import_program, install


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--dump", required=True)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    import_program()
    from repro.cli import main as cli_main
    from repro.obs import MemorySink, tracing

    tracer = LayerTracer()
    install(tracer, "server")
    sink = MemorySink()

    def dump_and_stop(signum, frame):
        snapshot = tracer.snapshot()
        snapshot["counters"] = sink.counters()
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh)
        raise SystemExit(0)

    signal.signal(signal.SIGUSR1, dump_and_stop)
    with tracing(sink):
        return cli_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
