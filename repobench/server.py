"""A server process of the system under test, as ``opaq serve`` runs it."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, BenchError, Children, peak_rss_mb

START_TIMEOUT = 60.0
STOP_TIMEOUT = 120.0


class Server:
    """``python3 -m repro.cli serve --port 0 ARGS`` (or its traced twin)."""

    def __init__(
        self,
        children: Children,
        log: Path,
        serve_args: list[str],
        trace_dump: Path | None = None,
    ) -> None:
        if trace_dump is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                    "--dump", str(trace_dump), "--"]
        self.argv = argv + ["--port", "0", *serve_args]
        self.children = children
        self.log = log
        self.trace_dump = trace_dump
        self.proc = None
        self.url = ""

    def start(self) -> str:
        """Spawn and return the ``opaq://`` address once it is bound."""
        self._log_fh = open(self.log, "ab")
        self.proc = self.children.spawn(
            self.argv, stdout=subprocess.PIPE, stderr=self._log_fh
        )
        fd = self.proc.stdout.fileno()
        buf = b""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith("serving on "):
                    self.url = text.split()[2]
                    return self.url
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"server did not start: {self._tail()}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise BenchError(f"server exited at start: {self._tail()}")
                buf += chunk

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Shut down cleanly (a traced server writes its dump first)."""
        if self.proc is None:
            return
        if self.trace_dump is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGUSR1)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass  # escalated below
        code = self.children.stop(self.proc, timeout=STOP_TIMEOUT)
        self._log_fh.close()
        self.proc = None
        if code != 0:
            raise BenchError(f"server exited with {code}: {self._tail()}")

    def kill(self) -> None:
        """End at once, skipping the shutdown flush."""
        self.proc.kill()
        self.children.stop(self.proc)
        self._log_fh.close()
        self.proc = None

    def _tail(self) -> str:
        try:
            self._log_fh.flush()
            return self.log.read_text(errors="replace")[-2000:]
        except OSError:
            return "(no log)"
