"""Shared plumbing of the repository benchmark.

Paths, child processes, timing statistics, provenance and the result
line.  Nothing here imports :mod:`repro`: the program under test is
loaded from the checkout's ``src/`` by the processes that need it, and a
checkout without ``src/`` must fail before any measurement.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".repobench_work"

#: A tail percentile is reported only with at least this many samples
#: beyond it (p99 therefore needs 1000 samples).
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """A run that cannot produce a trustworthy result."""


def require_src() -> None:
    """Fail unless the checkout carries the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC}: run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of every process of the system under test.

    A fixed hash seed removes one source of run-to-run variance (string
    hashing decides dict and set layouts); one BLAS thread keeps a
    library thread pool from competing with the server's own threads on
    a small machine.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One malloc arena and a fixed mmap threshold: otherwise which
    # executor thread serves a request, and glibc's adaptive threshold,
    # change the process's page faults and peak memory from run to run.
    env["MALLOC_ARENA_MAX"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def make_workdir(workload: str, seed: int) -> Path:
    path = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class Children:
    """Every process a run starts; :meth:`reap_all` ends and waits for each.

    Used as a context manager around a whole run, so a failed run still
    leaves no process behind.
    """

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", child_env())
        kwargs.setdefault("cwd", str(ROOT))
        proc = subprocess.Popen(argv, **kwargs)
        self._procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 60.0) -> int:
        """SIGTERM, wait, escalate to SIGKILL; returns the exit code."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def reap_all(self) -> None:
        for proc in list(self._procs):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs.clear()

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: object) -> None:
        self.reap_all()


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return float(statistics.median(values))


def tail(values: list[float], q: float = 0.99) -> float | None:
    """The ``q`` quantile, or ``None`` with fewer than
    :data:`TAIL_MIN_BEYOND` samples beyond it."""
    if len(values) * (1.0 - q) < TAIL_MIN_BEYOND - 1e-9:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return float(ordered[index])


def window_rate(elements: list[int], seconds: list[float], per_window: int) -> float:
    """Median of ``sum(elements) / sum(seconds)`` over consecutive,
    non-overlapping windows of ``per_window`` operations."""
    rates = []
    for start in range(0, len(elements) - per_window + 1, per_window):
        el = sum(elements[start : start + per_window])
        dt = sum(seconds[start : start + per_window])
        rates.append(el / dt)
    if len(rates) < 3:
        raise BenchError(
            f"only {len(rates)} throughput windows; the run is too short"
        )
    return median(rates)


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest
    of the program's sources (the benchmark may run from an export)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and (ROOT / ".git").exists():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def provenance(seed: int, scale: dict[str, object], loadavg: tuple) -> dict[str, object]:
    import numpy

    return {
        "commit": source_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in loadavg],
        "seed": seed,
        "scale": scale,
    }


def emit(line: object) -> None:
    print(json.dumps(line, sort_keys=True) if not isinstance(line, str) else line, flush=True)
