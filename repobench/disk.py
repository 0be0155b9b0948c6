"""The ``disk_onepass`` workload: the paper's own use of OPAQ.

A float64 dataset on disk (Zipf with n/10 duplicates, from
:mod:`repro.workloads`) is estimated again and again in a closed loop by
a separate process (``worker_onepass.py``), with ``s = 1000`` and the
memory-optimal run size ``m = sqrt(n*s)``.  Each iteration is one full
pass plus the pass's φ-vector, followed by ``bounds`` queries on the
finished summary.  The file stays in the page cache between passes, so
the pass measures the storage layer's read path and not the disk.

The worker moves to the next core before each pass, and the time
metrics are medians over windows of one pass per core (the window's
mean).  A single-threaded process otherwise inherits the speed of
whichever core the scheduler left it on, and on a shared virtual
machine the cores' speeds drift apart: two pinned copies of one Python
loop measured 40 and 55 ms at the same moment.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import BENCH_DIR, BenchError, Children
from oracle import Answer, CycledOracle

WORKER = str(BENCH_DIR / "worker_onepass.py")
#: Beyond the worker's measured time: its start-up, and for a traced run
#: the traced repeat of the loop.
STOP_TIMEOUT = 60.0


@dataclass(frozen=True)
class DiskScale:
    n: int = 16_000_000
    sample_size: int = 1000
    queries_per_pass: int = 100
    setup_repeats: int = 7


TINY = DiskScale(n=200_000, setup_repeats=3)


class DiskWorkload:

    def __init__(self, seed: int, scale: DiskScale, workdir: Path) -> None:
        from repro.workloads import ZipfGenerator, write_dataset

        self.scale = scale
        self.run_size = max(scale.sample_size, math.isqrt(scale.n * scale.sample_size))
        self.path = workdir / "zipf.opaq"
        dataset = write_dataset(self.path, ZipfGenerator(), scale.n, seed=seed)
        self.oracle = CycledOracle(1)
        self.oracle.add("dataset", 0, dataset.read_all())
        self.oracle.freeze()
        rng = np.random.default_rng([seed, 0xD1])
        # The pass answers every permille (see wire.GRID); the queries
        # on the finished summary are random 9-fraction vectors.
        self.pass_phis = np.arange(1, 1000) / 1000.0
        self.query_phis = np.stack(
            [np.sort(rng.uniform(0.001, 1.0, size=9)) for _ in range(64)]
        )
        self.phis_path = workdir / "phis.npz"
        np.savez(self.phis_path, queries=self.query_phis, **{"pass": self.pass_phis})
        self.workdir = workdir

    def _argv(self, *extra: str) -> list[str]:
        return [sys.executable, WORKER, "--dataset", str(self.path),
                "--run-size", str(self.run_size),
                "--sample-size", str(self.scale.sample_size), *extra]

    def setup_times(self, children: Children) -> list[float]:
        """Fresh process to "ready to read the first run", repeatedly."""
        times = []
        for _ in range(self.scale.setup_repeats):
            t0 = time.perf_counter()
            proc = children.spawn(self._argv("--ready"), stdout=subprocess.PIPE)
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(STOP_TIMEOUT)
            if children.stop(proc) != 0 or not line.startswith(b"ready"):
                raise BenchError("onepass worker failed its set-up probe")
        return times

    def run(self, children: Children, seconds: float, trace: bool) -> dict:
        out = self.workdir / "answers.npz"
        extra = ["--phis", str(self.phis_path), "--seconds", str(seconds),
                 "--queries", str(self.scale.queries_per_pass), "--out", str(out)]
        trace_path = self.workdir / "layers.json"
        if trace:
            extra += ["--trace-out", str(trace_path)]
        proc = children.spawn(self._argv(*extra), stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(STOP_TIMEOUT + seconds * 2)
        except subprocess.TimeoutExpired:
            children.stop(proc)
            raise BenchError("onepass worker did not finish in time") from None
        children.stop(proc)
        if code != 0:
            raise BenchError(f"onepass worker exited with {code}")
        q = self.scale.queries_per_pass
        # Each item of an NpzFile is read from the archive anew on every
        # access, so every array is read exactly once here.
        with np.load(out) as archive:
            a = {name: archive[name] for name in archive.files}
        timings = json.loads(str(a["timings"]))
        answers = []
        for p in range(a["pass_count"].size):
            count, g = int(a["pass_count"][p]), int(a["pass_guarantee"][p])
            answers.append(Answer("dataset", 1, self.pass_phis, a["pass_psi"][p],
                                  a["pass_lower"][p], a["pass_upper"][p], count, g))
            for j in range(p * q, (p + 1) * q):
                answers.append(Answer(
                    "dataset", 1, self.query_phis[a["query_index"][j]],
                    a["query_psi"][j], a["query_lower"][j], a["query_upper"][j],
                    count, g,
                ))
        timings["answers"] = answers
        timings["cores"] = len(os.sched_getaffinity(0))
        if trace:
            timings["layers"] = json.loads(trace_path.read_text())
        return timings
