"""The repository benchmark: one workload, one seed, one result line.

    python3 repobench/run.py --workload disk_onepass --seed 1 --seconds 30 --trace 0

Workloads: ``disk_onepass``, ``wire_stream``, ``wire_keyed`` (see
``repobench/README.md`` for why each exists and what it exercises).
Every answer the program serves is graded by an exact oracle; any
violation makes the run fail with exit code 1.  With ``--trace 0`` the
last line carries the end-to-end metrics, measured with no tracing;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
Earlier lines are for people: provenance, then every metric with its
unit.  Without the program's sources next to it the benchmark exits 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import BenchError, Children, median, tail  # noqa: E402

WORKLOADS = ("disk_onepass", "wire_stream", "wire_keyed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_eps": "elements/s",
    "ingest_p50_ms": "ms",
    "query_p50_ms": "ms",
    "fresh_p50_ms": "ms",
    "rank_error_max": "fraction",
    "guarantee_max": "fraction",
    "peak_rss_mb": "MiB",
}

#: Minimum traced share of the blocking path's wall time.
MIN_COVERAGE = 0.9


class Run:
    """Accumulates one run's samples, answers and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: Lines printed after the metrics for people, not in the result.
        self.unbounded: list[str] = []
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.scale: dict[str, object] = {}
        self.loadavg = os.getloadavg()
        self._phases: list[str] = []
        self._clock = time.perf_counter()

    def phase(self, name: str) -> None:
        """Record how long the phase that just ended took."""
        now = time.perf_counter()
        self._phases.append(f"{name} {now - self._clock:.1f}s")
        self._clock = now

    # -- end-to-end assembly -------------------------------------------

    def timings(self, setup: list[float], ingest: list[float], query: list[float],
                fresh: list[float], eps: float, rss: float,
                query_tail: list[float] | None = None) -> None:
        self.metrics.update({
            "setup_s": median(setup),
            "ingest_eps": eps,
            "ingest_p50_ms": median(ingest) * 1e3,
            "query_p50_ms": median(query) * 1e3,
            "fresh_p50_ms": median(fresh) * 1e3,
            "peak_rss_mb": rss,
        })
        # Printed, not bounded: on two cores the tail is set by collisions
        # with the server's background threads, and it moved by more than
        # any allowed bound between identical runs (README).
        query_tail = query if query_tail is None else query_tail
        p99 = tail(query_tail)
        self.unbounded.append(
            f"{'query_p99_ms':32s} n/a ms (p99 needs {common.TAIL_MIN_BEYOND} of "
            f"{len(query_tail)} samples beyond it)" if p99 is None else
            f"{'query_p99_ms':32s} {p99 * 1e3:.6g} ms ({len(query_tail)} samples, "
            f"{int(len(query_tail) * 0.01)} beyond; not bounded)"
        )
        self.notes.append(
            f"samples: setup {len(setup)}, ingest {len(ingest)}, "
            f"query {len(query)}, fresh {len(fresh)}"
        )

    def grade(self, oracle, answers, accuracy_answers: int) -> None:
        """Grade every answer; the accuracy metrics cover the first
        ``accuracy_answers`` only, a set fixed by the seed, so they repeat
        exactly however many operations the run completed."""
        grade = oracle.grade(answers)
        if len(answers) < accuracy_answers or not accuracy_answers:
            raise BenchError("the run ended before its accuracy prefix")
        self.metrics["rank_error_max"] = float(grade.errors[:accuracy_answers].max())
        self.metrics["guarantee_max"] = float(grade.guarantees[:accuracy_answers].max())
        self.notes.append(
            f"oracle: {grade.answers} answers graded, {len(grade.violations)} "
            f"violations, kll misses {grade.kll_misses}/{grade.kll_answers}; "
            f"accuracy over the first {accuracy_answers}"
        )
        self.problems += grade.violations[:20]
        if len(grade.violations) > 20:
            self.problems.append(f"... {len(grade.violations) - 20} more violations")

    def layers(self, metrics: dict[str, float], calls: dict[str, int]) -> None:
        from layers import PER_LAYER_UNITS, check_reach

        self.metrics = metrics
        missing = set(PER_LAYER_UNITS) - set(metrics)
        if missing:
            raise BenchError(f"per-layer metrics missing: {sorted(missing)}")
        self.problems += check_reach(self.workload, calls)
        if metrics["trace.coverage"] < MIN_COVERAGE:
            self.problems.append(
                f"trace.coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}"
            )

    # -- output ----------------------------------------------------------

    def report(self) -> int:
        from layers import PER_LAYER_UNITS

        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        correct = not self.problems
        common.emit("provenance " + json.dumps(
            common.provenance(self.seed, self.scale, self.loadavg), sort_keys=True))
        for note in self.notes + ["phases: " + ", ".join(self._phases)]:
            common.emit(f"# {note}")
        for problem in self.problems:
            common.emit(f"FAIL {problem}")
        for name, unit in units.items():
            common.emit(f"{name:32s} {self.metrics.get(name, float('nan')):.6g} {unit}")
        for line in self.unbounded:
            common.emit(line)
        rate = self.failed / max(1, self.attempted)
        common.emit(f"{'error_rate':32s} {rate:.6g} fraction "
                    f"({self.failed} of {self.attempted} operations; not bounded)")
        common.emit({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        })
        return 0 if correct else 1


# ----------------------------------------------------------------------
# Running the workloads
# ----------------------------------------------------------------------


def run_disk(run: Run, children: Children, workdir: Path) -> None:
    import disk
    from layers import coverage, per_layer_metrics

    scale = disk.TINY if run.tiny else disk.DiskScale()
    wl = disk.DiskWorkload(run.seed, scale, workdir)
    run.scale = {"n": scale.n, "s": scale.sample_size, "m": wl.run_size,
                 "queries_per_pass": scale.queries_per_pass}
    run.phase("prepare")
    setup = [] if run.trace else wl.setup_times(children)
    run.phase("set-up probes")
    result = wl.run(children, run.seconds, run.trace)
    run.phase("measured loop")
    answers = result["answers"]
    run.attempted += len(setup) + len(answers)
    passes = result["ingest"]
    if run.trace:
        dump = result["layers"]
        counters = dump["counters"]
        extra = {
            "storage.bytes_per_element": counters.get("io.bytes", 0)
            / (scale.n * dump["passes"]),
            "trace.coverage": coverage(dump["threads"], "MainThread", dump["wall"]),
            "trace.overhead_ratio": dump["wall"] / dump["untraced_wall"],
        }
        run.layers(per_layer_metrics(dump, counters, extra), dump["calls"])
    else:
        # Windows of one pass per core (see disk.py): the window's mean pass
        # time, and the mean of its passes' median query times.
        k, q = result["cores"], scale.queries_per_pass
        queries = result["query"]
        windows = range(0, len(passes) - k + 1, k)
        pass_means = [sum(passes[w : w + k]) / k for w in windows]
        query_means = [
            sum(median(queries[p * q : (p + 1) * q]) for p in range(w, w + k)) / k
            for w in windows
        ]
        eps = median([scale.n / t for t in pass_means])
        run.timings(setup, pass_means, query_means, pass_means, eps,
                    result["peak_rss_mb"], query_tail=queries)
    run.notes.append(f"passes: {len(passes)} over n={scale.n:,}")
    run.grade(wl.oracle, answers, 1 + scale.queries_per_pass)
    run.phase("grading")


def run_wire(run: Run, children: Children, workdir: Path) -> None:
    import keyed_data
    import wire
    from layers import LayerTracer, coverage, install, merge_dumps, per_layer_metrics
    from repro.service import ServiceClient

    if run.workload == "wire_stream":
        scale = wire.TINY_STREAM if run.tiny else wire.StreamScale()
        wl = wire.StreamWorkload(run.seed, scale)
        run.scale = {"batch": scale.batch, "pool": scale.pool,
                     "batches_per_cycle": scale.batches_per_cycle,
                     "queries_per_batch": scale.queries_per_batch, "shards": 2}
    else:
        data_scale = keyed_data.TINY if run.tiny else keyed_data.KeyedScale()
        scale = wire.TINY_KEYED if run.tiny else wire.KeyedWorkloadScale()
        wl = wire.KeyedWorkload(run.seed, scale, data_scale)
        run.scale = {"keys": len(wl.base), "keys_per_frame": data_scale.keys_per_frame,
                     "frames": data_scale.frames, "window": data_scale.window,
                     "budget_slots": scale.budget}
    prepared = wl.prepare(children, workdir)
    run.phase("prepare")
    setup: list[float] = []
    if not run.trace:
        setup = wl.timed_setup(children, workdir, prepared)
        run.attempted += len(setup)
        run.phase("set-up probes")

    def measured_loop(tag: str, seconds, cycles, trace_dump=None, client_tracer=None):
        state = workdir / f"run-{tag}"
        shutil.copytree(prepared, state)
        server = wl.server(children, workdir, state, trace_dump=trace_dump)
        server.start()
        undo = install(client_tracer, "client") if client_tracer else None
        # The load generator's own garbage collections (its heap of
        # recorded answers grows all run) are kept out of the loop.
        gc.collect()
        gc.disable()
        try:
            with ServiceClient(server.url) as client:
                samples = wl.loop(client, seconds, cycles)
        finally:
            gc.enable()
            if undo:
                undo()
        rss = server.rss_mb()
        server.stop()
        return samples, rss

    plain, rss = measured_loop("plain", run.seconds, None)
    run.attempted += plain.attempted
    answers = plain.answers
    run.phase("measured loop")
    if run.trace:
        tracer = LayerTracer()
        dump_path = workdir / "server-layers.json"
        traced, _ = measured_loop("traced", None, len(plain.cycle_seconds),
                                  trace_dump=dump_path, client_tracer=tracer)
        run.phase("traced loop")
        run.attempted += traced.attempted
        answers = answers + traced.answers
        server_dump = json.loads(dump_path.read_text())
        client_dump = tracer.snapshot()
        dump = merge_dumps(server_dump, client_dump)
        counters = server_dump["counters"]
        extra = {
            "trace.coverage": coverage(client_dump["threads"], "MainThread",
                                       traced.total_wall),
            "trace.overhead_ratio": traced.wall / plain.wall,
        }
        looked_up = traced.sources.get("resident", 0) + traced.sources.get("restored", 0)
        if looked_up:
            extra["registry.resident_hit_ratio"] = traced.sources["resident"] / looked_up
        ingested = counters.get("service.tenancy.ingest.elements", 0)
        if ingested:
            extra["store.bytes_per_element"] = (
                counters.get("service.tenancy.spill.bytes", 0) / ingested
            )
        run.layers(per_layer_metrics(dump, counters, extra), dump["calls"])
    else:
        eps = common.window_rate(plain.cycle_elements, plain.cycle_seconds,
                                 scale.window_cycles)
        run.timings(setup, plain.ingest, plain.query, plain.fresh, eps, rss)
    run.notes.append(f"cycles: {plain.cycles} ({len(plain.cycle_seconds)} timed)")
    run.grade(wl.oracle, answers, plain.accuracy_answers)
    run.phase("grading")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="test scale: small inputs, same code paths")
    args = p.parse_args(argv)
    try:
        common.require_src()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.errors import ReproError

    # A terminated run still stops and waits for its children (the
    # finally blocks run on SystemExit, not on the default SIGTERM).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    workdir = common.make_workdir(args.workload, args.seed)
    try:
        with Children() as children:
            if args.workload == "disk_onepass":
                run_disk(run, children, workdir)
            else:
                run_wire(run, children, workdir)
    except (BenchError, ReproError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()  # only once no other run uses it
        except OSError:
            pass
    return run.report()


if __name__ == "__main__":
    sys.exit(main())
