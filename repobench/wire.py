"""The two wire workloads: ``wire_stream`` and ``wire_keyed``.

Load model (both): one client process with one thread and one
connection in a closed loop — the synchronous
:class:`~repro.service.ServiceClient` waits for every reply before it
sends the next request.  The server is its own process, started the way
``opaq serve`` starts, so client encoding and server decoding do not
share one interpreter lock.  Each workload prepares its warm state on
disk before anything is timed; set-up time and the measured loop both
start from a fresh copy of it, so no measurement depends on how far an
earlier phase got.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import keyed_data
from common import BenchError, Children
from oracle import Answer, CycledOracle
from server import Server

DECILES = np.linspace(0.1, 0.9, 9)
#: The audit φ-vector: every permille.  One untimed audit query per cycle
#: makes the accuracy metrics the worst case over the whole summary
#: rather than over a seed's few random fractions (which moved the
#: maximum by 20-40 % between seeds).
GRID = np.arange(1, 1000) / 1000.0


@dataclass
class Samples:
    """What one measured loop recorded."""

    ingest: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    fresh: list[float] = field(default_factory=list)
    cycle_elements: list[int] = field(default_factory=list)
    cycle_seconds: list[float] = field(default_factory=list)
    answers: list[Answer] = field(default_factory=list)
    sources: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    cycles: int = 0
    #: Answers given in the first ``accuracy_cycles`` cycles.
    accuracy_answers: int = 0
    wall: float = 0.0  # timed cycles only
    total_wall: float = 0.0  # warm-up included


def random_phis(rng: np.random.Generator, count: int, size: int = 9) -> list[np.ndarray]:
    return [np.sort(rng.uniform(0.001, 1.0, size=size)) for _ in range(count)]


class WireWorkload:
    """Prepared state, servers, set-up probes and the measured loop.

    Subclasses define the traffic: ``serve_args``, ``send_prepared``
    (the warm state's traffic), ``first_answer`` (the set-up probe's
    query, graded), ``start`` (loop state) and ``cycle`` (one cycle of
    the closed loop, returning the elements it ingested).
    """

    scale: object
    oracle: CycledOracle

    def server(self, children: Children, workdir: Path, state: Path,
               trace_dump: Path | None = None) -> Server:
        return Server(children, workdir / "server.log", self.serve_args(state),
                      trace_dump=trace_dump)

    def prepare(self, children: Children, workdir: Path) -> Path:
        from repro.service import ServiceClient

        state = workdir / "prepared"
        server = self.server(children, workdir, state)
        server.start()
        with ServiceClient(server.url) as client:
            self.send_prepared(client)
        server.stop()
        return state

    def timed_setup(self, children: Children, workdir: Path, prepared: Path) -> list[float]:
        """Warm restarts from ``prepared``: seconds from spawning the
        server process to its first correct answer."""
        from repro.service import ServiceClient

        times = []
        for i in range(self.scale.setup_repeats):
            state = workdir / f"setup-{i}"
            shutil.copytree(prepared, state)
            server = self.server(children, workdir, state)
            t0 = time.perf_counter()
            server.start()
            with ServiceClient(server.url) as client:
                self.first_answer(client)
                times.append(time.perf_counter() - t0)
            server.kill()  # the copy is discarded: no shutdown flush needed
            shutil.rmtree(state)
        return times

    def check(self, answers: list[Answer]) -> None:
        violations = self.oracle.grade(answers).violations
        if violations:
            raise BenchError(f"first answer after restart: {violations}")

    def loop(self, client, seconds: float | None, cycles: int | None) -> Samples:
        """Warm-up cycles, then timed cycles for ``seconds`` (or exactly
        ``cycles`` of them)."""
        sc = self.scale
        out = Samples()
        self.start()
        clock = time.perf_counter
        entry = start = clock()
        while True:
            timed = out.cycles >= sc.warmup_cycles
            if out.cycles == sc.warmup_cycles:
                start = clock()
            if timed and (
                len(out.cycle_seconds) >= cycles if cycles is not None
                else clock() - start >= seconds
            ):
                break
            c0 = clock()
            elements = self.cycle(client, out, timed)
            if timed:
                out.cycle_elements.append(elements)
                out.cycle_seconds.append(clock() - c0)
            out.cycles += 1
            if out.cycles == sc.accuracy_cycles:
                out.accuracy_answers = len(out.answers)
        out.wall = clock() - start
        out.total_wall = clock() - entry
        return out


# ----------------------------------------------------------------------
# wire_stream
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamScale:
    batch: int = 1 << 16
    pool: int = 64
    prep_batches: int = 32
    batches_per_cycle: int = 8
    queries_per_batch: int = 6
    warmup_cycles: int = 4
    accuracy_cycles: int = 64
    window_cycles: int = 8
    setup_repeats: int = 7


TINY_STREAM = StreamScale(batch=4096, pool=16, prep_batches=8, warmup_cycles=1,
                          accuracy_cycles=8, window_cycles=2, setup_repeats=2)


def vector_answer(frames: int, vec, label: str = "") -> Answer:
    return Answer("stream", frames, vec.phis, vec.ranks, vec.lower, vec.upper,
                  vec.count, vec.guarantee, "opaq", label)


class StreamWorkload(WireWorkload):
    def __init__(self, seed: int, scale: StreamScale) -> None:
        from repro.workloads import UniformGenerator

        self.scale = scale
        data = UniformGenerator().generate(scale.batch * scale.pool, seed=seed)
        self.pool = np.split(data, scale.pool)
        self.oracle = CycledOracle(scale.pool)
        for i, batch in enumerate(self.pool):
            self.oracle.add("stream", i, batch)
        self.oracle.freeze()
        self.phis = random_phis(np.random.default_rng([seed, 0x57]), 64)

    def serve_args(self, state: Path) -> list[str]:
        return ["--shards", "2", "--snapshot-dir", str(state)]

    def send_prepared(self, client) -> None:
        """The first ``prep_batches`` batches, snapshotted."""
        for t in range(self.scale.prep_batches):
            client.ingest(self.pool[t % self.scale.pool])
        client.snapshot()

    def first_answer(self, client) -> None:
        self.check([vector_answer(self.scale.prep_batches, client.quantiles(DECILES))])

    def start(self) -> None:
        self.t = self.epoch = self.scale.prep_batches

    def _query(self, client, out: Samples, timed: bool, phis, label: str = "") -> float:
        q0 = time.perf_counter()
        vec = client.quantiles(phis)
        q1 = time.perf_counter()
        out.attempted += 1
        if timed:
            out.query.append(q1 - q0)
        out.answers.append(vector_answer(self.epoch, vec, label))
        return q1

    def cycle(self, client, out: Samples, timed: bool) -> int:
        """``batches_per_cycle`` INGEST batches, ``queries_per_batch``
        QUANTILES on the current epoch after each but the last, then
        SNAPSHOT, a QUANTILES whose count must include the cycle, and the
        untimed audit QUANTILES over :data:`GRID`."""
        sc = self.scale
        for j in range(sc.batches_per_cycle):
            t0 = time.perf_counter()
            client.ingest(self.pool[self.t % sc.pool])
            ack = time.perf_counter()
            self.t += 1
            out.attempted += 1
            if timed:
                out.ingest.append(ack - t0)
            if j < sc.batches_per_cycle - 1:
                for _ in range(sc.queries_per_batch):
                    self._query(client, out, timed, self.phis[len(out.answers) % len(self.phis)])
        client.snapshot()
        out.attempted += 1
        self.epoch = self.t
        replied = self._query(client, out, timed, DECILES, "fresh")
        if timed:
            out.fresh.append(replied - ack)
        out.answers.append(vector_answer(self.epoch, client.quantiles(GRID), "audit"))
        out.attempted += 1
        return sc.batches_per_cycle * sc.batch


# ----------------------------------------------------------------------
# wire_keyed
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KeyedWorkloadScale:
    budget: int = 800_000
    prep_windows: int = 1
    warmup_cycles: int = 16
    accuracy_cycles: int = 96
    window_cycles: int = 16
    setup_repeats: int = 7


TINY_KEYED = KeyedWorkloadScale(budget=20_000, warmup_cycles=2, accuracy_cycles=8,
                                window_cycles=2, setup_repeats=2)


class KeyedWorkload(WireWorkload):
    def __init__(self, seed: int, scale: KeyedWorkloadScale,
                 data_scale: keyed_data.KeyedScale) -> None:
        self.scale = scale
        self.ds = data_scale
        self.base = keyed_data.base_keys(data_scale)
        self.frames = keyed_data.make_frames(data_scale, seed)
        self.oracle = CycledOracle(len(self.frames))
        for f, frame in enumerate(self.frames):
            for rank, values in frame:
                self.oracle.add(self._group(rank), f, values)
                self.oracle.add(f"*\x1f{self.base[rank][1]}", f, values)
                self.oracle.add("*\x1f*", f, values)
        self.oracle.freeze()
        self.phis = random_phis(np.random.default_rng([seed, 0x4B]), 64)
        self.prep_frames = scale.prep_windows * data_scale.window
        self._data: dict[tuple[int, int, int], bool] = {}
        pinned = keyed_data.pinned(data_scale)
        self.pinned_ranks = [r for r, (tenant, _) in enumerate(self.base)
                             if tenant in pinned and self._has_data(r, 0, self.prep_frames)]
        if not self.pinned_ranks:
            raise BenchError("no pinned-engine key in the prepared frames")
        # Coldest rotating keys first: the likeliest to have been spilled.
        self.cold_ranks = [r for r in reversed(range(len(self.base)))
                           if self.base[r][0] not in pinned]

    def _group(self, rank: int) -> str:
        tenant, metric = self.base[rank]
        return f"t{tenant}\x1f{metric}"

    def _has_data(self, rank: int, first: int, end: int) -> bool:
        group = self._group(rank)
        return self.oracle.size(group, end) > self.oracle.size(group, first)

    def key_at(self, rank: int, t: int, back: int = 0) -> tuple[str, str] | None:
        """The wire key base key ``rank`` had ``back`` windows before the
        one current at stream frame ``t`` (``None`` if it got no data)."""
        tenant, metric = self.base[rank]
        window = keyed_data.window_of(self.ds, tenant, t)
        if window is not None:
            window -= back
            if window < 0:
                return None
        first, end = keyed_data.window_frames(self.ds, tenant, window)
        end = t + 1 if end is None else min(end, t + 1)
        known = self._data.get((rank, first, end))
        if known is None:
            known = self._data[(rank, first, end)] = self._has_data(rank, first, end)
        return (keyed_data.tenant_name(tenant, window), metric) if known else None

    def batches(self, t: int) -> list[tuple[str, str, np.ndarray]]:
        """Stream frame ``t`` as INGEST_KEYED triples."""
        out = []
        for rank, values in self.frames[t % len(self.frames)]:
            tenant, metric = self.base[rank]
            window = keyed_data.window_of(self.ds, tenant, t)
            out.append((keyed_data.tenant_name(tenant, window), metric, values))
        return out

    def answer(self, ans, t: int) -> Answer:
        """``ans`` as the oracle grades it, after ``t`` stream frames."""
        first = 0
        if ans.tenant == "*":
            group = f"*\x1f{ans.metric}"
        else:
            tenant, window = keyed_data.parse_tenant(ans.tenant)
            group = f"t{tenant}\x1f{ans.metric}"
            first, end = keyed_data.window_frames(self.ds, tenant, window)
            if end is not None:
                t = min(t, end)
        return Answer(group, t, ans.phis, ans.psi, ans.lower, ans.upper, ans.count,
                      ans.guarantee, ans.engine,
                      f"{ans.tenant}/{ans.metric} ({ans.source})", first)

    def serve_args(self, state: Path) -> list[str]:
        args = ["--shards", "1", "--tenancy-budget", str(self.scale.budget),
                "--tenancy-spill-dir", str(state)]
        for tenant, engine in sorted(keyed_data.pinned(self.ds).items()):
            args += ["--tenant-engine", f"{keyed_data.tenant_name(tenant, None)}={engine}"]
        return args

    def send_prepared(self, client) -> None:
        """``prep_windows`` windows of frames; the server's shutdown then
        spills every key."""
        for t in range(self.prep_frames):
            client.ingest_keyed(self.batches(t))

    def first_answer(self, client) -> None:
        t = self.prep_frames
        last = self.frames[(t - 1) % len(self.frames)][0][0]
        answers = client.quantiles_keyed([self.key_at(last, t - 1), ("*", "*")], DECILES)
        self.check([self.answer(a, t) for a in answers])

    def _cold(self, t: int) -> list[tuple[str, str]]:
        """Sixteen keys of the least popular rotating tenants' previous
        windows."""
        cold = []
        for rank in self.cold_ranks:
            key = self.key_at(rank, t, back=1)
            if key is not None:
                cold.append(key)
                if len(cold) == 16:
                    break
        if not cold:
            raise BenchError("no retired key has data yet")
        return cold

    def start(self) -> None:
        self.t = self.prep_frames

    def cycle(self, client, out: Samples, timed: bool) -> int:
        """One INGEST_KEYED frame, then nine QUANTILES_KEYED batches of
        two keys: the frame's two most popular keys (its freshness, polled
        again later in the cycle); a hot key with a key of a sketch-engine
        tenant; twice two keys of the least popular tenants' previous
        windows (likely spilled); a metric rollup with the global rollup,
        audited untimed over :data:`GRID` together with a fresh key; two
        hot keys; another hot and sketch-engine pair; a fresh key with a
        cold one."""
        t = self.t
        frame = self.frames[t % len(self.frames)]
        t0 = time.perf_counter()
        reply = client.ingest_keyed(self.batches(t))
        ack = time.perf_counter()
        self.t += 1
        out.attempted += 1
        if timed:
            out.ingest.append(ack - t0)
        i = out.cycles
        fresh = [self.key_at(frame[0][0], t), self.key_at(frame[1][0], t)]
        hot = [k for k in (self.key_at(r, t) for r in range(8)) if k] or fresh
        cold = self._cold(t)
        batches = [
            fresh,
            [hot[i % len(hot)],
             self.key_at(self.pinned_ranks[i % len(self.pinned_ranks)], t)],
            [cold[(2 * i) % len(cold)], cold[(2 * i + 1) % len(cold)]],
            [("*", keyed_data.METRICS[i % len(keyed_data.METRICS)]), ("*", "*")],
            fresh,
            [cold[(2 * i + 8) % len(cold)], cold[(2 * i + 9) % len(cold)]],
            hot[:2],
            [hot[(i + 1) % len(hot)],
             self.key_at(self.pinned_ranks[(i + 1) % len(self.pinned_ranks)], t)],
            [fresh[1], cold[(2 * i + 4) % len(cold)]],
        ]
        for b, pairs in enumerate(batches):
            phis = self.phis[(len(batches) * i + b) % len(self.phis)]
            q0 = time.perf_counter()
            answers = client.quantiles_keyed(pairs, phis)
            q1 = time.perf_counter()
            out.attempted += 1
            if timed:
                out.query.append(q1 - q0)
                if b == 0:
                    out.fresh.append(q1 - ack)
            if b == 3:  # the rollups just built, audited untimed
                answers += client.quantiles_keyed(pairs + fresh[:1], GRID)
                out.attempted += 1
            for ans in answers:
                out.answers.append(self.answer(ans, self.t))
                out.sources[ans.source] = out.sources.get(ans.source, 0) + 1
        return int(reply["elements"])
