"""The benchmark's own tests, at tiny scale.

    python3 -m pytest -q repobench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import common  # noqa: E402
import keyed_data  # noqa: E402
import wire  # noqa: E402
from oracle import Answer, CycledOracle, kll_miss_limit  # noqa: E402


def run_bench(*args: str, cwd: Path = BENCH.parent, timeout: float = 300):
    return subprocess.run(
        [sys.executable, str(cwd / "repobench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
        start_new_session=True,
    )


def session_processes(sid: int) -> list[int]:
    """Live processes of session ``sid`` (the run's whole process tree)."""
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            alive.append(int(entry.name))
    return alive


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = common.WORK_ROOT / f"test-{os.getpid()}-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def _oracle(data: np.ndarray) -> CycledOracle:
    oracle = CycledOracle(1)
    oracle.add("g", 0, data)
    return oracle


def _exact_answer(data: np.ndarray, phis: np.ndarray) -> Answer:
    ground = np.sort(data)
    n = data.size
    psi = np.minimum(n, np.maximum(1, np.ceil(phis * n).astype(np.int64)))
    x = ground[psi - 1]
    return Answer("g", 1, phis, psi, x.copy(), x.copy(), n, 1)


def test_oracle_passes_true_bounds_and_trips_on_one_rank():
    rng = np.random.default_rng(5)
    data = rng.permutation(np.arange(1000, dtype=np.float64))
    phis = np.array([0.1, 0.5, 0.9])
    oracle = _oracle(data)
    good = _exact_answer(data, phis)
    assert oracle.grade([good]).violations == []

    # The exact answer serves guarantee 1 (exact); shift one bound by one
    # rank and the grade must fail.
    low = _exact_answer(data, phis)
    low.upper[1] -= 1.0  # the quantile now lies above the bounds
    high = _exact_answer(data, phis)
    high.lower[2] += 1.0  # ... or below them
    for shifted in (low, high):
        assert [v for v in oracle.grade([shifted]).violations if "enclose" in v]
    wide = _exact_answer(data, phis)
    wide.upper[0] += 1.0  # still encloses, but one rank off: error 1, not < 1
    assert [v for v in oracle.grade([wide]).violations if "guarantee" in v]


def test_oracle_checks_count_rank_and_error_against_guarantee():
    from repro import OPAQ, OPAQConfig
    from repro.core import bounds_arrays

    data = np.random.default_rng(6).lognormal(size=20_000).round(2)
    summary = OPAQ(OPAQConfig(run_size=2000, sample_size=50)).summarize(data)
    phis = np.linspace(0.05, 0.95, 19)
    psi, lower, upper, *_ = bounds_arrays(summary, phis)
    g = summary.guaranteed_rank_error()
    oracle = _oracle(data)
    served = Answer("g", 1, phis, psi, lower, upper, summary.count, g)
    grade = oracle.grade([served])
    assert grade.violations == []
    assert 0 <= grade.errors[0] < g / data.size == grade.guarantees[0]

    wrong_count = Answer("g", 1, phis, psi, lower, upper, summary.count - 1, g)
    assert "count" in oracle.grade([wrong_count]).violations[0]
    wrong_rank = Answer("g", 1, phis, psi + 1, lower, upper, summary.count, g)
    assert "ranks" in oracle.grade([wrong_rank]).violations[0]
    observed = int(round(grade.errors[0] * data.size))
    tight = Answer("g", 1, phis, psi, lower, upper, summary.count, observed)
    assert any("guarantee" in v for v in oracle.grade([tight]).violations)


def test_oracle_counts_over_cycled_frames_and_ranges():
    rng = np.random.default_rng(7)
    pool = [rng.integers(0, 40, size=rng.integers(0, 20)).astype(float) for _ in range(5)]
    oracle = CycledOracle(5)
    for f, piece in enumerate(pool):
        oracle.add("g", f, piece)
    stream = [pool[t % 5] for t in range(23)]
    values = np.array([-1.0, 0.0, 7.0, 39.0, 50.0])
    for first, end in [(0, 0), (0, 4), (3, 11), (5, 23), (12, 13)]:
        part = np.concatenate(stream[first:end] + [np.zeros(0)])
        le, lt = oracle._range_counts("g", values, np.full(5, first), np.full(5, end))
        assert list(le) == [(part <= v).sum() for v in values]
        assert list(lt) == [(part < v).sum() for v in values]
        assert oracle.size("g", end) - oracle.size("g", first) == part.size


def test_kll_misses_fail_only_past_the_binomial_limit():
    assert kll_miss_limit(0) == 1
    assert kll_miss_limit(1000) < 40  # 10 expected at delta = 0.01


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_no_tail_without_ten_samples_beyond_it():
    assert common.tail(list(range(999))) is None
    assert common.tail(list(range(1000))) == 990
    import run

    short = run.Run("wire_stream", 1, 1.0, False, True)
    short.timings([1.0], [1.0], [0.001] * 999, [1.0], 1.0, 1.0)
    assert "n/a" in short.unbounded[0]
    enough = run.Run("wire_stream", 1, 1.0, False, True)
    enough.timings([1.0], [1.0], [0.001] * 1000, [1.0], 1.0, 1.0)
    assert "n/a" not in enough.unbounded[0]


def test_window_rate_is_a_median_over_whole_windows():
    rate = common.window_rate([10, 10, 10, 10, 10, 10, 99], [1, 1, 2, 2, 1, 1, 5], 2)
    assert rate == 10.0  # windows: 20/2, 20/4, 20/2; the tail is dropped


# ----------------------------------------------------------------------
# Determinism: same seed, same answers and operation counts
# ----------------------------------------------------------------------


def _measure(wl, tmp: Path, cycles: int) -> tuple:
    """Prepare, run exactly ``cycles`` timed cycles, return the graded
    accuracy and the counts of what the run did."""
    from repro.service import ServiceClient

    tmp.mkdir()
    with common.Children() as children:
        prepared = wl.prepare(children, tmp)
        state = tmp / "run"
        shutil.copytree(prepared, state)
        server = wl.server(children, tmp, state)
        server.start()
        with ServiceClient(server.url) as client:
            samples = wl.loop(client, None, cycles)
            stats = client.stats()
        server.stop()
    grade = wl.oracle.grade(samples.answers)
    assert grade.violations == []
    counts = (samples.attempted, len(samples.answers), stats["epoch"], stats["count"],
              *(stats["tenancy"][k] for k in ("folds", "spills", "restores", "evictions")))
    return grade.errors.tolist(), grade.guarantees.tolist(), counts


def _keyed_pass(seed: int, tmp: Path) -> tuple:
    return _measure(wire.KeyedWorkload(seed, wire.TINY_KEYED, keyed_data.TINY), tmp, 12)


def _stream_pass(seed: int, tmp: Path) -> tuple:
    return _measure(wire.StreamWorkload(seed, wire.TINY_STREAM), tmp, 6)


@pytest.mark.parametrize("one_pass", [_keyed_pass, _stream_pass])
def test_same_seed_same_accuracy_and_operation_counts(one_pass, workdir):
    first = one_pass(3, workdir / "a")
    second = one_pass(3, workdir / "b")
    assert first == second
    assert one_pass(4, workdir / "c")[0] != first[0]  # the seed matters


def test_same_seed_same_accuracy_through_the_command():
    results = []
    for _ in range(2):
        out = run_bench("--workload", "disk_onepass", "--seed", "9",
                        "--seconds", "1", "--tiny")
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.splitlines()[-1]))
    for name in ("rank_error_max", "guarantee_max"):
        assert results[0]["metrics"][name] == results[1]["metrics"][name]


def test_disk_answers_share_one_read_of_each_array(workdir):
    """Answers are rows of arrays read once from the worker's archive,
    not each a fresh read of a whole array (memory quadratic in passes)."""
    import disk

    wl = disk.DiskWorkload(5, disk.TINY, workdir)
    with common.Children() as children:
        result = wl.run(children, 0.5, False)
    queries = [a for a in result["answers"] if a.phis.size != wl.pass_phis.size]
    assert len(queries) >= 2 * disk.TINY.queries_per_pass
    for field in ("psi", "lower", "upper"):
        bases = {id(getattr(a, field).base) for a in queries}
        assert len(bases) == 1, field


# ----------------------------------------------------------------------
# Processes and the command
# ----------------------------------------------------------------------


def test_children_are_reaped_when_the_run_fails():
    with pytest.raises(RuntimeError):
        with common.Children() as children:
            proc = children.spawn(["sleep", "60"])
            raise RuntimeError("boom")
    assert proc.poll() is not None


@pytest.mark.parametrize("workload, seconds, expect", [
    ("wire_stream", "3", 0),
    # No timed cycle leaves no throughput window: the run fails after its
    # servers were started.
    ("wire_keyed", "0", 1),
])
def test_no_process_outlives_a_run(workload, seconds, expect):
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", seconds, "--tiny"],
        cwd=BENCH.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == expect, err[-2000:]
    deadline = time.monotonic() + 5
    while session_processes(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert session_processes(proc.pid) == []


def test_trace_run_prints_every_layer_and_passes_reach_checks():
    import layers

    out = run_bench("--workload", "wire_stream", "--seed", "1", "--seconds", "2",
                    "--tiny", "--trace", "1")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result["metrics"]) == set(layers.PER_LAYER_UNITS)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_reach_check_flags_missed_and_unexpected_layers():
    import layers

    calls = {layer: 1 for layer in layers.EXERCISES["disk_onepass"]}
    assert layers.check_reach("disk_onepass", calls) == []
    calls["router.split"] = 3
    del calls["storage.read"]
    problems = layers.check_reach("disk_onepass", calls)
    assert len(problems) == 2


def test_without_sources_the_command_fails_before_measuring(workdir):
    shutil.copytree(BENCH, workdir / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "wire_stream", "--seed", "1", "--seconds", "1",
                    cwd=workdir, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
