"""The measured process of the ``disk_onepass`` workload.

Started by the benchmark as its own interpreter, so that interpreter
start, ``import repro`` and the process's peak memory belong to the
system under test and the oracle's copy of the data stays outside it.

``--ready`` stops once the dataset is open and the estimator is ready to
read its first run (the set-up probe).  Otherwise the process runs a
closed loop of one-pass estimates until ``--seconds`` have passed: each
iteration is a full pass over the dataset plus the pass's φ-vector, then
``--queries`` further ``bounds`` calls on the finished summary, and runs
on the next of the process's cores in turn.  Timings
and every answer are written to ``--out`` for grading.

Run by ``repobench/run.py``; by hand::

    PYTHONPATH=src python3 repobench/worker_onepass.py --dataset D.opaq \\
        --run-size 126491 --sample-size 1000 --phis P.npy --seconds 5 \\
        --queries 100 --out answers.npz
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--dataset", required=True)
    p.add_argument("--run-size", type=int, required=True)
    p.add_argument("--sample-size", type=int, required=True)
    p.add_argument("--ready", action="store_true")
    p.add_argument("--phis")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--queries", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    from repro import OPAQ, DiskDataset, OPAQConfig, RunReader

    config = OPAQConfig(run_size=args.run_size, sample_size=args.sample_size)
    dataset = DiskDataset.open(args.dataset)
    estimator = OPAQ(config)
    reader = RunReader(dataset, run_size=config.run_size)
    print("ready", reader.num_runs, flush=True)
    if args.ready:
        return 0

    import numpy as np

    # Looked up on the module at each call, so a traced run sees the
    # wrapped function.
    from repro.core import quantile_phase

    with np.load(args.phis) as phis:
        pass_phis = phis["pass"]
        query_phis = phis["queries"]

    cores = sorted(os.sched_getaffinity(0))

    def one_pass(record: dict) -> None:
        # Each pass on the next core in turn: the benchmark averages a
        # window of one pass per core (see disk.py).
        os.sched_setaffinity(0, {cores[len(record["ingest"]) % len(cores)]})
        t0 = time.perf_counter()
        summary = estimator.summarize(RunReader(dataset, run_size=config.run_size))
        psi, lower, upper, *_ = quantile_phase.bounds_arrays(summary, pass_phis)
        record["ingest"].append(time.perf_counter() - t0)
        g = summary.guaranteed_rank_error()
        record["passes"].append((psi, lower, upper, summary.count, g))
        for _ in range(args.queries):
            index = len(record["query"]) % len(query_phis)
            t0 = time.perf_counter()
            psi, lower, upper, *_ = quantile_phase.bounds_arrays(summary, query_phis[index])
            record["query"].append(time.perf_counter() - t0)
            record["queries"].append((index, psi, lower, upper))

    def loop(record: dict, seconds: float | None, passes: int | None) -> float:
        t0 = time.perf_counter()
        deadline = t0 + (seconds or 0.0)
        done = 0
        while (passes is None and time.perf_counter() < deadline) or (
            passes is not None and done < passes
        ):
            one_pass(record)
            done += 1
        return time.perf_counter() - t0

    def record() -> dict:
        return {"ingest": [], "query": [], "passes": [], "queries": []}

    plain = record()
    wall = loop(plain, args.seconds, None)
    result = {"ingest": plain["ingest"], "query": plain["query"], "wall": wall}
    if args.trace_out:
        from layers import LayerTracer, install
        from repro.obs import MemorySink, tracing

        traced = record()
        tracer = LayerTracer()
        undo = install(tracer, "onepass")
        sink = MemorySink()
        try:
            with tracing(sink):
                traced_wall = loop(traced, None, len(plain["ingest"]))
        finally:
            undo()
        for key in ("passes", "queries"):
            plain[key] += traced[key]
        dump = tracer.snapshot()
        dump["counters"] = sink.counters()
        dump["wall"] = traced_wall
        dump["untraced_wall"] = wall
        dump["passes"] = len(traced["ingest"])
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    # VmHWM, not getrusage: ru_maxrss also counts the parent's resident
    # set that this process inherited at fork, before exec.
    from common import peak_rss_mb

    result["peak_rss_mb"] = peak_rss_mb(os.getpid())
    passes, queries = plain["passes"], plain["queries"]
    np.savez(
        args.out,
        pass_psi=np.stack([p[0] for p in passes]),
        pass_lower=np.stack([p[1] for p in passes]),
        pass_upper=np.stack([p[2] for p in passes]),
        pass_count=np.array([p[3] for p in passes], dtype=np.int64),
        pass_guarantee=np.array([p[4] for p in passes], dtype=np.int64),
        query_index=np.array([q[0] for q in queries], dtype=np.int64),
        query_psi=np.stack([q[1] for q in queries]),
        query_lower=np.stack([q[2] for q in queries]),
        query_upper=np.stack([q[3] for q in queries]),
        timings=np.array(json.dumps(result)),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
