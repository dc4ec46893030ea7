"""End-to-end publish -> morph -> deliver benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fanout_batch64 --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped, over epochs: each epoch builds a fresh deployment and runs the
workload's fixed number of rounds, until ``--seconds`` of measured
time.  Timings are scaled to nominal host speed by a reference workload
timed between rounds (:mod:`hostspeed`).  ``--trace 1`` prints the
per-layer metrics: it first runs an untraced reference phase, then
wraps every layer boundary (:mod:`spans`), builds a fresh deployment
and runs the traced phase, each for half of ``--seconds``; the kept
spans go to ``.perfbench-out/``.  ``--rounds N`` replaces the time limit with a
single epoch of N closed-loop rounds (the tests use it to get
reproducible counts).

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: socket_live runs by name but is not in BENCHMARK.json: its latency
#: is not steady enough on a shared 2-vCPU host (see README.md)
WORKLOADS = ["fanout_batch64", "ingest_single", "echo_receiver_batch",
             "socket_live"]
#: measured seconds of rounds between two host-speed probe chunks
PROBE_EVERY_S = 0.05

#: end-to-end timings taken per epoch, each with the power of the
#: epoch's host factor that scales it to nominal host speed (a rate is
#: multiplied by the factor, a time divided)
PER_EPOCH = {
    "events_per_s": 1,
    "latency_p50_us": -1,
    "cpu_us_per_event": -1,
}

#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = [
    ("events_per_s", "events/s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_event", "us"),
    ("wire_bytes_per_event", "B"),
    ("exactly_once_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _workload_class(name: str):
    if name == "socket_live":
        from socket_live import SocketLive

        return SocketLive
    from workloads import SIMULATED

    return SIMULATED[name]


class Bench:
    """One run of one workload: inputs, set-up, timed phase, report."""

    def __init__(self, name: str, seed: int, seconds: float,
                 rounds: Optional[int]) -> None:
        from hostspeed import HostProbe
        from inputs import make_records, reference_records

        self.cls = _workload_class(name)
        self.seconds = seconds
        self.rounds = rounds
        #: pool index of the next record to publish, carried across
        #: epochs so that every epoch cycles through the pool
        self.cursor = 0
        self.probe = HostProbe()
        self.records = make_records(seed)
        formats = {fmt.format_id: fmt for fmt in self.cls.formats}
        self.references = reference_records(self.records, list(formats.values()))
        # The pool and references live for the whole run; keep the
        # collector's full passes from rescanning them, so the program
        # pays only for its own heap.
        gc.collect()
        gc.freeze()
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.checks: List[Any] = []

    def build(self, **options: Any):
        """Build one deployment; returns (workload, build seconds)."""
        from inputs import DeliveryCheck

        from repro import obs

        if self.cls.obs_enabled:
            obs.enable()
        else:
            obs.disable(reset=True)
        check = DeliveryCheck(self.references, self.cls.formats)
        self.checks.append(check)
        gc.collect()
        start = time.perf_counter()
        workload = self.cls(self.records, check, self.tmp_dir, **options)
        elapsed = time.perf_counter() - start
        check.verify()
        return workload, elapsed

    def measure(self, workload, rounds: Optional[int]) -> Dict[str, Any]:
        """One timed phase on *workload*: *rounds* rounds, or rounds
        until *seconds* of measured time if *rounds* is None.
        Verification and a host-speed probe chunk after every
        ``PROBE_EVERY_S`` of rounds run between rounds, untimed."""
        from hostspeed import host_factor

        workload.cursor = self.cursor
        check = workload.check
        check.latencies_us = array("d")
        expected, correct = check.expected, check.correct
        before = workload.counters()
        self._check_obs(before)
        clock, cpu_clock = time.perf_counter, time.process_time
        published = done = probes = 0
        wall = cpu = probe_s = probed = 0.0
        while wall < self.seconds if rounds is None else done < rounds:
            c0, t0 = cpu_clock(), clock()
            published += workload.round()
            wall += clock() - t0
            cpu += cpu_clock() - c0
            done += 1
            check.verify()
            if wall - probed >= PROBE_EVERY_S:
                probe_s += self.probe.chunk()
                probes += 1
                probed = wall
        if not probes:
            probe_s, probes = self.probe.chunk(), 1
        self.cursor = workload.cursor
        after = workload.counters()
        self._check_obs(after)
        phase = {
            key: after[key] - before[key]
            for key in ("wire_bytes", "errors", "retransmits", "obs_spans")
        }
        phase.update(
            published=published,
            wall_s=wall,
            host_factor=host_factor(probe_s, probes),
            cpu_s=cpu + after["other_cpu_s"] - before["other_cpu_s"],
            expected=check.expected - expected,
            correct=check.correct - correct,
            latencies_us=check.latencies_us,
            obs_series=after["obs_series"],
            peak_rss_kb=after["peak_rss_kb"],
            child_trace=after["trace"],
        )
        return phase

    def _check_obs(self, counters: Dict[str, Any]) -> None:
        if counters["obs_enabled"] != self.cls.obs_enabled:
            raise RuntimeError(
                f"repro.obs.OBS.enabled is {counters['obs_enabled']} in a "
                f"process of {self.cls.name}; expected {self.cls.obs_enabled}"
            )

    # ------------------------------------------------------------------

    def outcome(self, errors: int):
        attempted = sum(check.expected for check in self.checks)
        failed = sum(check.failures() for check in self.checks) + errors
        return attempted, failed

    def run_untraced(self) -> Dict[str, Any]:
        from hostspeed import host_factor

        epochs: List[Dict[str, Any]] = []
        setup_times: List[float] = []
        wall = 0.0
        while not epochs or (self.rounds is None and wall < self.seconds):
            before = self.probe.chunk()
            workload, elapsed = self.build()
            setup_times.append(
                elapsed / host_factor(before + self.probe.chunk(), 2)
            )
            try:
                epoch = self.measure(workload,
                                     self.rounds or self.cls.epoch_rounds)
            finally:
                workload.close()
            published = max(epoch["published"], 1)
            latencies = epoch["latencies_us"]
            raw = {
                "events_per_s": epoch["published"] * epoch["correct"]
                / max(epoch["expected"], 1) / epoch["wall_s"],
                "latency_p50_us": _percentile(latencies, 0.50),
                "cpu_us_per_event": epoch["cpu_s"] / published * 1e6,
            }
            epoch["raw"] = raw
            epoch.update(
                {key: raw[key] * epoch["host_factor"] ** power
                 for key, power in PER_EPOCH.items()},
                p95_us=_percentile(latencies, 0.95),
                p99_us=_percentile(latencies, 0.99),
            )
            epochs.append(epoch)
            wall += epoch["wall_s"]
        errors = sum(epoch["errors"] for epoch in epochs)
        attempted, failed = self.outcome(errors)
        published = max(sum(epoch["published"] for epoch in epochs), 1)
        print(f"# {self.cls.name}: {published} events in {wall:.2f} s, "
              f"{len(epochs)} epochs; setups at nominal speed "
              f"{[round(t, 3) for t in setup_times]} s")
        print(f"# per epoch host_factor: "
              f"{[round(epoch['host_factor'], 3) for epoch in epochs]}")
        for key in PER_EPOCH:
            print(f"# per epoch {key}, as measured: "
                  f"{[round(epoch['raw'][key], 1) for epoch in epochs]}")
        for key in (*PER_EPOCH, "p95_us", "p99_us"):
            print(f"# per epoch {key}: "
                  f"{[round(epoch[key], 1) for epoch in epochs]}")
        metrics = {
            key: statistics.median(epoch[key] for epoch in epochs)
            for key in PER_EPOCH
        }
        metrics.update({
            "wire_bytes_per_event":
                sum(epoch["wire_bytes"] for epoch in epochs) / published,
            "exactly_once_frac": 1.0 - failed / max(attempted, 1),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                max(epoch["peak_rss_kb"] for epoch in epochs) / 1024.0,
        })
        return self.report(END_TO_END, metrics, attempted, failed)

    def run_traced(self, seed: int) -> Dict[str, Any]:
        import spans

        workload, _ = self.build()
        try:
            reference = self.measure(workload, self.rounds)
        finally:
            workload.close()
        tracer = spans.SpanTracer("main")
        spans.install(tracer)
        options = {"traced": True} if self.cls.child_process else {}
        workload, _ = self.build(**options)
        try:
            tracer.reset()
            phase = self.measure(workload, self.rounds)
        finally:
            workload.close()
        summaries = [tracer.summary()]
        if phase["child_trace"] is not None:
            summaries.append(phase["child_trace"])
        merged = spans.merge(summaries)
        attempted, failed = self.outcome(reference["errors"] + phase["errors"])
        published = max(phase["published"], 1)
        ref_cpu = reference["cpu_s"] / max(reference["published"], 1)
        extra = {
            "net.reliable.retransmits": phase["retransmits"] / published,
            "obs.spans": phase["obs_spans"] / published,
            "obs.metric_series": float(phase["obs_series"]),
            "trace.overhead_frac": (phase["cpu_s"] / published) / ref_cpu - 1.0,
            "failed_frac": failed / max(attempted, 1),
        }
        deliveries = phase["correct"]
        metrics = spans.per_layer_values(
            merged, phase["published"], deliveries, phase["cpu_s"], extra
        )
        path = os.path.join(OUT_DIR, f"spans-{self.cls.name}-{seed}.json")
        spans.write_spans(path, merged["spans"])
        print(f"# {self.cls.name}: traced {phase['published']} events, "
              f"{deliveries} deliveries; {len(merged['spans'])} spans kept "
              f"in {os.path.relpath(path, ROOT)}")
        return self.report(spans.PER_LAYER, metrics, attempted, failed)

    def report(self, names, metrics: Dict[str, float], attempted: int,
               failed: int) -> Dict[str, Any]:
        for name, unit in names:
            print(f"# {name:40s} {metrics[name]:14.4f} {unit}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in names
            },
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="one epoch of this many closed-loop rounds "
                             "instead of --seconds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)

    seconds = args.seconds / 2 if args.trace else args.seconds
    bench = Bench(args.workload, args.seed, seconds, args.rounds)
    try:
        if args.trace:
            result = bench.run_traced(args.seed)
        else:
            result = bench.run_untraced()
    finally:
        bench.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
