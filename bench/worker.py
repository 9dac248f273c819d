"""Run one workload in this fresh interpreter and print its result as JSON.

Started by run_bench.py with ``src`` on PYTHONPATH and the work directory as
the current directory. With ``--trace 0`` it times the closed loop for
``--seconds``; with ``--trace 1`` it alternates untraced and traced runs of
the seed's first cycle and reports per-layer counts and self times.

Timings are host seconds scaled to the reference host speed (hostspeed.py):
the probe is sampled after every operation and every 50 ms inside them.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy

import dyncomp
import hostspeed
import tracing
import workloads

# Percentiles the tail metric may use: the highest with at least ten samples
# beyond it. The rungs are far apart, so one workload keeps one percentile
# from run to run, and capped at p99 so it stays put as runs get faster.
TAIL_LADDER = (99, 90, 75, 50)
MAX_ERRORS_SHOWN = 20


class Runner:
    """Executes operations, checks their outputs and keeps the tally."""

    def __init__(self, workdir: Path, workload: str):
        self.workdir = workdir
        self.reference = workloads.load_reference()
        self.clock = hostspeed.HostClock(workloads.SPEED_EXPONENT[workload])
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sha256: dict[str, str] = {}
        self.sha_mismatch: set[str] = set()
        self.seen: set[str] = set()     # inputs that have run in this process

    def run(self, op: workloads.Op) -> tuple[float, float, list[float]]:
        """Run one operation and check it; returns (start, end, host seconds per call).

        The timed region covers the calls and a garbage collection of what
        they left behind, charged to the last call, so that the probe which
        follows in this interpreter does not pay for the program's garbage.
        The probe samples taken inside the calls are subtracted from their
        times; those after them, and the output check, run outside the timed
        region.
        """
        for call in op.calls:           # a call that writes nothing must not pass on a stale file
            out = self.workdir / call.out
            out.unlink(missing_ok=True)
            out.with_suffix(".json").unlink(missing_ok=True)
        clock = self.clock
        results, seconds = [], []
        with clock.sampling():
            start = perf_counter()
            for call in op.calls:
                t0, probed = perf_counter(), clock.inside_s
                results.append(workloads.run_call(call.argv))
                seconds.append(perf_counter() - t0 - (clock.inside_s - probed))
            t0, probed = perf_counter(), clock.inside_s
            gc.collect()
            end = perf_counter()
        seconds[-1] += end - t0 - (clock.inside_s - probed)
        clock.sample()
        self.seen.update(call.key for call in op.calls)
        errors = []
        if threading.active_count() > 1:    # it would share the probe's interpreter
            errors.append(f"{op.calls[-1].key}: left {threading.active_count() - 1} "
                          "thread(s) running")
        for call, (rc, stderr) in zip(op.calls, results):
            if rc != 0:
                errors.append(f"{call.key}: exit {rc!r} {stderr.strip()[-300:]}")
                continue
            try:
                got = workloads.facts(call, self.workdir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"{call.key}: unreadable output: {exc!r}")
                continue
            ref = self.reference.get(call.key)
            if ref is None:
                errors.append(f"{call.key}: no reference entry")
                continue
            errors += [f"{call.key}: {e}" for e in workloads.compare(got, ref)]
            if "sha256" in got:
                self.sha256[call.key] = got["sha256"]
                if got["sha256"] != ref.get("sha256"):
                    self.sha_mismatch.add(call.key)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:MAX_ERRORS_SHOWN - len(self.errors)])
        return start, end, seconds


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value) at the highest ladder percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (100 - q) / 100.0 >= 10:
            return q, ordered[min(n - 1, int(q / 100.0 * n))]
    return 100, ordered[-1]


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Closed loop over the seed's schedule until ``seconds`` of host time have passed.

    Each execution's host time is scaled to the reference speed by the probe
    samples around it. Throughput, median and tail are taken over the scaled
    latencies of the operations as executed, so the mix of inputs is the
    workload's. The raw figures, in unscaled host seconds, are reported
    beside them.

    ``repeat_speedup`` watches for caching across calls, which a fresh CLI
    process never gains: for every input that ran first in the timed loop
    and again later, its first scaled time over the median of its later ones,
    and the median of that over the inputs (None when no input repeats).
    """
    executed = []
    warm = set(runner.seen)
    deadline = perf_counter() + seconds
    runner.clock.sample()
    for cycle in workloads.cycles(workload, seed):
        for op in cycle:
            executed.append((op, *runner.run(op)))
            if perf_counter() >= deadline:
                break
        else:
            continue
        break
    latencies, per_input = [], {}
    for op, start, end, call_s in executed:
        factor = runner.clock.factor(start, end)
        latencies.append(factor * sum(call_s))
        for call, s in zip(op.calls, call_s):
            if call.key not in warm:
                per_input.setdefault(call.key, []).append(s * factor)
    speedups = [runs[0] / statistics.median(runs[1:]) for runs in per_input.values()
                if len(runs) > 1]
    raw = [sum(call_s) for _, _, _, call_s in executed]
    units = sum(op.units for op, _, _, _ in executed)
    q, tail_s = tail(latencies)
    return {
        "metrics": {
            "throughput": (units / sum(latencies), "items/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
        },
        "ops": len(executed),
        "units": units,
        "distinct_inputs": len({c.key for op, _, _, _ in executed for c in op.calls}),
        "repeat_speedup": statistics.median(speedups) if speedups else None,
        "tail_percentile": q,
        "host_speed": runner.clock.speed(),
        "raw_throughput": units / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": tail(raw)[1] * 1e3,
    }


def trace(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced runs of the first cycle; per-layer metrics.

    Cycle times and self times are scaled to the reference host speed, and
    both are medians over the cycles run; the tracing overhead compares the
    median traced cycle with the median untraced one.
    """
    cycle = next(workloads.cycles(workload, seed))
    tracer = tracing.Tracer()
    untraced, traced, summaries = [], [], []

    def run_cycle() -> tuple[float, float]:
        """(scaled cycle seconds, scale factor at the cycle's middle operation)."""
        timed = [runner.run(op) for op in cycle]
        scaled = sum(runner.clock.factor(start, end) * sum(call_s)
                     for start, end, call_s in timed)
        return scaled, runner.clock.factor(*timed[len(timed) // 2][:2])

    runner.clock.sample()
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(run_cycle()[0])
        before = tracer.counters.copy()
        lo = tracer.mark()
        tracer.install()
        try:
            scaled, factor = run_cycle()
        finally:
            tracer.uninstall()
        traced.append(scaled)
        summary = tracer.summarize(lo, tracer.mark())
        summary["counters"] = dict(tracer.counters - before)
        summary["factor"] = factor
        summaries.append(summary)

    def calls(summary):
        return {k: v["calls"] for k, v in summary["spans"].items()}

    first = summaries[0]
    counts_repeat = all(calls(s) == calls(first) and s["counters"] == first["counters"]
                        for s in summaries)
    self_s = {name: statistics.median(s["spans"].get(name, {}).get("self_s", 0.0) * s["factor"]
                                      for s in summaries)
              for name in tracer.names}
    trials = sum(op.trials for op in cycle)
    overhead_pct = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    return {
        "metrics": layer_metrics(first, self_s, trials, overhead_pct),
        "cycle_ops": len(cycle),
        "cycle_trials": trials,
        "traced_cycles": len(traced),
        "counts_repeat": counts_repeat,
        "untraced_cycle_s": statistics.median(untraced),
        "traced_cycle_s": statistics.median(traced),
        "host_speed": runner.clock.speed(),
        "spans": {name: {"calls": first["spans"].get(name, {}).get("calls", 0),
                         "self_s": self_s[name]} for name in tracer.names},
    }


def layer_metrics(cycle: dict, self_s: dict, trials: int, overhead_pct: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, for one traced cycle.

    Counts are exact for the cycle; self times are scaled medians over
    traced cycles. A ratio whose base count is zero reads 0.
    """
    spans, counters = cycle["spans"], cycle["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    sim_calls = calls("engine.simulate")
    offsets = calls("calibration.measure_offset")
    m = {}
    for name in ("devices.sample_mismatch", "engine.simulate", "engine.params_at",
                 "engine.ComparatorEngine", "calibration.run_calibration",
                 "calibration.measure_offset", "sizing.solve_sizing", "sizing.scaled_config",
                 "config.set_key", "config.resolved_metadata", "harness.render_csv",
                 "harness.load_csv", "cli.main"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("devices.sample_mismatch", "engine.simulate", "calibration.monte_carlo",
                 "calibration.run_calibration", "calibration.measure_offset",
                 "sizing.solve_sizing", "sizing.scaled_config", "config.parse_config",
                 "config.resolved_metadata", "config.build_comparator_config",
                 "harness.render_csv", "harness.load_csv", "harness.run_sweep",
                 "harness.run_montecarlo", "cli.main"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    # A simulate call's own cost: its self time plus the params_at calls inside it.
    sim_cost = self_s.get("engine.simulate", 0.0) + self_s.get("engine.params_at", 0.0)
    m["engine.simulate.us_per_call"] = (ratio(sim_cost, sim_calls) * 1e6, "us")
    m["engine.params_at.per_simulate"] = (ratio(calls("engine.params_at"), sim_calls), "ratio")
    m["calibration.measure_offset.per_trial"] = (ratio(offsets, trials), "ratio")
    m["calibration.simulates_per_offset"] = (ratio(cycle["simulates_in_offset"], offsets), "ratio")
    m["calibration.converged_ratio"] = (
        ratio(counters.get("calibration.converged", 0), calls("calibration.run_calibration")),
        "ratio")
    m["calibration.saturated"] = (counters.get("calibration.saturated", 0), "count")
    m["calibration.span_errors"] = (
        counters.get("calibration.measure_offset.raised.OffsetSpanError", 0), "count")
    m["harness.render_csv.bytes"] = (counters.get("harness.render_csv.bytes", 0), "B")
    m["harness.load_csv.bytes"] = (counters.get("harness.load_csv.bytes", 0), "B")
    m["harness.sweep.late_rows"] = (counters.get("harness.sweep.late_rows", 0), "count")
    m["harness.sweep.failed_rows"] = (counters.get("harness.sweep.failed_rows", 0), "count")
    m["cli.main.nonzero_exits"] = (counters.get("cli.main.nonzero_exits", 0)
                                   + counters.get("cli.main.raised.SystemExit", 0), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workdir = Path.cwd()
    workloads.prepare(args.workload, workdir)
    runner = Runner(workdir, args.workload)
    runner.run(workloads.warmup(args.workload, args.seed))
    # What exists now lives for the whole run. Frozen, it stays out of the
    # collection after every operation, which then costs about 0.1 ms.
    gc.collect()
    gc.freeze()
    if args.trace:
        result = trace(runner, args.workload, args.seed, args.seconds)
    else:
        result = measure(runner, args.workload, args.seed, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        csv_sha256=runner.sha256,
        outputs_identical=not runner.sha_mismatch,
        csv_sha256_mismatches=sorted(runner.sha_mismatch),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        dyncomp=dyncomp.__version__,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
