"""dyncomp-sim benchmark: host-time performance of the simulator's user paths.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload mc-calibrated --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 30 [--out results.json]

One run measures ``setup_s`` (several fresh interpreters that import
dyncomp.cli and build the first engine), then runs the workload in a fresh
single-threaded worker interpreter. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run and the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs every
workload untraced and traced and prints a summary.

All times are host time, scaled to a reference host speed (hostspeed.py);
simulated quantities (t_dm, energies, offsets) are outputs to check, not
speeds. See bench/README.md for the workloads and the method.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mc-calibrated", "sweep-dense", "design-loop")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

SETUP_RUNS = 15
SETUP_CODE = (
    "import dyncomp.cli\n"
    "from dyncomp.config import RunConfig, build_comparator_config\n"
    "from dyncomp.engine import ComparatorEngine\n"
    "ComparatorEngine(build_comparator_config(RunConfig()))\n"
    "print('ready', flush=True)\n"
)
EMPTY_CODE = "print('ready', flush=True)\n"
# The worker gets the measured --seconds plus this much for set-up and checks.
WORKER_GRACE_S = 120
SETUP_TIMEOUT_S = 60

# repeat_speedup above this flags a run: at the defining commit it reads 0.7-1.15.
REPEAT_FLAG = 1.5

# Workload-specific names of some end-to-end metrics, printed beside them.
ALIASES = {
    ("mc-calibrated", "throughput"): ("mc_trials_per_s", "trials/s"),
    ("sweep-dense", "throughput"): ("sweep_points_per_s", "points/s"),
    ("design-loop", "throughput"): ("calls_per_s", "calls/s"),
    ("design-loop", "op_p50_ms"): ("call_p50_ms", "ms"),
    ("design-loop", "op_tail_ms"): ("call_tail_ms", "ms"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"              # numpy stays single-threaded
    return env


def _spawn(code: str, env) -> float:
    """Seconds from spawning ``python -c code`` until it prints its first line."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up interpreter timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {err.strip()[-500:]}")
    return elapsed


def _setup_once(env) -> float:
    """Set-up seconds of one fresh interpreter, at the reference host speed.

    An empty interpreter spawned just before serves as the host-speed
    reference: process start-up and imports do not track the pure-Python
    probe, but they track another interpreter start closely.
    """
    empty = _spawn(EMPTY_CODE, env)
    return _spawn(SETUP_CODE, env) * hostspeed.SPAWN_REF_S / empty


def measure_setup(env, runs: int) -> list[float]:
    """Scaled set-up times of ``runs`` fresh interpreters."""
    return [_setup_once(env) for _ in range(runs)]


def run_worker(workload: str, seed: int, seconds: int, traced: bool, env) -> dict:
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}-{workload}-{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()      # only when no other run is using it
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' when it is not a git repository."""
    # The ceiling keeps git from reporting a repository that merely contains the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": git_commit(),
    }


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    env = child_env()
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced)}
    info.update(environment())
    metrics = {}
    if not traced:
        _setup_once(env)            # fills the bytecode caches; not counted
        # Half the set-up samples before the workload and half after, so that
        # their median spans the run rather than one moment of the host.
        setup = measure_setup(env, SETUP_RUNS // 2)
    worker = run_worker(workload, seed, seconds, traced, env)
    if not traced:
        setup += measure_setup(env, SETUP_RUNS - SETUP_RUNS // 2)
        metrics["setup_s"] = (statistics.median(setup), "s")
    metrics.update({k: tuple(v) for k, v in worker.pop("metrics").items()})
    info.update(worker)
    info["failed_frac"] = info["failed"] / info["attempted"]
    info["metrics"] = metrics
    return info


def print_run(run: dict) -> None:
    workload = run["workload"]
    print(f"== {workload} seed={run['seed']} seconds={run['seconds']} trace={run['trace']} "
          f"python={run['python']} numpy={run['numpy']} nproc={run['nproc']} "
          f"load1={run['loadavg_1m']:.2f} host_speed={run['host_speed']:.3f} "
          f"commit={run['git_commit'][:12]}")
    for name, (value, unit) in run["metrics"].items():
        line = f"{name:42s} {value:16.6g} {unit}"
        if (workload, name) in ALIASES:
            alias, alias_unit = ALIASES[(workload, name)]
            line += f"    (= {alias} {alias_unit})"
        print(line)
    print(f"{'failed_frac':42s} {run['failed_frac']:16.6g} ratio   "
          f"({run['failed']} of {run['attempted']} operations)")
    if "tail_percentile" in run:
        print(f"op_tail_ms is p{run['tail_percentile']} of {run['ops']} operations over "
              f"{run['distinct_inputs']} distinct inputs; {run['units']} work items; "
              f"raw, unscaled: throughput {run['raw_throughput']:.6g} items/s, "
              f"p50 {run['raw_op_p50_ms']:.6g} ms, tail {run['raw_op_tail_ms']:.6g} ms")
        if run["repeat_speedup"] is not None:
            print(f"repeat_speedup {run['repeat_speedup']:.4g}: an input's first run over its "
                  "later runs, median over the inputs")
            if run["repeat_speedup"] > REPEAT_FLAG:
                print("warning: inputs run faster when repeated; a cache across calls, which "
                      "a fresh CLI process never gains, would explain it")
    if "traced_cycles" in run:
        print(f"traced {run['traced_cycles']} cycles of {run['cycle_ops']} operations; "
              f"cycle {run['untraced_cycle_s']:.4f} s untraced, {run['traced_cycle_s']:.4f} s "
              f"traced; counts repeat: {run['counts_repeat']}")
    print(f"outputs_identical={run['outputs_identical']} "
          f"({len(run['csv_sha256'])} distinct CSVs, "
          f"{len(run['csv_sha256_mismatches'])} differ from the reference bytes)")
    for error in run["errors"]:
        print(f"check failed: {error}")


def result_line(run: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dyncomp-sim host-time benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=30, help="measured host seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write every run as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dyncomp" / "__init__.py").is_file():
        print(f"error: no dyncomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            run = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print_run(run)
            print("# run " + json.dumps({k: v for k, v in run.items()
                                         if k not in ("metrics", "csv_sha256", "spans")}))
            print(result_line(run))
            return 0
        runs = []
        for workload in WORKLOADS:
            for traced in (False, True):
                run = run_one(workload, args.seed, args.seconds, traced)
                print_run(run)
                runs.append(run)
        if args.out is not None:
            args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
        failed = sum(r["failed"] for r in runs)
        print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
                          "failed": failed, "workloads": list(WORKLOADS)}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
