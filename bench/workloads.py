"""Workload schedules, output facts and the reference check of the benchmark.

Every workload is a closed loop with one client: an operation starts only
after the previous one has returned. An operation is one or more in-process
``dyncomp.cli.main(argv)`` calls. Their inputs come from fixed pools whose
expected outputs are stored in ``reference.json`` next to this file; the
benchmark seed chooses which pool entries run and in which order, so any
seed can be checked against the same reference.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

from dyncomp import cli

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("mc-calibrated", "sweep-dense", "design-loop")

# How a workload's host time follows the probe's across runs (hostspeed.py):
# its time moves as the probe's to this power. Fitted on 8- and 30-second runs
# at the defining commit. The Monte Carlo and sweep loops follow the probe one
# to one. The short CLI calls of the design loop gain less than the probe when
# the host is fast (0.48-0.7 over three sets of runs), so their scaling is damped.
SPEED_EXPONENT = {"mc-calibrated": 1.0, "sweep-dense": 1.0, "design-loop": 0.5}


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``key`` names its entry in the reference."""

    key: str
    kind: str                   # mc | sweep | sim | simcfg | size | calibrate | report
    argv: tuple[str, ...]
    out: str                    # file the call writes, relative to the work dir


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: its calls run back to back and are timed together."""

    calls: tuple[Call, ...]
    units: int                  # work items: MC trials, sweep grid points or CLI calls
    trials: int = 0             # Monte Carlo trials, the base of per-trial ratios


# -- mc-calibrated: `mc --calibrate` at the default TT / 27 C point -------------------

# The trial count of `report --trials 500`, the Monte Carlo run users make.
MC_TRIALS = 500
# Every operation of a run takes a seed from this pool that the run has not
# used, so no input repeats within a run and a cache across calls gains
# nothing. One call takes about 3 s at this size, so a 30 s run uses about ten
# seeds; a run that uses up the pool ends early.
MC_SEEDS = tuple(range(1001, 1193))
# The untimed first call of a run: short, and outside the pool.
MC_WARMUP = (20, 1000)


def _mc_call(seed: int, trials: int = MC_TRIALS) -> Call:
    return Call(f"mc/trials={trials}/seed={seed}", "mc",
                ("mc", "--calibrate", "--trials", str(trials), "--seed", str(seed),
                 "--out", "mc.csv"), "mc.csv")


# -- sweep-dense: `sweep --compare` over every sweep.variable ------------------------

SWEEP_POINTS = 100
# Three grid variants per variable, all with SWEEP_POINTS points. The vcm grids
# run past the common-mode limit, so 3-7 of their points end as engine failures.
SWEEP_GRIDS = {
    "vid": ((-50e-3, 50e-3), (-45e-3, 55e-3), (-55e-3, 45e-3)),
    "vcm": ((0.1, 1.4), (0.05, 1.38), (0.15, 1.42)),
    "vdd": ((1.4, 2.0), (1.35, 1.95), (1.45, 2.05)),
    "temp": ((-40.0, 125.0), (-20.0, 100.0), (-55.0, 150.0)),
    "width_preamp": ((0.6e-6, 3.6e-6), (0.5e-6, 4.0e-6), (0.8e-6, 3.2e-6)),
    "width_inv_n": ((0.22e-6, 0.88e-6), (0.22e-6, 1.1e-6), (0.3e-6, 0.9e-6)),
    "width_inv_both": ((0.22e-6, 0.88e-6), (0.22e-6, 1.1e-6), (0.3e-6, 0.9e-6)),
}
# The corner sweep always visits the five corners; its variants change the temperature.
CORNER_TEMPS = (27.0, -40.0, 125.0)
SWEEP_VARIABLES = tuple(SWEEP_GRIDS) + ("corner",)


def _sweep_call(variable: str, variant: int) -> Call:
    argv = ["sweep", "--compare", "--set", f"sweep.variable={variable}"]
    if variable == "corner":
        argv += ["--set", f"temp_c={CORNER_TEMPS[variant]!r}"]
    else:
        start, stop = SWEEP_GRIDS[variable][variant]
        argv += ["--set", f"sweep.start={start!r}", "--set", f"sweep.stop={stop!r}",
                 "--set", f"sweep.points={SWEEP_POINTS}", "--set", "sweep.scale=linear"]
    out = f"sweep_{variable}.csv"
    return Call(f"sweep/{variable}/{variant}", "sweep", tuple(argv + ["--out", out]), out)


def _sweep_points(call: Call) -> int:
    return 5 if call.key.startswith("sweep/corner/") else SWEEP_POINTS


# -- design-loop: short CLI calls of a designer iterating on one design ---------------

SIM_VIDS = (1e-3, -1e-3, 5e-3, -5e-3, 20e-3, -20e-3, 50e-3, -50e-3)
SIM_CORNERS = ("TT", "FF", "SS", "FS", "SF")
SIZE_ALPHAS = tuple(round(1.0 + 0.1 * k, 1) for k in range(11))
CAL_TRIALS = tuple(range(24))
SWEEP20_TEMPS = (-20.0, 0.0, 27.0, 60.0, 85.0, 100.0)
# Config files written before timing, for `sim --config FILE --json`.
SIM_CONFIGS = (
    {"vdd": "1.8", "vid": "0.01", "temp_c": "27"},
    {"vdd": "1.6", "vid": "0.002", "temp_c": "85", "corner": "SS"},
    {"vdd": "2.0", "vid": "-0.03", "temp_c": "-20", "corner": "FF"},
    {"vdd": "1.8", "vid": "0.005", "freq": "500e6", "alpha": "2.0"},
    {"vdd": "1.7", "vid": "-0.001", "corner": "FS", "shutdown": "false"},
    {"vdd": "1.9", "vid": "0.04", "corner": "SF", "w.Mp4": "1.5e-6", "w.Mp5": "1.5e-6"},
)
REPORT_BUNDLE = "bundle"
REPORT_BUNDLE_TRIALS = 20
# Calls of each kind in one 40-call cycle; the exact mix keeps the latency
# distribution, and so its median and tail, the same from cycle to cycle.
DESIGN_MIX = (("sim", 12), ("simcfg", 6), ("sweep20", 6), ("report", 6),
              ("calibrate", 6), ("size", 4))


def _design_pools() -> dict[str, tuple[Call, ...]]:
    return {
        "sim": tuple(Call(f"sim/vid={v!r}/corner={c}", "sim",
                          ("sim", "--set", f"vid={v!r}", "--set", f"corner={c}",
                           "--out", "sim.csv"), "sim.csv")
                     for v in SIM_VIDS for c in SIM_CORNERS),
        "simcfg": tuple(Call(f"simcfg/{i}", "simcfg",
                             ("sim", "--config", f"point{i}.cfg", "--json", "--out", "simcfg.csv"),
                             "simcfg.csv")
                        for i in range(len(SIM_CONFIGS))),
        "sweep20": tuple(Call(f"sweep20/temp_c={t!r}", "sweep",
                              ("sweep", "--set", "sweep.variable=vid", "--set", f"temp_c={t!r}",
                               "--out", "sweep20.csv"), "sweep20.csv")
                         for t in SWEEP20_TEMPS),
        "report": (Call("report/bundle", "report",
                        ("report", "--from-dir", REPORT_BUNDLE, "--out", "report.txt"),
                        "report.txt"),),
        "calibrate": tuple(Call(f"calibrate/trial={k}", "calibrate",
                                ("calibrate", "--trial", str(k), "--out", "cal.csv"), "cal.csv")
                           for k in CAL_TRIALS),
        "size": tuple(Call(f"size/alpha={a!r}", "size",
                           ("size", "--set", f"alpha={a!r}", "--out", "size.csv"), "size.csv")
                      for a in SIZE_ALPHAS),
    }


# -- schedules ---------------------------------------------------------------------------


def cycles(workload: str, seed: int):
    """Sequence of cycles (lists of Op) for the workload, fixed by the seed.

    For mc-calibrated a cycle is one call, and the sequence ends once every
    pool seed has run once. The other workloads repeat cycles of the same
    composition without end: each sweep grid variant once, or the fixed
    design-loop mix. The seed sets the order, and for the design loop which
    pool entries fill the mix, taken in turn from a shuffled pool so all
    entries run equally often.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc-calibrated":
        for s in rng.sample(MC_SEEDS, len(MC_SEEDS)):
            yield [Op((_mc_call(s),), units=MC_TRIALS, trials=MC_TRIALS)]
    elif workload == "sweep-dense":
        while True:
            variants = {v: rng.sample(range(3), 3) for v in SWEEP_VARIABLES}
            cycle = []
            for k in range(3):
                variables = rng.sample(SWEEP_VARIABLES, len(SWEEP_VARIABLES))
                calls = tuple(_sweep_call(v, variants[v][k]) for v in variables)
                cycle.append(Op(calls, units=sum(_sweep_points(c) for c in calls)))
            yield cycle
    elif workload == "design-loop":
        queues = {kind: [] for kind, _ in DESIGN_MIX}
        pools = _design_pools()

        def take(kind):
            if not queues[kind]:
                queues[kind] = rng.sample(pools[kind], len(pools[kind]))
            return queues[kind].pop()

        while True:
            calls = [take(kind) for kind, count in DESIGN_MIX for _ in range(count)]
            rng.shuffle(calls)
            yield [Op((c,), units=1, trials=1 if c.kind == "calibrate" else 0) for c in calls]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def all_calls(workload: str) -> list[Call]:
    """Every pool entry of the workload, the set the reference covers."""
    if workload == "mc-calibrated":
        return [_mc_call(MC_WARMUP[1], MC_WARMUP[0])] + [_mc_call(s) for s in MC_SEEDS]
    if workload == "sweep-dense":
        return [_sweep_call(v, k) for v in SWEEP_VARIABLES for k in range(3)]
    if workload == "design-loop":
        return [c for pool in _design_pools().values() for c in pool]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup(workload: str, seed: int) -> Op:
    """The untimed first operation of a run, so that lazy imports and first-call
    set-up inside the process stay out of the timed loop."""
    if workload == "mc-calibrated":
        trials, mc_seed = MC_WARMUP
        return Op((_mc_call(mc_seed, trials),), units=trials, trials=trials)
    return next(cycles(workload, seed))[0]


def prepare(workload: str, workdir: Path) -> None:
    """Write the inputs the workload reads (untimed): config files and the report bundle."""
    if workload != "design-loop":
        return
    for i, values in enumerate(SIM_CONFIGS):
        lines = ["# design point written by the benchmark", "[point]"]
        lines += [f"{k} = {v}" for k, v in values.items()]
        (workdir / f"point{i}.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, err = run_call(("report", "--trials", str(REPORT_BUNDLE_TRIALS),
                        "--out-dir", REPORT_BUNDLE))
    if rc != 0:
        raise RuntimeError(f"writing the report bundle failed: {rc} {err.strip()}")


def run_call(argv) -> tuple[object, str]:
    """Run ``dyncomp.cli.main(argv)`` with stdout and stderr captured.

    Returns (exit status or exception text, stderr). Every call writes its
    results to a file, which the check reads. ``cli.main`` is looked up on
    the module at every call so a traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:       # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:               # a crash is a failed operation, not a benchmark abort
            rc = traceback.format_exc(limit=3)
    return rc, err.getvalue()


# -- facts and the reference check ---------------------------------------------------


def _read_csv(path: Path):
    meta, columns, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    if columns is None:
        raise ValueError(f"{path.name}: no header row")
    return meta, columns, rows


def _num(cell: str) -> float | None:
    x = float(cell)
    return None if math.isnan(x) else x


def _column(columns, rows, name) -> list:
    i = columns.index(name)
    return [row[i] for row in rows]


def _table_facts(path: Path) -> dict:
    """Decisions, late/failed counts and timing/energy columns of a sim or sweep CSV."""
    _, columns, rows = _read_csv(path)
    t_dm = [_num(x) for x in _column(columns, rows, "t_dm_s")]
    late = [int(x) for x in _column(columns, rows, "late")]
    failed = [x is None for x in t_dm]
    facts = {
        "exact": {
            "decisions": [int(x) for x in _column(columns, rows, "decision")],
            "late_rows": sum(1 for lt, fl in zip(late, failed) if lt and not fl),
            "failed_rows": sum(failed),
        },
        "sig9": {"t_dm_s": t_dm},
    }
    for name in ("t0_s", "t1_s", "t_esd_s", "energy_J", "energy_noesd_J"):
        if name in columns:
            facts["sig9"][name] = [_num(x) for x in _column(columns, rows, name)]
    if "shutdown" in columns:
        facts["exact"]["shutdown"] = [int(x) for x in _column(columns, rows, "shutdown")]
    return facts


def facts(call: Call, workdir: Path) -> dict:
    """What the reference check compares, extracted from the call's outputs.

    ``exact`` entries must match exactly, ``sig9`` entries to 9 significant
    digits and ``within_tol`` entries within ``tol`` volts; a report is a
    list of lines whose numbers must agree to 4 significant digits.
    """
    path = workdir / call.out
    if call.kind == "report":
        return {"report": path.read_text(encoding="utf-8").splitlines()}
    if call.kind in ("sim", "sweep"):
        got = _table_facts(path)
    elif call.kind == "simcfg":
        got = _table_facts(path)
        mirror = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        got["exact"]["json_decisions"] = [row[mirror["columns"].index("decision")]
                                          for row in mirror["rows"]]
    elif call.kind == "mc":
        meta, _, _ = _read_csv(path)
        got = {
            "exact": {f"{p}_{k}": int(meta[f"result.{p}_{k}"])
                      for p in ("before", "after") for k in ("n", "span_errors")},
            "within_tol": {f"{p}_{k}": float(meta[f"result.{p}_{k}_V"])
                           for p in ("before", "after") for k in ("mean", "sigma")},
            "tol": float(meta["cal.tol"]),
        }
    elif call.kind == "calibrate":
        meta, columns, rows = _read_csv(path)
        got = {
            "exact": {"s": [int(x) for x in _column(columns, rows, "s")],
                      "converged": meta["result.converged"],
                      "saturated": meta["result.saturated"]},
            "within_tol": {k: float(meta[f"result.{k}_V"])
                           for k in ("offset_before", "offset_after")},
            "tol": float(meta["cal.tol"]),
        }
    elif call.kind == "size":
        _, columns, rows = _read_csv(path)
        got = {"sig9": {k: [_num(x) for x in _column(columns, rows, k)]
                        for k in ("x", "y", "residual", "geom_residual_s")}}
    else:
        raise ValueError(f"unknown call kind {call.kind!r}")
    got["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return got


def _agree(a: float | None, b: float | None, digits: int) -> bool:
    """True when a equals b to ``digits`` significant digits (one unit of slack)."""
    if a is None or b is None:
        return a is None and b is None
    if a == b:
        return True
    if b == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(b))) - (digits - 1))
    return abs(a - b) <= unit * (1.0 + 1e-9)


def _report_errors(got: list[str], ref: list[str]) -> list[str]:
    """Compare report lines; `key: number ...` lines agree to 4 significant digits."""
    if len(got) != len(ref):
        return [f"report has {len(got)} lines, reference {len(ref)}"]
    errors = []
    for g, r in zip(got, ref):
        gk, _, gv = g.partition(": ")
        rk, _, rv = r.partition(": ")
        try:
            same = gk == rk and _agree(float(gv.split()[0]), float(rv.split()[0]), 4) \
                and gv.split()[1:] == rv.split()[1:]
        except (ValueError, IndexError):
            same = g == r
        if not same:
            errors.append(f"report line {g!r} != reference {r!r}")
    return errors


def compare(got: dict, ref: dict) -> list[str]:
    """Mismatches between extracted facts and the reference entry (empty when correct)."""
    if "report" in ref:
        return _report_errors(got["report"], ref["report"])
    errors = []
    for name, want in ref.get("exact", {}).items():
        if got["exact"].get(name) != want:
            errors.append(f"{name}: {got['exact'].get(name)!r} != reference {want!r}")
    for name, want in ref.get("sig9", {}).items():
        have = got["sig9"].get(name) or []
        if len(have) != len(want) or not all(map(_agree, have, want, [9] * len(want))):
            errors.append(f"{name}: differs from the reference beyond 9 significant digits")
    for name, want in ref.get("within_tol", {}).items():
        have = got["within_tol"][name]
        if abs(have - want) > ref["tol"]:
            errors.append(f"{name}: {have!r} differs from reference {want!r} by more than "
                          f"{ref['tol']!r} V")
    return errors


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["entries"]
