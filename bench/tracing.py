"""Span tracing of dyncomp's public functions, from outside the program.

``Tracer.install`` replaces each traced function by a wrapper at every name a
caller looks it up under: a function imported by name into another module
(``from .calibration import run_calibration``) is replaced there too, and
engine methods are replaced on the ``ComparatorEngine`` class. Each call
records a span (name, start, end, parent) in flat arrays that stay in memory
until the run ends; ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("devices", "engine", "calibration", "sizing", "config", "harness", "cli")

# Public functions traced per module. The scalar device helpers called inside
# every simulate (beta, threshold, apply_corner, ...) are left out: wrapping
# them would multiply the tracing overhead of the engine.
FUNCTIONS = {
    "devices": ("sample_mismatch", "default_geometry"),
    "calibration": ("monte_carlo", "run_calibration", "measure_offset", "residual_bound"),
    "sizing": ("solve_sizing", "scaled_config", "width_sweep", "balance_residual_for"),
    "config": ("parse_config", "apply_overrides", "set_key", "resolved_metadata",
               "config_from_metadata", "build_comparator_config", "build_operating_point",
               "build_calibration_config"),
    "harness": ("run_single", "run_sweep", "run_montecarlo", "run_calibrate_once",
                "run_sizing", "render_csv", "emit_csv", "render_json", "emit_json",
                "load_csv", "collect_report_inputs", "report_text", "write_report_bundle",
                "load_report_bundle"),
    "cli": ("main", "load_runconfig", "build_parser"),
}
# ComparatorEngine methods, traced on the class; __init__ counts engine constructions.
ENGINE_METHODS = {"__init__": "engine.ComparatorEngine", "simulate": "engine.simulate",
                  "params_at": "engine.params_at"}


def _render_csv_bytes(counters, args, kwargs, result):
    counters["harness.render_csv.bytes"] += len(result.encode("utf-8"))


def _load_csv_bytes(counters, args, kwargs, result):
    counters["harness.load_csv.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _sweep_rows(counters, args, kwargs, result):
    t_dm = result.columns.index("t_dm_s")
    late = result.columns.index("late")
    for row in result.rows:
        if isinstance(row[t_dm], float) and math.isnan(row[t_dm]):
            counters["harness.sweep.failed_rows"] += 1
        elif row[late]:
            counters["harness.sweep.late_rows"] += 1


def _calibration_outcome(counters, args, kwargs, result):
    counters["calibration.converged"] += int(result.converged)
    counters["calibration.saturated"] += int(result.saturated)


def _exit_status(counters, args, kwargs, result):
    counters["cli.main.nonzero_exits"] += int(result != 0)


# Per-call observers that turn return values into counters.
OBSERVERS = {
    "harness.render_csv": _render_csv_bytes,
    "harness.load_csv": _load_csv_bytes,
    "harness.run_sweep": _sweep_rows,
    "calibration.run_calibration": _calibration_outcome,
    "cli.main": _exit_status,
}


class Tracer:
    """Records one span per traced call; spans of all cycles are kept until the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        observe = OBSERVERS.get(name)
        counters = self.counters
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every module attribute that refers to it."""
        modules = [importlib.import_module("dyncomp")]
        modules += [importlib.import_module(f"dyncomp.{m}") for m in MODULES]
        for owner, names in FUNCTIONS.items():
            home = importlib.import_module(f"dyncomp.{owner}")
            for attr in names:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{owner}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, original, wrapper)
        engine_cls = importlib.import_module("dyncomp.engine").ComparatorEngine
        for attr, name in ENGINE_METHODS.items():
            original = engine_cls.__dict__[attr]
            self._patch(engine_cls, attr, original, self.wrap(name, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, for splitting the record into cycles."""
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, inclusive and self seconds over spans [lo, hi).

        Self time is a span's duration minus the time its child spans cover;
        calls run on one thread, so children nest inside their parent.
        """
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        sim = self._ids.get("engine.simulate")
        offset = self._ids.get("calibration.measure_offset")
        sims_in_offset = 0
        for i in range(lo, hi):
            k = name_id[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            self_s[k] += d
            p = parent[i]
            if p >= 0:
                self_s[name_id[p]] -= d
                if k == sim and name_id[p] == offset:
                    sims_in_offset += 1
        spans = {self.names[k]: {"calls": calls[k], "total_s": total[k], "self_s": self_s[k]}
                 for k in range(n) if calls[k]}
        return {"spans": spans, "simulates_in_offset": sims_in_offset}
