"""Config parsing, table emission, and the command-line front end."""
import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncomp import cli, devices, harness, sizing
from dyncomp.calibration import CalibrationConfig
from offset_oracle import scalar_offsets
from sweep_oracle import run_sweep_oracle
from dyncomp.cli import build_parser, main
from dyncomp.config import (_KEYS, _PREFIXED, SWEEPS, RunConfig, apply_overrides,
                            build_calibration_config, build_comparator_config,
                            build_device_params, build_operating_point, config_from_metadata,
                            parse_config, resolved_metadata, set_key)
from dyncomp.devices import CORNERS, DEFAULT_NMOS, DEFAULT_PMOS, CornerSpec, default_geometry
from dyncomp.engine import (EXTRA_NODES, ComparatorConfig, ComparatorEngine, DecisionKernel,
                            OperatingPoint)
from dyncomp.errors import ConfigError, SimulationError
from dyncomp.harness import (REPORT_SWEEP_VARIABLES, Table, _column, _parse_cell, emit_csv,
                             load_csv, render_csv, render_json, replace_runconfig,
                             run_calibrate_once, run_montecarlo, run_single, run_sizing, run_sweep)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# Keys that take a number: numeric or auto by default, plus the capacitor
# list and one key of each prefixed family.
NUMERIC_KEYS = [k for k, v in resolved_metadata(RunConfig()).items()
                if _is_number(v) or v == "auto"] + ["cal.caps", "w.Mp1", "l.Mp1", "extra.out"]

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
AT_LEAST_1 = st.integers(min_value=1, max_value=10**6)
BOOL = st.sampled_from(["true", "false", "1", "0", "yes", "no", "on", "off"])


def auto(strategy):
    return st.one_of(st.sampled_from(["auto", "none"]), strategy)


# A strategy of valid values for every scalar config key.
VALID = {
    "vdd": POSITIVE, "vcm": auto(NONNEGATIVE), "vid": FINITE, "freq": POSITIVE,
    "corner": st.sampled_from([c for name in CORNERS for c in (name, name.lower())]),
    "temp_c": st.floats(min_value=-273.15, exclude_min=True, allow_infinity=False),
    "alpha": st.floats(min_value=1.0, allow_infinity=False), "shutdown": BOOL,
    "tie_break": st.sampled_from([1, -1]),
    "tail_derating": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    "gamma": NONNEGATIVE, "phi2f": POSITIVE, "cox_area": POSITIVE,
    "nmos.mu_cox": POSITIVE, "nmos.vth0": POSITIVE,
    "pmos.mu_cox": POSITIVE, "pmos.vth0": POSITIVE,
    "avt": NONNEGATIVE, "abeta": NONNEGATIVE,
    "sweep.variable": st.sampled_from(tuple(SWEEPS) + ("none",)),
    "sweep.start": auto(FINITE), "sweep.stop": auto(FINITE),
    "sweep.points": auto(st.integers(min_value=2, max_value=10**6)),
    "sweep.scale": st.sampled_from(["linear", "log"]),
    "seed": st.integers(0, 2**63), "trials": AT_LEAST_1, "calibrate": BOOL,
    "cal.cycles": AT_LEAST_1, "cal.phases": AT_LEAST_1,
    "cal.cb": POSITIVE, "cal.c0": POSITIVE,
    "cal.caps": st.lists(POSITIVE, min_size=1, max_size=6).map(
        lambda caps: ", ".join(map(str, caps))),
    "cal.cp_beta": POSITIVE, "cal.cp_vthn": FINITE,
    "cal.period": auto(POSITIVE), "cal.vref": auto(FINITE),
    "cal.tol": POSITIVE, "cal.span": POSITIVE,
}
CONFIG_PAIRS = st.builds(
    lambda *parts: {k: v for part in parts for k, v in part.items()},
    st.fixed_dictionaries({k: s.map(str) for k, s in VALID.items()}),
    st.dictionaries(st.sampled_from([f"{p}.{n}" for p in "wl" for n in default_geometry()]),
                    POSITIVE.map(str)),
    st.dictionaries(st.sampled_from([f"extra.{n}" for n in EXTRA_NODES]),
                    NONNEGATIVE.map(str)))


class TestParseConfig:
    def test_empty_gives_typical_defaults(self):
        cfg = parse_config("")
        assert cfg.vdd == 1.8
        assert cfg.vcm is None
        assert build_operating_point(cfg).vcm == 0.9
        assert cfg.vid == 50e-3
        assert cfg.freq == 333e6
        assert cfg.temp_c == 27.0
        assert build_operating_point(cfg).t_kelvin == pytest.approx(300.15)
        assert cfg.corner == "TT"
        assert cfg.shutdown is True

    def test_sections_and_comments(self):
        text = """
        # a comment
        [operating]
        vdd = 1.6
        vcm = 0.7   ; trailing comment
        [sweep]
        sweep.variable = vid
        """
        cfg = parse_config(text)
        assert cfg.vdd == 1.6 and cfg.vcm == 0.7
        assert cfg.sweep_variable == "vid"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="vddd"):
            parse_config("vddd = 1.8")

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="vdd"):
            parse_config("vdd = -1")
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials = 0")
        # A batch's trial indices stop at 2**32 - 1.
        assert parse_config(f"trials = {2**32}").trials == 2**32
        with pytest.raises(ConfigError, match="trials"):
            parse_config(f"trials = {2**32 + 1}")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 0.5")
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = -1")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("vdd = 1.8\n\nnot a pair\n")

    def test_duplicate_last_wins_with_warning(self):
        cfg = parse_config("vdd = 1.6\nvdd = 1.7\n")
        assert cfg.vdd == 1.7
        assert any("vdd" in w for w in cfg.warnings)

    def test_geometry_and_load_overrides(self):
        cfg = parse_config("w.Mp4 = 2.4e-6\nl.Mp4 = 0.36e-6\nextra.out = 1e-15\n")
        built = build_comparator_config(cfg)
        assert built.geoms["Mp4"].w == 2.4e-6
        assert built.geoms["Mp4"].l == 0.36e-6
        assert built.extra_load["out"] == 1e-15
        with pytest.raises(ConfigError, match="Mq9"):
            parse_config("w.Mq9 = 1e-6")

    @pytest.mark.parametrize("pairs, message", [
        (["w.Mp4=1e-7", "w.Mp5=1e-7"], "w.Mp4: Mp4: width 1e-07 below minimum 2.2e-07"),
        (["l.Mn3=1e-8", "l.Mn4=1e-8"], "l.Mn3: Mn3: length 1e-08 below minimum 1.8e-07"),
    ], ids=["width", "length"])
    def test_geometry_error_names_key(self, pairs, message, capsys):
        with pytest.raises(ConfigError) as exc:
            build_comparator_config(apply_overrides(RunConfig(), pairs))
        assert str(exc.value) == message
        assert main(["sim", *(arg for pair in pairs for arg in ("--set", pair))]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"

    def test_corner_case_insensitive(self):
        assert parse_config("corner = ff").corner == "FF"
        with pytest.raises(ConfigError, match="corner"):
            parse_config("corner = XX")

    def test_cal_caps_list(self):
        cfg = parse_config("cal.caps = 1e-13, 2e-13\ncal.cycles = 2\n")
        cal = build_calibration_config(cfg)
        assert cal.dac_caps == (1e-13, 2e-13)
        assert cal.n_cycles == 2

    @pytest.mark.parametrize("value", ["1e-15,,2e-15", "1e-15,2e-15,", ",1e-15", "1e-15, ,2e-15",
                                       "", " "])
    def test_cal_caps_empty_entry(self, value):
        # An empty entry is an error, not a capacitor fewer.
        with pytest.raises(ConfigError, match=r"^cal\.caps: .*no empty entry"):
            apply_overrides(RunConfig(), [f"cal.caps={value}"])

    def test_overrides(self):
        cfg = RunConfig()
        apply_overrides(cfg, ["vid=1e-3", "shutdown=false"])
        assert cfg.vid == 1e-3 and cfg.shutdown is False
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["novalue"])

    def test_cal_defaults_stay_in_sync(self):
        built = build_calibration_config(RunConfig())
        assert built == CalibrationConfig()
        # The other defaults in _KEYS are the model classes' too.
        assert build_comparator_config(RunConfig()) == ComparatorConfig()
        assert build_device_params(RunConfig()) == (DEFAULT_NMOS, DEFAULT_PMOS)
        assert build_operating_point(RunConfig()) == OperatingPoint()
        # Each RunConfig has dicts and lists of its own.
        a, b = RunConfig(), RunConfig()
        shared = [name for name, value in vars(a).items()
                  if isinstance(value, (dict, list)) and value is getattr(b, name)]
        assert shared == []

    def test_readme_documents_every_key(self):
        # Every scalar key and every prefix appears backticked in README's
        # "Configuration" section.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        missing = ([key for key in _KEYS if f"`{key}`" not in section]
                   + [f"{prefix}." for prefix in _PREFIXED if f"`{prefix}." not in section])
        assert missing == []

    @given(pairs=CONFIG_PAIRS)
    @example(pairs={"vdd": "1.6", "w.Mp4": "2.4e-6", "w.Mp5": "2.4e-6",
                    "sweep.variable": "vcm", "cal.cp_vthn": "-0.3"})
    def test_metadata_round_trip(self, pairs):
        assert set(VALID) == set(resolved_metadata(RunConfig()))
        cfg = RunConfig()
        for key, value in pairs.items():
            set_key(cfg, key, value)
        assert config_from_metadata(resolved_metadata(cfg)) == cfg

    def test_metadata_of_a_key_set_to_its_default(self):
        # A key left at its default object is emitted as its default's text,
        # which must be the text of the same value parsed from the config.
        default = resolved_metadata(RunConfig())
        cfg = RunConfig()
        for key, text in default.items():
            set_key(cfg, key, text)
        assert all(getattr(cfg, key.replace(".", "_")) is not value  # parsed anew
                   for key, (_, _, value) in _KEYS.items() if isinstance(value, (float, tuple)))
        assert resolved_metadata(cfg) == default

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_non_finite_rejected_by_key(self, key, bad):
        with pytest.raises(ConfigError, match=re.escape(key)):
            set_key(RunConfig(), key, bad)


class TestTables:
    def test_csv_format(self):
        table = run_single(RunConfig())
        text = render_csv(table)
        lines = text.splitlines()
        assert lines[0] == "# tool=dyncomp-sim"
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].startswith("vid_V,decision,")
        assert "t_dm_s" in lines[header_idx]

    def test_csv_numeric_round_trip(self, tmp_path):
        cfg = replace_runconfig(RunConfig(), sweep_variable="vid")
        table = run_sweep(cfg)
        path = tmp_path / "t.csv"
        path.write_text(render_csv(table), encoding="utf-8")
        loaded = load_csv(path)
        assert loaded.columns == table.columns
        for a, b in zip(loaded.rows, table.rows):
            assert a == b  # rows are normalized to 9 significant digits

    def test_sweep_row_count_and_order(self):
        cfg = replace_runconfig(RunConfig(), sweep_variable="vid", sweep_points=7)
        table = run_sweep(cfg)
        assert len(table.rows) == 7
        vids = [r[0] for r in table.rows]
        assert vids == sorted(vids)

    def test_corner_sweep_rows(self):
        cfg = replace_runconfig(RunConfig(), sweep_variable="corner")
        table = run_sweep(cfg)
        assert [r[0] for r in table.rows] == ["TT", "FF", "SS", "FS", "SF"]

    def test_vcm_sweep_has_log_hint(self):
        cfg = replace_runconfig(RunConfig(), sweep_variable="vcm")
        assert run_sweep(cfg).metadata["plot_scale"] == "log"

    def test_compare_adds_savings(self):
        cfg = replace_runconfig(RunConfig(), sweep_variable="vid", sweep_points=4)
        table = run_sweep(cfg, compare=True)
        assert "savings_pct" in table.columns
        idx = table.columns.index("savings_pct")
        assert all(row[idx] > 0 for row in table.rows)

    def test_failed_points_flagged(self):
        cfg = replace_runconfig(RunConfig(), sweep_variable="vcm",
                                sweep_start=1.3, sweep_stop=1.45, sweep_points=4)
        table = run_sweep(cfg)
        late = table.columns.index("late")
        tdm = table.columns.index("t_dm_s")
        assert len(table.rows) == 4
        assert any(row[late] == 1 and math.isnan(row[tdm]) for row in table.rows)

    def test_json_mirror(self):
        table = run_single(RunConfig())
        payload = json.loads(render_json(table))
        assert payload["columns"] == list(table.columns)
        assert payload["metadata"]["tool"] == "dyncomp-sim"

    def test_mc_table(self):
        cfg = replace_runconfig(RunConfig(), trials=20, calibrate=True)
        before, after, table = run_montecarlo(cfg)
        assert before.n == 20 and after is not None
        phases = {row[0] for row in table.rows}
        assert phases == {"before", "after"}
        assert "result.after_sigma_V" in table.metadata


    def test_load_csv_inverts_render_csv(self, tmp_path):
        base = RunConfig()
        tables = [
            run_single(base),
            run_sweep(replace_runconfig(base, sweep_variable="vid"), compare=True),
            run_sweep(replace_runconfig(base, sweep_variable="corner"), compare=True),
            run_sweep(replace_runconfig(base, sweep_variable="vcm", sweep_start=1.3,
                                        sweep_stop=1.45, sweep_points=4)),
            run_montecarlo(replace_runconfig(base, trials=20, calibrate=True))[2],
            run_calibrate_once(base, trial=2)[1],
            run_sizing(base),
            run_sizing(replace_runconfig(base, alpha=2.0)),
        ]

        def cells(rows):
            return [tuple("nan" if isinstance(x, float) and math.isnan(x) else x
                          for x in row) for row in rows]

        for k, table in enumerate(tables):
            path = tmp_path / f"{k}.csv"
            emit_csv(table, path)
            loaded = load_csv(path)
            assert (loaded.metadata, loaded.columns) == (table.metadata, table.columns)
            assert cells(loaded.rows) == cells(table.rows)
            assert render_csv(loaded) == render_csv(table)

    @pytest.mark.parametrize("text, value", [
        ("5", 5), ("-0", -0.0), ("05", 5.0), ("+5", 5.0), ("1_000", 1000.0), ("2", 2),
        ("1e-09", 1e-09), ("nan", math.nan), ("inf", math.inf), ("TT", "TT"), ("", ""),
    ])
    def test_parse_cell_rules(self, text, value):
        # An int only where the text is the int's str(), else a float, else the text.
        got = _parse_cell(text)
        assert (type(got), repr(got)) == (type(value), repr(value))

    @pytest.mark.parametrize("text, value", [
        ("\u0661\u0662", 12.0), (" 7", 7.0), ("007", 7.0), ("-12", -12), ("-007", -7.0),
        ("--12", "--12"), ("\u00b2", "\u00b2"), ("1" * 5000, math.inf),
    ])
    def test_parse_cell_digit_texts(self, text, value):
        # Texts a digit check before int() could misread: non-ASCII digits
        # (str.isdigit accepts superscripts, which int() rejects), padding,
        # leading zeros, signs, and more digits than int() converts.
        got = _parse_cell(text)
        assert (type(got), repr(got)) == (type(value), repr(value))

    @pytest.mark.parametrize("variable", list(SWEEPS))
    def test_one_engine_per_sweep(self, monkeypatch, variable):
        # Width rows carry their widths as columns of the one configured
        # engine: no sweep builds a second engine or a scaled configuration.
        engines = count_calls(monkeypatch, "__init__")
        scaled = []
        monkeypatch.setattr(sizing, "scaled_config", lambda *args: scaled.append(args))
        run_sweep(sweep_of(variable), compare=True)
        assert (len(engines), scaled) == (1, [])

    @pytest.mark.parametrize("variable", list(SWEEPS))
    def test_one_simulate_per_compare_point(self, monkeypatch, variable):
        # Every sweep evaluates its grid in one simulate_grid pass: no point
        # runs the scalar simulate.
        calls = count_calls(monkeypatch, "simulate")
        run_sweep(sweep_of(variable), compare=True)
        assert len(calls) == 0

    @pytest.mark.parametrize("variable, groups", [
        (v, {"temp": 4, "corner": len(CORNERS)}.get(v, 1)) for v in SWEEPS])
    def test_one_params_at_per_compare_point(self, monkeypatch, variable, groups):
        # The grid spans ``groups`` distinct (corner, temperature) pairs. A
        # sweep whose rows share one pair passes it as one value, and one
        # params_at call resolves it. The temp and corner sweeps pass columns,
        # whose device parameters one params_columns call computes; a valid
        # sweep of them resolves none through params_at.
        calls = count_calls(monkeypatch, "params_at")
        columns = count_params_columns(monkeypatch)
        pairs, shared = [], []
        simulate_grid = harness.simulate_grid

        def spy(engine, vid, vcm, vdd, corner, t_kelvin, *args):
            one = isinstance(corner, CornerSpec), isinstance(t_kelvin, float)
            shared.append(all(one))
            corners, temps = ([x] * len(vid) if o else x for x, o in zip((corner, t_kelvin), one))
            pairs.append(set(zip(map(id, corners), temps)))
            return simulate_grid(engine, vid, vcm, vdd, corner, t_kelvin, *args)

        monkeypatch.setattr(harness, "simulate_grid", spy)
        run_sweep(sweep_of(variable), compare=True)
        assert ([len(p) for p in pairs], shared) == ([groups], [groups == 1])
        assert (len(calls), len(columns)) == ((1, 0) if groups == 1 else (0, 1))

    @pytest.mark.parametrize("variable", list(SWEEPS))
    def test_sweep_rows_parsed_only_when_read(self, monkeypatch, variable):
        # Writing a sweep's CSV parses no cell of its formatted lines; reading
        # rows parses them once, each cell of the type and value the per-point
        # loop builds (2.0 stays a float, NaN cells included).
        parses = []
        parse = harness._parse_text
        monkeypatch.setattr(harness, "_parse_text",
                            lambda *args: parses.append(args) or parse(*args))
        cfg = sweep_of(variable)
        if variable == "vcm":
            cfg.sweep_stop = 1.45  # past the common-mode limit: failed rows, NaN cells
        table = run_sweep(cfg, compare=True)
        render_csv(table)
        assert parses == []
        typed = lambda rows: [[(type(x), repr(x)) for x in row] for row in rows]
        assert typed(table.rows) == typed(run_sweep_oracle(cfg, compare=True).rows)
        assert table.rows is table.rows and len(parses) == 1

    @pytest.mark.parametrize("calibrate, per_trial", [(False, 1), (True, 8)])
    def test_simulates_per_mc_trial(self, monkeypatch, calibrate, per_trial):
        # Monte Carlo calls no simulate: its decisions come from the flip
        # point, found once per trial for one bisection, and 8 times for
        # before, the 6 cycles and after. Its one kernel reads the operating
        # point's device parameters from one params_at call, and nothing
        # resolves them as columns.
        calls = count_calls(monkeypatch, "simulate")
        params_at = count_calls(monkeypatch, "params_at")
        columns = count_params_columns(monkeypatch)
        rows = count_flip_point_rows(monkeypatch)
        before, _, _ = run_montecarlo(replace_runconfig(RunConfig(), trials=5,
                                                        calibrate=calibrate))
        assert before.span_errors == 0
        assert calls == []
        assert sum(rows) == 5 * per_trial
        assert (len(params_at), columns) == (1, [])

    def test_fixed_cost_of_one_calibration(self, monkeypatch):
        # calibrate --trial runs the Monte Carlo kernel on a batch of one
        # trial: eight one-row flip points, one params_at call, no simulate
        # and no parameter columns.
        calls = count_calls(monkeypatch, "simulate")
        params_at = count_calls(monkeypatch, "params_at")
        columns = count_params_columns(monkeypatch)
        rows = count_flip_point_rows(monkeypatch)
        run_calibrate_once(RunConfig(), trial=2)
        assert (calls, rows, len(params_at), columns) == ([], [1] * 8, 1, [])

    @pytest.mark.parametrize("key, value", [("sweep.start", "0.1"), ("sweep.stop", "1"),
                                            ("sweep.points", "3"), ("sweep.scale", "log")])
    def test_corner_sweep_rejects_grid_keys(self, key, value):
        cfg = apply_overrides(RunConfig(), ["sweep.variable=corner", f"{key}={value}"])
        with pytest.raises(ConfigError, match=re.escape(key)):
            run_sweep(cfg)


class TestSweepTable:
    def test_parser_accepts_exactly_the_table(self):
        for name in SWEEPS:
            assert apply_overrides(RunConfig(), [f"sweep.variable={name}"]).sweep_variable == name
        assert apply_overrides(RunConfig(), ["sweep.variable=none"]).sweep_variable is None
        for name in ("width", "width_", "width_inv_p", "VID", "temp_C", "w_m", "corners"):
            with pytest.raises(ConfigError, match="sweep.variable"):
                apply_overrides(RunConfig(), [f"sweep.variable={name}"])

    def test_readme_table_is_the_table(self):
        # Each row of README's sweep table states its variable's value column
        # and default grid, in the units the row names; the corner row names
        # the corners in CORNERS order.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^  \| `(\w+)` \| `(\w+)`[^|]*\| (.+) \|$", readme, re.M)
        exponent = {"mV": "e-3", "V": "", "C": "", "µm": "e-6"}
        stated = {}
        for variable, column, grid in rows:
            ends = re.fullmatch(r"(\S+) (\S+) to (\S+) (\S+), (\d+) points", grid)
            stated[variable] = (column, (tuple(re.findall(r"\w+", grid.split("corners ")[1]))
                                         if ends is None else
                                         (float(ends[1] + exponent[ends[2]]),
                                          float(ends[3] + exponent[ends[4]]), int(ends[5]))))
        assert stated == {name: (sweep.column, tuple(CORNERS) if sweep.grid is None
                                 else sweep.grid) for name, sweep in SWEEPS.items()}

    @pytest.mark.parametrize("variable", SWEEPS)
    def test_default_sweep_follows_the_table(self, variable, tmp_path):
        sweep = SWEEPS[variable]
        points = len(CORNERS) if sweep.grid is None else sweep.grid[2]
        for flags in ([], ["--compare"]):
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--set", f"sweep.variable={variable}", *flags,
                         "--out", str(out)]) == 0
            table = load_csv(out)
            assert table.columns[0] == sweep.column
            assert len(table.rows) == points
            assert ("savings_pct" in table.columns) == bool(flags)


def sweep_of(variable: str) -> RunConfig:
    """A 4-point sweep of ``variable``; the corner sweep takes every corner."""
    points = {} if SWEEPS[variable].grid is None else {"sweep_points": 4}
    return replace_runconfig(RunConfig(), sweep_variable=variable, **points)


def columns_of(table: Table, keep: list[int]) -> Table:
    """``table`` with only the columns ``keep``, in that order, cut from its text."""
    return Table(tuple(table.columns[k] for k in keep),
                 [",".join(line.split(",")[k] for k in keep) for line in table.text],
                 tuple(table.types[k] for k in keep), table.metadata)


def set_cell(table: Table, row: int, k: int, text: str) -> None:
    """Write ``text`` as the cell of column ``k`` in the CSV line of ``row``."""
    cells = table.text[row].split(",")
    cells[k] = text
    table.text[row] = ",".join(cells)


def count_calls(monkeypatch, method: str) -> list:
    """Record every call of the ComparatorEngine ``method`` in the returned list."""
    calls = []
    original = getattr(ComparatorEngine, method)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ComparatorEngine, method, counting)
    return calls


def count_params_columns(monkeypatch) -> list:
    """Record every call of devices.params_columns in the returned list."""
    calls = []
    original = devices.params_columns
    monkeypatch.setattr(devices, "params_columns",
                        lambda *args: calls.append(args) or original(*args))
    return calls


def count_parse_passes(monkeypatch) -> list:
    """Record the prog of every ArgumentParser.parse_known_args call in the returned list."""
    progs = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        progs.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return progs


def count_flip_point_rows(monkeypatch) -> list:
    """Record the number of rows of every DecisionKernel.flip_point call in the returned list."""
    rows = []
    original = DecisionKernel.flip_point

    def counting(self, trials, *args):
        rows.append(len(trials))
        return original(self, trials, *args)

    monkeypatch.setattr(DecisionKernel, "flip_point", counting)
    return rows


@settings(deadline=None)
@given(vid=st.floats(-0.1, 0.1), vcm_share=st.floats(0.0, 1.0), vdd=st.floats(1.3, 2.1),
       temp_c=st.floats(-55.0, 150.0), corner=st.sampled_from(sorted(CORNERS)))
def test_compare_energy_is_the_no_shutdown_engine(vid, vcm_share, vdd, temp_c, corner):
    vcm = vcm_share * vdd
    cfg = replace_runconfig(RunConfig(), vdd=vdd, vcm=vcm, temp_c=temp_c, corner=corner,
                            sweep_variable="vid", sweep_start=vid, sweep_stop=vid,
                            sweep_points=2)
    table = run_sweep(cfg, compare=True)
    row = dict(zip(table.columns, table.rows[0]))
    engine_off = ComparatorEngine(ComparatorConfig(vdd=vdd, early_shutdown_enabled=False))
    op = OperatingPoint(vid=vid, vcm=vcm, corner=CORNERS[corner], t_kelvin=temp_c + 273.15)
    try:
        expected = engine_off.simulate(op).energy.total
    except SimulationError:
        assert math.isnan(row["energy_noesd_J"])
        return
    assert row["energy_noesd_J"] == float(f"{expected:.9g}")
    assert row["energy_J"] <= row["energy_noesd_J"]


# Command lines whose parse cli.main must share with the full parse_args:
# every subcommand with its options, repeated --set, help and version before
# and after a subcommand, an unknown command, leftover tokens, bad option
# values, abbreviated options, unknown options without a subcommand and no
# arguments.
PARSE_CASES = [
    ["sim", "--config", "c.cfg", "--set", "vid=0.02", "--set", "vdd=1.7", "--out", "o.csv",
     "--json", "--seed", "3", "--trials", "9", "--no-shutdown", "--calibrate"],
    ["sweep", "--compare", "--set", "sweep.variable=vid", "--out", "s.csv"],
    ["mc", "--calibrate", "--trials", "20", "--seed", "4"],
    ["calibrate", "--trial", "2", "--set", "cal.tol=1e-4"],
    ["size", "--set", "alpha=2", "--set", "alpha=3"],
    ["report", "--out-dir", "d", "--from-dir", "e", "--out", "r.txt"],
    ["sweep", "--comp", "--tri", "5"],
    ["-h"], ["--version"], ["-h", "sweep"], ["--version", "sim"],
    ["sim", "-h"], ["report", "--help"], ["sim", "--version"],
    ["nosuch"], ["nosuch", "--seed", "1"],
    ["sweep", "--bogus"], ["sim", "extra"], ["sim", "--", "x"], ["sim", "--=x"],
    ["sim", "--seed", "x"], ["calibrate", "--trial", "one"], ["sim", "--out"], [],
    ["--bogus"], ["--vers"], ["--bogus", "--vers"],
]


def parse_outcome(parse, argv, capsys) -> tuple:
    """(vars of parse(argv)'s namespace or None, its exit code or None, stdout, stderr)."""
    try:
        namespace, code = vars(parse(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    return (namespace, code, *capsys.readouterr())


class Parsed(Exception):
    """Raised where cli.main has parsed its arguments, carrying their namespace."""


def main_parse(monkeypatch):
    """A parse through cli.main, which stops where it loads the run config."""
    def stop(args):
        raise Parsed(args)

    monkeypatch.setattr(cli, "load_runconfig", stop)

    def parse(argv):
        with pytest.raises(Parsed) as parsed:
            main(argv)
        return parsed.value.args[0]
    return parse


class TestCli:
    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_one_pass_parse_is_the_full_parse(self, argv, monkeypatch, capsys):
        full = parse_outcome(build_parser().parse_args, argv, capsys)
        assert parse_outcome(main_parse(monkeypatch), argv, capsys) == full

    @pytest.mark.parametrize("argv, token", [(["mc", "--trial", "3"], "--trial 3"),
                                             (["sim", "--cal"], "--cal"), (["sim", "--=x"], "--=x")])
    def test_abbreviated_option_is_rejected(self, argv, token, tmp_path, capsys):
        # An option takes its full name only: mc's --trial is not --trials,
        # and sim's --cal is not --calibrate. Nothing runs.
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--out", str(tmp_path / "out.csv")])
        assert raised.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {token}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, error", [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--vers"], "unrecognized arguments: --vers"),
        (["--bogus", "--vers"], "unrecognized arguments: --bogus --vers"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'sim', "),
    ], ids=["--bogus", "--vers", "--bogus --vers", "empty", "bogus"])
    def test_line_without_subcommand_names_its_fault(self, argv, error, capsys):
        # Unknown options are named as such, not reported as a missing
        # command; only an empty line misses it.
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"dyncomp-sim: error: {error}")

    @pytest.mark.parametrize("flag, out", [("-h", "usage: dyncomp-sim [-h] [--version] {sim,"),
                                           ("--version", "dyncomp-sim ")])
    def test_help_and_version_need_no_subcommand(self, flag, out, capsys):
        with pytest.raises(SystemExit) as raised:
            main([flag])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith(out)

    def test_no_prefix_stands_for_an_option(self):
        # Every proper prefix of every long option, in the top-level parser
        # and in each subcommand's, is left over unparsed.
        top = build_parser()
        for command, parser in [(None, top), *top.commands.items()]:
            options = [name for name in parser._option_string_actions if name.startswith("--")]
            prefixes = {name[:n] for name in options for n in range(3, len(name))} - set(options)
            assert prefixes
            for prefix in prefixes:
                argv = [prefix, "sim"] if command is None else [command, prefix]
                assert top.parse_known_args(argv)[1] == [prefix]

    def test_one_pass_parse_reads_sys_argv(self, monkeypatch, capsys):
        for argv in (["sweep", "--seed", "2", "--set", "vid=0.01"], ["sim", "extra"]):
            monkeypatch.setattr(sys, "argv", ["dyncomp-sim", *argv])
            full = parse_outcome(build_parser().parse_args, None, capsys)
            assert parse_outcome(main_parse(monkeypatch), None, capsys) == full

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_one_parse_pass_per_call(self, command, tmp_path, monkeypatch):
        argv = [command, "--trials", "5", "--set", "sweep.variable=vid",
                "--out", str(tmp_path / "out")]
        if command == "report":  # the report's sweeps take the variable themselves
            argv[3:5] = []
        progs = count_parse_passes(monkeypatch)
        assert main(argv) == 0
        assert progs == [f"dyncomp-sim {command}"]

    def test_every_output_file_is_written_by_write_text(self, tmp_path, monkeypatch):
        written = []
        original = harness.write_text
        monkeypatch.setattr(harness, "write_text",
                            lambda path, text: written.append(Path(path)) or original(path, text))
        assert main(["report", "--trials", "25", "--out-dir", str(tmp_path / "bundle"),
                     "--out", str(tmp_path / "report.txt")]) == 0
        assert main(["sim", "--json", "--out", str(tmp_path / "sim.csv")]) == 0
        files = sorted(path for path in tmp_path.rglob("*") if path.is_file())
        assert sorted(written) == files
        assert {path.name for path in files} >= {"report.txt", "sim.csv", "sim.json", "size.csv"}
        assert not any(b"\r" in path.read_bytes() for path in files)

    def test_sim_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["sim", "--out", str(out)]) == 0
        assert out.read_text().startswith("# tool=dyncomp-sim")

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--set", "sweep.variable=vid", "--seed", "9"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [["calibrate"], ["mc", "--calibrate", "--trials", "20"]])
    def test_tolerance_below_one_ulp_returns(self, tmp_path, argv):
        # Below one ulp of the offset the bisection's midpoint rounds onto an
        # end of its interval, and the walk stops there. A separate process,
        # so that a walk that never stops fails on the timeout.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = "import sys\nfrom dyncomp.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        subprocess.run([sys.executable, "-c", script, *argv, "--set", "cal.tol=1e-20"],
                       cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, check=True,
                       capture_output=True, timeout=60)

    def test_json_flag(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["sim", "--out", str(out), "--json"]) == 0
        mirror = json.loads(out.with_suffix(".json").read_text())
        assert mirror["metadata"]["subcommand"] == "sim"

    @pytest.mark.parametrize("command", ["sim", "sweep"])
    def test_json_flag_rejects_json_out(self, tmp_path, capsys, command):
        # The mirror would overwrite the CSV, so nothing runs.
        out = tmp_path / "r.json"
        assert main([command, "--set", "sweep.variable=vid", "--out", str(out), "--json"]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: --out: ")
        assert list(tmp_path.iterdir()) == []

    def test_report_rejects_json(self, tmp_path, capsys):
        # The report is text, so --json would be ignored: nothing runs.
        out = tmp_path / "r.txt"
        assert main(["report", "--trials", "20", "--json", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: --json: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["calibrate"], ["mc", "--trials", "5"]])
    @pytest.mark.parametrize("pair, message", [
        ("cal.vref=5", "cal.vref: must be in [0, vdd=1.8], got 5.0"),
        ("cal.span=3", "cal.span: must be below vdd=1.8, got 3.0"),
        ("cal.tol=0.5", "cal.tol: must be below 2*cal.span=0.2, got 0.5"),
    ])
    def test_calibration_keys_checked_against_supply(self, command, pair, message, capsys):
        # Each once failed on an operating point the user never set, or (cal.tol)
        # took no bisection step and reported a zero offset.
        assert main(command + ["--set", pair]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        assert main(["sim", "--set", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:")
        assert "\n" not in err.strip()

    def test_missing_config_file(self, capsys):
        assert main(["sim", "--config", "/nonexistent/x.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"vid = 1e-3\n\xff\n")
        assert main(["sim", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {cfgfile}: ")
        assert "\n" not in err.strip()

    def test_config_file_not_mutated(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("vid = 1e-3\nseed = 4\n")
        before = cfgfile.read_bytes()
        assert main(["sim", "--config", str(cfgfile)]) == 0
        assert cfgfile.read_bytes() == before

    def test_no_shutdown_flag(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sim", "--no-shutdown", "--out", str(out)]) == 0
        loaded = load_csv(out)
        assert loaded.metadata["shutdown"] == "false"
        assert loaded.rows[0][loaded.columns.index("shutdown")] == 0

    def test_size_command(self, tmp_path):
        out = tmp_path / "size.csv"
        assert main(["size", "--set", "alpha=2.0", "--out", str(out)]) == 0
        table = load_csv(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert (row["x"], row["y"]) == (2.0, 1.0)

    def test_calibrate_command(self, tmp_path):
        out = tmp_path / "cal.csv"
        assert main(["calibrate", "--seed", "3", "--out", str(out)]) == 0
        table = load_csv(out)
        assert len(table.rows) == 6
        assert "result.offset_after_V" in table.metadata

    def test_shorthand_flags_checked_like_set(self, tmp_path, capsys):
        assert main(["mc", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err
        out = tmp_path / "sim.csv"
        assert main(["sim", "--set", "seed=3", "--seed", "4", "--out", str(out)]) == 0
        assert load_csv(out).metadata["seed"] == "4"

    @pytest.mark.parametrize("argv, key", [
        (["calibrate", "--trial", "-1"], "trial"),
        (["sweep", "--set", "sweep.variable=corner", "--set", "sweep.points=3"], "sweep.points"),
        (["sweep", "--set", "sweep.variable=vid", "--compare", "--no-shutdown"], "shutdown"),
        (["sweep", "--set", "sweep.variable=temp", "--set", "sweep.scale=log"], "sweep.start"),
        (["sweep", "--set", "sweep.variable=vid", "--set", "sweep.scale=log",
          "--set", "sweep.stop=-0.01"], "sweep.stop"),
        (["sweep", "--set", "sweep.variable=vdd", "--set", "sweep.start=-1"], "sweep.start"),
        (["sweep", "--set", "sweep.variable=vcm", "--set", "sweep.start=-1"], "sweep.start"),
        (["sweep", "--set", "sweep.variable=vcm", "--set", "sweep.stop=2.5"], "sweep.stop"),
        # Rejected at config load, before the draw allocates anything.
        (["mc", "--trials", str(2**32 + 1)], "trials"),
    ])
    def test_bad_input_exits_2_naming_key(self, argv, key, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: ConfigError: {key}:")

    @pytest.mark.parametrize("sets, message", [
        (["sweep.variable=temp", "sweep.scale=log"], "sweep.start: -20 (default) must be > 0"),
        (["sweep.variable=vdd", "sweep.start=-1", "sweep.points=4"],
         "sweep.start: vdd point -1 is out of range: vcm=-0.5 outside [0, vdd=-1.0]"),
        (["sweep.variable=vcm", "sweep.start=-1"],
         "sweep.start: vcm point -1 is out of range: vcm=-1.0 outside [0, vdd=1.8]"),
        (["sweep.variable=vcm", "sweep.stop=2.5"],
         "sweep.stop: vcm point 2.5 is out of range: vcm=2.5 outside [0, vdd=1.8]"),
        (["sweep.variable=vcm", "vdd=1.0"], "sweep.stop: vcm point 1.1 (default) is out of range"),
        (["sweep.variable=vid", "sweep.stop=2"], "sweep.stop: vid point 2 is out of range: |vid|"),
        (["sweep.variable=temp", "sweep.stop=400"], "sweep.stop: temp point 400 is out of range"),
        (["sweep.variable=temp", "temp_c=400", "sweep.stop=400"],
         "sweep.stop: temp point 400 is out of range: temp_c=400 at corner TT: the nmos threshold"),
    ])
    def test_sweep_names_offending_bound(self, sets, message, tmp_path, capsys):
        # Rejected from the grid pass's fault codes, before anything is written.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--out", str(out)] + [arg for s in sets for arg in ("--set", s)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: ConfigError: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sim", "--set", "temp_c=400"], "temp_c=400 at corner TT: the nmos threshold, "
                                         "0.45 V at 300 K, falls to -0.296 V at 673.15 K"),
        (["mc", "--set", "temp_c=300"], "temp_c=300 at corner TT: the nmos threshold"),
        (["mc", "--set", "temp_c=240", "--set", "corner=FF"],
         "temp_c=240 at corner FF: the nmos threshold, 0.42 V at 300 K,"),
    ])
    def test_threshold_below_zero_names_temperature(self, argv, message, capsys):
        # The threshold drops 2 mV/K, so a hot enough point has none left.
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: ConfigError: {message}")

    @pytest.mark.parametrize("argv", [
        ["sim"], ["mc"], ["size"], ["calibrate"],
        ["sweep", "--set", "sweep.variable=vid"], ["sweep", "--set", "sweep.variable=corner"],
        # Every temperature fails at this corner, so no grid bound is at fault.
        ["sweep", "--set", "sweep.variable=temp"],
    ])
    def test_threshold_below_zero_names_corner(self, argv, capsys):
        # FF shifts the threshold by -30 mV, below zero from 0.02 V.
        assert main([*argv, "--set", "nmos.vth0=0.02", "--set", "corner=FF"]) == 2
        assert capsys.readouterr().err == ("error: ConfigError: the nmos threshold, 0.02 V, "
                                           "falls to -0.01 V at corner FF; it must stay > 0\n")

    def test_sweep_bound_check_spares_an_invalid_unswept_point(self, capsys):
        # vcm=5 is out of range, but the vcm sweep replaces it at every point.
        assert main(["sweep", "--set", "sweep.variable=vcm", "--set", "vcm=5"]) == 0
        # An unswept vid out of range is the vid key's fault, not the grid's.
        assert main(["sweep", "--set", "sweep.variable=temp", "--set", "vid=2"]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: |vid|=2.0")

    @pytest.mark.parametrize("sets", [["freq=1e11"], ["freq=5.62e10", "seed=4"],
                                      ["calibrate=true", "cal.cb=1e-13"]])
    def test_mc_error_is_the_scalar_loops(self, sets, capsys):
        cfg = apply_overrides(RunConfig(), ["trials=30", *sets])
        config = build_comparator_config(cfg)
        with pytest.raises(SimulationError) as scalar:
            scalar_offsets(cfg.trials, cfg.seed, ComparatorEngine(config),
                            build_operating_point(cfg, vid=0.0), build_calibration_config(cfg),
                            cfg.calibrate, cfg.avt, cfg.abeta)
        assert main(["mc", *(arg for s in sets for arg in ("--set", s)), "--trials", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {type(scalar.value).__name__}: {scalar.value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("args", [["--trials", "40"],
                                      ["--trials", "300", "--seed", "3", "--set", "cal.span=0.03"]])
    def test_mc_calibrate_keeps_plain_before(self, tmp_path, args):
        plain, calibrated = tmp_path / "plain.csv", tmp_path / "cal.csv"
        assert main(["mc", *args, "--out", str(plain)]) == 0
        assert main(["mc", "--calibrate", *args, "--out", str(calibrated)]) == 0

        def before(path):
            return [line for line in path.read_text(encoding="utf-8").splitlines()
                    if line.startswith(("# result.before_", "before,"))]

        assert before(calibrated) == before(plain)
        if "cal.span=0.03" in args:
            assert "# result.before_span_errors=36" in before(plain)

    def test_parser_reused_safely(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        fresh = tmp_path / "fresh.csv"
        assert main(["sim", "--out", str(fresh)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--no-such-flag"])
        assert exc.value.code == 2
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sim", "--set", "vid=0.02", "--no-shutdown", "--json",
                     "--out", str(a)]) == 0
        assert main(["sim", "--out", str(b)]) == 0
        assert b.read_bytes() == fresh.read_bytes()
        assert not b.with_suffix(".json").exists()
        for command in ("sim", "sweep", "mc", "calibrate", "size", "report"):
            assert build_parser().parse_args([command]).overrides == []

    def test_second_main_builds_no_parser(self, tmp_path, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["sim", "--out", str(tmp_path / "a.csv")]) == 0
        first = len(built)
        assert main(["sim", "--out", str(tmp_path / "b.csv")]) == 0
        assert built[first:] == []

    def test_mc_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        main(["mc", "--trials", "10", "--seed", "1", "--out", str(out1)])
        main(["mc", "--trials", "10", "--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bundle")
    rc = main(["report", "--trials", "25", "--out-dir", str(out_dir),
               "--out", str(out_dir / "report_copy.txt")])
    assert rc == 0
    return out_dir


class TestReport:
    def test_report_contents(self, bundle):
        text = (bundle / "report.txt").read_text()
        assert "power_savings_worst_case_pct" in text
        assert "offset_sigma_uncal_mV" in text
        assert "offset_sigma_cal_mV" in text
        assert "design target: 21.7" in text
        assert "sizing_x: 1" in text

    def test_bundle_files(self, bundle):
        for name in ("typical.csv", "fast.csv", "mc_offset.csv", "size.csv",
                     "sweep_vid.csv", "sweep_vcm.csv", "sweep_vdd.csv",
                     "sweep_temp.csv", "sweep_corner.csv"):
            assert (bundle / name).exists()

    def test_regenerated_from_csv_equals_live(self, bundle, tmp_path, capsys):
        rc = main(["report", "--from-dir", str(bundle)])
        assert rc == 0
        regenerated = capsys.readouterr().out
        assert regenerated == (bundle / "report.txt").read_text()

    def test_from_dir_parses_only_what_it_reads(self, bundle, monkeypatch, capsys):
        # Each loaded table's cell parsers record what they parse, by file.
        # The report reads mc_offset.csv's metadata only, every sweep's
        # savings_pct column, and the one row of the other tables.
        parsed = {}
        load = harness.load_csv

        def spying_load(path):
            table = load(path)

            def spy(name, parse):
                return lambda text: parsed.setdefault(Path(path).stem, []).append(name) \
                    or parse(text)

            table.types = tuple(map(spy, table.columns, table.types))
            return table

        monkeypatch.setattr(harness, "load_csv", spying_load)
        assert main(["report", "--from-dir", str(bundle)]) == 0
        assert capsys.readouterr().out == (bundle / "report.txt").read_text()
        assert "mc_offset" not in parsed
        for stem in ("typical", "fast", "size"):
            assert sorted(parsed[stem]) == sorted(load(bundle / f"{stem}.csv").columns)
        for variable in REPORT_SWEEP_VARIABLES:
            rows = len(load(bundle / f"sweep_{variable}.csv").text)
            assert parsed[f"sweep_{variable}"] == ["savings_pct"] * rows

    def test_non_utf8_bundle_csv(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / "typical.csv").write_bytes(b"# tool=dyncomp-sim\n\xff\n")
        assert main(["report", "--from-dir", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {copy / 'typical.csv'}: ")

    def test_ragged_bundle_row(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / "sweep_vid.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        lines[header + 3] = lines[header + 3].rsplit(",", 1)[0]  # drop the last cell
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err == (f"error: ConfigError: {path}: line {header + 4} has "
                                           f"8 cells; the header has 9\n")

    def test_bundle_sweep_without_savings_column(self, bundle, tmp_path, capsys):
        # A shutdown=true sweep without its savings column must not drop out
        # of the worst-case saving.
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / "sweep_temp.csv"
        table = load_csv(path)
        keep = [k for k, name in enumerate(table.columns) if name != "savings_pct"]
        emit_csv(columns_of(table, keep), path)
        assert main(["report", "--from-dir", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {path}: ") and "savings_pct" in err

    @pytest.mark.parametrize("name, column", [("typical.csv", "t_dm_s"), ("fast.csv", "t_dm_s"),
                                              ("fast.csv", "power_W"), ("size.csv", "residual")])
    def test_bundle_table_without_report_column(self, bundle, tmp_path, capsys, name, column):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / name
        table = load_csv(path)
        columns = tuple(f"{c}_old" if c == column else c for c in table.columns)
        emit_csv(Table(columns, table.text, table.types, table.metadata), path)
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {path}: missing column {column}\n"

    def test_bundle_fast_table_read_by_its_own_header(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / "fast.csv"
        table = load_csv(path)
        order = sorted(range(len(table.columns)), key=lambda k: table.columns[k])
        emit_csv(columns_of(table, order), path)
        assert main(["report", "--from-dir", str(copy)]) == 0
        assert capsys.readouterr().out == (bundle / "report.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", ["typical.csv", "fast.csv", "size.csv"])
    def test_bundle_table_without_data_row(self, bundle, tmp_path, capsys, name):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / name
        table = load_csv(path)
        emit_csv(Table(table.columns, [], table.types, table.metadata), path)
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {path}: no data row\n"

    def test_bundle_mc_without_sigma(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / "mc_offset.csv"
        table = load_csv(path)
        del table.metadata["result.before_sigma_V"]
        emit_csv(table, path)
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err == \
            f"error: ConfigError: {path}: missing metadata key result.before_sigma_V\n"

    @pytest.mark.parametrize("name, key", [("mc_offset.csv", "result.before_sigma_V"),
                                           ("mc_offset.csv", "result.after_sigma_V"),
                                           ("sweep_vid.csv", "savings_pct"),
                                           ("fast.csv", "t_dm_s")])
    def test_bundle_non_numeric_value(self, bundle, tmp_path, capsys, name, key):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / name
        table = load_csv(path)
        if key in table.metadata:
            table.metadata[key], what = "abc", f"metadata key {key}"
        else:  # the last row: the report reads every savings_pct cell
            k = table.columns.index(key)
            set_cell(table, -1, k, "abc")
            what = f"column {key}"
        emit_csv(table, path)
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err == \
            f"error: ConfigError: {path}: {what} is not a number: 'abc'\n"

    @pytest.mark.parametrize("value", [0, -1e-12, math.nan, math.inf])
    def test_bundle_fast_delay_not_positive_finite(self, bundle, tmp_path, capsys, value):
        # fmax is 0.5 / t_dm_s of fast.csv: a zero delay must not divide.
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        path = copy / "fast.csv"
        table = load_csv(path)
        k = table.columns.index("t_dm_s")
        set_cell(table, 0, k, f"{value:.9g}")
        emit_csv(table, path)
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err == (f"error: ConfigError: {path}: column t_dm_s is not "
                                           f"a positive finite delay: {value!r}\n")

    @pytest.mark.parametrize("name", ["typical.csv", "fast.csv", "size.csv"])
    def test_bundle_without_required_table(self, bundle, tmp_path, capsys, name):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / name).unlink()
        assert main(["report", "--from-dir", str(copy)]) == 2
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")

    def test_bundle_without_optional_tables(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / "mc_offset.csv").unlink()
        (copy / "sweep_vdd.csv").unlink()
        assert main(["report", "--from-dir", str(copy)]) == 0
        lines = capsys.readouterr().out.splitlines()
        full = (bundle / "report.txt").read_text(encoding="utf-8").splitlines()
        # The vdd sweep holds the worst-case saving, so the line takes the
        # worst case of the sweeps left.
        worst = min(s for v in REPORT_SWEEP_VARIABLES if v != "vdd"
                    for s in _column(load_csv(copy / f"sweep_{v}.csv"), "savings_pct")
                    if not math.isnan(s))
        savings = f"power_savings_worst_case_pct: {worst:.4g}  (design target: 21.7)"
        assert savings not in full
        assert lines == [savings if line.startswith("power_savings_worst_case_pct:") else line
                         for line in full if not line.startswith("offset_")]

    def test_report_text_runs_once(self, tmp_path, monkeypatch):
        calls = []
        original = harness.report_text

        def counting(tables):
            calls.append(tables)
            return original(tables)

        monkeypatch.setattr(harness, "report_text", counting)
        assert main(["report", "--trials", "5", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1
        assert (tmp_path / "report.txt").read_text(encoding="utf-8") == original(
            harness.load_report_bundle(tmp_path))

    def test_report_sweeps_take_no_grid_keys(self, bundle, tmp_path, capsys):
        grid = {"sweep.start": "0.5", "sweep.stop": "1.0", "sweep.points": "3",
                "sweep.scale": "log"}
        for key, value in grid.items():
            assert main(["report", "--trials", "2", "--set", f"{key}={value}",
                         "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: ConfigError: {key}:")
        assert not any(tmp_path.iterdir())
        for variable in REPORT_SWEEP_VARIABLES:
            meta = load_csv(bundle / f"sweep_{variable}.csv").metadata
            assert [meta[k] for k in grid] == ["auto", "auto", "auto", "linear"]

    def test_savings_zero_when_shutdown_disabled(self, capsys):
        rc = main(["report", "--trials", "2", "--no-shutdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power_savings_worst_case_pct: 0  (shutdown disabled)" in out
