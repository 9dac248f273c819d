"""Plain records are NamedTuples: read-only, equal and hashed by value, with
the dataclass repr form. Importing the CLI defines no other dataclass and
does not import json (README, "Start-up")."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dyncomp.calibration import CalibrationResult, CalibrationState, OffsetStats
from dyncomp.config import SWEEPS, RunConfig, _parse_float, _Unset
from dyncomp.devices import CORNERS, MismatchSample
from dyncomp.engine import (BodyBias, ComparatorConfig, ComparatorEngine, EnergyBreakdown,
                            NodeCaps, OperatingPoint, simulate_grid)
from dyncomp.errors import ConfigError
from dyncomp.harness import replace_runconfig
from dyncomp.sizing import WidthSweepPoint

ROOT = Path(__file__).resolve().parent.parent

STATE = CalibrationState(1.7, 1.8, ((1, 0.9, 1e-3, 1), (2, 0.8, 5e-4, -1)))
# One instance of every plain record, with whether the dataclass it replaced was
# hashable: a dict field (MismatchSample.deltas) made its hash raise.
RECORDS = [
    (MismatchSample({"Mp4": (1e-3, 0.0)}), False),
    (BodyBias(1.7, 1.8), True),
    (NodeCaps(1e-15, 2e-15, 3e-15, 4e-15), True),
    (EnergyBreakdown(1e-13, 2e-13, 3e-14, 4e-14, 3.7e-13), True),
    (STATE, True),
    (CalibrationResult(STATE, 5e-3, 2e-4, True, False), True),
    (OffsetStats(500, 1e-4, 1.5e-3, (-5e-3, 0.0, 5e-3), (240, 260)), True),
    (SWEEPS["vid"], True),
    (_Unset(_parse_float), True),
    (WidthSweepPoint(1e-6, 1e-10, 2e-5), True),
]
IDS = [type(record).__name__ for record, _ in RECORDS]

# The classes that stay dataclasses: they validate, carry defaults that config
# reads, or are subclassed.
KEPT_DATACLASSES = {"DeviceParams", "TransistorGeom", "CornerSpec", "ComparatorConfig",
                    "OperatingPoint", "ComparisonResult", "GridResult", "SizingVars",
                    "CalibrationConfig"}


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_fields_are_read_only(record, _):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("record, hashable", RECORDS, ids=IDS)
def test_equal_and_hashed_by_value(record, hashable):
    copy = type(record)(*(getattr(record, name) for name in record._fields))
    assert copy is not record and copy == record
    assert record._replace(**{record._fields[0]: "other"}) != record
    if hashable:
        assert hash(copy) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_repr_keeps_the_dataclass_form(record, _):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_defaults():
    assert OffsetStats(1, 0.0, 0.0, (), ()).span_errors == 0
    assert WidthSweepPoint(1e-6, 1e-10, 2e-5)[-2:] == (False, False)
    assert _Unset(_parse_float).words == ("auto", "none")


BODY_MESSAGE = "body voltages BodyBias(vb_plus=1.9, vb_minus=1.8) outside [0, vdd=1.8]"


def test_body_range_message_from_simulate():
    engine = ComparatorEngine(ComparatorConfig())
    with pytest.raises(ConfigError) as exc:
        engine.simulate(OperatingPoint(), body=BodyBias(1.9, 1.8))
    assert str(exc.value) == BODY_MESSAGE


def test_body_range_message_from_grid_raise_row():
    engine = ComparatorEngine(ComparatorConfig())
    op = OperatingPoint()
    grid = simulate_grid(engine, [op.vid], [op.vcm], [1.8], CORNERS["TT"], op.t_kelvin,
                         vb_plus=[1.9], vb_minus=[1.8])
    with pytest.raises(ConfigError) as exc:
        grid.raise_row(0)
    assert str(exc.value) == BODY_MESSAGE


def test_runconfig_is_equal_by_fields():
    a, b = RunConfig(), RunConfig(vdd=1.8)
    assert a == b and a != RunConfig(vdd=1.6)
    b.widths["Mp4"] = 1e-6
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError, match="bogus"):
        RunConfig(bogus=1)
    with pytest.raises(TypeError, match="sweep_varaible"):
        replace_runconfig(a, sweep_varaible="vid")
    assert repr(a).startswith("RunConfig(vdd=1.8, vcm=None, ")


def test_cli_import_defines_only_the_kept_dataclasses():
    """In a fresh interpreter, importing the CLI imports no json, and the
    dataclasses it defines are exactly the kept ones: a plain record is a
    NamedTuple, whose definition generates no methods by exec."""
    script = ("import sys, dataclasses\nimport dyncomp.cli\n"
              "print('json' in sys.modules)\n"
              "print(sorted(name for mod in list(sys.modules.values())\n"
              "             if mod.__name__.startswith('dyncomp')\n"
              "             for name, obj in vars(mod).items()\n"
              "             if isinstance(obj, type) and obj.__module__ == mod.__name__\n"
              "             and dataclasses.is_dataclass(obj)))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    json_imported, dataclasses = proc.stdout.splitlines()
    assert json_imported == "False", "import dyncomp.cli imported json; only --json needs it"
    assert set(ast.literal_eval(dataclasses)) == KEPT_DATACLASSES, (
        "a class became or stopped being a dataclass: README, 'Start-up', says a plain "
        "record is a typing.NamedTuple and a class is a dataclass only where it validates, "
        "carries defaults that config reads, or is subclassed")
