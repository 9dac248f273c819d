"""Range rules: each model-backed config key checks with its model's own rule,
and every ranged field rejects NaN and the values just outside its range."""
import math
import re
from dataclasses import replace

import pytest

from dyncomp import config, devices
from dyncomp.calibration import CalibrationConfig
from dyncomp.devices import DEFAULT_NMOS, DEFAULT_PMOS, default_geometry, mismatch_scales
from dyncomp.engine import ComparatorConfig
from dyncomp.errors import ConfigError
from dyncomp.sizing import SizingVars, solve_sizing

BELOW_ZERO = -5e-324                        # the negative float nearest zero
BELOW_ONE = math.nextafter(1.0, 0.0)

# Each scalar key that sets a model field: key -> (a model instance, the field,
# values just outside the field's range).
MODEL_KEYS = {
    "vdd": (ComparatorConfig(), "vdd", (0.0,)),
    "freq": (ComparatorConfig(), "freq", (0.0,)),
    "alpha": (ComparatorConfig(), "alpha", (BELOW_ONE,)),
    "tie_break": (ComparatorConfig(), "tie_break", (0, 2)),
    "tail_derating": (ComparatorConfig(), "tail_derating", (BELOW_ZERO, 1.0)),
    "gamma": (DEFAULT_NMOS, "gamma", (BELOW_ZERO,)),
    "phi2f": (DEFAULT_NMOS, "phi2f", (0.0,)),
    "cox_area": (DEFAULT_NMOS, "cox_area", (0.0,)),
    "nmos.mu_cox": (DEFAULT_NMOS, "mu_cox", (0.0,)),
    "nmos.vth0": (DEFAULT_NMOS, "vth0", (0.0,)),
    "pmos.mu_cox": (DEFAULT_PMOS, "mu_cox", (0.0,)),
    "pmos.vth0": (DEFAULT_PMOS, "vth0", (0.0,)),
    "cal.cycles": (CalibrationConfig(), "n_cycles", (0,)),
    "cal.phases": (CalibrationConfig(), "n_phases", (0,)),
    "cal.cb": (CalibrationConfig(), "cb", (0.0,)),
    "cal.c0": (CalibrationConfig(), "c0", (0.0,)),
    "cal.caps": (CalibrationConfig(), "dac_caps", (0.0,)),
    "cal.cp_beta": (CalibrationConfig(), "cp_beta", (0.0,)),
    "cal.period": (CalibrationConfig(), "t_period", (0.0,)),
    "cal.tol": (CalibrationConfig(), "tol_os", (0.0,)),
    "cal.span": (CalibrationConfig(), "span", (0.0,)),
}
# Ranged keys that set no model field; their ranges live in config alone.
CONFIG_ONLY = {"vcm", "temp_c", "sweep.points", "seed", "trials"}


def model_rule(key):
    """The rule that the library applies to the value ``key`` sets."""
    if key in ("avt", "abeta"):
        return devices.PELGROM_RULE
    if key == "extra.pi":
        return ComparatorConfig.EXTRA_LOAD_RULE
    model, field, _ = MODEL_KEYS[key]
    return type(model).RULES[field]


def key_rule(key):
    """The rule that config.set_key applies to ``key``."""
    if key == "extra.pi":
        return config._PREFIXED["extra"][2]
    return config._KEYS[key][1]


def field_name(key):
    """The name that the library's error gives for the value ``key`` sets."""
    if key in ("avt", "abeta"):
        return key
    return "extra_load['pi']" if key == "extra.pi" else MODEL_KEYS[key][1]


def construct(key, value):
    """Hand ``value`` to the library where ``key`` would set it."""
    if key in ("avt", "abeta"):
        mismatch_scales(default_geometry().values(), **{key: value})
    elif key == "extra.pi":
        ComparatorConfig(extra_load={"pi": value})
    else:
        model, field, _ = MODEL_KEYS[key]
        replace(model, **{field: (25e-15, value) if field == "dac_caps" else value})


def exact(message):
    """A pattern that matches ``message`` alone."""
    return f"^{re.escape(message)}$"


ALL_KEYS = [*MODEL_KEYS, "avt", "abeta", "extra.pi"]
# (key, value just outside its range), for every model-backed key.
OUTSIDE = ([(key, x) for key, (_, _, values) in MODEL_KEYS.items() for x in values]
           + [("avt", BELOW_ZERO), ("abeta", BELOW_ZERO), ("extra.pi", BELOW_ZERO)])


@pytest.mark.parametrize("key", ALL_KEYS)
def test_key_rule_is_the_model_rule(key):
    assert key_rule(key) is model_rule(key)


def test_every_ranged_key_is_mapped():
    ranged = {key for key, (_, rule, _) in config._KEYS.items() if rule is not None}
    assert ranged == set(MODEL_KEYS) | {"avt", "abeta"} | CONFIG_ONLY


def test_sizing_alpha_is_the_comparator_alpha():
    assert SizingVars.RULES["alpha"] is ComparatorConfig.RULES["alpha"]


@pytest.mark.parametrize("key, value", OUTSIDE)
def test_value_just_outside_rejected(key, value):
    # The library and config quote one rule, each under its own name.
    text = model_rule(key)[1]
    with pytest.raises(ConfigError, match=exact(f"{field_name(key)}: {text}, got {value}")):
        construct(key, value)
    with pytest.raises(ConfigError, match=exact(f"{key}: {text}, got {value}")):
        config.set_key(config.RunConfig(), key, repr(value))


@pytest.mark.parametrize("key", ALL_KEYS)
def test_nan_rejected(key):
    ok, text = model_rule(key)
    assert not ok(math.nan)
    with pytest.raises(ConfigError, match=exact(f"{field_name(key)}: {text}, got nan")):
        construct(key, math.nan)
    # config's parser rejects NaN before any rule: not finite, or not an integer.
    kind = "an integer" if key in ("tie_break", "cal.cycles", "cal.phases") else "a finite number"
    with pytest.raises(ConfigError, match=exact(f"{key}: expected {kind}, got 'nan'")):
        config.set_key(config.RunConfig(), key, "nan")


@pytest.mark.parametrize("value", [math.nan, BELOW_ONE])
@pytest.mark.parametrize("field", ["x", "y", "alpha"])
def test_sizing_vars_names_the_field(field, value):
    values = {"x": 1.5, "y": 1.2, "alpha": 1.5} | {field: value}
    with pytest.raises(ConfigError, match=exact(f"{field}: must be >= 1, got {value}")):
        SizingVars(**values)


@pytest.mark.parametrize("coefficient", ["avt", "abeta"])
def test_mismatch_scales_nan_names_the_coefficient(coefficient):
    with pytest.raises(ConfigError, match=exact(f"{coefficient}: must be >= 0, got nan")):
        mismatch_scales(default_geometry().values(), **{coefficient: math.nan})


@pytest.mark.parametrize("argument", ["x_max", "y_max", "grid_step"])
def test_solve_sizing_nan_argument_names_it(argument):
    rule = "must be > 0" if argument == "grid_step" else "must be >= 1"
    with pytest.raises(ConfigError, match=exact(f"{argument}: {rule}, got nan")):
        solve_sizing(1.5, **{argument: math.nan})
