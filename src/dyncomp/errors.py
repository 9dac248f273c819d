"""Exception types shared across the simulator, and the range rules that raise them."""


class SimulationError(Exception):
    """Base class for runtime failures of the comparator model."""


class NoDecisionError(SimulationError):
    """Neither preamp output crossed the latch threshold inside the window."""


class BodyBiasError(SimulationError):
    """Body bias outside the validity range of the threshold model."""


class OffsetSpanError(SimulationError):
    """The decision never flips inside the offset search span."""


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


# A range rule: (predicate, the rule as errors quote it). Every predicate is
# false for NaN: "x > 0" rather than "not x <= 0".
POSITIVE = (lambda x: x > 0, "must be > 0")
NONNEGATIVE = (lambda x: x >= 0, "must be >= 0")
AT_LEAST_1 = (lambda x: x >= 1, "must be >= 1")


def checked(name: str, value, rule):
    """``value`` if it keeps ``rule`` (a tuple item by item; None always
    does), else ConfigError "<name>: <rule>, got <x>" at the first x that breaks it."""
    ok, text = rule
    for x in value if type(value) is tuple else (value,):
        if not (x is None or ok(x)):
            raise ConfigError(f"{name}: {text}, got {x}")
    return value


class Ranged:
    """Base of a frozen dataclass whose ``RULES`` map each ranged field to its
    rule: construction checks each such field, as ``checked`` does."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._rules = tuple(cls.RULES.items())   # a tuple iterates faster than a dict

    def __post_init__(self):
        values = vars(self)
        for name, rule in self._rules:
            value = values[name]
            # A scalar that keeps its rule, the common case, costs no call to checked.
            if value is None or type(value) is tuple or not rule[0](value):
                checked(name, value, rule)
