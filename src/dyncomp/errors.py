"""Exception types shared across the simulator."""


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
