"""Shared exception types raised across the lapal modules."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, unknown names, inconsistent dims."""


class StateError(RuntimeError):
    """Operation called in the wrong order (e.g. backward without forward)."""


class OptimizerError(RuntimeError):
    """Non-finite gradients or moments; carries a diagnostics string."""


class QualityGateError(RuntimeError):
    """A data or training artifact failed its quality gate."""


class DivergenceError(RuntimeError):
    """A training run tripped the divergence detector."""


class CheckpointError(IOError):
    """Corrupt, truncated, or mismatched checkpoint / data file."""
