"""Coverage analysis of LoRa uplinks with successive interference cancellation.

Closed-form connection, capture and SIC-capture probabilities under a ring
based spreading-factor allocation with Poisson interference and Rayleigh
fading, together with a seedable Monte Carlo simulator that keeps all event
dependencies, sweep/capacity/planning experiments and a CSV-emitting CLI.
"""

from .analytic import (
    CoverageBreakdown,
    coverage,
    default_config,
    single_interferer_given_collision,
)
from .experiments import (
    CapacityRow,
    InfeasibleTargetError,
    SweepRow,
    SweepSpec,
    capacity_table,
    find_alpha_for_target,
    resolve_intensity,
    sweep,
)
from .geometry import (
    OutOfCoverageError,
    interferer_intensity,
    nodes_from_alpha,
    ring_area,
    ring_of,
)
from .params import (
    DEFAULT_SEED,
    NetworkConfig,
    SfParams,
    db_to_linear,
    default_sf_table,
    noise_power_dbm,
)
from .specfun import ConvergenceError, hyp2f1_1b

__version__ = "0.1.0"

__all__ = [
    "CapacityRow",
    "ConvergenceError",
    "CoverageBreakdown",
    "DEFAULT_SEED",
    "InfeasibleTargetError",
    "McEstimate",
    "McReport",
    "NetworkConfig",
    "OutOfCoverageError",
    "SfParams",
    "SweepRow",
    "SweepSpec",
    "capacity_table",
    "coverage",
    "db_to_linear",
    "default_config",
    "default_sf_table",
    "estimate",
    "find_alpha_for_target",
    "hyp2f1_1b",
    "interferer_intensity",
    "nodes_from_alpha",
    "noise_power_dbm",
    "resolve_intensity",
    "ring_area",
    "ring_of",
    "single_interferer_given_collision",
    "sweep",
]

# The Monte Carlo names load numpy, so they are imported on first access
# (PEP 562); the analytic commands never pay for it.
_MCSIM_NAMES = frozenset({"McEstimate", "McReport", "estimate"})


def __getattr__(name: str) -> object:
    if name in _MCSIM_NAMES:
        from . import mcsim

        return getattr(mcsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MCSIM_NAMES)
