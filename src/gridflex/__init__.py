"""gridflex: discrete-time scheduling for multi-aggregator demand-side
management of heterogeneous devices with power modes, deadlines,
criticalities, and cross-cluster mobility."""

from .model import (
    DeviceRequest,
    Scenario,
    SystemConfig,
    line_movement,
    load_scenario,
    movement_table,
    save_scenario,
    uniform_movement,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "DeviceRequest",
    "Scenario",
    "SystemConfig",
    "line_movement",
    "load_scenario",
    "movement_table",
    "save_scenario",
    "uniform_movement",
    "validate_config",
    "__version__",
]
