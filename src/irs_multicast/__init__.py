"""IRS-assisted mmWave multigroup multicast MIMO simulator."""

from .channel import (ChannelSet, ConfigError, PathSet, SystemConfig,
                      effective_channels, generate_channels, load_config,
                      random_phase_vector)
from .harness import (DESK_CONFIG, ExperimentSpec, RunRecord, run_baseline,
                      run_proposed, sweep)
from .signalmodel import BeamformerSet, RateReport, sum_rate

__version__ = "0.1.0"

__all__ = [
    "BeamformerSet", "ChannelSet", "ConfigError", "DESK_CONFIG",
    "ExperimentSpec", "PathSet", "RateReport", "RunRecord", "SystemConfig",
    "effective_channels", "generate_channels", "load_config",
    "random_phase_vector", "run_baseline", "run_proposed", "sum_rate", "sweep",
]
