"""Network-level V2X simulator with a single-parameter PHY abstraction."""

from .abstraction import (AbstractionModel, FitPoint, PerCurve, StepFunction,
                          fit_alpha, normalize_curve, select_beta,
                          shannon_throughput, threshold_for_settings,
                          threshold_from_curve)
from .channel import PropagationConfig, noise_power_dbm, path_loss_db
from .engine import RunConfig, SimulationSetup, TraceLog, TransmissionEvent, run
from .errors import ConfigError, CurveRangeError, DataError, V2xSimError
from .metrics import IpgStore, MetricStore, PrrSeries, ipg_ccdf, mae
from .scenario import RoadConfig, TrafficConfig, VehicleState, spawn
from .settings import (CV2xSettings, Ieee80211pSettings, PrbTable,
                       TechnologySettings, effective_throughput, resolve_nprb,
                       tx_time, tx_time_11p, tx_time_cv2x)

__version__ = "0.1.0"
