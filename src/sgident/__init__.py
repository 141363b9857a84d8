"""Streaming identification with a modified stochastic-gradient gain schedule.

The package couples a recursive estimator (modified and classical gain
schedules), a catalog of predictor/loss pairs, a certainty-equivalence
tracking controller with a simulated lag plant, convergence diagnostics,
and a deterministic benchmark harness with fixed-width hex traces (exported
as decimal CSV on demand) and JSON reports.
"""

from types import ModuleType as _ModuleType

from .bench import (
    TRACE_COLUMNS,
    CsvStream,
    ExperimentConfig,
    RunReport,
    compare_runs,
    export_csv,
    ingest_csv,
    load_config,
    preset_path,
    read_trace,
    render_comparison,
    run_experiment,
    summarize,
    verify_report,
    write_trace,
)
from .control import (
    ControlConfig,
    NoiseSource,
    Plant,
    Trace,
    run_closed_loop_batch,
    solve_control,
    solve_control_rows,
)
from .core import (
    GainState,
    HyperParams,
    ModelLossPair,
    ParameterVector,
    Regressor,
    check_step_size_cap,
    kahan_add,
)
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    NumericError,
    SgidentError,
)
from .metrics import (
    RS_TAIL_LIMIT,
    RSReport,
    bound_curve,
    gradient_noise,
    gradient_norms_sq,
    minimum_phase_ratio,
    realized_noise,
    regret_sum,
    relative_error_metric,
    robbins_siegmund_diag,
    running_mean,
    tracking_error,
)
from .models import (
    PAIR_CATALOG,
    Assumption2Report,
    SaturationSpec,
    catalog_pair,
    hinge_pair,
    linear_mse_pair,
    logistic_pair,
    quadnet_lift,
    quadnet_pair,
    saturation_mean,
    saturation_mean_deriv,
    saturation_pair,
    tanh_mse_pair,
    verify_assumption2,
)
from .sg import (
    DIVERGENCE_NORM,
    EstimatorState,
    mu_schedule,
    sg_init,
    sg_update,
)

__version__ = "0.1.0"

# every name imported above, without the submodules they come from
__all__ = [name for name, value in list(vars().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
