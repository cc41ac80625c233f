"""Pseudo-spectral solver and analysis tools for filtered-deconvolution flow models.

The package is organized around a handful of small modules:

- spectral:     grids, coefficient-space fields, norms, projections
- filtering:    the inverse-Helmholtz smoother and its van Cittert inverse
- fields:       initial conditions and forcings
- solver:       time integration of the regularized momentum equation
- diagnostics:  energy records, consistency measures, trajectory errors
- experiments:  parameter sweeps with rate fits
- config / snapshots / tables / cli:  file formats and the command line
"""

from .spectral import (
    BOX_VOLUME,
    Grid,
    ParameterError,
    SpectralField,
    from_physical,
    hs_norm,
    leray_project,
    solenoidal_defect,
    symmetry_defect,
    to_physical,
    validate_field,
    zeros,
)
from .filtering import (
    FilterSpec,
    apply_dn,
    apply_filter,
    apply_hn,
    cutoff_frequency,
    cutoff_frequency_exact,
    deconv_error_field,
    deconv_error_multiplier,
    operator_norm_dn,
    transfer_dn,
    transfer_exact,
    transfer_g,
    transfer_hn,
    van_cittert,
)
from .fields import FieldSpec, abc_flow, evaluate_field, random_solenoidal, single_mode, taylor_green
from .solver import (
    BlowUpError,
    CFLAdvisory,
    ModelKind,
    RunStats,
    SolverConfig,
    Trajectory,
    cfl_max_dt,
    nonlinear_term,
    run,
    step,
)
from .diagnostics import (
    ConsistencyReport,
    DiagRecord,
    ModelError,
    consistency_report,
    energy_record,
    model_error,
)
from .experiments import RateFit, StudyReport, StudySpec, fit_rate, run_study
from .config import ConfigError, RunConfig, parse_config, parse_config_text, render_effective
from .snapshots import SnapshotError, SnapshotMeta, read_snapshot, write_snapshot
from .tables import TableError, read_diag_csv, write_diag_csv, write_manifest, write_study_tables

__version__ = "0.1.0"
