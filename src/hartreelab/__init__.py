"""Pseudospectral laboratory for the semiclassical singular Hartree equation."""

from .grid import (
    Field,
    GaussianProfile,
    Grid,
    SpectralField,
    TableProfile,
    forward_transform,
    inverse_transform,
    laplacian,
    sample_profile,
    spectral_derivative,
    translate,
)
from .kernel import (
    KernelSpec,
    convolve,
    convolve_direct,
    hartree_constant,
    hartree_constant_oracle,
    multiplier,
    split_norms,
    zero_mode_value,
)
from .norms import (
    BoundReport,
    NormReport,
    YNormSpec,
    check_algebra_bound,
    check_hartree_bound,
    e_norm,
    l1_norm,
    l2_norm,
    l2w_norm,
    norm_report,
    spectral_l2_norm,
    wiener_norm,
    y_norm,
)
from .solver import (
    DivergenceError,
    PicardConvergenceError,
    SolverParams,
    Trajectory,
    advance,
    evolve,
    free_propagator,
    hartree_potential,
    picard_evolve,
)
from .wkb import (
    AnsatzReport,
    ContainmentError,
    Mode,
    ModeFamily,
    ResolutionError,
    WkbSnapshot,
    action_phase,
    action_phase_quadrature,
    ansatz_residual,
    assemble,
    eikonal_phase,
    initial_data,
    oscillation_average,
    resonant_remainder,
    snapshot,
    transport_residual,
    z2_term,
)
from .harness import (
    CheckOutcome,
    RateFit,
    SweepConfig,
    SweepRecord,
    SweepResult,
    error_report,
    expected_rate,
    fit_rate,
    persist,
    read_records_csv,
    run_sweep,
    validate_suite,
)
from .config import ConfigError, load_config, parse_config

__version__ = "0.1.0"
