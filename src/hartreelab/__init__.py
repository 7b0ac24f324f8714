"""Pseudospectral laboratory for the semiclassical singular Hartree equation."""

from .grid import (
    GaussianProfile,
    Grid,
    TableProfile,
    laplacian,
    sample_profile,
    translate,
)
from .kernel import (
    KernelSpec,
    hartree_constant,
    hartree_constant_oracle,
    split_norms,
    zero_mode_value,
)
from .solver import (
    DivergenceError,
    PicardConvergenceError,
    SolverParams,
    advance,
    picard_evolve,
)
from .wkb import (
    ContainmentError,
    Mode,
    ModeFamily,
    ResolutionError,
    action_phase,
    ansatz_residual,
    assemble,
    initial_data,
    resonant_remainder,
    snapshot,
    transport_residual,
)
from .harness import (
    CheckOutcome,
    RateFit,
    SweepRecord,
    SweepResult,
    expected_rate,
    fit_rate,
    persist,
    run_sweep,
    validate_suite,
)
from .config import ConfigError, SweepConfig, load_config, parse_config

__version__ = "0.1.0"
