"""degenwave: a numerical laboratory for space-periodic degenerate
convection-diffusion equations u_t + phi(u)_x - g(u)_xx = 0.

The package solves the equation with a monotone conservative finite-volume
scheme, computes the structural intervals that govern the long-time limit
(where the flux is affine and the diffusion constant around the data mean),
extracts traveling-wave profiles, and checks contraction, conservation,
decay, cutoff convergence, entropy inequalities, and non-expansiveness of
the data-to-profile map.
"""

from .diagnostics import (
    CheckReport,
    TestBump,
    conservation_monitor,
    contraction_monitor,
    cutoff_convergence,
    decay_metric,
    default_bumps,
    default_k_values,
    entropy_residual,
    extract_profile,
    squeeze_bounds,
    squeeze_companions,
    t_nonexpansive_from_runs,
    traveling_profile,
    weak_form_residual,
)
from .errors import (
    BandError,
    CflViolationError,
    CoverageError,
    DegenwaveError,
    GridMismatchError,
    MeanOutOfBandError,
    OutOfRangeError,
    SchemaError,
    UnsupportedTestFnError,
)
from .grid import (
    Field,
    Grid,
    constant_field,
    l1_distance,
    l1_to_constant,
    mean,
    positive_part_distance,
    shift,
    total_variation,
)
from .piecewise import (
    PiecewiseFunction,
    burgers,
    constant,
    from_breakpoints,
    from_global_coeffs,
    identity,
    linear,
    lipschitz_on,
    maximal_affine_interval,
    maximal_constant_interval,
    monotone_split,
)
from .scenarios import (
    ScenarioConfig,
    SuiteSummary,
    parse_config,
    run_scenario,
    run_suite,
)
from .solver import RunResult, SchemeParams, max_stable_dt, run, run_many, step
from .structure import StructureReport, analyze, band_project_mean, cutoff

__version__ = "0.1.0"
