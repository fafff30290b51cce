"""Periodic-box pseudo-spectral Navier-Stokes with dyadic-shell diagnostics."""

__version__ = "0.1.0"

from .bounds import BoundSpec, NormSeries, blowup_floor, eval_lower_bound, fit_rate, riccati_solve
from .flux import (
    FluxReport,
    RiccatiSides,
    ShellFluxRow,
    TriSums,
    lemma1_sides,
    nlt_split,
    remainder,
    remainder_direct,
    riccati_sides,
    shell_flux_report,
    shell_transfers,
)
from .lp import (
    FilterBank,
    ShellDecomposition,
    bernstein_ratio,
    build_filter_bank,
    decompose,
    partition_residual,
    phi_profile,
    psi_profile,
    reconstruct,
    shell_energies,
    shell_project,
    truncate_low,
)
from .solver import (
    SimulationResult,
    SolverParams,
    TrajectoryRow,
    energy_balance_residual,
    simulate,
    step,
)
from .spectral import (
    GridSpec,
    PhysicalVelocity,
    SpectralVelocity,
    inverse_transform,
    make_random_field,
    make_taylor_green,
    zero_velocity,
)
