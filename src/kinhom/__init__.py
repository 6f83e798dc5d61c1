"""kinhom: diffusion limits of velocity-jump transport in oscillating media.

The package upscales a linear kinetic (velocity-jump) equation with a
rapidly oscillating scattering kernel to its macroscopic drift-diffusion
limit: it solves the microstructure cell problems, assembles the effective
coefficient tensors, advances the limiting parabolic equation, and
cross-validates the whole chain against a direct kinetic reference solver
at finite scale separation.
"""

from kinhom.mv_algebra import PeriodicGridFn, RepresentationError, SpectralAPFn
from kinhom.phase_space import CellGrid, MacroGrid, VelocityMeasure
from kinhom.collision import (
    BalanceError,
    PhaseField,
    ScatteringKernel,
    absorption_rate,
    apply_K,
    apply_Q,
    apply_Q_star,
    check_sdb,
    make_kernel,
)
from kinhom.cell_solver import (
    CellOperator,
    CompatibilityError,
    ConvergenceError,
    assemble,
    assemble_spectral_ap,
    equilibrium_F,
    solve_adjoint_corrector,
    solve_chi_star,
    solve_corrector,
    verify_variational,
)
from kinhom.effective import (
    EffectiveCoefficients,
    EllipticityError,
    assemble_effective,
    check_vfc,
    diffusion_matrix,
    drift_vector,
)
from kinhom.macro_solver import DriftDiffusionSolver, MacroField, initial_density
from kinhom.kinetic_ref import KineticSolver, KineticState, StabilityError
from kinhom.harness import (
    ConfigError,
    ScenarioConfig,
    dump_config,
    emit_tables,
    epsilon_sweep,
    parse_config,
    run_pipeline,
    sigma_test,
)

__version__ = "0.1.0"

__all__ = [
    "PeriodicGridFn",
    "SpectralAPFn",
    "RepresentationError",
    "CellGrid",
    "MacroGrid",
    "VelocityMeasure",
    "BalanceError",
    "PhaseField",
    "ScatteringKernel",
    "absorption_rate",
    "apply_K",
    "apply_Q",
    "apply_Q_star",
    "check_sdb",
    "make_kernel",
    "CellOperator",
    "CompatibilityError",
    "ConvergenceError",
    "assemble",
    "assemble_spectral_ap",
    "equilibrium_F",
    "solve_adjoint_corrector",
    "solve_chi_star",
    "solve_corrector",
    "verify_variational",
    "EffectiveCoefficients",
    "EllipticityError",
    "assemble_effective",
    "check_vfc",
    "diffusion_matrix",
    "drift_vector",
    "DriftDiffusionSolver",
    "MacroField",
    "initial_density",
    "KineticSolver",
    "KineticState",
    "StabilityError",
    "ConfigError",
    "ScenarioConfig",
    "dump_config",
    "emit_tables",
    "epsilon_sweep",
    "parse_config",
    "run_pipeline",
    "sigma_test",
    "__version__",
]
