"""kinhom: diffusion limits of velocity-jump transport in oscillating media.

The package upscales a linear kinetic (velocity-jump) equation with a
rapidly oscillating scattering kernel to its macroscopic drift-diffusion
limit: it solves the microstructure cell problems, assembles the effective
coefficient tensors, advances the limiting parabolic equation, and
cross-validates the whole chain against a direct kinetic reference solver
at finite scale separation.
"""

from kinhom.mv_algebra import RepresentationError, SpectralAPFn
from kinhom.phase_space import CellGrid, MacroGrid, VelocityMeasure
from kinhom.collision import (
    BalanceError,
    ScatteringKernel,
    check_sdb,
    make_kernel,
)
from kinhom.cell_solver import (
    CellOperator,
    CellStack,
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
    diffusion_matrix,
)
from kinhom.macro_solver import DriftDiffusionSolver, MacroField
from kinhom.kinetic_ref import KineticSolver, KineticState
from kinhom.harness import (
    ConfigError,
    ScenarioConfig,
    dump_config,
    emit_tables,
    parse_config,
    run_pipeline,
    sigma_test,
)

__version__ = "0.1.0"

__all__ = [
    "SpectralAPFn",
    "RepresentationError",
    "CellGrid",
    "MacroGrid",
    "VelocityMeasure",
    "BalanceError",
    "ScatteringKernel",
    "check_sdb",
    "make_kernel",
    "CellOperator",
    "CellStack",
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
    "diffusion_matrix",
    "DriftDiffusionSolver",
    "MacroField",
    "KineticSolver",
    "KineticState",
    "ConfigError",
    "ScenarioConfig",
    "dump_config",
    "emit_tables",
    "parse_config",
    "run_pipeline",
    "sigma_test",
    "__version__",
]
