"""Effective (homogenized) transport coefficients from cell solutions.

The macroscopic density solves a drift-diffusion equation in divergence
form,

    d rho / dt = Div( D grad rho + U rho ),

whose coefficients are velocity-and-cell averages of the microscopic
solutions:

* ``D``   comes from pairing the adjoint correctors against the transport
  flux of the equilibrium.  The raw pairing ``int M(chi_i a_j F) dmu`` is
  negative (semi-)definite; the divergence-form tensor is its negative,
  which is what this module returns and what the macro solver consumes.
* ``U``   pairs the correctors against the slow gradient of the
  equilibrium, and is zero: every cell operator forms its loss rate as
  the gain's row sum (the samples ``c(x) s(y)`` times the row sums of
  ``g w``), so ``P 1 = 0`` for every kernel and the equilibrium is the
  constant ``1 / mu(V)`` at every macro position.  It
  is kept only as a reported zero; the macro solver does not take it.
* ``b``   is the equilibrium flux ``int M(a F) dmu``; a nonzero value
  means the expansion lives in a co-moving frame, and downstream
  comparisons must shift by it.  It is the only drift.

Ellipticity of the symmetrized tensor is a hard gate: a non-positive
direction means the velocity set cannot span that direction and the
macroscopic model is meaningless there.

A slowly modulated kernel ``c(x) s(y) g(v, w)`` is sampled at macro
positions.  Each position is still assembled and gated, but its cell is
the ``x = 0`` cell with its samples ``c(0) s(y)`` scaled by ``c(x) /
c(0)`` (checked) and the same gain table ``g w``, so ``D`` is an analytic
function of the one scalar ``c``.  The family is solved at nested
Chebyshev-Lobatto nodes in ``c``, from a level predicted by the decay of
``D``'s Chebyshev coefficients, until the Chebyshev tail of ``D`` is
small, and ``D`` is interpolated at every position (barycentric;
Trefethen, *Approximation Theory and Approximation Practice*, SIAM 2013);
when that would take more than half as many cells as there are distinct
``c``, each distinct ``c`` is solved instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinhom.cell_solver import (
    CellStack,
    assemble,
    assemble_spectral_ap,
    equilibrium_F,
    solve_chi_star,
)
from kinhom.phase_space import CellGrid, VelocityMeasure

__all__ = [
    "EllipticityError",
    "EffectiveCoefficients",
    "diffusion_matrix",
    "ellipticity_gate",
    "CellSolution",
    "default_backend",
    "solve_cell",
    "assemble_effective",
]


class EllipticityError(RuntimeError):
    """The symmetrized diffusion tensor has a non-positive direction."""


def diffusion_matrix(op, chi) -> np.ndarray:
    """Homogenized diffusion tensor from correctors and the equilibrium ``op.F``.

    Computes the corrector-flux pairing ``M_ij = int M(chi_i a_j F) dmu``
    and returns ``-M``, the positive-definite divergence-form tensor.  A
    :class:`~kinhom.cell_solver.CellStack` gives one tensor per block,
    ``(m, d, d)``.
    """
    d = op.vm.dim
    # M_ij = <a_j F, chi_i>: every backend's fields are real samples on its
    # grid or torus, so a_j F is the pointwise product
    mat = np.array([[op.pairings(op.velocity_profile(j) * op.F, c) for j in range(d)]
                    for c in chi])
    return -op.per_cell(np.moveaxis(mat, 2, 0))  # (blocks, d, d) -> the operator's result


def ellipticity_gate(D: np.ndarray) -> float:
    """Smallest eigenvalue of ``sym(D)``; raises if meaningfully negative.

    ``D`` is one ``(d, d)`` tensor or a stack ``(m, d, d)``, gated tensor by
    tensor in one batched ``eigvalsh``; the smallest eigenvalue of them all
    is returned.
    """
    sym = 0.5 * (D + np.swapaxes(D, -1, -2))
    lam_min = np.linalg.eigvalsh(sym).min(axis=-1)
    scale = np.fmax(np.trace(sym, axis1=-2, axis2=-1), 1.0)
    failing = lam_min <= -1e-10 * scale
    if np.any(failing):
        raise EllipticityError(
            f"symmetrized diffusion tensor has eigenvalue "
            f"{np.ravel(lam_min)[np.argmax(np.ravel(failing))]:.3e}; "
            "the velocity set does not span this direction"
        )
    return float(lam_min.min())


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Homogenized coefficients, possibly sampled along a macro axis.

    ``x is None`` means the kernel has no macroscopic modulation and the
    tensors are single ``(d, d)`` / ``(d,)`` arrays; otherwise the leading
    axis runs over ``x``.
    """

    x: np.ndarray | None
    D: np.ndarray
    U: np.ndarray
    flux: np.ndarray
    residual: float
    bound_constant: float
    ellipticity_min: float  # smallest eigenvalue of sym(D) over the positions
    family_cell_solves: int = 0     # cells solved for a sampled family
    family_cheb_tail: float = 0.0   # its Chebyshev tail in c, 0 when solved at each c

    @property
    def constant(self) -> bool:
        return self.x is None


def default_backend(kernel) -> str:
    """``"grid"`` for kernels with a finite period, else ``"spectral_ap"``."""
    return "grid" if kernel.natural_period is not None else "spectral_ap"


@dataclass(frozen=True)
class CellSolution:
    """One solved cell problem (see :func:`solve_cell`)."""

    op: object           # cell operator; its kernel, velocity set and equilibrium F
    lam: float
    b: np.ndarray        # equilibrium flux
    D: np.ndarray        # divergence-form diffusion tensor, ellipticity-gated
    ellipticity_min: float  # smallest eigenvalue of sym(D)
    residual: float
    bound_constant: float
    settings: dict       # the solve_cell keywords it was solved with, backend resolved
    chi: list            # the adjoint correctors, flat fields


def _assemble(kernel, x, vm: VelocityMeasure, settings: dict):
    """The cell operator at ``x`` on the backend of the :func:`solve_cell` ``settings``."""
    if settings["backend"] == "spectral_ap":
        return assemble_spectral_ap(kernel, x, vm, n_modes=settings["n_modes"])
    if settings["grid"] is None:
        raise ValueError("grid backend needs a cell grid")
    return assemble(kernel, x, vm, settings["grid"], scheme=settings["scheme"])


def solve_cell(kernel, x, vm: VelocityMeasure, *, backend: str | None = None,
               grid: CellGrid | None = None, scheme: str = "upwind", n_modes: int = 8,
               tol: float | None = None) -> CellSolution:
    """Solve the cell problem at ``x``: operator, equilibrium, correctors, ``D``.

    ``backend`` is ``"grid"`` (needs ``grid`` and ``scheme``) or
    ``"spectral_ap"`` (uses ``n_modes``); ``None`` picks
    :func:`default_backend`.  Raises :class:`EllipticityError` when the
    diffusion tensor has a non-positive direction.
    """
    settings = dict(backend=default_backend(kernel) if backend is None else backend,
                    grid=grid, scheme=scheme, n_modes=n_modes, tol=tol)
    op = _assemble(kernel, x, vm, settings)
    lam, _ = equilibrium_F(op)
    star = solve_chi_star(op, tol=tol)
    D = diffusion_matrix(op, star.chi)
    return CellSolution(op=op, lam=lam, b=star.b, D=D, ellipticity_min=ellipticity_gate(D),
                        residual=star.residual, bound_constant=star.bound_constant,
                        settings=settings, chi=star.chi)


# Most unknowns one stacked solve of a sampled family takes (at least one
# cell): the length of its Krylov vectors, whose worst block sets the
# iteration count (12-18 a stack on tanh).  Solving all 512 positions of
# 128 unknowns of the tanh benchmark (2-core Xeon, one pinned CPU, min of
# 5), stacks of 4096, 8192, 16,384, 32,768 and 65,536 unknowns took 95, 77,
# 72, 74 and 81 ms (1030 ms one position at a time) and added 1.7-3.3,
# 3.6-4.7, 7.3-8.8, 14 and 27 MB to the peak memory (0.5 MB).  At 16,384
# the 39 MB basis stays above glibc's 32 MB mmap ceiling, so freeing it
# moves no allocator threshold.  That family's Chebyshev nodes take stacks
# of 17 and 16 cells (2176 and 2048 unknowns).
STACK_UNKNOWNS = 16384

# Largest gap, relative to the x0 cell's largest sample, between a
# position's gated samples c(x) s(y) and c(x) / c(x0) times the x0 cell's:
# on the ray they differ in their last bits only.
RAY_RTOL = 1e-12

# Chebyshev-Lobatto levels in c have 2^k + 1 nodes, each keeping the nodes
# of the last.  A level is taken once the last two Chebyshev coefficients
# of D are at most CHEB_TAIL relative to the first.  Stacked solves agree
# with per-position ones to about 6e-13 relative, so a smaller tail buys
# nothing.  The first level is predicted (_first_level): on the tanh
# benchmark's 512 positions (c in [0.5, 1.5]) it is 33 nodes, where the
# tail is 1.2e-15 and D within 6e-13 of the stacked solves at every
# position; at beta = 0.9 it is 65 (tail 4.2e-13, D within 1.1e-12).
CHEB_TAIL = 1e-12


def _ray_ratios(cell: CellSolution, x: np.ndarray) -> np.ndarray:
    """``c(x) / c(x0)`` at every position, each position's rates gated and on that ray.

    Every position is assembled with the kernel, velocity set and settings
    of ``cell`` (so sampled and gated: positive, finite, in semi-detailed
    balance), one at a time.  Its samples ``c(x) s(y)`` must be ``c(x) /
    c(x0)`` times those of ``cell``, at ``x0``, within ``RAY_RTOL``; the
    gain table is the kernel's, so the rates follow.  A position off that
    ray is refused with a :class:`ValueError` naming it, as the family is
    solved along the ray.
    """
    like, kernel = cell.op, cell.op.kernel
    c0, samples0 = kernel.x_factor(like.x), like.samples[0]
    scale = np.abs(samples0).max()
    level = RAY_RTOL * scale
    ratios = np.empty(x.size)
    for i, xi in enumerate(x.tolist()):
        ratios[i] = ratio = float(kernel.x_factor(xi) / c0)
        samples = _assemble(kernel, xi, like.vm, cell.settings).samples[0]
        off = np.abs(samples - ratio * samples0).max()
        if not off <= ratio * level:
            raise ValueError(
                f"rates at x = {xi!r} are off the ray through the x0 = {like.x!r} cell: not "
                f"c(x) / c(x0) = {ratio!r} times its rates, by {off / (ratio * scale):.3e} "
                "relative; the family is solved along that ray"
            )
    return ratios


def _solve_at(cell: CellSolution, ratios: np.ndarray):
    """``(D, residual, bound constant)`` of the cells of ``ratios`` times ``cell``'s rates.

    The cells take the grid, velocity set and settings of ``cell``, on
    either backend, and are solved in chunks of at most ``STACK_UNKNOWNS``
    unknowns (at least one cell), each chunk one
    :class:`~kinhom.cell_solver.CellStack` of the scaled samples of
    ``cell`` and its gain table.  ``D`` comes one a cell, the diagnostics
    as their worst.
    """
    like = cell.op
    per_chunk = max(1, STACK_UNKNOWNS // like.block_size)
    D, residual, bound = [], 0.0, 0.0
    for start in range(0, ratios.size, per_chunk):
        r = ratios[start:start + per_chunk, None]
        stack = CellStack(like.grid, like.vm, r * like.samples, like.G, like.scheme)
        equilibrium_F(stack)
        star = solve_chi_star(stack, tol=cell.settings["tol"])
        D.append(diffusion_matrix(stack, star.chi))
        residual = max(residual, float(star.residual.max()))
        bound = max(bound, float(star.bound_constant.max()))
    return np.concatenate(D), residual, bound


def _lobatto(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` Chebyshev-Lobatto nodes on ``[lo, hi]``, from ``hi`` down to ``lo``."""
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n) / (n - 1))
    nodes[0], nodes[-1] = hi, lo
    return nodes


def _chebyshev_tail(values: np.ndarray) -> float:
    """Size of the last two Chebyshev coefficients of ``values`` at :func:`_lobatto` nodes.

    Their largest magnitude over the tensor entries, relative to the
    largest of the first coefficient's (coefficients by the DCT-I).
    """
    N = len(values) - 1
    f = values.reshape(N + 1, -1) * np.where(np.arange(N + 1) % N, 1.0, 0.5)[:, None]
    k = np.array([0, N - 1, N])
    a = np.abs(np.cos(np.pi * np.outer(k, np.arange(N + 1)) / N) @ f)
    return float(max(a[1].max(), 0.5 * a[2].max()) / (0.5 * a[0].max()))


def _barycentric(nodes: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The polynomial through ``values`` at the :func:`_lobatto` ``nodes``, at ``at``."""
    w = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    diff = at[:, None] - nodes
    hit = diff == 0.0
    weights = np.where(hit.any(axis=1, keepdims=True), hit, w / np.where(hit, 1.0, diff))
    return np.tensordot(weights / weights.sum(axis=1, keepdims=True), values, axes=1)


def _first_level(lo: float, hi: float) -> int:
    """Nodes of the first Chebyshev-Lobatto level for ``D`` on ``[lo, hi]``, ``0 < lo < hi``.

    Taking ``D`` analytic in ``c`` but at ``c = 0``, where the rates vanish,
    its Chebyshev coefficients decay as ``rho^-k``, ``rho = a + sqrt(a^2 -
    1)``, ``a = (hi + lo) / (hi - lo)``, and reach ``CHEB_TAIL`` at degree
    ``ln(1 / CHEB_TAIL) / ln rho``: the smallest ``2^k + 1`` nodes, at
    least 3, of that degree.  The tail test still gates every level.
    """
    a = (hi + lo) / (hi - lo)
    degree = math.log(1.0 / CHEB_TAIL) / math.log(a + math.sqrt(a * a - 1.0))
    return 2 ** max(1, math.ceil(math.log2(degree))) + 1


def _solve_family(cell: CellSolution, x: np.ndarray):
    """``(D, residual, bound constant, cell solves, Chebyshev tail)`` at ``x``.

    Every position is gated and checked on the ray through ``cell``
    (:func:`_ray_ratios`), so its cell is ``cell``'s with the rates scaled
    by ``r = c(x) / c(x0)``, and ``D`` depends on ``x`` through ``r``
    alone, analytically.  The family is solved (:func:`_solve_at`) at
    nested Chebyshev-Lobatto nodes on ``[r_min, r_max]`` (the level of
    :func:`_first_level`, then twice as dense) until the Chebyshev tail of
    ``D`` is at most ``CHEB_TAIL``, and ``D`` is interpolated at every
    ``r``.  A level with more nodes than half the distinct ``r`` is not
    tried: the distinct ``r`` are solved instead, each once, with a tail of
    0.  The diagnostics are the worst over every solve; the end nodes are
    ``r_min`` and ``r_max``.
    """
    ratios = _ray_ratios(cell, x)
    distinct, where = np.unique(ratios, return_inverse=True)
    residual = bound = 0.0
    solves, values = 0, None
    n = _first_level(distinct[0], distinct[-1]) if distinct.size > 1 else distinct.size
    while 2 * n <= distinct.size:
        nodes = _lobatto(distinct[0], distinct[-1], n)
        new = nodes if values is None else nodes[1::2]
        D, res, bnd = _solve_at(cell, new)
        residual, bound, solves = max(residual, res), max(bound, bnd), solves + new.size
        if values is None:
            values = D
        else:  # the last level's nodes are every other node of this one
            merged = np.empty((n, *D.shape[1:]))
            merged[::2], merged[1::2] = values, D
            values = merged
        tail = _chebyshev_tail(values)
        if tail <= CHEB_TAIL:
            return _barycentric(nodes, values, ratios), residual, bound, solves, tail
        n = 2 * n - 1
    D, res, bnd = _solve_at(cell, distinct)
    return D[where], max(residual, res), max(bound, bnd), solves + distinct.size, 0.0


def assemble_effective(cell: CellSolution, x=None) -> EffectiveCoefficients:
    """Average the cell problems into macro coefficients.

    ``cell`` is the :func:`solve_cell` result at ``x = 0``.  ``x`` is
    ``None`` (no modulation) or a non-empty 1-D array of finite macro
    positions.  A kernel without modulation, or ``x = None``, gives the
    cell's own ``D``, flux and diagnostics.  Otherwise every position is
    assembled and gated one at a time with the kernel, velocity set and
    settings of ``cell``, and its rates must be ``c(x) / c(0)`` times those
    of ``cell`` (every built-in kernel is ``c(x) s(y) g(v, w)``); a
    position off that ray is refused.  ``D`` then depends on ``x`` only
    through the scalar ``c``, analytically, and the family is solved at a
    few values of ``c`` (:func:`_solve_family`): nested Chebyshev-Lobatto
    nodes on ``[c_min, c_max]``, from a predicted first level, with ``D``
    interpolated at each position,
    or the distinct ``c`` themselves when they are fewer.  Either way the
    cells are solved in stacks of at most ``STACK_UNKNOWNS`` unknowns (see
    :class:`kinhom.cell_solver.CellStack`), with no factorization; the
    ellipticity gate then runs once over all positions.  The flux pairs
    the equilibrium ``1 / mu(V)`` with ``a(v)``, the same at every ``c``,
    so it is the cell's; the drift ``U`` is zero at every position (see the
    module docstring).  ``family_cell_solves`` counts the cells solved and
    ``family_cheb_tail`` is the Chebyshev tail taken (0 when the distinct
    ``c`` were solved).
    """
    kernel, vm = cell.op.kernel, cell.op.vm
    if x is None or kernel.x_dependence == "none":
        return EffectiveCoefficients(x=None, D=cell.D, U=np.zeros(vm.dim), flux=cell.b,
                                     residual=cell.residual, bound_constant=cell.bound_constant,
                                     ellipticity_min=cell.ellipticity_min)

    x_arr = np.asarray(x, dtype=float).reshape(-1)
    if x_arr.size == 0 or not np.all(np.isfinite(x_arr)):
        raise ValueError(f"sampled macro positions x must be non-empty and finite; got {x_arr}")
    D, residual, bound, solves, tail = _solve_family(cell, x_arr)
    return EffectiveCoefficients(x=x_arr, D=D, U=np.zeros((x_arr.size, vm.dim)),
                                 flux=np.tile(cell.b, (x_arr.size, 1)), residual=residual,
                                 bound_constant=bound, ellipticity_min=ellipticity_gate(D),
                                 family_cell_solves=solves, family_cheb_tail=tail)
