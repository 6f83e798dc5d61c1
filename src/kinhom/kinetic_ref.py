"""Direct solver for the stiff-scaled kinetic equation at fixed epsilon.

Integrates

    eps df/dt + a(v) df/dx = (1/eps) Q f,      Q evaluated at y = x/eps,

on a periodic 1-D macro grid by Strang splitting: a transport half-step at
speed ``a/eps`` (first-order upwind by default, or an exact FFT
phase-shift), a full collision step at every grid point (implicit Euler by
default, or the exact matrix exponential), and a second transport
half-step.

Everything that depends only on the step size is built once per size and
reused by every sub-step: the FFT phase factors of the shift half-step
(keyed on the exact ``dt``) and the per-point collision matrices (keyed on
``dt`` to 12 significant digits, so sub-steps that differ by roundoff
share one set; the exact closure computes them in one batched ``expm``).

Both collision closures conserve mass identically for balanced kernels —
the weighted row sums of Q vanish, and that property transfers to
``(I - tau Q)^{-1}`` and ``expm(tau Q)`` alike — and are L2-dissipative,
which is what the monitor checks.  The solver refuses kernels that violate
semi-detailed balance unless explicitly told not to (negative controls).

Scheme notes: the implicit collision step adds an O(dt/eps^2) artificial
broadening to the walked-out density, which is harmless for single runs
but visible in sharp limit studies; those should configure
``collision="exact"``, whose splitting bias is O((dt Sigma/eps^2)^2) and
is kept small by the ``c_split`` step-size cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from kinhom.collision import ScatteringKernel, gain_loss, sdb_gap
from kinhom.phase_space import MacroGrid, VelocityMeasure, checkpoint_substeps

__all__ = [
    "StabilityError",
    "KineticState",
    "KineticSolver",
    "periodic_shift",
    "shift_wavenumbers",
]

log = logging.getLogger(__name__)


class StabilityError(RuntimeError):
    """A requested time step violates the scheme's stability condition."""


@dataclass(frozen=True)
class KineticState:
    """Phase-space snapshot ``f(t; x_j, v_k)`` at one checkpoint."""

    f: np.ndarray           # (n_x, K)
    t: float
    epsilon: float
    dt: float
    grid: MacroGrid
    vm: VelocityMeasure

    def density(self) -> np.ndarray:
        """Velocity integral ``rho(t, x_j) = int f dmu``."""
        return self.f @ self.vm.weights

    def mass(self) -> float:
        return float(self.density().sum() * self.grid.cell_volume)

    def l2_norm(self) -> float:
        """Discrete ``L2(dx dmu)`` norm, the quantity the energy estimate bounds."""
        return float(
            np.sqrt(self.grid.cell_volume * np.sum(self.vm.weights * self.f**2))
        )


def shift_wavenumbers(grid: MacroGrid) -> np.ndarray:
    """Angular wavenumbers of the real FFT along a periodic 1-D macro grid."""
    return 2.0 * np.pi * np.fft.rfftfreq(grid.shape[0], d=grid.spacing[0])


def periodic_shift(values: np.ndarray, shift, kappa: np.ndarray) -> np.ndarray:
    """Translate periodic samples right along axis 0 via the FFT phase rule.

    ``shift`` is a scalar or one shift per column of ``values``; ``kappa``
    holds the grid's :func:`shift_wavenumbers`.
    """
    return _apply_phase(values, _phase(kappa, shift))


def _phase(kappa: np.ndarray, shift) -> np.ndarray:
    """FFT phase factors ``exp(-i kappa shift)`` of a rightward translation."""
    return np.exp(-1j * np.multiply.outer(kappa, shift))


def _apply_phase(values: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Multiply the real FFT of ``values`` along axis 0 by ``phase`` and invert."""
    spectra = np.fft.rfft(values, axis=0)
    spectra *= phase
    return np.fft.irfft(spectra, n=values.shape[0], axis=0)


class KineticSolver:
    """Strang-split integrator for the scaled kinetic Cauchy problem.

    Parameters
    ----------
    kernel :
        A :class:`~kinhom.collision.ScatteringKernel` (evaluated pointwise
        at ``y = x/eps``, so quasi-periodic profiles need no grid
        commensurability), or a raw node table — constant ``(K, K)`` or
        per-point ``(n_x, K, K)`` — for controlled experiments.
    grid :
        Periodic 1-D macro grid.
    scheme :
        Transport half-step: ``"upwind"`` (default, CFL-limited) or
        ``"shift"`` (exact FFT translation, no CFL).
    collision :
        ``"implicit"`` (default; backward Euler, unconditionally stable)
        or ``"exact"`` (matrix exponential; use for limit studies).
    validate :
        Refuse kernels failing semi-detailed balance.  Disable only for
        negative-control experiments.
    """

    def __init__(
        self,
        kernel,
        vm: VelocityMeasure,
        grid: MacroGrid,
        epsilon: float,
        scheme: str = "upwind",
        collision: str = "implicit",
        c_cfl: float = 0.9,
        c_split: float = 0.1,
        validate: bool = True,
    ):
        if grid.dim != 1 or vm.dim != 1:
            raise ValueError("the kinetic reference is one-dimensional")
        if grid.bc != "periodic":
            raise ValueError("the kinetic reference needs a periodic macro grid")
        if scheme not in ("upwind", "shift"):
            raise ValueError(f"unknown transport scheme {scheme!r}")
        if collision not in ("implicit", "exact"):
            raise ValueError(f"unknown collision closure {collision!r}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.vm = vm
        self.grid = grid
        self.epsilon = float(epsilon)
        self.scheme = scheme
        self.collision = collision
        self.c_cfl = float(c_cfl)
        self.c_split = float(c_split)

        n_x = grid.n_points
        x = grid.axes()[0]
        if isinstance(kernel, ScatteringKernel):
            rates = kernel.evaluate(x, x / self.epsilon, vm)  # (n_x, K, K)
        else:
            arr = np.asarray(kernel, dtype=float)
            if arr.shape == (vm.n_nodes, vm.n_nodes):
                rates = np.broadcast_to(arr, (n_x, vm.n_nodes, vm.n_nodes)).copy()
            elif arr.shape == (n_x, vm.n_nodes, vm.n_nodes):
                rates = arr.copy()
            else:
                raise ValueError(f"kernel table has shape {arr.shape}")
        if np.any(rates <= 0):
            raise ValueError("scattering rates must be strictly positive")
        if validate:
            sdb_gap(rates, vm.weights).require()
        # per-point generators Q = gain - diag(loss)
        self._Q, loss = gain_loss(rates, vm.weights)
        nodes = np.arange(vm.n_nodes)
        self._Q[:, nodes, nodes] -= loss
        self._sigma_max = float(loss.max())
        self._speeds = vm.field[:, 0]
        self._kappa = shift_wavenumbers(grid)
        # everything that depends only on the step size, built once per size
        self._phase_cache: dict[float, np.ndarray] = {}
        self._collision_cache: dict[float, np.ndarray] = {}

    # -- step-size policy -------------------------------------------------------

    def default_dt(self) -> float:
        """Largest step honoring the CFL (upwind) and splitting caps."""
        h = self.grid.spacing[0]
        amax = float(np.abs(self._speeds).max())
        candidates = []
        if self.scheme == "upwind" and amax > 0:
            candidates.append(self.c_cfl * self.epsilon * h / amax)
        if self.scheme == "shift" or self.collision == "exact":
            candidates.append(self.c_split * self.epsilon**2 / self._sigma_max)
        if not candidates:
            candidates.append(self.c_cfl * self.epsilon * h)
        return float(min(candidates))

    def _check_cfl(self, dt: float) -> None:
        if self.scheme != "upwind":
            return
        h = self.grid.spacing[0]
        amax = float(np.abs(self._speeds).max())
        if amax == 0:
            return
        limit = self.c_cfl * self.epsilon * h / amax
        if dt > limit * (1 + 1e-12):
            raise StabilityError(
                f"dt={dt:.3e} exceeds the upwind CFL limit {limit:.3e} "
                f"(c_cfl={self.c_cfl}, eps={self.epsilon})"
            )

    # -- split sub-steps ----------------------------------------------------------

    def transport_half(self, f: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``df/dt + (a/eps) df/dx = 0`` over ``dt/2``."""
        if self.scheme == "shift":
            # keyed on the exact step: the phase of each call's own dt
            key = float(dt)
            phase = self._phase_cache.get(key)
            if phase is None:
                shift = self._speeds * dt / (2.0 * self.epsilon)
                phase = self._phase_cache[key] = _phase(self._kappa, shift)
            return _apply_phase(f, phase)
        out = np.array(f, dtype=float)
        h = self.grid.spacing[0]
        for k, a in enumerate(self._speeds):
            if a == 0.0:
                continue
            nu = a * dt / (2.0 * self.epsilon * h)
            col = out[:, k]
            if a > 0:
                out[:, k] = col - nu * (col - np.roll(col, 1))
            else:
                out[:, k] = col - nu * (np.roll(col, -1) - col)
        return out

    def _collision_matrices(self, dt: float) -> np.ndarray:
        # 12 significant digits: steps that differ by roundoff share one entry
        key = float(f"{float(dt):.11e}")
        if key not in self._collision_cache:
            tau = dt / self.epsilon**2
            if self.collision == "implicit":
                eye = np.eye(self.vm.n_nodes)
                mats = np.linalg.inv(eye[None, :, :] - tau * self._Q)
            else:
                mats = scipy.linalg.expm(tau * self._Q)
            self._collision_cache[key] = mats
        return self._collision_cache[key]

    def collision_full(self, f: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``df/dt = (1/eps^2) Q f`` over ``dt`` at every point."""
        mats = self._collision_matrices(dt)
        return np.einsum("xkl,xl->xk", mats, f)

    def step(self, f: np.ndarray, dt: float) -> np.ndarray:
        """One Strang step: transport half, collision, transport half."""
        self._check_cfl(dt)
        mid = self.transport_half(f, dt)
        mid = self.collision_full(mid, dt)
        return self.transport_half(mid, dt)

    # -- full integration -----------------------------------------------------------

    def run(
        self,
        f0: np.ndarray,
        T: float,
        checkpoints: np.ndarray | None = None,
        dt: float | None = None,
    ) -> list[KineticState]:
        """Integrate to ``T`` and return the checkpoint states.

        The step size (``dt`` or :meth:`default_dt`) is shrunk per
        checkpoint interval so checkpoint times are hit exactly.  The L2
        monitor is evaluated at every checkpoint; growth beyond 1e-8
        relative over the initial value is logged as a warning (it cannot
        happen for balanced kernels).
        """
        f = np.array(f0, dtype=float)
        if f.shape != (self.grid.n_points, self.vm.n_nodes):
            raise ValueError(
                f"initial state must have shape {(self.grid.n_points, self.vm.n_nodes)}"
            )
        dt_target = float(dt) if dt is not None else self.default_dt()
        plan = checkpoint_substeps(checkpoints, T, dt_target)
        self._check_cfl(dt_target)

        states = [
            KineticState(f=f.copy(), t=0.0, epsilon=self.epsilon, dt=dt_target,
                         grid=self.grid, vm=self.vm)
        ]
        l2_init = states[0].l2_norm()
        for t1, n_sub, sub_dt in plan:
            for _ in range(n_sub):
                f = self.step(f, sub_dt)
            state = KineticState(f=f.copy(), t=t1, epsilon=self.epsilon,
                                 dt=sub_dt, grid=self.grid, vm=self.vm)
            if state.l2_norm() > l2_init * (1.0 + 1e-8):
                log.warning(
                    "L2 monitor grew at t=%.6g: %.17g > %.17g",
                    t1, state.l2_norm(), l2_init,
                )
            states.append(state)
        return states
