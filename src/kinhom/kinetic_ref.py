"""Direct solver for the stiff-scaled kinetic equation at fixed epsilon.

Integrates

    eps df/dt + a(v) df/dx = (1/eps) Q f,      Q evaluated at y = x/eps,

on a periodic 1-D macro grid by Strang splitting: a transport half-step at
speed ``a/eps`` by exact FFT phase-shift, a full collision step at every
grid point by the exact matrix exponential, and a second transport
half-step.  Both sub-steps are exact, so the only error in ``dt`` is the
splitting's: the step is symmetric and second order in ``dt`` alone, its
global error expands in even powers of ``dt``, and :meth:`KineticSolver.run`
returns the Richardson extrapolation ``(4 S_{dt/2} - S_dt)/3`` of a coarse
run and a fine run of exactly twice the steps (Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, 2006, II.4).  That removes the
O((dt Sigma/eps^2)^2) splitting bias, the coarse step is capped at
``c_split eps^2 / Sigma_max`` with ``c_split = 0.5``, and each state
carries the step-doubling estimate ``|S_{dt/2} - S_dt| / (3 |S_{dt/2}|)``
of the unextrapolated fine run's own splitting error.  It is an
estimate, not a bound, and it over-states what extrapolation leaves: on
the ``small_eps`` benchmark scenario it reads 1.33e-3 where the
extrapolated states differ from a ``c_split = 0.1`` run by 1.98e-5,
about 67 times less.  The combination is linear, so it conserves mass,
but it does not keep positivity.

Between steps the state is the real FFT of ``f`` along ``x``, held
velocity-major: shape ``(K, n_x//2 + 1)``, one contiguous row per velocity
node.  The exact shift is diagonal there, so a half-step is one multiply
by the phase factors ``exp(-i kappa a dt / (2 eps))``, a table of the same
shape.  The collision is pointwise, in real space, but only the deviations
of ``f`` from its velocity-constant part need to go there, and only the
part of the increment that mass conservation leaves free needs to come
back (the micro-macro split of Lemou & Mieussens, *SIAM J. Sci. Comput.*
31 (2008) 334-368): a Strang step makes one inverse FFT of the K-1 rows
``f[1:] - f[0]``, forms rows ``1..K-1`` of the collision increment
``(M - I) f`` from them, makes one forward FFT of those K-1 rows, and adds
them to the state with row 0 rebuilt in Fourier space (see below).
:meth:`KineticSolver.run` transforms ``f0`` once and inverts the two runs
only at checkpoints, where it transposes back: a :class:`KineticState`
holds ``f`` as ``(n_x, K)`` in C order, so its reductions sum in the same
order whatever the layout of the steps.  On an even grid the Nyquist mode
``cos(pi j)`` has no sine partner on the grid, so a shifted Nyquist mode
keeps only its real part, as an ``irfft`` of the product would: its phase
is ``cos(kappa_N shift)``.  With that phase the spectral steps equal the
real-space composition of :func:`periodic_shift` and the collision step
``f -> M f`` to roundoff; with the complex phase the Nyquist content would
turn into an imaginary part that the next ``irfft`` drops.

The coarse and the fine run are stepped together: :meth:`KineticSolver.run`
holds them as one stacked ``(2, K, n_x//2 + 1)`` pair, and each coarse step
is one :meth:`~KineticSolver.step` of the pair at the size tuple ``(dt,
dt/2)``, the coarse step with the fine run's first, then one step of the
fine run alone at ``dt/2``, written back into the pair (``step``'s
``out``): two ``step`` calls and four FFT calls per
coarse step instead of three and six, most of whose cost on a 1-D grid is
the per-call overhead of numpy's FFT.  ``step``, ``transport_half`` and
``collision_full`` take an optional leading stack axis, with ``dt`` a
tuple of one size per entry, through one code path (``...`` indexing); the
arithmetic per element is that of the single steps, so every state is
bitwise what separate coarse and fine loops give.

There is no upwind transport or implicit-Euler collision: upwind adds
O(h/eps) numerical diffusion and implicit Euler an O(dt/eps^2) broadening,
so with either the error does not fall with ``eps`` and the scheme is not
asymptotic-preserving (Jin, *SIAM J. Sci. Comput.* 21 (1999) 441-454).

Everything that depends only on the step size is built once per size and
reused by every sub-step: the FFT phase factors of the half-step (keyed on
the exact ``dt``) and the per-point collision tables (looked up by the
exact ``dt`` and, on a miss, by ``dt`` to 12 significant digits, so
sub-steps that differ by roundoff share one set).  :meth:`KineticSolver.run`
steps equal checkpoint intervals, whose sizes differ by roundoff, at one
size, so a run builds one table set per size.  A size tuple gets the
stack of its sizes' tables, built once from them and cached under the
tuple, so a stacked sub-step makes one lookup.

The collision step is ``M = expm(dt Q / eps^2)`` at every point, all
``n_x`` of them in one batched scaling-and-squaring Padé(13) exponential
(Higham, *SIAM J. Matrix Anal. Appl.* 26 (2005) 1179-1193): one scaling
from the batch's largest 1-norm, batched matrix products and one batched
solve.  :func:`~kinhom.collision.gain_loss` takes the loss as the gain's
row sum, so ``Q 1 = 0`` for every rate table, balanced or not: ``M - I``
annihilates the velocity-constant vector, and exactly

    M f = f + sum_{l >= 1} (M - I)[:, l] (f_l - f_0).

The tables are columns ``1..K-1`` of ``D = M - I`` in the rows the solver
keeps, stored ``(K-1, R, n_x)`` with the column index first, and the
increment is one multiply and one in-place add of whole ``(R, n_x)``
blocks per deviation row: ``D[:, 1] g[0] + D[:, 2] g[1] + ...`` in that
order.  With one velocity node there are no deviations, the increment is
zero and the run is pure transport.

For balanced kernels the weighted column sums vanish too, and that
transfers to the exponential: ``mu^T Q = 0`` gives ``mu^T (M - I) = 0``,
so row 0 of the increment is ``-sum_{k >= 1} (mu_k / mu_0)`` times row
``k``.  A validated solver keeps rows ``R = 1..K-1`` only, forward
transforms K-1 rows and rebuilds row 0's spectrum from theirs in the add
to the state; the weighted zero mode ``sum_k mu_k f_hat_k[0]``, the mass,
then holds to roundoff.  Balance holds to the gate's tolerance
:data:`~kinhom.collision.SDB_TOL`, not exactly: ``(mu^T Q)_l = mu_l (in_l
- out_l)`` and ``expm(s Q)`` is row-stochastic, so the row-0 defect this
drops is at most about ``SDB_TOL (dt Sigma_max / eps^2) (mu(V) / mu_0) max|f|``
a step.  The collision step is L2-dissipative, which is what the monitor
checks.  The solver refuses kernels that violate semi-detailed balance
unless explicitly told not to; those negative controls keep all K rows, so
their mass drifts as the unbalanced kernel makes it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from kinhom.collision import ScatteringKernel, gain_loss, sdb_gap
from kinhom.phase_space import MacroGrid, VelocityMeasure, checkpoint_substeps, step_key

__all__ = [
    "C_SPLIT_EXTRAPOLATED",
    "KineticState",
    "KineticSolver",
    "initial_tail",
    "periodic_shift",
    "shift_wavenumbers",
]

log = logging.getLogger(__name__)

# ``c_split = "auto"``: the cap on the coarse step of the Richardson pair.
# From 0.6 up, what extrapolation leaves lifts the (1, cos2pi, a1)
# oscillation residual at eps = 0.1 above its roundoff-level value at
# eps = 0.2, which acceptance criterion 6 requires to fall
# (``tools/split_study.py`` prints the series).
C_SPLIT_EXTRAPOLATED = 0.5

# :func:`initial_tail` level above which the exact shift of a datum rings.
# Gaussian data of width 0.05-0.3 on 128 and 256 cells of [-4, 4], at 6.4
# cells per fast period: data with a tail at roundoff leave the
# smallest f at -3e-6 (128 cells) and -7e-7 (256) of max f; tails up to
# 4e-4 stay within a few times that, 8.9e-4 gives -8.8e-6, and 2e-2 gives
# -4e-5 to -5e-5.  The reduced small_eps datum (tail 2.2e-2) reaches
# -3.2e-3 at 3.2 cells per period
TAIL_LEVEL = 1e-3


@dataclass(frozen=True)
class KineticState:
    """Phase-space snapshot ``f(t; x_j, v_k)`` at one checkpoint."""

    f: np.ndarray           # (n_x, K)
    t: float
    epsilon: float
    dt: float                       # the (coarse) step of the interval ending at t
    grid: MacroGrid
    vm: VelocityMeasure
    steps: int = 0                  # Strang steps taken from t = 0, coarse plus fine
    split_est: float | None = None  # step-doubling estimate; None at t = 0

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


def initial_tail(rho: np.ndarray) -> float:
    """Relative L2 weight of a periodic 1-D density at high wavenumbers.

    ``||rho_high|| / ||rho||`` by Parseval, where ``rho_high`` keeps the
    real-FFT modes from half the Nyquist wavenumber up.  The exact shift
    moves those modes as they are, so a datum with a large tail rings (the
    Gibbs oscillation of its grid interpolant) and ``f`` goes negative.
    Logs a warning above ``TAIL_LEVEL``; the check stage calls it before
    any solve.
    """
    n = rho.size
    power = np.abs(np.fft.rfft(rho)) ** 2
    power[1:(n + 1) // 2] *= 2.0  # each of these modes stands for a conjugate pair
    tail = float(np.sqrt(power[n // 4:].sum() / power.sum()))
    if tail > TAIL_LEVEL:
        log.warning(
            "initial density has relative spectral tail %.3g above half the Nyquist "
            "wavenumber (above %g): the kinetic reference's exact shift rings on it "
            "and f may go negative; refine macro.n or widen the datum",
            tail, TAIL_LEVEL,
        )
    return tail


def periodic_shift(values: np.ndarray, shift, kappa: np.ndarray) -> np.ndarray:
    """Translate periodic samples right along axis 0 via the FFT phase rule.

    ``shift`` is a scalar or one shift per column of ``values``; ``kappa``
    holds the grid's :func:`shift_wavenumbers`.
    """
    spectra = np.fft.rfft(values, axis=0)
    phase = _phase(kappa, shift)
    # along axis 0: a scalar shift of 2-D values moves every column alike
    spectra *= phase.reshape(phase.shape + (1,) * (spectra.ndim - phase.ndim))
    return np.fft.irfft(spectra, n=values.shape[0], axis=0)


# Padé(13) numerator coefficients and the 1-norm bound up to which it meets
# double precision without scaling (Higham 2005, Table 2.3)
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """``expm`` of every matrix of a ``(n, K, K)`` batch at once.

    Scaling and squaring with the Padé(13) approximant (Higham, *SIAM J.
    Matrix Anal. Appl.* 26 (2005) 1179-1193): one scaling ``2^-s`` for the
    whole batch, from its largest 1-norm, batched matrix products, one
    batched solve and ``s`` squarings.
    """
    norm = float(np.abs(A).sum(axis=-2).max())
    s = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    A = A / 2.0**s
    b = _PADE_13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _phase(kappa: np.ndarray, shift) -> np.ndarray:
    """FFT phase factors ``exp(-i kappa shift)`` of a rightward translation."""
    return np.exp(-1j * np.multiply.outer(kappa, shift))


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
    c_split :
        Splitting cap ``c_split eps^2 / Sigma_max`` on the coarse step of
        :meth:`run`.  ``"auto"`` is :data:`C_SPLIT_EXTRAPOLATED`.
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
        c_split: float | str = "auto",
        validate: bool = True,
    ):
        if grid.dim != 1 or vm.dim != 1:
            raise ValueError("the kinetic reference is one-dimensional")
        if grid.bc != "periodic":
            raise ValueError("the kinetic reference needs a periodic macro grid")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.vm = vm
        self.grid = grid
        self.epsilon = float(epsilon)
        self.c_split = float(C_SPLIT_EXTRAPOLATED if c_split == "auto" else c_split)

        # an int once: ``grid.n_points`` is a product over the shape
        n_x = self._n_x = grid.n_points
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
        if not np.all(np.isfinite(rates) & (rates > 0)):
            raise ValueError("scattering rates must be positive and finite")
        if validate:
            sdb_gap(rates, vm.weights).require()
        # per-point generators Q = gain - diag(loss)
        self._Q, loss = gain_loss(rates, vm.weights)
        nodes = np.arange(vm.n_nodes)
        self._Q[:, nodes, nodes] -= loss
        # the rows of (M - I) f that collision_full returns, and the (K, rows)
        # matrix that lifts their spectra to all K rows: balance gives
        # mu^T (M - I) = 0, so row 0 is -sum_{k >= 1} (mu_k / mu_0) row k; a
        # negative control keeps every row
        first = 1 if validate else 0
        self._rows = slice(first, None)
        self._lift = np.eye(vm.n_nodes)[:, first:]
        if validate:
            self._lift[0] = -vm.weights[1:] / vm.weights[0]
        # its columns as complex (K, 1) blocks: a complex-by-complex column
        # multiply costs a third of a mixed one or of a (K, rows) matmul
        self._lift_columns = list(self._lift.T.astype(complex)[:, :, None])
        self._sigma_max = float(loss.max())
        self._speeds = vm.field[:, 0]
        self._kappa = shift_wavenumbers(grid)
        # everything that depends only on the step size, built once per size
        self._phase_cache: dict[float | tuple, np.ndarray] = {}
        self._collision_by_dt: dict[float | tuple, np.ndarray] = {}
        self._collision_cache: dict[float, np.ndarray] = {}

    # -- step-size policy -------------------------------------------------------

    def default_dt(self) -> float:
        """The coarse step: the splitting cap ``c_split eps^2 / Sigma_max``."""
        return float(self.c_split * self.epsilon**2 / self._sigma_max)

    # -- split sub-steps ----------------------------------------------------------

    def transport_half(self, spectra: np.ndarray, dt: float | tuple[float, ...],
                       out: np.ndarray | None = None) -> np.ndarray:
        """Advance ``df/dt + (a/eps) df/dx = 0`` over ``dt/2`` by exact shift.

        ``spectra`` is the real FFT of ``f`` along ``x``, velocity-major
        ``(K, n_x//2 + 1)``, or a stack ``(S, K, n_x//2 + 1)`` of such states
        with ``dt`` a tuple of their ``S`` step sizes; the shift multiplies
        it by the phase factors and returns the product, written into
        ``out`` when given.
        """
        return np.multiply(spectra, self._phase_table(dt), out=out)

    def _phase_table(self, dt: float | tuple[float, ...]) -> np.ndarray:
        """The phase factors of a half-step, ``(K, n_x//2 + 1)``, cached
        under the exact ``dt``; for a tuple of ``S`` sizes, the ``(S, K,
        n_x//2 + 1)`` stack of their tables, cached under the tuple."""
        phase = self._phase_cache.get(dt)
        if phase is None:
            if isinstance(dt, tuple):
                phase = np.stack([self._phase_table(d) for d in dt])
            else:
                shift = self._speeds * dt / (2.0 * self.epsilon)
                phase = np.ascontiguousarray(_phase(self._kappa, shift).T)
                if self._n_x % 2 == 0:
                    # the Nyquist mode is real on the grid: keep cos(kappa_N shift)
                    phase[:, -1] = phase[:, -1].real
            self._phase_cache[dt] = phase
        return phase

    def _collision_matrices(self, dt: float | tuple[float, ...]) -> np.ndarray:
        """Columns ``1..K-1`` of the per-point ``expm(dt Q / eps^2) - I``, in
        the rows the solver keeps.

        A contiguous ``(K-1, R, n_x)`` array indexed ``[l - 1, i, x]``:
        entry ``(k, l)`` of the matrix at point ``x``, ``k`` the ``i``-th kept
        row (``1..K-1`` for a validated kernel, all ``K`` for a negative
        control), so ``D[l - 1]`` is the whole-grid column ``l`` of every
        matrix.  Looked up by the exact ``dt`` first, then by its
        :func:`step_key`.  For a tuple of ``S`` sizes, the ``(K-1, S, R,
        n_x)`` stack of their tables along axis 1, cached under the tuple.
        """
        mats = self._collision_by_dt.get(dt)
        if mats is None:
            if isinstance(dt, tuple):
                mats = np.stack([self._collision_matrices(d) for d in dt], axis=1)
            else:
                key = step_key(dt)
                mats = self._collision_cache.get(key)
                if mats is None:
                    mats = _expm(dt / self.epsilon**2 * self._Q)
                    nodes = np.arange(mats.shape[1])
                    mats[:, nodes, nodes] -= 1.0
                    mats = np.ascontiguousarray(mats[:, self._rows, 1:].transpose(2, 1, 0))
                    self._collision_cache[key] = mats
            self._collision_by_dt[dt] = mats
        return mats

    def collision_full(self, g: np.ndarray, dt: float | tuple[float, ...]) -> np.ndarray:
        """Kept rows of the increment ``(M - I) f`` of the collision step
        ``M = expm(dt Q / eps^2)``.

        ``g = f[1:] - f[0]`` holds the deviations of the velocity-major
        ``f`` from its first node, ``(K-1, n_x)``; ``Q 1 = 0``, so ``M - I``
        annihilates the velocity-constant part and ``(M - I) f = D[:, 1] g[0]
        + D[:, 2] g[1] + ...`` with ``D = M - I``, summed in that order,
        elementwise over the grid: one multiply and one add of whole
        ``(R, n_x)`` blocks per deviation row.  The result is ``(R, n_x)``:
        rows ``1..K-1`` for a validated kernel, whose row 0 follows from mass
        conservation, and all ``K`` rows for a negative control.  With one
        node there are no deviations and it is zero.  A stack ``(S, K-1,
        n_x)`` of deviations with a tuple of ``S`` sizes gives ``(S, R,
        n_x)``, each entry with its own size's tables.
        """
        mats = self._collision_matrices(dt)
        if not mats.shape[0]:
            return np.zeros(mats.shape[1:])
        out = mats[0] * g[..., 0, None, :]
        for l in range(1, mats.shape[0]):
            out += mats[l] * g[..., l, None, :]
        return out

    def step(self, spectra: np.ndarray, dt: float | tuple[float, ...],
             out: np.ndarray | None = None) -> np.ndarray:
        """One Strang step on the real FFT of ``f`` along ``x``, ``(K, n_x//2 + 1)``.

        Transport half; then the collision increment, computed in real
        space from the K-1 deviations ``f[1:] - f[0]`` (one inverse FFT of
        K-1 rows), sent to Fourier space in the rows
        :meth:`collision_full` returns (one forward FFT of K-1 rows for a
        validated kernel) and lifted to all K rows in the add; then
        transport half.  A stack ``(S, K, n_x//2 + 1)`` of states with a
        tuple of ``S`` sizes takes one step of each, every entry at its own
        size, in the same calls: the arithmetic per element is that of the
        single steps, so each entry is bitwise what a single step gives.
        The last half-step writes into ``out`` when given, which may be
        ``spectra`` itself: the first half-step has read it by then.
        """
        spectra = self.transport_half(spectra, dt)
        g = np.fft.irfft(spectra[..., 1:, :] - spectra[..., :1, :], n=self._n_x)
        self._add_increment(spectra, self.collision_full(g, dt))
        return self.transport_half(spectra, dt, out=out)

    def _add_increment(self, spectra: np.ndarray, increment: np.ndarray) -> None:
        """Add the increment, its kept rows in real space, to ``spectra`` in place.

        One forward FFT of the kept rows; each row's spectrum, times its
        column of the lift, goes into all K rows.
        """
        rows = np.fft.rfft(increment)
        for i, column in enumerate(self._lift_columns):
            spectra += column * rows[..., i, None, :]

    # -- full integration -----------------------------------------------------------

    def run(
        self,
        f0: np.ndarray,
        T: float,
        checkpoints: np.ndarray | None = None,
    ) -> list[KineticState]:
        """Integrate to ``T`` and return the checkpoint states.

        The coarse step (:meth:`default_dt`) is shrunk per checkpoint
        interval so checkpoint times are hit exactly.  Intervals whose steps
        agree to 12 significant digits (equal intervals, whose lengths
        differ by roundoff) are all stepped at the first one's size and
        share its tables; each state reports its own interval's step.  A
        fine run takes exactly twice its steps at half its size, and every
        state holds ``(4 fine - coarse)/3`` with the step-doubling
        ``split_est``.  The L2 monitor is evaluated at every checkpoint;
        growth beyond 1e-8 relative over the initial value is logged as a
        warning (it cannot happen for balanced kernels).
        """
        f = np.array(f0, dtype=float)
        n_x = self._n_x
        if f.shape != (n_x, self.vm.n_nodes):
            raise ValueError(
                f"initial state must have shape {(n_x, self.vm.n_nodes)}"
            )
        dt_target = self.default_dt()
        plan = checkpoint_substeps(checkpoints, T, dt_target)

        states = [
            KineticState(f=f.copy(), t=0.0, epsilon=self.epsilon, dt=dt_target,
                         grid=self.grid, vm=self.vm)
        ]
        l2_init = states[0].l2_norm()
        # both runs carry the velocity-major real FFT along x from one
        # transform of f0, stacked: pair[0] the coarse run, pair[1] the fine
        # run.  Each coarse step steps the pair at (dt, dt/2), then the fine
        # run alone at dt/2, in place.  States go back to (n_x, K) only at
        # checkpoints, so every reduction below sums in that order
        f_hat = np.fft.rfft(np.ascontiguousarray(f.T))
        pair = np.stack([f_hat, f_hat])
        steps = 0
        weights = self.vm.weights
        shared = {}
        for t1, n_sub, sub_dt in plan:
            # equal checkpoint intervals give sizes that differ by roundoff;
            # step them at the first one, so they share one set of tables
            dt = shared.setdefault(step_key(sub_dt), sub_dt)
            # the fine run takes two steps per coarse step: twice the coarse
            # count, not checkpoint_substeps at dt/2, whose ceil may round
            # one step further up
            sizes = (dt, dt / 2)
            for _ in range(n_sub):
                pair = self.step(pair, sizes)
                self.step(pair[1], sizes[1], out=pair[1])
            steps += 3 * n_sub
            f = np.ascontiguousarray(np.fft.irfft(pair[0], n=n_x).T)
            fine = np.ascontiguousarray(np.fft.irfft(pair[1], n=n_x).T)
            out = (4.0 * fine - f) / 3.0
            est = float(np.sqrt(np.sum(weights * (fine - f) ** 2)
                                / np.sum(weights * fine**2))) / 3.0
            state = KineticState(f=out, t=t1, epsilon=self.epsilon, dt=sub_dt,
                                 grid=self.grid, vm=self.vm, steps=steps, split_est=est)
            if state.l2_norm() > l2_init * (1.0 + 1e-8):
                log.warning(
                    "L2 monitor grew at t=%.6g: %.17g > %.17g",
                    t1, state.l2_norm(), l2_init,
                )
            states.append(state)
        return states
