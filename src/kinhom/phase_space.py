"""Velocity measures and the spatial grids the solvers live on.

The velocity space is a finite set of nodes with positive weights; all
velocity integrals are weighted sums over that set.  Each node carries a
transport direction ``a(v_k)`` which is what actually multiplies gradients
(for the built-in sets this is the node itself).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VelocityMeasure",
    "CellGrid",
    "MacroGrid",
    "H1Report",
    "two_velocity_1d",
    "uniform_circle",
    "velocity_from_tables",
    "validate_h1",
    "checkpoint_substeps",
    "step_key",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VelocityMeasure:
    """Discrete velocity space: nodes, positive weights, transport field.

    Attributes
    ----------
    nodes :
        Node coordinates, shape ``(K, d)``.
    weights :
        Strictly positive quadrature weights, shape ``(K,)``.
    field :
        Transport direction per node, shape ``(K, d)``; the advection term
        in every operator is ``field[k] . grad``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    field: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if nodes.shape[0] == 1 and nodes.shape[1] > 1 and np.asarray(self.weights).size > 1:
            nodes = nodes.T  # a flat list of 1-D nodes
        weights = np.asarray(self.weights, dtype=float).ravel()
        fld = np.atleast_2d(np.asarray(self.field, dtype=float))
        if fld.shape[0] == 1 and fld.shape[1] > 1 and weights.size > 1:
            fld = fld.T
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "field", fld)
        if self.nodes.shape[0] != self.weights.size or self.field.shape != self.nodes.shape:
            raise ValueError("nodes, weights and field sizes are inconsistent")
        if np.any(self.weights <= 0):
            raise ValueError("velocity weights must be strictly positive")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def total_mass(self) -> float:
        """mu(V), the measure of the whole velocity set."""
        return float(self.weights.sum())

    def integrate(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        """Weighted sum over the velocity axis (defaults to the last axis)."""
        values = np.asarray(values)
        return np.tensordot(values, self.weights, axes=([axis], [0]))


def two_velocity_1d(speed: float = 1.0, weights: tuple[float, float] = (1.0, 1.0)) -> VelocityMeasure:
    """The two-node set {-speed, +speed} in one dimension."""
    nodes = np.array([[-speed], [speed]])
    return VelocityMeasure(nodes=nodes, weights=np.asarray(weights, dtype=float), field=nodes)


def uniform_circle(n: int, speed: float = 1.0) -> VelocityMeasure:
    """``n`` equispaced directions on the circle of radius ``speed`` in 2-D.

    Weights are ``2*pi/n`` so the discrete measure matches the uniform
    angular measure on the circle.
    """
    if n < 3:
        raise ValueError("need at least 3 circle nodes")
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = speed * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(n, 2.0 * np.pi / n)
    return VelocityMeasure(nodes=nodes, weights=weights, field=nodes)


def velocity_from_tables(nodes, weights, field=None) -> VelocityMeasure:
    """User-supplied velocity set; ``field`` defaults to the nodes."""
    return VelocityMeasure(nodes=nodes, weights=weights, field=nodes if field is None else field)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellGrid:
    """Uniform periodic grid on the microstructure cell.

    ``shape`` is the sample count per dimension; ``period`` the cell edge
    lengths (default the unit cell).  Periodicity is not optional.
    """

    shape: tuple[int, ...]
    period: tuple[float, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        shape = (self.shape,) if np.isscalar(self.shape) else tuple(int(n) for n in self.shape)
        shape = tuple(int(n) for n in np.atleast_1d(shape).ravel())
        if len(shape) not in (1, 2) or any(n < 4 for n in shape):
            raise ValueError("cell grid needs 1 or 2 dimensions with at least 4 samples each")
        period = self.period
        if period is None:
            period = (1.0,) * len(shape)
        elif np.isscalar(period):
            period = (float(period),) * len(shape)
        else:
            period = tuple(float(p) for p in period)
        if len(period) != len(shape) or any(p <= 0 for p in period):
            raise ValueError("cell period must be positive, one entry per dimension")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "period", period)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(p / n for p, n in zip(self.period, self.shape))

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.arange(n) * (p / n) for n, p in zip(self.shape, self.period))

    def points(self) -> np.ndarray:
        """All sample coordinates, shape ``(n_points, dim)``, row-major."""
        axes = self.axes()
        if self.dim == 1:
            return axes[0][:, None]
        yy = np.meshgrid(*axes, indexing="ij")
        return np.stack([y.ravel(order="C") for y in yy], axis=1)


@dataclass(frozen=True)
class MacroGrid:
    """Uniform macroscopic grid, cell-centered on ``[-L, L]^d``.

    ``bc`` selects the boundary closure of the macro solver: ``periodic``
    identifies the ends, ``no-flux`` zeroes the boundary fluxes.
    """

    half_width: float
    shape: tuple[int, ...]
    bc: str = "periodic"

    def __post_init__(self):
        shape = (self.shape,) if np.isscalar(self.shape) else tuple(int(n) for n in self.shape)
        shape = tuple(int(n) for n in np.atleast_1d(shape).ravel())
        if len(shape) not in (1, 2):
            raise ValueError("macro grid is 1-D or 2-D")
        if any(n < 8 for n in shape):
            raise ValueError("macro grid needs at least 8 cells per dimension")
        if self.half_width <= 0:
            raise ValueError("macro half-width must be positive")
        if self.bc not in ("periodic", "no-flux"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "half_width", float(self.half_width))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 * self.half_width / n for n in self.shape)

    def axes(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis."""
        return tuple(
            -self.half_width + (np.arange(n) + 0.5) * h
            for n, h in zip(self.shape, self.spacing)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


def checkpoint_substeps(checkpoints, T: float, dt: float) -> list[tuple[float, int, float]]:
    """Split ``[0, T]`` at checkpoint times into equal sub-steps of at most ``dt``.

    ``checkpoints`` defaults to ``[0, T]``.  Returns one ``(t1, n_sub,
    sub_dt)`` per checkpoint interval ending at ``t1``; the step is shrunk
    per interval so checkpoint times are hit exactly.  Refuses a ``dt``
    that is not positive and finite unless there is no interval to step.
    """
    times = np.array([0.0, float(T)]) if checkpoints is None else np.asarray(checkpoints, dtype=float)
    if times[0] != 0.0 or not np.all(np.diff(times) > 0) or abs(times[-1] - T) > 1e-12:
        raise ValueError("checkpoints must start at 0, increase, and end at T")
    if times.size > 1 and not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"step size must be positive and finite, got {dt!r}")
    plan = []
    for t0, t1 in zip(times[:-1], times[1:]):
        n_sub = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
        plan.append((float(t1), n_sub, (t1 - t0) / n_sub))
    return plan


def step_key(dt: float) -> float:
    """Cache key of a step size: ``dt`` to 12 significant digits.

    Steps that differ by roundoff share one key; steps that differ in their
    leading digits never do, however small they are.
    """
    return float(f"{float(dt):.11e}")


# ---------------------------------------------------------------------------
# transport non-degeneracy surrogate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H1Report:
    """Projections of the transport field onto probe directions."""

    probes: np.ndarray          # (m, d) unit probe directions
    min_projection: np.ndarray  # (m,) min_k |field_k . probe|
    degenerate: np.ndarray      # (m,) True where every projection vanishes

    @property
    def ok(self) -> bool:
        return not bool(self.degenerate.any())


def validate_h1(vm: VelocityMeasure, probes: np.ndarray | None = None) -> H1Report:
    """Check that no direction is invisible to the transport field.

    For each probe direction ``xi`` this reports ``min_k |a_k . xi|`` and
    flags directions where *every* node projection is below 1e-12
    (transport blind spots).  This is a warning-only surrogate for the
    continuum non-degeneracy assumption, which involves constants a
    discrete node set cannot certify.
    """
    if probes is None:
        if vm.dim == 1:
            probes = np.array([[1.0], [-1.0]])
        else:
            angles = 2.0 * np.pi * np.arange(32) / 32
            probes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            # also probe perpendicular to each node direction
            norms = np.linalg.norm(vm.field, axis=1, keepdims=True)
            safe = np.where(norms > 1e-12, norms, 1.0)
            unit = vm.field / safe
            perp = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
            probes = np.vstack([probes, perp])
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    proj = np.abs(probes @ vm.field.T)  # (m, K)
    min_proj = proj.min(axis=1)
    degenerate = (proj < 1e-12).all(axis=1)
    if degenerate.any():
        log.warning(
            "transport field has %d degenerate probe direction(s); "
            "the cell problem may be ill-posed along them",
            int(degenerate.sum()),
        )
    return H1Report(probes=probes, min_projection=min_proj, degenerate=degenerate)
