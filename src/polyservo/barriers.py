"""Visibility/area constraint functions, recentered barriers, input barrier.

The two constraint functions map distances-to-constraint into [0, 1]: value
1 with full margin, falling smoothly to 0 at the boundary. Their reciprocals
are the interior barriers; recentering subtracts the value and linearization
at the setpoint so the setpoint itself incurs zero cost.

The slope at the setpoint is exact: ``d(1/l)/dx = -phi'(d)/l^2 * dd/dx``,
with ``phi'`` the margin curve's closed-form derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .errors import BarrierBlowup, InputAtLimit

__all__ = [
    "EPS_L",
    "VisibilityParams",
    "AreaBounds",
    "InputLimits",
    "RecenteringAnchor",
    "fov_distance",
    "constraint_L1",
    "constraint_L2",
    "recentered_barrier",
    "barrier_Bx",
    "barrier_Bnu",
]

# Guard below which a constraint function may not be inverted.
EPS_L = 1e-8


@dataclass(frozen=True)
class VisibilityParams:
    """Field-of-view rectangle (normalized coords) and centroid margin."""

    gamma: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError("empty field-of-view rectangle")
        half_small = 0.5 * min(self.x_max - self.x_min, self.y_max - self.y_min)
        if self.gamma >= half_small:
            raise ValueError("gamma must be below half the smaller FoV side")

    @classmethod
    def from_intrinsics(cls, k: CameraIntrinsics, gamma: float):
        x_min, x_max, y_min, y_max = k.fov_rect()
        return cls(gamma, x_min, x_max, y_min, y_max)


@dataclass(frozen=True)
class AreaBounds:
    """Admissible projected-area interval with safety margin delta."""

    sigma_min: float
    sigma_max: float
    delta: float

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if not (0 < self.delta < 0.5 * (self.sigma_max - self.sigma_min)):
            raise ValueError("delta must be positive and below half the bound gap")


@dataclass(frozen=True)
class InputLimits:
    """Per-axis saturation bounds: translational (m/s) and angular (rad/s)."""

    nu_max: tuple
    omega_max: tuple

    def __post_init__(self):
        nu = np.asarray(self.nu_max, dtype=float)
        om = np.asarray(self.omega_max, dtype=float)
        if nu.shape != (3,) or om.shape != (3,):
            raise ValueError("limits must have three entries each")
        if (nu <= 0).any() or (om <= 0).any():
            raise ValueError("limits must be strictly positive")
        object.__setattr__(self, "nu_max", tuple(float(v) for v in nu))
        object.__setattr__(self, "omega_max", tuple(float(v) for v in om))

    def as_vector(self):
        return np.array(self.nu_max + self.omega_max)


# ---------------------------------------------------------------------------
# constraint functions
# ---------------------------------------------------------------------------


def _margin_curve(d, margin):
    """Two-branch constraint value for distance array ``d`` (vectorized).

    1 with full margin, 1 - exp(-(d/(d-margin))^2) in the band, 0 at or
    past the boundary. Smooth at the branch switch. Clipping ``d`` to
    [0, margin] lets the band formula give both ends exactly: w = 0 at the
    boundary and w = -inf at the margin.
    """
    d = np.clip(d, 0.0, margin)
    with np.errstate(divide="ignore"):
        w = d / (d - margin)
    return 1.0 - np.exp(-(w * w))


def _margin_slope(d, margin):
    """Exact derivative of :func:`_margin_curve` at a scalar ``d``, 0 off the band."""
    if not 0.0 < d < margin:
        return 0.0
    w = d / (d - margin)
    return -2.0 * margin * w * np.exp(-(w * w)) / (d - margin) ** 2


def fov_distance(sbar, p: VisibilityParams):
    """Signed distance from a centroid to the FoV rectangle boundary.

    Positive inside, negative outside (rectangular metric: the smallest
    per-edge clearance).
    """
    sbar = np.asarray(sbar, dtype=float)
    x, y = sbar[..., 0], sbar[..., 1]
    return np.minimum(
        np.minimum(x - p.x_min, p.x_max - x), np.minimum(y - p.y_min, p.y_max - y)
    )


def constraint_L1(sbar, p: VisibilityParams) -> float:
    """Visibility constraint value in [0, 1] for the polygon centroid."""
    return float(_margin_curve(fov_distance(sbar, p), p.gamma))


def area_distance(sigma_bar, b: AreaBounds):
    """Distance of the area exp(sigma_bar) to its nearer bound."""
    sigma = np.exp(np.asarray(sigma_bar, dtype=float))
    return np.minimum(sigma - b.sigma_min, b.sigma_max - sigma)


def constraint_L2(sigma_bar, b: AreaBounds) -> float:
    """Area constraint value in [0, 1] for the log-area state."""
    return float(_margin_curve(area_distance(sigma_bar, b), b.delta))


def _L_values(x, vis: VisibilityParams, bounds: AreaBounds):
    """Both constraint values for states shaped (..., 4)."""
    x = np.asarray(x, dtype=float)
    l1 = _margin_curve(fov_distance(x[..., :2], vis), vis.gamma)
    l2 = _margin_curve(area_distance(x[..., 2], bounds), bounds.delta)
    return l1, l2


# ---------------------------------------------------------------------------
# recentered barriers
# ---------------------------------------------------------------------------


class RecenteringAnchor:
    """Barrier value and gradient at the setpoint, per constraint.

    The setpoint must be strictly inside the safe set. Gradients are exact:
    ``-phi'(d)/l^2`` times the slope of the active FoV edge or area bound.
    """

    def __init__(self, x_des, vis: VisibilityParams, bounds: AreaBounds):
        x_des = np.asarray(x_des, dtype=float)
        if x_des.shape != (4,):
            raise ValueError("x_des must be a 4-vector")
        l1, l2 = _L_values(x_des, vis, bounds)
        if l1 <= EPS_L or l2 <= EPS_L:
            raise ValueError("x_des must be strictly inside the safe set")
        self.x_des = x_des.copy()
        self.vis = vis
        self.bounds = bounds
        self.b_des = np.array([1.0 / l1, 1.0 / l2])
        sx, sy, sigma_bar, _ = x_des
        clear = [sx - vis.x_min, vis.x_max - sx, sy - vis.y_min, vis.y_max - sy]
        sigma = np.exp(sigma_bar)
        gap = [sigma - bounds.sigma_min, bounds.sigma_max - sigma]
        i1, i2 = int(np.argmin(clear)), int(np.argmin(gap))
        self.grad_b_des = np.zeros((2, 4))
        self.grad_b_des[0, i1 // 2] = (-1) ** i1 * -_margin_slope(clear[i1], vis.gamma) / l1**2
        self.grad_b_des[1, 2] = (-1) ** i2 * -_margin_slope(gap[i2], bounds.delta) / l2**2 * sigma


def recentered_barrier(x, j: int, anchor: RecenteringAnchor) -> float:
    """Recentered reciprocal barrier r_j: zero (with zero slope) at x_des."""
    if j not in (1, 2):
        raise ValueError("constraint id must be 1 or 2")
    x = np.asarray(x, dtype=float)
    l = float(_L_values(x, anchor.vis, anchor.bounds)[j - 1])
    if l <= EPS_L:
        raise BarrierBlowup(f"constraint {j} at {l:.3e}, barrier undefined")
    b = 1.0 / l
    k = j - 1
    return float(
        b - anchor.b_des[k] - anchor.grad_b_des[k] @ (x - anchor.x_des)
    )


def barrier_Bx(x, anchor: RecenteringAnchor) -> float:
    """State barrier: sum of the recentered visibility and area barriers."""
    return recentered_barrier(x, 1, anchor) + recentered_barrier(x, 2, anchor)


# ---------------------------------------------------------------------------
# input barrier
# ---------------------------------------------------------------------------


def _Bnu_values(nu, limits_vec):
    """Batched input barrier for (..., M) inputs against (M,) limits.

    Zero at nu = 0, +inf within ``EPS_L`` of any saturation bound, where
    :func:`barrier_Bnu` raises.
    """
    nu = np.asarray(nu, dtype=float)
    m = np.asarray(limits_vec, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -2.0 / m + 1.0 / (m - nu) + 1.0 / (nu + m)
        total = terms.sum(axis=-1)
    ok = (np.abs(nu) < m - EPS_L).all(axis=-1)
    return np.where(ok, total, np.inf)


def barrier_Bnu(nu, lim: InputLimits, mask=None) -> float:
    """Input saturation barrier for a full or masked velocity vector.

    ``nu`` has six components when ``mask`` is None, otherwise one per
    enabled component. Raises :class:`InputAtLimit` within ``EPS_L`` of a
    bound.
    """
    limits_vec = lim.as_vector()
    if mask is not None:
        limits_vec = limits_vec[np.asarray(mask, dtype=bool)]
    nu = np.asarray(nu, dtype=float)
    if nu.shape != limits_vec.shape:
        raise ValueError("velocity and limit vectors differ in length")
    if (np.abs(nu) >= limits_vec - EPS_L).any():
        raise InputAtLimit("a velocity component sits at its saturation bound")
    return float(_Bnu_values(nu, limits_vec))
