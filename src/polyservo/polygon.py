"""Moment-like state of a polygonal feature set and its analytic dynamics.

The controlled state is the 4-vector ``[sx, sy, sigma_bar, a_bar]``:
vertex-centroid coordinates on the normalized image plane, the log of the
shoelace area, and the tangent of the reference angle (the direction from
the centroid to the midpoint of two reference vertices).

The feature model is one chain rule, ``_state_rate``: the state rate is the
state Jacobian applied to a vertex velocity, ``ds/dt = J_s (L nu + f)``.
:func:`dynamics_matrix` applies it to ``L``, :func:`state_jacobian` to the
identity and :func:`propagate_discrete` to ``L nu + f``.

Every public function runs the one degeneracy guard, ``_guard``, so all of
them reject the same polygons with the same typed errors.

Public functions take one polygon. The private helpers allow leading batch
axes, skip validation and report trouble through non-finite outputs; the
Lipschitz sampler in :mod:`polyservo.nmpc` and ``DeformableTarget.validate``
call them on stacked polygons. The controller's rollout is its own fused
pass, checked against :func:`propagate_discrete`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import interaction_matrices
from .errors import AngleSingularity, DegenerateArea, StepDegeneracy

__all__ = [
    "EPS_AREA",
    "EPS_ANGLE",
    "PolygonFeatures",
    "extract_state",
    "area_gradient",
    "angle_gradient",
    "dynamics_matrix",
    "printed_dynamics_matrix",
    "state_jacobian",
    "propagate_discrete",
]

# Degeneracy guards (normalized units^2 and normalized units). Tracking
# tasks never approach these legitimately; reject instead of regularizing.
EPS_AREA = 1e-9
EPS_ANGLE = 1e-6


@dataclass(frozen=True)
class PolygonFeatures:
    """Ordered polygon vertices on the normalized image plane.

    ``reference_pair`` holds the (0-based) indices of the two vertices whose
    midpoint defines the orientation feature; they default to the first two.
    """

    vertices: np.ndarray
    reference_pair: tuple = (0, 1)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (N, 2) array with N >= 3")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        i, j = self.reference_pair
        n = v.shape[0]
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError("reference pair must be two distinct in-range indices")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "reference_pair", (int(i), int(j)))
        if _shoelace_sum(v) == 0.0:
            raise ValueError("polygon has zero signed area sum")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


# ---------------------------------------------------------------------------
# batched kernels (vertices shaped (..., N, 2))
# ---------------------------------------------------------------------------


def _shoelace_terms(pts):
    """Per-edge determinants d_j = x_j*y_{j+1} - x_{j+1}*y_j, cyclic."""
    x, y = pts[..., 0], pts[..., 1]
    return x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y


def _shoelace_sum(pts):
    return _shoelace_terms(pts).sum(axis=-1)


def _area_grad_batch(pts):
    """Gradient of the shoelace area w.r.t. each vertex, shape (..., N, 2)."""
    x, y = pts[..., 0], pts[..., 1]
    sign = np.sign(_shoelace_sum(pts))
    gx = np.roll(y, -1, axis=-1) - np.roll(y, 1, axis=-1)
    gy = np.roll(x, 1, axis=-1) - np.roll(x, -1, axis=-1)
    return 0.5 * sign[..., None, None] * np.stack([gx, gy], axis=-1)


def _angle_parts(pts, ref):
    """Numerator/denominator (E2, E1) of the reference-angle tangent."""
    i, j = ref
    c = pts.mean(axis=-2)
    e1 = pts[..., i, 0] + pts[..., j, 0] - 2.0 * c[..., 0]
    e2 = pts[..., i, 1] + pts[..., j, 1] - 2.0 * c[..., 1]
    return e1, e2


def _angle_grad_batch(pts, ref):
    """Quotient-rule gradient of the angle tangent, shape (..., N, 2).

    Every vertex couples through the centroid (-2/N per coordinate); the
    reference vertices carry an extra unit term.
    """
    n = pts.shape[-2]
    i, j = ref
    e1, e2 = _angle_parts(pts, ref)
    w = np.full(n, -2.0 / n)
    w[i] += 1.0
    w[j] += 1.0
    inv_e1 = 1.0 / e1
    gx = (-e2 * inv_e1 * inv_e1)[..., None] * w
    gy = inv_e1[..., None] * w
    return np.stack([gx, gy], axis=-1)


def _state_rate(pts, ref, vel):
    """Chain rule: vertex velocities (..., N, 2, K) to state rates (..., 4, K).

    Rows are the centroid average, the area gradient over sigma and the
    angle gradient, each contracted with ``vel``.
    """
    sigma = 0.5 * np.abs(_shoelace_sum(pts))
    agrad = _area_grad_batch(pts)
    angrad = _angle_grad_batch(pts, ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        row3 = np.einsum("...nc,...ncj->...j", agrad, vel) / sigma[..., None]
    row4 = np.einsum("...nc,...ncj->...j", angrad, vel)
    return np.concatenate(
        [vel.mean(axis=-3), row3[..., None, :], row4[..., None, :]], axis=-2
    )


def _dynamics_batch(pts, z, ref):
    """Chain-rule dynamics matrix g (..., 4, 6) and interaction matrices L."""
    L = interaction_matrices(pts, z)
    g = _state_rate(pts, ref, L)
    # Analytically null entries; enforced exactly.
    g[..., 2, [0, 1, 5]] = 0.0
    g[..., 3, [0, 1, 2]] = 0.0
    return g, L


# ---------------------------------------------------------------------------
# public single-polygon operations
# ---------------------------------------------------------------------------


def _guard(pts, ref, error=None):
    """``(sigma, e1, e2)`` of one polygon, or :class:`DegenerateArea` /
    :class:`AngleSingularity` (``error`` for both when given) at the guards."""
    sigma = 0.5 * abs(float(_shoelace_sum(pts)))
    if sigma <= EPS_AREA:
        raise (error or DegenerateArea)(f"polygon area {sigma:.3e} at or below guard")
    e1, e2 = _angle_parts(pts, ref)
    if abs(e1) <= EPS_ANGLE:
        raise (error or AngleSingularity)(f"angle denominator {e1:.3e} at or below guard")
    return sigma, e1, e2


def extract_state(poly: PolygonFeatures):
    """Moment state [sx, sy, log(sigma), tan(angle)] of the polygon.

    Raises :class:`DegenerateArea` for near-flat polygons and
    :class:`AngleSingularity` when the reference direction is vertical in
    the tangent parametrization.
    """
    sigma, e1, e2 = _guard(poly.vertices, poly.reference_pair)
    c = poly.vertices.mean(axis=0)
    return np.array([c[0], c[1], np.log(sigma), e2 / e1])


def area_gradient(poly: PolygonFeatures):
    """Per-vertex gradient of the area sigma, shape (N, 2)."""
    _guard(poly.vertices, poly.reference_pair)
    return _area_grad_batch(poly.vertices)


def angle_gradient(poly: PolygonFeatures):
    """Per-vertex gradient of the angle tangent, shape (N, 2)."""
    _guard(poly.vertices, poly.reference_pair)
    return _angle_grad_batch(poly.vertices, poly.reference_pair)


def dynamics_matrix(poly: PolygonFeatures, z: float):
    """4x6 input map g such that d/dt state = g @ nu under camera motion.

    Every entry is derived from the vertices through the analytic gradients
    (chain rule); this is the ground truth used for control.
    """
    _guard(poly.vertices, poly.reference_pair)
    return _dynamics_batch(poly.vertices, z, poly.reference_pair)[0]


def printed_dynamics_matrix(poly: PolygonFeatures, x, z: float):
    """The printed closed-form variant of :func:`dynamics_matrix`.

    The area row carries a constant factor of 9 on its angular-rate terms
    with the opposite column pairing, and the angle row takes the angle
    state from ``x`` rather than the vertices. It is compared with the
    chain-rule map, never used for control.
    """
    _guard(poly.vertices, poly.reference_pair)
    pts = poly.vertices
    xs, ys = pts[:, 0], pts[:, 1]
    n = poly.n_vertices
    d = _shoelace_terms(pts)
    _, _, _, a_bar = np.asarray(x, dtype=float)

    g = np.zeros((4, 6))
    # The printed centroid rows are the vertex-averaged interaction matrix
    # (its depth columns written through the state); both forms share the
    # identical averaging arithmetic so rows 1-2 agree exactly.
    g[:2] = interaction_matrices(pts, z).mean(axis=0)
    sum_xd = float(((xs + np.roll(xs, -1)) * d).sum())
    sum_yd = float(((ys + np.roll(ys, -1)) * d).sum())
    g[2] = [0.0, 0.0, 2.0 / z, 9.0 * sum_xd, -9.0 * sum_yd, 0.0]

    i, j = poly.reference_pair
    e1 = xs[i] + xs[j] - 2.0 * np.mean(xs)
    g44 = (
        ys[i] ** 2 + ys[j] ** 2 - (2.0 / n) * float((ys * ys).sum())
    ) / e1 - a_bar * (
        xs[i] * ys[i] + xs[j] * ys[j] - (2.0 / n) * float((xs * ys).sum())
    ) / e1
    g45 = a_bar * (
        xs[i] ** 2 + xs[j] ** 2 - (2.0 / n) * float((xs * xs).sum())
    ) / e1 - (
        xs[i] * ys[i] + xs[j] * ys[j] - (2.0 / n) * float((xs * ys).sum())
    ) / e1
    g[3] = [0.0, 0.0, 0.0, g44, g45, -(a_bar * a_bar) - 1.0]
    return g


def state_jacobian(poly: PolygonFeatures):
    """State Jacobian w.r.t. the flattened vertices, (4, 2N): the chain rule of the identity."""
    _guard(poly.vertices, poly.reference_pair)
    eye = np.eye(poly.vertices.size).reshape(*poly.vertices.shape, -1)
    return _state_rate(poly.vertices, poly.reference_pair, eye)


def propagate_discrete(poly: PolygonFeatures, x, nu, target_flow, dt: float, z: float):
    """One Euler step of the coupled vertex/state model at depth ``z``.

    Vertices advance by their interaction-matrix flow plus the target flow;
    the moment state advances by the chain rule of that same velocity.
    Returns ``(poly', x')``. Raises :class:`StepDegeneracy` if the stepped
    polygon collapses.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    flow = np.asarray(target_flow, dtype=float).reshape(poly.n_vertices, 2)
    if not (np.isfinite(x).all() and np.isfinite(nu).all() and np.isfinite(flow).all()):
        raise ValueError("inputs must be finite")
    _guard(poly.vertices, poly.reference_pair)

    L = interaction_matrices(poly.vertices, z)
    vel = L @ nu + flow
    new_pts = poly.vertices + vel * dt
    new_x = x + _state_rate(poly.vertices, poly.reference_pair, vel[..., None])[:, 0] * dt

    _guard(new_pts, poly.reference_pair, StepDegeneracy)
    return PolygonFeatures(new_pts, poly.reference_pair), new_x
