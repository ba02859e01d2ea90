"""Barrier-augmented receding-horizon optimal control.

The decision variable is the stacked sequence of masked velocity commands
over the horizon. The cost is the quadratic tracking/effort sum plus the
recentered state barrier and the input saturation barrier at every stage,
with a quadratic terminal term. Minimization takes generalized Gauss-Newton
steps with an Armijo line search. Each solver point is rolled out once, in
one batch with the controls moved each way in each coordinate: its centre
row gives the point's cost and predicted trajectory, and the batch's states
and constraint values are differenced once into a Jacobian; the gradient is
that Jacobian times the cost's slope in them, and the Gauss-Newton matrix
weights it by each term's curvature. The input terms enter both exactly.
Every weight and the input curvature are positive, so the matrix is
positive definite and the step needs no damping.

Each iterate is one solver point, all from the gradient batch at its
controls: its cost, gradient, predicted trajectory and horizon-end polygon,
and the factors of its Gauss-Newton matrix. The full step is tried first,
as the next gradient batch: when it passes Armijo, that one kernel call is
the next point, and near the solution it nearly always passes. A rejected
full step rolls out the whole backtracking ladder, t = 1/2 ... 2^-29, in
one batch; the gradient batch at the largest passing step is the next point.
Barrier blowup makes the cost +inf outside the safe set, which the line
search treats as an automatic rejection, so accepted iterates are always
strictly interior.

A solve stops ``converged`` when the Gauss-Newton decrement at its point,
``-g^T d / 2`` for the step ``d``, is at most ``_DECREMENT_TOL``: the
decrease that the full step predicts, in the cost's own units and whatever
the scaling of the controls. Otherwise it stops ``max_iters`` after
``_MAX_ITERS`` steps, or ``no_descent`` when no step length passes.

The controller has one rollout, the private ``_OcpKernel``: a batched
forward pass that writes image points as complex numbers, steps every
candidate's vertices in a few array ops per horizon step, and forms the
moment-state rows, barriers and quadratics for all steps at once. It gives
the solver's costs and the predicted trajectory with its horizon-end
polygon. The public :func:`rollout`, :func:`stage_cost` and
:func:`total_cost` step one polygon at a time through
:func:`~polyservo.polygon.propagate_discrete` and the scalar barriers; they
share no rollout code with the kernel and serve as its reference oracle.

The receding-horizon warm start is the stability argument's shifted
candidate: the last accepted solve's controls shifted one step, then the
local controller acting on that solve's own predicted terminal state and
polygon. It rolls nothing out.

The module also computes the Lipschitz/feasibility diagnostics attached to
every run: the model and cost Lipschitz constants, the disturbance bound
that keeps the terminal set recursively reachable, and the optimal-cost
difference constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .barriers import (
    EPS_L,
    AreaBounds,
    InputLimits,
    RecenteringAnchor,
    VisibilityParams,
    _Bnu_values,
    _L_values,
    barrier_Bnu,
    barrier_Bx,
    fov_distance,
)
from .camera import FULL_MASK
from .errors import InfeasibleRollout, InfeasibleStart
from .polygon import (
    EPS_ANGLE,
    EPS_AREA,
    PolygonFeatures,
    _dynamics_batch,
    _shoelace_sum,
    dynamics_matrix,
    propagate_discrete,
)

__all__ = [
    "OcpConfig",
    "OcpSolution",
    "StepResult",
    "DiagnosticsBundle",
    "stage_cost",
    "terminal_cost",
    "rollout",
    "total_cost",
    "solve_ocp",
    "local_controller_h",
    "RecedingHorizonController",
    "lipschitz_Lf",
    "lipschitz_LF",
    "lipschitz_FV",
    "prediction_error_bound",
    "disturbance_feasibility_bound",
    "cost_difference_bound",
    "empirical_lipschitz_f",
    "compute_diagnostics",
]


# Fixed numerical constants of the method; scenarios do not set them.
_FD_STEP = 1e-6  # difference step of the rollout outputs behind both derivatives
_ARMIJO_C1 = 1e-4  # sufficient-decrease factor of the line search
_DECREMENT_TOL = 1e-6  # converged at this Gauss-Newton decrement, in cost units
_MAX_ITERS = 30  # steps a solve may take
# The step lengths a rejected full step falls back to, all in one batch,
# before the solve stops with no_descent: t = 1/2 ... 2^-29.
_LS_LADDER = 0.5 ** np.arange(1, 30)
_LS_LADDER.setflags(write=False)
# Local tail controller: feedback gain, pseudo-inverse damping, and the
# command bound as a fraction of the input limits.
_LOCAL_GAIN = 1.2
_LOCAL_DAMPING = 0.05
_LOCAL_CLAMP = 0.95
_ABAR_LIMIT = 2.0  # half-width of the angle-state box (diagnostics)
# Sampled one-step Lipschitz estimate: draws and perturbation radius.
_LIPSCHITZ_SAMPLES = 200
_LIPSCHITZ_RADIUS = 1e-3


@dataclass
class OcpConfig:
    """Horizon, weights, constraint parameters and input mask."""

    n: int
    dt: float
    q: np.ndarray  # (4,) state-error weights
    r: np.ndarray  # (6,) input weights, masked components unused
    p: np.ndarray  # (4,) terminal weights
    visibility: VisibilityParams
    area_bounds: AreaBounds
    limits: InputLimits
    mask: np.ndarray = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("horizon must be at least 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.q = np.asarray(self.q, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != (4,) or self.p.shape != (4,) or self.r.shape != (6,):
            raise ValueError("q, p must be 4-vectors and r a 6-vector")
        if (self.q <= 0).any() or (self.r <= 0).any() or (self.p <= 0).any():
            raise ValueError("weights must be strictly positive")
        mask = FULL_MASK if self.mask is None else np.asarray(self.mask, dtype=bool)
        if mask.shape != (6,) or not mask.any():
            raise ValueError("mask must be a 6-vector with at least one True")
        self.mask = mask

    @property
    def mask_idx(self):
        return np.flatnonzero(self.mask)

    @property
    def n_inputs(self) -> int:
        return int(self.mask.sum())

    @property
    def masked_r(self):
        return self.r[self.mask]

    @property
    def masked_limits(self):
        return self.limits.as_vector()[self.mask]


@dataclass
class OcpSolution:
    controls: np.ndarray  # (n, M) masked commands
    predicted_states: np.ndarray  # (n+1, 4)
    terminal_vertices: np.ndarray | None  # (N, 2) predicted at step n; None if cost is inf
    cost: float
    iterations: int
    status: str
    decrement: float  # -g^T d / 2 at the controls; +inf where the cost is


@dataclass
class StepResult:
    nu: np.ndarray  # (6,) applied velocity, disabled components zero
    solution: OcpSolution | None
    recovered: bool


# ---------------------------------------------------------------------------
# cost pieces
# ---------------------------------------------------------------------------


def stage_cost(x_err, nu, cfg: OcpConfig, anchor: RecenteringAnchor) -> float:
    """Quadratic stage terms plus both barriers. ``nu`` is masked."""
    x_err = np.asarray(x_err, dtype=float)
    nu = np.asarray(nu, dtype=float)
    quad = float(x_err @ (cfg.q * x_err) + nu @ (cfg.masked_r * nu))
    x = anchor.x_des + x_err
    return quad + barrier_Bx(x, anchor) + barrier_Bnu(nu, cfg.limits, cfg.mask)


def terminal_cost(x_err, cfg: OcpConfig) -> float:
    x_err = np.asarray(x_err, dtype=float)
    return float(x_err @ (cfg.p * x_err))


def rollout(poly: PolygonFeatures, x0, nu_F, flow, cfg: OcpConfig, z: float):
    """Iterate the coupled Euler model over the horizon (reference path).

    Returns ``(states (n+1, 4), vertices (n+1, N, 2))``. The latest flow
    estimate is held constant across the horizon. Raises
    :class:`InfeasibleRollout` (with the step index) as soon as a predicted
    state leaves the safe set.
    """
    nu_F = np.asarray(nu_F, dtype=float)
    if nu_F.shape != (cfg.n, cfg.n_inputs):
        raise ValueError("control sequence shape mismatch")
    x0 = np.asarray(x0, dtype=float)
    flow = _flow_array(flow, poly.n_vertices)

    l1, l2 = _L_values(x0, cfg.visibility, cfg.area_bounds)
    if l1 <= EPS_L or l2 <= EPS_L:
        raise InfeasibleRollout("initial state outside safe set", step_index=0)

    states = np.empty((cfg.n + 1, 4))
    verts = np.empty((cfg.n + 1, poly.n_vertices, 2))
    states[0] = x0
    verts[0] = poly.vertices
    cur = poly
    x = x0
    for i in range(cfg.n):
        nu6 = np.zeros(6)
        nu6[cfg.mask_idx] = nu_F[i]
        cur, x = propagate_discrete(cur, x, nu6, flow, cfg.dt, z)
        l1, l2 = _L_values(x, cfg.visibility, cfg.area_bounds)
        if l1 <= EPS_L or l2 <= EPS_L:
            raise InfeasibleRollout(
                f"predicted state leaves safe set at step {i + 1}", step_index=i + 1
            )
        states[i + 1] = x
        verts[i + 1] = cur.vertices
    return states, verts


def total_cost(
    poly: PolygonFeatures,
    x0,
    nu_F,
    flow,
    cfg: OcpConfig,
    x_des,
    z: float,
    anchor: RecenteringAnchor | None = None,
) -> float:
    """Stage sum plus terminal cost along the rollout of ``nu_F``."""
    if anchor is None:
        anchor = RecenteringAnchor(x_des, cfg.visibility, cfg.area_bounds)
    states, _ = rollout(poly, x0, nu_F, flow, cfg, z)
    nu_F = np.asarray(nu_F, dtype=float)
    x_des = np.asarray(x_des, dtype=float)
    j = 0.0
    for i in range(cfg.n):
        j += stage_cost(states[i] - x_des, nu_F[i], cfg, anchor)
    return j + terminal_cost(states[cfg.n] - x_des, cfg)


_SCRATCH = threading.local()  # the kernel's buffer: one per thread, never shared


def _scratch(shape):
    """Complex views of ``shape`` into this thread's buffer, grown to the
    largest request and kept, so big kernel arrays are not faulted in anew."""
    size = int(np.prod(shape))
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.buf = np.empty(size, dtype=complex)
    return buf[:size].reshape(shape)


def _flow_array(flow, n):
    if flow is None:
        return np.zeros((n, 2))
    flow = np.asarray(flow, dtype=float)
    if flow.shape == (2,):
        return np.broadcast_to(flow, (n, 2)).copy()
    return flow.reshape(n, 2)


class _Point(NamedTuple):
    """One solver iterate, all from the gradient batch at its controls."""

    theta: np.ndarray  # (d,) flattened masked controls
    cost: float  # +inf where the rollout is rejected
    grad: np.ndarray  # (d,); all +inf where the cost is
    states: np.ndarray  # (n+1, 4) predicted trajectory
    terminal_vertices: np.ndarray  # (N, 2) predicted at step n
    jac: np.ndarray | None  # (d, K) differenced outputs, wall rows zeroed
    weights: np.ndarray | None  # (K,) curvature of each output


class _OcpKernel:
    """Batched horizon cost and solver points bound to one OCP instance.

    Image points are complex numbers s = x + iy. Under the masked twist u
    the vertex flow is ``s*(a + Re(s*w)) + b`` with per-row complex
    coefficients ``a = u2/z - i*u5``, ``w = -u4 - i*u3`` and
    ``b = (-u4 - u0/z) + i*(u3 - u1/z)``, so the horizon loop steps the
    vertices of every candidate with a few complex array ops. The state
    rows are then formed for all steps at once from the stacked vertices:
    the shoelace sum is ``Im(conj(s)*s_next)``, and the area and angle rows
    are one complex product each.

    This forward pass is the controller's only rollout: the line search's
    costs and each solver point that :meth:`gradient` returns, with its
    derivatives, predicted trajectory and horizon-end polygon, all come
    from :meth:`forward`. The only state the kernel keeps between calls is
    in ``_pass``: :meth:`cost` leaves its batch's outputs there for
    :meth:`gradient`, and the next call overwrites them. The public
    :func:`rollout`/:func:`total_cost` path through
    :func:`propagate_discrete` shares none of this code and is the
    independent oracle: the two agree to about 1e-12 relative and reject
    exactly the same candidates.
    """

    def __init__(self, poly, x0, flow, cfg, x_des, anchor, z):
        self.cfg = cfg
        self.x0 = np.asarray(x0, dtype=float)
        self.x_des = np.asarray(x_des, dtype=float)
        self.inv_z = 1.0 / z
        self.s0 = poly.vertices[:, 0] + 1j * poly.vertices[:, 1]
        n_v = poly.n_vertices
        self.i_next = np.roll(np.arange(n_v), -1)
        self.i_prev = np.roll(np.arange(n_v), 1)
        # e = s @ w_ref is E1 + i*E2, the reference-angle tangent's parts.
        ri, rj = poly.reference_pair
        w_ref = np.full(n_v, -2.0 / n_v)
        w_ref[ri] += 1.0
        w_ref[rj] += 1.0
        self.w_ref = w_ref

        flow = _flow_array(flow, n_v)
        self.f = flow[:, 0] + 1j * flow[:, 1]

        self.mask_idx = cfg.mask_idx
        # Input weights and limits tiled over the horizon, for flat sequences.
        self.r_flat = np.tile(cfg.masked_r, cfg.n)
        self.limits_flat = np.tile(cfg.masked_limits, cfg.n)
        # Curvature of each stage's state term in its state (2q, 2p at the end).
        self.w_state = np.vstack([np.tile(2.0 * cfg.q, (cfg.n, 1)), 2.0 * cfg.p])
        # Recentring constants collapse to one offset and one linear term.
        self.b_sum = float(anchor.b_des.sum())
        self.grad_sum = anchor.grad_b_des.sum(axis=0)

    def forward(self, controls):
        """Roll out a batch of control sequences (B, n, M).

        Returns ``(states (n+1, B, 4), vertices (n+1, N, B) complex, l1,
        l2, bad)``: the constraint values (n+1, B) of every state, and the
        rows that the public :func:`rollout` rejects because a state leaves
        the safe set, a polygon degenerates or its reference angle turns
        singular. Input limits are not checked here. Arrays run over
        (step, vertex, row), so each step, each vertex sum and the barrier
        pass work on contiguous blocks. The vertices are scratch: they stay
        valid only until the next ``forward`` in the same thread.
        """
        cfg = self.cfg
        B, n, dt = controls.shape[0], cfg.n, cfg.dt
        u = np.zeros((6, n, 1, B))
        u[self.mask_idx, :, 0] = controls.transpose(2, 1, 0)
        u0, u1, u2, u3, u4, u5 = u * dt
        # Coefficients scaled by dt, so each step adds dv = dt*(vertex + target flow).
        a = u2 * self.inv_z - 1j * u5
        w = -u4 - 1j * u3
        bf = (-u4 - u0 * self.inv_z) + 1j * (u3 - u1 * self.inv_z) + (dt * self.f)[:, None]

        # The vertex-sized arrays are scratch views; dV uses n of n+1 steps.
        S, dV, s_next, prod = _scratch((4, n + 1, self.s0.size, B))
        dV = dV[:n]
        S[0] = self.s0[:, None]
        with np.errstate(all="ignore"):
            for i in range(n):
                s, dv = S[i], dV[i]
                np.multiply(s, a[i] + (s * w[i]).real, out=dv)
                dv += bf[i]
                np.add(s, dv, out=S[i + 1])

            # mode="clip" lets take write into out without a buffered copy;
            # the i_prev take borrows prod's memory until flux overwrites it.
            np.take(S, self.i_next, axis=1, out=s_next, mode="clip")
            np.conjugate(S, out=prod)
            prod *= s_next
            dsum = prod.imag.sum(axis=1)  # (n+1, B), twice the signed area
            sigma = 0.5 * np.abs(dsum)
            e = self.w_ref @ S
            e1, e2 = e.real[:n], e.imag[:n]
            ev = self.w_ref @ dV
            c = dV.mean(axis=1)
            edge = s_next[:n]
            edge -= np.take(S[:n], self.i_prev, axis=1, out=prod[:n], mode="clip")
            flux = np.conjugate(dV, out=prod[:n])
            flux *= edge
            # x0, then dt * state rate per step; the running sum is the states.
            rows = np.empty((n + 1, B, 4))
            rows[0] = self.x0
            rows[1:, :, 0] = c.real
            rows[1:, :, 1] = c.imag
            rows[1:, :, 2] = 0.5 * np.sign(dsum[:n]) * flux.imag.sum(axis=1) / sigma[:n]
            rows[1:, :, 3] = (ev.imag - (e2 / e1) * ev.real) / e1
            states = np.cumsum(rows, axis=0, out=rows)

            l1, l2 = _L_values(states, cfg.visibility, cfg.area_bounds)
            bad = (
                (l1 <= EPS_L)
                | (l2 <= EPS_L)
                | (sigma <= EPS_AREA)
                | (np.abs(e.real) <= EPS_ANGLE)
            ).any(axis=0)
            # A non-finite state stays non-finite through the cumulative sum.
            bad |= ~np.isfinite(states[n]).all(axis=1)
        return states, S, l1, l2, bad

    def cost(self, controls):
        """Total cost for a batch of control sequences (B, n, M) -> (B,).

        The batch's states, horizon-end vertices (scratch), constraint values
        and rejected rows are handed to :meth:`gradient` in ``_pass``.
        """
        cfg, n = self.cfg, self.cfg.n
        states, S, l1, l2, bad = self.forward(controls)
        self._pass = (states, S[n], l1, l2, bad)
        flat = controls.reshape(controls.shape[0], -1)
        with np.errstate(all="ignore"):
            dx = states - self.x_des
            dx2 = dx * dx
            cost = dx2[:n].sum(axis=0) @ cfg.q + dx2[n] @ cfg.p + (flat * flat) @ self.r_flat
            # Recentred state barriers of stages 0..n-1, then the input barrier.
            cost += (1.0 / l1[:n] + 1.0 / l2[:n]).sum(axis=0) - n * self.b_sum
            cost -= dx[:n].sum(axis=0) @ self.grad_sum
            cost += _Bnu_values(flat, self.limits_flat)
            cost = np.where(bad, np.inf, cost)
        return np.where(np.isfinite(cost), cost, np.inf)

    def gradient(self, theta) -> _Point:
        """The solver point at the flattened control vector ``theta``.

        One batch rolls out ``theta`` moved by +-``_FD_STEP`` in each
        coordinate, then ``theta`` itself: this centre row gives the point's
        cost (+inf, with an all-inf gradient and no Gauss-Newton factors,
        where it is rejected), its states and its horizon-end vertices. The
        outputs, the states of every stage and ``l1``, ``l2`` of stages
        0..n-1, are differenced once into ``J (d, K)``: centrally where both
        sides are kept, one-sided where :meth:`forward` rejects one side,
        zero where it rejects both. The gradient is ``J`` times the cost's
        slope in those outputs plus the input terms' exact slope. The point
        keeps ``J`` with every row that has a rejected side zeroed, and each
        output's curvature weight (2q, 2p at the end, 2/l^3), for
        :meth:`gauss_newton`.
        """
        cfg, n, d = self.cfg, self.cfg.n, theta.size
        pert = np.repeat(theta[None], 2 * d + 1, axis=0)
        idx = np.arange(d)
        pert[idx, idx] += _FD_STEP
        pert[d + idx, idx] -= _FD_STEP
        f = float(self.cost(pert.reshape(2 * d + 1, n, cfg.n_inputs))[2 * d])
        states, s_end, l1, l2, bad = self._pass
        centre = states[:, 2 * d].copy()
        end = s_end[:, 2 * d]
        verts = np.stack([end.real, end.imag], axis=-1)
        if not np.isfinite(f):
            return _Point(theta, f, np.full(d, np.inf), centre, verts, None, None)
        rows = states.transpose(1, 0, 2).reshape(2 * d + 1, -1)
        out = np.concatenate([rows, l1[:n].T, l2[:n].T], axis=1)
        # A rejected side takes theta's own outputs (a one-sided difference
        # over one step); rows rejected on both sides come out zero.
        wall = bad[:d] | bad[d : 2 * d]
        hi = np.where(bad[:d, None], out[2 * d], out[:d])
        lo = np.where(bad[d : 2 * d, None], out[2 * d], out[d : 2 * d])
        jac = (hi - lo) / np.where(wall, _FD_STEP, 2.0 * _FD_STEP)[:, None]

        slope_x = self.w_state * (centre - self.x_des)
        slope_x[:n] -= self.grad_sum
        l_now = out[2 * d, 4 * n + 4 :]
        m = self.limits_flat
        grad = jac @ np.concatenate([slope_x.ravel(), -1.0 / l_now**2])
        grad += 2.0 * self.r_flat * theta + 1.0 / (m - theta) ** 2 - 1.0 / (m + theta) ** 2
        jac[wall] = 0.0
        weights = np.concatenate([self.w_state.ravel(), 2.0 / l_now**3])
        return _Point(theta, f, grad, centre, verts, jac, weights)

    def gauss_newton(self, pt: _Point):
        """Generalized Gauss-Newton matrix of the cost at a finite point.

        The state and barrier terms are ``J diag(w) J^T`` from the point's
        factors; the input terms add their exact curvature on the diagonal.
        """
        m, u = self.limits_flat, pt.theta
        curv_u = 2.0 * self.r_flat + 2.0 / (m - u) ** 3 + 2.0 / (m + u) ** 3
        return (pt.jac * pt.weights) @ pt.jac.T + np.diag(curv_u)


def solve_ocp(
    poly: PolygonFeatures,
    x0,
    flow,
    cfg: OcpConfig,
    x_des,
    z: float,
    warm_start=None,
    anchor: RecenteringAnchor | None = None,
) -> OcpSolution:
    """Minimize the horizon cost from a strictly feasible measured state.

    The returned cost never exceeds the warm start's; iterates stay strictly
    inside the barriers because infeasible candidates evaluate to +inf and
    the backtracking line search rejects them.
    """
    x0 = np.asarray(x0, dtype=float)
    x_des = np.asarray(x_des, dtype=float)
    l1, l2 = _L_values(x0, cfg.visibility, cfg.area_bounds)
    if l1 <= EPS_L or l2 <= EPS_L:
        raise InfeasibleStart(
            f"measured state violates safe set (L1={float(l1):.3e}, L2={float(l2):.3e})"
        )
    if anchor is None:
        anchor = RecenteringAnchor(x_des, cfg.visibility, cfg.area_bounds)

    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, z)
    n, m = cfg.n, cfg.n_inputs

    theta = np.zeros(n * m) if warm_start is None else np.array(warm_start, float).reshape(n * m)
    pt = kern.gradient(theta)
    if not np.isfinite(pt.cost) and theta.any():
        pt = kern.gradient(np.zeros(n * m))

    status = "max_iters" if np.isfinite(pt.cost) else "no_descent"
    decrement = np.inf
    iterations = 0
    while status == "max_iters":
        d = -np.linalg.solve(kern.gauss_newton(pt), pt.grad)
        slope = float(pt.grad @ d)
        decrement = -0.5 * slope
        if decrement <= _DECREMENT_TOL:
            status = "converged"
            break
        if iterations == _MAX_ITERS:
            break
        iterations += 1
        if not slope < 0.0:  # a NaN slope
            status = "no_descent"
            break

        # The full step first, as the next point. Rejected (an infinite cost
        # fails Armijo too), the whole ladder goes in one batch, and the next
        # point is at its largest passing step.
        full = kern.gradient(pt.theta + d)
        if full.cost <= pt.cost + _ARMIJO_C1 * slope:
            pt = full
            continue
        fs = kern.cost((pt.theta + _LS_LADDER[:, None] * d).reshape(-1, n, m))
        ok = fs <= pt.cost + _ARMIJO_C1 * _LS_LADDER * slope
        if not ok.any():
            status = "no_descent"
            break
        pt = kern.gradient(pt.theta + _LS_LADDER[np.argmax(ok)] * d)

    finite = np.isfinite(pt.cost)
    return OcpSolution(
        controls=pt.theta.reshape(n, m),
        predicted_states=pt.states if finite else np.tile(x0, (n + 1, 1)),
        terminal_vertices=pt.terminal_vertices if finite else None,
        cost=pt.cost,
        iterations=iterations,
        status=status,
        decrement=decrement,
    )


# ---------------------------------------------------------------------------
# local tail controller and receding-horizon loop
# ---------------------------------------------------------------------------


def local_controller_h(x_err, poly: PolygonFeatures, cfg: OcpConfig, z: float):
    """Damped pseudo-inverse feedback, clamped strictly inside the limits.

    Returns the masked command vector.
    """
    x_err = np.asarray(x_err, dtype=float)
    g = dynamics_matrix(poly, z)[:, cfg.mask]
    ggt = g @ g.T + (_LOCAL_DAMPING * _LOCAL_DAMPING) * np.eye(4)
    nu = -_LOCAL_GAIN * (g.T @ np.linalg.solve(ggt, x_err))
    bound = _LOCAL_CLAMP * cfg.masked_limits
    return np.clip(nu, -bound, bound)


class RecedingHorizonController:
    """Stateful receding-horizon wrapper: warm start, solve, apply first input.

    The warm start is the shifted candidate of the stability argument, built
    from the last accepted solve. When the measured state is outside the
    safe set the OCP cannot be posed and the step falls back to the local
    controller alone (recovery mode); a recovery or a failed solve leaves no
    accepted solve, so the next warm start is zero.
    """

    def __init__(self, cfg: OcpConfig, x_des):
        self.cfg = cfg
        self.x_des = np.asarray(x_des, dtype=float)
        self.anchor = RecenteringAnchor(self.x_des, cfg.visibility, cfg.area_bounds)
        self._prev = None  # the last accepted OcpSolution

    def warm_start(self, poly: PolygonFeatures, x0, flow, z: float):
        """The last accepted solve's controls shifted one step, then the local
        controller acting on that solve's predicted terminal state and polygon.

        The polygon takes ``poly``'s reference pair and the controller the
        altimeter ``z``; ``x0`` and ``flow`` are not read. Zero before any
        accepted solve.
        """
        cfg, prev = self.cfg, self._prev
        if prev is None:
            return np.zeros((cfg.n, cfg.n_inputs))
        tail_poly = PolygonFeatures(prev.terminal_vertices, poly.reference_pair)
        tail = local_controller_h(prev.predicted_states[cfg.n] - self.x_des, tail_poly, cfg, z)
        return np.vstack([prev.controls[1:], tail[None]])

    def step(self, poly: PolygonFeatures, x_meas, flow, z: float) -> StepResult:
        cfg = self.cfg
        x_meas = np.asarray(x_meas, dtype=float)
        try:
            warm = self.warm_start(poly, x_meas, flow, z)
            sol = solve_ocp(
                poly, x_meas, flow, cfg, self.x_des, z, warm_start=warm, anchor=self.anchor
            )
        except InfeasibleStart:
            sol = None
        if sol is None or not np.isfinite(sol.cost):
            self._prev = None
            nu_m = local_controller_h(x_meas - self.x_des, poly, cfg, z)
            return StepResult(nu=self._expand(nu_m), solution=sol, recovered=True)
        self._prev = sol
        return StepResult(nu=self._expand(sol.controls[0]), solution=sol, recovered=False)

    def _expand(self, nu_masked):
        nu = np.zeros(6)
        nu[self.cfg.mask_idx] = nu_masked
        return nu


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def lipschitz_Lf(limits: InputLimits, z: float, dt: float) -> float:
    """Model Lipschitz constant from the climb and yaw rate bounds."""
    if z <= 0 or dt <= 0:
        raise ValueError("z and dt must be positive")
    nu_z = limits.nu_max[2]
    om_z = limits.omega_max[2]
    inner = max(4.0 * (1.0 + nu_z * dt / z) ** 2, 4.0 * (om_z * dt) ** 2)
    return float(np.sqrt(2.0 * inner))


def lipschitz_LF(state_box, q) -> float:
    """Stage-cost Lipschitz constant over the boxed state set."""
    state_box = np.asarray(state_box, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(2.0 * np.sqrt((state_box * state_box).sum()) * q.max())


def lipschitz_FV(cfg: OcpConfig) -> float:
    """Exact Lipschitz constant of the stage cost w.r.t. the input.

    The barrier is unbounded at the limits ``m``, so the constant is taken
    on the inner 90% of the box, ``|nu| <= c = 0.9 m``. The state terms
    cancel in ``F(x, nu_a) - F(x, nu_b)``, and each input term is even and
    convex, so ``|dF/dnu_i|`` peaks at ``|nu_i| = c_i``: the constant is the
    gradient norm at the box's corner.
    """
    m = cfg.masked_limits
    c = 0.9 * m
    return float(np.linalg.norm(2.0 * cfg.masked_r * c + 1.0 / (m - c) ** 2 - 1.0 / (m + c) ** 2))


def _geometric_sum(L_f: float, k: int) -> float:
    """``1 + L_f + ... + L_f**(k-1) = (L_f**k - 1)/(L_f - 1)``; ``k`` at L_f = 1."""
    if abs(L_f - 1.0) < 1e-9:
        return float(k)
    return (L_f**k - 1.0) / (L_f - 1.0)


def prediction_error_bound(i: int, xi: float, L_f: float) -> float:
    """Accumulated prediction-error bound after ``i`` disturbed steps."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    return xi * _geometric_sum(L_f, i)


def disturbance_feasibility_bound(a_eps, a_eps_f, L_E, L_f, n):
    """Largest disturbance keeping the terminal set recursively reachable.

    Returns ``(xi_max, per_m)`` where ``per_m[m]`` is the bound assuming the
    last successful solve happened ``m`` steps ago.
    """
    if not (a_eps > a_eps_f > 0):
        raise ValueError("need a_eps > a_eps_f > 0")
    if L_f <= 0 or L_E <= 0:
        raise ValueError("constants must be positive")
    per_m = np.empty(n)
    for m in range(n):
        per_m[m] = (a_eps - a_eps_f) / (L_E * L_f ** ((n - 1) - m) * _geometric_sum(L_f, m + 1))
    return float(per_m.min()), per_m


def cost_difference_bound(m: int, e: float, diag, state_norms=()):
    """Lemma-style optimal-cost difference bound and its constant.

    The constant is ``diag.L_zm[m]``. ``state_norms`` are the closed-loop
    state-error norms entering the stage-cost lower-bound sum. Returns
    ``(bound, L_zm)``.
    """
    if not 0 <= m < len(diag.L_zm):
        raise ValueError("m must lie in [0, n)")
    L_zm = diag.L_zm[m]
    lower_sum = diag.F_lower * float(sum(v * v for v in state_norms))
    return float(L_zm * e - lower_sum), float(L_zm)


def empirical_lipschitz_f(cfg: OcpConfig, z: float, poly: PolygonFeatures, rng) -> float:
    """Sampled Lipschitz estimate of the one-step stacked vertex/state map at ``poly``.

    Perturbs the stacked (vertices, state) vector by ``_LIPSCHITZ_RADIUS``,
    steps both copies under a random admissible input, and takes the worst
    ratio of output to input distance over ``_LIPSCHITZ_SAMPLES`` draws. The
    draws are made sample by sample, then all copies step in one pass of the
    :mod:`polyservo.polygon` ``_batch`` helpers with a leading copy and
    sample axis.
    """
    verts, n_v = poly.vertices, poly.n_vertices
    # The state offset cancels in the ratio but sets its rounding.
    offset = np.array([
        verts[:, 0].mean(), verts[:, 1].mean(), np.log(0.5 * abs(_shoelace_sum(verts))), 0.0
    ])
    limits = cfg.limits.as_vector()
    draws = []
    for _ in range(_LIPSCHITZ_SAMPLES):
        nu = rng.uniform(-1.0, 1.0, 6) * limits * cfg.mask
        d = rng.normal(size=2 * n_v + 4)
        draws.append((nu, d * (_LIPSCHITZ_RADIUS / np.linalg.norm(d))))
    nu, delta = (np.array(a) for a in zip(*draws))

    pts = np.stack(np.broadcast_arrays(verts, verts + delta[:, : 2 * n_v].reshape(-1, n_v, 2)))
    x = np.stack(np.broadcast_arrays(offset, offset + delta[:, 2 * n_v :]))
    g, L = _dynamics_batch(pts, z, poly.reference_pair)
    pts = pts + (L @ nu[:, None, :, None])[..., 0] * cfg.dt
    x = x + (g @ nu[:, :, None])[..., 0] * cfg.dt
    worst = 0.0
    for dp, dx in zip(pts[0] - pts[1], x[0] - x[1]):
        num = np.sqrt(np.linalg.norm(dp) ** 2 + np.linalg.norm(dx) ** 2)
        worst = max(worst, num / _LIPSCHITZ_RADIUS)
    return float(worst)


@dataclass
class DiagnosticsBundle:
    """Computable constants behind the feasibility/stability argument."""

    L_f: float
    L_F: float
    L_FV: float
    L_E: float
    F_lower: float
    eps0: float
    a_eps: float
    a_eps_f: float
    xi_max: float
    xi_max_per_m: np.ndarray
    state_box: np.ndarray
    p_weights: np.ndarray
    L_zm: np.ndarray
    L_f_emp: float
    xi_max_emp: float

    def in_terminal_set(self, x_err) -> bool:
        x_err = np.asarray(x_err, dtype=float)
        return float(x_err @ (self.p_weights * x_err)) <= self.a_eps

    def to_dict(self):
        """The run sidecar's constants: every field but ``p_weights``."""
        out = {}
        for f in fields(self):
            if f.name != "p_weights":
                v = getattr(self, f.name)
                out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        return out


def _auto_eps0(cfg: OcpConfig, x_des):
    """Largest terminal-ellipsoid scale whose box fits the safe set."""
    p = cfg.p
    pmax = p.max()
    l1, l2 = _L_values(x_des, cfg.visibility, cfg.area_bounds)
    if l1 <= EPS_L or l2 <= EPS_L:
        raise ValueError("x_des must be strictly inside the safe set")
    d_vis = float(fov_distance(x_des[:2], cfg.visibility))
    sig_des = float(x_des[2])
    room_sig = min(
        sig_des - np.log(cfg.area_bounds.sigma_min),
        np.log(cfg.area_bounds.sigma_max) - sig_des,
    )
    lim_vis = d_vis / np.sqrt(pmax / p[0] + pmax / p[1])
    lim_sig = room_sig / np.sqrt(pmax / p[2])
    return 0.9 * min(lim_vis, lim_sig)


def compute_diagnostics(cfg: OcpConfig, z: float, x_des, ref_poly, rng) -> DiagnosticsBundle:
    """Evaluate every diagnostic constant for one controller configuration.

    ``L_f_emp``, and ``xi_max_emp`` from it, are sampled around ``ref_poly``
    with ``rng``. A session draws them at its opening polygon with
    ``default_rng(disturbance seed + seed offset + 1)``, so they differ
    between seed offsets, as between ``polyservo diagnose`` (offset 0),
    ``run --seed k`` and a batch's repetitions. Raises ``ValueError`` when
    ``x_des`` is not strictly inside the safe set.
    """
    x_des = np.asarray(x_des, dtype=float)
    vis = cfg.visibility
    box = np.array(
        [
            max(abs(vis.x_min), abs(vis.x_max)),
            max(abs(vis.y_min), abs(vis.y_max)),
            max(abs(np.log(cfg.area_bounds.sigma_min)), abs(np.log(cfg.area_bounds.sigma_max))),
            _ABAR_LIMIT,
        ]
    )
    eps0 = _auto_eps0(cfg, x_des)
    pmax = float(cfg.p.max())
    a_eps = pmax * eps0 * eps0
    a_eps_f = 0.5 * a_eps
    L_E = 2.0 * eps0 * pmax
    L_f = lipschitz_Lf(cfg.limits, z, cfg.dt)
    L_F = lipschitz_LF(box, cfg.q)
    F_lower = float(min(cfg.q.min(), cfg.masked_r.min()))
    xi_max, per_m = disturbance_feasibility_bound(a_eps, a_eps_f, L_E, L_f, cfg.n)
    L_f_emp = empirical_lipschitz_f(cfg, z, ref_poly, rng)
    xi_max_emp, _ = disturbance_feasibility_bound(a_eps, a_eps_f, L_E, L_f_emp, cfg.n)

    # Optimal-cost difference constants, k = n - 1 - m steps left.
    L_zm = np.array(
        [L_E * L_f**k + L_F * _geometric_sum(L_f, k) for k in range(cfg.n - 1, -1, -1)]
    )

    return DiagnosticsBundle(
        L_f=L_f,
        L_F=L_F,
        L_FV=lipschitz_FV(cfg),
        L_E=L_E,
        F_lower=F_lower,
        eps0=float(eps0),
        a_eps=float(a_eps),
        a_eps_f=float(a_eps_f),
        xi_max=float(xi_max),
        xi_max_per_m=per_m,
        state_box=box,
        p_weights=cfg.p.copy(),
        L_zm=L_zm,
        L_f_emp=L_f_emp,
        xi_max_emp=xi_max_emp,
    )
