"""Property tests: the fused horizon kernel against the public cost oracle.

``_OcpKernel`` (complex-form batched rollout) and ``total_cost`` (the
``propagate_discrete`` path) share no rollout code. On random star-shaped
polygons, control sequences, target flows and both input masks they must
give the same cost, reject exactly the same candidates, and a batched
evaluation must agree row by row with single evaluations; so must the
centre row of a gradient batch, which gives a solver point its cost,
predicted trajectory and horizon-end polygon. The kernel reuses one buffer
per thread for its vertex arrays, so the points it hands out must survive
its later calls, larger batches and smaller alike, and kernels run in
several threads must give their serial results.

On the same instances, ``solve_ocp`` is held to the invariants the
receding-horizon argument relies on, whatever the search direction: the
solved cost never exceeds a finite warm start's cost, the returned controls
are finite and strictly inside the input limits, and ``decrement`` is the
Gauss-Newton decrement ``-g^T d / 2`` at the returned controls: a solve
stops ``converged`` exactly when it is at most ``_DECREMENT_TOL``, and
``max_iters`` only after ``_MAX_ITERS`` steps. The gradient is the chain
rule through the once-differenced rollout outputs and matches the central
difference of the cost wherever both sides are finite. The search matrix,
the Gauss-Newton matrix built from the same differenced outputs, is finite,
symmetric positive definite and gives a descent step without damping; at
solved controls, a coordinate whose difference leaves the safe set has no
off-diagonal entry. When no step length passes the line search, the solve
says so with ``no_descent`` and returns its warm start unchanged.

Each iterate is one solver point, so every solve returns the cost and
prediction of its own controls, bit for bit those of a fresh gradient
batch there. The line search tries the full step first, as the next
point, so a solve whose every step is full makes one kernel call per
iteration, all of gradient batches. A rejected full step rolls out the
whole ladder, t = 1/2 ... 2^-29, in one batch, and the next point is the
gradient batch at its largest passing step.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polyservo import (
    AreaBounds,
    CameraIntrinsics,
    InputLimits,
    OcpConfig,
    VisibilityParams,
    extract_state,
    solve_ocp,
    total_cost,
)
from polyservo.barriers import EPS_L, RecenteringAnchor
from polyservo.camera import UAV_MASK
from polyservo.errors import InfeasibleStart, PolyServoError
from polyservo import nmpc
from polyservo.nmpc import _FD_STEP, _OcpKernel
from conftest import random_polygon

Z = 2.0
RTOL = 1e-12
ATOL = 1e-12

PROPS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _ocp(uav: bool) -> OcpConfig:
    k = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    return OcpConfig(
        n=6,
        dt=0.1,
        q=np.array([50.0, 50.0, 60.0, 20.0]),
        r=np.array([0.1, 0.1, 0.05, 0.5, 0.5, 0.1]),
        p=np.array([500.0, 500.0, 600.0, 200.0]),
        visibility=VisibilityParams.from_intrinsics(k, gamma=0.15),
        area_bounds=AreaBounds(sigma_min=0.01, sigma_max=0.7, delta=0.02),
        limits=InputLimits(nu_max=(0.6, 0.6, 0.6), omega_max=(0.6, 0.6, 0.8)),
        mask=UAV_MASK.copy() if uav else None,
    )


OCPS = {False: _ocp(False), True: _ocp(True)}


@st.composite
def instances(draw):
    """(poly, x0, flow, cfg, x_des, anchor, rng) for one random OCP."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_v = draw(st.integers(4, 12))
    flow_kind = draw(st.sampled_from(["none", "uniform", "per_vertex"]))
    cfg = OCPS[draw(st.booleans())]
    rng = np.random.default_rng(seed)
    # Sizes and offsets reach into the barrier bands of both constraints,
    # so a good share of the candidates leaves the safe set.
    poly = random_polygon(rng, n_v, scale=rng.uniform(0.08, 0.45), center_spread=0.5)
    x0 = extract_state(poly)
    x_des = np.array(
        [
            rng.uniform(-0.55, 0.55),
            rng.uniform(-0.4, 0.4),
            np.log(rng.uniform(0.015, 0.6)),
            rng.uniform(-1.0, 1.0),
        ]
    )
    try:
        anchor = RecenteringAnchor(x_des, cfg.visibility, cfg.area_bounds)
    except ValueError:
        assume(False)  # drew a setpoint outside the safe set
    flow = {
        "none": None,
        "uniform": rng.uniform(-0.1, 0.1, 2),
        "per_vertex": rng.uniform(-0.1, 0.1, (n_v, 2)),
    }[flow_kind]
    return poly, x0, flow, cfg, x_des, anchor, rng


def _controls(rng, cfg, scale, batch=None):
    shape = (cfg.n, cfg.n_inputs) if batch is None else (batch, cfg.n, cfg.n_inputs)
    return rng.uniform(-1.0, 1.0, shape) * scale * cfg.masked_limits


def _oracle(inst, controls):
    poly, x0, flow, cfg, x_des, anchor, _ = inst
    try:
        return total_cost(poly, x0, controls, flow, cfg, x_des, Z, anchor)
    except PolyServoError:
        return np.inf


@PROPS
@given(inst=instances(), scale=st.floats(0.01, 1.0))
def test_kernel_equals_public_cost(inst, scale):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    controls = _controls(rng, cfg, scale)
    got = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z).cost(controls[None])[0]
    want = _oracle(inst, controls)
    if np.isfinite(want):
        assert abs(got - want) <= RTOL * abs(want) + ATOL


@PROPS
@given(inst=instances(), scale=st.floats(0.3, 1.0))
def test_kernel_rejects_exactly_where_oracle_raises(inst, scale):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    controls = _controls(rng, cfg, scale)
    got = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z).cost(controls[None])[0]
    assert np.isinf(got) == np.isinf(_oracle(inst, controls))
    assert not np.isnan(got)


@PROPS
@given(inst=instances(), scale=st.floats(0.01, 1.0))
def test_batched_rows_equal_single_rows(inst, scale):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    batch = _controls(rng, cfg, scale, batch=7)
    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z)
    rows = kern.cost(batch)
    for row, controls in zip(rows, batch):
        one = kern.cost(controls[None])[0]
        if np.isfinite(one):
            assert abs(row - one) <= RTOL * abs(one) + ATOL
        else:
            assert np.isinf(row)


@settings(PROPS, max_examples=100)
@given(inst=instances(), scale=st.floats(0.01, 1.0), warm=st.booleans())
def test_solve_ocp_invariants(inst, scale, warm):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    warm_start = _controls(rng, cfg, scale) if warm else None
    try:
        sol = solve_ocp(poly, x0, flow, cfg, x_des, Z, warm_start=warm_start, anchor=anchor)
    except InfeasibleStart:
        assume(False)  # drew a measured state outside the safe set
    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z)
    start = np.zeros((cfg.n, cfg.n_inputs)) if warm_start is None else warm_start
    warm_cost = kern.cost(start[None])[0]
    if np.isfinite(warm_cost):
        assert sol.cost <= warm_cost
    assert np.isfinite(sol.controls).all()
    assert (np.abs(sol.controls) < cfg.masked_limits).all()
    if np.isfinite(sol.cost):
        pt = kern.gradient(sol.controls.ravel())
        d = -np.linalg.solve(kern.gauss_newton(pt), pt.grad)
        assert sol.decrement == -0.5 * float(pt.grad @ d)
        assert (sol.status == "converged") == (sol.decrement <= nmpc._DECREMENT_TOL)
        if sol.status == "max_iters":
            assert sol.iterations == nmpc._MAX_ITERS
        # The cost and prediction are the returned controls' own, not those
        # of a ladder row or of a rejected full step rolled out after them.
        assert sol.cost == pt.cost
        assert np.array_equal(sol.predicted_states, pt.states)
        assert np.array_equal(sol.terminal_vertices, pt.terminal_vertices)


@PROPS
@given(inst=instances(), scale=st.floats(0.01, 1.0))
def test_gradient_centre_row_is_the_single_row_pass(inst, scale):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z)
    controls = _controls(rng, cfg, scale)
    one = kern.cost(controls[None])[0]
    pt = kern.gradient(controls.ravel())
    assert np.isinf(pt.cost) == np.isinf(one)
    if np.isfinite(one):
        assert abs(pt.cost - one) <= RTOL * abs(one)
        states, S, *_ = kern.forward(controls[None])
        end = S[cfg.n, :, 0]
        np.testing.assert_allclose(pt.states, states[:, 0], rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            pt.terminal_vertices, np.stack([end.real, end.imag], axis=-1), rtol=RTOL, atol=ATOL
        )
    else:
        assert (pt.grad == np.inf).all()
        assert pt.jac is None and pt.weights is None


@settings(PROPS, max_examples=50)
@given(inst=instances(), scale=st.floats(0.01, 1.0))
def test_outputs_survive_later_calls(inst, scale):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z)
    controls = _controls(rng, cfg, scale)
    pt = kern.gradient(controls.ravel())
    held = [a for a in pt if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in held]
    other = _controls(rng, cfg, scale)
    kern.gradient(other.ravel())  # 2d+1 rows
    kern.cost(other[None])  # one row
    assert [a.tobytes() for a in held] == before


def test_kernels_in_threads_match_serial_results():
    """Each thread has its own scratch buffer: kernels with batches of
    different sizes, run side by side, give their serial costs bit for bit."""
    rng = np.random.default_rng(5)
    jobs = []
    for k in range(4):
        cfg = OCPS[bool(k % 2)]
        poly = random_polygon(rng, 5 + k)
        x0 = extract_state(poly)
        anchor = RecenteringAnchor(x0, cfg.visibility, cfg.area_bounds)
        kern = _OcpKernel(poly, x0, None, cfg, x0, anchor, Z)
        batch = _controls(rng, cfg, 0.3, batch=1 + 40 * k)
        jobs.append((kern, batch, kern.cost(batch).tobytes()))
    mismatches = []

    def work(kern, batch, want):
        for _ in range(30):
            if kern.cost(batch).tobytes() != want:
                mismatches.append(batch.shape[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def _counted_cost(monkeypatch):
    """Record the controls of every ``_OcpKernel.cost`` batch."""
    batches = []
    cost = _OcpKernel.cost

    def counted(self, controls):
        batches.append(controls.reshape(len(controls), -1).copy())
        return cost(self, controls)

    monkeypatch.setattr(_OcpKernel, "cost", counted)
    return batches


@pytest.mark.parametrize("warm, batches", [(None, 1), ("zero", 1), ("nonzero", 2)])
def test_infeasible_start_is_retried_from_zero_only_once(warm, batches, monkeypatch):
    """A target flow that carries the polygon out of view makes every start
    infeasible: a nonzero warm start is retried from zero, a zero start is
    evaluated once, and the solve reports no_descent at the measured state."""
    cfg = OCPS[False]
    rng = np.random.default_rng(3)
    poly = random_polygon(rng, 6)
    x0 = extract_state(poly)
    anchor = RecenteringAnchor(x0, cfg.visibility, cfg.area_bounds)
    warm_start = {
        None: None,
        "zero": np.zeros((cfg.n, cfg.n_inputs)),
        "nonzero": _controls(rng, cfg, 0.1),
    }[warm]
    calls = _counted_cost(monkeypatch)
    flow = np.array([5.0, 0.0])
    sol = solve_ocp(poly, x0, flow, cfg, x0, Z, warm_start=warm_start, anchor=anchor)
    assert len(calls) == batches
    assert sol.status == "no_descent" and sol.iterations == 0
    assert sol.cost == np.inf and sol.decrement == np.inf
    assert not sol.controls.any()
    assert np.array_equal(sol.predicted_states, np.repeat(x0[None], cfg.n + 1, axis=0))


def _fd_batch(theta, cfg):
    """Rows theta + h*e_i, then theta - h*e_i, shaped for the kernel."""
    step = _FD_STEP * np.eye(theta.size)
    return np.concatenate([theta + step, theta - step]).reshape(-1, cfg.n, cfg.n_inputs)


@PROPS
@given(inst=instances(), scale=st.floats(0.01, 1.0), at_limit=st.booleans())
def test_gauss_newton_matrix_gives_descent(inst, scale, at_limit):
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z)
    theta = _controls(rng, cfg, scale).ravel()
    if at_limit:
        # One input within a finite-difference step of its saturation
        # bound, so that coordinate's outer side has an infinite cost.
        i = rng.integers(theta.size)
        theta[i] = np.sign(theta[i]) * (kern.limits_flat[i] - EPS_L - 0.5 * _FD_STEP)
    f = kern.cost(theta.reshape(1, cfg.n, cfg.n_inputs))[0]
    assume(np.isfinite(f))  # a feasible iterate
    c = kern.cost(_fd_batch(theta, cfg))
    cp, cm = c[: theta.size], c[theta.size :]
    both = np.isfinite(cp) & np.isfinite(cm)
    fd = (cp - cm) / (2.0 * _FD_STEP)
    assert not (at_limit and both.all())

    pt = kern.gradient(theta)
    grad, H = pt.grad, kern.gauss_newton(pt)
    if both.any():
        scale_fd = np.abs(fd[both]).max()
        np.testing.assert_allclose(grad[both], fd[both], rtol=1e-5, atol=1e-4 * scale_fd)
    assert np.isfinite(H).all()
    assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()
    # Positive definite, judged after unit-diagonal scaling: an input at
    # its limit puts a curvature of about 1e19 on the diagonal.
    assert (np.diag(H) > 0.0).all()
    unit = 1.0 / np.sqrt(np.diag(H))
    assert np.linalg.eigvalsh(H * np.outer(unit, unit)).min() > 0.0
    if grad.any():
        d = -np.linalg.solve(H, grad)
        assert grad @ d < 0.0


@settings(PROPS, max_examples=100)
@given(inst=instances(), scale=st.floats(0.01, 1.0), warm=st.booleans())
def test_gauss_newton_matrix_drops_wall_coordinates(inst, scale, warm):
    """At solved controls, a coordinate whose difference leaves the safe set
    has no coupling to any other in the Gauss-Newton matrix."""
    poly, x0, flow, cfg, x_des, anchor, rng = inst
    warm_start = _controls(rng, cfg, scale) if warm else None
    try:
        sol = solve_ocp(poly, x0, flow, cfg, x_des, Z, warm_start=warm_start, anchor=anchor)
    except InfeasibleStart:
        assume(False)  # drew a measured state outside the safe set
    assume(np.isfinite(sol.cost))
    kern = _OcpKernel(poly, x0, flow, cfg, x_des, anchor, Z)
    theta = sol.controls.ravel()
    H = kern.gauss_newton(kern.gradient(theta))
    bad = kern.forward(_fd_batch(theta, cfg))[4]
    wall = bad[: theta.size] | bad[theta.size :]
    off_diag = H - np.diag(np.diag(H))
    assert (off_diag[wall] == 0.0).all()


@pytest.mark.parametrize("uav", [False, True])
def test_solve_ocp_reports_no_descent(uav, monkeypatch):
    """No step length passes a sufficient-decrease factor of 2 on a convex
    stretch: the solve stops in its first iteration and returns the warm
    start unchanged, with the cost its gradient batch gave there."""
    cfg = OCPS[uav]
    rng = np.random.default_rng(3)
    poly = random_polygon(rng, 6)
    x0 = extract_state(poly)
    x_des = x0 + np.array([0.05, -0.04, 0.1, 0.1])
    anchor = RecenteringAnchor(x_des, cfg.visibility, cfg.area_bounds)
    warm = _controls(rng, cfg, 0.1)
    kern = _OcpKernel(poly, x0, None, cfg, x_des, anchor, Z)
    start = kern.gradient(warm.ravel())
    monkeypatch.setattr(nmpc, "_ARMIJO_C1", 2.0)
    sol = solve_ocp(poly, x0, None, cfg, x_des, Z, warm_start=warm, anchor=anchor)
    assert sol.status == "no_descent"
    assert sol.iterations == 1
    assert np.array_equal(sol.controls, warm)
    assert sol.cost == start.cost
    # Its prediction is the warm start's, although the rejected full step's
    # gradient batch ran after it.
    assert np.array_equal(sol.predicted_states, start.states)
    assert np.array_equal(sol.terminal_vertices, start.terminal_vertices)


def test_full_steps_make_one_kernel_call_per_iteration(small_ocp, pentagon, monkeypatch):
    """A solve whose every step is full rolls out only gradient batches:
    the opening one, then one per iteration at the full step."""
    x0 = extract_state(pentagon)
    x_des = x0 + np.array([0.12, -0.08, 0.0, 0.0])
    batches = _counted_cost(monkeypatch)
    sol = solve_ocp(pentagon, x0, None, small_ocp, x_des, Z)
    assert sol.status == "converged" and sol.iterations > 1
    d = small_ocp.n * small_ocp.n_inputs
    assert [len(b) for b in batches] == [2 * d + 1] * (sol.iterations + 1)
    assert np.array_equal(batches[-1][2 * d], sol.controls.ravel())


@pytest.mark.parametrize("c1, t", [(0.6, 0.5), (0.999, 0.5**9)], ids=["0.6", "0.999"])
def test_rejected_full_step_backtracks_from_half(c1, t, small_ocp, pentagon, monkeypatch):
    """On a near-quadratic cost the full step gives about half the model's
    decrease, so a sufficient-decrease factor ``c1`` above 1/2 rejects
    t = 1 and passes only t <= 2(1 - c1): the whole ladder, from t = 1/2,
    is one batch, its largest passing step is taken, and the next gradient
    batch is rolled out there."""
    x0 = extract_state(pentagon)
    x_des = x0 + np.array([0.12, -0.08, 0.0, 0.0])
    anchor = RecenteringAnchor(x_des, small_ocp.visibility, small_ocp.area_bounds)
    kern = _OcpKernel(pentagon, x0, None, small_ocp, x_des, anchor, Z)
    start = kern.gradient(np.zeros(small_ocp.n * small_ocp.n_inputs))
    step = -np.linalg.solve(kern.gauss_newton(start), start.grad)
    monkeypatch.setattr(nmpc, "_ARMIJO_C1", c1)
    monkeypatch.setattr(nmpc, "_MAX_ITERS", 1)
    batches = _counted_cost(monkeypatch)
    sol = solve_ocp(pentagon, x0, None, small_ocp, x_des, Z, anchor=anchor)
    d = step.size
    assert [len(b) for b in batches] == [2 * d + 1, 2 * d + 1, 29, 2 * d + 1]
    assert np.array_equal(batches[1][2 * d], step)  # the rejected full step
    np.testing.assert_array_equal(batches[2], 0.5 ** np.arange(1, 30)[:, None] * step)
    assert np.array_equal(sol.controls.ravel(), t * step)
    assert np.array_equal(batches[3][2 * d], t * step)
    assert sol.iterations == 1 and sol.cost < start.cost
