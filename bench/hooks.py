"""Runtime hooks the benchmark installs on polyservo from outside the package.

Two pieces, both installed by wrapping functions and methods at run time:

- :class:`StepRecorder` wraps ``RecedingHorizonController.step``. It times
  each control period (warm start plus solve), reads the solver status
  from ``StepResult.solution`` and checks every accepted solve against the
  public ``total_cost`` oracle and against its warm start. This is the only
  hook active in an untraced run; its checks run outside the timed call.
- :class:`Tracer` wraps the per-layer functions listed in
  :data:`TRACED` and keeps one span per call (name, start, end, parent,
  session id) in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import polyservo
from polyservo import errors, nmpc

ORACLE_RTOL = 1e-9


class StepRecord(NamedTuple):
    sid: str  # controller (session) id, "<pid>:<n>"
    phase: str  # StepRecorder.phase when the step ran
    t_in: float  # perf_counter at hook entry
    t_out: float  # perf_counter at hook exit
    ctrl_s: float  # the step() call alone
    ctrl_cpu_s: float  # process CPU time of the step() call alone
    status: str  # OcpSolution.status, or "recovered" without a solution
    iters: int
    oracle_rel: float  # |kernel - total_cost| / |total_cost|; 0.0 if not checked
    checked: bool  # an accepted solve went through both checks
    warm_ok: bool  # solved cost <= finite warm-start cost

    @property
    def check_s(self) -> float:
        return (self.t_out - self.t_in) - self.ctrl_s


class StepRecorder:
    """Times and checks every controller step of every session.

    Steps taken in forked batch workers cannot reach this object's list, so
    a worker appends its records to ``<sink_dir>/steps.<pid>.jsonl`` (one
    line per step, flushed per line) and :meth:`records` merges them. Each
    record carries the :attr:`phase` label set when the step ran; a forked
    worker inherits the label of the phase that started it.
    """

    def __init__(self, sink_dir):
        self.sink_dir = Path(sink_dir)
        self.tracer = None  # a Tracer to pause during the checks, if tracing
        self.phase = ""
        # 0 or 1: trace only the session's loop iterations of this parity.
        self.trace_parity = None
        self.rows: list[StepRecord] = []
        self._pid = os.getpid()
        self._file = None
        self._n_sessions = 0
        self._orig = None

    def install(self):
        cls = nmpc.RecedingHorizonController
        self._orig = orig = cls.step
        recorder = self

        def step(ctrl, poly, x_meas, flow, z=None):
            return recorder._step(orig, ctrl, poly, x_meas, flow, z)

        cls.step = step

    def _step(self, orig, ctrl, poly, x_meas, flow, z):
        t_in = time.perf_counter()
        sid = getattr(ctrl, "_bench_sid", None)
        if sid is None:
            self._n_sessions += 1
            sid = ctrl._bench_sid = f"{os.getpid()}:{self._n_sessions}"
        if self.tracer is not None and self.trace_parity is not None:
            k = ctrl._bench_k = getattr(ctrl, "_bench_k", -1) + 1
            self.tracer._enabled = k % 2 == self.trace_parity
        zz = ctrl.z if z is None else z
        with self._paused():
            warm = ctrl.warm_start(poly, x_meas, flow, zz)
            warm_cost = self._oracle(ctrl, poly, x_meas, warm, flow, zz)
        if self._tracing():
            c0, t0 = time.process_time(), time.perf_counter()
            with self.tracer.span("nmpc.RecedingHorizonController.step"):
                res = orig(ctrl, poly, x_meas, flow, z)
            t1, c1 = time.perf_counter(), time.process_time()
        else:
            c0, t0 = time.process_time(), time.perf_counter()
            res = orig(ctrl, poly, x_meas, flow, z)
            t1, c1 = time.perf_counter(), time.process_time()
        sol = res.solution
        rel, checked, warm_ok = 0.0, False, True
        if sol is not None and not res.recovered:
            with self._paused():
                oracle = self._oracle(ctrl, poly, x_meas, sol.controls, flow, zz)
            rel = abs(sol.cost - oracle) / max(abs(oracle), 1e-300)
            if not np.isfinite(rel):
                rel = float("inf")
            checked = True
            if np.isfinite(warm_cost):
                warm_ok = sol.cost <= warm_cost + ORACLE_RTOL * abs(warm_cost)
        rec = StepRecord(
            sid,
            self.phase,
            t_in,
            time.perf_counter(),
            t1 - t0,
            c1 - c0,
            sol.status if sol is not None else "recovered",
            sol.iterations if sol is not None else 0,
            float(rel),
            checked,
            bool(warm_ok),
        )
        if os.getpid() == self._pid:
            self.rows.append(rec)
        else:
            self._write(rec)
        return res

    @staticmethod
    def _oracle(ctrl, poly, x0, controls, flow, z):
        """Public ``total_cost`` (the propagate_discrete path); +inf if infeasible."""
        try:
            return polyservo.total_cost(
                poly, x0, controls, flow, ctrl.cfg, ctrl.x_des, z, ctrl.anchor
            )
        except (errors.PolyServoError, ValueError):
            return float("inf")

    def _tracing(self):
        return self.tracer is not None and self.tracer._enabled

    def _paused(self):
        return self.tracer.paused() if self._tracing() else contextlib.nullcontext()

    def _write(self, rec):
        if self._file is None:  # first step in this worker; closed when it exits
            self._file = open(self.sink_dir / f"steps.{os.getpid()}.jsonl", "a", buffering=1)
        self._file.write(json.dumps(rec) + "\n")

    def records(self) -> list[StepRecord]:
        """Records of this process plus those written by worker processes."""
        rows = list(self.rows)
        for path in sorted(self.sink_dir.glob("steps.*.jsonl")):
            with open(path) as f:
                rows.extend(StepRecord(*json.loads(line)) for line in f)
        return rows

    def uninstall(self):
        nmpc.RecedingHorizonController.step = self._orig


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    session: int
    rows: int  # kernel batch rows, 0 for other spans
    rejected: int  # kernel rows returning +inf

    @property
    def dur(self) -> float:
        return self.end - self.start


def _kernel_rows(args, out):
    out = np.asarray(out)
    return int(out.shape[0]), int((~np.isfinite(out)).sum())


# (module, attribute path, optional counter). The span name is
# "<module short name>.<attribute path>".
TRACED = (
    ("polyservo.nmpc", "_OcpKernel.cost", _kernel_rows),
    ("polyservo.nmpc", "_OcpKernel.cost_one", None),
    ("polyservo.nmpc", "_OcpKernel.gradient", None),
    ("polyservo.nmpc", "solve_ocp", None),
    ("polyservo.nmpc", "rollout", None),
    ("polyservo.nmpc", "local_controller_h", None),
    ("polyservo.nmpc", "RecedingHorizonController.warm_start", None),
    ("polyservo.nmpc", "compute_diagnostics", None),
    ("polyservo.polygon", "propagate_discrete", None),
    ("polyservo.polygon", "extract_state", None),
    ("polyservo.camera", "interaction_matrices", None),
    ("polyservo.targets", "DeformableTarget.sample", None),
    ("polyservo.targets", "CentroidFlowEstimator.update", None),
    ("polyservo.world", "step_world", None),
    ("polyservo.world", "run_scenario", None),
    ("polyservo.config", "load_scenario", None),
    ("polyservo.analysis", "write_run_outputs", None),
)

SESSION_START = "config.load_scenario"
PAUSED = "bench.checks"


class Tracer:
    """In-memory span recorder around calls into each polyservo layer.

    A module-level function is replaced in every polyservo module that
    imported it by name, so calls between layers are traced too. A new
    session id starts at each top-level ``load_scenario`` call.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.session = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._enabled = True
        self._undo: list[tuple] = []

    def install(self):
        self.missing = []
        pkg_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "polyservo"]
        for mod_name, path, counter in TRACED:
            mod = importlib.import_module(mod_name)
            name = f"{mod_name.split('.')[-1]}.{path}"
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(orig, name, counter)
            if owner is mod:
                for m in pkg_modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapper)
            else:
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    @contextlib.contextmanager
    def active(self, recorder):
        """Trace every layer inside the block; ``recorder``'s checks are paused spans."""
        self.install()
        recorder.tracer = self
        try:
            yield
        finally:
            recorder.tracer = None
            self._enabled = True
            self.uninstall()

    def _wrap(self, orig, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._enabled:
                return orig(*args, **kwargs)
            if name == SESSION_START and not tracer._stack:
                tracer.session += 1
            idx = tracer._open()
            start = time.perf_counter()
            out = None
            try:
                out = orig(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                rows, rejected = counter(args, out) if counter and out is not None else (0, 0)
                tracer._close(idx, name, start, end, rows, rejected)

        wrapper.__wrapped__ = orig
        return wrapper

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start, end, rows=0, rejected=0):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, self.session, rows, rejected)

    def span(self, name):
        return _SpanContext(self, name)

    def paused(self):
        return _Paused(self)


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open()
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.name, self.start, time.perf_counter())
        return False


class _Paused(_SpanContext):
    """Benchmark-side work (the checks): one span, nothing traced inside it."""

    def __init__(self, tracer):
        super().__init__(tracer, PAUSED)

    def __enter__(self):
        super().__enter__()
        self.tracer._enabled = False

    def __exit__(self, *exc):
        self.tracer._enabled = True
        return super().__exit__(*exc)
