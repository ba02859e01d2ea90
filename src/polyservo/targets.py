"""Deformable planar targets and the camera-compensated flow estimator.

Targets live on the world ground plane (z = 0) and are described by base
vertices plus a stack of deformation modes. Sampling is a pure function of
(configuration, time); randomized mode phases are drawn once from the seed,
so replays are bit-identical.

Mode composition order: breathing scale about the base centroid, then the
traveling-wave displacement, then rigid spin about the base centroid, then
rigid drift.

The flow estimator differences successive measured centroids and removes
the image motion the camera's own velocity explains. It returns the
target's image motion as one plain ``(2,)`` centroid velocity; the
controller applies it to every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTarget
from .polygon import _shoelace_sum

__all__ = [
    "RigidDrift",
    "RigidSpin",
    "Breathing",
    "TravelingWave",
    "DeformableTarget",
    "CentroidFlowEstimator",
]


@dataclass(frozen=True)
class RigidDrift:
    velocity: tuple  # (vx, vy) m/s in world plane coordinates

    def __post_init__(self):
        if len(self.velocity) != 2:
            raise ValueError("rigid_drift velocity must have two entries")


@dataclass(frozen=True)
class RigidSpin:
    rate: float  # rad/s, counterclockwise about the base centroid


@dataclass(frozen=True)
class Breathing:
    amplitude: float  # fractional scale swing, |amplitude| < 1
    frequency: float  # Hz

    def __post_init__(self):
        if not abs(self.amplitude) < 1.0:
            raise ValueError("breathing amplitude must satisfy |amplitude| < 1")


@dataclass(frozen=True)
class TravelingWave:
    amplitude: float  # meters, displacement normal to the propagation axis
    wavelength: float  # meters
    speed: float  # m/s along the axis
    axis: tuple = (1.0, 0.0)  # propagation direction in the plane

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError("traveling_wave wavelength must be positive")
        if len(self.axis) != 2 or not 0 < np.linalg.norm(self.axis) < np.inf:
            raise ValueError("traveling_wave axis must be a nonzero 2-vector")


def polygon_is_simple(pts):
    """True where no two non-adjacent edges of the closed polygon intersect.

    ``pts`` is ``(..., N, 2)`` and the result has the leading shape, one bool
    for one polygon. Touching edges, collinear overlaps and repeated vertices
    count as intersections. All edge pairs are tested in one array pass.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[-2]
    i, j = np.triu_indices(n, 2)
    keep = (i > 0) | (j < n - 1)  # edges n-1 and 0 are adjacent
    i, j = i[keep], j[keep]
    xy = np.moveaxis(pts, -1, 0)
    p1, p2, q1, q2 = xy[..., i], xy[..., (i + 1) % n], xy[..., j], xy[..., (j + 1) % n]

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_seg(a, b, c):
        return ((np.minimum(a, b) <= c) & (c <= np.maximum(a, b))).all(axis=0)

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    hit |= (d1 == 0) & on_seg(q1, q2, p1) | (d2 == 0) & on_seg(q1, q2, p2)
    hit |= (d3 == 0) & on_seg(p1, p2, q1) | (d4 == 0) & on_seg(p1, p2, q2)
    return ~hit.any(axis=-1)


class DeformableTarget:
    """Ground-truth generator for a deforming planar polygon."""

    def __init__(self, base_vertices, modes=(), seed: int = 0):
        base = np.asarray(base_vertices, dtype=float)
        if base.ndim != 2 or base.shape[1] != 2 or base.shape[0] < 3:
            raise ValueError("base_vertices must be an (N, 2) array with N >= 3")
        self.base = base
        self.center = base.mean(axis=0)
        self.modes = list(modes)
        self.seed = int(seed)

        rng = np.random.default_rng(self.seed)
        self._breath_phase = {}
        self._wave_phase = {}
        for idx, mode in enumerate(self.modes):
            if isinstance(mode, Breathing):
                self._breath_phase[idx] = rng.uniform(0.0, 2.0 * np.pi)
            elif isinstance(mode, TravelingWave):
                self._wave_phase[idx] = rng.uniform(0.0, 2.0 * np.pi)

    def sample(self, t: float):
        """World vertices ``(N, 2)`` in meters at time ``t``."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        pts = self.base - self.center

        for idx, mode in enumerate(self.modes):
            if isinstance(mode, Breathing):
                w = 2.0 * np.pi * mode.frequency
                pts = (1.0 + mode.amplitude * np.sin(w * t + self._breath_phase[idx])) * pts

        for idx, mode in enumerate(self.modes):
            if isinstance(mode, TravelingWave):
                axis = np.asarray(mode.axis, dtype=float)
                axis = axis / np.linalg.norm(axis)
                normal = np.array([-axis[1], axis[0]])
                k = 2.0 * np.pi / mode.wavelength
                ph = self._wave_phase[idx]
                arg = k * ((self.base - self.center) @ axis - mode.speed * t) + ph
                pts = pts + mode.amplitude * np.sin(arg)[:, None] * normal

        for mode in self.modes:
            if isinstance(mode, RigidSpin):
                c, s = np.cos(mode.rate * t), np.sin(mode.rate * t)
                pts = pts @ np.array([[c, -s], [s, c]]).T

        pts = pts + self.center
        for mode in self.modes:
            if isinstance(mode, RigidDrift):
                pts = pts + np.asarray(mode.velocity, dtype=float) * t
        return pts

    def validate(self, duration: float):
        """Check simplicity and non-degeneracy at 64 times over the duration.

        The stacked samples go through ``_shoelace_sum`` and
        :func:`polygon_is_simple` with a leading time axis. The first failing
        time is reported, a degenerate sample before a self-intersecting one.
        """
        times = np.linspace(0.0, duration, 64)
        pts = np.stack([self.sample(float(t)) for t in times])
        degenerate = np.abs(_shoelace_sum(pts)) < 1e-12
        for t, deg, simple in zip(times, degenerate, polygon_is_simple(pts)):
            if deg:
                raise DegenerateTarget(f"target degenerate at t={t:.3f}")
            if not simple:
                raise DegenerateTarget(f"target self-intersects at t={t:.3f}")


class CentroidFlowEstimator:
    """Finite-difference centroid flow with camera motion removed.

    The first update has nothing to difference against and returns zero flow
    (the target is treated as static for the first control step).
    """

    def __init__(self):
        self._prev = None

    def update(self, sbar, t: float, L_hat, nu_hat):
        """Flow ``(2,)`` since the previous centroid sample.

        ``sbar`` is the measured centroid at time ``t``; ``L_hat`` is the 2x6
        centroid interaction matrix approximation and ``nu_hat`` the camera
        velocity believed active over the interval.
        """
        sbar = np.asarray(sbar, dtype=float).copy()
        if self._prev is None:
            self._prev = (sbar, t)
            return np.zeros(2)
        s_prev, t_prev = self._prev
        dt = t - t_prev
        if dt <= 0:
            raise ValueError("samples must be time-ordered")
        ds = (sbar - s_prev) / dt
        self._prev = (sbar, t)
        return ds - np.asarray(L_hat, dtype=float) @ np.asarray(nu_hat, dtype=float)
