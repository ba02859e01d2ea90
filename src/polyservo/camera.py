"""Pinhole camera geometry: intrinsics, the normalized-to-pixel map and
point-feature interaction matrices.

Conventions
-----------
Camera frame: x right, y down, z along the optical axis into the scene
(for a nadir-mounted camera, z points at the ground). Velocities are
6-vectors ``[v_x, v_y, v_z, w_x, w_y, w_z]`` expressed in the camera frame,
m/s and rad/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CameraIntrinsics",
    "FULL_MASK",
    "UAV_MASK",
    "normalized_to_pixel",
    "interaction_matrices",
]

# Velocity component order used everywhere: vx, vy, vz, wx, wy, wz.
FULL_MASK = np.ones(6, dtype=bool)
FULL_MASK.setflags(write=False)

# Multirotor preset: planar translation + climb + yaw rate.
UAV_MASK = np.array([True, True, True, False, False, True])
UAV_MASK.setflags(write=False)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths and principal point in pixels."""

    alpha_x: float
    alpha_y: float
    c_u: float
    c_v: float
    width: int
    height: int

    def __post_init__(self):
        if self.alpha_x <= 0 or self.alpha_y <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.c_u < self.width and 0 < self.c_v < self.height):
            raise ValueError("principal point must lie inside the image")

    def fov_rect(self):
        """Normalized-plane bounds of the image: (x_min, x_max, y_min, y_max)."""
        return (
            -self.c_u / self.alpha_x,
            (self.width - self.c_u) / self.alpha_x,
            -self.c_v / self.alpha_y,
            (self.height - self.c_v) / self.alpha_y,
        )


def normalized_to_pixel(s, k: CameraIntrinsics):
    """Map normalized image coordinates (..., 2) to pixel coordinates."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    out[..., 0] = s[..., 0] * k.alpha_x + k.c_u
    out[..., 1] = s[..., 1] * k.alpha_y + k.c_v
    return out


def interaction_matrices(pts, z: float):
    """Point-feature interaction matrices for an array of normalized points.

    ``pts`` has shape (..., 2); the result has shape (..., 2, 6) and maps a
    camera velocity 6-vector to the image-plane velocity of each point, all
    points sharing the constant depth ``z``.
    """
    if z <= 0:
        raise ValueError("depth must be positive")
    pts = np.asarray(pts, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    L = np.zeros(pts.shape[:-1] + (2, 6))
    L[..., 0, 0] = -1.0 / z
    L[..., 0, 2] = x / z
    L[..., 0, 3] = x * y
    L[..., 0, 4] = -(1.0 + x * x)
    L[..., 0, 5] = y
    L[..., 1, 1] = -1.0 / z
    L[..., 1, 2] = y / z
    L[..., 1, 3] = 1.0 + y * y
    L[..., 1, 4] = -x * y
    L[..., 1, 5] = -x
    return L
