"""Walk through the moment-feature state and its analytic dynamics.

Builds a hexagon on the normalized image plane, extracts the controlled
state (centroid, log-area, angle tangent), and checks the 4x6 input map two
ways: against finite differences of the state under a small camera motion,
and against the printed closed-form variant of the area row.
"""

import numpy as np

from polyservo import PolygonFeatures, dynamics_matrix, extract_state, printed_dynamics_matrix
from polyservo.camera import interaction_matrices

rng = np.random.default_rng(3)
angles = np.sort(rng.uniform(0, 2 * np.pi, 6))
pts = np.column_stack([0.25 * np.cos(angles), 0.2 * np.sin(angles)])
poly = PolygonFeatures(pts)
x = extract_state(poly)
z = 2.0

print("vertices (normalized):")
print(np.round(poly.vertices, 4))
print("\nstate [sx, sy, log-area, angle-tangent]:", np.round(x, 5))

g = dynamics_matrix(poly, z)
print("\ninput map g (chain rule):")
print(np.round(g, 4))

# One explicit Euler step per unit velocity direction vs. re-extraction.
dt = 1e-4
print("\nfinite-difference check (error should shrink ~4x when dt halves):")
for name, idx in (("v_z", 2), ("w_x", 3), ("w_z", 5)):
    nu = np.zeros(6)
    nu[idx] = 1.0
    for step in (dt, dt / 2):
        moved = poly.vertices + (interaction_matrices(poly.vertices, z) @ nu) * step
        x_new = extract_state(PolygonFeatures(moved))
        err = np.linalg.norm(x_new - (x + g @ nu * step))
        print(f"  {name}  dt={step:.0e}  |error|={err:.3e}")

gp = printed_dynamics_matrix(poly, x, z)
print("\narea row, chain rule  :", np.round(g[2], 4))
print("area row, closed form :", np.round(gp[2], 4))
print("(the closed-form variant keeps a constant factor on the angular-rate")
print(" terms; the chain-rule row is the one used for control)")
