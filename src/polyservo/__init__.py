"""Visual-servoing NMPC for polygonal targets with moment-like features.

The package splits into: camera geometry (:mod:`polyservo.camera`), the
polygon moment state and its dynamics (:mod:`polyservo.polygon`),
deformable-target generators and flow estimation (:mod:`polyservo.targets`),
constraint barriers (:mod:`polyservo.barriers`), the receding-horizon
controller and diagnostics (:mod:`polyservo.nmpc`), the closed-loop
simulator (:mod:`polyservo.world`), and batch statistics
(:mod:`polyservo.analysis`). The package re-exports only the names that the
demos, tests and benchmark read from it; everything else is imported from its
module.
"""

__version__ = "0.1.0"

from .barriers import (
    AreaBounds,
    InputLimits,
    RecenteringAnchor,
    VisibilityParams,
    barrier_Bnu,
    barrier_Bx,
    constraint_L1,
    constraint_L2,
)
from .camera import CameraIntrinsics
from .config import load_batch, load_scenario
from .nmpc import (
    OcpConfig,
    RecedingHorizonController,
    local_controller_h,
    rollout,
    solve_ocp,
    stage_cost,
    terminal_cost,
    total_cost,
)
from .polygon import (
    PolygonFeatures,
    angle_gradient,
    area_gradient,
    dynamics_matrix,
    extract_state,
    printed_dynamics_matrix,
    propagate_discrete,
    state_jacobian,
)
from .world import run_scenario
