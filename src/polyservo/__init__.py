"""Visual-servoing NMPC for polygonal targets with moment-like features.

The package splits into: camera geometry (:mod:`polyservo.camera`), the
polygon moment state and its dynamics (:mod:`polyservo.polygon`),
deformable-target generators and flow estimation (:mod:`polyservo.targets`),
constraint barriers (:mod:`polyservo.barriers`), the receding-horizon
controller and diagnostics (:mod:`polyservo.nmpc`), the closed-loop
simulator (:mod:`polyservo.world`), and batch statistics
(:mod:`polyservo.analysis`).
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
    recentered_barrier,
)
from .camera import (
    FULL_MASK,
    UAV_MASK,
    CameraIntrinsics,
    interaction_matrices,
    normalized_to_pixel,
)
from .config import BatchSpec, ScenarioConfig, load_batch, load_scenario
from .nmpc import (
    DiagnosticsBundle,
    OcpConfig,
    OcpSolution,
    RecedingHorizonController,
    SolverParams,
    compute_diagnostics,
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
from .targets import (
    Breathing,
    CentroidFlowEstimator,
    DeformableTarget,
    RigidDrift,
    RigidSpin,
    TravelingWave,
)
from .world import CameraPose, SimLog, inject_disturbance, run_scenario, step_world
