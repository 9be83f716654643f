"""Coverage planning for mixed static/mobile sensor networks on unit grids.

Static node placement and mobile-node path planning are posed as
mixed-integer linear programs and solved exactly by the bundled
branch-and-bound / bounded-simplex stack; greedy and random baselines plus
an experiment harness reproduce the desk-scale coverage studies.
"""

from .grid import (
    Cell,
    CoverageReport,
    GridSpec,
    SensorParams,
    boundary_cells,
    evaluate_plan,
    interior_cells,
    reachable_window,
    sensing_footprint,
    static_coverage,
)
from .milp import (
    InstanceStats,
    MilpInstance,
    instance_stats,
    parse_solution_values,
    write_lp_text,
)
from .simplex import LpData, LpResult, SimplexNumericalError, solve_lp
from .bnb import MilpResult, SolveParams, solve_milp
from .formulations import (
    FormulationHandle,
    MobilePlan,
    PlanViolation,
    StaticDeployment,
    build_milp_cov,
    build_milp_mov,
    build_milp_static,
    decode_plan,
    decode_static,
    encode_plan,
    validate_plan,
)
from .planners import BaselineConfig, greedy_plan, random_plan
from .harness import ExperimentConfig, ResultRow, run_pipeline, sweep

__version__ = "0.1.0"
