"""Batched robot-obstacle distance checking from precomputed link SDFs.

Pipeline: bake signed distance grids per robot link once, then per
trajectory run batched forward kinematics, align and resample every link
onto the environment grid, min-merge into per-waypoint robot SDFs, and
answer minimum-distance queries against voxelized obstacles with a pure
gather-and-reduce pass.
"""

from .approx import (
    NeuralTransformProvider,
    TinyMlp,
    TrainingConfig,
    evaluate_approximator,
    infer_grid_transform,
    masked_window_points,
    sample_rotations,
    train_approximator,
)
from .errors import (
    DimensionMismatchError,
    GridMismatchError,
    LimitViolationError,
    LinkSdfError,
    NoOverlapError,
    NonWatertightError,
    NotConvergedError,
    ValidationError,
)
from .grids import (
    EnvGrid,
    LinkSdf,
    SdfSampleField,
    read_link_sdf,
    trilinear_sample,
    write_link_sdf,
)
from .meshes import (
    Box,
    Capsule,
    Sphere,
    TriangleMesh,
    build_link_sdf,
    exact_point_distance,
    load_mesh,
    make_box_mesh,
    make_icosphere,
    primitive_sdf,
)
from .placement import (
    AlignmentResult,
    ExactTransformProvider,
    WindowGeometry,
    canonical_points,
    compute_alignment,
    grid_transform_exact,
    place_link,
    place_links_batch,
    sphere_mask,
    window_dims,
)
from .query import (
    ObstacleVoxelSet,
    RobotSdfBatch,
    SphereRobotModel,
    assemble_robot_sdfs,
    per_link_min_distances,
    query_min_distances,
    sphere_baseline_distances,
    stream_min_distances,
    validate_sphere_model,
    voxelize_pointcloud,
)
from .robot import (
    ConfigBatch,
    LinkPoseBatch,
    RobotModel,
    forward_kinematics_batch,
    forward_kinematics_single,
    max_braking_time,
    required_extent,
)

__version__ = "0.1.0"
