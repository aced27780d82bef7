"""Scenario wiring and the benchmark/replay harness behind the CLI.

Reproduces the measurable cost comparisons between the precomputed-SDF
pipeline and the sphere baseline: preparation cost per trajectory, pure
gather-and-reduce query cost, and distance quality against a brute-force
oracle. Wall-clock numbers are reported, never asserted; the qualitative
cost shape (SDF prepares slower, queries faster, gather counts exactly
C x |occupied|) is checked and flagged.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .approx import NeuralTransformProvider, TinyMlp
from .errors import ValidationError
from .grids import EnvGrid
from .meshes import TriangleMesh, build_link_sdf, exact_point_distance, primitive_sdf
from .placement import ExactTransformProvider, compute_alignment
from .query import (
    ObstacleVoxelSet,
    RobotChecker,
    RobotSdfBatch,
    SphereRobotModel,
    assemble_robot_sdfs,
    iter_cloud_frames,
    query_min_distances,
    sphere_baseline_distances,
    stream_min_distances,
    validate_sphere_model,
    voxelize_pointcloud,
    write_distance_csv,
)
from .robot import (
    ConfigBatch,
    LinkPoseBatch,
    RobotModel,
    forward_kinematics_batch,
    max_braking_time,
    required_extent,
)

log = logging.getLogger(__name__)

# Published GPU timings per one 300-500 waypoint trajectory, reported in the
# bench output purely for context; local numbers are CPU and not comparable.
REFERENCE_GPU_QUERY_SDF_MS = 0.391
REFERENCE_GPU_QUERY_SPHERE_MS = 5.47
REFERENCE_GPU_BUDGET_MS = 1.0


@dataclass
class ScenarioConfig:
    """Everything needed to run one benchmark or replay scenario."""

    robot_path: Path
    grid_extent: float
    grid_res: float
    link_extent: float
    link_res: float
    trajectory_path: Path | None = None
    clouds_path: Path | None = None
    d_prot: float = 0.03
    obstacle_speed: float = 1.6
    provider: str = "exact"
    model_path: Path | None = None
    seed: int = 0
    n_obstacles: int = 500
    reps: int = 20
    strict_extent: bool = False

    def __post_init__(self):
        if self.provider not in ("exact", "neural"):
            raise ValidationError(f"provider must be exact or neural, got {self.provider}")
        if self.provider == "neural" and self.model_path is None:
            raise ValidationError("the neural provider needs --model")
        if self.reps < 5:
            raise ValidationError("timing needs at least 5 repetitions")
        if self.n_obstacles < 0:
            raise ValidationError(f"n_obstacles must be >= 0, got {self.n_obstacles}")


@dataclass
class Scenario:
    config: ScenarioConfig
    checker: RobotChecker
    waypoints: ConfigBatch
    poses: LinkPoseBatch  # every robot link
    spheres: SphereRobotModel | None


def check_extent(scenario_config: ScenarioConfig, robot: RobotModel) -> float:
    """Warn or fail when the link extent cannot capture approaching obstacles."""
    t_brake = max_braking_time(robot)
    needed = required_extent(
        scenario_config.obstacle_speed, t_brake, scenario_config.d_prot, robot.link_reach
    )
    if scenario_config.link_extent < needed:
        message = (
            f"link extent {scenario_config.link_extent} m is below the "
            f"required {needed:.3f} m "
            f"({scenario_config.obstacle_speed} m/s x {t_brake:.3f} s brake "
            f"+ {scenario_config.d_prot} m protective + {robot.link_reach} m reach)"
        )
        if scenario_config.strict_extent:
            raise ValidationError(message)
        log.warning(message)
    return needed


def load_scenario(config: ScenarioConfig) -> Scenario:
    """Materialize a scenario: robot, checker, waypoints and their FK."""
    robot = RobotModel.from_json(config.robot_path)
    check_extent(config, robot)
    grid = EnvGrid(extent=config.grid_extent, resolution=config.grid_res)

    if config.trajectory_path is not None:
        waypoints = ConfigBatch.from_csv(config.trajectory_path)
    else:
        raise ValidationError("scenario needs a trajectory CSV")
    poses = forward_kinematics_batch(robot, waypoints)
    model = TinyMlp.load(config.model_path) if config.provider == "neural" else None
    checker = RobotChecker.build(robot, grid, config.link_extent, config.link_res, model)

    spheres = None
    if robot.sphere_model:
        spheres = SphereRobotModel.from_robot(robot)
        validate_sphere_model(robot, spheres, np.random.default_rng(config.seed))
    return Scenario(
        config=config, checker=checker, waypoints=waypoints, poses=poses, spheres=spheres
    )


def _timed_prepare(scenario: Scenario) -> tuple[RobotSdfBatch, float, float]:
    """One prepare pass: (batch, placement seconds, total seconds).

    Placement runs lazily inside assembly, so its time is what
    ``checker.fields`` takes to hand over each field.
    """
    checker = scenario.checker
    placement_s = 0.0

    def fields():
        nonlocal placement_s
        it = checker.fields(scenario.poses)
        while True:
            t0 = time.perf_counter()
            item = next(it, None)
            placement_s += time.perf_counter() - t0
            if item is None:
                return
            yield item

    t0 = time.perf_counter()
    batch = assemble_robot_sdfs(
        fields(), checker.grid, scenario.waypoints.size, checker.d_far_global
    )
    return batch, placement_s, time.perf_counter() - t0


def random_obstacles(scenario: Scenario, rng: np.random.Generator) -> ObstacleVoxelSet:
    grid = scenario.checker.grid
    draws = rng.integers(0, grid.dims, size=(scenario.config.n_obstacles, 3))
    flat = np.unique(np.ravel_multi_index(tuple(draws.T), grid.dims))
    return ObstacleVoxelSet(flat=flat, grid=grid, n_points=len(flat), n_dropped=0)


def _time(fn, reps: int, warmup: int = 2) -> tuple[float, float, object]:
    """(mean_s, std_s, last_result) over reps, after warmup runs."""
    for _ in range(warmup):
        result = fn()
    samples = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter()
        result = fn()
        samples[i] = time.perf_counter() - t0
    return float(samples.mean()), float(samples.std()), result


def _oracle_distances(
    scenario: Scenario, obstacles: ObstacleVoxelSet, d_far_global: float
) -> np.ndarray:
    """Brute-force exact link-geometry distances, clamped at the sentinel
    the batch stores, ``float32(d_far_global)``; an empty set gives the
    sentinel, as the query does."""
    sentinel = np.float32(d_far_global)
    c = scenario.poses.n_configs
    if obstacles.n_occupied == 0:
        return np.full(c, sentinel, dtype=np.float64)
    robot = scenario.checker.robot
    targets = scenario.checker.grid.voxel_centers(obstacles.indices)
    best = np.full(c, np.inf)
    for li in robot.geometry_links:
        geometry = robot.links[li].geometry
        rot = scenario.poses.rotations[:, li]
        trn = scenario.poses.translations[:, li]
        local = np.einsum(
            "cij,cnj->cni", rot.transpose(0, 2, 1), targets[None] - trn[:, None]
        )
        if isinstance(geometry, TriangleMesh):
            d = exact_point_distance(
                geometry, local.reshape(-1, 3), signed=geometry.is_watertight
            )
        else:
            d = primitive_sdf(geometry, local.reshape(-1, 3))
        best = np.minimum(best, d.reshape(c, -1).min(axis=1))
    return np.minimum(best, sentinel)


@dataclass
class BenchReport:
    """Timings, operation counts, and quality metrics for one scenario."""

    rows: list[tuple[str, float, float, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, metric: str, value: float, std: float = 0.0, unit: str = "") -> None:
        self.rows.append((metric, value, std, unit))

    def value(self, metric: str) -> float:
        for name, value, _, _ in self.rows:
            if name == metric:
                return value
        raise KeyError(metric)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("metric,value,std,unit\n")
            for name, value, std, unit in self.rows:
                fh.write(f"{name},{value:.9g},{std:.3g},{unit}\n")

    def human(self) -> str:
        width = max(len(name) for name, *_ in self.rows)
        lines = [
            f"{name:<{width}}  {value:>12.6g} ± {std:<10.3g} {unit}"
            for name, value, std, unit in self.rows
        ]
        return "\n".join(lines + self.notes)


def run_bench(scenario: Scenario, rng: np.random.Generator) -> BenchReport:
    """Measure preparation and query cost for both checkers on one scenario."""
    report = BenchReport()
    config = scenario.config
    checker = scenario.checker
    grid, robot = checker.grid, checker.robot
    c = scenario.waypoints.size
    if config.clouds_path is not None:
        frame = next(iter_cloud_frames(config.clouds_path), None)
        if frame is None:
            raise ValidationError(f"{config.clouds_path}: the manifest lists no frames")
        obstacles = voxelize_pointcloud(frame[1], grid)
    else:
        obstacles = random_obstacles(scenario, rng)

    mean_s, std_s, _ = _time(
        lambda: [
            build_link_sdf(
                robot.links[i].geometry, config.link_extent, config.link_res, link_id=i
            )
            for i in robot.geometry_links
        ],
        reps=5,
        warmup=0,
    )
    report.add("precompute_link_sdfs_s", mean_s, std_s, "s")

    # Placement, assembly and their sum come from the same prepare passes.
    _timed_prepare(scenario)
    passes = []
    for _ in range(5):
        batch, placement_s, total_s = _timed_prepare(scenario)
        passes.append((placement_s, total_s - placement_s, total_s))
    passes = np.array(passes)
    for name, column in zip(
        ("placement_s", "assembly_s", "prepare_sdf_per_trajectory_s"), passes.T
    ):
        report.add(name, float(column.mean()), float(column.std()), "s")

    sphere_prep_mean = sphere_prep_std = 0.0
    if scenario.spheres is not None:
        sphere_prep_mean, sphere_prep_std, _ = _time(
            lambda: forward_kinematics_batch(robot, scenario.waypoints),
            reps=10,
        )
    report.add("prepare_sphere_per_trajectory_s", sphere_prep_mean, sphere_prep_std, "s")

    # Transform-step comparison: the part the neural accelerator replaces.
    # Reported for context; the speedup is hardware dependent.
    links = robot.geometry_links
    rotations = scenario.poses.rotations[:, links].reshape(-1, 3, 3)
    deltas = compute_alignment(
        scenario.poses.translations[:, links].reshape(-1, 3), grid, config.link_extent
    ).delta_t

    def time_transform(provider):
        def run():
            for s in range(0, len(rotations), 16):
                provider.transform(rotations[s : s + 16], deltas[s : s + 16])

        mean_s, std_s, _ = _time(run, reps=max(5, min(config.reps, 10)), warmup=1)
        return mean_s, std_s

    mean_s, std_s = time_transform(ExactTransformProvider(checker.provider.window))
    report.add("transform_exact_ms", mean_s * 1e3, std_s * 1e3, "ms")
    if isinstance(checker.provider, NeuralTransformProvider):
        neural_mean, neural_std = time_transform(checker.provider)
        report.add("transform_neural_ms", neural_mean * 1e3, neural_std * 1e3, "ms")
        report.add(
            "transform_neural_speedup",
            mean_s / neural_mean if neural_mean > 0 else 0.0,
            0.0,
            "x",
        )

    report.add("occupied_voxels", obstacles.n_occupied, 0.0, "count")
    report.add("waypoints", c, 0.0, "count")

    mean_s, std_s, (distances, stats) = _time(
        lambda: query_min_distances(batch, obstacles, return_stats=True),
        reps=config.reps,
    )
    report.add("query_sdf_ms", mean_s * 1e3, std_s * 1e3, "ms")
    report.add("query_sdf_gathers", stats["gathers"], 0.0, "count")
    report.add("live_voxel_fraction", batch.live_fraction, 0.0, "ratio")

    sphere_ok = scenario.spheres is not None
    if sphere_ok:
        mean_s, std_s, (sphere_d, sphere_stats) = _time(
            lambda: sphere_baseline_distances(
                scenario.spheres,
                scenario.poses,
                obstacles,
                grid,
                return_stats=True,
            ),
            reps=config.reps,
        )
        report.add("query_sphere_ms", mean_s * 1e3, std_s * 1e3, "ms")
        report.add("query_sphere_evals", sphere_stats["distance_evals"], 0.0, "count")
        report.add(
            "baseline_conservative_fraction",
            float(np.mean(sphere_d <= distances + 1e-6)),
            0.0,
            "",
        )

    oracle = _oracle_distances(scenario, obstacles, batch.d_far_global)
    delta = np.abs(np.asarray(distances, dtype=np.float64) - oracle)
    report.add("quality_max_abs_delta_m", float(delta.max()), 0.0, "m")
    report.add("quality_mean_abs_delta_m", float(delta.mean()), 0.0, "m")

    prep_ok = report.value("prepare_sdf_per_trajectory_s") > report.value(
        "prepare_sphere_per_trajectory_s"
    )
    report.add("ordering_prepare_sdf_gt_sphere", float(prep_ok), 0.0, "bool")
    if not prep_ok:
        report.notes.append("FLAG: SDF preparation was not slower than sphere prep")
    if sphere_ok:
        query_ok = report.value("query_sdf_ms") < report.value("query_sphere_ms")
        report.add("ordering_query_sdf_lt_sphere", float(query_ok), 0.0, "bool")
        if not query_ok:
            report.notes.append("FLAG: SDF query was not faster than sphere query")

    report.add("reference_gpu_query_sdf_ms", REFERENCE_GPU_QUERY_SDF_MS, 0.0, "ms")
    report.add("reference_gpu_query_sphere_ms", REFERENCE_GPU_QUERY_SPHERE_MS, 0.0, "ms")
    report.add("reference_gpu_budget_ms", REFERENCE_GPU_BUDGET_MS, 0.0, "ms")
    report.notes.append(
        "reference_gpu_* rows are published GPU figures for context only; "
        "local CPU timings are not comparable and never asserted."
    )
    return report


def run_replay(scenario: Scenario, out_path) -> dict[str, float]:
    """Replay a recorded cloud sequence against prepared robot SDFs."""
    if scenario.config.clouds_path is None:
        raise ValidationError("replay needs --clouds")
    batch = scenario.checker.prepare(scenario.poses)
    frames = iter_cloud_frames(scenario.config.clouds_path)
    rows = []
    points = nonfinite = out_of_grid = 0
    for stamp, obstacles, dists in stream_min_distances(batch, frames):
        rows.append((stamp, dists))
        points += obstacles.n_points
        nonfinite += obstacles.n_nonfinite
        out_of_grid += obstacles.n_dropped - obstacles.n_nonfinite
    write_distance_csv(out_path, rows, scenario.waypoints.size)
    return {
        "frames": float(len(rows)),
        "points": float(points),
        "nonfinite_points": float(nonfinite),
        "out_of_grid_points": float(out_of_grid),
        "min_distance_m": min((float(d.min()) for _, d in rows), default=np.inf),
        "waypoints": float(scenario.waypoints.size),
    }
