"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The full-pipeline scene and the trained transform model are session
fixtures shared across criteria; training the model takes a few minutes.
"""

import inspect
import time
from dataclasses import dataclass

import numpy as np
import pytest

from linksdf import (
    ConfigBatch,
    EnvGrid,
    ExactTransformProvider,
    LinkSdf,
    NeuralTransformProvider,
    ObstacleVoxelSet,
    RobotChecker,
    RobotModel,
    RobotSdfBatch,
    SdfSampleField,
    Sphere,
    SphereRobotModel,
    TrainingConfig,
    WindowGeometry,
    assemble_robot_sdfs,
    build_link_sdf,
    compute_alignment,
    evaluate_approximator,
    forward_kinematics_batch,
    forward_kinematics_single,
    masked_window_points,
    place_link,
    primitive_sdf,
    query_min_distances,
    sphere_baseline_distances,
    sphere_mask,
    train_approximator,
    trilinear_sample,
    validate_sphere_model,
)
from linksdf.robot import LinkPoseBatch

# Criterion 1 tolerance: half cell diagonals of the environment and link
# grids (4 cm and 1 cm cells).
ENV_RES = 0.04
LINK_RES = 0.01
BUDGET = np.sqrt(3) * (ENV_RES / 2) + np.sqrt(3) * (LINK_RES / 2)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Scene:
    grid: EnvGrid
    batch: RobotSdfBatch
    robot: RobotModel
    all_poses: LinkPoseBatch
    obstacles: ObstacleVoxelSet


@pytest.fixture(scope="session")
def scene(arm3):
    """Full-pipeline scene: e_e=1 m, r_e=4 cm, r_r=1 cm, C=50, 500 voxels.

    The link extent (1.96 m) is chosen so every obstacle voxel lands in an
    unmasked, in-range window cell of every link: all reachable link origins
    stay within 0.25 m of the base, so voxel-to-link distances never get
    near the window boundary and the only pipeline error left is
    interpolation.
    """
    rng = np.random.default_rng(2024)
    grid = EnvGrid(extent=1.0, resolution=ENV_RES)
    link_extent = 1.96

    q = rng.uniform(-3.1, 3.1, size=(50, 3))
    all_poses = forward_kinematics_batch(arm3, ConfigBatch(q))
    reach = np.linalg.norm(
        all_poses.translations[:, arm3.geometry_links], axis=-1
    ).max()
    assert reach <= 0.25, "scene sizing assumes a compact arm"

    checker = RobotChecker.build(arm3, grid, link_extent, LINK_RES)
    batch = checker.prepare(all_poses)
    del checker  # free ~700 MB of f32 link grids once merged

    occupied = np.unique(rng.integers(0, 50, size=(620, 3)), axis=0)[:500]
    obstacles = ObstacleVoxelSet(
        flat=np.ravel_multi_index(tuple(occupied.T), grid.dims),
        grid=grid,
        n_points=len(occupied),
        n_dropped=0,
    )
    return Scene(
        grid=grid, batch=batch, robot=arm3, all_poses=all_poses, obstacles=obstacles
    )


def oracle_distances(scene: Scene, obstacles: ObstacleVoxelSet) -> np.ndarray:
    """Brute force: exact primitive distance over links x voxels, clamped
    at the global far sentinel like the pipeline output."""
    targets = scene.grid.voxel_centers(obstacles.indices)
    best = np.full(scene.all_poses.n_configs, np.inf)
    for li in scene.robot.geometry_links:
        rot = scene.all_poses.rotations[:, li]
        trn = scene.all_poses.translations[:, li]
        local = np.einsum("cji,nj->cni", rot, targets) - np.einsum(
            "cji,cj->ci", rot, trn
        )[:, None, :]
        geometry = scene.robot.links[li].geometry
        best = np.minimum(best, primitive_sdf(geometry, local).min(axis=1))
    return np.minimum(best, scene.batch.d_far_global)


@pytest.fixture(scope="session")
def desk_model():
    """Criterion 2 model: width-24 window with sphere masking, defaults."""
    points = masked_window_points(24)
    model = train_approximator(points, TrainingConfig(seed=0))
    return model, points


class TestCriterion1:
    def test_full_pipeline_oracle_equivalence(self, scene):
        got = query_min_distances(scene.batch, scene.obstacles).astype(np.float64)
        want = oracle_distances(scene, scene.obstacles)
        worst = np.abs(got - want).max()
        verdict(
            "1",
            worst <= BUDGET,
            f"full-pipeline max |query - exact oracle| = {worst:.4f} m "
            f"<= {BUDGET:.4f} m over 50 configs x 500 voxels",
        )


class TestCriterion2:
    def test_neural_max_error(self, desk_model):
        model, points = desk_model
        rng = np.random.default_rng(99)
        report = evaluate_approximator(model, points, 100_000, rng)
        verdict(
            "2",
            report["max_abs_error"] <= 0.0013,
            f"trained width-24 model max |err| = {report['max_abs_error']:.2e} "
            f"<= 1.3e-03 over 1e5 rotations (mean {report['mean_abs_error']:.2e})",
        )

    def test_neural_provider_in_placement(self, desk_model):
        # Where both providers interpolate, the 1-Lipschitz field turns the
        # coordinate error into at most 0.0013 * e_r of value error. Right
        # at the interpolation hull the sentinel makes the map
        # discontinuous, so a cell may flip to the far value; those flips
        # must stay within the model's coordinate error of the boundary.
        model, _ = desk_model
        grid = EnvGrid(extent=1.0, resolution=ENV_RES)
        extent = 0.48  # width 24 at 4 cm cells
        link = build_link_sdf(Sphere(0.2), extent, 0.02, link_id=0)
        window = WindowGeometry.build(extent, grid)
        exact = ExactTransformProvider(window)
        neural = NeuralTransformProvider(model, window)
        rng = np.random.default_rng(11)
        from linksdf.approx import sample_rotations
        from linksdf.placement import compute_alignment

        sentinel = np.float32(link.d_far)
        hull = extent - 0.02 / 2
        coord_err = 0.0013 * extent
        worst = 0.0
        flipped_total = 0
        for _ in range(100):
            (r,) = sample_rotations(rng, 1)
            t = rng.uniform(-0.4, 0.4, size=3)
            fe = place_link(link, r, t, grid, exact)
            fn = place_link(link, r, t, grid, neural)
            ve = fe.values.ravel(order="F")[window.mask.ravel(order="F")]
            vn = fn.values.ravel(order="F")[window.mask.ravel(order="F")]
            both = (ve != sentinel) & (vn != sentinel)
            if np.any(both):
                worst = max(
                    worst,
                    float(np.abs(ve[both].astype(np.float64) - vn[both]).max()),
                )
            flipped = (ve != sentinel) != (vn != sentinel)
            flipped_total += int(flipped.sum())
            if np.any(flipped):
                align = compute_alignment(t, grid, extent)
                pos = (
                    exact.transform(r[None], align.delta_t[None])[0][flipped] * extent
                )
                edge = np.abs(np.abs(pos).max(axis=1) - hull)
                assert edge.max() <= coord_err + 1e-9
        bound = 0.0013 * extent
        assert worst <= bound, f"neural-vs-exact placement diff {worst} > {bound}"
        assert flipped_total <= 100  # a handful of boundary cells at most


class TestCriterion3:
    def test_sphere_mask_fraction(self):
        grid = EnvGrid(extent=1.2, resolution=0.04)  # width 60
        fraction = sphere_mask(1.2, grid).mean()
        err = abs(fraction - np.pi / 6)
        verdict(
            "3",
            err <= 0.02,
            f"width-60 kept fraction {fraction:.4f} vs pi/6 {np.pi / 6:.4f} "
            f"(|diff| = {err:.4f} <= 0.02)",
        )


class TestCriterion4:
    def test_alignment_contract(self):
        rng = np.random.default_rng(7)
        grid = EnvGrid(extent=1.0, resolution=ENV_RES)
        extent = 0.2
        t = rng.uniform(-0.99, 0.99, size=(1_000_000, 3))
        align = compute_alignment(t, grid, extent)
        recon = grid.voxel_centers(align.anchor + 5) + align.delta_t
        worst = np.abs(recon - t).max()
        half = ENV_RES / 2
        in_range = bool(
            np.all(align.delta_t >= -half - 1e-12) and np.all(align.delta_t < half)
        )
        verdict(
            "4",
            worst <= 1e-12 and in_range,
            f"reconstruction max |err| = {worst:.2e} m <= 1e-12 and residuals in "
            f"[-r_e/2, r_e/2) over 1e6 positions",
        )


class TestCriterion5:
    def test_fk_batch_serial_equivalence(self, arm6):
        rng = np.random.default_rng(15)
        q = rng.uniform(-2.0, 2.0, size=(1000, 6))
        poses = forward_kinematics_batch(arm6, ConfigBatch(q))
        worst = 0.0
        for c in range(1000):
            hom = forward_kinematics_single(arm6, q[c])
            worst = max(
                worst,
                np.abs(hom[:, :3, :3] - poses.rotations[c]).max(),
                np.abs(hom[:, :3, 3] - poses.translations[c]).max(),
            )
        verdict(
            "5",
            worst <= 1e-12,
            f"batched vs serial FK max |diff| = {worst:.2e} over 1000 random "
            f"6-DoF configurations",
        )


class TestCriterion6:
    def test_sphere_baseline_conservative(self, scene, arm3):
        rng = np.random.default_rng(31)
        spheres = SphereRobotModel.from_robot(arm3)
        slack = validate_sphere_model(arm3, spheres, rng, n_samples=4096)
        assert slack <= 1e-9

        worst_gap = -np.inf
        for trial in range(4):
            # Central region: distances stay far from the sentinel clamp.
            idx = np.unique(rng.integers(13, 37, size=(400, 3)), axis=0)[:300]
            obstacles = ObstacleVoxelSet(
                flat=np.ravel_multi_index(tuple(idx.T), scene.grid.dims),
                grid=scene.grid,
                n_points=len(idx),
                n_dropped=0,
            )
            base = sphere_baseline_distances(
                spheres, scene.all_poses, obstacles, scene.grid
            )
            pipe = query_min_distances(scene.batch, obstacles).astype(np.float64)
            worst_gap = max(worst_gap, float((base - pipe).max()))
        ok = worst_gap <= BUDGET
        # Full-grid scene: both sides saturate at the far sentinel, so the
        # baseline is compared after the same clamp.
        base_far = np.minimum(
            sphere_baseline_distances(
                spheres, scene.all_poses, scene.obstacles, scene.grid
            ),
            scene.batch.d_far_global,
        )
        pipe_far = query_min_distances(scene.batch, scene.obstacles).astype(np.float64)
        far_gap = float((base_far - pipe_far).max())
        ok = ok and far_gap <= BUDGET
        verdict(
            "6",
            ok,
            f"covering-sphere baseline <= pipeline + budget on every scene "
            f"(worst gap {max(worst_gap, far_gap):.4f} m <= {BUDGET:.4f} m)",
        )


@pytest.fixture(scope="session")
def cost_scene(arm3):
    """Cost-shape scene: 500 waypoints, 3000 occupied voxels."""
    rng = np.random.default_rng(55)
    grid = EnvGrid(extent=1.0, resolution=ENV_RES)
    extent = 0.2  # width 10: placement stays cheap at C=500
    q = rng.uniform(-3.1, 3.1, size=(500, 3))
    all_poses = forward_kinematics_batch(arm3, ConfigBatch(q))
    checker = RobotChecker.build(arm3, grid, extent, LINK_RES)
    return grid, arm3, all_poses, lambda: checker.prepare(all_poses), rng


class TestCriterion7:
    def test_cost_shape(self, cost_scene):
        grid, robot, all_poses, prepare, rng = cost_scene
        spheres = SphereRobotModel.from_robot(robot)

        t0 = time.perf_counter()
        batch = prepare()
        sdf_prep_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        forward_kinematics_batch(
            robot, ConfigBatch(np.zeros((500, 3)))
        )  # sphere checker preparation is FK only
        sphere_prep_s = time.perf_counter() - t0
        ok_a = sdf_prep_s > sphere_prep_s

        def draw_obstacles():
            idx = np.unique(rng.integers(0, 50, size=(3400, 3)), axis=0)
            flat = np.ravel_multi_index(tuple(idx[:3000].T), grid.dims)
            return ObstacleVoxelSet(flat=flat, grid=grid, n_points=3000, n_dropped=0)

        obstacles = draw_obstacles()
        d, stats = query_min_distances(batch, obstacles, return_stats=True)
        ok_b_count = stats["gathers"] == 500 * 3000

        # Warm the field's pages, then interleave placements round-robin so
        # any residual drift affects every placement equally.
        float(batch.values.sum())
        warm = draw_obstacles()
        for _ in range(5):
            query_min_distances(batch, warm)
        placements = [draw_obstacles() for _ in range(5)]
        samples = np.empty((30, 5))
        for rep in range(30):
            for pi, obs in enumerate(placements):
                t0 = time.perf_counter()
                query_min_distances(batch, obs)
                samples[rep, pi] = time.perf_counter() - t0
        medians = np.median(samples, axis=0)
        spread = float((medians.max() - medians.min()) / medians.mean())
        ok_b_time = spread < 0.10

        _, sphere_stats = sphere_baseline_distances(
            spheres, all_poses, obstacles, grid, return_stats=True
        )
        ok_c = sphere_stats["distance_evals"] == 500 * spheres.n_spheres * 3000
        # The gather path takes no pose input at all: zero per-query pose math.
        params = inspect.signature(query_min_distances).parameters
        ok_c = ok_c and not any("pose" in p or "rotation" in p for p in params)

        verdict(
            "7",
            ok_a and ok_b_count and ok_b_time and ok_c,
            f"prepare sdf {sdf_prep_s * 1e3:.1f} ms > sphere {sphere_prep_s * 1e3:.1f} ms; "
            f"gathers = C*|occ| exactly; query-time spread over placements "
            f"{spread:.1%} < 10%; sphere evals = C*S*|occ| "
            f"(reference GPU figures: 0.391 ms vs 5.47 ms per trajectory, "
            f"<1 ms for 500 waypoints; reported, not asserted)",
        )


class TestCriterion8:
    def test_property_suites(self):
        rng = np.random.default_rng(77)
        trials = 10_000

        # Superset monotonicity of queries, vectorized over trials: adding
        # occupied voxels can only lower each configuration's minimum.
        grid = EnvGrid(extent=0.5, resolution=0.1)
        values = rng.uniform(-0.3, 0.5, size=(8,) + tuple(grid.dims)).astype(np.float32)
        values.flags.writeable = False
        batch = RobotSdfBatch(values=values, grid=grid, d_far_global=0.5)
        flat = values.reshape(8, -1)
        n = grid.n_voxels
        a_idx = rng.integers(0, n, size=(trials, 12))
        extra = rng.integers(0, n, size=(trials, 12))
        da = flat[:, a_idx].min(axis=2)
        db = np.minimum(da, flat[:, extra].min(axis=2))
        monotone_ok = bool(np.all(db <= da + 1e-7))

        # Min-merge idempotence: merging a field twice changes nothing.
        idem_ok = True
        for _ in range(trials):
            w = int(rng.integers(2, 5))
            field = SdfSampleField(
                values=rng.uniform(-0.3, 0.6, size=(w, w, w)).astype(np.float32),
                anchor=rng.integers(-2, 9, size=3),
                d_far=0.5,
            )
            once = assemble_robot_sdfs([(0, field)], grid, 1, 0.5)
            twice = assemble_robot_sdfs([(0, field), (0, field)], grid, 1, 0.5)
            if not np.array_equal(once.values, twice.values):
                idem_ok = False
                break

        # Interpolation bounded by the eight surrounding cell values.
        vals = rng.normal(size=(9, 9, 9)).astype(np.float32)
        sdf = LinkSdf(extent=0.5625, resolution=0.125, values=vals, link_id=0)
        pts = rng.uniform(-0.49, 0.49, size=(trials, 3))
        out = trilinear_sample(sdf, pts)
        u = (pts + 0.5625) / 0.125 - 0.5
        i0 = np.clip(u.astype(np.int64), 0, 7)
        lo = np.full(trials, np.inf, dtype=np.float32)
        hi = np.full(trials, -np.inf, dtype=np.float32)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    corner = vals[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                    lo = np.minimum(lo, corner)
                    hi = np.maximum(hi, corner)
        bounds_ok = bool(np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6))

        verdict(
            "8",
            monotone_ok and idem_ok and bounds_ok,
            f"10^4 randomized trials each: superset monotonicity "
            f"({monotone_ok}), min-merge idempotence ({idem_ok}), "
            f"interpolation bounds ({bounds_ok})",
        )
