"""Min-merge assembly, voxelization, queries, baseline, and streaming."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksdf import (
    EnvGrid,
    ExactTransformProvider,
    GridMismatchError,
    ObstacleVoxelSet,
    RobotSdfBatch,
    SdfSampleField,
    Sphere,
    SphereRobotModel,
    ValidationError,
    WindowGeometry,
    assemble_robot_sdfs,
    build_link_sdf,
    per_link_min_distances,
    place_links_batch,
    query_min_distances,
    sphere_baseline_distances,
    stream_min_distances,
    validate_sphere_model,
    voxelize_pointcloud,
)
from linksdf.query import (
    iter_cloud_frames,
    read_cloud_manifest,
    read_pointcloud_frame,
    write_distance_csv,
    write_pointcloud_frame,
)
from linksdf.robot import LinkPoseBatch


@pytest.fixture(scope="module")
def grid():
    return EnvGrid(extent=1.0, resolution=0.1)


def field_at(values, anchor, d_far=0.5):
    return SdfSampleField(
        values=np.asarray(values, dtype=np.float32),
        anchor=np.int64(anchor),
        d_far=d_far,
    )


class TestAssemble:
    def test_single_field_scatter(self, grid, rng):
        w = 4
        values = rng.uniform(-0.2, 0.4, size=(w, w, w)).astype(np.float32)
        field = field_at(values, [3, 5, 7])
        batch = assemble_robot_sdfs([(0, field)], grid, 1, d_far_global=0.5)
        region = batch.values[0, 3:7, 5:9, 7:11]
        assert np.array_equal(region, np.minimum(values, np.float32(0.5)))
        outside = batch.values[0].copy()
        outside[3:7, 5:9, 7:11] = 0.5
        assert np.all(outside == np.float32(0.5))

    def test_clipping_at_grid_edges(self, grid, rng):
        w = 4
        values = rng.uniform(-0.2, 0.4, size=(w, w, w)).astype(np.float32)
        field = field_at(values, [-2, 18, 0])
        batch = assemble_robot_sdfs([(0, field)], grid, 1, d_far_global=0.5)
        assert np.array_equal(
            batch.values[0, 0:2, 18:20, 0:4],
            np.minimum(values[2:, :2, :], np.float32(0.5)),
        )

    def test_idempotent_merge(self, grid, rng):
        values = rng.uniform(-0.2, 0.4, size=(4, 4, 4)).astype(np.float32)
        field = field_at(values, [8, 8, 8])
        once = assemble_robot_sdfs([(0, field)], grid, 1, 0.5)
        twice = assemble_robot_sdfs([(0, field), (0, field)], grid, 1, 0.5)
        assert np.array_equal(once.values, twice.values)

    def test_order_invariant(self, grid, rng):
        fields = [
            (0, field_at(rng.uniform(-0.2, 0.4, size=(4, 4, 4)), rng.integers(0, 16, 3)))
            for _ in range(6)
        ]
        a = assemble_robot_sdfs(fields, grid, 1, 0.5)
        b = assemble_robot_sdfs(fields[::-1], grid, 1, 0.5)
        assert np.array_equal(a.values, b.values)

    def test_merge_monotone(self, grid, rng):
        f1 = (0, field_at(rng.uniform(-0.2, 0.4, size=(4, 4, 4)), [5, 5, 5]))
        f2 = (0, field_at(rng.uniform(-0.2, 0.4, size=(4, 4, 4)), [6, 6, 6]))
        one = assemble_robot_sdfs([f1], grid, 1, 0.5)
        both = assemble_robot_sdfs([f1, f2], grid, 1, 0.5)
        assert np.all(both.values <= one.values)

    def test_memory_budget_enforced(self, grid):
        with pytest.raises(ValidationError):
            assemble_robot_sdfs([], grid, 10_000_000, 0.5, max_bytes=1 << 20)

    @pytest.mark.parametrize("n_configs", [-1, 0])
    def test_needs_a_configuration(self, grid, n_configs):
        with pytest.raises(ValidationError, match="at least one configuration"):
            assemble_robot_sdfs([], grid, n_configs, 0.5)

    def test_bad_config_index(self, grid, rng):
        field = field_at(rng.uniform(size=(4, 4, 4)), [0, 0, 0])
        with pytest.raises(ValidationError):
            assemble_robot_sdfs([(5, field)], grid, 2, 0.5)


class TestVoxelize:
    def test_empty_cloud(self, grid):
        out = voxelize_pointcloud(np.empty((0, 3)), grid)
        assert out.n_occupied == 0 and out.n_points == 0 and out.n_dropped == 0

    def test_duplicates_collapse(self, grid):
        pts = np.tile(np.float64([0.31, 0.02, -0.44]), (1000, 1))
        out = voxelize_pointcloud(pts, grid)
        assert out.n_occupied == 1
        assert out.n_points == 1000

    def test_out_of_bounds_dropped_with_count(self, grid):
        pts = np.float64([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, -3.0, 0.0]])
        out = voxelize_pointcloud(pts, grid)
        assert out.n_occupied == 1
        assert out.n_dropped == 2

    def test_occupancy_statistics(self, grid):
        rng = np.random.default_rng(7)
        n = 5000
        pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * 0.999999
        out = voxelize_pointcloud(pts, grid)
        expected = 1.0 - (1.0 - 1.0 / grid.n_voxels) ** n
        assert abs(out.n_occupied / grid.n_voxels - expected) <= 0.02

    def test_occupancy_statistics_dense(self, grid):
        rng = np.random.default_rng(8)
        n = 100_000
        pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * 0.999999
        out = voxelize_pointcloud(pts, grid)
        expected = 1.0 - (1.0 - 1.0 / grid.n_voxels) ** n
        assert abs(out.n_occupied / grid.n_voxels - expected) <= 0.02

    def test_nonfinite_counted_apart_from_out_of_grid(self, grid):
        pts = np.float64(
            [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
             [0.0, 0.0, -np.inf], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )
        out = voxelize_pointcloud(pts, grid)
        assert (out.n_points, out.n_dropped, out.n_nonfinite) == (6, 5, 3)
        assert out.n_occupied == 1

    @pytest.mark.parametrize("axis", range(3))
    def test_dropped_rows_raise_no_warning(self, grid, axis):
        # Every row is floored before the in-grid mask drops it; NaN, +-inf
        # and a quotient past the float range must not warn on the way.
        pts = np.zeros((8, 3))
        pts[1:, axis] = [np.nan, np.inf, -np.inf, 2.0, 1.0, -1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = voxelize_pointcloud(pts, grid)
        assert (out.n_points, out.n_dropped, out.n_nonfinite) == (8, 7, 3)
        assert out.n_occupied == 1

    @pytest.mark.parametrize("shape", [(6, 2), (4, 2), (3, 4), (9,), (2, 3, 3)])
    def test_cloud_must_be_n_by_3(self, grid, shape):
        with pytest.raises(ValidationError, match="shape"):
            voxelize_pointcloud(np.zeros(shape), grid)


# Anisotropic, so a swapped axis in the flat index would show.
VOX_GRID = EnvGrid(extent=[0.5, 0.3, 0.2], resolution=[0.1, 0.1, 0.05])
_FACES = [
    float(-e + k * r)
    for e, r, n in zip(VOX_GRID.extent, VOX_GRID.resolution, VOX_GRID.dims)
    for k in range(n + 1)
]
_coordinate = st.one_of(
    st.floats(-0.6, 0.6, allow_nan=False),
    st.sampled_from(_FACES),
    st.sampled_from([0.5, -0.5, 0.3, -0.3, 0.2, -0.2, np.nan, np.inf, -np.inf]),
)


def snap_rows(pts, grid):
    """Row-form reference snap: keep rows in [-extent, extent), floor each axis."""
    with np.errstate(invalid="ignore"):
        inside = np.all((pts >= -grid.extent) & (pts < grid.extent), axis=1)
    idx = np.floor((pts[inside] + grid.extent) / grid.resolution).astype(np.int64)
    return np.clip(idx, 0, grid.dims - 1), inside


def voxel_ids(pts):
    return voxelize_pointcloud(np.float64(pts).reshape(-1, 3), VOX_GRID).flat.tolist()


def flat_id(index):
    return int(np.ravel_multi_index(tuple(index), VOX_GRID.dims))


class TestSnapRule:
    def test_voxel_center(self):
        j = [3, 4, 5]
        assert voxel_ids(VOX_GRID.voxel_centers(np.int64(j))) == [flat_id(j)]

    def test_face_goes_to_upper_voxel(self):
        # 0.0 is the face between voxels 4 and 5 on x, 3 and 4 on z. On y,
        # (0.0 + 0.3) / 0.1 rounds below 3 in binary, so y is kept centred.
        y = VOX_GRID.voxel_centers(np.int64([0, 3, 0]))[1]
        assert voxel_ids([0.0, y, 0.0]) == [flat_id([5, 3, 4])]

    @pytest.mark.parametrize("axis", range(3))
    def test_lower_face_kept_upper_face_dropped(self, axis):
        j = VOX_GRID.dims // 2
        lower, upper = VOX_GRID.voxel_centers(j), VOX_GRID.voxel_centers(j)
        lower[axis], upper[axis] = -VOX_GRID.extent[axis], VOX_GRID.extent[axis]
        j[axis] = 0
        assert voxel_ids(lower) == [flat_id(j)]
        out = voxelize_pointcloud(upper[None], VOX_GRID)
        assert (out.n_occupied, out.n_dropped, out.n_nonfinite) == (0, 1, 0)

    def test_center_round_trip_all_voxels(self):
        j = np.stack(
            np.meshgrid(*[np.arange(d) for d in VOX_GRID.dims], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        out = voxelize_pointcloud(VOX_GRID.voxel_centers(j), VOX_GRID)
        assert np.array_equal(out.flat, np.arange(VOX_GRID.n_voxels))
        assert np.array_equal(out.indices, j)
        assert out.n_dropped == 0


@settings(max_examples=300, deadline=None, database=None)
@given(rows=st.lists(st.tuples(_coordinate, _coordinate, _coordinate), max_size=40))
def test_voxelize_matches_unique_rows(rows):
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
    out = voxelize_pointcloud(pts, VOX_GRID)
    finite = np.isfinite(pts).all(axis=1)
    snapped, inside = snap_rows(pts, VOX_GRID)
    expected = np.unique(snapped, axis=0).reshape(-1, 3)
    assert out.flat.dtype == np.int64 and out.flat.ndim == 1
    assert np.all(np.diff(out.flat) > 0)
    assert np.array_equal(out.flat, np.ravel_multi_index(tuple(expected.T), VOX_GRID.dims))
    assert out.indices.dtype == expected.dtype
    assert np.array_equal(out.indices, expected)
    assert out.n_points == len(pts)
    assert out.n_dropped == len(pts) - inside.sum()
    assert out.n_nonfinite == len(pts) - finite.sum()


def random_batch(grid, rng, n_configs=6, d_far=0.5):
    values = rng.uniform(-0.3, d_far, size=(n_configs,) + tuple(grid.dims)).astype(
        np.float32
    )
    values.flags.writeable = False
    return RobotSdfBatch(values=values, grid=grid, d_far_global=d_far)


def obstacle_set(grid, indices):
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    flat = np.unique(np.ravel_multi_index(tuple(idx.T), grid.dims))
    return ObstacleVoxelSet(flat=flat, grid=grid, n_points=len(flat), n_dropped=0)


class TestQuery:
    def test_empty_obstacles_far_sentinel(self, grid, rng):
        batch = random_batch(grid, rng)
        d = query_min_distances(batch, obstacle_set(grid, np.empty((0, 3))))
        assert np.all(d == np.float32(0.5))

    def test_matches_manual_min(self, grid, rng):
        batch = random_batch(grid, rng)
        idx = rng.integers(0, 20, size=(40, 3))
        obstacles = obstacle_set(grid, idx)
        d = query_min_distances(batch, obstacles)
        manual = batch.values[
            :, obstacles.indices[:, 0], obstacles.indices[:, 1], obstacles.indices[:, 2]
        ].min(axis=1)
        assert np.array_equal(d, manual)

    def test_gather_count(self, grid, rng):
        batch = random_batch(grid, rng, n_configs=9)
        obstacles = obstacle_set(grid, rng.integers(0, 20, size=(33, 3)))
        _, stats = query_min_distances(batch, obstacles, return_stats=True)
        assert stats["gathers"] == 9 * obstacles.n_occupied

    def test_grid_mismatch(self, grid, rng):
        batch = random_batch(grid, rng)
        other = EnvGrid(extent=1.0, resolution=0.05)
        with pytest.raises(GridMismatchError):
            query_min_distances(batch, obstacle_set(other, [[0, 0, 0]]))

    def test_superset_monotone(self, grid, rng):
        batch = random_batch(grid, rng)
        a = rng.integers(0, 20, size=(25, 3))
        b = np.concatenate([a, rng.integers(0, 20, size=(25, 3))])
        da = query_min_distances(batch, obstacle_set(grid, a))
        db = query_min_distances(batch, obstacle_set(grid, b))
        assert np.all(db <= da)

    def test_permutation_invariant(self, grid, rng):
        batch = random_batch(grid, rng)
        idx = rng.integers(0, 20, size=(30, 3))
        d1 = query_min_distances(batch, obstacle_set(grid, idx))
        d2 = query_min_distances(batch, obstacle_set(grid, idx[::-1]))
        assert np.array_equal(d1, d2)

    @pytest.mark.parametrize("n_occupied", [0, 1, 255, 256, 257, 513])
    def test_gather_chunk_boundaries(self, grid, rng, n_occupied):
        flat = np.sort(rng.choice(grid.n_voxels, size=n_occupied, replace=False))
        ix, iy, iz = np.unravel_index(flat, grid.dims)
        values = rng.uniform(-0.3, 0.5, size=(7,) + tuple(grid.dims)).astype(np.float32)
        # Put configuration k's minimum on the k-th voxel either side of a
        # chunk edge, so a gather that skips a row there changes the result.
        edges = [0, 255, 256, 511, 512, n_occupied - 1]
        for k, at in enumerate(p for p in edges if 0 <= p < n_occupied):
            values[k, ix[at], iy[at], iz[at]] = -1.0
        batch = RobotSdfBatch(values=values, grid=grid, d_far_global=0.5)
        obstacles = ObstacleVoxelSet(
            flat=flat, grid=grid, n_points=n_occupied, n_dropped=0
        )
        d, stats = query_min_distances(batch, obstacles, return_stats=True)
        if n_occupied:
            brute = batch.values[:, ix, iy, iz].min(axis=1)
        else:
            brute = np.full(7, np.float32(0.5))
        assert d.dtype == np.float32
        assert np.array_equal(d, brute)
        assert stats["gathers"] == 7 * n_occupied

    # Flat ids -1, -V, V, V + 1 and the largest int64, as (times V, plus).
    @pytest.mark.parametrize(
        "index", [(0, -1), (-1, 0), (1, 0), (1, 1), (0, np.iinfo(np.int64).max)]
    )
    def test_out_of_grid_index_rejected(self, grid, index):
        # Rejected where the set is built, so no query can gather it.
        bad = index[0] * grid.n_voxels + index[1]
        with pytest.raises(ValidationError, match="outside the grid"):
            ObstacleVoxelSet(flat=np.int64([123, bad]), grid=grid, n_points=2, n_dropped=0)

    @pytest.mark.parametrize(
        "ids", [np.int64([[1, 2, 3]]), np.float64([1.0, 2.0]), np.bool_([True, False])]
    )
    def test_ids_must_be_1d_integers(self, grid, ids):
        with pytest.raises(ValidationError, match="1-D integers"):
            ObstacleVoxelSet(flat=ids, grid=grid, n_points=1, n_dropped=0)

    def test_flat_is_read_only_and_indices_round_trip(self, grid):
        ids = np.int64([0, 7, 399, grid.n_voxels - 1])
        obstacles = ObstacleVoxelSet(flat=ids, grid=grid, n_points=4, n_dropped=0)
        with pytest.raises(ValueError):
            obstacles.flat[0] = 1
        ids[0] = -1  # the set holds its own copy of the checked ids
        assert obstacles.flat[0] == 0
        assert obstacles.indices.shape == (4, 3)
        assert np.array_equal(obstacles.indices[-1], grid.dims - 1)
        assert np.array_equal(
            np.ravel_multi_index(tuple(obstacles.indices.T), grid.dims), obstacles.flat
        )
        empty = ObstacleVoxelSet(flat=[], grid=grid, n_points=0, n_dropped=0)
        assert empty.indices.shape == (0, 3) and empty.flat.dtype == np.int64


class TestBatchLayout:
    def test_values_is_read_only_view_of_rows(self, grid, rng):
        field = field_at(rng.uniform(-0.2, 0.4, size=(4, 4, 4)), [3, 5, 7])
        batch = assemble_robot_sdfs([(1, field)], grid, 3, 0.5)
        assert batch.rows.shape == (grid.n_voxels, 3)
        assert batch.rows.flags.c_contiguous
        assert np.shares_memory(batch.values, batch.rows)
        assert batch.values.shape == (3,) + tuple(grid.dims)
        for arr in (batch.values, batch.rows):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        flat = np.ravel_multi_index((4, 6, 8), grid.dims)
        assert np.array_equal(batch.rows[flat], batch.values[:, 4, 6, 8])

    def test_config_major_input_converted_once(self, grid, rng):
        values = rng.uniform(-0.3, 0.5, size=(5,) + tuple(grid.dims)).astype(np.float32)
        batch = RobotSdfBatch(values=values, grid=grid, d_far_global=0.5)
        assert np.array_equal(batch.values, values)
        assert not np.shares_memory(batch.values, values)
        assert np.shares_memory(batch.values, batch.rows)
        again = RobotSdfBatch(values=batch.values, grid=grid, d_far_global=0.5)
        assert np.shares_memory(again.rows, batch.rows)

    def test_wrong_shape_rejected(self, grid):
        with pytest.raises(ValidationError, match="shape"):
            RobotSdfBatch(values=np.zeros((2, 20, 20)), grid=grid, d_far_global=0.5)
        with pytest.raises(ValidationError, match="shape"):
            RobotSdfBatch(values=np.zeros((2, 20, 20, 19)), grid=grid, d_far_global=0.5)

    def test_shuffled_fields_bit_identical(self, grid):
        links = [
            build_link_sdf(Sphere(r), extent=0.3, resolution=0.02, link_id=i)
            for i, r in enumerate((0.12, 0.08))
        ]
        provider = ExactTransformProvider(WindowGeometry.build(0.3, grid))
        rng = np.random.default_rng(11)
        n = 5
        rot = np.broadcast_to(np.eye(3), (n, 2, 3, 3)).copy()
        poses = LinkPoseBatch(rotations=rot, translations=rng.uniform(-0.9, 0.9, (n, 2, 3)))
        fields = [(c, f) for c, _, f in place_links_batch(links, poses, grid, provider)]
        d_far = min(link.d_far for link in links)
        ordered = assemble_robot_sdfs(fields, grid, n, d_far)
        shuffled = [fields[i] for i in rng.permutation(len(fields))]
        mixed = assemble_robot_sdfs(shuffled, grid, n, d_far)
        assert ordered.rows.tobytes() == mixed.rows.tobytes()
        assert np.any(ordered.values < np.float32(d_far))


@pytest.fixture(scope="module")
def small_scene(grid):
    """One-link robot pipeline pieces shared by query-level tests."""
    link = build_link_sdf(Sphere(0.12), extent=0.3, resolution=0.01, link_id=0)
    window = WindowGeometry.build(0.3, grid)
    provider = ExactTransformProvider(window)
    rng = np.random.default_rng(42)
    rot = np.broadcast_to(np.eye(3), (4, 1, 3, 3)).copy()
    trn = rng.uniform(-0.2, 0.2, size=(4, 1, 3))
    poses = LinkPoseBatch(rotations=rot, translations=trn)
    fields = list(place_links_batch([link], poses, grid, provider))
    batch = assemble_robot_sdfs(
        ((c, f) for c, _, f in fields), grid, 4, link.d_far
    )
    return link, poses, fields, batch


class TestPipelineQueries:
    def test_voxel_inside_link_goes_negative(self, grid, small_scene):
        link, poses, fields, batch = small_scene
        for c in range(4):
            inside = voxelize_pointcloud(poses.translations[c], grid)
            d = query_min_distances(batch, inside)
            assert d[c] < 0

    def test_per_link_diagnostic_matches_single_link_query(self, grid, small_scene):
        link, poses, fields, batch = small_scene
        rng = np.random.default_rng(3)
        obstacles = obstacle_set(grid, rng.integers(0, 20, size=(50, 3)))
        per_link = per_link_min_distances(iter(fields), obstacles, 4, 1, link.d_far)
        full = query_min_distances(batch, obstacles)
        assert np.allclose(per_link[:, 0], full, atol=1e-6)


class TestSphereBaseline:
    def test_single_sphere_single_voxel(self):
        grid = EnvGrid(extent=1.0, resolution=0.2)
        spheres = SphereRobotModel(
            link_indices=np.int64([0]),
            centers=np.float64([[0, 0, 0]]),
            radii=np.float64([0.1]),
        )
        poses = LinkPoseBatch(
            rotations=np.eye(3)[None, None], translations=np.zeros((1, 1, 3))
        )
        # Voxel 6 on x has center 0.3; others centered at -0.1.
        obstacles = obstacle_set(grid, [[6, 4, 4]])
        d = sphere_baseline_distances(spheres, poses, obstacles, grid)
        expected = np.linalg.norm([0.3, -0.1, -0.1]) - 0.1
        assert d[0] == pytest.approx(expected)

    def test_voxel_inside_sphere_negative(self):
        grid = EnvGrid(extent=1.0, resolution=0.2)
        spheres = SphereRobotModel(
            link_indices=np.int64([0]),
            centers=np.float64([[0, 0, 0]]),
            radii=np.float64([0.3]),
        )
        poses = LinkPoseBatch(
            rotations=np.eye(3)[None, None],
            translations=np.float64([[[-0.1, -0.1, -0.1]]]),
        )
        obstacles = obstacle_set(grid, [[4, 4, 4]])
        assert sphere_baseline_distances(spheres, poses, obstacles, grid)[0] < 0

    def test_eval_count(self, rng):
        grid = EnvGrid(extent=1.0, resolution=0.2)
        spheres = SphereRobotModel(
            link_indices=np.int64([0, 0, 0]),
            centers=rng.normal(size=(3, 3)) * 0.02,
            radii=np.float64([0.1, 0.1, 0.1]),
        )
        poses = LinkPoseBatch(
            rotations=np.broadcast_to(np.eye(3), (5, 1, 3, 3)),
            translations=np.zeros((5, 1, 3)),
        )
        obstacles = obstacle_set(grid, rng.integers(0, 10, size=(20, 3)))
        _, stats = sphere_baseline_distances(
            spheres, poses, obstacles, grid, return_stats=True
        )
        assert stats["distance_evals"] == 5 * 3 * obstacles.n_occupied

    def test_validation_accepts_covering_model(self, arm3, rng):
        spheres = SphereRobotModel.from_robot(arm3)
        worst = validate_sphere_model(arm3, spheres, rng)
        assert worst <= 1e-9

    def test_validation_rejects_shrunk_model(self, arm3, rng):
        spheres = SphereRobotModel.from_robot(arm3)
        shrunk = SphereRobotModel(
            link_indices=spheres.link_indices,
            centers=spheres.centers,
            radii=spheres.radii * 0.7,
        )
        with pytest.raises(ValidationError):
            validate_sphere_model(arm3, shrunk, rng)


class TestStreaming:
    def test_static_cloud_deterministic(self, grid, small_scene, rng):
        *_, batch = small_scene
        cloud = rng.uniform(-0.9, 0.9, size=(200, 3))
        frames = [(float(i), cloud) for i in range(4)]
        rows = list(stream_min_distances(batch, frames))
        assert len(rows) == 4
        for _, obstacles, d in rows:
            assert obstacles.n_points == 200
            assert np.array_equal(obstacles.flat, rows[0][1].flat)
            assert np.array_equal(d, rows[0][2])
        assert [stamp for stamp, _, _ in rows] == [0.0, 1.0, 2.0, 3.0]

    def test_empty_frame_far_sentinel(self, grid, small_scene):
        *_, batch = small_scene
        rows = list(stream_min_distances(batch, [(0.0, np.empty((0, 3)))]))
        assert rows[0][1].n_occupied == 0
        assert np.all(rows[0][2] == np.float32(batch.d_far_global))

    def test_monotone_approach(self, grid):
        link = build_link_sdf(Sphere(0.12), extent=0.3, resolution=0.01, link_id=0)
        window = WindowGeometry.build(0.3, grid)
        poses = LinkPoseBatch(
            rotations=np.eye(3)[None, None], translations=np.zeros((1, 1, 3))
        )
        fields = place_links_batch([link], poses, grid, ExactTransformProvider(window))
        batch = assemble_robot_sdfs(
            ((c, f) for c, _, f in fields), grid, 1, link.d_far
        )
        xs = np.arange(0.85, 0.04, -0.1)
        frames = [(float(i), np.float64([[x, 0.05, 0.05]])) for i, x in enumerate(xs)]
        dists = [float(d[0]) for _, _, d in stream_min_distances(batch, frames)]
        assert all(b <= a + 1e-7 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]


class TestFrameFiles:
    def test_frame_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(17, 3)).astype(np.float32)
        path = tmp_path / "frame.bin"
        write_pointcloud_frame(path, pts)
        back = read_pointcloud_frame(path)
        assert np.array_equal(back.astype(np.float32), pts)

    def test_manifest(self, tmp_path, rng):
        for i in range(3):
            write_pointcloud_frame(tmp_path / f"f{i}.bin", rng.normal(size=(5, 3)))
        manifest = tmp_path / "clouds.txt"
        manifest.write_text(
            "# comment\n0 f0.bin\n33.3 f1.bin\n66.6 f2.bin\n"
        )
        entries = read_cloud_manifest(manifest)
        assert [t for t, _ in entries] == [0.0, 33.3, 66.6]
        frames = list(iter_cloud_frames(manifest))
        assert len(frames) == 3
        assert frames[1][1].shape == (5, 3)

    def test_distance_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        write_distance_csv(
            path, [(0.0, np.float32([0.5, 0.25])), (10.0, np.float32([0.4, 0.2]))], 2
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp_ms,d_0,d_1"
        assert lines[1].startswith("0.000,0.5")
