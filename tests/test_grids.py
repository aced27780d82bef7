"""Grid geometry, trilinear sampling, and SDF cache files."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksdf import (
    EnvGrid,
    LinkSdf,
    Sphere,
    ValidationError,
    build_link_sdf,
    read_link_sdf,
    trilinear_sample,
    write_link_sdf,
)


@pytest.fixture(scope="module")
def grid():
    return EnvGrid(extent=1.0, resolution=0.1)


class TestEnvGrid:
    def test_dims_and_count(self, grid):
        assert np.array_equal(grid.dims, [20, 20, 20])
        assert grid.n_voxels == 8000

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            EnvGrid(extent=1.0, resolution=0.3)

    def test_anisotropic(self):
        g = EnvGrid(extent=[1.0, 0.5, 0.25], resolution=[0.1, 0.05, 0.25])
        assert np.array_equal(g.dims, [20, 20, 2])

    def test_voxel_center_formula(self, grid):
        assert np.allclose(grid.voxel_centers(np.int64([0, 10, 19])), [-0.95, 0.05, 0.95])


@pytest.fixture(scope="module")
def sphere_sdf():
    # Power-of-two geometry keeps cell-center coordinates exact.
    return build_link_sdf(Sphere(0.2), extent=0.5, resolution=0.0625, link_id=3)


class TestTrilinearSample:
    def test_cell_center_identity(self, sphere_sdf):
        c = sphere_sdf.cell_centers_1d(0)
        q = np.float64([c[3], c[9], c[5]])
        assert trilinear_sample(sphere_sdf, q) == sphere_sdf.values[3, 9, 5]

    def test_midpoint_average(self, sphere_sdf):
        c = sphere_sdf.cell_centers_1d(0)
        q = np.float64([(c[3] + c[4]) / 2, c[4], c[4]])
        expected = 0.5 * (sphere_sdf.values[3, 4, 4] + sphere_sdf.values[4, 4, 4])
        assert trilinear_sample(sphere_sdf, q) == pytest.approx(expected, abs=1e-7)

    def test_far_query_returns_sentinel(self, sphere_sdf):
        assert trilinear_sample(sphere_sdf, np.float64([5.0, 0, 0])) == np.float32(
            sphere_sdf.d_far
        )
        assert sphere_sdf.d_far == 0.5

    def test_continuity(self, sphere_sdf, rng):
        # Per-axis Lipschitz bound of the interpolant from adjacent diffs.
        v = sphere_sdf.values.astype(np.float64)
        lip = [
            np.abs(np.diff(v, axis=a)).max() / sphere_sdf.resolution[a]
            for a in range(3)
        ]
        p = rng.uniform(-0.4, 0.4, size=(2000, 3))
        eps = 1e-4
        delta = rng.normal(size=(2000, 3))
        delta *= eps / np.linalg.norm(delta, axis=-1, keepdims=True)
        jump = np.abs(
            trilinear_sample(sphere_sdf, p + delta).astype(np.float64)
            - trilinear_sample(sphere_sdf, p).astype(np.float64)
        )
        bound = np.abs(delta) @ np.float64(lip)
        assert np.all(jump <= bound + 1e-6)

    def test_bounded_by_cell_extremes(self, rng):
        values = rng.normal(size=(8, 8, 8)).astype(np.float32)
        sdf = LinkSdf(extent=0.5, resolution=0.125, values=values, link_id=0)
        pts = rng.uniform(-0.4375, 0.4375, size=(10_000, 3))
        out = trilinear_sample(sdf, pts)
        u = (pts + 0.5) / 0.125 - 0.5
        i0 = np.clip(u.astype(np.int64), 0, 6)
        lo = np.full(len(pts), np.inf, dtype=np.float32)
        hi = np.full(len(pts), -np.inf, dtype=np.float32)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    corner = values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                    lo = np.minimum(lo, corner)
                    hi = np.maximum(hi, corner)
        assert np.all(out >= lo - 1e-6)
        assert np.all(out <= hi + 1e-6)


def row_form_sample(sdf: LinkSdf, points: np.ndarray) -> np.ndarray:
    """The sampler written on (N, 3) rows, kept as the bit-exact reference."""
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    pts2 = pts.reshape(-1, 3)
    u = (pts2 + sdf.extent) / sdf.resolution - 0.5
    hi = (sdf.dims - 1).astype(np.float64)
    inside = np.all((u >= 0.0) & (u <= hi), axis=-1)
    uc = np.clip(u, 0.0, hi)
    i0 = np.minimum(uc.astype(np.int64), sdf.dims - 2)
    f = (uc - i0).astype(np.float32)
    nx, ny = int(sdf.dims[0]), int(sdf.dims[1])
    flat = sdf.values.ravel(order="F")
    base = i0[:, 0] + nx * (i0[:, 1] + ny * i0[:, 2])
    sx, sy, sz = 1, nx, nx * ny
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    c00 = flat[base] * gx + flat[base + sx] * fx
    c10 = flat[base + sy] * gx + flat[base + sx + sy] * fx
    c01 = flat[base + sz] * gx + flat[base + sx + sz] * fx
    c11 = flat[base + sy + sz] * gx + flat[base + sx + sy + sz] * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    out = c0 * gz + c1 * fz
    out = np.where(inside, out, np.float32(sdf.d_far)).astype(np.float32)
    return out[0] if scalar else out.reshape(pts.shape[:-1])


# Anisotropic, not a power of two, random values: a swapped axis, a wrong
# stride or a wrong corner shows in the sampled value.
KERNEL_SDF = LinkSdf(
    extent=[0.3, 0.25, 0.2],
    resolution=[0.05, 0.05, 0.04],
    values=np.random.default_rng(5).normal(size=(12, 10, 10)).astype(np.float32),
    link_id=0,
)


def _centres(a: int) -> np.ndarray:
    return KERNEL_SDF.cell_centers_1d(a)


def _faces(a: int) -> np.ndarray:
    e, r, n = KERNEL_SDF.extent[a], KERNEL_SDF.resolution[a], KERNEL_SDF.dims[a]
    return -e + np.arange(n + 1) * r


def _axis_coordinate(a: int):
    e, r = KERNEL_SDF.extent[a], KERNEL_SDF.resolution[a]
    hull = [-e + r / 2, e - r / 2]
    special = [*_centres(a), *_faces(a), *hull, *np.nextafter(hull, [-np.inf, np.inf])]
    return st.one_of(
        st.floats(-e - 0.1, e + 0.1),
        st.sampled_from([float(x) for x in special] + [np.inf, -np.inf]),
    )


_point = st.tuples(*(_axis_coordinate(a) for a in range(3)))


def _laid_out(pts: np.ndarray, layout: str) -> np.ndarray:
    """The same (N, 3) values in another memory layout."""
    if layout == "fortran":
        return np.asfortranarray(pts)
    if layout == "transposed":
        return np.ascontiguousarray(pts.T).T
    if layout == "strided":
        big = np.zeros((2 * len(pts), 5))
        big[::2, 1:4] = pts
        return big[::2, 1:4]
    return pts.copy()


def _outside_hull(pts: np.ndarray) -> np.ndarray:
    """Points clear of the stored cell centres' hull by more than rounding."""
    half = KERNEL_SDF.extent - KERNEL_SDF.resolution / 2
    return np.any(np.abs(pts) > half + 1e-9, axis=-1)


class TestTrilinearKernel:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        rows=st.lists(_point, max_size=30),
        layout=st.sampled_from(["c", "fortran", "transposed", "strided"]),
    )
    def test_rows_match_row_form(self, rows, layout):
        pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
        arg = _laid_out(pts, layout)
        before = arg.copy()
        got = trilinear_sample(KERNEL_SDF, arg)
        assert got.dtype == np.float32 and got.shape == (len(pts),)
        assert np.array_equal(got, row_form_sample(KERNEL_SDF, pts))
        assert np.all(got[_outside_hull(pts)] == np.float32(KERNEL_SDF.d_far))
        assert np.array_equal(arg, before)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_column_batch_matches_row_form(self, data):
        # (B, V, 3) viewed from a (B, 3, V) array, as the window transform
        # returns it.
        b = data.draw(st.integers(1, 4))
        v = data.draw(st.integers(0, 12))
        rows = data.draw(st.lists(_point, min_size=b * v, max_size=b * v))
        pts = np.array(rows, dtype=np.float64).reshape(b, v, 3)
        columns = np.ascontiguousarray(pts.transpose(0, 2, 1))
        before = columns.copy()
        got = trilinear_sample(KERNEL_SDF, columns.transpose(0, 2, 1))
        assert got.shape == (b, v)
        expected = row_form_sample(KERNEL_SDF, pts.reshape(-1, 3)).reshape(b, v)
        assert np.array_equal(got, expected)
        assert np.array_equal(columns, before)

    @settings(max_examples=200, deadline=None, database=None)
    @given(point=_point)
    def test_single_point_matches_row_form(self, point):
        p = np.array(point, dtype=np.float64)
        got = trilinear_sample(KERNEL_SDF, p)
        assert isinstance(got, np.float32)
        assert got == row_form_sample(KERNEL_SDF, p)

    @pytest.mark.parametrize("which", ["centres", "faces"])
    def test_every_centre_and_face(self, which):
        axes = [_centres(a) if which == "centres" else _faces(a) for a in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        got = trilinear_sample(KERNEL_SDF, pts)
        assert got.shape == pts.shape[:-1]
        assert np.array_equal(got.ravel(), row_form_sample(KERNEL_SDF, pts.reshape(-1, 3)))
        if which == "faces":
            # The outer faces lie half a cell beyond the hull.
            assert np.all(got[[0, -1]] == np.float32(KERNEL_SDF.d_far))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    def test_empty(self, shape):
        got = trilinear_sample(KERNEL_SDF, np.zeros(shape))
        assert got.shape == shape[:-1] and got.dtype == np.float32

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_gives_sentinel(self, bad, axis):
        pts = np.zeros((3, 3))
        pts[1, axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trilinear_sample(KERNEL_SDF, pts)
            single = trilinear_sample(KERNEL_SDF, pts[1])
        assert got[1] == np.float32(KERNEL_SDF.d_far) and single == got[1]
        assert np.array_equal(got[[0, 2]], row_form_sample(KERNEL_SDF, pts[[0, 2]]))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            trilinear_sample(KERNEL_SDF, np.zeros((4, 2)))


class TestLinkSdfContainer:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LinkSdf(extent=0.5, resolution=0.25, values=np.zeros((3, 4, 4)), link_id=0)

    def test_values_immutable(self, sphere_sdf):
        with pytest.raises(ValueError):
            sphere_sdf.values[0, 0, 0] = 1.0


class TestCacheFile:
    def test_round_trip(self, tmp_path, sphere_sdf):
        path = tmp_path / "link.lsdf"
        write_link_sdf(path, sphere_sdf)
        back = read_link_sdf(path)
        assert np.array_equal(back.values, sphere_sdf.values)
        assert back.link_id == sphere_sdf.link_id
        assert np.array_equal(back.dims, sphere_sdf.dims)
        assert np.array_equal(
            np.float32(back.extent), np.float32(sphere_sdf.extent)
        )
        assert np.array_equal(
            np.float32(back.resolution), np.float32(sphere_sdf.resolution)
        )
        # A second round trip is byte-identical.
        path2 = tmp_path / "link2.lsdf"
        write_link_sdf(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_layout_x_fastest_little_endian(self, tmp_path):
        values = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        sdf = LinkSdf(extent=[0.5, 0.75, 1.0], resolution=0.5, values=values, link_id=7)
        path = tmp_path / "layout.lsdf"
        write_link_sdf(path, sdf)
        raw = path.read_bytes()
        assert raw[:4] == b"LSDF"
        body = np.frombuffer(raw[48:], dtype="<f4")
        # flat[ix + nx*(iy + ny*iz)] == values[ix, iy, iz]
        assert body[1] == values[1, 0, 0]
        assert body[2] == values[0, 1, 0]
        assert body[2 * 3] == values[0, 0, 1]

    def test_corrupt_rejected(self, tmp_path, sphere_sdf):
        path = tmp_path / "bad.lsdf"
        write_link_sdf(path, sphere_sdf)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError):
            read_link_sdf(path)
        path.write_bytes(bytes(data[:40]))
        with pytest.raises(ValidationError):
            read_link_sdf(path)
