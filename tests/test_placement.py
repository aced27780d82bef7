"""Alignment decomposition, canonical window points, masking, resampling."""

import numpy as np
import pytest

import linksdf.grids
import linksdf.placement
from linksdf import (
    EnvGrid,
    ExactTransformProvider,
    NeuralTransformProvider,
    NoOverlapError,
    Sphere,
    TinyMlp,
    ValidationError,
    WindowGeometry,
    build_link_sdf,
    canonical_points,
    compute_alignment,
    grid_transform_exact,
    place_link,
    place_links_batch,
    primitive_sdf,
    sphere_mask,
    window_dims,
)
from linksdf.approx import infer_grid_transform, sample_rotations
from linksdf.robot import LinkPoseBatch


@pytest.fixture(scope="module")
def grid():
    return EnvGrid(extent=1.0, resolution=0.1)


@pytest.fixture(scope="module")
def window(grid):
    return WindowGeometry.build(0.3, grid)


@pytest.fixture(scope="module")
def sphere_link():
    return build_link_sdf(Sphere(0.2), extent=0.3, resolution=0.01, link_id=0)


class TestWindowDims:
    def test_even_width(self, grid):
        assert np.array_equal(window_dims(0.3, grid), [6, 6, 6])

    def test_odd_width_rejected(self, grid):
        with pytest.raises(ValidationError):
            window_dims(0.25, grid)  # 2*0.25/0.1 = 5

    def test_non_divisible_rejected(self, grid):
        with pytest.raises(ValidationError):
            window_dims(0.33, grid)


class TestComputeAlignment:
    def test_on_voxel_center(self, grid):
        a = compute_alignment(np.float64([0.05, 0.05, 0.05]), grid, 0.3)
        assert np.array_equal(a.anchor, [7, 7, 7])
        assert np.allclose(a.delta_t, 0, atol=1e-15)

    def test_two_cm_residual(self, grid):
        a = compute_alignment(np.float64([0.07, 0.05, 0.05]), grid, 0.3)
        assert np.array_equal(a.anchor, [7, 7, 7])
        assert np.allclose(a.delta_t, [0.02, 0, 0], atol=1e-15)

    def test_face_point_lower_index_rule(self, grid):
        # 0.10 sits on a face; floor semantics put it in voxel 11 with a
        # residual of -r/2, shifting the anchor by one.
        a = compute_alignment(np.float64([0.10, 0.05, 0.05]), grid, 0.3)
        assert np.array_equal(a.anchor, [8, 7, 7])
        assert np.allclose(a.delta_t, [-0.05, 0, 0], atol=1e-15)

    def test_reconstruction_identity_random(self, grid, rng):
        t = rng.uniform(-0.99, 0.99, size=(100_000, 3))
        a = compute_alignment(t, grid, 0.3)
        recon = grid.voxel_centers(a.anchor + 3) + a.delta_t
        assert np.abs(recon - t).max() <= 1e-12
        assert np.all(a.delta_t >= -0.05 - 1e-12)
        assert np.all(a.delta_t < 0.05)

    def test_outside_grid_but_overlapping(self, grid):
        a = compute_alignment(np.float64([1.05, 0.0, 0.0]), grid, 0.3)
        assert np.array_equal(a.anchor, [17, 7, 7])

    def test_no_overlap(self, grid):
        with pytest.raises(NoOverlapError):
            compute_alignment(np.float64([1.7, 0.0, 0.0]), grid, 0.3)


class TestCanonicalPoints:
    def test_spacing_and_count(self, grid):
        p = canonical_points(0.3, grid)
        assert p.shape == (216, 3)
        assert p[1, 0] - p[0, 0] == pytest.approx(1 / 3)

    def test_x_fastest_ordering(self, grid):
        p = canonical_points(0.3, grid)
        assert np.allclose(p[0], [-1, -1, -1])
        assert np.allclose(p[1], [-1 + 1 / 3, -1, -1])
        assert np.allclose(p[6], [-1, -1 + 1 / 3, -1])
        assert np.allclose(p[36], [-1, -1, -1 + 1 / 3])

    def test_max_norm_bound(self):
        for e_r, r_e in [(0.3, 0.1), (0.2, 0.05), (0.48, 0.04)]:
            g = EnvGrid(extent=1.0, resolution=r_e)
            p = canonical_points(e_r, g)
            assert np.abs(p).max() <= 1 + r_e / (2 * e_r) + 1e-12

    def test_anisotropic_extent_rejected(self, grid):
        with pytest.raises(ValidationError):
            canonical_points([0.3, 0.3, 0.2], grid)


class TestSphereMask:
    def test_center_cell_kept(self, grid):
        m = sphere_mask(0.3, grid)
        assert m[3, 3, 3]

    @pytest.mark.parametrize("width", [4, 6, 8, 12])
    def test_corner_dropped(self, width):
        # The far corner sits at -e_r per axis (norm sqrt(3)*e_r); the near
        # corner is one cell closer and only leaves the ball from width 6 on.
        g = EnvGrid(extent=1.0, resolution=2.0 / width)
        m = sphere_mask(1.0, g)
        assert not m[0, 0, 0]
        if width >= 6:
            assert not m[-1, -1, -1]

    def test_fraction_tends_to_ball_volume(self):
        g = EnvGrid(extent=1.2, resolution=0.04)  # width 60
        m = sphere_mask(1.2, g)
        assert abs(m.mean() - np.pi / 6) <= 0.02


class TestGridTransformExact:
    def test_identity(self, grid):
        p = canonical_points(0.3, grid)
        g = grid_transform_exact(np.eye(3), np.zeros(3), 0.3, p)
        assert np.array_equal(g, p)

    def test_pure_shift(self, grid):
        p = canonical_points(0.3, grid)
        g = grid_transform_exact(np.eye(3), np.float64([0.05, 0, 0]), 0.3, p)
        assert np.allclose(g, p - np.float64([0.05 / 0.3, 0, 0]))

    def test_round_trip_forward_map(self, grid, rng):
        p = canonical_points(0.3, grid)
        r = sample_rotations(rng, 64)
        dt = rng.uniform(-0.05, 0.05, size=(64, 3))
        g = grid_transform_exact(r, dt, 0.3, p)
        recovered = np.einsum("bij,bvj->bvi", r, g * 0.3) + dt[:, None, :]
        assert np.abs(recovered - p[None] * 0.3).max() <= 1e-6


def row_form_transform(rotations, delta_t, e_r, points):
    """The window transform written on (V, 3) rows: ``points @ r + dt_inv``."""
    r = np.asarray(rotations, dtype=np.float64)
    single = r.ndim == 2
    r = r.reshape(-1, 3, 3)
    dt = np.asarray(delta_t, dtype=np.float64).reshape(-1, 3)
    g = np.matmul(points[None], r)
    g += -np.einsum("bj,bjk->bk", dt / e_r, r)[:, None, :]
    return g[0] if single else g


class TestColumnTransform:
    def test_single_pose_equals_row_form(self, window, rng):
        p = window.masked_points
        for r in sample_rotations(rng, 8):
            dt = rng.uniform(-0.05, 0.05, size=3)
            g = grid_transform_exact(r, dt, 0.3, p)
            assert g.shape == (len(p), 3)
            assert np.array_equal(g, row_form_transform(r, dt, 0.3, p))

    def test_batch_equals_row_form(self, grid, rng):
        p = canonical_points(0.3, grid)
        r = sample_rotations(rng, 64)
        dt = rng.uniform(-0.05, 0.05, size=(64, 3))
        before = (r.copy(), dt.copy(), p.copy())
        g = grid_transform_exact(r, dt, 0.3, p)
        assert g.shape == (64, len(p), 3)
        assert np.array_equal(g, row_form_transform(r, dt, 0.3, p))
        for arg, old in zip((r, dt, p), before):
            assert np.array_equal(arg, old)

    def test_columns_are_contiguous(self, window, rng):
        # Each coordinate's V values sit next to each other in memory, so
        # the sampler reads them without a copy.
        g = grid_transform_exact(
            sample_rotations(rng, 3), np.zeros((3, 3)), 0.3, window.masked_points
        )
        assert g[:, :, 0].strides[-1] == g.itemsize
        assert np.swapaxes(g, 1, 2).flags.c_contiguous

    def test_neural_provider_unchanged(self, window, rng):
        model = TinyMlp.initial(window.n_masked, hidden=24, seed=3)
        r = sample_rotations(rng, 5)
        dt = rng.uniform(-0.05, 0.05, size=(5, 3))
        got = NeuralTransformProvider(model, window).transform(r, dt)
        expected = model.predict(r).astype(np.float64) + row_form_transform(
            r, dt, 0.3, np.zeros((1, 3))
        )
        assert got.shape == (5, window.n_masked, 3)
        assert np.array_equal(got, expected)
        assert np.array_equal(infer_grid_transform(model, r, dt, 0.3), expected)


class TestPlaceLink:
    def test_identity_pose_matches_analytic(self, grid, window, sphere_link):
        provider = ExactTransformProvider(window)
        field = place_link(
            sphere_link, np.eye(3), np.float64([0.05, 0.05, 0.05]), grid, provider
        )
        assert np.array_equal(field.anchor, [7, 7, 7])
        kept = window.mask.ravel(order="F")
        sampled = field.values.ravel(order="F")[kept]
        analytic = primitive_sdf(Sphere(0.2), window.points * 0.3)[kept]
        bound = np.sqrt(3) / 2 * 0.01
        assert np.abs(sampled - analytic).max() <= bound * (1 + 1e-5) + 1e-6

    def test_masked_cells_carry_sentinel(self, grid, window, sphere_link):
        provider = ExactTransformProvider(window)
        field = place_link(
            sphere_link, np.eye(3), np.float64([0.05, 0.05, 0.05]), grid, provider
        )
        assert np.all(field.values[~window.mask] == np.float32(sphere_link.d_far))

    def test_spherical_link_rotation_invariance(self, grid, window, sphere_link, rng):
        provider = ExactTransformProvider(window)
        t = np.float64([0.05, 0.05, 0.05])  # voxel center: zero residual
        base = place_link(sphere_link, np.eye(3), t, grid, provider)
        bound = 2 * np.sqrt(3) / 2 * 0.01
        for r in sample_rotations(rng, 5):
            rotated = place_link(sphere_link, r, t, grid, provider)
            diff = np.abs(
                rotated.values.astype(np.float64) - base.values.astype(np.float64)
            )
            assert diff.max() <= bound + 1e-6

    def test_rotated_shifted_vs_exact_distance(self, grid, window, sphere_link, rng):
        # Every kept cell whose sample stays inside the stored hull matches
        # the exact distance within interpolation error; cells pushed out of
        # the hull by the rotation+shift carry the sentinel instead.
        provider = ExactTransformProvider(window)
        t = np.float64([0.07, 0.02, -0.04])
        r = sample_rotations(rng, 1)[0]
        field = place_link(sphere_link, r, t, grid, provider)
        vox = np.stack(
            np.meshgrid(
                *[np.arange(field.anchor[a], field.anchor[a] + 6) for a in range(3)],
                indexing="ij",
            ),
            axis=-1,
        )
        local = np.einsum("ji,xyzj->xyzi", r, grid.voxel_centers(vox) - t)
        exact = primitive_sdf(Sphere(0.2), local)
        hull = 0.3 - 0.01 / 2
        in_hull = np.all(np.abs(local) <= hull, axis=-1)
        m = window.mask & in_hull
        assert m.sum() > 0.8 * window.mask.sum()
        assert np.abs(field.values[m] - exact[m]).max() <= np.sqrt(3) / 2 * 0.01 + 1e-6
        out = window.mask & ~in_hull
        assert np.all(field.values[out] == np.float32(sphere_link.d_far))

    def test_extent_mismatch_rejected(self, grid, window):
        other = build_link_sdf(Sphere(0.1), extent=0.2, resolution=0.01)
        with pytest.raises(ValidationError):
            place_link(other, np.eye(3), np.zeros(3), grid, ExactTransformProvider(window))

    def test_no_overlap_propagates(self, grid, window, sphere_link):
        with pytest.raises(NoOverlapError):
            place_link(
                sphere_link,
                np.eye(3),
                np.float64([5.0, 0, 0]),
                grid,
                ExactTransformProvider(window),
            )


class TestPlaceLinksBatch:
    def test_matches_single_placements(self, grid, window, sphere_link, rng):
        other = build_link_sdf(Sphere(0.12), extent=0.3, resolution=0.01, link_id=1)
        sdfs = [sphere_link, other]
        n = 7
        rot = sample_rotations(rng, 2 * n).reshape(n, 2, 3, 3)
        trn = rng.uniform(-0.3, 0.3, size=(n, 2, 3))
        poses = LinkPoseBatch(rotations=rot, translations=trn)
        provider = ExactTransformProvider(window)
        got = {}
        for c, li, field in place_links_batch(sdfs, poses, grid, provider, chunk=3):
            got[(c, li)] = field
        assert len(got) == 2 * n
        for (c, li), field in got.items():
            single = place_link(sdfs[li], rot[c, li], trn[c, li], grid, provider)
            assert np.array_equal(field.anchor, single.anchor)
            assert np.array_equal(field.values, single.values)

    def test_wrong_link_count(self, grid, window, sphere_link):
        poses = LinkPoseBatch(
            rotations=np.broadcast_to(np.eye(3), (1, 2, 3, 3)),
            translations=np.zeros((1, 2, 3)),
        )
        with pytest.raises(ValidationError):
            list(place_links_batch([sphere_link], poses, grid, ExactTransformProvider(window)))


class TestSamplerLookup:
    """Placement samples through the module-level ``trilinear_sample`` name.

    Tools that time or count sampling replace that name, so placement must
    look it up on every call and call it once per (link, config chunk).
    """

    def test_one_call_per_link_and_chunk(self, grid, window, sphere_link, rng, monkeypatch):
        assert linksdf.placement.trilinear_sample is linksdf.grids.trilinear_sample
        other = build_link_sdf(Sphere(0.12), extent=0.3, resolution=0.01, link_id=1)
        n_configs, n_links, chunk = 7, 2, 3
        poses = LinkPoseBatch(
            rotations=sample_rotations(rng, n_configs * n_links).reshape(
                n_configs, n_links, 3, 3
            ),
            translations=rng.uniform(-0.3, 0.3, size=(n_configs, n_links, 3)),
        )
        calls = []

        def counting(sdf, points):
            out = linksdf.grids.trilinear_sample(sdf, points)
            calls.append((sdf.link_id, out.size))
            return out

        monkeypatch.setattr(linksdf.placement, "trilinear_sample", counting)
        placed = list(
            place_links_batch(
                [sphere_link, other], poses, grid, ExactTransformProvider(window), chunk=chunk
            )
        )
        assert len(placed) == n_configs * n_links
        n_chunks = -(-n_configs // chunk)
        assert [lid for lid, _ in calls] == [0] * n_chunks + [1] * n_chunks
        assert sum(n for _, n in calls) == n_configs * n_links * window.n_masked
