"""Exact surface distances, primitives, and the link-SDF build."""

import struct

import numpy as np
import pytest

from linksdf import (
    Box,
    Capsule,
    NonWatertightError,
    Sphere,
    TriangleMesh,
    ValidationError,
    build_link_sdf,
    exact_point_distance,
    load_mesh,
    make_box_mesh,
    make_icosphere,
    primitive_sdf,
)
from linksdf.meshes import primitive_surface_points


class TestPrimitiveSdf:
    def test_sphere(self):
        assert primitive_sdf(Sphere(0.1), np.float64([0.3, 0, 0])) == pytest.approx(0.2)

    def test_capsule_endpoint(self):
        cap = Capsule(radius=0.05, half_length=0.2, axis=[0, 0, 1])
        assert primitive_sdf(cap, np.float64([0, 0, 0.4])) == pytest.approx(0.15)
        assert primitive_sdf(cap, np.float64([0.03, 0, 0.1])) == pytest.approx(-0.02)

    def test_box_corner(self):
        box = Box(half_extents=[0.1, 0.1, 0.1])
        d = primitive_sdf(box, np.float64([0.2, 0.2, 0.2]))
        assert d == pytest.approx(np.sqrt(3) * 0.1)
        assert primitive_sdf(box, np.float64([0, 0, 0])) == pytest.approx(-0.1)

    def test_batch_shape(self, rng):
        pts = rng.normal(size=(4, 5, 3))
        assert primitive_sdf(Sphere(0.2), pts).shape == (4, 5)


@pytest.fixture(scope="module")
def unit_cube():
    return make_box_mesh([0.5, 0.5, 0.5])


@pytest.fixture(scope="module")
def icosphere():
    return make_icosphere(0.3, subdivisions=1)


class TestExactPointDistance:
    def test_cube_outside_face(self, unit_cube):
        assert exact_point_distance(unit_cube, np.float64([1.0, 0, 0])) == pytest.approx(0.5)

    def test_cube_inside_center(self, unit_cube):
        assert exact_point_distance(unit_cube, np.float64([0, 0, 0])) == pytest.approx(-0.5)

    def test_cube_edge_and_corner(self, unit_cube):
        d = exact_point_distance(unit_cube, np.float64([1.0, 1.0, 0.0]))
        assert d == pytest.approx(np.sqrt(2) * 0.5)
        d = exact_point_distance(unit_cube, np.float64([1.0, 1.0, 1.0]))
        assert d == pytest.approx(np.sqrt(3) * 0.5)

    def test_icosphere_vs_analytic(self, icosphere):
        assert len(icosphere.triangles) == 80
        # Faceting error bound: largest sagitta of the tessellation.
        a, b, c = icosphere.triangle_corners()
        centroid_r = np.linalg.norm((a + b + c) / 3.0, axis=-1)
        sagitta = 0.3 - centroid_r.min()
        d = exact_point_distance(icosphere, np.float64([0.6, 0, 0]))
        assert abs(d - 0.3) <= sagitta + 1e-12

    def test_icosphere_random_points(self, icosphere, rng):
        pts = rng.uniform(-0.6, 0.6, size=(200, 3))
        d = exact_point_distance(icosphere, pts)
        analytic = np.linalg.norm(pts, axis=-1) - 0.3
        a, b, c = icosphere.triangle_corners()
        sagitta = 0.3 - np.linalg.norm((a + b + c) / 3.0, axis=-1).min()
        assert np.all(np.abs(d - analytic) <= sagitta + 1e-9)

    def test_open_mesh_unsigned_fallback(self, unit_cube):
        open_mesh = TriangleMesh(unit_cube.vertices, unit_cube.triangles[:-1])
        assert not open_mesh.is_watertight
        with pytest.raises(NonWatertightError):
            exact_point_distance(open_mesh, np.float64([0, 0, 0]))
        d = exact_point_distance(open_mesh, np.float64([0, 0, 0]), signed=False)
        assert d == pytest.approx(0.5)

    def test_reversed_face_takes_unsigned_path(self, unit_cube, caplog):
        # With triangle 0 (-x face) reversed the winding number reads +0.05 here.
        tris = unit_cube.triangles.copy()
        tris[0] = tris[0, ::-1]
        flipped = TriangleMesh(unit_cube.vertices, tris)
        assert not flipped.is_watertight
        p = np.float64([-0.45, -0.15, 0.15])
        with pytest.raises(NonWatertightError):
            exact_point_distance(flipped, p)
        assert exact_point_distance(flipped, p, signed=False) == pytest.approx(0.05)
        sdf = build_link_sdf(flipped, 0.6, 0.1)
        assert sdf.values.min() >= 0.0
        assert "not watertight" in caplog.text

    def test_inward_faces_keep_the_sign(self, unit_cube):
        inward = TriangleMesh(unit_cube.vertices, unit_cube.triangles[:, ::-1])
        assert inward.is_watertight
        d = exact_point_distance(inward, np.float64([0.05, 0.05, 0.05]))
        assert d == pytest.approx(-0.45, abs=1e-12)

    def test_cube_diagonal_point_is_inside(self, unit_cube):
        # A parity ray from here leaves through a shared vertex.
        d = exact_point_distance(unit_cube, np.float64([0.05, 0.05, 0.05]))
        assert d == pytest.approx(-0.45, abs=1e-12)

    def test_cube_matches_box_primitive(self, unit_cube, rng):
        uniform = rng.uniform(-1.0, 1.0, size=(2000, 3))
        diagonal = rng.uniform(-0.5, 0.5, size=(2000, 1)) * np.ones(3)
        pts = np.concatenate([uniform, diagonal])
        d = exact_point_distance(unit_cube, pts)
        assert np.abs(d - primitive_sdf(Box([0.5, 0.5, 0.5]), pts)).max() <= 1e-12

    def test_vertices_and_edges_are_finite(self, unit_cube, icosphere):
        for mesh in (unit_cube, icosphere):
            a, b, _ = mesh.triangle_corners()
            pts = np.concatenate([mesh.vertices, 0.5 * (a + b)])
            d = exact_point_distance(mesh, pts)
            assert np.all(np.isfinite(d))
            assert np.abs(d).max() <= 1e-12

    def test_icosphere_sign_beyond_sagitta(self, icosphere, rng):
        # Points near the surface, some on the rays through the vertices.
        a, b, c = icosphere.triangle_corners()
        sagitta = 0.3 - np.linalg.norm((a + b + c) / 3.0, axis=-1).min()
        dirs = np.concatenate([rng.normal(size=(2000, 3)), icosphere.vertices])
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        r = rng.uniform(0.3 - 4 * sagitta, 0.3 + 4 * sagitta, size=len(dirs))
        clear = np.abs(r - 0.3) > sagitta
        d = exact_point_distance(icosphere, dirs[clear] * r[clear, None])
        assert np.all(np.sign(d) == np.sign(r[clear] - 0.3))

    def test_watertight_flags(self, unit_cube, icosphere):
        assert unit_cube.is_watertight
        assert icosphere.is_watertight

    def test_degenerate_triangles_dropped(self):
        verts = np.float64([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        tris = np.int64([[0, 1, 2], [0, 1, 1], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
        mesh = TriangleMesh(verts, tris)
        assert len(mesh.triangles) == 4


class TestBuildLinkSdf:
    def test_sphere_primitive_cell_value(self):
        # Cell centers at -0.5, 0, 0.5 per axis; (0.5, 0, 0) is 0.3 from the
        # radius-0.2 sphere surface.
        sdf = build_link_sdf(Sphere(0.2), extent=0.75, resolution=0.5)
        assert sdf.values[2, 1, 1] == pytest.approx(0.3)
        assert sdf.values[1, 1, 1] == pytest.approx(-0.2)

    def test_primitive_grid_matches_analytic_exactly(self, rng):
        sdf = build_link_sdf(Capsule(radius=0.06, half_length=0.05), 0.2, 0.025)
        idx = rng.integers(0, sdf.dims, size=(200, 3))
        centers = np.stack([sdf.cell_centers_1d(a)[idx[:, a]] for a in range(3)], axis=-1)
        expected = primitive_sdf(Capsule(radius=0.06, half_length=0.05), centers)
        assert np.array_equal(sdf.values[idx[:, 0], idx[:, 1], idx[:, 2]],
                              expected.astype(np.float32))

    def test_mesh_grid_matches_oracle_exactly(self, rng):
        cube = make_box_mesh([0.2, 0.2, 0.2])
        sdf = build_link_sdf(cube, extent=0.6, resolution=0.025)
        idx = rng.integers(0, sdf.dims, size=(100, 3))
        centers = np.stack([sdf.cell_centers_1d(a)[idx[:, a]] for a in range(3)], axis=-1)
        oracle = exact_point_distance(cube, centers)
        assert np.array_equal(
            sdf.values[idx[:, 0], idx[:, 1], idx[:, 2]], oracle.astype(np.float32)
        )

    def test_surface_cells_near_zero(self):
        sdf = build_link_sdf(Box(half_extents=[0.2, 0.2, 0.2]), 0.4, 0.1)
        assert np.abs(sdf.values).min() <= np.sqrt(3) * 0.1 / 2

    def test_one_lipschitz_across_cells(self):
        sdf = build_link_sdf(Sphere(0.15), 0.3, 0.05)
        for axis in range(3):
            diffs = np.abs(np.diff(sdf.values.astype(np.float64), axis=axis))
            assert diffs.max() <= sdf.resolution[axis] + 1e-6

    def test_sign_matches_analytic_for_convex(self):
        shape = Box(half_extents=[0.11, 0.07, 0.09])
        sdf = build_link_sdf(shape, 0.3, 0.05)
        gx, gy, gz = np.meshgrid(*[sdf.cell_centers_1d(a) for a in range(3)], indexing="ij")
        analytic = primitive_sdf(shape, np.stack([gx, gy, gz], axis=-1))
        significant = np.abs(analytic) > 1e-9
        assert np.all(np.sign(sdf.values[significant]) == np.sign(analytic[significant]))

    def test_box_mesh_signs_match_primitive(self):
        half = [0.04, 0.04, 0.04]
        sdf = build_link_sdf(make_box_mesh(half), 0.24, 0.01)
        gx, gy, gz = np.meshgrid(*[sdf.cell_centers_1d(a) for a in range(3)], indexing="ij")
        analytic = primitive_sdf(Box(half), np.stack([gx, gy, gz], axis=-1))
        significant = np.abs(analytic) > 1e-9
        assert np.all(np.sign(sdf.values[significant]) == np.sign(analytic[significant]))

    @pytest.mark.parametrize("extent, resolution", [(0.3, 0.0), (0.3, -0.05), (0.3, 0.07)])
    def test_bad_lattice_rejected(self, extent, resolution):
        with pytest.raises(ValidationError):
            build_link_sdf(Sphere(0.1), extent, resolution)

    def test_open_mesh_builds_unsigned(self, unit_cube, caplog):
        open_mesh = TriangleMesh(unit_cube.vertices, unit_cube.triangles[:-1])
        sdf = build_link_sdf(open_mesh, 1.0, 0.25)
        assert np.all(sdf.values >= 0)


class TestSurfaceSampling:
    @pytest.mark.parametrize(
        "shape",
        [
            Sphere(0.13),
            Capsule(radius=0.04, half_length=0.06, axis=[0, 1, 0]),
            Box(half_extents=[0.05, 0.08, 0.03]),
        ],
        ids=["sphere", "capsule", "box"],
    )
    def test_points_lie_on_surface(self, shape, rng):
        pts = primitive_surface_points(shape, 500, rng)
        assert np.abs(primitive_sdf(shape, pts)).max() <= 1e-9

    def test_mesh_surface_sampling(self, icosphere, rng):
        pts = icosphere.sample_surface(500, rng)
        d = exact_point_distance(icosphere, pts, signed=False)
        assert d.max() <= 1e-9


class TestMeshFiles:
    def test_binary_stl_round_trip(self, tmp_path, unit_cube, rng):
        path = tmp_path / "cube.stl"
        a, b, c = unit_cube.triangle_corners()
        with open(path, "wb") as fh:
            fh.write(b"\0" * 80)
            fh.write(struct.pack("<I", len(a)))
            for i in range(len(a)):
                fh.write(struct.pack("<3f", 0, 0, 0))
                for v in (a[i], b[i], c[i]):
                    fh.write(struct.pack("<3f", *v))
                fh.write(struct.pack("<H", 0))
        mesh = load_mesh(path)
        assert mesh.is_watertight
        pts = rng.uniform(-1, 1, size=(50, 3))
        assert np.allclose(
            exact_point_distance(mesh, pts), exact_point_distance(unit_cube, pts)
        )

    def test_ascii_stl(self, tmp_path):
        tri = "\n".join(
            [
                "solid tri",
                "facet normal 0 0 1",
                "outer loop",
                "vertex 0 0 0",
                "vertex 1 0 0",
                "vertex 0 1 0",
                "endloop",
                "endfacet",
                "endsolid tri",
            ]
        )
        path = tmp_path / "tri.stl"
        path.write_text(tri)
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 1
        d = exact_point_distance(mesh, np.float64([0, 0, 1.0]), signed=False)
        assert d == pytest.approx(1.0)

    def test_obj(self, tmp_path, unit_cube, rng):
        path = tmp_path / "cube.obj"
        lines = [f"v {x} {y} {z}" for x, y, z in unit_cube.vertices]
        lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in unit_cube.triangles]
        path.write_text("\n".join(lines))
        mesh = load_mesh(path)
        pts = rng.uniform(-1, 1, size=(50, 3))
        assert np.allclose(
            exact_point_distance(mesh, pts), exact_point_distance(unit_cube, pts)
        )
