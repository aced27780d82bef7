"""Collision geometry and the offline link-SDF build.

Provides exact point-to-surface distances for triangle meshes and analytic
primitives, and bakes them into dense :class:`~linksdf.grids.LinkSdf` grids.
The per-cell values are exact surface distances, so the only error left in
the query pipeline is discretization.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NonWatertightError, ValidationError
from .grids import LinkSdf, _as_vec3, _exact_dims

log = logging.getLogger(__name__)

_POINT_CHUNK = 65536


@dataclass(frozen=True, eq=False)
class Sphere:
    radius: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Capsule:
    """Capsule along ``axis`` through the origin: segment of ``half_length``
    each way, inflated by ``radius``."""

    radius: float
    half_length: float
    axis: np.ndarray = field(default_factory=lambda: np.float64([0.0, 0.0, 1.0]))

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0:
            raise ValidationError("capsule axis must be nonzero")
        object.__setattr__(self, "axis", axis / n)


@dataclass(frozen=True, eq=False)
class Box:
    half_extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "half_extents", np.asarray(self.half_extents, dtype=np.float64)
        )


Primitive = Sphere | Capsule | Box


def primitive_sdf(shape: Primitive, points: np.ndarray) -> np.ndarray:
    """Analytic signed distance of points to a primitive, negative inside."""
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    p = pts.reshape(-1, 3)

    if isinstance(shape, Sphere):
        d = np.linalg.norm(p - shape.center, axis=-1) - shape.radius
    elif isinstance(shape, Capsule):
        t = np.clip(p @ shape.axis, -shape.half_length, shape.half_length)
        d = np.linalg.norm(p - t[:, None] * shape.axis, axis=-1) - shape.radius
    elif isinstance(shape, Box):
        q = np.abs(p) - shape.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        d = outside + inside
    else:
        raise ValidationError(f"unknown primitive {type(shape).__name__}")
    return d[0] if scalar else d.reshape(pts.shape[:-1])


class TriangleMesh:
    """Triangle soup with load-time cleanup of degenerate faces."""

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValidationError("triangle indices out of range")
        a = vertices[triangles[:, 0]]
        b = vertices[triangles[:, 1]]
        c = vertices[triangles[:, 2]]
        area2 = np.linalg.norm(np.cross(b - a, c - a), axis=-1)
        keep = area2 > 1e-14
        dropped = int((~keep).sum())
        if dropped:
            log.warning("dropped %d degenerate triangle(s)", dropped)
            triangles = triangles[keep]
        if len(triangles) == 0:
            raise ValidationError("mesh has no non-degenerate triangles")
        self.vertices = vertices
        self.triangles = triangles
        self.vertices.flags.writeable = False
        self.triangles.flags.writeable = False
        self._watertight = None

    @property
    def is_watertight(self) -> bool:
        """Every edge is shared by two triangles running it in opposite
        directions: closed and consistently oriented, as the sign needs."""
        if self._watertight is None:
            tri, n = self.triangles, len(self.vertices)
            edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
            fwd = np.sort(edges[:, 0] * n + edges[:, 1])
            rev = np.sort(edges[:, 1] * n + edges[:, 0])
            unique = bool(np.all(fwd[1:] != fwd[:-1]))
            self._watertight = unique and bool(np.array_equal(fwd, rev))
        return self._watertight

    def triangle_corners(self):
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Area-weighted random points on the surface."""
        a, b, c = self.triangle_corners()
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=-1)
        which = rng.choice(len(areas), size=n, p=areas / areas.sum())
        u = rng.random(n)
        v = rng.random(n)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        return (
            a[which]
            + u[:, None] * (b[which] - a[which])
            + v[:, None] * (c[which] - a[which])
        )


def _segment_sq(vp: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Squared distance of offsets ``vp`` from segment starts to segments, (n, t)."""
    t = np.einsum("ntj,tj->nt", vp, edge) / np.einsum("tj,tj->t", edge, edge)
    diff = vp - np.clip(t, 0.0, 1.0)[..., None] * edge
    return np.einsum("ntj,ntj->nt", diff, diff)


def _closest_point_sq(p: np.ndarray, a, b, c) -> np.ndarray:
    """Squared distance from each point to each triangle, (n, t).

    The squared plane distance where the point projects inside the triangle
    (all three edge-side tests agree with the face normal), otherwise the
    nearest of the three clamped edge distances (Ericson, *Real-Time
    Collision Detection*, 2004, 5.1.5).
    """
    ab, bc, ca = b - a, c - b, a - c
    normal = np.cross(ab, c - a)
    ap = p[:, None, :] - a
    bp = p[:, None, :] - b
    cp = p[:, None, :] - c
    projects_inside = (
        (np.einsum("ntj,tj->nt", ap, np.cross(normal, ab)) >= 0)
        & (np.einsum("ntj,tj->nt", bp, np.cross(normal, bc)) >= 0)
        & (np.einsum("ntj,tj->nt", cp, np.cross(normal, ca)) >= 0)
    )
    plane_sq = np.einsum("ntj,tj->nt", ap, normal) ** 2 / np.einsum(
        "tj,tj->t", normal, normal
    )
    edge_sq = np.minimum(
        np.minimum(_segment_sq(ap, ab), _segment_sq(bp, bc)), _segment_sq(cp, ca)
    )
    return np.where(projects_inside, plane_sq, edge_sq)


def _inside_mask(p: np.ndarray, a, b, c) -> np.ndarray:
    """Generalized winding number test (Jacobson et al., SIGGRAPH 2013).

    Van Oosterom-Strackee: each triangle subtends ``2 atan2(det, den)`` at
    the point; a closed mesh's solid angles sum to 4 pi inside and 0
    outside, so more than 2 pi means inside. The absolute value accepts
    either consistent face orientation.
    """
    pa = a - p[:, None, :]
    pb = b - p[:, None, :]
    pc = c - p[:, None, :]
    la = np.sqrt(np.einsum("ntj,ntj->nt", pa, pa))
    lb = np.sqrt(np.einsum("ntj,ntj->nt", pb, pb))
    lc = np.sqrt(np.einsum("ntj,ntj->nt", pc, pc))
    det = np.einsum("ntj,ntj->nt", pa, np.cross(pb, pc))
    den = (
        la * lb * lc
        + np.einsum("ntj,ntj->nt", pa, pb) * lc
        + np.einsum("ntj,ntj->nt", pb, pc) * la
        + np.einsum("ntj,ntj->nt", pc, pa) * lb
    )
    return np.abs(np.arctan2(det, den).sum(axis=1)) > np.pi


def _point_triangle_distances(points: np.ndarray, a, b, c, signed: bool) -> np.ndarray:
    """Distance from each point to the nearest of the triangles.

    Chunked over points; a coarse centroid-radius prefilter drops triangles
    that cannot beat a chunk-level upper bound. With ``signed``, points the
    winding number puts inside get negative distances.
    """
    centroid = (a + b + c) / 3.0
    tri_radius = np.maximum(
        np.linalg.norm(a - centroid, axis=-1),
        np.maximum(
            np.linalg.norm(b - centroid, axis=-1),
            np.linalg.norm(c - centroid, axis=-1),
        ),
    )

    n_tri = len(a)
    chunk = max(1, min(_POINT_CHUNK, 2_000_000 // max(n_tri, 1)))
    best = np.empty(len(points))
    for start in range(0, len(points), chunk):
        p = points[start : start + chunk]
        lo = p.min(axis=0)
        hi = p.max(axis=0)
        center = 0.5 * (lo + hi)
        p_radius = np.linalg.norm(hi - center)
        d_cent = np.linalg.norm(centroid - center, axis=-1)
        upper = np.min(d_cent + tri_radius) + p_radius
        keep = d_cent - tri_radius - p_radius <= upper
        d = np.sqrt(_closest_point_sq(p, a[keep], b[keep], c[keep]).min(axis=1))
        if signed:
            d = np.where(_inside_mask(p, a, b, c), -d, d)
        best[start : start + chunk] = d
    return best


def exact_point_distance(
    mesh: TriangleMesh, points: np.ndarray, signed: bool = True
) -> np.ndarray:
    """Exact distance from points to the mesh surface, negative inside.

    The unsigned part is the true minimum over all triangles; the sign
    comes from the generalized winding number and requires a watertight
    mesh.
    """
    if signed and not mesh.is_watertight:
        raise NonWatertightError(
            "signed distance needs a watertight mesh; pass signed=False"
        )
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    p = pts.reshape(-1, 3)
    d = _point_triangle_distances(p, *mesh.triangle_corners(), signed)
    return float(d[0]) if scalar else d.reshape(pts.shape[:-1])


def build_link_sdf(
    geometry: TriangleMesh | Primitive,
    extent,
    resolution,
    link_id: int = 0,
) -> LinkSdf:
    """Bake a link's collision geometry into a dense signed distance grid.

    Every cell value is the exact signed distance at the cell center. Open
    meshes fall back to unsigned distance with a warning; the pipeline still
    works, distances just never go negative.
    """
    extent = _as_vec3(extent, "extent")
    resolution = _as_vec3(resolution, "resolution")
    dims = _exact_dims(extent, resolution, "LinkSdf")

    signed = True
    if isinstance(geometry, TriangleMesh):
        signed = geometry.is_watertight
        if not signed:
            log.warning(
                "link %d: mesh is not watertight, storing unsigned distances", link_id
            )

    # The lattice rule of LinkSdf.cell_centers_1d.
    axes = [
        -extent[a] + (np.arange(dims[a]) + 0.5) * resolution[a] for a in range(3)
    ]
    values = np.empty(tuple(dims), dtype=np.float32)
    # Evaluate in x-slabs to bound the temporary point buffers.
    slab = max(1, int(2_000_000 // max(dims[1] * dims[2], 1)))
    for x0 in range(0, int(dims[0]), slab):
        gx, gy, gz = np.meshgrid(axes[0][x0 : x0 + slab], axes[1], axes[2], indexing="ij")
        centers = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        if isinstance(geometry, TriangleMesh):
            d = exact_point_distance(geometry, centers, signed=signed)
        else:
            d = primitive_sdf(geometry, centers)
        values[x0 : x0 + slab] = d.reshape(gx.shape).astype(np.float32)

    return LinkSdf(extent=extent, resolution=resolution, values=values, link_id=link_id)


# ---------------------------------------------------------------------------
# Mesh constructors and file loading
# ---------------------------------------------------------------------------

def make_box_mesh(half_extents) -> TriangleMesh:
    """Axis-aligned box as 12 triangles, outward-facing."""
    h = np.asarray(half_extents, dtype=np.float64)
    corners = np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64
    ) * h
    # Faces as corner indices into the (x,y,z)-bit layout above.
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    tris = []
    for q in quads:
        tris.append((q[0], q[1], q[2]))
        tris.append((q[0], q[2], q[3]))
    return TriangleMesh(corners, np.int64(tris))


def make_icosphere(radius: float, subdivisions: int = 1) -> TriangleMesh:
    """Sphere mesh from a subdivided icosahedron (80 faces at 1 subdivision)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.float64(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ]
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]

    def midpoint(cache, i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(subdivisions):
        cache: dict = {}
        new_faces = []
        for i, j, k in faces:
            ij = midpoint(cache, i, j)
            jk = midpoint(cache, j, k)
            ki = midpoint(cache, k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = new_faces

    return TriangleMesh(np.float64(verts) * radius, np.int64(faces))


def primitive_surface_points(shape: Primitive, n: int, rng: np.random.Generator):
    """Random points on a primitive's surface (for coverage validation)."""
    if isinstance(shape, Sphere):
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        return shape.center + shape.radius * d
    if isinstance(shape, Capsule):
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        t = rng.uniform(-shape.half_length, shape.half_length, size=n)
        axial = d @ shape.axis
        radial = d - axial[:, None] * shape.axis
        # Push cylinder-side points onto the tube, endpoint points onto caps.
        on_cap = rng.random(n) < (
            2 * shape.radius / (2 * shape.radius + 2 * shape.half_length)
        )
        pts = np.where(
            on_cap[:, None],
            np.sign(axial)[:, None] * shape.half_length * shape.axis + shape.radius * d,
            t[:, None] * shape.axis
            + shape.radius
            * radial
            / np.maximum(np.linalg.norm(radial, axis=-1, keepdims=True), 1e-12),
        )
        return pts
    if isinstance(shape, Box):
        mesh = make_box_mesh(shape.half_extents)
        return mesh.sample_surface(n, rng)
    raise ValidationError(f"unknown primitive {type(shape).__name__}")


def load_stl(path) -> TriangleMesh:
    """Binary or ASCII STL loader (vertices are deduplicated)."""
    with open(path, "rb") as fh:
        head = fh.read(5)
        fh.seek(0)
        data = fh.read()
    if head == b"solid" and b"facet" in data[:2048]:
        return _load_stl_ascii(data.decode("ascii", errors="replace"), path)
    return _load_stl_binary(data, path)


def _load_stl_binary(data: bytes, path) -> TriangleMesh:
    if len(data) < 84:
        raise ValidationError(f"{path}: truncated STL")
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + count * 50
    if len(data) < expected:
        raise ValidationError(f"{path}: STL facet data truncated")
    raw = np.frombuffer(data, dtype=np.uint8, count=count * 50, offset=84)
    raw = raw.reshape(count, 50)
    tris = raw[:, 12:48].copy().view("<f4").reshape(count, 3, 3).astype(np.float64)
    return _mesh_from_triangle_soup(tris)


def _load_stl_ascii(text: str, path) -> TriangleMesh:
    coords = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if len(parts) == 4 and parts[0] == "vertex":
            try:
                coords.append([float(x) for x in parts[1:]])
            except ValueError as err:
                raise ValidationError(f"{path}:{lineno}: {err}") from None
    if len(coords) % 3:
        raise ValidationError(f"{path}: {len(coords)} vertices make no whole triangles")
    tris = np.float64(coords).reshape(-1, 3, 3)
    return _mesh_from_triangle_soup(tris)


def load_obj(path) -> TriangleMesh:
    """Minimal OBJ loader: v and (fan-triangulated) f records."""
    vertices = []
    faces = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            try:
                if parts[:1] == ["v"]:
                    if len(parts) < 4:
                        raise ValueError("a vertex needs 3 coordinates")
                    vertices.append([float(x) for x in parts[1:4]])
                elif parts[:1] == ["f"]:
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                    for i in range(1, len(idx) - 1):
                        faces.append((idx[0], idx[i], idx[i + 1]))
            except ValueError as err:
                raise ValidationError(f"{path}:{lineno}: {err}") from None
    return TriangleMesh(np.float64(vertices), np.int64(faces))


def load_mesh(path) -> TriangleMesh:
    p = str(path).lower()
    if p.endswith(".stl"):
        return load_stl(path)
    if p.endswith(".obj"):
        return load_obj(path)
    raise ValidationError(f"unsupported mesh format: {path}")


def _mesh_from_triangle_soup(tris: np.ndarray) -> TriangleMesh:
    flat = tris.reshape(-1, 3)
    verts, inverse = np.unique(flat, axis=0, return_inverse=True)
    return TriangleMesh(verts, inverse.reshape(-1, 3))
