"""Robot SDF assembly, obstacle voxelization, and distance queries.

The per-configuration robot SDF is the min-merge of every link's sample
window scattered at its anchor over a dense environment grid. Distance
queries against voxelized obstacles are then pure memory gathers followed
by a min reduction: no per-query arithmetic on poses or points, so query
cost depends only on the batch size and the number of occupied voxels.

A sphere-approximation baseline with the opposite cost profile (cheap
preparation, per-query distance arithmetic) is included for comparison.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import GridMismatchError, ValidationError
from .grids import EnvGrid, SdfSampleField, _read_exact
from .meshes import TriangleMesh, primitive_surface_points
from .robot import LinkPoseBatch, RobotModel

DEFAULT_BATCH_BYTES = 1 << 30  # refuse to allocate robot SDF batches past 1 GiB
_SPHERE_CHUNK = 64  # configurations per sphere-baseline block
_GATHER_CHUNK = 256  # occupied voxels' rows gathered per min step


@dataclass(frozen=True, eq=False)
class RobotSdfBatch:
    """Dense per-configuration robot distance fields over the environment.

    The fields are stored voxel-major: ``rows`` is a C-contiguous (V, C)
    array holding the C configurations' values of one voxel per row, rows
    in C order of (ix, iy, iz). A query then gathers one contiguous row per
    occupied voxel. ``values`` is the logical (C, nx, ny, nz) array as a
    read-only view of the same memory, never a copy; a batch built from any
    other layout is converted once. Voxels never exceed ``d_far_global``
    and go negative inside the robot.
    """

    values: np.ndarray
    grid: EnvGrid
    d_far_global: float
    rows: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 4 or tuple(shape[1:]) != tuple(self.grid.dims):
            raise ValidationError(
                f"robot SDF batch shape {shape} is not (C, *{self.grid.dims.tolist()})"
            )
        voxel_major = np.ascontiguousarray(np.moveaxis(self.values, 0, -1))
        voxel_major.flags.writeable = False
        object.__setattr__(self, "values", np.moveaxis(voxel_major, -1, 0))
        object.__setattr__(
            self, "rows", voxel_major.reshape(self.grid.n_voxels, shape[0])
        )

    @property
    def n_configs(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class ObstacleVoxelSet:
    """Occupied voxels of a point cloud, as flat voxel ids.

    ``flat`` holds read-only int64 C-order flat indices on ``grid``, each
    the voxel's row number in ``RobotSdfBatch.rows``; an id outside the
    grid raises ``ValidationError`` here, so no query gathers one.
    ``n_dropped`` counts every point not voxelized, ``n_nonfinite`` the
    share with a NaN or infinite coordinate; the rest lie outside the grid.
    """

    flat: np.ndarray
    grid: EnvGrid
    n_points: int
    n_dropped: int
    n_nonfinite: int = 0

    def __post_init__(self):
        flat, n = np.asarray(self.flat), self.grid.n_voxels
        if flat.ndim != 1 or (flat.size and flat.dtype.kind not in "iu"):
            raise ValidationError(
                f"obstacle voxel ids must be 1-D integers, got {flat.dtype}{flat.shape}"
            )
        if flat.size and (flat.min() < 0 or flat.max() >= n):
            raise ValidationError(f"obstacle voxel ids fall outside the grid of {n} voxels")
        flat = flat.astype(np.int64)  # own copy: the checked ids cannot change
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @property
    def indices(self) -> np.ndarray:
        """(N, 3) voxel coordinates of ``flat``, in the same order."""
        return np.stack(np.unravel_index(self.flat, self.grid.dims), axis=-1)

    @property
    def n_occupied(self) -> int:
        return len(self.flat)


def assemble_robot_sdfs(
    fields: Iterable[tuple[int, SdfSampleField]],
    grid: EnvGrid,
    n_configs: int,
    d_far_global: float,
    max_bytes: int = DEFAULT_BATCH_BYTES,
) -> RobotSdfBatch:
    """Min-merge per-(link, config) sample fields into dense robot SDFs.

    ``fields`` yields (config_index, field) pairs in any order; merging is
    commutative and idempotent. Window cells outside the grid are dropped.
    Each field is merged straight into its configuration's column of the
    voxel-major batch, so the batch is allocated once and never transposed,
    and partitioning work by configuration needs no synchronization.
    """
    if n_configs < 1:
        raise ValidationError(
            f"robot SDF batch needs at least one configuration, got {n_configs}"
        )
    need = n_configs * grid.n_voxels * 4
    if need > max_bytes:
        raise ValidationError(
            f"robot SDF batch needs {need / 2**20:.0f} MiB for {n_configs} "
            f"configurations x {grid.n_voxels} voxels, over the "
            f"{max_bytes / 2**20:.0f} MiB budget"
        )
    out = np.full(
        tuple(grid.dims) + (n_configs,), np.float32(d_far_global), dtype=np.float32
    )
    dims = grid.dims
    for c, field in fields:
        if not 0 <= c < n_configs:
            raise ValidationError(f"configuration index {c} out of range")
        k = field.anchor
        w = np.asarray(field.window_dims, dtype=np.int64)
        lo = np.maximum(k, 0)
        hi = np.minimum(k + w, dims)
        if np.any(lo >= hi):
            continue
        src = field.values[
            lo[0] - k[0] : hi[0] - k[0],
            lo[1] - k[1] : hi[1] - k[1],
            lo[2] - k[2] : hi[2] - k[2],
        ]
        dst = out[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2], c]
        np.minimum(dst, src, out=dst)
    return RobotSdfBatch(
        values=np.moveaxis(out, -1, 0), grid=grid, d_far_global=float(d_far_global)
    )


def voxelize_pointcloud(points: np.ndarray, grid: EnvGrid) -> ObstacleVoxelSet:
    """Snap an (N, 3) point cloud to its occupied voxels' flat ids.

    A point's voxel index on each axis is ``floor((p + extent) /
    resolution)``: a point on the face between two voxels goes to the
    upper one, and the grid spans ``[-extent, extent)``, lower face inside,
    upper face outside. Non-finite and out-of-grid points are dropped and
    counted. Ids are deduplicated through an occupancy bitmap over the flat
    voxel index and come out strictly increasing, the bitmap's
    ``flatnonzero``; the same voxels in the order ``np.unique(axis=0)``
    sorts their (N, 3) indices.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"point cloud must have shape (N, 3), got {pts.shape}")
    # One pass per axis builds the in-grid mask and the C-order flat id
    # together. NaN fails both comparisons and +-inf one, so inside points
    # are finite; the rest are floored too, quietly, then masked off. The
    # clip keeps a point that rounds onto the upper face in the last voxel.
    inside = np.ones(len(pts), dtype=bool)
    flat = np.zeros(len(pts), dtype=np.int64)
    for p, e, r, n in zip(pts.T, grid.extent, grid.resolution, grid.dims):
        inside &= (p >= -e) & (p < e)
        with np.errstate(invalid="ignore", over="ignore"):
            i = np.floor((p + e) / r).astype(np.int64)
        flat *= n
        flat += np.clip(i, 0, n - 1)
    occupied = np.zeros(grid.n_voxels, dtype=bool)
    occupied[flat[inside]] = True
    dropped = pts[~inside]
    return ObstacleVoxelSet(
        flat=np.flatnonzero(occupied),
        grid=grid,
        n_points=len(pts),
        n_dropped=len(dropped),
        n_nonfinite=int(len(dropped) - np.isfinite(dropped).all(axis=-1).sum()),
    )


def query_min_distances(
    batch: RobotSdfBatch,
    obstacles: ObstacleVoxelSet,
    return_stats: bool = False,
):
    """Minimum robot-obstacle distance per configuration.

    Gathers ``batch.rows[obstacles.flat]``, ``_GATHER_CHUNK`` rows at a
    time, into a running min that starts at the far sentinel; nothing else.
    Batch values never exceed the sentinel, so an empty set yields it.
    """
    if not batch.grid.same_geometry(obstacles.grid):
        raise GridMismatchError("obstacle set was voxelized on a different grid")
    rows, flat = batch.rows, obstacles.flat
    d = np.full(batch.n_configs, batch.d_far_global, dtype=rows.dtype)
    for s in range(0, len(flat), _GATHER_CHUNK):
        np.minimum(d, rows[flat[s : s + _GATHER_CHUNK]].min(axis=0), out=d)
    if return_stats:
        return d, {"gathers": batch.n_configs * len(flat)}
    return d


def per_link_min_distances(
    fields: Iterable[tuple[int, int, SdfSampleField]],
    obstacles: ObstacleVoxelSet,
    n_configs: int,
    n_links: int,
    d_far_global: float,
) -> np.ndarray:
    """Optional diagnostic: per-(configuration, link) minimum distances.

    Consumes (config, link, field) triples as produced by the batched
    placement; voxels outside a link's window contribute its far sentinel.
    """
    out = np.full((n_configs, n_links), np.float32(d_far_global), dtype=np.float32)
    occupied = obstacles.indices
    for c, li, field in fields:
        rel = occupied - field.anchor
        w = np.asarray(field.window_dims, dtype=np.int64)
        ok = np.all((rel >= 0) & (rel < w), axis=-1)
        limit = min(field.d_far, float(out[c, li]))
        if np.any(ok):
            vals = field.values[rel[ok, 0], rel[ok, 1], rel[ok, 2]]
            limit = min(limit, float(vals.min()))
        out[c, li] = limit
    return out


@dataclass(frozen=True, eq=False)
class SphereRobotModel:
    """Per-link covering spheres in link-local frames, flattened for speed."""

    link_indices: np.ndarray  # (S,)
    centers: np.ndarray  # (S, 3) link-frame offsets
    radii: np.ndarray  # (S,)

    def __post_init__(self):
        if np.any(self.radii <= 0):
            raise ValidationError("sphere radii must be positive")

    @property
    def n_spheres(self) -> int:
        return len(self.radii)

    @classmethod
    def from_robot(cls, model: RobotModel) -> "SphereRobotModel":
        link_indices = []
        centers = []
        radii = []
        for link_name, spheres in model.sphere_model.items():
            li = model.link_index(link_name)
            for center, radius in spheres:
                link_indices.append(li)
                centers.append(center)
                radii.append(radius)
        if not radii:
            raise ValidationError(f"robot {model.name} declares no spheres")
        return cls(
            link_indices=np.int64(link_indices),
            centers=np.float64(centers),
            radii=np.float64(radii),
        )


def validate_sphere_model(
    model: RobotModel,
    spheres: SphereRobotModel,
    rng: np.random.Generator,
    n_samples: int = 2048,
    tol: float = 1e-9,
) -> float:
    """Check the spheres jointly contain each link's collision geometry.

    Samples each link's surface and requires every sample to lie inside
    (distance to the sphere union <= tol) the link's own spheres. Returns
    the worst signed violation; raises ``ValidationError`` beyond ``tol``.
    """
    worst = -np.inf
    for li, link in enumerate(model.links):
        if link.geometry is None:
            continue
        mine = spheres.link_indices == li
        if not np.any(mine):
            raise ValidationError(f"link {link.name} has geometry but no spheres")
        if isinstance(link.geometry, TriangleMesh):
            surface = link.geometry.sample_surface(n_samples, rng)
        else:
            surface = primitive_surface_points(link.geometry, n_samples, rng)
        d = (
            np.linalg.norm(
                surface[:, None, :] - spheres.centers[None, mine], axis=-1
            )
            - spheres.radii[mine]
        ).min(axis=1)
        worst = max(worst, float(d.max()))
        if worst > tol:
            raise ValidationError(
                f"link {link.name}: surface escapes the covering spheres "
                f"by {worst:.2e} m"
            )
    return worst


def sphere_baseline_distances(
    spheres: SphereRobotModel,
    poses: LinkPoseBatch,
    obstacles: ObstacleVoxelSet,
    grid: EnvGrid,
    return_stats: bool = False,
):
    """Per-configuration minima of sphere-to-voxel-center distances.

    World sphere centers are recomputed from the poses on every call,
    mirroring the baseline's per-query cost profile: C x S x N distance
    evaluations per query. An empty obstacle set yields +inf.
    """
    if not grid.same_geometry(obstacles.grid):
        raise GridMismatchError("obstacle set was voxelized on a different grid")
    c = poses.n_configs
    if obstacles.n_occupied == 0:
        d = np.full(c, np.inf, dtype=np.float64)
        return (d, {"distance_evals": 0}) if return_stats else d

    targets = grid.voxel_centers(obstacles.indices)  # (N, 3)
    out = np.empty(c, dtype=np.float64)
    evals = 0
    for c0 in range(0, c, _SPHERE_CHUNK):
        c1 = min(c0 + _SPHERE_CHUNK, c)
        rot = poses.rotations[c0:c1][:, spheres.link_indices]  # (b, S, 3, 3)
        trn = poses.translations[c0:c1][:, spheres.link_indices]  # (b, S, 3)
        world = np.einsum("bsij,sj->bsi", rot, spheres.centers) + trn
        diff = world[:, :, None, :] - targets[None, None, :, :]
        d = np.sqrt(np.einsum("bsnj,bsnj->bsn", diff, diff)) - spheres.radii[
            None, :, None
        ]
        evals += d.size
        out[c0:c1] = d.min(axis=(1, 2))
    if return_stats:
        return out, {"distance_evals": evals}
    return out


def stream_min_distances(
    batch: RobotSdfBatch,
    frames: Iterable[tuple[float, np.ndarray]],
) -> Iterator[tuple[float, ObstacleVoxelSet, np.ndarray]]:
    """Per-cycle distance vectors for a stream of point-cloud frames.

    For each (timestamp, points) frame: voxelize, query, emit (timestamp,
    obstacle set, C distances). This is the controller-facing hook;
    velocity profiling happens downstream.
    """
    for timestamp, points in frames:
        obstacles = voxelize_pointcloud(points, batch.grid)
        yield timestamp, obstacles, query_min_distances(batch, obstacles)


# ---------------------------------------------------------------------------
# Point-cloud frame files, manifests, and distance CSV output
# ---------------------------------------------------------------------------

def write_pointcloud_frame(path, points: np.ndarray) -> None:
    """Count-prefixed little-endian f32 xyz triples."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(pts)))
        fh.write(np.ascontiguousarray(pts, dtype="<f4").tobytes())


def read_pointcloud_frame(path) -> np.ndarray:
    with open(path, "rb") as fh:
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        raw = _read_exact(fh, 12 * count, path, "point data")
    return np.frombuffer(raw, dtype="<f4").reshape(count, 3).astype(np.float64)


def read_cloud_manifest(path) -> list[tuple[float, Path]]:
    """Manifest lines: ``<timestamp_ms> <frame file>`` relative to the manifest."""
    base = Path(path).parent
    frames = []
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                stamp, name = line.split(maxsplit=1)
                frames.append((float(stamp), base / name))
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: expected '<timestamp_ms> <frame file>', "
                    f"got {line[:60]!r}"
                ) from None
    return frames


def iter_cloud_frames(manifest_path) -> Iterator[tuple[float, np.ndarray]]:
    for stamp, frame_path in read_cloud_manifest(manifest_path):
        yield stamp, read_pointcloud_frame(frame_path)


def write_distance_csv(path, rows: Iterable[tuple[float, np.ndarray]], n_configs: int) -> None:
    """CSV with one row per cycle: timestamp then d_0..d_{C-1}."""
    with open(path, "w") as fh:
        header = ",".join(["timestamp_ms"] + [f"d_{i}" for i in range(n_configs)])
        fh.write(header + "\n")
        for stamp, dists in rows:
            fh.write(f"{stamp:.3f}," + ",".join(f"{d:.6f}" for d in dists) + "\n")
