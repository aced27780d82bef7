"""Voxel-grid geometry, index math, and the dense SDF containers.

Conventions used throughout the library:

* grids are axis aligned and span ``[-extent, +extent]`` per axis,
* voxel ``j`` has its center at ``-extent + (j + 0.5) * resolution``,
* dense value arrays are indexed ``[ix, iy, iz]`` and laid out x-fastest
  (Fortran order) in memory and on disk; the one exception is the
  assembled robot SDF batch (``query.RobotSdfBatch``), stored voxel-major
  as ``(nx, ny, nz, C)`` in C order so a query gathers one contiguous row
  of C values per voxel,
* distances are meters, negative strictly inside a surface.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBoundsError, ValidationError

# Magic bytes and version of the link-SDF cache file.
LSDF_MAGIC = b"LSDF"
LSDF_VERSION = 1

_DIVISIBILITY_RTOL = 1e-6


def _as_vec3(value, name: str) -> np.ndarray:
    v = np.broadcast_to(np.asarray(value, dtype=np.float64), (3,)).copy()
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return v


def _exact_dims(extent: np.ndarray, resolution: np.ndarray, what: str) -> np.ndarray:
    """Number of cells per axis, requiring 2*extent to divide by resolution."""
    ratio = 2.0 * extent / resolution
    dims = np.rint(ratio)
    if np.any(np.abs(ratio - dims) > _DIVISIBILITY_RTOL * np.maximum(ratio, 1.0)):
        raise ValidationError(
            f"{what}: 2*extent {2 * extent} is not an integer multiple "
            f"of resolution {resolution}"
        )
    if np.any(dims < 1):
        raise ValidationError(f"{what}: dims {dims} must be positive")
    return dims.astype(np.int64)


@dataclass(frozen=True, eq=False)
class EnvGrid:
    """Environment voxelization: half-extent, resolution and index math."""

    extent: np.ndarray
    resolution: np.ndarray
    dims: np.ndarray = field(init=False)

    def __init__(self, extent, resolution):
        object.__setattr__(self, "extent", _as_vec3(extent, "extent"))
        object.__setattr__(self, "resolution", _as_vec3(resolution, "resolution"))
        object.__setattr__(
            self, "dims", _exact_dims(self.extent, self.resolution, "EnvGrid")
        )
        for arr in (self.extent, self.resolution, self.dims):
            arr.flags.writeable = False

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def same_geometry(self, other: "EnvGrid") -> bool:
        return bool(
            np.array_equal(self.extent, other.extent)
            and np.array_equal(self.resolution, other.resolution)
        )

    def voxel_centers(self, indices: np.ndarray) -> np.ndarray:
        """Centers of voxels given integer indices, shape (..., 3)."""
        idx = np.asarray(indices, dtype=np.float64)
        return -self.extent + (idx + 0.5) * self.resolution


def voxel_index_of(points: np.ndarray, grid: EnvGrid) -> np.ndarray:
    """Snap points to their nearest voxel index per axis.

    Boundary points exactly on a face round toward the lower index (floor
    semantics). Raises ``OutOfBoundsError`` for points outside
    ``[-extent, extent)`` on any axis.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    pts2 = pts.reshape(-1, 3)
    bad = np.any((pts2 < -grid.extent) | (pts2 >= grid.extent), axis=-1)
    if np.any(bad):
        first = pts2[np.argmax(bad)]
        raise OutOfBoundsError(
            f"{int(bad.sum())} point(s) outside grid, e.g. {first.tolist()}"
        )
    idx = np.stack(_voxel_index_columns(pts2, grid), axis=-1)
    return idx[0] if scalar else idx.reshape(pts.shape)


def _voxel_index_columns(points: np.ndarray, grid: EnvGrid) -> list[np.ndarray]:
    """Per-axis voxel index columns of (..., 3) points already in the grid.

    In-bounds points can still land on dims due to rounding right at the
    upper face; the clip keeps the floor semantics consistent.
    """
    columns = []
    for a in range(3):
        i = np.floor((points[..., a] + grid.extent[a]) / grid.resolution[a])
        columns.append(np.clip(i.astype(np.int64), 0, grid.dims[a] - 1))
    return columns


@dataclass(frozen=True, eq=False)
class LinkSdf:
    """Dense signed distance grid of one robot link in its local frame."""

    extent: np.ndarray
    resolution: np.ndarray
    values: np.ndarray
    link_id: int
    dims: np.ndarray = field(init=False)

    def __init__(self, extent, resolution, values, link_id: int):
        extent = _as_vec3(extent, "extent")
        resolution = _as_vec3(resolution, "resolution")
        dims = _exact_dims(extent, resolution, "LinkSdf")
        if np.any(dims < 2):
            raise ValidationError(f"LinkSdf needs at least 2 cells per axis, got {dims}")
        values = np.asfortranarray(values, dtype=np.float32)
        if values.shape != tuple(dims):
            raise ValidationError(
                f"values shape {values.shape} does not match dims {tuple(dims)}"
            )
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "link_id", int(link_id))
        object.__setattr__(self, "dims", dims)
        for arr in (self.extent, self.resolution, self.values, self.dims):
            arr.flags.writeable = False

    @property
    def d_far(self) -> float:
        """Sentinel distance: the largest value this grid can vouch for."""
        return float(np.min(self.extent))

    def cell_centers_1d(self, axis: int) -> np.ndarray:
        n = int(self.dims[axis])
        return -self.extent[axis] + (np.arange(n) + 0.5) * self.resolution[axis]


def trilinear_sample(sdf: LinkSdf, points: np.ndarray) -> np.ndarray:
    """Trilinearly interpolate the link SDF at points in the link frame.

    ``points`` is one point ``(3,)`` or a batch ``(..., 3)`` in any memory
    layout; the result is float32 of shape ``points.shape[:-1]``. The index
    math runs per axis on the columns ``points[..., a]``, so a batch stored
    as ``(B, 3, V)`` and viewed as ``(B, V, 3)`` (what
    :func:`linksdf.placement.grid_transform_exact` returns) is read without a
    copy. The caller's array is never written. Points outside the convex
    hull of the stored cell centers return the conservative sentinel
    ``sdf.d_far``; no extrapolation is performed.
    """
    scalar = np.ndim(points) == 1
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[-1] != 3:
        raise ValidationError(f"points must have shape (..., 3), got {pts.shape}")

    # Continuous cell coordinate per axis: cell centers sit at integer u.
    # A point is inside when clipping to [0, dims-1] leaves every u as it
    # was; NaN never compares equal, so it is outside too.
    inside = np.ones(pts.shape[:-1], dtype=bool)
    base = np.zeros(pts.shape[:-1], dtype=np.int64)
    f = []
    stride = 1
    for a in range(3):
        u = (pts[..., a] + sdf.extent[a]) / sdf.resolution[a] - 0.5
        uc = np.clip(u, 0.0, float(sdf.dims[a] - 1))
        inside &= uc == u
        i0 = np.minimum(uc.astype(np.int64), sdf.dims[a] - 2)
        f.append((uc - i0).astype(np.float32))
        base += i0 * stride
        stride *= int(sdf.dims[a])

    # Corner (dx, dy, dz) of every cell is one gather from the x-fastest
    # values shifted by dx + nx*dy + nx*ny*dz.
    nx, ny = int(sdf.dims[0]), int(sdf.dims[1])
    flat = sdf.values.ravel(order="F")  # view: x-fastest layout
    shifts = [dx + nx * (dy + ny * dz) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
    v = [np.take(flat[s:], base) for s in shifts]

    fx, fy, fz = f
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz

    c00 = v[0] * gx + v[1] * fx
    c10 = v[2] * gx + v[3] * fx
    c01 = v[4] * gx + v[5] * fx
    c11 = v[6] * gx + v[7] * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    out = c0 * gz + c1 * fz

    out[~inside] = np.float32(sdf.d_far)
    return out[0] if scalar else out


@dataclass(frozen=True, eq=False)
class SdfSampleField:
    """One link's resampled window of environment-aligned distance values.

    ``values`` covers the full window of ``window_dims`` cells per axis;
    ``anchor`` is the environment voxel index of the window's first cell.
    The window may extend past the grid; out-of-grid cells are dropped when
    fields are merged into a robot SDF.
    """

    values: np.ndarray
    anchor: np.ndarray
    d_far: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float32))
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=np.int64))

    @property
    def window_dims(self) -> tuple[int, int, int]:
        return self.values.shape


def write_link_sdf(path, sdf: LinkSdf) -> None:
    """Write a link SDF cache file (little-endian, x-fastest values)."""
    header = struct.pack(
        "<4sI3I3f3fI",
        LSDF_MAGIC,
        LSDF_VERSION,
        *(int(d) for d in sdf.dims),
        *(float(e) for e in sdf.extent),
        *(float(r) for r in sdf.resolution),
        int(sdf.link_id),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(sdf.values.ravel(order="F"), dtype="<f4").tobytes())


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """Exactly ``n`` bytes from a binary file, else ``ValidationError``.

    The size check comes before the read, so a corrupt count in a header
    cannot ask for a huge buffer.
    """
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValidationError(f"{path}: truncated {what}")
    data = fh.read(n)
    if len(data) != n:
        raise ValidationError(f"{path}: truncated {what}")
    return data


def read_link_sdf(path) -> LinkSdf:
    """Read a link SDF cache file written by :func:`write_link_sdf`."""
    header_format = "<4sI3I3f3fI"
    with open(path, "rb") as fh:
        header = _read_exact(fh, struct.calcsize(header_format), path, "header")
        magic, version, dx, dy, dz, ex, ey, ez, rx, ry, rz, link_id = struct.unpack(
            header_format, header
        )
        if magic != LSDF_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        if version != LSDF_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        raw = _read_exact(fh, 4 * dx * dy * dz, path, "values")
    values = np.frombuffer(raw, dtype="<f4").reshape((dx, dy, dz), order="F")
    return LinkSdf(
        extent=np.float64([ex, ey, ez]),
        resolution=np.float64([rx, ry, rz]),
        values=values,
        link_id=link_id,
    )
