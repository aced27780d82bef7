"""Alignment and resampling of link SDFs onto the environment grid.

For a link pose (R, T) the placement splits T into an integer voxel anchor
plus a sub-voxel residual, builds the set of window cell centers in
link-normalized coordinates, maps them into the link frame with the inverse
rigid transform, and samples the link SDF there. The result is a per-link
window of distance values that lands exactly on environment voxel centers,
ready for min-merging.

Window cells are ordered x-fastest; cell offsets are measured from the
center of the voxel containing T, so a window of even width ``W`` spans
offsets ``(m - W/2) * r_e`` for ``m in [0, W)`` per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

from .errors import NoOverlapError, ValidationError
from .grids import EnvGrid, LinkSdf, SdfSampleField, trilinear_sample
from .robot import LinkPoseBatch

_ISOTROPY_RTOL = 1e-9


def window_dims(extent_r, grid: EnvGrid) -> np.ndarray:
    """Window width per axis: 2*extent_r / r_e, which must be an even integer."""
    extent_r = np.broadcast_to(np.asarray(extent_r, dtype=np.float64), (3,))
    ratio = 2.0 * extent_r / grid.resolution
    dims = np.rint(ratio)
    if np.any(np.abs(ratio - dims) > 1e-6 * np.maximum(ratio, 1.0)):
        raise ValidationError(
            f"link extent {extent_r} is not an integer multiple of the "
            f"environment resolution {grid.resolution}"
        )
    dims = dims.astype(np.int64)
    if np.any(dims % 2 != 0):
        raise ValidationError(f"window width must be even per axis, got {dims}")
    if np.any(dims < 2):
        raise ValidationError(f"window width must be at least 2, got {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Integer window anchor plus sub-voxel residual for one or more poses.

    ``anchor`` is the environment voxel index of the window's first cell;
    ``delta_t`` is in ``[-r_e/2, r_e/2)`` per axis, less an ulp-scale guard
    below (see ``compute_alignment``), and satisfies
    ``voxel_center(anchor + W/2) + delta_t == T``.
    """

    anchor: np.ndarray
    delta_t: np.ndarray


def compute_alignment(translation, grid: EnvGrid, extent_r) -> AlignmentResult:
    """Split positions into voxel anchors and sub-voxel residuals.

    Accepts a single (3,) position or a batch (..., 3). Positions may lie
    outside the grid as long as their windows still overlap it; raises
    ``NoOverlapError`` otherwise.

    Snap rule: the voxel index is the floor of the computed quotient
    ``(T + extent) / resolution``, as in ``voxelize_pointcloud``, then moved
    by one wherever the residual ``T - voxel_center`` computes to at least
    ``r_e/2`` or, past an ulp-scale guard, below ``-r_e/2``. The residual,
    not the quotient, decides: ``delta_t`` stays in ``[-r_e/2, r_e/2)`` up
    to the guard, so ``voxel_center(anchor + W/2) + delta_t == T``, and a
    point whose residual computes to exactly ``+-r_e/2``, one on a face,
    goes to the upper voxel. A face point whose residual rounds to just
    below ``r_e/2`` stays in the lower one. ``voxelize_pointcloud`` floors
    only; under both rules a point lies within half a cell of its voxel's
    center on each axis.
    """
    w = window_dims(extent_r, grid)
    t = np.asarray(translation, dtype=np.float64)
    scalar = t.ndim == 1
    pos = t.reshape(-1, 3)

    # Unchecked floor index; windows may hang off the grid.
    j = np.floor((pos + grid.extent) / grid.resolution).astype(np.int64)
    delta = pos - grid.voxel_centers(j)
    half = 0.5 * grid.resolution
    # Rounding at voxel faces can push the residual out of the half-open
    # range; shift the index and recompute so the identity stays exact.
    # Face points belong to the upper voxel (residual -r/2, floor
    # semantics), so the lower check gets an ulp-scale guard instead of
    # flipping on subtraction noise.
    slack = 32.0 * np.finfo(np.float64).eps * np.maximum(grid.extent, 1.0)
    j += (delta >= half).astype(np.int64)
    j -= (delta < -half - slack).astype(np.int64)
    delta = pos - grid.voxel_centers(j)

    anchor = j - w // 2
    outside = np.any((anchor >= grid.dims) | (anchor + w <= 0), axis=-1)
    if np.any(outside):
        first = pos[np.argmax(outside)]
        raise NoOverlapError(
            f"{int(outside.sum())} window(s) miss the grid entirely, "
            f"e.g. at {first.tolist()}"
        )
    if scalar:
        return AlignmentResult(anchor=anchor[0], delta_t=delta[0])
    return AlignmentResult(
        anchor=anchor.reshape(t.shape[:-1] + (3,)),
        delta_t=delta.reshape(t.shape),
    )


def _iso_extent(extent_r) -> float:
    """Scalar link extent; rotation only commutes with isotropic scaling."""
    extent_r = np.broadcast_to(np.asarray(extent_r, dtype=np.float64), (3,))
    if np.any(np.abs(extent_r - extent_r[0]) > _ISOTROPY_RTOL * extent_r[0]):
        raise ValidationError(
            f"placement requires an isotropic link extent, got {extent_r}"
        )
    return float(extent_r[0])


def canonical_points(extent_r, grid: EnvGrid) -> np.ndarray:
    """Window cell centers in link-normalized coordinates, x-fastest order.

    Offsets are taken from the center of the anchor window's central voxel
    (the voxel containing T) and divided by the link extent, so resampled
    values land exactly on environment voxel centers.
    """
    e_r = _iso_extent(extent_r)
    w = window_dims(extent_r, grid)
    offs = [
        (np.arange(w[a]) - w[a] // 2) * grid.resolution[a] / e_r for a in range(3)
    ]
    zz, yy, xx = np.meshgrid(offs[2], offs[1], offs[0], indexing="ij")
    return np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)


def sphere_mask(extent_r, grid: EnvGrid) -> np.ndarray:
    """Boolean keep-mask over the window, shape (Wx, Wy, Wz).

    A cell is kept when its whole cube fits strictly in the ball of radius
    ``e_r + ||r_e||/2`` around the window's central voxel center, i.e. its
    center lies within ``e_r``. Cells right on the boundary sample outside
    the stored grid and would only return the sentinel, so they are
    excluded. Dropped cells carry the far sentinel and are skipped during
    resampling; the kept fraction tends to pi/6 ~ 0.524.
    """
    e_r = _iso_extent(extent_r)
    w = window_dims(extent_r, grid)
    offs = [
        (np.arange(w[a]) - w[a] // 2) * grid.resolution[a] for a in range(3)
    ]
    xx, yy, zz = np.meshgrid(offs[0], offs[1], offs[2], indexing="ij")
    r2 = xx * xx + yy * yy + zz * zz
    return r2 < e_r * e_r * (1.0 - 1e-12)


def grid_transform_exact(rotations, delta_t, extent_r, points: np.ndarray):
    """Link-frame sample coordinates for environment-aligned window cells.

    Computes ``G = R^T P + delta_t_inv`` with
    ``delta_t_inv = -R^T (delta_t / e_r)``: the inverse map telling where
    each environment sample lands in the (normalized) link frame.

    ``rotations`` is (3, 3) or (B, 3, 3); ``delta_t`` matches with (3,) or
    (B, 3); ``points`` is (V, 3). The product is formed in column layout,
    ``(B, 3, V)`` with each coordinate's V values contiguous, and returned
    as a (V, 3) or (B, V, 3) view of it, so the sampler reads each column
    without a copy. The values are bit for bit those of the row form
    ``points @ r + delta_t_inv``. No input is written.
    """
    e_r = _iso_extent(extent_r)
    r = np.asarray(rotations, dtype=np.float64)
    dt = np.asarray(delta_t, dtype=np.float64)
    single = r.ndim == 2
    r = r.reshape(-1, 3, 3)
    dt = dt.reshape(-1, 3)

    g = np.swapaxes(r, 1, 2) @ points.T
    dt_inv = -np.einsum("bj,bjk->bk", dt / e_r, r)
    g += dt_inv[:, :, None]
    g = np.swapaxes(g, 1, 2)
    return g[0] if single else g


@dataclass(frozen=True, eq=False)
class WindowGeometry:
    """Fixed per-(extent, grid) placement data shared by all links/poses."""

    grid: EnvGrid
    extent: float
    dims: np.ndarray
    points: np.ndarray
    mask: np.ndarray
    masked_points: np.ndarray

    @classmethod
    def build(cls, extent_r, grid: EnvGrid) -> "WindowGeometry":
        e_r = _iso_extent(extent_r)
        dims = window_dims(extent_r, grid)
        points = canonical_points(extent_r, grid)
        mask = sphere_mask(extent_r, grid)
        masked_points = points[mask.ravel(order="F")]
        return cls(
            grid=grid,
            extent=e_r,
            dims=dims,
            points=points,
            mask=mask,
            masked_points=masked_points,
        )

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_masked(self) -> int:
        return len(self.masked_points)

    def matches_link(self, sdf: LinkSdf) -> bool:
        return bool(
            np.all(np.abs(sdf.extent - self.extent) <= 1e-9 * self.extent)
        )


class TransformProvider(Protocol):
    """Maps poses to link-frame sample coordinates for the kept window cells."""

    window: WindowGeometry

    def transform(self, rotations: np.ndarray, delta_t: np.ndarray) -> np.ndarray:
        """(B, 3, 3), (B, 3) -> (B, n_masked, 3) normalized coordinates."""
        ...


class ExactTransformProvider:
    """Deterministic matrix-product transform of the canonical point set."""

    def __init__(self, window: WindowGeometry):
        self.window = window

    def transform(self, rotations: np.ndarray, delta_t: np.ndarray) -> np.ndarray:
        return grid_transform_exact(
            rotations, delta_t, self.window.extent, self.window.masked_points
        )


def place_link(
    sdf: LinkSdf,
    rotation: np.ndarray,
    translation: np.ndarray,
    grid: EnvGrid,
    provider: TransformProvider,
) -> SdfSampleField:
    """Resample one link SDF onto its environment-aligned window.

    The one-pose case of :func:`place_links_batch`: kept window cells get
    the trilinearly interpolated link SDF value at the transformed sample
    position; dropped (masked) cells carry the link's far sentinel.
    """
    poses = LinkPoseBatch(
        rotations=np.asarray(rotation, dtype=np.float64).reshape(1, 1, 3, 3),
        translations=np.asarray(translation, dtype=np.float64).reshape(1, 1, 3),
    )
    ((_, _, field),) = place_links_batch([sdf], poses, grid, provider, chunk=1)
    return field


def place_links_batch(
    sdfs: Sequence[LinkSdf],
    poses: LinkPoseBatch,
    grid: EnvGrid,
    provider: TransformProvider,
    chunk: int = 8,
) -> Iterator[tuple[int, int, SdfSampleField]]:
    """Resample every (configuration, link) pair in one batched pass.

    Yields ``(config_index, link_index, field)`` lazily, grouped by link and
    chunked over configurations so sample buffers stay bounded. All
    placements are pure and independent; consumers may merge in any order.
    """
    window = provider.window
    n_configs, n_links = poses.n_configs, poses.n_links
    if len(sdfs) != n_links:
        raise ValidationError(f"{len(sdfs)} SDFs for {n_links} links")
    for sdf in sdfs:
        if not window.matches_link(sdf):
            raise ValidationError(
                f"link {sdf.link_id}: extent {sdf.extent} does not match "
                f"provider window extent {window.extent}"
            )

    align = compute_alignment(
        poses.translations.reshape(-1, 3), grid, window.extent
    )
    anchors = align.anchor.reshape(n_configs, n_links, 3)
    deltas = align.delta_t.reshape(n_configs, n_links, 3)
    mask_flat = window.mask.ravel(order="F")

    for li in range(n_links):
        sdf = sdfs[li]
        for c0 in range(0, n_configs, chunk):
            c1 = min(c0 + chunk, n_configs)
            g = provider.transform(poses.rotations[c0:c1, li], deltas[c0:c1, li])
            samples = trilinear_sample(sdf, g * window.extent)
            for ci in range(c0, c1):
                flat = np.full(window.n_cells, np.float32(sdf.d_far), dtype=np.float32)
                flat[mask_flat] = samples[ci - c0]
                yield ci, li, SdfSampleField(
                    values=flat.reshape(tuple(window.dims), order="F"),
                    anchor=anchors[ci, li],
                    d_far=sdf.d_far,
                )
