"""Brute-force distance oracle from the exact link primitives.

Independent of the library's own SDF code: each primitive's distance is
written out here, and every (configuration, link) pair is checked against
every occupied voxel centre within reach of the sentinel.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import GRID_RES, LINK_EXTENT, LINK_RES

# The paper's error budget: half a voxel diagonal of the environment grid
# plus half a cell diagonal of the link grid.
BUDGET = math.sqrt(3) / 2 * (GRID_RES + LINK_RES)
# float32 storage of distances up to ~1 m.
_TOLERANCE = 1e-6


def _distance(geometry, p: np.ndarray) -> np.ndarray:
    """Signed distance of link-frame points to one primitive."""
    kind = type(geometry).__name__
    if kind == "Sphere":
        return np.linalg.norm(p - geometry.center, axis=-1) - geometry.radius
    if kind == "Capsule":
        t = np.clip(p @ geometry.axis, -geometry.half_length, geometry.half_length)
        return np.linalg.norm(p - t[:, None] * geometry.axis, axis=-1) - geometry.radius
    if kind == "Box":
        q = np.abs(p) - geometry.half_extents
        return np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(q.max(axis=-1), 0.0)
    raise TypeError(f"the oracle has no distance for {kind}")


def surface_radius(geometry) -> float:
    """Largest distance from the link origin to the primitive's surface."""
    kind = type(geometry).__name__
    if kind == "Sphere":
        return float(np.linalg.norm(geometry.center)) + geometry.radius
    if kind == "Capsule":
        return geometry.half_length + geometry.radius
    if kind == "Box":
        return float(np.linalg.norm(geometry.half_extents))
    raise TypeError(f"the oracle has no extent for {kind}")


def truncation_floor(geometries) -> float:
    """Smallest true distance at which the link windows may miss an obstacle.

    A window keeps the cells within ``LINK_EXTENT`` of its central voxel,
    which lies within half a voxel diagonal of the link origin, so every
    voxel closer than ``LINK_EXTENT - sqrt(3)/2 * GRID_RES`` to the origin
    is seen. An obstacle closer than that minus the surface radius to a link
    is therefore never lost; beyond it the reported value may overshoot.
    """
    reach = max(surface_radius(g) for g in geometries)
    return LINK_EXTENT - math.sqrt(3) / 2 * GRID_RES - reach


def distances(geometries, rotations, translations, targets, clamp: float) -> np.ndarray:
    """Exact min distance per configuration, clamped at ``clamp``.

    ``rotations`` (C, L, 3, 3) and ``translations`` (C, L, 3) are the link
    poses, ``targets`` (N, 3) the occupied voxel centres. Voxels farther
    than ``clamp`` plus the surface radius from a link origin cannot come
    below the clamp and are skipped.
    """
    best = np.full(rotations.shape[0], clamp, dtype=np.float64)
    for li, geometry in enumerate(geometries):
        reach2 = (clamp + surface_radius(geometry)) ** 2
        for c in range(rotations.shape[0]):
            diff = targets - translations[c, li]
            near = np.einsum("nj,nj->n", diff, diff) < reach2
            if near.any():
                local = diff[near] @ rotations[c, li]  # rows of R^T (p - t)
                best[c] = min(best[c], float(_distance(geometry, local).min()))
    return best


def classify(reported: np.ndarray, exact: np.ndarray, floor: float):
    """(violations, unexplained) boolean masks over the checked distances.

    A violation misses the budget. It is explained by window truncation, a
    known limit of the current sentinel, only when the value is too high and
    the true distance is at least ``floor``; every other violation is an
    error.
    """
    error = reported.astype(np.float64) - exact
    violations = np.abs(error) > BUDGET + _TOLERANCE
    explained = (error > 0) & (exact >= floor)
    return violations, violations & ~explained
