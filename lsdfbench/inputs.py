"""Seeded workload inputs: robots, joint trajectories and point-cloud frames.

Everything here is a pure function of the workload spec and the seed, drawn
from independent random streams so that one input never shifts another. The
program under test only ever sees the arrays these functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROBOTS = Path(__file__).resolve().parent / "robots"

# Environment grid and link SDFs shared by every workload.
GRID_EXTENT = 1.0
GRID_RES = 0.04
LINK_EXTENT = 0.48
LINK_RES = 0.01

# Independent random streams per seed.
_TRAJECTORY, _FRAMES, _CHECKED = 1, 2, 3


@dataclass(frozen=True)
class Spec:
    """One workload: which robot, how many waypoints, which frames."""

    name: str
    robot: str
    n_configs: int
    trajectory: str  # "smooth" through via-points, or "random" configurations
    frames: str  # "dense" uniform clouds, or a "person" cluster walking in
    n_frames: int
    replan: bool  # a new trajectory per step instead of one prepared in setup
    n_checked: int = 8  # frames whose every distance is checked by the oracle

    @property
    def robot_path(self) -> Path:
        return ROBOTS / self.robot


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("stream", "arm3.json", 300, "smooth", "dense", 16, replan=False),
        Spec("long-horizon", "arm3.json", 1000, "random", "person", 24, replan=False),
        Spec("replan", "arm6_primitives.json", 300, "smooth", "person", 16, replan=True),
    )
}


@dataclass(frozen=True, eq=False)
class Frame:
    """One point cloud; ``n_bad`` rows are non-finite or outside the grid."""

    points: np.ndarray
    n_bad: int


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _frame(rng, *parts: np.ndarray) -> Frame:
    """Shuffle the parts into one cloud and count the rows voxelizing must drop."""
    points = np.concatenate(parts)
    points = points[rng.permutation(len(points))]
    with np.errstate(invalid="ignore"):
        kept = np.all((points >= -GRID_EXTENT) & (points < GRID_EXTENT), axis=-1)
    return Frame(points=points, n_bad=int(len(points) - kept.sum()))


def trajectory(spec: Spec, limits: np.ndarray, seed: int, index: int = 0) -> np.ndarray:
    """(C, D) joint configurations inside ``limits`` for trajectory ``index``.

    "smooth" eases between six random via-points (zero velocity at each);
    "random" draws every waypoint independently.
    """
    rng = _rng(seed, _TRAJECTORY, index)
    lo, hi = limits[:, 0], limits[:, 1]
    if spec.trajectory == "random":
        return rng.uniform(lo, hi, size=(spec.n_configs, len(lo)))
    n_via = 6
    via = rng.uniform(lo, hi, size=(n_via, len(lo)))
    s = np.linspace(0.0, n_via - 1, spec.n_configs)
    k = np.minimum(s.astype(np.int64), n_via - 2)
    u = s - k
    ease = (u * u * (3.0 - 2.0 * u))[:, None]
    return via[k] + (via[k + 1] - via[k]) * ease


def _nonfinite_rows(rng, n: int) -> np.ndarray:
    rows = rng.uniform(-GRID_EXTENT, GRID_EXTENT, size=(n, 3))
    rows[np.arange(n), rng.integers(0, 3, n)] = rng.choice([np.nan, np.inf, -np.inf], n)
    return rows


def _dense_frame(rng) -> Frame:
    """About 20k points uniform in the grid, 3 % non-finite, 3 % outside it."""
    n = int(rng.integers(19_000, 21_001))
    n_nonfinite = n_outside = round(0.03 * n)
    inside = rng.uniform(-GRID_EXTENT, GRID_EXTENT, size=(n - n_nonfinite - n_outside, 3))
    outside = rng.uniform(-GRID_EXTENT, GRID_EXTENT, size=(n_outside, 3))
    axis = rng.integers(0, 3, n_outside)
    outside[np.arange(n_outside), axis] = rng.choice([-1.0, 1.0], n_outside) * rng.uniform(
        1.02 * GRID_EXTENT, 1.5 * GRID_EXTENT, n_outside
    )
    return _frame(rng, inside, outside, _nonfinite_rows(rng, n_nonfinite))


def _person_frame(rng, center_xy: np.ndarray) -> Frame:
    """About 3k points: a standing person, the floor under them, 1 % non-finite.

    Two thirds of the points lie on a capsule of radius 0.18 m and 1.71 m
    height centred at ``center_xy``; for centres within 0.75 m of the base
    axis it stays inside the grid. The rest lie on the floor, the bottom
    voxel layer, out of reach of every link window: they add scattered
    gathers across the whole batch without giving any waypoint a closer
    obstacle.
    """
    n = int(rng.integers(2_900, 3_101))
    n_nonfinite = round(0.01 * n)
    n_floor = (n - n_nonfinite) // 3
    m = n - n_nonfinite - n_floor
    radius, z_lo, z_hi = 0.18, -0.75, 0.6
    side_area = 2 * np.pi * radius * (z_hi - z_lo)
    on_side = rng.random(m) < side_area / (side_area + 4 * np.pi * radius**2)
    theta = rng.uniform(0, 2 * np.pi, m)
    body = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), rng.uniform(z_lo, z_hi, m)], axis=-1
    )
    cap = rng.normal(size=(m, 3))
    cap *= radius / np.linalg.norm(cap, axis=-1, keepdims=True)
    cap[:, 2] += np.where(cap[:, 2] >= 0, z_hi, z_lo)
    body[~on_side] = cap[~on_side]
    body[:, :2] += center_xy
    body += rng.normal(scale=0.01, size=body.shape)
    floor = rng.uniform(-GRID_EXTENT, GRID_EXTENT, size=(n_floor, 3))
    floor[:, 2] = -GRID_EXTENT + GRID_RES * rng.random(n_floor)
    return _frame(rng, body, floor, _nonfinite_rows(rng, n_nonfinite))


def frames(spec: Spec, seed: int) -> list[Frame]:
    """The workload's frame set, replayed in order by the closed loop.

    A "person" walks straight in from 0.75 m to 0.40 m from the robot base
    along a seeded heading, so early frames sit at the edge of what the
    0.48 m link windows can see.
    """
    rng = _rng(seed, _FRAMES)
    if spec.frames == "dense":
        return [_dense_frame(rng) for _ in range(spec.n_frames)]
    heading = rng.uniform(0, 2 * np.pi)
    direction = np.array([np.cos(heading), np.sin(heading)])
    distances = np.linspace(0.75, 0.40, spec.n_frames)
    return [_person_frame(rng, r * direction) for r in distances]


def checked_frames(spec: Spec, seed: int) -> list[int]:
    """Seed-chosen frame indices whose cycle outputs go to the oracle."""
    rng = _rng(seed, _CHECKED)
    k = min(spec.n_checked, spec.n_frames)
    return sorted(rng.choice(spec.n_frames, size=k, replace=False).tolist())
