"""Closed-loop measurement of one workload through the public linksdf API.

One process, one frame in flight: each cycle starts when the previous one
has returned, like a controller that takes the latest sensor frame. Timings
are taken around the library calls only; checks run outside the timed code.

With tracing on, spans are recorded from outside the library: a delegating
transform provider, a wrapper around ``trilinear_sample`` where placement
looks it up, and a timed iterator over the placement generator. Traced and
untraced steps alternate, so their ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import linksdf
import linksdf.placement

import inputs
import oracle

# A run is SETUPS rounds, each a fresh set-up followed by its share of the
# closed loop, so that set-up and replan samples spread over the whole run
# like the cycle samples do, instead of bunching at its start.
SETUPS = 5

# Spans that tile a replan without overlap; transform and sample run inside
# placement.
_REPLAN_SPANS = ("robot.fk", "placement.place", "query.assemble", "query.voxelize", "query.gather")


class Spans:
    """Seconds and calls per span, and counters, for one prepare or cycle."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class TracedProvider:
    """Transform provider that times and counts calls into another one."""

    def __init__(self, inner, spans: Spans):
        self.window = inner.window
        self._inner = inner
        self._spans = spans

    def transform(self, rotations, delta_t):
        t0 = perf_counter()
        out = self._inner.transform(rotations, delta_t)
        self._spans.add("placement.transform", perf_counter() - t0)
        self._spans.count("placement.transform_points", out.shape[0] * out.shape[1])
        return out


@contextlib.contextmanager
def traced_sampling(spans: Spans):
    """Time every ``trilinear_sample`` call that placement makes."""
    original = linksdf.placement.trilinear_sample

    def sample(sdf, points):
        t0 = perf_counter()
        out = original(sdf, points)
        spans.add("grids.sample", perf_counter() - t0)
        spans.count("grids.samples", out.size)
        return out

    linksdf.placement.trilinear_sample = sample
    try:
        yield
    finally:
        linksdf.placement.trilinear_sample = original


def _timed_fields(fields, spans: Spans):
    """(config, field) pairs; time inside the generator is placement."""
    it = iter(fields)
    while True:
        t0 = perf_counter()
        try:
            c, _, f = next(it)
        except StopIteration:
            spans.add("placement.place", perf_counter() - t0)
            return
        spans.add("placement.place", perf_counter() - t0)
        spans.count("placement.fields")
        spans.count("placement.field_bytes_computed", f.values.nbytes)
        yield c, f


@dataclass
class Rig:
    """What set-up builds once per run: robot, link SDFs, grid, provider."""

    robot: linksdf.RobotModel
    geometry_links: list[int]
    sdfs: list
    grid: linksdf.EnvGrid
    provider: linksdf.ExactTransformProvider
    d_far: float

    @classmethod
    def build(cls, spec: inputs.Spec) -> "Rig":
        robot = linksdf.RobotModel.from_json(spec.robot_path)
        links = [i for i, link in enumerate(robot.links) if link.geometry is not None]
        sdfs = [
            linksdf.build_link_sdf(
                robot.links[i].geometry, inputs.LINK_EXTENT, inputs.LINK_RES, link_id=i
            )
            for i in links
        ]
        grid = linksdf.EnvGrid(inputs.GRID_EXTENT, inputs.GRID_RES)
        window = linksdf.WindowGeometry.build(inputs.LINK_EXTENT, grid)
        return cls(
            robot=robot,
            geometry_links=links,
            sdfs=sdfs,
            grid=grid,
            provider=linksdf.ExactTransformProvider(window),
            d_far=min(s.d_far for s in sdfs),
        )

    @property
    def geometries(self) -> list:
        return [self.robot.links[i].geometry for i in self.geometry_links]


def prepare(rig: Rig, q: np.ndarray, spans: Spans | None = None):
    """FK, placement and assembly for one trajectory: (link poses, batch)."""
    t0 = perf_counter()
    poses = linksdf.forward_kinematics_batch(rig.robot, linksdf.ConfigBatch(q))
    if spans is not None:
        spans.add("robot.fk", perf_counter() - t0)
    poses = linksdf.LinkPoseBatch(
        rotations=poses.rotations[:, rig.geometry_links],
        translations=poses.translations[:, rig.geometry_links],
    )
    if spans is None:
        placed = linksdf.place_links_batch(rig.sdfs, poses, rig.grid, rig.provider)
        fields = ((c, f) for c, _, f in placed)
        return poses, linksdf.assemble_robot_sdfs(fields, rig.grid, len(q), rig.d_far)
    provider = TracedProvider(rig.provider, spans)
    fields = _timed_fields(linksdf.place_links_batch(rig.sdfs, poses, rig.grid, provider), spans)
    t0 = perf_counter()
    with traced_sampling(spans):
        batch = linksdf.assemble_robot_sdfs(fields, rig.grid, len(q), rig.d_far)
    spans.add("query.assemble", perf_counter() - t0 - spans.seconds["placement.place"])
    return poses, batch


def cycle(batch, points: np.ndarray, spans: Spans | None = None):
    """One control cycle: voxelize the frame, gather and min per waypoint."""
    t0 = perf_counter()
    obstacles = linksdf.voxelize_pointcloud(points, batch.grid)
    t1 = perf_counter()
    d, stats = linksdf.query_min_distances(batch, obstacles, return_stats=True)
    if spans is not None:
        spans.add("query.voxelize", t1 - t0)
        spans.add("query.gather", perf_counter() - t1)
        spans.count("query.gathers", stats["gathers"])
    return obstacles, d, stats


def cycle_problems(frame: inputs.Frame, obstacles, d, stats, n_configs, d_far) -> list[str]:
    """Exact checks every cycle must pass; empty when it is correct."""
    problems = []
    if obstacles.n_points != len(frame.points):
        problems.append(f"n_points {obstacles.n_points} != {len(frame.points)}")
    if obstacles.n_dropped != frame.n_bad:
        problems.append(f"n_dropped {obstacles.n_dropped} != {frame.n_bad}")
    if stats["gathers"] != n_configs * obstacles.n_occupied:
        problems.append(f"gathers {stats['gathers']} != C*|occ| {n_configs * obstacles.n_occupied}")
    if d.shape != (n_configs,) or not np.all(np.isfinite(d)) or np.any(d > np.float32(d_far)):
        problems.append("distances are not C finite values at most the sentinel")
    return problems


def live_voxel_fraction(batch, chunk: int = 32) -> float:
    """Share of voxels below the sentinel for at least one waypoint."""
    live = np.zeros(batch.values.shape[1:], dtype=bool)
    for c0 in range(0, batch.n_configs, chunk):
        live |= (batch.values[c0 : c0 + chunk] < np.float32(batch.d_far_global)).any(axis=0)
    return float(live.mean())


@dataclass
class Checked:
    """Cycle outputs kept for the oracle: poses, occupied voxels, distances."""

    poses: linksdf.LinkPoseBatch
    voxels: np.ndarray
    reported: np.ndarray


@dataclass
class Run:
    """Everything one run measured, before it is reduced to metrics."""

    setup_s: list[float] = field(default_factory=list)
    replan_s: list[float] = field(default_factory=list)
    replan_traced_s: list[float] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    cycle_traced_s: list[float] = field(default_factory=list)
    prepare_spans: list[Spans] = field(default_factory=list)
    cycle_spans: list[Spans] = field(default_factory=list)
    covered_replan_s: float = 0.0
    frame_counts: dict = field(default_factory=dict)  # frame index -> counts
    checked: list[Checked] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    batch_bytes: int = 0
    live_fraction: float = 0.0
    peak_rss_mib: float = 0.0
    cycles_checked: int = 0
    distances_checked: int = 0
    violations: int = 0
    worst_excess_m: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


class Workload:
    """Runs one workload spec for one seed: set-up, closed loop, checks."""

    def __init__(self, spec: inputs.Spec, seed: int, trace: bool):
        self.spec = spec
        self.seed = seed
        self.trace = trace
        self.run = Run()
        self.checked_frames = set(inputs.checked_frames(spec, seed))
        self.trajectories = 0  # replan trajectories started so far

    def _set_up(self):
        """Build rig and inputs; on stream and long-horizon also prepare once."""
        t0 = perf_counter()
        rig = Rig.build(self.spec)
        frames = inputs.frames(self.spec, self.seed)
        prepared = None
        if not self.spec.replan:
            q = inputs.trajectory(self.spec, rig.robot.position_limits(), self.seed)
            prepared = self._replan(rig, q, frames, traced=self.trace)
        self.run.setup_s.append(perf_counter() - t0)
        return rig, frames, prepared

    def _replan(self, rig: Rig, q, frames, traced: bool):
        """Prepare a trajectory and run its first cycle, timed as one replan."""
        spans = Spans() if traced else None
        self.run.attempted += 1
        t0 = perf_counter()
        try:
            poses, batch = prepare(rig, q, spans)
            obstacles, d, stats = cycle(batch, frames[0].points, spans)
        except Exception as exc:  # a failing prepare is counted, not fatal
            self.run.fail(f"prepare: {type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - t0
        if traced:
            self.run.replan_traced_s.append(elapsed)
            self.run.prepare_spans.append(spans)
            self.run.covered_replan_s += sum(spans.seconds[s] for s in _REPLAN_SPANS)
        else:
            self.run.replan_s.append(elapsed)
        self._record(rig, batch, poses, frames, 0, obstacles, d, stats)
        return poses, batch

    def _cycle(self, rig, batch, poses, frames, index: int, traced: bool) -> None:
        spans = Spans() if traced else None
        self.run.attempted += 1
        t0 = perf_counter()
        try:
            obstacles, d, stats = cycle(batch, frames[index].points, spans)
        except Exception as exc:  # a failing cycle is counted, not fatal
            self.run.fail(f"cycle: {type(exc).__name__}: {exc}")
            return
        elapsed = perf_counter() - t0
        if traced:
            self.run.cycle_traced_s.append(elapsed)
            self.run.cycle_spans.append(spans)
        else:
            self.run.cycle_s.append(elapsed)
        self._record(rig, batch, poses, frames, index, obstacles, d, stats)

    def _record(self, rig, batch, poses, frames, index, obstacles, d, stats) -> None:
        """Check a cycle's outputs; keep the first pass's counts and oracle cases."""
        problems = cycle_problems(frames[index], obstacles, d, stats, batch.n_configs, rig.d_far)
        if problems:
            self.run.fail(f"cycle on frame {index}: " + "; ".join(problems))
        if index in self.run.frame_counts:
            return
        self.run.frame_counts[index] = (
            obstacles.n_points,
            obstacles.n_dropped,
            obstacles.n_occupied,
            stats["gathers"],
            stats["gathers"] * batch.values.itemsize,
        )
        if index in self.checked_frames:
            self.run.checked.append(Checked(poses, obstacles.indices, d))

    def execute(self, seconds: float) -> Run:
        """Set up and loop SETUPS times, then read memory and run the oracle."""
        run = self.run
        left = seconds  # loop time still to spend; an overrun shortens later rounds
        for rounds_left in range(SETUPS, 0, -1):
            state = None  # release the previous batch before building the next
            state = self._set_up()
            start = perf_counter()
            deadline = start + max(left, 0.0) / rounds_left
            if self.spec.replan:
                self._replan_loop(*state[:2], deadline)
            else:
                self._cycle_loop(*state, deadline)
            left -= perf_counter() - start
        rig, _, prepared = state
        run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if prepared is not None:
            run.batch_bytes = prepared[1].values.nbytes
            run.live_fraction = live_voxel_fraction(prepared[1])
        state = prepared = None
        self._check_with_oracle(rig)
        return run

    def _cycle_loop(self, rig, frames, prepared, deadline) -> None:
        """Cycle over the frames until the deadline, at least one pass."""
        if prepared is None:
            raise RuntimeError("set-up failed: " + "; ".join(self.run.errors))
        poses, batch = prepared
        n = len(frames)
        i = 0
        while i < n or perf_counter() < deadline:
            traced = self.trace and (i + i // n) % 2 == 1
            self._cycle(rig, batch, poses, frames, i % n, traced)
            i += 1

    def _replan_loop(self, rig, frames, deadline) -> None:
        """New trajectories until the deadline, at least one; each one is
        prepared, then queried on every frame."""
        run = self.run
        limits = rig.robot.position_limits()
        first = True
        while first or perf_counter() < deadline:
            first = False
            k = self.trajectories
            self.trajectories += 1
            q = inputs.trajectory(self.spec, limits, self.seed, k)
            prepared = self._replan(rig, q, frames, traced=self.trace and k % 2 == 0)
            if prepared is None:
                continue
            poses, batch = prepared
            for i in range(1, len(frames)):
                self._cycle(rig, batch, poses, frames, i, self.trace and i % 2 == 1)
            if k == 0:
                run.batch_bytes = batch.values.nbytes
                run.live_fraction = live_voxel_fraction(batch)
            prepared = batch = None

    def _check_with_oracle(self, rig: Rig) -> None:
        run = self.run
        floor = oracle.truncation_floor(rig.geometries)
        for item in run.checked:
            targets = rig.grid.voxel_centers(item.voxels)
            exact = oracle.distances(
                rig.geometries, item.poses.rotations, item.poses.translations, targets, rig.d_far
            )
            violations, unexplained = oracle.classify(item.reported, exact, floor)
            run.cycles_checked += 1
            run.distances_checked += len(exact)
            run.violations += int(violations.sum())
            excess = item.reported.astype(np.float64) - exact - oracle.BUDGET
            run.worst_excess_m = max(run.worst_excess_m, float(excess.max()))
            if unexplained.any():
                run.fail(
                    f"oracle: {int(unexplained.sum())} distance(s) off by more than "
                    f"{oracle.BUDGET:.4f} m below the truncation floor {floor:.3f} m"
                )
