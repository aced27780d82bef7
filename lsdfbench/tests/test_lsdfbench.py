"""Tests of the benchmark itself: seeded inputs, exact counts, the oracle.

Run from the repository root with ``python -m pytest lsdfbench/tests -q``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import linksdf
import measure
import oracle
import report
import run

# Kept cells of a 0.48 m link window on a 4 cm grid: the 24^3 window
# masked to the inscribed ball.
KEPT_CELLS = 7123


def small(name, **changes):
    spec = inputs.WORKLOADS[name]
    return dataclasses.replace(spec, **(dict(n_configs=4, n_frames=3, n_checked=2) | changes))


@pytest.fixture(scope="module")
def rigs():
    return {robot: measure.Rig.build(small(name)) for name, robot in
            (("stream", "arm3.json"), ("replan", "arm6_primitives.json"))}


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, rigs):
    spec = small(name)
    limits = rigs[spec.robot].robot.position_limits()

    def draw(seed):
        frames = inputs.frames(spec, seed)
        return (
            [f.points for f in frames],
            [f.n_bad for f in frames],
            inputs.trajectory(spec, limits, seed),
            inputs.checked_frames(spec, seed),
        )

    a, b, c = draw(7), draw(7), draw(8)
    for x, y in zip(a[0], b[0]):
        np.testing.assert_array_equal(x, y)
    assert a[1] == b[1] and a[3] == b[3]
    np.testing.assert_array_equal(a[2], b[2])
    assert not np.array_equal(a[2], c[2])
    assert not any(np.array_equal(x, y, equal_nan=True) for x, y in zip(a[0], c[0]))


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_trajectories_stay_inside_joint_limits(name, rigs):
    spec = small(name, n_configs=50)
    limits = rigs[spec.robot].robot.position_limits()
    for k in range(3):
        q = inputs.trajectory(spec, limits, seed=3, index=k)
        assert q.shape == (50, len(limits))
        assert np.all((q >= limits[:, 0]) & (q <= limits[:, 1]))


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_frame_point_counts_reconcile(name):
    grid = linksdf.EnvGrid(inputs.GRID_EXTENT, inputs.GRID_RES)
    for frame in inputs.frames(inputs.WORKLOADS[name], seed=5)[:4]:
        points = frame.points
        nonfinite = int((~np.isfinite(points).all(axis=1)).sum())
        finite = points[np.isfinite(points).all(axis=1)]
        e = inputs.GRID_EXTENT
        outside = int(((finite < -e) | (finite >= e)).any(axis=1).sum())
        obstacles = linksdf.voxelize_pointcloud(points, grid)
        kept = len(points) - frame.n_bad
        assert frame.n_bad == nonfinite + outside > 0
        assert obstacles.n_points == len(points) == kept + obstacles.n_dropped
        assert 0 < obstacles.n_occupied <= kept


def test_deterministic_counts(rigs):
    spec = small("stream")
    rig = rigs[spec.robot]
    q = inputs.trajectory(spec, rig.robot.position_limits(), seed=2)
    frame = inputs.frames(spec, seed=2)[0]
    n_pairs = spec.n_configs * len(rig.sdfs)
    counts = []
    for _ in range(2):
        spans = measure.Spans()
        _, batch = measure.prepare(rig, q, spans)
        obstacles, _, stats = measure.cycle(batch, frame.points, spans)
        counts.append(dict(spans.counts))
        assert spans.counts["placement.transform_points"] == n_pairs * KEPT_CELLS
        assert spans.counts["grids.samples"] == n_pairs * KEPT_CELLS
        assert spans.counts["placement.fields"] == n_pairs
        assert spans.counts["placement.field_bytes_computed"] == n_pairs * 24**3 * 4
        assert stats["gathers"] == spec.n_configs * obstacles.n_occupied
        assert spans.counts["query.gathers"] == stats["gathers"]
    assert counts[0] == counts[1]


def test_untraced_and_traced_prepare_agree(rigs):
    spec = small("replan")
    rig = rigs[spec.robot]
    q = inputs.trajectory(spec, rig.robot.position_limits(), seed=4)
    _, plain = measure.prepare(rig, q)
    _, traced = measure.prepare(rig, q, measure.Spans())
    np.testing.assert_array_equal(plain.values, traced.values)
    assert linksdf.placement.trilinear_sample is linksdf.grids.trilinear_sample


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_short_traced_run_repeats_its_counts(name, monkeypatch):
    monkeypatch.setattr(measure, "SETUPS", 2)
    spec = small(name)
    results = []
    for _ in range(2):
        result = measure.Workload(spec, seed=9, trace=True).execute(seconds=0)
        assert result.failed == 0, result.errors
        assert result.cycles_checked == spec.n_checked
        rows = {name: value for name, value, _, _ in report.per_layer(result, spec)}
        results.append(rows)
    exact = ("query.gathers", "placement.fields", "placement.transform_points",
             "grids.samples", "check.violations", "query.points", "query.occupied_voxels")
    assert {k: results[0][k] for k in exact} == {k: results[1][k] for k in exact}
    assert results[0]["query.gathers"] == spec.n_configs * results[0]["query.occupied_voxels"]
    assert results[0]["placement.fields"] == spec.n_configs * (3 if spec.robot == "arm3.json" else 6)


def test_metric_names_match_benchmark_json(monkeypatch):
    monkeypatch.setattr(measure, "SETUPS", 2)
    declared = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    spec = small("replan")
    rows = {
        trace: report.per_layer(result, spec) if trace else report.end_to_end(result)
        for trace in (0, 1)
        for result in [measure.Workload(spec, seed=3, trace=bool(trace)).execute(seconds=0)]
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert [(n, u) for n, _, u, _ in rows[trace]] == [
            (m["name"], m["unit"]) for m in declared[key]
        ]
        assert all(value > 0 for _, value, _, _ in rows[trace] if trace == 0)


def test_lost_span_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(measure, "SETUPS", 2)
    spec = small("stream")
    result = measure.Workload(spec, seed=1, trace=True).execute(seconds=0)
    for s in result.prepare_spans:
        s.calls.pop("grids.sample")
    with pytest.raises(report.TraceError, match="grids.sample"):
        report.per_layer(result, spec)


def test_oracle_primitives_match_the_library():
    rng = np.random.default_rng(0)
    points = rng.uniform(-0.3, 0.3, size=(2000, 3))
    shapes = [
        linksdf.Sphere(radius=0.05, center=(0.01, -0.02, 0.03)),
        linksdf.Capsule(radius=0.04, half_length=0.06, axis=(1.0, 1.0, 0.0)),
        linksdf.Box(half_extents=(0.04, 0.02, 0.07)),
    ]
    for shape in shapes:
        np.testing.assert_allclose(
            oracle._distance(shape, points), linksdf.primitive_sdf(shape, points), atol=1e-12
        )


def test_oracle_culling_matches_brute_force(rigs):
    spec = small("replan", n_configs=6)
    rig = rigs[spec.robot]
    q = inputs.trajectory(spec, rig.robot.position_limits(), seed=1)
    poses, _ = measure.prepare(rig, q)
    targets = np.random.default_rng(1).uniform(-1, 1, size=(400, 3))
    got = oracle.distances(rig.geometries, poses.rotations, poses.translations, targets, rig.d_far)
    want = np.full(len(q), np.inf)
    for li, geometry in enumerate(rig.geometries):
        for c in range(len(q)):
            local = (targets - poses.translations[c, li]) @ poses.rotations[c, li]
            want[c] = min(want[c], linksdf.primitive_sdf(geometry, local).min())
    np.testing.assert_allclose(got, np.minimum(want, rig.d_far), atol=1e-12)


def test_classify_separates_truncation_from_errors():
    exact = np.array([0.10, 0.10, 0.45, 0.45, 0.30])
    reported = np.array([0.12, 0.20, 0.48, 0.46, 0.20])
    violations, unexplained = oracle.classify(reported, exact, floor=0.38)
    assert violations.tolist() == [False, True, False, False, True]
    assert unexplained.tolist() == [False, True, False, False, True]
    violations, unexplained = oracle.classify(np.array([0.48]), np.array([0.39]), floor=0.38)
    assert violations.tolist() == [True] and unexplained.tolist() == [False]


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    value, pct = report.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    script = Path(run.__file__)
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
