"""End-to-end command line checks (in-process, via main)."""

import numpy as np
import pytest

from linksdf import ConfigBatch, TinyMlp, build_link_sdf, read_link_sdf
from linksdf.cli import main
from linksdf.query import write_pointcloud_frame


@pytest.fixture()
def trajectory_csv(tmp_path, rng):
    path = tmp_path / "traj.csv"
    ConfigBatch(rng.uniform(-1.0, 1.0, size=(3, 3))).to_csv(path)
    return path


def scenario_args(arm3_path, trajectory_csv):
    return [
        "--robot", str(arm3_path),
        "--grid-extent", "0.5",
        "--grid-res", "0.1",
        "--link-extent", "0.3",
        "--link-res", "0.025",
        "--trajectory", str(trajectory_csv),
    ]


class TestPrecompute:
    def test_writes_caches_and_refuses_overwrite(self, tmp_path, arm3_path, arm3):
        out = tmp_path / "caches"
        argv = [
            "precompute", "--robot", str(arm3_path),
            "--link-extent", "0.3", "--link-res", "0.05", "--out", str(out),
        ]
        assert main(argv) == 0
        files = sorted(out.glob("*.lsdf"))
        assert len(files) == 3
        for path in files:
            sdf = read_link_sdf(path)
            assert np.array_equal(sdf.dims, [12, 12, 12])
        # Idempotence: a rebuilt cache matches the in-memory build bit-exactly.
        rebuilt = build_link_sdf(arm3.links[1].geometry, 0.3, 0.05, link_id=1)
        cached = read_link_sdf(files[0])
        assert np.array_equal(cached.values, rebuilt.values)

        assert main(argv) == 2
        assert main(argv + ["--force"]) == 0

    def test_bad_robot_path(self, tmp_path):
        argv = [
            "precompute", "--robot", str(tmp_path / "missing.json"),
            "--link-extent", "0.3", "--link-res", "0.05",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 3

    @pytest.mark.parametrize("res", ["0", "-0.05"])
    def test_non_positive_resolution_is_2(self, tmp_path, arm3_path, res):
        argv = [
            "precompute", "--robot", str(arm3_path),
            "--link-extent", "0.3", "--link-res", res, "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 2
        assert not list((tmp_path / "out").glob("*.lsdf"))


class TestTrain:
    def test_tiny_window_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.tmlp"
        out_b = tmp_path / "b.tmlp"
        argv = [
            "train", "--window", "4", "--steps", "400", "--target", "10",
            "--seed", "5", "--eval-samples", "200",
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unconverged_exit_code(self, tmp_path):
        argv = [
            "train", "--window", "4", "--steps", "100", "--target", "1e-9",
            "--out", str(tmp_path / "m.tmlp"),
        ]
        assert main(argv) == 3

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_eval_samples_is_2_before_training(self, tmp_path, n):
        out = tmp_path / "m.tmlp"
        argv = [
            "train", "--window", "4", "--steps", "100", "--target", "10",
            "--eval-samples", n, "--out", str(out),
        ]
        assert main(argv) == 2
        assert not out.exists()


class TestBench:
    def test_tiny_scenario_report(self, tmp_path, arm3_path, trajectory_csv, capsys):
        out = tmp_path / "report"
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--obstacles", "60", "--reps", "5", "--seed", "3", "--out", str(out)]
        )
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "query_sdf_ms" in text
        csv_path = out / "bench.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "metric,value,std,unit"
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert metrics == [
            "precompute_link_sdfs_s",
            "placement_s",
            "assembly_s",
            "prepare_sdf_per_trajectory_s",
            "prepare_sphere_per_trajectory_s",
            "transform_exact_ms",
            "occupied_voxels",
            "waypoints",
            "query_sdf_ms",
            "query_sdf_gathers",
            "live_voxel_fraction",
            "query_sphere_ms",
            "query_sphere_evals",
            "baseline_conservative_fraction",
            "quality_max_abs_delta_m",
            "quality_mean_abs_delta_m",
            "ordering_prepare_sdf_gt_sphere",
            "ordering_query_sdf_lt_sphere",
            "reference_gpu_query_sdf_ms",
            "reference_gpu_query_sphere_ms",
            "reference_gpu_budget_ms",
        ]
        rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        waypoints = int(float(rows["waypoints"]))
        occupied = int(float(rows["occupied_voxels"]))
        assert int(float(rows["query_sdf_gathers"])) == waypoints * occupied
        assert 0.0 < float(rows["live_voxel_fraction"]) < 1.0
        # Refuses to clobber the report without --force.
        assert main(argv) == 2
        assert main(argv + ["--force"]) == 0

    def test_prepare_rows_share_placement_passes(
        self, tmp_path, arm3_path, trajectory_csv, monkeypatch
    ):
        # placement_s, assembly_s and prepare_sdf_per_trajectory_s come
        # from one warm-up plus five timed prepare passes.
        import linksdf.query

        passes = []
        place = linksdf.query.place_links_batch

        def counting_place(*args, **kwargs):
            passes.append(1)
            return place(*args, **kwargs)

        monkeypatch.setattr(linksdf.query, "place_links_batch", counting_place)
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--obstacles", "20", "--reps", "5", "--out", str(tmp_path / "report")]
        )
        assert main(argv) == 0
        assert 1 <= len(passes) <= 6

    def _bench_rows(self, tmp_path, argv):
        assert main(argv + ["--reps", "5", "--out", str(tmp_path / "report")]) == 0
        lines = (tmp_path / "report" / "bench.csv").read_text().splitlines()[1:]
        return {line.split(",")[0]: float(line.split(",")[1]) for line in lines}

    def test_no_obstacles_reads_the_sentinel(self, tmp_path, arm3_path, trajectory_csv):
        argv = ["bench"] + scenario_args(arm3_path, trajectory_csv) + ["--obstacles", "0"]
        rows = self._bench_rows(tmp_path, argv)
        assert rows["occupied_voxels"] == 0
        assert rows["quality_max_abs_delta_m"] == 0.0

    @pytest.mark.parametrize(
        "points, occupied",
        [([[0.9, 0, 0], [0, -2, 0]], 0), ([[0.45, 0.45, 0.45]], 1)],
        ids=["outside-the-grid", "beyond-every-window"],
    )
    def test_first_frame_reads_the_sentinel(
        self, tmp_path, arm3_path, trajectory_csv, points, occupied
    ):
        # The oracle clamps at the sentinel the batch stores, float32.
        write_pointcloud_frame(tmp_path / "f0.bin", np.float64(points))
        (tmp_path / "clouds.txt").write_text("0.0 f0.bin\n")
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--clouds", str(tmp_path / "clouds.txt")]
        )
        rows = self._bench_rows(tmp_path, argv)
        assert rows["occupied_voxels"] == occupied
        assert rows["quality_max_abs_delta_m"] == 0.0

    def test_manifest_without_frames_is_2(self, tmp_path, arm3_path, trajectory_csv):
        (tmp_path / "clouds.txt").write_text("# no frames\n")
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--reps", "5", "--clouds", str(tmp_path / "clouds.txt")]
        )
        assert main(argv) == 2

    def test_neural_provider_reports_transform_ratio(
        self, tmp_path, arm3_path, trajectory_csv
    ):
        model_path = tmp_path / "w6.tmlp"
        assert (
            main(
                ["train", "--window", "6", "--steps", "400", "--target", "10",
                 "--eval-samples", "100", "--out", str(model_path)]
            )
            == 0
        )
        out = tmp_path / "report"
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--obstacles", "40", "--reps", "5", "--provider", "neural",
               "--model", str(model_path), "--out", str(out)]
        )
        assert main(argv) == 0
        metrics = [
            line.split(",")[0]
            for line in (out / "bench.csv").read_text().splitlines()[1:]
        ]
        assert "transform_neural_ms" in metrics
        assert "transform_neural_speedup" in metrics

    def test_strict_extent_fails_small_window(self, tmp_path, arm3_path, trajectory_csv):
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--reps", "5", "--strict-extent"]
        )
        assert main(argv) == 2

    def test_neural_provider_needs_model(self, arm3_path, trajectory_csv):
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--reps", "5", "--provider", "neural"]
        )
        assert main(argv) == 2


class TestReplay:
    def _manifest(self, tmp_path, frames):
        lines = []
        for i, pts in enumerate(frames):
            write_pointcloud_frame(tmp_path / f"f{i}.bin", pts)
            lines.append(f"{i * 33.3:.1f} f{i}.bin")
        manifest = tmp_path / "clouds.txt"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_empty_manifest(self, tmp_path, arm3_path, trajectory_csv):
        manifest = tmp_path / "clouds.txt"
        manifest.write_text("")
        out = tmp_path / "d.csv"
        argv = (
            ["replay"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--clouds", str(manifest), "--out", str(out)]
        )
        assert main(argv) == 0
        assert out.read_text().splitlines() == ["timestamp_ms,d_0,d_1,d_2"]

    def test_deterministic_rerun(self, tmp_path, arm3_path, trajectory_csv, rng):
        manifest = self._manifest(
            tmp_path, [rng.uniform(-0.45, 0.45, size=(40, 3)) for _ in range(3)]
        )
        out1 = tmp_path / "d1.csv"
        out2 = tmp_path / "d2.csv"
        base = (
            ["replay"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--clouds", str(manifest)]
        )
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert main(base + ["--out", str(out1)]) == 2  # no --force

    def test_monotone_approach(self, tmp_path, arm3_path, rng):
        traj = tmp_path / "zero.csv"
        ConfigBatch(np.zeros((1, 3))).to_csv(traj)
        xs = np.arange(0.45, 0.1, -0.05)
        manifest = self._manifest(
            tmp_path, [np.float64([[x, 0.05, 0.05]]) for x in xs]
        )
        out = tmp_path / "d.csv"
        argv = (
            ["replay"]
            + scenario_args(arm3_path, traj)
            + ["--clouds", str(manifest), "--out", str(out)]
        )
        assert main(argv) == 0
        rows = out.read_text().splitlines()[1:]
        dists = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 1e-7 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_reports_dropped_point_totals(
        self, tmp_path, arm3_path, trajectory_csv, capsys
    ):
        frames = [
            np.float64([[0.1, 0.1, 0.1], [np.nan, 0.0, 0.0], [0.9, 0.0, 0.0]]),
            np.float64([[0.0, np.inf, 0.0], [0.0, 0.0, 0.5], [0.2, 0.2, -0.5]]),
        ]
        manifest = self._manifest(tmp_path, frames)
        argv = (
            ["replay"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--clouds", str(manifest), "--out", str(tmp_path / "d.csv")]
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 point(s), dropped 2 non-finite and 2 out of grid" in out


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, arm3_path, trajectory_csv):
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--reps", "2"]  # below the minimum repetition count
        )
        assert main(argv) == 2

    def test_non_finite_trajectory_is_2(self, tmp_path, arm3_path):
        traj = tmp_path / "nan.csv"
        traj.write_text("0,0,0\n0,nan,0\n")
        manifest = tmp_path / "clouds.txt"
        manifest.write_text("")
        argv = (
            ["replay"]
            + scenario_args(arm3_path, traj)
            + ["--clouds", str(manifest), "--out", str(tmp_path / "d.csv")]
        )
        assert main(argv) == 2

    def _replay(self, tmp_path, arm3_path, traj, manifest_text=""):
        manifest = tmp_path / "clouds.txt"
        manifest.write_text(manifest_text)
        argv = (
            ["replay"]
            + scenario_args(arm3_path, traj)
            + ["--clouds", str(manifest), "--out", str(tmp_path / "d.csv")]
        )
        return main(argv)

    def test_trajectory_outside_joint_limits_is_2(self, tmp_path, arm3_path):
        traj = tmp_path / "far.csv"
        traj.write_text("0,0,0\n0,4.0,0\n")
        assert self._replay(tmp_path, arm3_path, traj) == 2

    @pytest.mark.parametrize(
        "content", [b"0,0,0\n0,zero,0\n", b"0,0,0\n\xff\xfe,0,0\n"], ids=["text", "binary"]
    )
    def test_non_numeric_trajectory_is_2(self, tmp_path, arm3_path, capsys, content):
        traj = tmp_path / "text.csv"
        traj.write_bytes(content)
        assert self._replay(tmp_path, arm3_path, traj) == 2
        assert capsys.readouterr().err.startswith(f"error: {traj}: ")

    def test_manifest_line_without_file_is_2(
        self, tmp_path, arm3_path, trajectory_csv, capsys
    ):
        assert self._replay(tmp_path, arm3_path, trajectory_csv, "0.0 f0.bin\n33.3\n") == 2
        assert "clouds.txt:2:" in capsys.readouterr().err

    def test_model_of_wrong_width_is_2(self, tmp_path, arm3_path, trajectory_csv):
        model_path = tmp_path / "w4.tmlp"
        TinyMlp.initial(n_points=5).save(model_path)
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--reps", "5", "--provider", "neural", "--model", str(model_path)]
        )
        assert main(argv) == 2

    def test_malformed_robot_is_2(self, tmp_path, trajectory_csv, capsys):
        robot = tmp_path / "robot.json"
        robot.write_text('{"links": [{"name": "base"}], "joints": [{"name": "j1"}]}')
        argv = ["bench"] + scenario_args(robot, trajectory_csv) + ["--reps", "5"]
        assert main(argv) == 2
        assert f"{robot}: joints[0]: missing key 'type'" in capsys.readouterr().err

    def test_negative_obstacle_count_is_2(self, arm3_path, trajectory_csv):
        argv = (
            ["bench"]
            + scenario_args(arm3_path, trajectory_csv)
            + ["--reps", "5", "--obstacles", "-1"]
        )
        assert main(argv) == 2
