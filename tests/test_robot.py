"""Robot model loading, batched FK, limits, extent sizing."""

import json

import numpy as np
import pytest

from linksdf import (
    ConfigBatch,
    LimitViolationError,
    RobotModel,
    ValidationError,
    forward_kinematics_batch,
    forward_kinematics_single,
    max_braking_time,
    required_extent,
)


class TestModelLoading:
    def test_arm3(self, arm3):
        assert arm3.dof == 3
        assert arm3.n_links == 4
        assert arm3.links[0].geometry is None
        assert arm3.link_reach == 0.3

    def test_bad_axis_rejected(self, tmp_path):
        doc = {
            "name": "bad",
            "links": [{"name": "base"}, {"name": "l1", "parent_joint": "j1"}],
            "joints": [
                {
                    "name": "j1", "type": "revolute", "parent_link": "base",
                    "axis": [0, 0, 2],
                    "limits": {"position": [-1, 1], "velocity": 1, "acceleration": 1},
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            RobotModel.from_json(path)

    def test_nonpositive_limit_rejected(self, tmp_path):
        doc = {
            "name": "bad",
            "links": [{"name": "base"}, {"name": "l1", "parent_joint": "j1"}],
            "joints": [
                {
                    "name": "j1", "type": "revolute", "parent_link": "base",
                    "axis": [0, 0, 1],
                    "limits": {"position": [-1, 1], "velocity": 0.0, "acceleration": 1},
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            RobotModel.from_json(path)

    def test_duplicate_joint_names_rejected(self, tmp_path):
        # FK would place both links with the first joint's origin and axis.
        joint = {
            "name": "j", "type": "revolute", "parent_link": "base", "axis": [0, 0, 1],
            "limits": {"position": [-1, 1], "velocity": 1, "acceleration": 1},
        }
        doc = {
            "links": [
                {"name": "base"},
                {"name": "a", "parent_joint": "j"},
                {"name": "b", "parent_joint": "j"},
            ],
            "joints": [joint, dict(joint, type="prismatic", axis=[1, 0, 0])],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate joint names"):
            RobotModel.from_json(path)

    def test_two_roots_rejected(self, tmp_path):
        doc = {"name": "bad", "links": [{"name": "a"}, {"name": "b"}], "joints": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            RobotModel.from_json(path)

    def test_mesh_geometry_by_relative_path(self, tmp_path):
        from linksdf import build_link_sdf, exact_point_distance, make_box_mesh

        cube = make_box_mesh([0.1, 0.1, 0.1])
        lines = [f"v {x} {y} {z}" for x, y, z in cube.vertices]
        lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in cube.triangles]
        (tmp_path / "meshes").mkdir()
        (tmp_path / "meshes" / "tetra.obj").write_text("\n".join(lines))
        doc = {
            "name": "meshy",
            "link_reach": 0.2,
            "links": [
                {"name": "base"},
                {
                    "name": "l1",
                    "parent_joint": "j1",
                    "geometry": {"type": "mesh", "path": "meshes/tetra.obj"},
                },
            ],
            "joints": [
                {
                    "name": "j1", "type": "revolute", "parent_link": "base",
                    "axis": [0, 0, 1],
                    "limits": {"position": [-3, 3], "velocity": 1, "acceleration": 5},
                }
            ],
        }
        path = tmp_path / "meshy.json"
        path.write_text(json.dumps(doc))
        model = RobotModel.from_json(path)
        geometry = model.links[1].geometry
        assert geometry.is_watertight
        assert exact_point_distance(geometry, np.float64([0.3, 0, 0])) == pytest.approx(0.2)
        sdf = build_link_sdf(geometry, 0.2, 0.05, link_id=1)
        assert sdf.values[0, 0, 0] > 0


    def test_geometry_links(self, arm3, arm6):
        assert arm3.geometry_links == [1, 2, 3]
        assert arm6.geometry_links == []


def _good_robot_doc():
    return {
        "name": "two",
        "links": [
            {"name": "base"},
            {
                "name": "l1",
                "parent_joint": "j1",
                "origin": {"xyz": [0, 0, 0.1], "rpy": [0, 0, 0]},
                "geometry": {"type": "mesh", "path": "tetra.obj"},
            },
        ],
        "joints": [
            {
                "name": "j1", "type": "revolute", "parent_link": "base",
                "axis": [0, 0, 1],
                "limits": {"position": [-1, 1], "velocity": 1, "acceleration": 1},
            }
        ],
        "spheres": {"l1": [{"center": [0, 0, 0], "radius": 0.2}]},
    }


_TETRA_OBJ = "\n".join(
    ["v -0.1 -0.1 -0.1", "v 0.1 -0.1 -0.1", "v 0 0.1 -0.1", "v 0 0 0.1"]
    + ["f 1 3 2", "f 1 2 4", "f 2 3 4", "f 3 1 4"]
)


def _write_robot_files(tmp_path, edit=lambda doc, files: None):
    """Write the good document and its mesh, after ``edit(doc, files)``;
    ``files`` maps file names to text and may replace ``robot.json``."""
    doc, files = _good_robot_doc(), {"tetra.obj": _TETRA_OBJ}
    edit(doc, files)
    files.setdefault("robot.json", json.dumps(doc))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path / "robot.json"


def _ascii_stl_geometry(last_vertex):
    """Edit that points link l1 at an ASCII STL whose third vertex line is
    ``last_vertex``."""
    stl = "\n".join(
        ["solid t", "facet normal 0 0 1", "outer loop", "vertex 0 0 0", "vertex 1 0 0",
         last_vertex, "endloop", "endfacet", "endsolid t"]
    )

    def edit(doc, files):
        doc["links"][1]["geometry"]["path"] = "t.stl"
        files["t.stl"] = stl

    return edit


class TestMalformedRobotFile:
    def test_good_document_loads(self, tmp_path):
        model = RobotModel.from_json(_write_robot_files(tmp_path))
        assert model.geometry_links == [1]
        poses = forward_kinematics_batch(model, ConfigBatch([[0.5]]))
        assert np.allclose(poses.translations[0, 1], [0, 0, 0.1])

    @pytest.mark.parametrize(
        "edit, file, key",
        [
            (lambda d, f: f.update({"robot.json": "{"}), "robot.json", "not valid JSON"),
            (lambda d, f: d["joints"][0].pop("type"), "robot.json", "'type'"),
            (lambda d, f: d["links"][1].pop("name"), "robot.json", "'name'"),
            (lambda d, f: d["spheres"]["l1"][0].pop("radius"), "robot.json", "'radius'"),
            (lambda d, f: d.update(links={"name": "base"}), "robot.json", "links"),
            (lambda d, f: d["links"][1]["origin"].update(rpy=[0, 0]), "robot.json", "'rpy'"),
            (lambda d, f: d["links"][1]["origin"].update(xyz=[0, 0.1]), "robot.json", "'xyz'"),
            (lambda d, f: d["joints"][0].update(axis=[0, 1]), "robot.json", "'axis'"),
            (lambda d, f: f.update({"tetra.obj": "v 0 0 x\n" + _TETRA_OBJ}), "tetra.obj", ":1:"),
            (_ascii_stl_geometry("vertex 0 0 x"), "t.stl", ":6:"),
            (_ascii_stl_geometry(""), "t.stl", "no whole triangles"),
        ],
        ids=[
            "invalid-json", "joint-without-type", "link-without-name",
            "sphere-without-radius", "links-not-a-list", "rpy-of-2", "xyz-of-2",
            "axis-of-2", "obj-non-numeric", "stl-non-numeric", "stl-partial-triangle",
        ],
    )
    def test_rejected_naming_file_and_key(self, tmp_path, edit, file, key):
        path = _write_robot_files(tmp_path, edit)
        with pytest.raises(ValidationError) as err:
            RobotModel.from_json(path)
        assert f"{tmp_path / file}" in str(err.value)
        assert key in str(err.value)


class TestForwardKinematics:
    def test_zero_config_chains_origins(self, arm3):
        poses = forward_kinematics_batch(arm3, ConfigBatch([[0.0, 0.0, 0.0]]))
        # base at identity
        assert np.allclose(poses.rotations[0, 0], np.eye(3))
        assert np.allclose(poses.translations[0, 0], 0)
        # l1 = j1 origin + l1 origin (identity rotations at q=0)
        assert np.allclose(poses.translations[0, 1], [0.05, 0.0, 0.05])

    def test_quarter_turn(self, tmp_path):
        doc = {
            "name": "one",
            "links": [
                {"name": "base"},
                {"name": "child", "parent_joint": "j", "origin": {"xyz": [1, 0, 0]}},
            ],
            "joints": [
                {
                    "name": "j", "type": "revolute", "parent_link": "base",
                    "axis": [0, 0, 1],
                    "limits": {"position": [-7, 7], "velocity": 1, "acceleration": 1},
                }
            ],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        model = RobotModel.from_json(path)
        poses = forward_kinematics_batch(model, ConfigBatch([[np.pi / 2]]))
        assert np.allclose(poses.translations[0, 1], [0, 1, 0], atol=1e-15)

    def test_prismatic(self, tmp_path):
        doc = {
            "name": "slider",
            "links": [
                {"name": "base"},
                {"name": "car", "parent_joint": "j", "origin": {"xyz": [0, 0.1, 0]}},
            ],
            "joints": [
                {
                    "name": "j", "type": "prismatic", "parent_link": "base",
                    "origin": {"rpy": [0, 0, np.pi / 2]}, "axis": [1, 0, 0],
                    "limits": {"position": [-0.5, 0.5], "velocity": 1, "acceleration": 2},
                }
            ],
        }
        path = tmp_path / "slider.json"
        path.write_text(json.dumps(doc))
        model = RobotModel.from_json(path)
        poses = forward_kinematics_batch(model, ConfigBatch([[0.3]]))
        # origin yaw of 90 degrees turns the x slide into +y, link offset into -x.
        assert np.allclose(poses.translations[0, 1], [-0.1, 0.3, 0], atol=1e-15)

    def test_batch_matches_serial(self, arm6, rng):
        q = rng.uniform(-2.0, 2.0, size=(500, 6))
        poses = forward_kinematics_batch(arm6, ConfigBatch(q))
        worst = 0.0
        for c in range(500):
            hom = forward_kinematics_single(arm6, q[c])
            worst = max(
                worst,
                np.abs(hom[:, :3, :3] - poses.rotations[c]).max(),
                np.abs(hom[:, :3, 3] - poses.translations[c]).max(),
            )
        assert worst <= 1e-12

    def test_rigid_invariants(self, arm6, rng):
        q = rng.uniform(-2.0, 2.0, size=(200, 6))
        poses = forward_kinematics_batch(arm6, ConfigBatch(q))
        r = poses.rotations.reshape(-1, 3, 3)
        assert np.abs(r @ r.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-9
        assert np.abs(np.linalg.det(r) - 1).max() <= 1e-9

    def test_limit_violation_lists_offenders(self, arm3):
        q = np.zeros((3, 3))
        q[1, 2] = 9.0
        q[2, 0] = -9.0
        with pytest.raises(LimitViolationError) as err:
            forward_kinematics_batch(arm3, ConfigBatch(q))
        assert (1, 2) in err.value.violations
        assert (2, 0) in err.value.violations

    def test_dof_mismatch(self, arm3):
        with pytest.raises(ValidationError):
            forward_kinematics_batch(arm3, ConfigBatch(np.zeros((2, 5))))


class TestBrakingAndExtent:
    def test_braking_time_ratio(self, tmp_path):
        doc = {
            "name": "two",
            "links": [{"name": "base"}, {"name": "a", "parent_joint": "j1"},
                      {"name": "b", "parent_joint": "j2"}],
            "joints": [
                {"name": "j1", "type": "revolute", "parent_link": "base",
                 "axis": [0, 0, 1],
                 "limits": {"position": [-3, 3], "velocity": 2, "acceleration": 10}},
                {"name": "j2", "type": "revolute", "parent_link": "a",
                 "axis": [0, 0, 1],
                 "limits": {"position": [-3, 3], "velocity": 2, "acceleration": 20}},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert max_braking_time(RobotModel.from_json(path)) == pytest.approx(0.2)

    def test_braking_time_six_axis_table(self, arm6):
        # Worst velocity/acceleration ratio across the six-joint limit table.
        assert max_braking_time(arm6) == pytest.approx(0.2)

    def test_braking_time_single_joint(self, tmp_path):
        doc = {
            "name": "one",
            "links": [{"name": "base"}, {"name": "a", "parent_joint": "j"}],
            "joints": [{"name": "j", "type": "revolute", "parent_link": "base",
                        "axis": [0, 0, 1],
                        "limits": {"position": [-3, 3], "velocity": 1, "acceleration": 1}}],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert max_braking_time(RobotModel.from_json(path)) == pytest.approx(1.0)

    def test_required_extent_values(self):
        assert required_extent(1.6, 0.2, 0.03, 0.6) == pytest.approx(0.95)
        assert required_extent(0, 0, 0, 0.5) == pytest.approx(0.5)
        assert required_extent(2.0, 0.2, 0.03, 0.6) == pytest.approx(1.03)

    def test_required_extent_monotone(self, rng):
        base = rng.uniform(0, 2, size=(200, 4))
        bumped = base + rng.uniform(0, 1, size=(200, 4)) * (np.arange(4) == rng.integers(0, 4))
        for b, u in zip(base, bumped):
            assert required_extent(*u) >= required_extent(*b)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            required_extent(-1, 0.2, 0.03, 0.6)


class TestConfigBatch:
    def test_csv_round_trip(self, tmp_path, rng):
        q = rng.normal(size=(7, 3))
        path = tmp_path / "traj.csv"
        ConfigBatch(q).to_csv(path)
        back = ConfigBatch.from_csv(path)
        assert np.allclose(back.configurations, q)
        assert back.size == 7 and back.dof == 3

    def test_single_row_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.1,0.2,0.3\n")
        batch = ConfigBatch.from_csv(path)
        assert batch.configurations.shape == (1, 3)

    def test_immutable(self):
        batch = ConfigBatch(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            batch.configurations[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_position(self, bad):
        q = np.zeros((3, 3))
        q[1, 2] = bad
        q[2, 0] = bad
        with pytest.raises(ValidationError, match=r"row 1, column 2"):
            ConfigBatch(q)

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.1,0.2,0.3\n0.1,nan,0.3\n")
        with pytest.raises(ValidationError, match=r"row 1, column 1"):
            ConfigBatch.from_csv(path)
