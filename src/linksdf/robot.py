"""Articulated robot description and batched forward kinematics.

Robots are loaded from a small JSON schema (see ``RobotModel.from_json``)
rather than URDF: links form a tree via their parent joint, each joint is
revolute, prismatic or fixed with an origin transform, a unit axis and
position/velocity/acceleration limits. Collision geometry per link is a
primitive or a mesh file referenced by relative path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import LimitViolationError, ValidationError
from .meshes import Box, Capsule, Primitive, Sphere, TriangleMesh, load_mesh

_AXIS_TOL = 1e-9


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation from roll/pitch/yaw (x, then y, then z, extrinsic)."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def axis_angle_matrices(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotation about a fixed unit axis for a vector of angles."""
    angles = np.asarray(angles, dtype=np.float64)
    k = np.asarray(axis, dtype=np.float64)
    kx = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    kk = np.outer(k, k)
    c = np.cos(angles)[..., None, None]
    s = np.sin(angles)[..., None, None]
    eye = np.eye(3)
    return c * eye + s * kx + (1.0 - c) * kk


@dataclass(frozen=True, eq=False)
class Transform:
    """Rigid transform as rotation matrix plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def identity(cls) -> "Transform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_json(cls, obj, where: str) -> "Transform":
        if obj is None:
            return cls.identity()
        obj = _object(obj, where)
        xyz = _numbers(obj, "xyz", where, 3, [0.0, 0.0, 0.0])
        rpy = _numbers(obj, "rpy", where, 3, [0.0, 0.0, 0.0])
        return cls(rpy_matrix(*rpy), xyz)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True, eq=False)
class Joint:
    name: str
    kind: str  # revolute | prismatic | fixed
    parent_link: str
    origin: Transform
    axis: np.ndarray
    position_limits: tuple[float, float] | None
    velocity_limit: float | None
    acceleration_limit: float | None

    def __post_init__(self):
        if self.kind not in ("revolute", "prismatic", "fixed"):
            raise ValidationError(f"joint {self.name}: unknown type {self.kind}")
        if self.kind != "fixed":
            n = np.linalg.norm(self.axis)
            if abs(n - 1.0) > _AXIS_TOL:
                raise ValidationError(
                    f"joint {self.name}: axis must be unit length, |axis|={n}"
                )
            for label, v in (
                ("velocity", self.velocity_limit),
                ("acceleration", self.acceleration_limit),
            ):
                if v is None or v <= 0:
                    raise ValidationError(
                        f"joint {self.name}: {label} limit must be positive"
                    )


@dataclass(frozen=True, eq=False)
class Link:
    name: str
    parent_joint: str | None
    origin: Transform
    geometry: TriangleMesh | Primitive | None


@dataclass(frozen=True, eq=False)
class RobotModel:
    """Kinematic tree plus collision geometry and limits."""

    name: str
    links: tuple[Link, ...]
    joints: tuple[Joint, ...]
    link_reach: float
    sphere_model: dict[str, list[tuple[np.ndarray, float]]] = field(default_factory=dict)

    def __post_init__(self):
        joint_names = {j.name for j in self.joints}
        if len(joint_names) != len(self.joints):
            raise ValidationError("duplicate joint names")
        link_names = [l.name for l in self.links]
        if len(set(link_names)) != len(link_names):
            raise ValidationError("duplicate link names")
        roots = [l for l in self.links if l.parent_joint is None]
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one base link, found {len(roots)}")
        seen = {roots[0].name}
        for link in self.links:
            if link.parent_joint is None:
                continue
            if link.parent_joint not in joint_names:
                raise ValidationError(
                    f"link {link.name}: unknown parent joint {link.parent_joint}"
                )
            joint = self.joint(link.parent_joint)
            if joint.parent_link not in seen:
                raise ValidationError(
                    "links must be declared parents-first "
                    f"({link.name} before its parent {joint.parent_link})"
                )
            seen.add(link.name)

    def joint(self, name: str) -> Joint:
        for j in self.joints:
            if j.name == name:
                return j
        raise KeyError(name)

    @property
    def actuated_joints(self) -> tuple[Joint, ...]:
        return tuple(j for j in self.joints if j.kind != "fixed")

    @property
    def dof(self) -> int:
        return len(self.actuated_joints)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def geometry_links(self) -> list[int]:
        """Indices of the links that carry collision geometry, in link order."""
        return [i for i, l in enumerate(self.links) if l.geometry is not None]

    def link_index(self, name: str) -> int:
        for i, l in enumerate(self.links):
            if l.name == name:
                return i
        raise KeyError(name)

    def position_limits(self) -> np.ndarray:
        """(D, 2) array of joint position limits for actuated joints."""
        out = np.empty((self.dof, 2))
        for i, j in enumerate(self.actuated_joints):
            out[i] = j.position_limits if j.position_limits else (-np.inf, np.inf)
        return out

    @classmethod
    def from_json(cls, path) -> "RobotModel":
        """Load the JSON schema; a malformed file raises ``ValidationError``
        naming the file and the offending key."""
        path = Path(path)
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ValidationError(f"{path}: not valid JSON: {err}") from None
        doc = _object(doc, str(path))
        joints = tuple(
            _joint_from_json(j, f"{path}: joints[{i}]")
            for i, j in enumerate(_objects(doc.get("joints", []), f"{path}: joints"))
        )
        links = tuple(
            _link_from_json(l, path.parent, f"{path}: links[{i}]")
            for i, l in enumerate(_objects(doc.get("links", []), f"{path}: links"))
        )
        spheres = {
            link: [
                (
                    _numbers(s, "center", f"{path}: spheres.{link}[{k}]", 3),
                    _numbers(s, "radius", f"{path}: spheres.{link}[{k}]", None),
                )
                for k, s in enumerate(_objects(entries, f"{path}: spheres.{link}"))
            ]
            for link, entries in _object(
                doc.get("spheres", {}), f"{path}: spheres"
            ).items()
        }
        return cls(
            name=_text(doc, "name", str(path), path.stem),
            links=links,
            joints=joints,
            link_reach=_numbers(doc, "link_reach", str(path), None, 0.0),
            sphere_model=spheres,
        )


_REQUIRED = object()


def _field(obj: dict, key: str, where: str, default=_REQUIRED):
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ValidationError(f"{where}: missing key {key!r}")
    return default


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _objects(items, where: str) -> list[dict]:
    if not isinstance(items, list):
        raise ValidationError(f"{where}: expected a list, got {type(items).__name__}")
    return [_object(item, f"{where}[{i}]") for i, item in enumerate(items)]


def _text(obj: dict, key: str, where: str, default=_REQUIRED):
    """``obj[key]`` as a string; a default of None passes through."""
    value = _field(obj, key, where, default)
    if value is None and default is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(f"{where}: {key!r} must be a string, got {value!r}")
    return value


def _numbers(obj: dict, key: str, where: str, n: int | None, default=_REQUIRED):
    """``obj[key]`` as an array of ``n`` finite floats, or as one float when
    ``n`` is None; a default of None passes through."""
    value = _field(obj, key, where, default)
    if value is None and default is None:
        return None
    shape = () if n is None else (n,)
    try:
        v = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != shape or not np.all(np.isfinite(v)):
        what = "a finite number" if n is None else f"{n} finite numbers"
        raise ValidationError(f"{where}: {key!r} must be {what}, got {value!r}")
    return float(v) if n is None else v


def _joint_from_json(j: dict, where: str) -> Joint:
    at = f"{where}.limits"
    limits = _object(j.get("limits", {}), at)
    return Joint(
        name=_text(j, "name", where),
        kind=_text(j, "type", where),
        parent_link=_text(j, "parent_link", where),
        origin=Transform.from_json(j.get("origin"), f"{where}.origin"),
        axis=_numbers(j, "axis", where, 3, [0.0, 0.0, 1.0]),
        position_limits=tuple(_numbers(limits, "position", at, 2))
        if limits.get("position")
        else None,
        velocity_limit=_numbers(limits, "velocity", at, None, None),
        acceleration_limit=_numbers(limits, "acceleration", at, None, None),
    )


def _link_from_json(l: dict, base_dir: Path, where: str) -> Link:
    return Link(
        name=_text(l, "name", where),
        parent_joint=_text(l, "parent_joint", where, None),
        origin=Transform.from_json(l.get("origin"), f"{where}.origin"),
        geometry=_geometry_from_json(l.get("geometry"), base_dir, f"{where}.geometry"),
    )


def _geometry_from_json(obj, base_dir: Path, where: str):
    if obj is None:
        return None
    obj = _object(obj, where)
    kind = _text(obj, "type", where)
    if kind == "sphere":
        return Sphere(
            radius=_numbers(obj, "radius", where, None),
            center=_numbers(obj, "center", where, 3, [0.0, 0.0, 0.0]),
        )
    if kind == "capsule":
        return Capsule(
            radius=_numbers(obj, "radius", where, None),
            half_length=_numbers(obj, "half_length", where, None),
            axis=_numbers(obj, "axis", where, 3, [0.0, 0.0, 1.0]),
        )
    if kind == "box":
        return Box(half_extents=_numbers(obj, "half_extents", where, 3))
    if kind == "mesh":
        return load_mesh(base_dir / _text(obj, "path", where))
    raise ValidationError(f"{where}: unknown geometry type {kind}")


@dataclass(frozen=True, eq=False)
class ConfigBatch:
    """C joint configurations of a D-DoF robot, one row per waypoint."""

    configurations: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.configurations, dtype=np.float64))
        if q.shape[0] < 1:
            raise ValidationError("ConfigBatch needs at least one configuration")
        bad = ~np.isfinite(q)
        if np.any(bad):
            row, col = np.argwhere(bad)[0]
            raise ValidationError(
                f"configuration row {row}, column {col} is not finite ({q[row, col]})"
            )
        object.__setattr__(self, "configurations", q)
        q.flags.writeable = False

    @property
    def size(self) -> int:
        return self.configurations.shape[0]

    @property
    def dof(self) -> int:
        return self.configurations.shape[1]

    @classmethod
    def from_csv(cls, path) -> "ConfigBatch":
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except (ValueError, UnicodeDecodeError) as err:
            raise ValidationError(f"{path}: {err}") from None
        return cls(data)

    def to_csv(self, path) -> None:
        np.savetxt(path, self.configurations, delimiter=",")


@dataclass(frozen=True, eq=False)
class LinkPoseBatch:
    """Per-configuration rigid transforms of every link.

    ``rotations`` has shape (C, L, 3, 3) and ``translations`` (C, L, 3).
    """

    rotations: np.ndarray
    translations: np.ndarray

    @property
    def n_configs(self) -> int:
        return self.rotations.shape[0]

    @property
    def n_links(self) -> int:
        return self.rotations.shape[1]


def check_limits(model: RobotModel, batch: ConfigBatch) -> None:
    """Raise ``LimitViolationError`` listing offending (config, joint) pairs."""
    if batch.dof != model.dof:
        raise ValidationError(
            f"configurations have {batch.dof} columns, robot has {model.dof} DoF"
        )
    limits = model.position_limits()
    q = batch.configurations
    bad = (q < limits[:, 0]) | (q > limits[:, 1])
    if np.any(bad):
        cs, js = np.nonzero(bad)
        raise LimitViolationError(list(zip(cs.tolist(), js.tolist())))


def forward_kinematics_batch(model: RobotModel, batch: ConfigBatch) -> LinkPoseBatch:
    """Pose of every link for every configuration, vectorized over the batch.

    Pure function; identical to evaluating single-configuration FK per row.
    """
    check_limits(model, batch)
    q = batch.configurations
    n = batch.size

    joint_col = {j.name: i for i, j in enumerate(model.actuated_joints)}
    rotations = np.empty((n, model.n_links, 3, 3))
    translations = np.empty((n, model.n_links, 3))
    link_row = {l.name: i for i, l in enumerate(model.links)}

    for li, link in enumerate(model.links):
        if link.parent_joint is None:
            r_joint = np.broadcast_to(np.eye(3), (n, 3, 3))
            t_joint = np.zeros((n, 3))
        else:
            joint = model.joint(link.parent_joint)
            pi = link_row[joint.parent_link]
            r_p = rotations[:, pi]
            t_p = translations[:, pi]
            r_o = joint.origin.rotation
            t_o = joint.origin.translation
            # Joint transform = origin followed by the joint motion.
            if joint.kind == "revolute":
                r_motion = axis_angle_matrices(joint.axis, q[:, joint_col[joint.name]])
                r_local = r_o @ r_motion
                t_local = np.broadcast_to(t_o, (n, 3))
            elif joint.kind == "prismatic":
                r_local = np.broadcast_to(r_o, (n, 3, 3))
                t_local = t_o + np.outer(q[:, joint_col[joint.name]], r_o @ joint.axis)
            else:  # fixed
                r_local = np.broadcast_to(r_o, (n, 3, 3))
                t_local = np.broadcast_to(t_o, (n, 3))
            r_joint = r_p @ r_local
            t_joint = t_p + np.einsum("cij,cj->ci", r_p, t_local)
        rotations[:, li] = r_joint @ link.origin.rotation
        translations[:, li] = t_joint + np.einsum(
            "cij,j->ci", r_joint, link.origin.translation
        )
    return LinkPoseBatch(rotations=rotations, translations=translations)


def forward_kinematics_single(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Serial single-configuration FK via homogeneous 4x4 matrices.

    Independent reference path used as the oracle for the batched version;
    returns an (L, 4, 4) array of link poses.
    """
    q = np.asarray(q, dtype=np.float64)
    joint_col = {j.name: i for i, j in enumerate(model.actuated_joints)}
    poses: dict[str, np.ndarray] = {}
    out = np.empty((model.n_links, 4, 4))
    for li, link in enumerate(model.links):
        if link.parent_joint is None:
            parent = np.eye(4)
        else:
            joint = model.joint(link.parent_joint)
            parent = poses[joint.parent_link] @ joint.origin.matrix()
            if joint.kind == "revolute":
                m = np.eye(4)
                m[:3, :3] = axis_angle_matrices(joint.axis, q[joint_col[joint.name]])
                parent = parent @ m
            elif joint.kind == "prismatic":
                m = np.eye(4)
                m[:3, 3] = joint.axis * q[joint_col[joint.name]]
                parent = parent @ m
        pose = parent @ link.origin.matrix()
        poses[link.name] = pose
        out[li] = pose
    return out


def max_braking_time(model: RobotModel) -> float:
    """Worst-case stop time: max over joints of velocity/acceleration limit."""
    joints = model.actuated_joints
    if not joints:
        raise ValidationError("robot has no actuated joints")
    return max(j.velocity_limit / j.acceleration_limit for j in joints)


def required_extent(
    v_obs: float, t_brake: float, d_prot: float, link_reach: float
) -> float:
    """Smallest link-SDF extent that still captures approaching obstacles.

    Obstacles closer than ``v_obs * t_brake + d_prot`` to the trajectory
    must be visible, measured from link centers, hence the added reach.
    """
    if min(v_obs, t_brake, d_prot, link_reach) < 0:
        raise ValidationError("required_extent arguments must be non-negative")
    return v_obs * t_brake + d_prot + link_reach
