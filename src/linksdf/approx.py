"""Tiny neural substitute for the window grid transform.

A two-layer fully connected network with one ReLU maps a flattened rotation
matrix directly to the transformed canonical point set, replacing the
tall-and-skinny matrix product at placement time. The mapping depends only
on the window geometry, not on any robot, so one trained model is reusable
across robots sharing a window width.

Training is plain in-repo numpy: forward, backward, and adaptive-moment
updates on mean-absolute-error against exact targets from freshly sampled
uniform rotations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotConvergedError, ValidationError
from .grids import EnvGrid, _read_exact
from .placement import WindowGeometry, grid_transform_exact

TMLP_MAGIC = b"TMLP"
TMLP_VERSION = 1

DEFAULT_HIDDEN = 32
DEFAULT_MAX_ERROR = 0.0013

# Early stopping: screen cheaply every _EVAL_EVERY steps, confirm on the
# full validation set once the screen clears _STOP_FRACTION * target.
_EVAL_EVERY = 1000
_SCREEN_SIZE = 2048
_VAL_SIZE = 10_000
_STOP_FRACTION = 0.5
# Adaptive-moment decay rates and denominator guard.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# Rotations per predictor call when measuring errors.
_ERROR_CHUNK = 512


def sample_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random rotation matrices via normalized quaternions, (n, 3, 3)."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def masked_window_points(width: int) -> np.ndarray:
    """Canonical kept-cell point set for an isotropic window of given width."""
    if width < 2 or width % 2:
        raise ValidationError(f"window width must be even and >= 2, got {width}")
    grid = EnvGrid(extent=1.0, resolution=2.0 / width)
    return WindowGeometry.build(1.0, grid).masked_points


@dataclass
class TinyMlp:
    """Two fully connected layers with one ReLU in between.

    Output layout is one (x, y, z) triple per canonical window cell, in the
    cell order of the point set the model was trained on.
    """

    w1: np.ndarray  # (9, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 3 * n_points)
    b2: np.ndarray  # (3 * n_points,)

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float32))
        if self.w1.shape[0] != 9 or self.w2.shape[0] != self.w1.shape[1]:
            raise ValidationError(f"inconsistent layer shapes {self.w1.shape} {self.w2.shape}")
        if self.w2.shape[1] % 3:
            raise ValidationError("output width must be a multiple of 3")
        if not all(
            np.all(np.isfinite(getattr(self, n))) for n in ("w1", "b1", "w2", "b2")
        ):
            raise ValidationError("model weights must be finite")

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_points(self) -> int:
        return self.w2.shape[1] // 3

    @classmethod
    def initial(cls, n_points: int, hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> "TinyMlp":
        """Structured starting point: paired sign units reconstruct each
        rotation entry as relu(x) - relu(-x); remaining units start random."""
        if hidden < 18:
            raise ValidationError("hidden width must be at least 18")
        rng = np.random.default_rng(seed)
        w1 = np.zeros((9, hidden), dtype=np.float32)
        w1[:, :9] = np.eye(9)
        w1[:, 9:18] = -np.eye(9)
        w1[:, 18:] = rng.normal(0.0, 0.1, size=(9, hidden - 18))
        b1 = np.zeros(hidden, dtype=np.float32)
        b1[18:] = 0.1
        w2 = np.zeros((hidden, 3 * n_points), dtype=np.float32)
        b2 = np.zeros(3 * n_points, dtype=np.float32)
        return cls(w1, b1, w2, b2)

    def predict(self, rotations: np.ndarray) -> np.ndarray:
        """(B, 3, 3) or (3, 3) rotations -> (B, n_points, 3) coordinates."""
        r = np.asarray(rotations, dtype=np.float32)
        single = r.ndim == 2
        x = r.reshape(-1, 9)
        h = np.maximum(x @ self.w1 + self.b1, 0.0)
        y = (h @ self.w2 + self.b2).reshape(-1, self.n_points, 3)
        return y[0] if single else y

    def save(self, path) -> None:
        header = struct.pack(
            "<4sIII", TMLP_MAGIC, TMLP_VERSION, self.hidden, self.n_points
        )
        with open(path, "wb") as fh:
            fh.write(header)
            for arr in (self.w1, self.b1, self.w2, self.b2):
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "TinyMlp":
        header_format = "<4sIII"
        with open(path, "rb") as fh:
            header = _read_exact(fh, struct.calcsize(header_format), path, "header")
            magic, version, hidden, n_points = struct.unpack(header_format, header)
            if magic != TMLP_MAGIC:
                raise ValidationError(f"{path}: bad magic {magic!r}")
            if version != TMLP_VERSION:
                raise ValidationError(f"{path}: unsupported version {version}")
            out_dim = 3 * n_points
            arrays = []
            for shape in ((9, hidden), (hidden,), (hidden, out_dim), (out_dim,)):
                raw = _read_exact(fh, 4 * math.prod(shape), path, "weights")
                arrays.append(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
        return cls(*arrays)


@dataclass
class TrainingConfig:
    """Mean-absolute-error regression with adaptive-moment updates."""

    learning_rate: float = 1e-4
    steps: int = 200_000
    batch_size: int = 64
    seed: int = 0
    hidden: int = DEFAULT_HIDDEN
    target_max_error: float = DEFAULT_MAX_ERROR

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")


def _max_component_error(
    predict, points: np.ndarray, rotations: np.ndarray
) -> tuple[float, float]:
    """(max, mean) absolute component error of ``predict`` vs the exact transform."""
    worst = 0.0
    total = 0.0
    count = 0
    for s in range(0, len(rotations), _ERROR_CHUNK):
        r = rotations[s : s + _ERROR_CHUNK]
        approx = np.asarray(predict(r), dtype=np.float64)
        exact = grid_transform_exact(r, np.zeros((len(r), 3)), 1.0, points)
        err = np.abs(approx.reshape(len(r), -1) - exact.reshape(len(r), -1))
        worst = max(worst, float(err.max()))
        total += float(err.sum())
        count += err.size
    return worst, total / count


def train_approximator(points: np.ndarray, config: TrainingConfig | None = None) -> TinyMlp:
    """Fit the transform network for one canonical point set.

    Each step regresses against exact targets on a fresh batch of uniform
    rotations. Training stops early once the held-out maximum component
    error clears the configured margin under the target; raises
    ``NotConvergedError`` (with the model attached) if the step budget runs
    out first. The returned model carries a ``history`` list of
    ``(step, val_mae, val_max)`` checkpoints.
    """
    config = config or TrainingConfig()
    points = np.ascontiguousarray(points, dtype=np.float64)
    n_points = len(points)
    points32 = points.astype(np.float32)

    rng = np.random.default_rng(config.seed)
    model = TinyMlp.initial(n_points, hidden=config.hidden, seed=config.seed)
    val_rotations = sample_rotations(rng, _VAL_SIZE)
    screen_rotations = val_rotations[:_SCREEN_SIZE]

    params = [model.w1, model.b1, model.w2, model.b2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step_buf = [np.empty_like(p) for p in params]
    root_buf = [np.empty_like(p) for p in params]
    lr = np.float32(config.learning_rate)

    history: list[tuple[int, float, float]] = []
    stop_at = _STOP_FRACTION * config.target_max_error

    step = 0
    while step < config.steps:
        step += 1
        r = sample_rotations(rng, config.batch_size)
        x = r.reshape(-1, 9).astype(np.float32)
        t = np.matmul(points32[None], r.astype(np.float32)).reshape(
            config.batch_size, -1
        )

        pre = x @ model.w1 + model.b1
        h = np.maximum(pre, 0.0)
        y = h @ model.w2 + model.b2

        dy = np.sign(y - t).astype(np.float32)
        dy /= np.float32(dy.size)
        dw2 = h.T @ dy
        db2 = dy.sum(axis=0)
        dh = dy @ model.w2.T
        dh[pre <= 0] = 0.0
        dw1 = x.T @ dh
        db1 = dh.sum(axis=0)

        bc1 = 1.0 - _BETA1**step
        bc2 = 1.0 - _BETA2**step
        # In place, in the order of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        # after m += (1 - b1) * (g - m) and v += (1 - b2) * (g * g - v).
        grads = (dw1, db1, dw2, db2)
        for p, mi, vi, g, a, b in zip(params, m, v, grads, step_buf, root_buf):
            np.subtract(g, mi, out=a)
            a *= 1.0 - _BETA1
            mi += a
            np.multiply(g, g, out=a)
            a -= vi
            a *= 1.0 - _BETA2
            vi += a
            np.divide(mi, bc1, out=a)
            a *= lr
            np.divide(vi, bc2, out=b)
            np.sqrt(b, out=b)
            b += _EPS
            a /= b
            p -= a

        if step % _EVAL_EVERY == 0 or step == config.steps:
            # History always measures the same fixed screen set so the
            # checkpoints are comparable; the stop decision confirms on the
            # full validation set.
            screen_max, screen_mae = _max_component_error(
                model.predict, points, screen_rotations
            )
            history.append((step, screen_mae, screen_max))
            if screen_max <= stop_at or step == config.steps:
                val_max, _ = _max_component_error(model.predict, points, val_rotations)
                if val_max <= stop_at:
                    break

    val_max, val_mae = _max_component_error(model.predict, points, val_rotations)
    model.history = history
    model.validation_max_error = val_max
    model.validation_mean_error = val_mae
    if val_max > config.target_max_error:
        raise NotConvergedError(val_max, config.target_max_error, model=model)
    return model


def infer_grid_transform(model: TinyMlp, rotations, delta_t, extent_r) -> np.ndarray:
    """Approximate sample coordinates: f(R) plus the broadcast shift.

    Mirrors :func:`linksdf.placement.grid_transform_exact` with the network
    substituted for the matrix product; the shift term stays exact. The
    shift is the exact transform of the window origin.
    """
    g = model.predict(rotations).astype(np.float64)
    return g + grid_transform_exact(rotations, delta_t, extent_r, np.zeros((1, 3)))


def evaluate_approximator(
    predict,
    points: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Componentwise error of a transform predictor vs the exact product.

    ``predict`` is a :class:`TinyMlp` or any callable mapping (B, 3, 3)
    rotations to (B, V, 3) coordinates. Returns max and mean absolute error
    over ``n_samples`` uniform rotations.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    fn = predict.predict if isinstance(predict, TinyMlp) else predict
    points = np.ascontiguousarray(points, dtype=np.float64)
    worst, mean = _max_component_error(fn, points, sample_rotations(rng, n_samples))
    return {"max_abs_error": worst, "mean_abs_error": mean}


class NeuralTransformProvider:
    """Placement transform provider backed by a trained TinyMlp.

    The network's sample coordinates are in units of the link extent
    ``e_r``, so a model whose largest componentwise error is ``eps`` moves
    each sample point by up to ``e_r * sqrt(3) * eps``: about 1.1 mm at
    ``e_r`` = 0.48 m and ``eps`` = 1.3e-3. That error comes on top of the
    ``sqrt(3)/2 * (r_e + r_l)`` budget, which assumes the exact transform.
    """

    def __init__(self, model: TinyMlp, window: WindowGeometry):
        if model.n_points != window.n_masked:
            raise DimensionMismatchError(
                f"model emits {model.n_points} points but the window keeps "
                f"{window.n_masked}"
            )
        self.model = model
        self.window = window

    def transform(self, rotations: np.ndarray, delta_t: np.ndarray) -> np.ndarray:
        return infer_grid_transform(
            self.model, rotations, delta_t, self.window.extent
        )
