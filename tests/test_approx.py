"""Rotation sampling, training, inference, and model files."""

import numpy as np
import pytest

from linksdf import (
    DimensionMismatchError,
    EnvGrid,
    NeuralTransformProvider,
    TinyMlp,
    TrainingConfig,
    ValidationError,
    WindowGeometry,
    evaluate_approximator,
    grid_transform_exact,
    infer_grid_transform,
    masked_window_points,
    sample_rotations,
    train_approximator,
)


def random_mlp(n_points: int, hidden: int = 32, seed: int = 0) -> TinyMlp:
    """An untrained model with Gaussian weights, as a point of comparison."""
    rng = np.random.default_rng(seed)
    return TinyMlp(
        rng.normal(0.0, 0.3, size=(9, hidden)),
        np.zeros(hidden),
        rng.normal(0.0, 0.3, size=(hidden, 3 * n_points)),
        np.zeros(3 * n_points),
    )


class TestSampleRotation:
    def test_orthonormal(self, rng):
        r = sample_rotations(rng, 1000)
        assert np.abs(r @ r.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-6
        assert np.abs(np.linalg.norm(r, axis=1) - 1).max() <= 1e-6  # column norms

    def test_single(self, rng):
        (r,) = sample_rotations(rng, 1)
        assert r.shape == (3, 3)
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-9

    def test_uniformity_mean_is_zero(self):
        r = sample_rotations(np.random.default_rng(0), 100_000)
        assert np.abs(r.mean(axis=0)).max() <= 0.02

    def test_determinant_positive(self, rng):
        r = sample_rotations(rng, 500)
        assert np.all(np.linalg.det(r) > 0.999)


@pytest.fixture(scope="module")
def tiny_points():
    return masked_window_points(6)


@pytest.fixture(scope="module")
def trained_tiny(tiny_points):
    config = TrainingConfig(steps=30_000, seed=3, target_max_error=0.0013)
    return train_approximator(tiny_points, config)


class TestTraining:
    def test_reaches_target(self, trained_tiny):
        assert trained_tiny.validation_max_error <= 0.0013

    def test_identity_rotation_recovers_points(self, trained_tiny, tiny_points):
        out = trained_tiny.predict(np.eye(3))
        assert np.abs(out - tiny_points).max() <= 0.0013

    def test_loss_curve_monotone_with_noise(self, trained_tiny):
        # Monotone non-increasing within 5% noise while descending; once at
        # the optimizer's floor the checkpoints just have to stay there.
        maes = [mae for _, mae, _ in trained_tiny.history]
        floor = 2.0 * maes[-1]
        best = maes[0]
        for mae in maes[1:]:
            assert mae <= max(best * 1.05, floor)
            best = min(best, mae)

    def test_untrained_much_worse(self, trained_tiny, tiny_points, rng):
        untrained = random_mlp(len(tiny_points), seed=9)
        trained_rep = evaluate_approximator(trained_tiny, tiny_points, 2000, np.random.default_rng(5))
        untrained_rep = evaluate_approximator(untrained, tiny_points, 2000, np.random.default_rng(5))
        assert untrained_rep["mean_abs_error"] >= 10 * trained_rep["mean_abs_error"]

    def test_deterministic_given_seed(self, tiny_points):
        config = TrainingConfig(steps=300, seed=11, target_max_error=np.inf)
        a = train_approximator(tiny_points, config)
        b = train_approximator(tiny_points, config)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_not_converged_carries_model(self, tiny_points):
        from linksdf import NotConvergedError

        config = TrainingConfig(steps=200, seed=0, target_max_error=1e-9)
        with pytest.raises(NotConvergedError) as err:
            train_approximator(tiny_points, config)
        assert err.value.model is not None
        assert err.value.achieved_error > 1e-9

    def test_bad_learning_rate(self):
        with pytest.raises(ValidationError):
            TrainingConfig(learning_rate=0.0)


class TestInference:
    def test_zero_shift_equals_prediction(self, trained_tiny, rng):
        r = sample_rotations(rng, 8)
        direct = trained_tiny.predict(r)
        shifted = infer_grid_transform(trained_tiny, r, np.zeros((8, 3)), 0.3)
        assert np.array_equal(shifted, direct.astype(np.float64))

    def test_matches_exact_within_budget(self, trained_tiny, tiny_points, rng):
        r = sample_rotations(rng, 200)
        dt = rng.uniform(-0.05, 0.05, size=(200, 3))
        approx = infer_grid_transform(trained_tiny, r, dt, 0.3)
        exact = grid_transform_exact(r, dt, 0.3, tiny_points)
        assert np.abs(approx - exact).max() <= 0.0013

    def test_metric_error_scaling(self, trained_tiny, tiny_points):
        # Componentwise budget of 0.0013 normalized means 1.56 mm at a
        # 1.2 m link extent.
        rep = evaluate_approximator(trained_tiny, tiny_points, 5000, np.random.default_rng(2))
        metric = rep["max_abs_error"] * 1.2
        assert metric <= 0.0013 * 1.2
        assert 0.0013 * 1.2 == pytest.approx(0.00156)


class TestEvaluate:
    def test_exact_against_itself_is_zero(self, tiny_points, rng):
        def exact(rotations):
            shift = np.zeros((len(rotations), 3))
            return grid_transform_exact(rotations, shift, 1.0, tiny_points)

        rep = evaluate_approximator(exact, tiny_points, 500, rng)
        assert rep["max_abs_error"] == 0.0
        assert rep["mean_abs_error"] == 0.0

    def test_mean_le_max(self, trained_tiny, tiny_points, rng):
        rep = evaluate_approximator(trained_tiny, tiny_points, 1000, rng)
        assert rep["mean_abs_error"] <= rep["max_abs_error"]

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_a_sample(self, trained_tiny, tiny_points, rng, n):
        with pytest.raises(ValidationError):
            evaluate_approximator(trained_tiny, tiny_points, n, rng)


class TestProviderWiring:
    def test_dimension_mismatch(self, trained_tiny):
        grid = EnvGrid(extent=1.0, resolution=0.1)
        window = WindowGeometry.build(0.4, grid)  # width 8 != trained width 6
        with pytest.raises(DimensionMismatchError):
            NeuralTransformProvider(trained_tiny, window)

    def test_matching_window(self, trained_tiny):
        grid = EnvGrid(extent=1.0, resolution=0.1)
        window = WindowGeometry.build(0.3, grid)
        provider = NeuralTransformProvider(trained_tiny, window)
        g = provider.transform(np.eye(3)[None], np.zeros((1, 3)))
        assert g.shape == (1, window.n_masked, 3)


class TestSerialization:
    def test_round_trip_bit_exact(self, trained_tiny, tmp_path):
        path = tmp_path / "model.tmlp"
        trained_tiny.save(path)
        back = TinyMlp.load(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(back, name), getattr(trained_tiny, name))
        path2 = tmp_path / "model2.tmlp"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header(self, trained_tiny, tmp_path):
        path = tmp_path / "model.tmlp"
        trained_tiny.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"TMLP"

    def test_truncated_rejected(self, trained_tiny, tmp_path):
        path = tmp_path / "model.tmlp"
        trained_tiny.save(path)
        (tmp_path / "cut.tmlp").write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValidationError):
            TinyMlp.load(tmp_path / "cut.tmlp")

    def test_masked_window_points_validation(self):
        with pytest.raises(ValidationError):
            masked_window_points(5)
        with pytest.raises(ValidationError):
            masked_window_points(0)
