import numpy as np
import pytest

from viking import DesignKind, GaussianState, gen_design, gen_wellspecified, kalman_run, kalman_step
from viking.kalman import kalman_run_batch
from oracles import quadrature_posterior_1d, rand_spd


def test_scalar_example():
    state = GaussianState(np.zeros(1), np.eye(1))
    post, prediction, pred_var = kalman_step(
        state, np.eye(1), np.zeros((1, 1)), 1.0, np.array([1.0]), 1.0
    )
    assert prediction == 0.0
    assert pred_var == pytest.approx(2.0)
    assert post.cov[0, 0] == pytest.approx(0.5)
    assert post.mean[0] == pytest.approx(0.5)


def test_scalar_matches_quadrature_posterior():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m0 = rng.normal()
        v0 = rng.uniform(0.3, 2.0)
        x = rng.uniform(0.2, 2.0)
        y = rng.normal() * 2.0
        sigma2 = rng.uniform(0.3, 2.0)
        state = GaussianState(np.array([m0]), np.array([[v0]]))
        post, _, _ = kalman_step(state, np.eye(1), np.zeros((1, 1)), sigma2, np.array([x]), y)
        mean, var = quadrature_posterior_1d(m0, v0, x, y, sigma2)
        assert post.mean[0] == pytest.approx(mean, abs=1e-6)
        assert post.cov[0, 0] == pytest.approx(var, abs=1e-6)


def test_zero_regressor_propagates_prior():
    rng = np.random.default_rng(4)
    d = 3
    state = GaussianState(rng.standard_normal(d), rand_spd(rng, d))
    K = rng.standard_normal((d, d))
    Q = rand_spd(rng, d, ridge=0.1)
    post, prediction, _ = kalman_step(state, K, Q, 1.3, np.zeros(d), 0.7)
    np.testing.assert_allclose(post.mean, K @ state.mean, atol=1e-14)
    np.testing.assert_allclose(post.cov, 0.5 * (K @ state.cov @ K.T + (K @ state.cov @ K.T).T) + Q, atol=1e-13)
    assert prediction == 0.0


def test_huge_observation_variance_is_uninformative():
    rng = np.random.default_rng(5)
    d = 4
    state = GaussianState(rng.standard_normal(d), rand_spd(rng, d))
    K = np.eye(d)
    post, _, _ = kalman_step(state, K, 0.1 * np.eye(d), 1e12, rng.standard_normal(d), 2.0)
    assert np.abs(post.mean - state.mean).max() < 1e-9


def test_identity_step():
    state = GaussianState(np.array([1.0, -2.0]), np.diag([0.5, 2.0]))
    post, _, _ = kalman_step(state, np.eye(2), np.zeros((2, 2)), 1.0, np.zeros(2), 0.0)
    np.testing.assert_array_equal(post.mean, state.mean)
    np.testing.assert_allclose(post.cov, state.cov, atol=1e-15)


def test_posterior_never_exceeds_prior_covariance():
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = rng.integers(1, 6)
        state = GaussianState(rng.standard_normal(d), rand_spd(rng, d))
        K = rng.standard_normal((d, d)) * 0.5 + np.eye(d)
        Q = rand_spd(rng, d, ridge=0.05)
        x = rng.standard_normal(d)
        post, _, _ = kalman_step(state, K, Q, rng.uniform(0.2, 2.0), x, rng.normal())
        prior_cov = K @ state.cov @ K.T + Q
        assert np.linalg.eigvalsh(0.5 * (prior_cov + prior_cov.T) - post.cov).min() >= -1e-10
        post.validate()


def test_invalid_arguments():
    state = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        kalman_step(state, np.eye(2), np.eye(2), 0.0, np.ones(2), 1.0)
    with pytest.raises(ValueError):
        kalman_step(state, np.eye(2), -np.eye(2), 1.0, np.ones(2), 1.0)
    with pytest.raises(ValueError):
        kalman_step(state, np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, np.ones(2), 1.0)


@pytest.fixture
def small_dataset():
    design = gen_design(DesignKind.IID, 40, seed=11)
    return gen_wellspecified(design, seed=11)


def test_run_empty_trace(small_dataset):
    ds = small_dataset
    ds_empty = type(ds)(ds.x[:0], ds.y[:0], ds.seed)
    assert kalman_run(ds_empty, np.eye(5), np.eye(5), 1.0) == []


def test_run_constant_equals_per_step_schedules(small_dataset):
    ds = small_dataset
    K = np.eye(5)
    Q = 0.2 * np.eye(5)
    t1 = kalman_run(ds, K, Q, 1.0)
    t2 = kalman_run(ds, K, np.repeat(Q[None], ds.n, axis=0), np.full(ds.n, 1.0))
    for a, b in zip(t1, t2):
        assert a.forecast == b.forecast
        assert a.forecast_var == b.forecast_var
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.cov, b.cov)


def test_run_schedule_length_mismatch(small_dataset):
    ds = small_dataset
    with pytest.raises(ValueError):
        kalman_run(ds, np.eye(5), np.zeros((ds.n - 1, 5, 5)), 1.0)
    with pytest.raises(ValueError):
        kalman_run(ds, np.eye(5), np.eye(5), np.ones(ds.n + 2))


def test_batch_rejects_wrong_schedule_shapes_before_the_first_step():
    n, B, d = 6, 2, 3
    rng = np.random.default_rng(0)
    x, y = rng.random((n, B, d)), rng.random((n, B))
    init = GaussianState(np.zeros(d), np.eye(d))
    Q = np.broadcast_to(0.1 * np.eye(d), (n, B, d, d))
    kalman_run_batch(x, y, np.eye(d), Q, np.ones((n, B)), init, keep_state=False)
    for bad_q in (Q[:-1], np.broadcast_to(0.1 * np.eye(d), (n, B + 1, d, d))):
        with pytest.raises(ValueError):
            kalman_run_batch(x, y, np.eye(d), bad_q, 1.0, init, keep_state=False)
    for bad_sigma2 in (np.ones((n - 1, B)), np.ones(n + 1)):
        with pytest.raises(ValueError):
            kalman_run_batch(x, y, np.eye(d), Q, bad_sigma2, init, keep_state=False)


def test_run_residual_identity(small_dataset):
    trace = kalman_run(small_dataset, np.eye(5), 0.25 * np.eye(5), 1.0)
    for rec in trace:
        assert rec.residual == rec.y - rec.forecast
