import numpy as np
import pytest

import viking.kalman
from viking import Dataset, DesignKind, GaussianState, gen_design, gen_wellspecified, kalman_run, kalman_step
from viking.kalman import kalman_run_grid, kalman_traces
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
    Q = np.broadcast_to(0.1 * np.eye(d), (n, 1, B, d, d))
    kalman_run_grid(x, y, np.eye(d), Q, np.ones((n, B)), init, keep_state=False)
    for bad_q in (Q[:-1], np.broadcast_to(0.1 * np.eye(d), (n, 1, B + 1, d, d))):
        with pytest.raises(ValueError):
            kalman_run_grid(x, y, np.eye(d), bad_q, 1.0, init, keep_state=False)
    for bad_sigma2 in (np.ones((n - 1, B)), np.ones(n + 1)):
        with pytest.raises(ValueError):
            kalman_run_grid(x, y, np.eye(d), Q, bad_sigma2, init, keep_state=False)


def test_run_residual_identity(small_dataset):
    trace = kalman_run(small_dataset, np.eye(5), 0.25 * np.eye(5), 1.0)
    for rec in trace:
        assert rec.residual == rec.y - rec.forecast


def _grid_inputs(n=30, B=3, d=4, G=5):
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((n, B, d)), rng.standard_normal((n, B))
    Qs = np.stack([rand_spd(rng, d, ridge=0.01 * (g + 1)) for g in range(G)])[:, None]
    return x, y, 0.9 * np.eye(d), Qs, GaussianState(np.zeros(d), np.eye(d))


def test_grid_cells_equal_their_own_runs():
    x, y, K, Qs, init = _grid_inputs()
    sigma2 = np.linspace(0.5, 1.5, len(x))[:, None]
    blocks = kalman_run_grid(x, y, K, Qs, sigma2, init, keep_state=True)
    for g, Q in enumerate(Qs[:, 0]):
        traces = kalman_traces(y, sigma2, blocks, g)
        for b, got in enumerate(traces):
            want = kalman_run(Dataset(x[:, b].copy(), y[:, b].copy(), 0), K, Q, sigma2[:, 0], init)
            for name in ("forecast", "forecast_var", "residual", "sigma2_eff", "cum_sq_err", "theta", "cov"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (g, b, name)


class _Steps(Exception):
    pass


def _no_steps(*args):
    raise _Steps("a step ran")


def test_grid_rejects_wrong_grid_axis_shapes_before_the_first_step(monkeypatch):
    x, y, K, Qs, init = _grid_inputs()
    monkeypatch.setattr(viking.kalman, "_predict_update", _no_steps)
    with pytest.raises(_Steps):
        kalman_run_grid(x, y, K, Qs, 1.0, init, keep_state=False)
    n, B, d = x.shape
    for bad_q in (Qs[:, 0], np.repeat(Qs, B, axis=1), Qs[:0], Qs[None],
                  np.broadcast_to(Qs[0], (n, 2, B, d, d))):
        with pytest.raises(ValueError):
            kalman_run_grid(x, y, K, bad_q, 1.0, init, keep_state=False)


def test_grid_rejects_one_non_psd_q_before_the_first_step(monkeypatch):
    x, y, K, Qs, init = _grid_inputs()
    monkeypatch.setattr(viking.kalman, "_predict_update", _no_steps)
    for g in (0, len(Qs) - 1):
        bad = Qs.copy()
        bad[g, 0, 1, 1] = -0.5
        with pytest.raises(ValueError, match="positive semidefinite"):
            kalman_run_grid(x, y, K, bad, 1.0, init, keep_state=False)


# ------------------------------------------ c·I transitions applied by scaling

def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()  # the sign of a zero included


@pytest.mark.parametrize("c", [1.0, 0.9, -0.5, 0.0])
def test_scaled_propagate_matches_the_matmul_form(c):
    from viking.kalman import _propagate, transition_scale
    from viking.linalg import sym

    d = 5
    K = c * np.eye(d)
    assert transition_scale(K) == c and isinstance(transition_scale(K), float)
    rng = np.random.default_rng(11)
    Q = np.stack([rand_spd(rng, d, ridge=0.1) for _ in range(4)])[:, None]
    Q[1, 0, 0, 1] = Q[1, 0, 1, 0] = 0.0
    Q[2, 0, 2, 3] = Q[2, 0, 3, 2] = -0.0
    states = [GaussianState(np.zeros(d), np.eye(d)),                        # the zero initial mean
              GaussianState(-np.zeros(d), -np.zeros((d, d))),               # signed zeros
              GaussianState(np.zeros((4, 3, d)), np.broadcast_to(np.eye(d), (4, 3, d, d)))]
    for _ in range(5):
        mean = rng.standard_normal((4, 3, d))
        cov = np.stack([[rand_spd(rng, d) for _ in range(3)] for _ in range(4)])
        mean[0, 1, 2] = -0.0
        mean[1, 0, 0] = 0.0
        cov[2, :, 2, 3] = cov[2, :, 3, 2] = -0.0  # where Q is -0.0 too
        cov[3, 1, 0, 4] = 0.0
        states.append(GaussianState(mean, cov))
    for state in states:
        q = Q if state.mean.ndim > 1 else Q[0, 0]
        want_mean = (K @ state.mean[..., None])[..., 0]
        want_cov = sym(K @ state.cov @ K.T) + q
        got_mean, got_cov = _propagate(state, transition_scale(K), q)
        assert _bits(got_mean) == _bits(want_mean)
        assert _bits(got_cov) == _bits(want_cov)
        assert np.array_equal(np.signbit(got_mean), np.signbit(want_mean))
        assert np.array_equal(np.signbit(got_cov), np.signbit(want_cov))
        exact = GaussianState(state.mean, sym(state.cov))  # exactly symmetric, its signed zeros kept
        assert (_bits(_propagate(exact, transition_scale(K), q, True)[1])
                == _bits(_propagate(exact, transition_scale(K), q)[1]))


def test_other_transitions_keep_the_matmul_form():
    from viking.datagen import resonator_transition
    from viking.kalman import transition_scale

    for K in (resonator_transition(), np.diag([1.0, 0.9, 0.9]), np.array([[1.0, 1e-300], [0.0, 1.0]]),
              np.full((2, 2), np.nan), np.diag([np.inf, np.inf])):
        assert transition_scale(K) is K


def test_step_rejects_non_finite_input():
    state = GaussianState(np.zeros(2), np.eye(2))
    for x, y in ((np.array([np.nan, 1.0]), 0.5), (np.ones(2), np.inf), (np.array([1.0, -np.inf]), 0.0)):
        with pytest.raises(ValueError, match="non-finite"):
            kalman_step(state, np.eye(2), 0.1 * np.eye(2), 1.0, x, y)


def test_grid_names_the_first_non_finite_step_and_series_before_the_first_step(monkeypatch):
    x, y, K, Qs, init = _grid_inputs()
    x[7, 0, 2] = np.nan
    y[4, 2] = np.inf
    y[4, 1] = np.nan
    monkeypatch.setattr(viking.kalman, "_predict_update", _no_steps)
    with pytest.raises(ValueError, match=r"^step 4, series 1: non-finite") as info:
        kalman_run_grid(x, y, K, Qs, 1.0, init, keep_state=False)
    assert info.value.filter == 1


def test_experiment_names_the_seed_of_a_non_finite_observation(monkeypatch):
    from viking import harness
    from viking.harness import ExperimentConfig, ExperimentKind, Method, run_experiment

    make = harness.make_dataset

    def with_nan(cfg, seed):
        ds = make(cfg, seed)
        if seed == 5:
            ds.y[4] = np.nan
        return ds

    monkeypatch.setattr(harness, "make_dataset", with_nan)
    for method in (Method.KALMAN_CONSTANT, Method.KALMAN_ORACLE):
        cfg = ExperimentConfig(ExperimentKind.MS_NONIID, method, n=30, seeds=(3, 5, 8))
        with pytest.raises(ValueError, match=r"^seed 5, step 4, series 1: non-finite"):
            run_experiment(cfg)


# ------------------------- the forecast variance is the update's innovation variance

def _transitions():
    from viking.datagen import resonator_transition

    return {"identity": np.eye(5), "contraction": 0.9 * np.eye(5), "resonator": resonator_transition()}


def _innovation_var(prior_cov, x, sigma2):
    from viking.kalman import _dot, _matvec

    return _dot(x, _matvec(prior_cov, x)) + sigma2


def _assert_innovation_var(got, prior_cov, x, sigma2):
    from viking.kalman import quad_form

    assert _bits(got) == _bits(_innovation_var(prior_cov, x, sigma2))
    quad = quad_form(x, prior_cov) + sigma2
    assert np.all(np.abs(got - quad) <= 1e-14 * np.abs(quad))


@pytest.mark.parametrize("name", ["identity", "contraction", "resonator"])
def test_step_forecast_variance_is_the_innovation_variance(name):
    from viking.kalman import _propagate, transition_scale

    K = _transitions()[name]
    d = len(K)
    rng = np.random.default_rng(21)
    for _ in range(50):
        state = GaussianState(rng.standard_normal(d), rand_spd(rng, d))
        Q, x, sigma2 = rand_spd(rng, d, ridge=0.1), rng.standard_normal(d), rng.uniform(0.2, 2.0)
        _, prior_cov = _propagate(state, transition_scale(K), Q)
        _, _, pred_var = kalman_step(state, K, Q, sigma2, x, rng.normal())
        _assert_innovation_var(pred_var, prior_cov, x, sigma2)


@pytest.mark.parametrize("per_step_sigma2", [False, True], ids=["constant", "oracle"])
@pytest.mark.parametrize("name", ["identity", "contraction", "resonator"])
def test_grid_forecast_variance_is_the_innovation_variance_and_the_steps(name, per_step_sigma2):
    from viking.kalman import _propagate, transition_scale

    K = _transitions()[name]
    d = len(K)
    x, y, _, Qs, _ = _grid_inputs(n=25, B=3, d=d, G=4)
    init = GaussianState(np.zeros(d), np.eye(d))
    rng = np.random.default_rng(22)
    sigma2 = rng.uniform(0.3, 2.0, size=y.shape) if per_step_sigma2 else 1.3
    forecast, forecast_var, theta, cov = kalman_run_grid(x, y, K, Qs, sigma2, init, keep_state=True)
    sigma2 = np.broadcast_to(sigma2, y.shape)
    for t in range(len(x)):
        prev = (GaussianState(np.broadcast_to(init.mean, theta.shape[1:]), np.broadcast_to(init.cov, cov.shape[1:]))
                if t == 0 else GaussianState(theta[t - 1], cov[t - 1]))
        _, prior_cov = _propagate(prev, transition_scale(K), Qs)
        _assert_innovation_var(forecast_var[t], prior_cov, x[t], sigma2[t])
    for g, b in ((0, 0), (len(Qs) - 1, 2)):
        state = init
        for t in range(len(x)):
            state, prediction, pred_var = kalman_step(state, K, Qs[g, 0], sigma2[t, b], x[t, b], y[t, b])
            assert _bits(prediction) == _bits(forecast[t, g, b])
            assert _bits(pred_var) == _bits(forecast_var[t, g, b])
            assert _bits(state.mean) == _bits(theta[t, g, b])
            assert _bits(state.cov) == _bits(cov[t, g, b])


@pytest.mark.parametrize("name", ["identity", "contraction", "resonator"])
def test_grid_symmetrises_an_init_asymmetric_within_tolerance_as_the_steps_do(name):
    # _check_init accepts it, but it is not exactly symmetric, so the grid's
    # first prior must go through sym() as kalman_step's does
    K = _transitions()[name]
    d = len(K)
    x, y, _, Qs, _ = _grid_inputs(n=12, B=2, d=d, G=2)
    cov0 = np.eye(d)
    cov0[0, 1] = 1e-14
    init = GaussianState(np.zeros(d), cov0)
    blocks = kalman_run_grid(x, y, K, Qs, 1.3, init, keep_state=True)
    for g in range(len(Qs)):
        for b in range(x.shape[1]):
            state = init
            for t in range(len(x)):
                state, prediction, pred_var = kalman_step(state, K, Qs[g, 0], 1.3, x[t, b], y[t, b])
                for block, want in zip(blocks, (prediction, pred_var, state.mean, state.cov)):
                    assert _bits(block[t, g, b]) == _bits(want), (g, b, t)


def test_step_and_grid_buffers_never_leak_into_results():
    x, y, K, Qs, init = _grid_inputs()
    post, _, _ = kalman_step(init, K, Qs[0, 0], 1.0, x[0, 0], y[0, 0])
    kept = _bits(post.mean), _bits(post.cov)
    kalman_step(post, K, Qs[1, 0], 0.7, x[1, 0], y[1, 0])
    kalman_step(init, K, Qs[2, 0], 1.3, x[2, 1], y[2, 1])
    assert (_bits(post.mean), _bits(post.cov)) == kept
    first = kalman_run_grid(x, y, K, Qs, 1.0, init, keep_state=True)
    kept = [_bits(block) for block in first]
    second = kalman_run_grid(x, y, K, Qs, 1.0, init, keep_state=True)
    lean = kalman_run_grid(x, y, K, Qs, 1.0, init, keep_state=False)
    assert [_bits(block) for block in first] == kept == [_bits(block) for block in second]
    assert [_bits(block) for block in lean[:2]] == kept[:2] and lean[2:] == (None, None)


def test_rank_one_update_returns_the_innovation_variance():
    from viking.kalman import rank_one_update

    rng = np.random.default_rng(23)
    d = 4
    mean, P, x = rng.standard_normal(d), rand_spd(rng, d), rng.standard_normal(d)
    post, denom = rank_one_update(mean, P, 0.7, x, 1.1, x @ mean)
    assert _bits(denom) == _bits(_innovation_var(P, x, 0.7))
    post.validate()


# --------------------------------------------------- validation of stacks and sigma2

def test_validate_takes_a_stack_of_covariances():
    rng = np.random.default_rng(24)
    for shape in ((5,), (3,), (2, 3)):
        cov = np.stack([rand_spd(rng, 5) for _ in range(int(np.prod(shape)))]).reshape(shape + (5, 5))
        GaussianState(np.zeros(shape + (5,)), cov).validate()
        asym = cov.copy()
        asym[(0,) * len(shape) + (0, 1)] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianState(np.zeros(shape + (5,)), asym).validate()
        neg = cov.copy()
        neg[(-1,) * len(shape) + (2, 2)] = -5.0
        with pytest.raises(ValueError, match="negative eigenvalue"):
            GaussianState(np.zeros(shape + (5,)), neg).validate()


def test_validate_scales_each_matrix_of_a_stack_by_its_own_size():
    # an asymmetry far below the large matrix's scale but far above the small one's
    cov = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-9], [0.0, 1.0]])])
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(np.zeros((2, 2)), cov).validate()


@pytest.mark.parametrize("sigma2", [np.inf, np.nan, 0.0, -1.0])
def test_step_and_grid_reject_an_observation_variance_that_is_not_finite_and_positive(sigma2, monkeypatch):
    state = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="observation variance must be finite and > 0"):
        kalman_step(state, np.eye(2), 0.1 * np.eye(2), sigma2, np.ones(2), 0.5)
    x, y, K, Qs, init = _grid_inputs()
    monkeypatch.setattr(viking.kalman, "_predict_update", _no_steps)
    per_step = np.ones(y.shape)
    per_step[3, 1] = sigma2
    for bad in (sigma2, per_step):
        with pytest.raises(ValueError, match="observation variance must be finite and > 0"):
            kalman_run_grid(x, y, K, Qs, bad, init, keep_state=False)


def _bad_inits(d):
    eye = np.eye(d)
    upper = np.triu(np.ones((d, d)))
    return {
        "nan mean": GaussianState(np.full(d, np.nan), eye),
        "inf covariance": GaussianState(np.zeros(d), np.where(eye > 0, np.inf, 0.0)),
        "negative covariance": GaussianState(np.zeros(d), -eye),
        "asymmetric covariance": GaussianState(np.zeros(d), upper),
        "short mean": GaussianState(np.zeros(d - 1), eye),
        "small covariance": GaussianState(np.zeros(d), np.eye(d - 1)),
        "batched mean": GaussianState(np.zeros((3, d)), eye),
    }


@pytest.mark.parametrize("case", sorted(_bad_inits(4)))
def test_grid_rejects_a_bad_init_before_the_first_step(case, monkeypatch):
    x, y, K, Qs, _ = _grid_inputs()
    monkeypatch.setattr(viking.kalman, "_predict_update", _no_steps)
    with pytest.raises(ValueError, match="^init: "):
        kalman_run_grid(x, y, K, Qs, 1.0, _bad_inits(4)[case], keep_state=False)


@pytest.mark.parametrize("case", sorted(_bad_inits(4)))
def test_step_rejects_a_bad_state(case):
    with pytest.raises(ValueError, match="^state: "):
        kalman_step(_bad_inits(4)[case], np.eye(4), 0.1 * np.eye(4), 1.0, np.ones(4), 0.5)


def test_run_rejects_the_bad_inits_that_gave_nan_and_negative_forecasts():
    ds = gen_wellspecified(gen_design(DesignKind.IID, 30, 1), 1)
    eye = np.eye(5)
    for init in (GaussianState(np.full(5, np.nan), eye), GaussianState(np.zeros(5), -eye)):
        with pytest.raises(ValueError, match="^init: "):
            kalman_run(ds, eye, 0.1 * eye, 1.0, init)


def test_a_psd_init_with_signed_zeros_and_a_singular_covariance_runs():
    x, y, K, Qs, _ = _grid_inputs()
    d = x.shape[-1]
    singular = np.zeros((d, d))
    singular[0, 0] = 1.0
    for init in (GaussianState(-np.zeros(d), -np.zeros((d, d))), GaussianState(np.zeros(d), singular)):
        forecast, forecast_var, _, _ = kalman_run_grid(x, y, K, Qs, 1.0, init, keep_state=False)
        assert np.isfinite(forecast).all() and (forecast_var > 0.0).all()
