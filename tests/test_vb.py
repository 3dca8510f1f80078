import copy
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import viking as vk
from viking.kalman import GaussianState
from viking.linalg import SingularMatrixError
from viking.vb import (
    VarianceBeliefs,
    VikingHyper,
    VikingState,
    default_initial_state,
    estimate_precision,
    forecast,
    sample_noise_latents,
    state_from_checkpoint,
    stack_states,
    state_to_checkpoint,
    update_a,
    update_b,
    update_s,
    update_state_moments,
    viking_run,
    viking_run_batch,
    viking_step,
)
from oracles import (
    a_bound,
    a_objective,
    b_bound,
    minimize_quadratic_coordinate_descent,
    minimize_scalar,
    rand_spd,
    s_bound,
    state_objective,
)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------- precision


def test_estimate_precision_degenerate_sigma():
    tr = vk.NoiseTransform.diagonal(3)
    rng = make_rng(1)
    KPK = rand_spd(rng, 3)
    b_hat = np.array([0.2, 0.5, 1.0])
    A, A_inv = estimate_precision(b_hat, np.zeros((3, 3)), KPK, tr, 10, rng)
    np.testing.assert_array_equal(A_inv, KPK + vk.apply_f(tr, b_hat))
    np.testing.assert_allclose(A @ A_inv, np.eye(3), atol=1e-12)


def test_estimate_precision_all_negative_draws():
    tr = vk.NoiseTransform.scalar(1)
    rng = make_rng(2)
    A, A_inv = estimate_precision(np.array([-5.0]), 1e-8 * np.eye(1), np.array([[1.0]]), tr, 8, rng)
    assert A[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert A_inv[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_estimate_precision_jensen_on_realized_samples():
    # the sample-mean of inverses dominates the inverse of the sample mean
    for seed in range(20):
        tr = vk.NoiseTransform.diagonal(4)
        rng = make_rng(seed)
        KPK = rand_spd(rng, 4, ridge=0.3)
        b_hat = rng.uniform(0.0, 1.0, size=4)
        Sigma = rand_spd(rng, 4, ridge=0.02) * 0.1
        rng_a = make_rng(1000 + seed)
        rng_b = make_rng(1000 + seed)
        A, _ = estimate_precision(b_hat, Sigma, KPK, tr, 12, rng_a)
        draws = sample_noise_latents(b_hat, Sigma, 12, rng_b)
        mean_C = KPK + np.diag(np.mean(
            [np.where(b >= 0, np.log1p(np.maximum(b, 0.0)), 0.0) for b in draws], axis=0))
        diff = A - np.linalg.inv(mean_C)
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() >= -1e-10


def test_estimate_precision_singular():
    tr = vk.NoiseTransform.scalar(2)
    with pytest.raises(SingularMatrixError):
        estimate_precision(np.array([-3.0]), np.zeros((1, 1)), np.zeros((2, 2)), tr, 4, make_rng(0))


# ---------------------------------------------------------- state moments


def test_update_state_moments_zero_regressor():
    rng = make_rng(3)
    A_inv = rand_spd(rng, 3)
    prior_mean = rng.standard_normal(3)
    out = update_state_moments(A_inv, 0.3, 0.1, prior_mean, np.zeros(3), 1.0)
    np.testing.assert_allclose(out.cov, A_inv, atol=1e-14)
    np.testing.assert_array_equal(out.mean, prior_mean)


def test_update_state_moments_scalar_example():
    out = update_state_moments(np.array([[1.0]]), 0.0, 0.0, np.zeros(1), np.array([1.0]), 1.0)
    assert out.cov[0, 0] == pytest.approx(0.5)
    assert out.mean[0] == pytest.approx(0.5)


def test_update_state_moments_gain_increases_with_s():
    gains = []
    for s in (0.0, 0.5, 1.0):
        out = update_state_moments(np.array([[1.0]]), 0.0, s, np.zeros(1), np.array([1.0]), 1.0)
        gains.append(out.cov[0, 0] / math.exp(0.0 - 0.5 * s))
    assert gains[0] < gains[1] < gains[2]


def test_update_state_moments_minimizes_objective():
    rng = make_rng(4)
    for _ in range(50):
        d = rng.integers(1, 5)
        A = rand_spd(rng, d, ridge=0.3)
        A_inv = np.linalg.inv(A)
        prior_mean = rng.standard_normal(d)
        x = rng.standard_normal(d)
        y = float(rng.normal(scale=2.0))
        a_hat = float(rng.normal(scale=0.5))
        s = float(rng.uniform(0.0, 0.5))
        out = update_state_moments(0.5 * (A_inv + A_inv.T), a_hat, s, prior_mean, x, y)
        val_after = state_objective(out.mean, out.cov, A, prior_mean, x, y, a_hat, s)
        theta0 = rng.standard_normal(d)
        P0 = rand_spd(rng, d, ridge=0.2)
        val_before = state_objective(theta0, P0, A, prior_mean, x, y, a_hat, s)
        assert val_after <= val_before + 1e-10


# ------------------------------------------------------------------- s / a


def test_update_s_examples():
    assert update_s(0.0, 0.7, 0.4) == pytest.approx(0.4)
    assert update_s(2.0, 0.0, 1.0) == pytest.approx(0.5)
    assert update_s(1e300, 0.0, 1.0) > 0.0
    assert update_s(1e300, 0.0, 1.0) < 1e-290


def test_update_s_matches_numeric_minimizer():
    rng = make_rng(5)
    for _ in range(50):
        r2 = float(rng.uniform(0.0, 5.0))
        a_hat = float(rng.normal())
        s_prior = float(rng.uniform(0.05, 2.0))
        closed = update_s(r2, a_hat, s_prior)
        numeric = minimize_scalar(lambda s: s_bound(s, r2, a_hat, s_prior), 1e-9, s_prior)
        assert closed == pytest.approx(numeric, rel=1e-6)


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=1e-6, max_value=1e3))
def test_update_s_stays_in_interval(r2, a_hat, s_prior):
    s = update_s(r2, a_hat, s_prior)
    assert 0.0 < s <= s_prior


def test_update_a_stationary_point():
    # r2 * exp(-a_prev + s/2) = 1 leaves the mean unchanged
    a_prev, s = 0.4, 0.2
    r2 = math.exp(a_prev - 0.5 * s)
    assert update_a(r2, a_prev, s, 1.0, 0.5) == pytest.approx(a_prev)


def test_update_a_example_and_clamp():
    assert update_a(0.0, 0.0, 0.3, 1.0, 1.0) == pytest.approx(-0.5)
    assert update_a(1e6, 0.0, 0.0, 1.0, 0.1) == pytest.approx(0.1)


def test_update_a_matches_numeric_minimizer():
    rng = make_rng(6)
    for _ in range(50):
        r2 = float(rng.uniform(0.0, 5.0))
        a_prev = float(rng.normal())
        s = float(rng.uniform(0.0, 0.5))
        s_prior = float(rng.uniform(0.05, 2.0))
        m_a = float(rng.uniform(0.01, 1.0))
        closed = update_a(r2, a_prev, s, s_prior, m_a)
        numeric = minimize_scalar(lambda a: a_bound(a, r2, a_prev, s, s_prior, m_a),
                                  a_prev - m_a, a_prev + m_a)
        assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-7)


@given(st.floats(min_value=0.0, max_value=1e8), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-4, max_value=10.0),
       st.floats(min_value=1e-8, max_value=2.0))
def test_update_a_respects_clamp(r2, a_prev, s, s_prior, m_a):
    a = update_a(r2, a_prev, s, s_prior, m_a)
    assert a_prev - m_a - 1e-12 <= a <= a_prev + m_a + 1e-12


# ----------------------------------------------------------------------- b


def test_update_b_pure_diffusion():
    b_prev = np.array([0.3, 0.7])
    Sigma_prev = np.diag([0.2, 0.4])
    b_new, Sigma_new = update_b(b_prev, Sigma_prev, np.zeros(2), np.zeros((2, 2)), 0.05)
    np.testing.assert_array_equal(b_new, b_prev)
    np.testing.assert_allclose(Sigma_new, Sigma_prev + 0.05 * np.eye(2), atol=1e-12)


def test_update_b_scalar_example():
    b_new, Sigma_new = update_b(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                                np.array([[2.0]]), 0.0)
    assert Sigma_new[0, 0] == pytest.approx(0.5)
    assert b_new[0] == pytest.approx(1.0 - 0.25)


def test_update_b_threshold():
    b_new, _ = update_b(np.array([0.01]), np.array([[1.0]]), np.array([50.0]),
                        np.array([[0.0]]), 0.0)
    assert b_new[0] == 0.0


def test_update_b_known_latent_is_not_updated():
    # a zero Sigma_prev + rho_b I means b is known: no update, no inversion
    b_prev = np.array([0.3, 0.7])
    vk.reset_spd_inversion_count()
    b_new, Sigma_new = update_b(b_prev, np.zeros((2, 2)), np.array([1.0, -2.0]), np.eye(2), 0.0)
    assert vk.spd_inversion_count() == 0
    np.testing.assert_array_equal(b_new, b_prev)
    np.testing.assert_array_equal(Sigma_new, np.zeros((2, 2)))


def test_experiment_with_a_known_latent_keeps_it():
    # learn_b on with rho_b = 0 and sigma0 = 0: the first step used to raise
    # SingularMatrixError on the zero prior covariance of b
    from viking.harness import ExperimentConfig, ExperimentKind, InitOverrides, Method, make_dataset, run_cell

    cfg = ExperimentConfig(ExperimentKind.MS_IID, Method.VIKING, n=40, seeds=(1,), n_mc=3, rho_b=0.0,
                           init=InitOverrides(sigma0=0.0))
    (point,) = vk.grid_points(cfg)
    trace = run_cell(cfg, point, make_dataset(cfg, 1), 1)
    assert np.isfinite(trace.forecast).all()
    assert (trace.b_hat == trace.b_hat[0]).all()
    assert not trace.sigma_diag.any()


def test_known_latent_at_zero_skips_the_b_bound():
    # with q0 = 0 the known latent sits at b = 0, where the b bound is not
    # defined; a known latent needs no bound, so the run must not evaluate it
    from viking.harness import ExperimentConfig, ExperimentKind, InitOverrides, Method, make_dataset, run_cell

    cfg = ExperimentConfig(ExperimentKind.MS_IID, Method.VIKING, n=40, seeds=(1,), n_mc=3, rho_b=0.0,
                           init=InitOverrides(sigma0=0.0, q0=0.0))
    (point,) = vk.grid_points(cfg)
    trace = run_cell(cfg, point, make_dataset(cfg, 1), 1)
    assert np.isfinite(trace.forecast).all()
    assert not trace.b_hat.any() and not trace.sigma_diag.any()


def test_known_latent_cell_inverts_once_per_pass():
    # the zero-covariance precision takes one inversion a pass, and the b
    # bound, whose C^-1 a known latent would discard, is not evaluated
    from viking.harness import ExperimentConfig, ExperimentKind, InitOverrides, Method, make_dataset, run_cell

    cfg = ExperimentConfig(ExperimentKind.MS_IID, Method.VIKING, n=40, seeds=(1,), n_mc=3, rho_b=0.0,
                           init=InitOverrides(sigma0=0.0))
    (point,) = vk.grid_points(cfg)
    ds = make_dataset(cfg, 1)
    vk.reset_spd_inversion_count()
    run_cell(cfg, point, ds, 1)
    assert vk.spd_inversion_count() == cfg.n * cfg.n_iter


@pytest.mark.parametrize("field, value", [("a0", math.nan), ("p0", math.inf), ("q0", math.nan),
                                          ("q0", [0.1, -0.1]), ("s0", math.inf), ("s0", -0.1),
                                          ("sigma0", -0.1), ("p0", -1.0)])
def test_initial_state_names_a_bad_field(field, value):
    with pytest.raises(ValueError, match=rf"^initial {field} = "):
        default_initial_state(vk.NoiseTransform.diagonal(2), **{field: value})


def test_learned_latent_at_zero_names_q0():
    # q0 = 0 puts b0 = expm1(q0) at the kink, where the b bound is undefined;
    # with b learned this used to fail inside the bound, naming neither q0,
    # the step nor the seed
    from viking.harness import ExperimentConfig, ExperimentKind, InitOverrides, Method, make_dataset, run_cell

    cfg = ExperimentConfig(ExperimentKind.MS_IID, Method.VIKING, n=40, seeds=(1,), n_mc=3,
                           init=InitOverrides(q0=0.0))
    (point,) = vk.grid_points(cfg)
    with pytest.raises(ValueError, match=r"^seed 1, .*step 0: q0 must be > 0"):
        run_cell(cfg, point, make_dataset(cfg, 1), 1)


def test_update_b_matches_coordinate_descent():
    rng = make_rng(7)
    for _ in range(50):
        m = rng.integers(1, 5)
        b_prev = rng.uniform(0.1, 1.0, size=m)
        Sigma_prev = rand_spd(rng, m, ridge=0.1) * 0.3
        grad = rng.standard_normal(m)
        Hs = rng.standard_normal((m, m))
        H = Hs @ Hs.T / m
        rho_b = float(rng.uniform(0.0, 0.1))
        b_new, Sigma_new = update_b(b_prev, Sigma_prev, grad, H, rho_b)
        M = np.linalg.inv(Sigma_prev + rho_b * np.eye(m)) + 0.5 * H
        delta = minimize_quadratic_coordinate_descent(0.5 * grad, M)
        raw = b_prev - 0.5 * (Sigma_new @ grad)
        np.testing.assert_allclose(raw, b_prev + delta, rtol=1e-6, atol=1e-9)
        # covariance contract
        diff = Sigma_prev + rho_b * np.eye(m) - Sigma_new
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() >= -1e-10


def test_update_b_bound_monotone():
    rng = make_rng(8)
    for _ in range(50):
        m = rng.integers(1, 4)
        b_prev = rng.uniform(0.1, 1.0, size=m)
        Sigma_prev = rand_spd(rng, m, ridge=0.1) * 0.3
        grad = rng.standard_normal(m)
        Hs = rng.standard_normal((m, m))
        H = Hs @ Hs.T / m
        rho_b = float(rng.uniform(0.0, 0.1))
        b_new, Sigma_new = update_b(b_prev, Sigma_prev, grad, H, rho_b)
        raw = b_prev - 0.5 * (Sigma_new @ grad)
        after = b_bound(raw, Sigma_new, b_prev, Sigma_prev, grad, H, rho_b)
        b0 = b_prev + rng.standard_normal(m) * 0.3
        S0 = rand_spd(rng, m, ridge=0.05) * 0.3
        before = b_bound(b0, S0, b_prev, Sigma_prev, grad, H, rho_b)
        assert after <= before + 1e-10


# ----------------------------------------------------------- s/a bound drop


def test_s_and_a_bounds_monotone():
    rng = make_rng(9)
    for _ in range(50):
        r2 = float(rng.uniform(0.0, 5.0))
        a_prev = float(rng.normal())
        s_prior = float(rng.uniform(0.05, 2.0))
        m_a = float(rng.uniform(0.01, 1.0))
        a_hat = float(rng.normal())
        s_new = update_s(r2, a_hat, s_prior)
        s0 = float(rng.uniform(1e-6, s_prior))
        assert s_bound(s_new, r2, a_hat, s_prior) <= s_bound(s0, r2, a_hat, s_prior) + 1e-10
        a_new = update_a(r2, a_prev, s_new, s_prior, m_a)
        a0 = a_prev + float(rng.uniform(-m_a, m_a))
        assert (a_bound(a_new, r2, a_prev, s_new, s_prior, m_a)
                <= a_bound(a0, r2, a_prev, s_new, s_prior, m_a) + 1e-10)


# ------------------------------------------------------------- full steps


def _hyper(d=5, kind="diagonal", **kw):
    tr = vk.NoiseTransform.diagonal(d) if kind == "diagonal" else vk.NoiseTransform.scalar(d)
    defaults = dict(rho_a=0.0, rho_b=0.0, n_mc=4, n_iter=2, learn_a=False, learn_b=False)
    defaults.update(kw)
    return VikingHyper(tr, np.eye(d), **defaults)


def _dataset(n=60, seed=0, d=5):
    design = vk.gen_design(vk.DesignKind.IID, n, seed)
    return vk.gen_wellspecified(design, seed)


def test_step_matches_kalman_with_frozen_beliefs():
    ds = _dataset(n=200, seed=13)
    hyper = _hyper()
    init = default_initial_state(hyper.transform, a0=0.2, s0=0.0, q0=0.3, sigma0=0.0, seed=5)
    trace_v, _ = viking_run(ds, hyper, init=init)
    Q = vk.apply_f(hyper.transform, init.beliefs.b_hat)
    trace_k = vk.kalman_run(ds, np.eye(5), Q, math.exp(0.2))
    for a, b in zip(trace_v, trace_k):
        assert abs(a.forecast - b.forecast) < 1e-10
        assert abs(a.forecast_var - b.forecast_var) < 1e-10
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)


def test_step_pass_count_idempotent_when_not_learning():
    ds = _dataset(n=30, seed=17)
    for n_iter in (1, 2):
        hyper = _hyper(n_iter=n_iter)
        init = default_initial_state(hyper.transform, s0=0.0, sigma0=0.0, seed=2)
        trace, _ = viking_run(ds, hyper, init=init)
        if n_iter == 1:
            base = trace
        else:
            for a, b in zip(base, trace):
                assert a.forecast == b.forecast
                np.testing.assert_array_equal(a.theta, b.theta)


def test_single_step_composition_d1():
    tr = vk.NoiseTransform.scalar(1)
    hyper = VikingHyper(tr, np.eye(1), rho_a=0.0, rho_b=0.0, n_mc=3, n_iter=1,
                        learn_a=False, learn_b=False)
    st_ = VikingState(GaussianState(np.zeros(1), np.eye(1)),
                      VarianceBeliefs(0.0, 0.0, np.array([-1.0]), np.zeros((1, 1))),
                      0, make_rng(0))
    new, rec = viking_step(st_, hyper, np.array([1.0]), 1.0)
    assert new.state.cov[0, 0] == pytest.approx(0.5)
    assert new.state.mean[0] == pytest.approx(0.5)
    assert rec.residual == rec.y - rec.forecast


def test_step_invariants_while_learning():
    ds = _dataset(n=120, seed=19)
    hyper = _hyper(rho_a=1e-4, rho_b=1e-3, n_mc=6, learn_a=True, learn_b=True)
    st_ = default_initial_state(hyper.transform, seed=3)
    for t in range(ds.n):
        prev = st_.beliefs
        s_prior = prev.s + hyper.rho_a
        m_a = max(3.0 * prev.s, 1e-8)
        st_, rec = viking_step(st_, hyper, ds.x[t], float(ds.y[t]))
        bel = st_.beliefs
        assert 0.0 < bel.s <= s_prior + 1e-15
        assert abs(bel.a_hat - prev.a_hat) <= m_a + 1e-12
        assert np.all(bel.b_hat >= 0.0)
        diff = prev.Sigma + hyper.rho_b * np.eye(5) - bel.Sigma
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() >= -1e-10
        st_.state.validate()


def test_step_posterior_below_expected_precision_inverse():
    rng = make_rng(11)
    tr = vk.NoiseTransform.diagonal(3)
    KPK = rand_spd(rng, 3)
    b_hat = rng.uniform(0.1, 1.0, size=3)
    Sigma = 0.05 * np.eye(3)
    A, A_inv = estimate_precision(b_hat, Sigma, KPK, tr, 10, rng)
    out = update_state_moments(A_inv, 0.0, 0.0, rng.standard_normal(3), rng.standard_normal(3), 0.5)
    diff = A_inv - out.cov
    assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() >= -1e-10


def test_operation_count_contract():
    ds = _dataset(n=25, seed=23)
    hyper = _hyper(rho_a=1e-4, rho_b=1e-3, n_mc=7, n_iter=3, learn_a=True, learn_b=True)
    st_ = default_initial_state(hyper.transform, seed=4)
    vk.reset_spd_inversion_count()
    for t in range(ds.n):
        st_, _ = viking_step(st_, hyper, ds.x[t], float(ds.y[t]))
    per_step = vk.spd_inversion_count() / ds.n
    assert per_step == hyper.n_iter * (hyper.n_mc + 4)


def test_determinism_bit_identical():
    ds = _dataset(n=50, seed=29)
    hyper = _hyper(rho_a=1e-4, rho_b=1e-3, n_mc=5, learn_a=True, learn_b=True)
    t1, f1 = viking_run(ds, hyper, init=default_initial_state(hyper.transform, seed=7))
    t2, f2 = viking_run(ds, hyper, init=default_initial_state(hyper.transform, seed=7))
    for a, b in zip(t1, t2):
        assert a.forecast == b.forecast and a.a_hat == b.a_hat
        np.testing.assert_array_equal(a.b_hat, b.b_hat)
    np.testing.assert_array_equal(f1.state.mean, f2.state.mean)


def test_forecast_properties():
    tr = vk.NoiseTransform.diagonal(2)
    hyper = VikingHyper(tr, np.eye(2))
    st_ = VikingState(GaussianState(np.array([1.0, 2.0]), np.eye(2)),
                      VarianceBeliefs(0.3, 0.2, np.array([0.1, 0.2]), 0.1 * np.eye(2)),
                      0, make_rng(0))
    mean, var = forecast(st_, hyper, np.zeros(2))
    assert mean == 0.0
    assert var == pytest.approx(math.exp(0.3 + 0.1))
    # with degenerate beliefs the variance matches the kalman predictive one
    st_.beliefs.s = 0.0
    _, var0 = forecast(st_, hyper, np.array([1.0, 1.0]))
    Q = vk.apply_f(tr, st_.beliefs.b_hat)
    expected = np.ones(2) @ (np.eye(2) + Q) @ np.ones(2) + math.exp(0.3)
    assert var0 == pytest.approx(expected)
    # variance strictly increases with s
    st_.beliefs.s = 0.5
    _, var1 = forecast(st_, hyper, np.array([1.0, 1.0]))
    assert var1 > var0


def test_step_error_carries_step_index():
    tr = vk.NoiseTransform.diagonal(2)
    hyper = VikingHyper(tr, np.eye(2), rho_a=0.0, rho_b=0.0, n_mc=2, n_iter=1,
                        learn_a=False, learn_b=False)
    st_ = VikingState(GaussianState(np.zeros(2), np.zeros((2, 2))),
                      VarianceBeliefs(0.0, 0.0, np.array([-1.0, -1.0]), np.zeros((2, 2))),
                      41, make_rng(0))
    with pytest.raises(SingularMatrixError, match="step 41"):
        viking_step(st_, hyper, np.ones(2), 1.0)


def test_checkpoint_roundtrip_continues_identically():
    ds = _dataset(n=40, seed=31)
    hyper = _hyper(rho_a=1e-4, rho_b=1e-3, n_mc=5, learn_a=True, learn_b=True)
    st_ = default_initial_state(hyper.transform, seed=9)
    for t in range(20):
        st_, _ = viking_step(st_, hyper, ds.x[t], float(ds.y[t]))
    blob = json.dumps(state_to_checkpoint(st_))
    restored = state_from_checkpoint(json.loads(blob))
    np.testing.assert_array_equal(restored.state.mean, st_.state.mean)
    np.testing.assert_array_equal(restored.state.cov, st_.state.cov)
    assert restored.step_index == st_.step_index
    for t in range(20, 40):
        st_, ra = viking_step(st_, hyper, ds.x[t], float(ds.y[t]))
        restored, rb = viking_step(restored, hyper, ds.x[t], float(ds.y[t]))
        assert ra.forecast == rb.forecast
        np.testing.assert_array_equal(ra.b_hat, rb.b_hat)


@pytest.mark.parametrize("field, value, match", [
    ("mean", [float("nan"), 0.0], "'mean' holds a non-finite"),
    ("cov", [1.0, 0.0, 0.0, float("inf")], "'cov' holds a non-finite"),
    ("a_hat", float("nan"), "'a_hat' holds a non-finite"),
    ("s", float("-inf"), "'s' holds a non-finite"),
    ("b_hat", [float("nan"), 0.1], "'b_hat' holds a non-finite"),
    ("Sigma", [0.1, 0.0, 0.0, float("nan")], "'Sigma' holds a non-finite"),
    ("cov", [1.0, 0.0, 0.0], "'cov' has shape"),
    ("Sigma", [0.1], "'Sigma' has shape"),
    ("mean", [], "'mean' has shape"),
    ("s", [0.1], "'s' has shape"),
    ("step_index", -3, "'step_index' must be an integer in"),
    ("step_index", 1.5, "'step_index' must be an integer in"),
    ("step_index", "7", "'step_index' must be an integer in"),
    ("step_index", True, "'step_index' must be an integer in"),
    ("step_index", 2**63, "'step_index' must be an integer in"),
    ("rng_state", -1, "'rng_state' must be an integer in"),
    ("rng_state", 2**128, "'rng_state' must be an integer in"),
    ("rng_inc", 2.5, "'rng_inc' must be an integer in"),
    ("rng_has_uint32", 7, "'rng_has_uint32' must be an integer in"),
    ("rng_uinteger", 2**32, "'rng_uinteger' must be an integer in"),
    ("mean", 1.0, "'mean' has shape"),
    ("mean", None, "'mean' has shape"),
    ("b_hat", 1.0, "'b_hat' has shape"),
    ("b_hat", None, "'b_hat' has shape"),
    ("a_hat", "abc", "'a_hat' must be a number or a flat list of numbers"),
    ("Sigma", "xy", "'Sigma' must be a number or a flat list of numbers"),
    ("cov", [[1.0, 0.0], [0.0, 1.0, 0.0]], "'cov' must be a number or a flat list of numbers"),
    ("s", -1.0, "^checkpoint field 's' = -1.0 must be finite and >= 0$"),
    ("cov", [1.0, 5.0, -5.0, 1.0], "^checkpoint field 'cov': covariance is not symmetric"),
    ("cov", [-1.0, 0.0, 0.0, -1.0], "^checkpoint field 'cov': covariance has a significantly negative eigenvalue"),
    ("Sigma", [0.1, 0.5, 0.0, 0.1], "^checkpoint field 'Sigma': covariance is not symmetric"),
    ("Sigma", [-0.1, 0.0, 0.0, -0.1], "^checkpoint field 'Sigma': covariance has a significantly negative eigenvalue"),
])
def test_checkpoint_rejects_non_finite_or_misfit_fields(field, value, match):
    rec = state_to_checkpoint(default_initial_state(vk.NoiseTransform.diagonal(2), seed=3))
    state_from_checkpoint(rec)
    rec[field] = value
    with pytest.raises(ValueError, match=match):
        state_from_checkpoint(rec)


def test_checkpoint_rejects_a_missing_field():
    rec = state_to_checkpoint(default_initial_state(vk.NoiseTransform.diagonal(2), seed=3))
    for field in rec:
        with pytest.raises(ValueError, match=f"'{field}' is missing"):
            state_from_checkpoint({k: v for k, v in rec.items() if k != field})


def test_update_s_lowers_the_exact_objective():
    # the surrogate's tangent is a lower bound on the convex exp term, so its
    # minimizer sits between the exact minimizer and s_prior
    from oracles import s_objective, s_objective_minimizer

    rng = make_rng(12)
    for _ in range(500):
        r2 = float(10.0 ** rng.uniform(-3.0, 3.0))
        a_hat = float(rng.normal(scale=2.0))
        s_prior = float(10.0 ** rng.uniform(-2.0, 0.5))
        s_new = update_s(r2, a_hat, s_prior)
        s_star = s_objective_minimizer(r2, a_hat, s_prior)
        assert s_star <= s_new * (1.0 + 1e-12)
        assert s_new <= s_prior
        f_prior = s_objective(s_prior, r2, a_hat, s_prior)
        assert s_objective(s_new, r2, a_hat, s_prior) <= f_prior + 1e-12 * abs(f_prior)


def test_update_a_lowers_the_exact_objective():
    # a_bound majorises the exact objective on the clamp interval and touches
    # it at a_prev, so its clamped minimizer cannot raise the objective
    rng = make_rng(13)
    for _ in range(500):
        r2 = float(10.0 ** rng.uniform(-3.0, 3.0))
        a_prev = float(rng.normal(scale=2.0))
        s = float(rng.uniform(0.0, 1.0))
        s_prior = float(10.0 ** rng.uniform(-2.0, 0.5))
        m_a = float(10.0 ** rng.uniform(-8.0, 0.5))
        a_new = update_a(r2, a_prev, s, s_prior, m_a)
        f_prev = a_objective(a_prev, r2, a_prev, s, s_prior)
        assert a_objective(a_new, r2, a_prev, s, s_prior) <= f_prev + 1e-12 * abs(f_prev)


def test_checkpoint_rejects_a_batched_state():
    tr = vk.NoiseTransform.diagonal(2)
    st_ = stack_states([default_initial_state(tr, seed=1), default_initial_state(tr, seed=2)])
    with pytest.raises(ValueError, match="a checkpoint holds one filter"):
        state_to_checkpoint(st_)


@pytest.mark.parametrize("where, step", [(("y", 10), 10), (("x", (5, 2)), 5), (("y", 5), 5)],
                         ids=["y-nan", "x-inf", "y-inf"])
def test_run_rejects_non_finite_inputs_naming_the_step(where, step):
    ds = _dataset(n=30, seed=3)
    name, idx = where
    getattr(ds, name)[idx] = np.nan if idx == 10 else np.inf
    hyper = _hyper(rho_a=1e-4, rho_b=1e-3, n_mc=3, learn_a=True, learn_b=True)
    with pytest.raises(ValueError, match=rf"step {step}: non-finite"):
        viking_run(ds, hyper, init=default_initial_state(hyper.transform, seed=1))


def test_update_b_clamp_clips_coordinates_of_the_unconstrained_minimizer():
    # a fixed instance where the clip is not the box-constrained minimizer of
    # the bound, and even raises the bound above its value at b_prev
    b_prev = np.array([0.1, 0.8])
    Sigma_prev = np.array([[0.6, 0.24], [0.24, 0.13]])
    grad = np.array([3.2, -0.9])
    H = np.diag([0.36, 0.13])
    rho_b = 0.09
    b_new, Sigma_new = update_b(b_prev, Sigma_prev, grad, H, rho_b)
    raw = b_prev - 0.5 * (Sigma_new @ grad)
    assert raw[0] < 0.0 < raw[1]
    np.testing.assert_array_equal(b_new, [0.0, raw[1]])

    def bound(b):
        return b_bound(b, Sigma_new, b_prev, Sigma_prev, grad, H, rho_b)

    M = np.linalg.inv(Sigma_prev + rho_b * np.eye(2)) + 0.5 * H
    box = np.array([0.0, b_prev[1] - (0.5 * grad[1] - M[1, 0] * b_prev[0]) / M[1, 1]])
    assert box[1] > 0.0
    assert bound(box) < bound(b_prev) < bound(b_new)
    assert bound(b_new) - bound(b_prev) == pytest.approx(0.11898, abs=1e-5)


@pytest.mark.parametrize("key", ["rho_a", "rho_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3])
def test_hyper_rejects_a_random_walk_variance_that_is_not_finite_and_nonnegative(key, value):
    with pytest.raises(ValueError, match=f"^{key} = {value} must be finite and >= 0"):
        VikingHyper(vk.NoiseTransform.diagonal(2), np.eye(2), **{key: value})


@pytest.mark.parametrize("key", ["n_mc", "n_iter"])
@pytest.mark.parametrize("value", [0, -2, 2.5, math.nan, True, "2"])
def test_hyper_rejects_a_count_that_is_not_a_positive_integer(key, value):
    with pytest.raises(ValueError, match=f"^{key} = {value} must be an integer >= 1$"):
        VikingHyper(vk.NoiseTransform.diagonal(2), np.eye(2), **{key: value})
    assert getattr(VikingHyper(vk.NoiseTransform.diagonal(2), np.eye(2), **{key: np.int64(3)}), key) == 3


def _with_gaussian(init, mean, cov):
    return VikingState(GaussianState(mean, cov), init.beliefs, init.step_index, init.rng)


_BAD_GAUSSIANS = {
    "nan mean": lambda d: (np.full(d, np.nan), np.eye(d)),
    "inf covariance": lambda d: (np.zeros(d), np.where(np.eye(d) > 0, np.inf, 0.0)),
    "negative covariance": lambda d: (np.zeros(d), -np.eye(d)),
    "asymmetric covariance": lambda d: (np.zeros(d), np.triu(np.ones((d, d)))),
    "short mean": lambda d: (np.zeros(d - 1), np.eye(d)),
}


@pytest.mark.parametrize("case", sorted(_BAD_GAUSSIANS))
def test_run_rejects_a_bad_gaussian_init_before_the_first_step(case, monkeypatch):
    # a NaN mean used to give all-NaN forecasts without an error, and -I a
    # singular-matrix error at step 0 that did not name the init
    ds = _dataset(n=20, seed=4)
    hyper = _hyper(learn_a=True, learn_b=True, rho_b=1e-3)
    init = _with_gaussian(default_initial_state(hyper.transform, seed=1), *_BAD_GAUSSIANS[case](5))
    monkeypatch.setattr(vk.vb, "viking_step", None)  # no step may run
    with pytest.raises(ValueError, match="^init: "):
        viking_run(ds, hyper, init=init)


def test_batch_names_the_filter_whose_gaussian_init_is_bad():
    ds = _dataset(n=20, seed=4)
    hyper = _hyper()
    inits = [default_initial_state(hyper.transform, seed=s) for s in (1, 2, 3)]
    inits[1] = _with_gaussian(inits[1], np.zeros(5), -np.eye(5))
    x, y = np.stack([ds.x] * 3, axis=1), np.stack([ds.y] * 3, axis=1)
    with pytest.raises(ValueError, match="^init, filter 1: covariance has a significantly negative eigenvalue"):
        viking_run_batch(x, y, hyper, inits, keep_state=False)


def test_a_zero_or_singular_gaussian_init_still_runs():
    # p0 = 0 stays legal: the filter starts certain of its state
    ds = _dataset(n=20, seed=4)
    hyper = _hyper()
    singular = np.zeros((5, 5))
    singular[0, 0] = 1.0
    for cov in (-np.zeros((5, 5)), singular):
        init = _with_gaussian(default_initial_state(hyper.transform, seed=1), -np.zeros(5), cov)
        trace, _ = viking_run(ds, hyper, init=init)
        assert np.isfinite(trace.forecast).all()
    trace, _ = viking_run(ds, hyper, init=default_initial_state(hyper.transform, p0=0.0, seed=1))
    assert np.isfinite(trace.forecast).all()


# ------------------------------------------- a step from its documented parts

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _exp_each(v):
    return math.exp(v) if np.ndim(v) == 0 else np.array([math.exp(u) for u in v.tolist()])


def _composed_step(st_, hyper, x, y):
    """One step composed pass by pass from the public helpers (module
    docstring), on copies of the state's generators: the reference that the
    step, which forms the per-step terms once, must match bit for bit."""
    from viking.kalman import _dot, _matvec, quad_form
    from viking.linalg import sym
    from viking.transforms import expansion_point, psi_gradient_hessian_bound
    from viking.vb import B_HAT_FLOOR, M_A_FLOOR

    rng = copy.deepcopy(st_.rng)
    tr, bel = hyper.transform, st_.beliefs
    fc_mean, fc_var = forecast(st_, hyper, x)
    prior_mean = _matvec(hyper.K, st_.state.mean)
    KPK = sym(hyper.K @ st_.state.cov @ hyper.K.T)
    prop = KPK + vk.apply_f(tr, bel.b_hat)
    s_prior = bel.s + hyper.rho_a
    m_a = np.maximum(3.0 * bel.s, M_A_FLOOR)
    a_cur, s_cur = bel.a_hat, s_prior
    Sigma_cur, learn_b = bel.latent_prior(hyper.rho_b, hyper.learn_b)
    b_cur = bel.b_hat.copy()
    for _ in range(hyper.n_iter):
        _, A_inv = estimate_precision(b_cur, Sigma_cur, KPK, tr, hyper.n_mc, rng)
        state_new = update_state_moments(A_inv, a_cur, s_cur, prior_mean, x, y)
        if hyper.learn_a:
            resid = y - _dot(state_new.mean, x)
            r2 = resid * resid + quad_form(x, state_new.cov)
            s_cur = update_s(r2, a_cur, s_prior)
            a_cur = update_a(r2, bel.a_hat, s_cur, s_prior, m_a)
        if learn_b:
            delta = state_new.mean - prior_mean
            B = state_new.cov + delta[..., :, None] * delta[..., None, :]
            grad, H = psi_gradient_hessian_bound(tr, expansion_point(tr, bel.b_hat), B, prop)
            b_cur, Sigma_cur = update_b(bel.b_hat, bel.Sigma, grad, H, hyper.rho_b, floor=B_HAT_FLOOR)
    record = vk.StepRecord(
        t=st_.step_index, y=y, forecast=fc_mean, forecast_var=fc_var, residual=y - fc_mean,
        a_hat=a_cur, s=s_cur, sigma2_eff=_exp_each(a_cur - 0.5 * s_cur), b_hat=b_cur,
        sigma_diag=np.diagonal(Sigma_cur, axis1=-2, axis2=-1), cum_sq_err=math.nan,
        theta=state_new.mean, cov=state_new.cov)
    return state_new, VarianceBeliefs(a_cur, s_cur, b_cur, Sigma_cur), rng, record


@pytest.mark.parametrize("batch", [None, 3], ids=["one-filter", "batch-of-3"])
@pytest.mark.parametrize("kind", list(vk.TransformKind), ids=lambda k: k.value)
@pytest.mark.parametrize("latent", ["learned", "known"])
def test_step_equals_its_parts_composed_pass_by_pass(batch, kind, latent):
    d, n = 3, 6
    rng = np.random.default_rng(4)
    shape = (n,) if batch is None else (n, batch)
    x = rng.uniform(size=shape + (d,))
    y = x.sum(axis=-1) + rng.standard_normal(shape)
    known = latent == "known"
    hyper = VikingHyper(vk.NoiseTransform(kind, d), 0.9 * np.eye(d), rho_b=0.0 if known else math.exp(-6.0),
                        n_mc=4, learn_b=True)
    inits = [default_initial_state(hyper.transform, sigma0=0.0 if known else 0.1, seed=s) for s in (1, 2, 3)]
    st_ = inits[0] if batch is None else stack_states(inits)
    for t in range(n):
        yt = float(y[t]) if batch is None else y[t]
        state_new, beliefs, rng_after, want = _composed_step(st_, hyper, x[t], yt)
        st_, got = viking_step(st_, hyper, x[t], yt)
        for f in fields(want):
            assert _same_bits(getattr(got, f.name), getattr(want, f.name)), (t, f.name)
        for name in ("mean", "cov"):
            assert _same_bits(getattr(st_.state, name), getattr(state_new, name)), (t, name)
        for name in ("a_hat", "s", "b_hat", "Sigma"):
            assert _same_bits(getattr(st_.beliefs, name), getattr(beliefs, name)), (t, name)
        gens = [(st_.rng, rng_after)] if batch is None else zip(st_.rng, rng_after)
        assert all(a.bit_generator.state == b.bit_generator.state for a, b in gens)
    assert st_.step_index == n
    assert st_.beliefs.Sigma.any() != known


# ------------------------------------------------ rejected inputs, named

def test_checkpoint_loads_a_zero_state_and_latent_covariance():
    # p0 = 0 and sigma0 = 0 (a known b, as the resonator pins it) are PSD
    st_ = default_initial_state(vk.NoiseTransform.diagonal(2), p0=0.0, s0=0.0, sigma0=0.0, seed=3)
    restored = state_from_checkpoint(json.loads(json.dumps(state_to_checkpoint(st_))))
    assert not restored.state.cov.any() and not restored.beliefs.Sigma.any() and restored.beliefs.s == 0.0


def test_a_learned_a_without_prior_variance_is_rejected_naming_the_step_and_filter():
    # s0 = 0 with rho_a = 0 leaves update_s no prior variance to divide by:
    # one filter died in a ZeroDivisionError while a batch divided by zero
    # under warnings and ran on with s = 0
    ds = _dataset(n=20, seed=4)
    hyper = _hyper(learn_a=True)  # rho_a = 0
    init = default_initial_state(hyper.transform, s0=0.0, seed=1)
    with pytest.raises(ValueError, match=r"^step 0: s \+ rho_a must be > 0 when a is learned$"):
        viking_run(ds, hyper, init=init)
    later = VikingState(init.state, init.beliefs, 5, init.rng)
    with pytest.raises(ValueError, match=r"^step 5: s \+ rho_a"):
        viking_step(later, hyper, ds.x[0], float(ds.y[0]))
    inits = [default_initial_state(hyper.transform, s0=s0, seed=1) for s0 in (0.1, 0.0, 0.0)]
    x, y = np.stack([ds.x] * 3, axis=1), np.stack([ds.y] * 3, axis=1)
    with pytest.raises(ValueError, match=r"^step 0, filter 1: s \+ rho_a must be > 0 when a is learned$") as info:
        viking_run_batch(x, y, hyper, inits, keep_state=False)
    assert info.value.filter == 1
    # a known a never divides by it, and a prior variance of its own suffices
    for known in (_hyper(), _hyper(learn_a=True, rho_a=1e-4)):
        trace, _ = viking_run(ds, known, init=default_initial_state(hyper.transform, s0=0.0, seed=1))
        assert np.isfinite(trace.forecast).all()


def test_update_b_on_a_batch_mixing_zero_and_nonzero_priors_raises_the_documented_error():
    Sigma = np.stack([np.zeros((2, 2)), 0.1 * np.eye(2)])
    with pytest.raises(ValueError, match="^a batch mixes zero and nonzero latent covariances$"):
        update_b(np.ones((2, 2)), Sigma, np.zeros((2, 2)), np.zeros((2, 2, 2)), 0.0)


_TR = vk.NoiseTransform.diagonal(2)
_ST = default_initial_state(_TR, seed=1)
_HY = VikingHyper(_TR, np.eye(2), n_mc=2)
_B, _S = np.ones(2), 0.1 * np.eye(2)
_SHAPE_ERRORS = {
    "viking_step-x": (lambda: viking_step(_ST, _HY, np.ones(3), 0.0),
                      r"^covariates have shape \(3,\), expected \(2,\)$"),
    "viking_step-y": (lambda: viking_step(stack_states([_ST, _ST]), _HY, np.ones((2, 2)), np.zeros(3)),
                      r"^observations have shape \(3,\), expected \(2,\)$"),
    "viking_run_batch-x": (lambda: viking_run_batch(np.ones((4, 1, 3)), np.zeros((4, 1)), _HY, [_ST], False),
                           "^dataset dimension 3 does not match filter dimension 2$"),
    "viking_run_batch-y": (lambda: viking_run_batch(np.ones((4, 2, 2)), np.zeros((4, 1)), _HY, [_ST, _ST], False),
                           r"^2 initial states and observations of shape \(4, 1\) for x of shape \(4, 2, 2\)$"),
    "viking_run_batch-inits": (lambda: viking_run_batch(np.ones((4, 2, 2)), np.zeros((4, 2)), _HY, [_ST], False),
                               r"^1 initial states and observations of shape \(4, 2\)"),
    "update_b-grad": (lambda: update_b(_B, _S, np.ones(3), np.eye(2), 0.1),
                      r"^grad has shape \(3,\), expected \(2,\) for b_prev of shape \(2,\)$"),
    "update_b-H": (lambda: update_b(_B, _S, _B, np.eye(3), 0.1), r"^H has shape \(3, 3\), expected \(2, 2\)"),
    "update_b-Sigma_prev": (lambda: update_b(_B, np.eye(3), _B, np.eye(2), 0.1),
                            r"^Sigma_prev has shape \(3, 3\), expected \(2, 2\)"),
    "stack_states-step": (lambda: stack_states([_ST, VikingState(_ST.state, _ST.beliefs, 1, _ST.rng)]),
                          "^the filters of a batch must be at the same step$"),
    "default_initial_state-q0": (lambda: default_initial_state(_TR, q0=[0.1, 0.1, 0.1]),
                                 r"^q0 has shape \(3,\), expected scalar or \(2,\)$"),
    "VikingHyper-K": (lambda: VikingHyper(_TR, np.eye(3)),
                      r"^transition matrix has shape \(3, 3\), expected \(2, 2\) for the 2-dimensional state$"),
    "kalman_run_grid-K": (lambda: vk.kalman.kalman_run_grid(np.ones((4, 1, 2)), np.zeros((4, 1)), np.eye(3),
                                                            np.ones((1, 1, 2, 2)), 1.0, _ST.state, False),
                          r"^transition matrix has shape \(3, 3\), expected \(2, 2\)"),
    "kalman_run_grid-Q": (lambda: vk.kalman.kalman_run_grid(np.ones((4, 1, 2)), np.zeros((4, 1)), np.eye(2),
                                                            np.ones((1, 1, 2, 3)), 1.0, _ST.state, False),
                          r"^Q has shape \(1, 1, 2, 3\), expected \(G, 1, 2, 2\)"),
}


@pytest.mark.parametrize("case", sorted(_SHAPE_ERRORS))
def test_a_shape_error_names_its_argument(case):
    call, match = _SHAPE_ERRORS[case]
    with pytest.raises(ValueError, match=match):
        call()
