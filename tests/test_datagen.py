import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from viking import (
    DesignKind,
    default_resonator_sigma2,
    gen_design,
    gen_misspecified,
    gen_resonator,
    gen_wellspecified,
    read_dataset_csv,
    resonator_transition,
    write_dataset_csv,
)
from viking.datagen import reflect_unit
from viking.rng import STREAM_OBS_NOISE, make_rng


def test_design_bounds_and_constant_column():
    for kind in (DesignKind.IID, DesignKind.NONIID):
        x = gen_design(kind, 500, seed=2)
        assert x.shape == (500, 5)
        assert np.all(x[:, 4] == 1.0)
        assert np.all((x >= 0.0) & (x <= 1.0))


def test_reflection_rule_examples():
    assert reflect_unit(np.array([1.2]))[0] == pytest.approx(0.8)
    assert reflect_unit(np.array([-0.1]))[0] == pytest.approx(0.1)
    assert reflect_unit(np.array([0.5]))[0] == 0.5


@given(st.floats(min_value=-1.0, max_value=2.0))
def test_reflection_stays_in_unit_interval(z):
    out = reflect_unit(np.array([z]))[0]
    assert -1e-12 <= out <= 1.0 + 1e-12


def test_noniid_zero_walk_variance_is_constant():
    x = gen_design(DesignKind.NONIID, 50, seed=3, walk_var=0.0)
    np.testing.assert_array_equal(x, np.tile(x[0], (50, 1)))


def test_wellspecified_variance_schedules():
    n = 400
    ds = gen_wellspecified(gen_design(DesignKind.IID, n, 5), seed=5)
    assert ds.truth.sigma2[0] == pytest.approx(1.1)
    assert ds.truth.sigma2[n // 4] == pytest.approx(0.9)
    np.testing.assert_array_equal(ds.truth.q_diag[:, 0], np.zeros(n))
    np.testing.assert_array_equal(ds.truth.q_diag[:, 1], np.zeros(n))
    assert ds.truth.q_diag[0, 2] == pytest.approx(0.45)


def test_wellspecified_noiseless_degenerate():
    n = 30
    design = gen_design(DesignKind.IID, n, 7)
    ds = gen_wellspecified(design, seed=7,
                           sigma2_override=np.zeros(n), q_diag_override=np.zeros((n, 5)))
    np.testing.assert_allclose(ds.y, ds.truth.theta[0] @ design.T, atol=1e-12)
    np.testing.assert_array_equal(ds.truth.theta, np.tile(ds.truth.theta[0], (n, 1)))


def test_wellspecified_residual_variance_matches_mean_sigma2():
    n = 10_000
    ds = gen_wellspecified(gen_design(DesignKind.IID, n, 11), seed=11)
    resid = ds.y - np.einsum("td,td->t", ds.truth.theta, ds.x)
    assert np.var(resid) == pytest.approx(np.mean(ds.truth.sigma2), rel=0.05)


def test_misspecified_mixture_frequency():
    n = 10_000
    ds = gen_misspecified(gen_design(DesignKind.IID, n, 13), seed=13)
    assert 0.47 <= ds.truth.mix.mean() <= 0.53


def test_misspecified_degenerate_branches_coincide():
    n = 40
    design = gen_design(DesignKind.IID, n, 17)
    theta0 = np.array([0.5, -1.0, 2.0, 0.0, 1.0])
    ds = gen_misspecified(design, seed=17, sigma2_override=np.zeros(n),
                          q_diag_override=np.zeros((n, 5)), theta0=theta0)
    expected = np.array([0.9 ** (t + 1) for t in range(n)])[:, None] * theta0
    np.testing.assert_allclose(ds.truth.theta, expected, atol=1e-12)
    np.testing.assert_allclose(ds.y, np.einsum("td,td->t", expected, design), atol=1e-12)


def test_misspecified_stationary_variance():
    n = 10_000
    ds = gen_misspecified(gen_design(DesignKind.IID, n, 19), seed=19)
    target = 0.25 / (1.0 - 0.81)
    for j in (2, 3, 4):
        sample_var = np.var(ds.truth.theta[:, j])
        assert abs(sample_var - target) / target < 0.15


def test_resonator_transition_matrix():
    K = resonator_transition()
    assert K[1, 1] == pytest.approx(math.cos(0.005))
    assert K[1, 2] == pytest.approx(math.sin(0.005) / 0.05)
    assert K[2, 1] == pytest.approx(-0.05 * math.sin(0.005))
    assert K[0, 0] == 1.0


def test_resonator_dataset():
    n = 50
    ds = gen_resonator(n, default_resonator_sigma2(n), seed=23)
    assert ds.d == 3
    np.testing.assert_array_equal(ds.x, np.tile([1.0, 1.0, 0.0], (n, 1)))
    np.testing.assert_array_equal(ds.truth.q_diag[0], [0.01, 0.0, 0.0001])


def test_resonator_degenerate_constant_observation():
    n = 25
    ds = gen_resonator(n, np.full(n, 1e-300), seed=29,
                       theta0=np.array([1.0, 0.0, 0.0]), q_diag=(0.0, 0.0, 0.0))
    np.testing.assert_allclose(ds.y, np.ones(n), atol=1e-9)


def test_determinism_per_seed():
    n = 200
    a = gen_misspecified(gen_design(DesignKind.NONIID, n, 31), seed=31)
    b = gen_misspecified(gen_design(DesignKind.NONIID, n, 31), seed=31)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.truth.mix, b.truth.mix)
    c = gen_misspecified(gen_design(DesignKind.NONIID, n, 32), seed=32)
    assert not np.array_equal(a.y, c.y)


def test_truth_replays_observation_noise_stream():
    # y must equal theta.x + sqrt(sigma2) * z with z redrawn from the recorded seed
    n = 300
    for ds in (
        gen_wellspecified(gen_design(DesignKind.IID, n, 37), seed=37),
        gen_misspecified(gen_design(DesignKind.NONIID, n, 41), seed=41),
        gen_resonator(n, default_resonator_sigma2(n), seed=43),
    ):
        z = make_rng(ds.seed, STREAM_OBS_NOISE).standard_normal(n)
        resim = np.einsum("td,td->t", ds.truth.theta, ds.x) + np.sqrt(ds.truth.sigma2) * z
        np.testing.assert_array_equal(resim, ds.y)


def test_csv_roundtrip(tmp_path):
    n = 40
    ds = gen_misspecified(gen_design(DesignKind.IID, n, 47), seed=47)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,x5,y,sigma2,q1,q2,q3,q4,q5,i"
    back = read_dataset_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.truth.sigma2, ds.truth.sigma2)
    np.testing.assert_array_equal(back.truth.q_diag, ds.truth.q_diag)
    np.testing.assert_array_equal(back.truth.mix, ds.truth.mix)


def test_csv_without_truth_mix(tmp_path):
    n = 10
    ds = gen_wellspecified(gen_design(DesignKind.IID, n, 53), seed=53)
    path = tmp_path / "ws.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.truth.mix is None
    np.testing.assert_array_equal(back.y, ds.y)


# ------------------------------------------- float recursions, same bytes

def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("walk_var", [0.0, 1e-3, 1e-2])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_noniid_design_matches_the_rowwise_reference(n, walk_var):
    from oracles import noniid_design_rowwise

    for seed in (1, 2, 17, 40):
        got = gen_design(DesignKind.NONIID, n, seed, walk_var=walk_var)
        assert _same_bytes(got, noniid_design_rowwise(n, seed, walk_var)), (n, walk_var, seed)


@pytest.mark.parametrize("walk_var", [0.0, 1e-3, 1e-2])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_misspecified_states_match_the_rowwise_reference(n, walk_var):
    from oracles import misspecified_states_rowwise

    for seed in (1, 2, 17, 40):
        ds = gen_misspecified(gen_design(DesignKind.NONIID, n, seed, walk_var=walk_var), seed)
        states = misspecified_states_rowwise(n, seed, ds.truth.q_diag)
        assert _same_bytes(ds.truth.theta, states[np.arange(n), ds.truth.mix]), (n, walk_var, seed)
    theta0 = np.array([0.5, -1.0, 0.0, -0.0, 2.0])
    ds = gen_misspecified(gen_design(DesignKind.IID, n, 3), 3, theta0=theta0)
    states = misspecified_states_rowwise(n, 3, ds.truth.q_diag, theta0=theta0)
    assert _same_bytes(ds.truth.theta, states[np.arange(n), ds.truth.mix])


def test_reflect_unit_gives_the_same_bits_for_a_float_and_an_array():
    values = [0.0, -0.0, 1.0, 0.5, 1.2, -0.1, 2.0, -1.0, 1.0 + 2.0 ** -52, -2.0 ** -60, 3.75, -7.25, 1e300, -1e300]
    array = reflect_unit(np.array(values))
    for z, want in zip(values, array):
        got = reflect_unit(z)
        assert isinstance(got, float) and _same_bytes(np.float64(got), want), z


@pytest.mark.parametrize("walk_var", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
def test_design_rejects_a_bad_walk_var(walk_var):
    for kind in (DesignKind.IID, DesignKind.NONIID):
        with pytest.raises(ValueError, match="walk_var"):
            gen_design(kind, 10, 1, walk_var=walk_var)


_BAD_VARIANCES = [float("nan"), float("inf"), -float("inf"), -1.0]


@pytest.mark.parametrize("bad", _BAD_VARIANCES)
def test_wellspecified_rejects_a_bad_variance_override(bad):
    x = gen_design(DesignKind.IID, 6, 1)
    sigma2 = np.ones(6)
    sigma2[2] = bad
    q_diag = np.full((6, 5), 0.1)
    q_diag[4, 1] = bad
    with pytest.raises(ValueError, match="sigma2_override"):
        gen_wellspecified(x, 1, sigma2_override=sigma2)
    with pytest.raises(ValueError, match="q_diag_override"):
        gen_wellspecified(x, 1, q_diag_override=q_diag)


@pytest.mark.parametrize("bad", _BAD_VARIANCES)
def test_misspecified_rejects_a_bad_variance_override(bad):
    x = gen_design(DesignKind.NONIID, 6, 1)
    sigma2 = np.ones(6)
    sigma2[0] = bad
    q_diag = np.full((6, 5), 0.1)
    q_diag[5, 4] = bad
    with pytest.raises(ValueError, match="sigma2_override"):
        gen_misspecified(x, 1, sigma2_override=sigma2)
    with pytest.raises(ValueError, match="q_diag_override"):
        gen_misspecified(x, 1, q_diag_override=q_diag)


@pytest.mark.parametrize("bad", _BAD_VARIANCES + [0.0])
def test_resonator_rejects_a_bad_variance_schedule(bad):
    with pytest.raises(ValueError, match="sigma_traj"):
        gen_resonator(5, [1.0, bad, 1.0, 1.0, 1.0], 1)
    if bad != 0.0:  # a zero state-noise variance is the default's middle coordinate
        with pytest.raises(ValueError, match="q_diag"):
            gen_resonator(5, np.ones(5), 1, q_diag=(0.01, bad, 0.0001))


def test_zero_variance_overrides_still_generate():
    x = gen_design(DesignKind.IID, 6, 1)
    ds = gen_wellspecified(x, 1, sigma2_override=np.zeros(6), q_diag_override=np.zeros((6, 5)))
    assert np.isfinite(ds.y).all()


@pytest.mark.parametrize("n", [True, 2.5, 0, np.nan])
def test_design_rejects_a_length_that_is_not_a_positive_integer(n):
    for kind in (DesignKind.IID, DesignKind.NONIID):
        with pytest.raises(ValueError, match=f"^n = {n} must be an integer >= 1$"):
            gen_design(kind, n, 1)
