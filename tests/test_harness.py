import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import viking as vk
from viking.harness import (
    ExperimentConfig,
    ExperimentKind,
    Method,
    QShape,
    Setting,
    grid_points,
    make_dataset,
    mse_second_half,
    parse_config_file,
    run_cell,
    run_experiment,
    sweep_nmc,
    transition_for,
)
from viking.records import StepRecord, read_trace_csv


def _trace_from_residuals(residuals):
    return [
        StepRecord(t=t, y=float(r), forecast=0.0, forecast_var=1.0, residual=float(r),
                   a_hat=0.0, s=0.0, sigma2_eff=1.0, b_hat=None, sigma_diag=None,
                   cum_sq_err=0.0)
        for t, r in enumerate(residuals)
    ]


def test_mse_second_half_examples():
    assert mse_second_half(_trace_from_residuals([0.0, 0.0, 0.0, 0.0])) == 0.0
    assert mse_second_half(_trace_from_residuals([10.0, 10.0, 1.0, 3.0])) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        mse_second_half(_trace_from_residuals([1.0]))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=60))
def test_mse_second_half_matches_bruteforce(residuals):
    n = len(residuals)
    brute = [r * r for t, r in enumerate(residuals) if t + 1 > n // 2]
    assert mse_second_half(_trace_from_residuals(residuals)) == pytest.approx(sum(brute) / len(brute))


def _tiny_cfg(**kw):
    defaults = dict(
        experiment=ExperimentKind.WS_IID, method=Method.VIKING, setting=Setting.DIAGONAL,
        n=40, seeds=(1, 2), n_mc=3, n_iter=1,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_oracle_uses_recorded_truth_schedules():
    cfg = _tiny_cfg(method=Method.KALMAN_ORACLE)
    ds = make_dataset(cfg, 1)
    trace = run_cell(cfg, grid_points(cfg)[0], ds, 1)
    qs = np.zeros((ds.n, 5, 5))
    qs[:, np.arange(5), np.arange(5)] = ds.truth.q_diag
    direct = vk.kalman_run(ds, np.eye(5), qs, ds.truth.sigma2,
                           init=vk.GaussianState(np.zeros(5), np.eye(5)))
    for a, b in zip(trace, direct):
        assert a.forecast == b.forecast
        assert a.sigma2_eff == b.sigma2_eff


def test_oracle_requires_truth():
    cfg = _tiny_cfg(method=Method.KALMAN_ORACLE)
    ds = make_dataset(cfg, 1)
    ds.truth = None
    with pytest.raises(ValueError):
        run_cell(cfg, grid_points(cfg)[0], ds, 1)


def test_constant_kalman_fixes_sigma2_to_one():
    cfg = _tiny_cfg(method=Method.KALMAN_CONSTANT)
    ds = make_dataset(cfg, 1)
    trace = run_cell(cfg, grid_points(cfg)[0], ds, 1)
    assert all(r.sigma2_eff == 1.0 for r in trace)


def test_grid_enumeration_and_tie_break():
    cfg = _tiny_cfg(method=Method.KALMAN_CONSTANT, q_grid=(0.1, 0.2), q_shapes=(QShape.MASKED,))
    pts = grid_points(cfg)
    assert [p.label for p in pts] == ["shape=masked,q=0.1", "shape=masked,q=0.2"]
    rows = [type("R", (), {"mean_mse": 1.0})() for _ in pts]
    best = min(range(len(pts)), key=lambda i: (rows[i].mean_mse, i))
    assert best == 0  # equal means pick the earlier grid point


def test_ms_experiments_use_contracting_transition():
    cfg = _tiny_cfg(experiment=ExperimentKind.MS_IID)
    np.testing.assert_array_equal(transition_for(cfg, 5), 0.9 * np.eye(5))
    cfg = _tiny_cfg(experiment=ExperimentKind.WS_NONIID)
    np.testing.assert_array_equal(transition_for(cfg, 5), np.eye(5))


def test_run_experiment_writes_layout_and_is_deterministic(tmp_path):
    cfg = _tiny_cfg()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1 = run_experiment(cfg, out_dir=out1)
    s2 = run_experiment(cfg, out_dir=out2)
    assert s1.best_row.mean_mse == s2.best_row.mean_mse
    cell = out1 / "ws-iid" / "viking-diagonal"
    assert (cell / "seed1.csv").exists() and (cell / "seed2.csv").exists()
    assert (cell / "summary.csv").exists()
    assert (cell / "seed1.csv").read_bytes() == (out2 / "ws-iid" / "viking-diagonal" / "seed1.csv").read_bytes()
    assert (cell / "summary.csv").read_bytes() == (out2 / "ws-iid" / "viking-diagonal" / "summary.csv").read_bytes()


def test_summary_recomputable_from_traces(tmp_path):
    cfg = _tiny_cfg(method=Method.KALMAN_ORACLE)
    summary = run_experiment(cfg, out_dir=tmp_path)
    recomputed = []
    for seed in cfg.seeds:
        trace = read_trace_csv(tmp_path / "ws-iid" / "kalman-oracle-diagonal" / f"seed{seed}.csv")
        n = len(trace)
        resid = np.array([r.y - r.forecast for r in trace[n // 2:]])
        recomputed.append(float(np.mean(resid * resid)))
    assert summary.best_row.mean_mse == pytest.approx(np.mean(recomputed), rel=0, abs=0)


def test_trace_residual_recomputable_exactly(tmp_path):
    cfg = _tiny_cfg()
    run_experiment(cfg, out_dir=tmp_path)
    trace = read_trace_csv(tmp_path / "ws-iid" / "viking-diagonal" / "seed1.csv")
    for rec in trace:
        assert rec.residual == rec.y - rec.forecast


def test_sweep_nmc_normalizer_and_shape(tmp_path):
    cfg = _tiny_cfg(n=30, seeds=(1,))
    rows = sweep_nmc(cfg, [1, 2, 5], out_dir=tmp_path)
    assert [r[0] for r in rows] == [1, 2, 5]
    assert rows[0][2] == 1.0
    path = tmp_path / "sweep-nmc" / "ws-iid-diagonal.csv"
    assert path.read_text().splitlines()[0] == "n_mc,mean_mse,ratio"
    with pytest.raises(ValueError):
        sweep_nmc(cfg, [2, 5])
    with pytest.raises(ValueError):
        sweep_nmc(_tiny_cfg(method=Method.KALMAN_ORACLE), [1, 2])


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "experiment = ms-noniid\n"
        "rho-a = 0.001   # inline comment\n"
        "n = 250\n"
        "\n"
        "learn_b = false\n",
        encoding="utf-8",
    )
    values = parse_config_file(path)
    assert values == {"experiment": "ms-noniid", "rho_a": "0.001", "n": "250", "learn_b": "false"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_cfg(n=1)
    with pytest.raises(ValueError):
        _tiny_cfg(seeds=())
    with pytest.raises(ValueError):
        _tiny_cfg(q_grid=())


def _assert_traces_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("forecast", "forecast_var", "residual", "a_hat", "s", "sigma2_eff", "cum_sq_err"):
            assert getattr(a, name) == getattr(b, name), (a.t, name)
        for name in ("b_hat", "sigma_diag", "theta", "cov"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.t, name)


def test_default_viking_cell_is_the_filter_with_its_own_defaults():
    cfg = ExperimentConfig(ExperimentKind.WS_IID, Method.VIKING, n=60, seeds=(3,))
    [point] = grid_points(cfg)
    assert point.label == f"rho_a={vk.VikingHyper.rho_a:.6g},rho_b={vk.VikingHyper.rho_b:.6g}"
    ds = make_dataset(cfg, 3)
    transform = vk.NoiseTransform.diagonal(ds.d)
    direct, _ = vk.viking_run(ds, vk.VikingHyper(transform, np.eye(ds.d)),
                              init=vk.default_initial_state(transform, seed=3))
    _assert_traces_identical(run_cell(cfg, point, ds, 3), direct)


def test_resonator_defaults_come_from_its_table():
    cfg = ExperimentConfig(ExperimentKind.RESONATOR, Method.VIKING, n=40, seeds=(1,))
    [point] = grid_points(cfg)
    assert point.label == "rho_a=0.00247875,rho_b=0"
    ds = make_dataset(cfg, 1)
    b_known = np.expm1(ds.truth.q_diag[0])
    for rec in run_cell(cfg, point, ds, 1):
        # learn_b off: f(b) stays pinned to the recorded noise, with no latent uncertainty
        np.testing.assert_array_equal(rec.b_hat, b_known)
        assert not rec.sigma_diag.any()
    learned = run_cell(replace(cfg, learn_b=True), point, ds, 1)
    assert all(rec.sigma_diag.all() for rec in learned)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("fields, message", [
    pytest.param({"rho_a": math.nan}, "rho_a = nan must be finite and >= 0", id="rho_a-nan"),
    pytest.param({"rho_b": math.inf}, "rho_b = inf must be finite and >= 0", id="rho_b-inf"),
    pytest.param({"rho_a": -1.0}, "rho_a = -1.0 must be finite and >= 0", id="rho_a--1.0"),
    pytest.param({"rho_b": (0.1, math.nan)}, "rho_b = nan must be finite and >= 0", id="rho_b-nan"),
    pytest.param({"rho_a": ()}, "grids must be non-empty", id="empty-rho-grid"),
    pytest.param({"q_grid": (math.nan,)}, "q_grid = nan must be finite and >= 0", id="q_grid-nan"),
    pytest.param({"q_grid": (0.1, math.inf)}, "q_grid = inf must be finite and >= 0", id="q_grid-inf"),
    pytest.param({"q_grid": (-0.1,)}, "q_grid = -0.1 must be finite and >= 0", id="q_grid--0.1"),
    pytest.param({"sigma2_const": math.inf}, "sigma2_const = inf must be finite and > 0", id="sigma2_const-inf"),
    pytest.param({"sigma2_const": math.nan}, "sigma2_const = nan must be finite and > 0", id="sigma2_const-nan"),
    pytest.param({"sigma2_const": 0.0}, "sigma2_const = 0.0 must be finite and > 0", id="sigma2_const-0.0"),
    pytest.param({"n": 2.5}, "n = 2.5 must be an integer >= 2", id="n-2.5"),
    pytest.param({"n": 1}, "n = 1 must be an integer >= 2", id="n-1"),
    pytest.param({"n": True}, "n = True must be an integer >= 2", id="n-True"),
    pytest.param({"seeds": (1.5,)}, "seeds = 1.5 must be an integer >= 0", id="seed-1.5"),
    pytest.param({"seeds": (1, -1)}, "seeds = -1 must be an integer >= 0", id="seed--1"),
    pytest.param({"seeds": (True,)}, "seeds = True must be an integer >= 0", id="seed-True"),
    pytest.param({"n_mc": 2.5}, "n_mc = 2.5 must be an integer >= 1", id="n_mc-2.5"),
    pytest.param({"n_mc": math.nan}, "n_mc = nan must be an integer >= 1", id="n_mc-nan"),
    pytest.param({"n_mc": 0}, "n_mc = 0 must be an integer >= 1", id="n_mc-0"),
    pytest.param({"n_iter": 0}, "n_iter = 0 must be an integer >= 1", id="n_iter-0"),
    pytest.param({"n_iter": False}, "n_iter = False must be an integer >= 1", id="n_iter-False"),
])
def test_config_rejects_parameters_that_are_not_finite_or_out_of_range(method, fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(ExperimentKind.MS_NONIID, method, **{"n": 30, "seeds": (1,), **fields})


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("p0", [math.nan, math.inf, -1.0])
def test_config_rejects_an_initial_covariance_scale_that_is_not_finite_and_nonnegative(method, p0):
    with pytest.raises(ValueError, match=f"^initial p0 = {p0} must be finite and >= 0$"):
        ExperimentConfig(ExperimentKind.MS_NONIID, method, n=30, seeds=(1,), init=vk.InitOverrides(p0=p0))


def test_config_takes_the_edges_of_each_range():
    cfg = ExperimentConfig(ExperimentKind.MS_NONIID, Method.VIKING, n=30, seeds=(1,),
                           rho_a=0.0, rho_b=(0.0, 1.0), q_grid=(0.0,), sigma2_const=1e-300)
    assert len(grid_points(cfg)) == 2
