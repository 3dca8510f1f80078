"""Each (grid point, seed) cell of a ``run_experiment`` call runs once,
through one runner that batches the seeds (and, for the Kalman methods, the
grid points): every cell must give, bit for bit, the trace it gets alone."""

from dataclasses import fields, replace

import numpy as np
import pytest

import viking as vk
from viking import harness
from viking.harness import (
    ExperimentConfig,
    ExperimentKind,
    InitOverrides,
    Method,
    Setting,
    _point_traces,
    _stderr,
    grid_points,
    make_dataset,
    mse_second_half,
    run_cell,
    run_experiment,
)
from viking.records import Trace, fmt, write_trace_csv

CONFIGS = {
    "viking-diagonal-grid": ExperimentConfig(ExperimentKind.MS_NONIID, Method.VIKING, Setting.DIAGONAL,
                                             n=60, seeds=(1, 2), n_mc=3, rho_a=(1e-4, 1e-2),
                                             rho_b=(1e-3, 5e-2)),
    "viking-scalar-grid": ExperimentConfig(ExperimentKind.WS_IID, Method.VIKING, Setting.SCALAR,
                                           n=60, seeds=(1, 2), n_mc=3, rho_a=(1e-4, 1e-2),
                                           rho_b=(1e-3, 5e-2)),
    "resonator-learn-b-off": ExperimentConfig(ExperimentKind.RESONATOR, Method.VIKING,
                                              n=80, seeds=(1, 2, 3)),
    # one experiment mixing a zero and a nonzero latent prior, one per grid
    # point: rho_b = 0 with sigma0 = 0 is a known b, rho_b > 0 a learned one
    "viking-zero-and-nonzero-latent-prior": ExperimentConfig(
        ExperimentKind.MS_NONIID, Method.VIKING, n=40, seeds=(1, 2, 3), n_mc=3, rho_b=(0.0, 0.05),
        init=InitOverrides(sigma0=0.0)),
    "kalman-constant-grid": ExperimentConfig(ExperimentKind.MS_NONIID, Method.KALMAN_CONSTANT,
                                             n=60, seeds=(1, 2)),
    "kalman-oracle": ExperimentConfig(ExperimentKind.WS_IID, Method.KALMAN_ORACLE, n=60, seeds=(1, 2, 3)),
}


def _assert_same_columns(got: Trace, want: Trace, where) -> None:
    for f in fields(Trace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), (where, f.name)
        assert a is None or np.array_equal(a, b), (where, f.name)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_cells_match_their_own_runs(name, tmp_path):
    cfg = CONFIGS[name]
    points = grid_points(cfg)
    datasets = {seed: make_dataset(cfg, seed) for seed in cfg.seeds}
    cells = [(point, seed) for point in points for seed in cfg.seeds]
    alone = [run_cell(cfg, point, datasets[seed], seed) for point, seed in cells]
    batched = [trace for traces in _point_traces(cfg, points, list(datasets.values()), keep_state=True)
               for trace in traces]
    assert len(batched) == len(cells)
    for cell, got, want in zip(cells, batched, alone):
        _assert_same_columns(got, want, cell)

    summary = run_experiment(cfg, out_dir=tmp_path)
    mses = np.array([mse_second_half(trace) for trace in alone]).reshape(len(points), len(cfg.seeds))
    cell_dir = tmp_path / cfg.experiment.value / f"{cfg.method.value}-{cfg.setting.value}"
    lines = (cell_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert lines == [",".join([cfg.method.value, cfg.setting.value, point.label,
                               fmt(float(row.mean())), fmt(_stderr(row))])
                     for point, row in zip(points, mses)]
    best = min(range(len(points)), key=lambda i: (mses[i].mean(), i))
    assert summary.best == best
    for j, seed in enumerate(cfg.seeds):
        write_trace_csv(alone[best * len(cfg.seeds) + j], tmp_path / "alone.csv")
        assert (cell_dir / f"seed{seed}.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_run_with_output_inverts_each_cell_once(tmp_path):
    # a rerun of the selected grid point would add its cells' inversions again
    cfg = CONFIGS["viking-diagonal-grid"]
    cells = len(grid_points(cfg)) * len(cfg.seeds)
    vk.reset_spd_inversion_count()
    run_experiment(cfg, out_dir=tmp_path)
    assert vk.spd_inversion_count() == cells * cfg.n * cfg.n_iter * (cfg.n_mc + 4)


def test_singular_cell_names_its_step_and_seed(monkeypatch):
    # every seed starts with a zero latent covariance (sigma0 = 0, rho_b = 0);
    # seed 2 also starts with no state covariance and a zero noise matrix, so
    # its first propagated covariance is singular; seeds 1 and 3 are healthy
    cfg = ExperimentConfig(ExperimentKind.WS_IID, Method.VIKING, n=20, seeds=(1, 2, 3), n_mc=3,
                           rho_b=0.0, learn_b=False, init=InitOverrides(sigma0=0.0))
    default = harness.default_initial_state

    def initial_state(transform, seed, **kw):
        st = default(transform, seed=seed, **kw)
        assert not st.beliefs.Sigma.any()
        if seed == 2:
            st.state.cov[:] = 0.0
            st.beliefs.b_hat[:] = -1.0
        return st

    monkeypatch.setattr(harness, "default_initial_state", initial_state)
    with pytest.raises(vk.SingularMatrixError, match=r"seed 2\b.*step 0\b"):
        run_experiment(cfg)
    run_experiment(replace(cfg, seeds=(1, 3)))


def test_kalman_grid_steps_once_for_every_point(monkeypatch, tmp_path):
    # one recursion for every (grid point, seed) cell: n predict/update calls,
    # not n per grid point
    import viking.kalman

    cfg = CONFIGS["kalman-constant-grid"]
    assert len(grid_points(cfg)) == 20
    calls = []
    step = viking.kalman._predict_update

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(viking.kalman, "_predict_update", counted)
    run_experiment(cfg, out_dir=tmp_path)
    assert len(calls) == cfg.n


# ------------------------------------------------ batched VIKING recursion

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _alone(x, y, hyper, init) -> list:
    """One filter stepped through ``viking_step`` without a filter axis."""
    st, records = init, []
    for t in range(len(y)):
        st, rec = vk.viking_step(st, hyper, x[t], float(y[t]))
        records.append(rec)
    return records


def _assert_matches_alone(traces, x, y, hyper, inits, where) -> None:
    for b, (trace, init) in enumerate(zip(traces, inits)):
        records = _alone(x[:, b], y[:, b], hyper, init)
        for f in fields(Trace):
            if f.name == "cum_sq_err":  # the runners fill it in; a record holds NaN
                continue
            want = [getattr(r, f.name) for r in records]
            assert _same_bits(getattr(trace, f.name), want), (where, b, f.name)


@pytest.mark.parametrize("name", ["viking-diagonal-grid", "viking-scalar-grid", "resonator-learn-b-off",
                                  "viking-zero-and-nonzero-latent-prior"])
def test_viking_batch_columns_match_single_filter_steps(name, monkeypatch):
    # every column of every batched cell, theta/cov included, bit for bit
    import copy

    cfg = CONFIGS[name]
    runs = []
    run_batch = harness.viking_run_batch

    def recording(x, y, hyper, inits, keep_state):
        runs.append((x, y, hyper, copy.deepcopy(inits)))
        return run_batch(x, y, hyper, inits, keep_state)

    monkeypatch.setattr(harness, "viking_run_batch", recording)
    datasets = [make_dataset(cfg, seed) for seed in cfg.seeds]
    points = grid_points(cfg)
    for point, traces in zip(points, _point_traces(cfg, points, datasets, keep_state=True)):
        x, y, hyper, inits = runs.pop()
        assert x.shape[1] == len(cfg.seeds) > 1
        _assert_matches_alone(traces, x, y, hyper, inits, point.label)


@pytest.mark.parametrize("kind, d", [(vk.TransformKind.DIAGONAL, 5), (vk.TransformKind.DIAGONAL, 20),
                                     (vk.TransformKind.SCALAR, 3)], ids=["diagonal-5", "diagonal-20", "scalar-3"])
def test_batch_of_one_matches_the_no_axis_step(kind, d):
    # a single filter keeps the no-axis path only because it is faster (vb
    # module docstring); a batch of one must give the same bits
    rng = np.random.default_rng(d)
    x = rng.uniform(size=(50, d))
    x[:, -1] = 1.0
    y = np.einsum("td,td->t", x, np.cumsum(0.1 * rng.standard_normal((50, d)), axis=0)) + rng.standard_normal(50)
    hyper = vk.VikingHyper(vk.NoiseTransform(kind, d), np.eye(d), n_mc=3)
    alone = vk.default_initial_state(hyper.transform, seed=d)
    batch = vk.vb.stack_states([vk.default_initial_state(hyper.transform, seed=d)])
    for t in range(len(y)):
        alone, want = vk.viking_step(alone, hyper, x[t], float(y[t]))
        batch, got = vk.viking_step(batch, hyper, x[t:t + 1], y[t:t + 1])
        for f in fields(want):
            value = getattr(got, f.name)
            assert _same_bits(value if f.name in ("t", "cum_sq_err") else value[0], getattr(want, f.name)), \
                (t, f.name)
    for got, want in [(batch.state.mean[0], alone.state.mean), (batch.state.cov[0], alone.state.cov),
                      (batch.beliefs.a_hat[0], alone.beliefs.a_hat), (batch.beliefs.s[0], alone.beliefs.s),
                      (batch.beliefs.b_hat[0], alone.beliefs.b_hat), (batch.beliefs.Sigma[0], alone.beliefs.Sigma)]:
        assert _same_bits(got, want)
    assert batch.step_index == alone.step_index
    assert batch.rng[0].bit_generator.state == alone.rng.bit_generator.state


def test_viking_batch_rejects_mixing_zero_and_nonzero_latent_covariance():
    hyper = vk.VikingHyper(vk.NoiseTransform.diagonal(2), np.eye(2), rho_b=0.0, n_mc=2, learn_b=False)
    st = vk.vb.stack_states([vk.default_initial_state(hyper.transform, sigma0=s0, seed=1) for s0 in (0.0, 0.1)])
    with pytest.raises(ValueError, match=r"^step 0: a batch mixes zero and nonzero latent covariances$") as info:
        vk.viking_step(st, hyper, np.ones((2, 2)), np.zeros(2))
    assert not hasattr(info.value, "filter")  # no one filter is at fault


def test_viking_grid_steps_once_per_point(monkeypatch, tmp_path):
    # the seeds of a grid point share one viking_step call per time step:
    # n calls per point, not n per (point, seed) cell
    import viking.vb

    cfg = replace(CONFIGS["viking-diagonal-grid"], seeds=(1, 2, 3))
    calls = []
    step = viking.vb.viking_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(viking.vb, "viking_step", counted)
    run_experiment(cfg, out_dir=tmp_path)
    assert len(calls) == len(grid_points(cfg)) * cfg.n


def test_batched_step_names_the_filter_of_a_non_finite_input():
    hyper = vk.VikingHyper(vk.NoiseTransform.diagonal(2), np.eye(2), n_mc=2)
    st = vk.vb.stack_states([vk.default_initial_state(hyper.transform, seed=s) for s in (1, 2, 3)])
    x = np.ones((3, 2))
    x[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"step 0, filter 2: non-finite") as info:
        vk.viking_step(st, hyper, x, np.zeros(3))
    assert info.value.filter == 2


def test_experiment_names_the_seed_of_a_non_finite_observation(monkeypatch):
    cfg = ExperimentConfig(ExperimentKind.WS_IID, Method.VIKING, n=20, seeds=(1, 2, 3), n_mc=2)
    make = harness.make_dataset

    def dataset(cfg, seed):
        ds = make(cfg, seed)
        if seed == 2:
            ds.y[7] = np.nan
        return ds

    monkeypatch.setattr(harness, "make_dataset", dataset)
    with pytest.raises(ValueError, match=r"seed 2\b.*step 7\b.*non-finite"):
        run_experiment(cfg)


@pytest.mark.parametrize("learn_b", [False, True], ids=["b-known", "b-learned"])
def test_a_singular_latent_covariance_steps_and_each_filter_gets_its_alone_bits(learn_b, monkeypatch):
    # a nonzero PSD Sigma with a zero eigenvalue has no Cholesky factor: its
    # draws take vb._psd_sqrt's eigh fallback, alone and, for that filter's
    # matrix alone, in the stacked batch
    import copy

    d = 3
    singular = np.diag([0.1, 0.0, 0.05])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular)
    hyper = vk.VikingHyper(vk.NoiseTransform.diagonal(d), np.eye(d), rho_b=0.0, n_mc=3, learn_b=learn_b)
    inits = [vk.default_initial_state(hyper.transform, seed=s) for s in (1, 2, 3)]
    inits[1].beliefs.Sigma = singular
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(12, 3, d))
    y = x.sum(axis=-1) + rng.standard_normal((12, 3))
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    traces, _ = vk.vb.viking_run_batch(x, y, hyper, copy.deepcopy(inits), keep_state=True)
    assert calls and all(np.isfinite(trace.forecast).all() for trace in traces)
    _assert_matches_alone(traces, x, y, hyper, inits, "singular Sigma")
