"""Each (grid point, seed) cell of a ``run_experiment`` call runs once, and
the Kalman methods run the seeds of a grid point as one batched recursion:
every cell must give, bit for bit, the trace it gets alone."""

from dataclasses import fields, replace

import numpy as np
import pytest

import viking as vk
from viking import harness
from viking.harness import (
    ExperimentConfig,
    ExperimentKind,
    Method,
    Setting,
    _kalman_cells,
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
    if cfg.method is not Method.VIKING:
        batched = [trace for point in points
                   for trace in _kalman_cells(cfg, point, list(datasets.values()), keep_state=True)]
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
    # seed 2 starts with no state covariance and a zero noise matrix, so its
    # first propagated covariance is singular; seeds 1 and 3 are healthy
    cfg = ExperimentConfig(ExperimentKind.WS_IID, Method.VIKING, n=20, seeds=(1, 2, 3), n_mc=3,
                           rho_b=0.0, learn_b=False)
    default = harness.default_initial_state

    def initial_state(transform, seed, **kw):
        st = default(transform, seed=seed, **kw)
        if seed == 2:
            st.state.cov[:] = 0.0
            st.beliefs.b_hat[:] = -1.0
            st.beliefs.Sigma[:] = 0.0
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
