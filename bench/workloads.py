"""The three benchmark workloads: inputs from a workload seed, one measured
pass of closed-loop calls into the public ``viking`` API, and the checks on
what a pass produced.

A workload has ``groups`` distinct passes, each a fixed amount of work, so a
pass's outputs repeat exactly for fixed code. A run cycles through the groups
and repeats passes until its time is used.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import viking as vk

GRID_N = 1000        # steps per seed in the harness workloads (the c08 cells)
GRID_GROUPS = 3      # seed groups per harness workload; one run_experiment call each
GROUP_SEEDS = 3      # experiment seeds per call
ONLINE_D = 20
ONLINE_N = 3000
N_MC = 10
N_ITER = 2
SLICE_STEPS = 100    # steps in the slices used for call counts and the inversion check
REF_SECONDS = 0.040  # the reference kernel's typical time on the 2-core machine the benchmark was built on
KALMAN_CHECK_POINTS = 3
KALMAN_TOL = 1e-10   # as in the Kalman-equivalence acceptance check (c01)
MSE_RTOL = 1e-12
STEP_ERRORS = (np.linalg.LinAlgError, ValueError, ArithmeticError)


def derive_seeds(seed: int, k: int, salt: int) -> tuple[int, ...]:
    """``k`` distinct experiment seeds drawn deterministically from the workload seed."""
    words = np.random.SeedSequence([seed, salt]).generate_state(4 * k)
    out = list(dict.fromkeys(int(w) for w in words))[:k]
    if len(out) < k:
        raise RuntimeError("could not derive distinct seeds")
    return tuple(out)


@dataclass
class PassResult:
    group: int
    wall_s: float
    units: int                  # useful cells (harness) or steps (online)
    steps: int                  # useful filter steps
    mean_mse: float = math.nan
    failed_units: int = 0
    latencies_us: list[float] = field(default_factory=list)
    inversions: int = 0
    bytes_written: int = 0
    fingerprint: tuple = ()     # values that must repeat exactly for the same group
    errors: list[str] = field(default_factory=list)
    summary: vk.ExperimentSummary | None = None
    records: list = field(default_factory=list)
    scale: float = 1.0          # REF_SECONDS over the reference kernel's time around this pass


def _finite(*values) -> bool:
    return all(v is None or bool(np.all(np.isfinite(v))) for v in values)


def _record_finite(r: vk.StepRecord) -> bool:
    """Every field is finite; ``cum_sq_err`` is only filled in by the run helpers."""
    return _finite(r.y, r.forecast, r.forecast_var, r.residual, r.a_hat, r.s, r.sigma2_eff,
                   r.b_hat, r.sigma_diag, r.theta, r.cov) and not math.isinf(r.cum_sq_err)


def _second_half_mse(residuals) -> float:
    r = np.asarray(residuals, dtype=float)
    tail = r[len(r) // 2:]
    return float(np.mean(tail * tail))


def plain_kalman(x: np.ndarray, y: np.ndarray, K: np.ndarray, Q: np.ndarray,
                 sigma2: float, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """Textbook Kalman recursion; returns the one-step forecasts and their variances."""
    n, d = x.shape
    m = np.zeros(d)
    P = p0 * np.eye(d)
    fc = np.empty(n)
    fv = np.empty(n)
    for t in range(n):
        m = K @ m
        P = K @ P @ K.T + Q
        xt = x[t]
        Px = P @ xt
        fc[t] = float(xt @ m)
        fv[t] = float(xt @ Px) + sigma2
        gain = Px / fv[t]
        m = m + gain * (y[t] - fc[t])
        P = P - np.outer(gain, Px)
    return fc, fv


class Reference:
    """A fixed kernel of the workloads' kind (a Python-level Kalman loop plus small
    LAPACK calls), timed between passes to track how fast the machine runs.

    It uses neither ``viking`` nor anything a later change can edit, so its time
    depends on the machine only.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((1600, 5))
        self.y = rng.standard_normal(1600)
        m = rng.random((20, 20))
        self.m = m @ m.T + 20.0 * np.eye(20)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        plain_kalman(self.x, self.y, 0.9 * np.eye(5), 0.05 * np.eye(5), 1.0, 1.0)
        for _ in range(400):
            np.linalg.cholesky(self.m)
            np.linalg.inv(self.m)
        return time.perf_counter() - t0


def constant_q(point, d: int) -> np.ndarray:
    """The constant state-noise matrix of a Kalman grid point, from its documented shape."""
    if point.shape is vk.QShape.MASKED:
        return point.q * np.diag([0.0, 0.0, 1.0, 1.0, 1.0])
    return point.q * np.eye(d)


class Workload:
    name = ""
    unit_span = ""   # the span that starts a new unit id in traces
    groups = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, group: int) -> PassResult:
        raise NotImplementedError

    def check(self, res: PassResult, first: bool) -> list[str]:
        """Failed checks of a pass; ``first`` marks the first pass of its group."""
        raise NotImplementedError

    def regenerate_inputs(self) -> None:
        """Build the inputs again (traced); the harness workloads do it inside each pass."""

    def slice_fn(self):
        """A short piece of the workload, run without wrappers for Python call counts."""
        raise NotImplementedError


class HarnessWorkload(Workload):
    """``run_experiment`` with ``out_dir`` set on the misspecified non-i.i.d. cell."""

    unit_span = "harness.run_cell"
    method: vk.Method

    def setup(self) -> None:
        self.groups = GRID_GROUPS
        seeds = derive_seeds(self.seed, GRID_GROUPS * GROUP_SEEDS, salt=1)
        base = vk.ExperimentConfig(vk.ExperimentKind.MS_NONIID, self.method, vk.Setting.DIAGONAL,
                                   n=GRID_N, seeds=seeds[:GROUP_SEEDS], n_mc=N_MC, n_iter=N_ITER)
        self.cfgs = [replace(base, seeds=seeds[g * GROUP_SEEDS:(g + 1) * GROUP_SEEDS])
                     for g in range(GRID_GROUPS)]
        self.points = vk.grid_points(base)
        self.datasets = {s: vk.make_dataset(base, s) for s in seeds}
        self.out_dir = self.work_dir / "out"
        self.cell_dir = self.out_dir / base.experiment.value / f"{base.method.value}-{base.setting.value}"
        vk.run_experiment(replace(base, n=20, seeds=seeds[:1]), out_dir=self.work_dir / "warmup")
        shutil.rmtree(self.work_dir / "warmup")

    def run_pass(self, group: int) -> PassResult:
        cfg = self.cfgs[group]
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        cells = len(self.points) * len(cfg.seeds)
        steps = cells * cfg.n
        inv0 = vk.spd_inversion_count()
        t0 = time.perf_counter()
        try:
            summary = vk.run_experiment(cfg, out_dir=self.out_dir)
        except STEP_ERRORS as exc:
            return PassResult(group, time.perf_counter() - t0, cells, steps, failed_units=cells,
                              errors=[f"run_experiment raised {exc!r}"])
        wall = time.perf_counter() - t0
        return PassResult(
            group, wall, cells, steps, mean_mse=summary.best_row.mean_mse,
            inversions=vk.spd_inversion_count() - inv0,
            bytes_written=sum(p.stat().st_size for p in self.cell_dir.glob("seed*.csv")),
            fingerprint=tuple(row.mean_mse for row in summary.rows) + (summary.best,),
            summary=summary)

    def check(self, res: PassResult, first: bool) -> list[str]:
        if res.failed_units:
            return []
        cfg = self.cfgs[res.group]
        summary = res.summary
        errors = self._first_pass_checks(res) if first else []
        if len(summary.rows) != len(self.points):
            errors.append(f"summary has {len(summary.rows)} rows for {len(self.points)} grid points")
        if not all(_finite(r.mean_mse, r.stderr_mse) for r in summary.rows):
            errors.append("summary has a non-finite row")
        if min(r.mean_mse for r in summary.rows) != summary.best_row.mean_mse:
            errors.append("selected grid point is not the lowest mean MSE")
        lines = (self.cell_dir / "summary.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
        csv_mse = [float(line.rsplit(",", 2)[1]) for line in lines]  # grid labels hold commas
        if csv_mse != [r.mean_mse for r in summary.rows]:
            errors.append("summary.csv does not match the returned summary")
        seed_mses = []
        for seed in cfg.seeds:
            trace = vk.read_trace_csv(self.cell_dir / f"seed{seed}.csv")
            if len(trace) != cfg.n or not all(_record_finite(r) for r in trace):
                errors.append(f"seed{seed}.csv: wrong length or non-finite values")
                continue
            seed_mses.append(_second_half_mse([r.residual for r in trace]))
            errors += self._check_trace(trace, res.group, seed)
        if len(seed_mses) == len(cfg.seeds) and csv_mse:
            recomputed = float(np.mean(seed_mses))
            best = csv_mse[summary.best]
            if abs(recomputed - best) > MSE_RTOL * abs(best):
                errors.append(f"trace CSVs give mean MSE {recomputed!r}, summary.csv {best!r}")
        return errors

    def _check_trace(self, trace, group: int, seed: int) -> list[str]:
        return []

    def _first_pass_checks(self, res: PassResult) -> list[str]:
        return []

    def slice_fn(self):
        cfg = replace(self.cfgs[0], n=SLICE_STEPS)
        seed = cfg.seeds[0]
        ds = self.datasets[seed]
        short = vk.Dataset(ds.x[:SLICE_STEPS], ds.y[:SLICE_STEPS], seed, dict(ds.meta))
        return lambda: vk.run_cell(cfg, self.points[0], short, seed)


class VikingGrid(HarnessWorkload):
    name = "ms-noniid-viking"
    method = vk.Method.VIKING

    def _first_pass_checks(self, res: PassResult) -> list[str]:
        """Exact inversion budget, counted over an untimed slice of one cell."""
        run_slice = self.slice_fn()
        inv0 = vk.spd_inversion_count()
        run_slice()
        per_step = (vk.spd_inversion_count() - inv0) / SLICE_STEPS
        want = N_ITER * (N_MC + 4)
        return [] if per_step == want else [f"{per_step} SPD inversions per step, want {want}"]


class KalmanGrid(HarnessWorkload):
    name = "ms-noniid-kalman-grid"
    method = vk.Method.KALMAN_CONSTANT

    def setup(self) -> None:
        super().setup()
        self._best_ref: dict[int, tuple] = {}   # seed -> (forecasts, variances) at the selected point

    def _reference(self, group: int, point, seed: int) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.cfgs[group]
        ds = self.datasets[seed]
        K = vk.harness.transition_for(cfg, ds.d)
        return plain_kalman(ds.x, ds.y, K, constant_q(point, ds.d), cfg.sigma2_const, cfg.init.p0)

    def _check_trace(self, trace, group: int, seed: int) -> list[str]:
        fc, fv = self._best_ref[seed]
        got_fc = np.array([r.forecast for r in trace])
        got_fv = np.array([r.forecast_var for r in trace])
        if np.allclose(got_fc, fc, rtol=0.0, atol=KALMAN_TOL) and np.allclose(got_fv, fv, rtol=KALMAN_TOL, atol=0.0):
            return []
        return [f"seed{seed}.csv differs from the plain Kalman recursion"]

    def _first_pass_checks(self, res: PassResult) -> list[str]:
        """Sampled grid points (and the selected one) against the plain recursion."""
        errors = []
        cfg = self.cfgs[res.group]
        summary = res.summary
        rng = np.random.default_rng([self.seed, res.group, 2])
        sampled = set(rng.choice(len(self.points), size=KALMAN_CHECK_POINTS, replace=False).tolist())
        for i in sorted(sampled | {summary.best}):
            refs = {seed: self._reference(res.group, self.points[i], seed) for seed in cfg.seeds}
            if i == summary.best:
                self._best_ref.update(refs)
            ref_mse = float(np.mean([_second_half_mse(self.datasets[s].y - refs[s][0]) for s in cfg.seeds]))
            got = summary.rows[i].mean_mse
            if abs(ref_mse - got) > KALMAN_TOL * max(1.0, abs(got)):
                errors.append(f"grid point {self.points[i].label}: mean MSE {got!r}, plain Kalman {ref_mse!r}")
        return errors


class OnlineD20(Workload):
    """One long filter stepped one observation at a time, as a forecaster calls it."""

    name = "online-d20"
    unit_span = "vb.viking_step"

    def setup(self) -> None:
        self.data_seed = derive_seeds(self.seed, 1, salt=3)[0]
        self.ds = self.make_inputs()
        self.transform = vk.NoiseTransform.diagonal(ONLINE_D)
        self.hyper = vk.VikingHyper(self.transform, np.eye(ONLINE_D), n_mc=N_MC, n_iter=N_ITER)
        self.ys = [float(v) for v in self.ds.y]
        st = vk.default_initial_state(self.transform, seed=self.data_seed)
        for t in range(3):
            st, _ = vk.viking_step(st, self.hyper, self.ds.x[t], self.ys[t])

    def make_inputs(self) -> vk.Dataset:
        """Uniform design with an intercept; smoothly varying variance schedules."""
        n, d = ONLINE_N, ONLINE_D
        rng = np.random.default_rng([self.data_seed, 0])
        x = np.empty((n, d))
        x[:, :d - 1] = rng.random((n, d - 1))
        x[:, d - 1] = 1.0
        wave = np.cos(4.0 * np.pi * np.arange(n) / n)
        sigma2 = 1.0 + 0.1 * wave
        mask = (np.arange(d) % 4 != 0).astype(float)   # a quarter of the coefficients stay fixed
        q_diag = (0.0025 + 0.002 * wave)[:, None] * mask[None, :]
        return vk.gen_wellspecified(x, self.data_seed, sigma2_override=sigma2, q_diag_override=q_diag)

    def regenerate_inputs(self) -> None:
        ds = self.make_inputs()
        if not (np.array_equal(ds.x, self.ds.x) and np.array_equal(ds.y, self.ds.y)):
            raise RuntimeError("regenerated inputs differ from the set-up inputs")

    def run_pass(self, group: int) -> PassResult:
        n = ONLINE_N
        x, ys, hyper = self.ds.x, self.ys, self.hyper
        step = vk.viking_step
        clock = time.perf_counter_ns
        st = vk.default_initial_state(self.transform, seed=self.data_seed)
        lat = []
        records = []
        errors = []
        inv0 = vk.spd_inversion_count()
        t0 = time.perf_counter()
        for t in range(n):
            xt, yt = x[t], ys[t]
            s0 = clock()
            try:
                st, rec = step(st, hyper, xt, yt)
            except STEP_ERRORS as exc:
                errors.append(f"step {t} raised {exc!r}")
                break
            lat.append(clock() - s0)
            records.append(rec)
        wall = time.perf_counter() - t0
        res = PassResult(group, wall, n, n, failed_units=n - len(records), errors=errors,
                         latencies_us=[v / 1e3 for v in lat],
                         inversions=vk.spd_inversion_count() - inv0, records=records)
        if records:
            res.mean_mse = _second_half_mse([r.residual for r in records])
            res.fingerprint = (res.mean_mse, records[-1].a_hat, *records[-1].b_hat.tolist())
        return res

    def check(self, res: PassResult, first: bool) -> list[str]:
        if res.failed_units:
            return []
        errors = []
        bad = sum(1 for r in res.records if not _record_finite(r))
        if bad:
            errors.append(f"{bad} steps have non-finite outputs")
        want = N_ITER * (N_MC + 4)
        if res.inversions != want * res.steps:
            errors.append(f"{res.inversions / res.steps} SPD inversions per step, want {want}")
        return errors

    def slice_fn(self):
        def run():
            st = vk.default_initial_state(self.transform, seed=self.data_seed)
            for t in range(SLICE_STEPS):
                st, _ = vk.viking_step(st, self.hyper, self.ds.x[t], self.ys[t])
        return run


WORKLOADS = {cls.name: cls for cls in (VikingGrid, KalmanGrid, OnlineD20)}
