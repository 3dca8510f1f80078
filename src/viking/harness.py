"""Experiment runner: datasets, filter methods, grids, metrics, CSV output.

Five named experiments (a stochastic resonator plus well-specified and
misspecified regressions on i.i.d. / non-i.i.d. designs) are paired with
three methods: the adaptive filter, a Kalman oracle driven by the recorded
true variances, and constant-variance Kalman baselines over a grid of
state-noise levels. The score is the mean squared one-step forecast error
over the second half of each run; grid methods report every grid point and
select the best a posteriori by mean score across seeds. One runner,
``_point_traces``, runs the (grid point, seed) cells of an experiment, and
``run_cell`` is its one-cell case. The Kalman methods run every cell in one
recursion, with the grid points and the seeds on leading filter axes; the
adaptive filter runs the seeds of one grid point at a time in one recursion,
with the seeds on a leading filter axis. All seeds of a point share its
``rho_b`` and the initial latent covariance ``sigma0`` (the resonator pins it
to 0 for every seed), so a batch never mixes a zero latent prior with a
nonzero one.

Output layout: ``<out>/<experiment>/<method>-<setting>/seed<k>.csv`` per-seed
traces (for the selected grid point) plus ``summary.csv`` alongside them.
All randomness flows from the configured seeds; repeated runs produce
byte-identical files whatever the BLAS thread count, given the same OpenBLAS
kernel, the same numpy and scipy versions and the same inputs. Across
kernels (OpenBLAS picks one per CPU, or ``OPENBLAS_CORETYPE`` names it) they
are not: BLAS products and LAPACK factors round differently per kernel, so
the bytes differ in the last digits.

Every configured number is checked once, when :class:`ExperimentConfig` is
built: a random-walk variance, a ``q_grid`` entry or an initial ``p0`` that
is negative or not finite, a ``sigma2_const`` that is not finite and > 0, or
an ``n`` (>= 2), seed (>= 0), ``n_mc`` or ``n_iter`` (>= 1) that is a bool,
not an integer or out of range, raises ``ValueError`` naming its key.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .checks import check_count, check_finite
from .datagen import (
    Dataset,
    DesignKind,
    DEFAULT_WALK_VAR,
    MS_CONTRACTION,
    WS_Q_MASK,
    default_resonator_sigma2,
    gen_design,
    gen_misspecified,
    gen_resonator,
    gen_wellspecified,
    resonator_transition,
)
from .kalman import P0, GaussianState, kalman_run_grid, kalman_traces
from .linalg import SingularMatrixError
from .records import StepRecord, Trace, fmt, write_lines, write_table, write_trace_csv
from .transforms import NoiseTransform, TransformKind as Setting  # Setting: the noise shape VIKING learns
from .vb import VikingHyper, default_initial_state, viking_run_batch

DEFAULT_RHO_GRID = DEFAULT_Q_GRID = tuple(math.exp(-i) for i in range(1, 11))


class ExperimentKind(Enum):
    RESONATOR = "resonator"
    WS_IID = "ws-iid"
    WS_NONIID = "ws-noniid"
    MS_IID = "ms-iid"
    MS_NONIID = "ms-noniid"


class Method(Enum):
    VIKING = "viking"
    KALMAN_ORACLE = "kalman-oracle"
    KALMAN_CONSTANT = "kalman-constant"


class QShape(Enum):
    MASKED = "masked"  # q * diag(0,0,1,1,1)
    FULL = "full"      # q * I


@dataclass
class InitOverrides:
    """Initial beliefs; ``None`` fields take the experiment's table entry,
    else the default of :func:`default_initial_state`."""

    a0: float | None = None
    s0: float | None = None
    q0: float | None = None      # initial state-noise diagonal, f(b0)
    sigma0: float | None = None  # initial latent covariance scale
    p0: float = P0


@dataclass
class ExperimentConfig:
    """One experiment. ``None`` filter fields take the experiment's table
    entry (:data:`RESONATOR_DEFAULTS`), else the filter's default."""

    experiment: ExperimentKind
    method: Method
    setting: Setting = Setting.DIAGONAL
    n: int = 1000
    seeds: tuple[int, ...] = tuple(range(1, 21))
    rho_a: float | tuple[float, ...] | None = None
    rho_b: float | tuple[float, ...] | None = None
    n_mc: int = VikingHyper.n_mc
    n_iter: int = VikingHyper.n_iter
    learn_a: bool | None = None
    learn_b: bool | None = None
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID
    q_shapes: tuple[QShape, ...] | None = None  # None: every shape the experiment's state supports
    sigma2_const: float = 1.0
    init: InitOverrides = field(default_factory=InitOverrides)
    walk_var: float = DEFAULT_WALK_VAR

    def __post_init__(self) -> None:
        check_count("n", self.n, 2)  # the second-half metric needs at least one point
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            check_count("seeds", seed, 0)
        check_count("n_mc", self.n_mc, 1)
        check_count("n_iter", self.n_iter, 1)
        if not self.q_grid or () in (self.q_shapes, self.rho_a, self.rho_b):
            raise ValueError("grids must be non-empty")
        for key in ("rho_a", "rho_b", "q_grid"):
            value = getattr(self, key)
            for v in value if isinstance(value, tuple) else () if value is None else (value,):
                check_finite(key, v)
        check_finite("initial p0", self.init.p0)  # the Kalman methods' one initial belief
        check_finite("sigma2_const", self.sigma2_const, "> 0")


def mse_second_half(trace: Trace | list[StepRecord]) -> float:
    """Mean squared one-step forecast error over steps strictly past n/2."""
    n = len(trace)
    if n < 2:
        raise ValueError("trace must have length >= 2")
    if isinstance(trace, Trace):
        resid = trace.residual[n // 2:]
    else:
        resid = np.array([r.residual for r in trace[n // 2:]])
    return float(np.mean(resid * resid))


def make_dataset(cfg: ExperimentConfig, seed: int) -> Dataset:
    kind = cfg.experiment
    if kind is ExperimentKind.RESONATOR:
        return gen_resonator(cfg.n, default_resonator_sigma2(cfg.n), seed)
    design_kind = DesignKind.IID if kind in (ExperimentKind.WS_IID, ExperimentKind.MS_IID) else DesignKind.NONIID
    design = gen_design(design_kind, cfg.n, seed, walk_var=cfg.walk_var)
    if kind in (ExperimentKind.WS_IID, ExperimentKind.WS_NONIID):
        return gen_wellspecified(design, seed)
    return gen_misspecified(design, seed)


def transition_for(cfg: ExperimentConfig, d: int) -> np.ndarray:
    """Transition matrix the filters assume for an experiment.

    The transition is part of the known model structure everywhere (only the
    noise variances are unknown): identity for the well-specified random
    walks, the rotation matrix for the resonator, and the generating
    contraction for the mixture experiments, whose misspecification is the
    two-state switching rather than the per-state dynamics.
    """
    if cfg.experiment is ExperimentKind.RESONATOR:
        return resonator_transition()
    if cfg.experiment in (ExperimentKind.MS_IID, ExperimentKind.MS_NONIID):
        return MS_CONTRACTION * np.eye(d)
    return np.eye(d)


# The resonator's state noise is known, so only the observation variance is
# learned; while b is not learned, f(b0) is pinned to the recorded noise with no
# latent uncertainty (see ``_viking_points``).
RESONATOR_DEFAULTS = {"rho_a": math.exp(-6.0), "rho_b": 0.0, "learn_b": False}


def _set_fields(**values) -> dict:
    return {key: value for key, value in values.items() if value is not None}


def _viking_fields(cfg: ExperimentConfig) -> dict:
    """Filter fields the config sets, over the experiment's table."""
    table = RESONATOR_DEFAULTS if cfg.experiment is ExperimentKind.RESONATOR else {}
    return {**table, **_set_fields(rho_a=cfg.rho_a, rho_b=cfg.rho_b,
                                   learn_a=cfg.learn_a, learn_b=cfg.learn_b)}


@dataclass(frozen=True)
class GridPoint:
    label: str
    rho_a: float = 0.0
    rho_b: float = 0.0
    q: float = 0.0
    shape: QShape | None = None


def grid_points(cfg: ExperimentConfig) -> list[GridPoint]:
    """Deterministic grid enumeration; single-point methods get one entry."""
    if cfg.method is Method.VIKING:
        fields = _viking_fields(cfg)
        rho_a = fields.get("rho_a", VikingHyper.rho_a)
        rho_b = fields.get("rho_b", VikingHyper.rho_b)
        ras = rho_a if isinstance(rho_a, tuple) else (rho_a,)
        rbs = rho_b if isinstance(rho_b, tuple) else (rho_b,)
        return [GridPoint(f"rho_a={a:.6g},rho_b={b:.6g}", rho_a=a, rho_b=b)
                for a in ras for b in rbs]
    if cfg.method is Method.KALMAN_ORACLE:
        return [GridPoint("true")]
    # the masked shape needs the regressions' 5-dimensional state
    shapes = cfg.q_shapes or ((QShape.FULL,) if cfg.experiment is ExperimentKind.RESONATOR else tuple(QShape))
    return [GridPoint(f"shape={s.value},q={q:.6g}", q=q, shape=s) for s in shapes for q in cfg.q_grid]


def _constant_q_matrix(shape: QShape, q: float, d: int) -> np.ndarray:
    if shape is QShape.MASKED:
        if d != 5:
            raise ValueError("masked constant-Q shape needs a 5-dimensional state")
        return q * np.diag(WS_Q_MASK)
    return q * np.eye(d)


def _kalman_points(cfg: ExperimentConfig, points: list[GridPoint], datasets: list[Dataset],
                   x: np.ndarray, y: np.ndarray, keep_state: bool) -> Iterator[list[Trace]]:
    """The Kalman cells of :func:`_point_traces`: every (grid point, dataset)
    cell runs in one recursion, with the grid points on a leading filter
    axis; then each point's traces are yielded as views into its blocks."""
    d = x.shape[-1]
    if cfg.method is Method.KALMAN_ORACLE:
        if any(ds.truth is None for ds in datasets):
            raise ValueError("the known-variance oracle needs recorded truth")
        qs = np.zeros((len(x), len(datasets), d, d))
        idx = np.arange(d)
        qs[:, :, idx, idx] = np.stack([ds.truth.q_diag for ds in datasets], axis=1)
        Q = qs[:, None]  # one grid point
        sigma2 = np.stack([ds.truth.sigma2 for ds in datasets], axis=1)
    else:
        Q = np.stack([_constant_q_matrix(point.shape, point.q, d) for point in points])[:, None]
        sigma2 = float(cfg.sigma2_const)
    init = GaussianState(np.zeros(d), cfg.init.p0 * np.eye(d))
    blocks = kalman_run_grid(x, y, transition_for(cfg, d), Q, sigma2, init, keep_state)
    for g in range(len(points)):
        yield kalman_traces(y, sigma2, blocks, g)


def _viking_points(cfg: ExperimentConfig, points: list[GridPoint], datasets: list[Dataset],
                   x: np.ndarray, y: np.ndarray, keep_state: bool) -> Iterator[list[Trace]]:
    """The VIKING cells of :func:`_point_traces`: one :func:`viking_run_batch`
    per grid point (its hyperparameters differ between points), each dataset's
    filter drawing from its own seed's generator."""
    d = x.shape[-1]
    transform = NoiseTransform(cfg.setting, d)
    for point in points:
        fields = {**_viking_fields(cfg), "rho_a": point.rho_a, "rho_b": point.rho_b}
        hyper = VikingHyper(transform, transition_for(cfg, d), n_mc=cfg.n_mc, n_iter=cfg.n_iter, **fields)
        inits = []
        for ds in datasets:
            init = _set_fields(**vars(cfg.init))
            if cfg.experiment is ExperimentKind.RESONATOR and not hyper.learn_b:
                q_known = ds.truth.q_diag[0]
                pinned = q_known if transform.latent_dim > 1 else float(q_known.mean())
                init = {"q0": pinned, "sigma0": 0.0, **init}
            inits.append(default_initial_state(transform, seed=ds.seed, **init))
        yield viking_run_batch(x, y, hyper, inits, keep_state)[0]


def _point_traces(cfg: ExperimentConfig, points: list[GridPoint], datasets: list[Dataset],
                  keep_state: bool) -> Iterator[list[Trace]]:
    """One trace per dataset at each grid point in turn, each the one its cell
    gets alone; ``keep_state`` adds the ``theta``/``cov`` columns. The series
    are stacked once, the datasets on a leading filter axis (see the module
    docstring). A failing cell (a singular matrix, a non-finite input) is
    named here by its dataset's seed and, for VIKING, its grid point."""
    x = np.stack([ds.x for ds in datasets], axis=1)
    y = np.stack([ds.y for ds in datasets], axis=1)
    viking = cfg.method is Method.VIKING
    cells = (_viking_points if viking else _kalman_points)(cfg, points, datasets, x, y, keep_state)
    for point in points:
        try:
            traces = next(cells)
        except (SingularMatrixError, ValueError) as exc:
            if not hasattr(exc, "filter"):
                raise
            label = f"{point.label}, " if viking else ""
            raise type(exc)(f"seed {datasets[exc.filter].seed}, {label}{exc}") from exc
        yield traces


def run_cell(cfg: ExperimentConfig, point: GridPoint, ds: Dataset, seed: int) -> Trace:
    """One (grid point, seed) run over an already generated dataset, with the
    ``theta``/``cov`` columns: the one-cell case of :func:`_point_traces`."""
    return next(_point_traces(cfg, [point], [replace(ds, seed=seed)], keep_state=True))[0]


@dataclass
class SummaryRow:
    method: str
    setting: str
    grid: str
    mean_mse: float
    stderr_mse: float


@dataclass
class ExperimentSummary:
    experiment: str
    rows: list[SummaryRow]
    best: int

    @property
    def best_row(self) -> SummaryRow:
        return self.rows[self.best]


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentSummary:
    """Evaluate every grid point over the configured seeds.

    Every (grid point, seed) cell runs once, through :func:`_point_traces`:
    the Kalman methods run all of them in one recursion of ``n`` steps (for
    the constant-Q grid, a ``(G, 1, d, d)`` stack of Qs over ``(G, B)``
    filters), VIKING one recursion per grid point over its seeds; grid points
    are scored one at a time. When ``out_dir`` is given, per-seed traces of
    the selected grid point (from that same run; only the best point's so far
    are kept) and the grid summary are written under
    ``<out>/<experiment>/<method>-<setting>/``.
    """
    points = grid_points(cfg)
    datasets = [make_dataset(cfg, seed) for seed in cfg.seeds]
    rows: list[SummaryRow] = []
    best, best_traces = 0, []
    for i, (point, traces) in enumerate(zip(points, _point_traces(cfg, points, datasets, keep_state=False))):
        mses = np.array([mse_second_half(trace) for trace in traces])
        rows.append(SummaryRow(cfg.method.value, cfg.setting.value, point.label,
                               float(mses.mean()), _stderr(mses)))
        if i == 0 or rows[i].mean_mse < rows[best].mean_mse:
            best, best_traces = i, traces
    summary = ExperimentSummary(cfg.experiment.value, rows, best)
    if out_dir is not None:
        cell_dir = Path(out_dir) / cfg.experiment.value / f"{cfg.method.value}-{cfg.setting.value}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        for seed, trace in zip(cfg.seeds, best_traces):
            write_trace_csv(trace, cell_dir / f"seed{seed}.csv")
        write_summary_csv(summary, cell_dir / "summary.csv")
    return summary


def write_summary_csv(summary: ExperimentSummary, path: str | Path) -> None:
    write_lines(path, ["method,setting,grid,mean_mse,stderr_mse"] + [
        ",".join([row.method, row.setting, row.grid, fmt(row.mean_mse), fmt(row.stderr_mse)])
        for row in summary.rows])


def sweep_nmc(cfg: ExperimentConfig, nmc_list: list[int],
              out_dir: str | Path | None = None) -> list[tuple[int, float, float]]:
    """Mean MSE per Monte-Carlo sample count, scaled by the ``n_mc = 1`` entry.

    Ratios are ratios of seed-averaged MSEs, so the ``n_mc = 1`` row is 1 by
    construction; it must be present in ``nmc_list``.
    """
    if 1 not in nmc_list:
        raise ValueError("nmc_list must contain the normalizer n_mc = 1")
    if cfg.method is not Method.VIKING:
        raise ValueError("the n_mc sweep only applies to the adaptive filter")
    means: dict[int, float] = {}
    for nmc in nmc_list:
        summary = run_experiment(replace(cfg, n_mc=nmc))
        means[nmc] = summary.best_row.mean_mse
    base = means[1]
    rows = [(nmc, means[nmc], means[nmc] / base) for nmc in nmc_list]
    if out_dir is not None:
        sweep_dir = Path(out_dir) / "sweep-nmc"
        sweep_dir.mkdir(parents=True, exist_ok=True)
        write_table(sweep_dir / f"{cfg.experiment.value}-{cfg.setting.value}.csv",
                    ["n_mc", "mean_mse", "ratio"], list(zip(*rows)))
    return rows


def parse_config_file(path: str | Path) -> dict[str, str]:
    """``key = value`` pairs, UTF-8, ``#`` comments; keys normalized to underscores."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values
