"""Command-line interface.

Subcommands: ``simulate`` (dataset to CSV), ``filter`` (dataset CSV plus
config to trace CSV), ``experiment`` (named experiment end to end),
``sweep-nmc``, and ``grid`` (rho grid search). A ``--config`` file supplies
``key = value`` defaults that explicit flags override. Its keys (``-`` and
``_`` are interchangeable; any other is a usage error): experiment, method,
setting, n, seeds, seed, n_mc, n_iter, rho_a, rho_b, learn_a, learn_b, the
initial beliefs a0, s0, q0, sigma0, p0, the constant-variance grid q_grid,
q_shape (masked | full | both; unset, full alone on the resonator and both
elsewhere), sigma2_const, the design's walk_var, and out, data, nmc_list. An
unset key takes the harness default, and a filter key the filter's own. A
flag's value is parsed as its config key's is (:data:`CONFIG_KEYS`), and
every key set is parsed, whether or not the subcommand reads it. Exit codes:
0 on success, 1 on usage errors, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .datagen import read_dataset_csv, write_dataset_csv
from .harness import (
    DEFAULT_RHO_GRID,
    ExperimentConfig,
    ExperimentKind,
    InitOverrides,
    Method,
    QShape,
    Setting,
    grid_points,
    make_dataset,
    parse_config_file,
    run_cell,
    run_experiment,
    sweep_nmc,
)
from .linalg import SingularMatrixError
from .records import write_trace_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="key = value config file; keys: " + ", ".join(CONFIG_KEYS))
    common.add_argument("--seed", type=str, default=None, help="single seed")
    common.add_argument("--seeds", type=str, default=None, help="comma list or a..b range")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--experiment", type=str, default=None,
                        help="resonator | ws-iid | ws-noniid | ms-iid | ms-noniid")
    common.add_argument("--method", type=str, default=None,
                        help="viking | kalman-oracle | kalman-constant")
    common.add_argument("--setting", type=str, default=None, help="scalar | diagonal")
    common.add_argument("--n", type=str, default=None)
    common.add_argument("--n-mc", type=str, default=None)
    common.add_argument("--rho-a", type=str, default=None)
    common.add_argument("--rho-b", type=str, default=None)

    parser = _Parser(prog="viking", description="adaptive state-space forecasting experiments")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("simulate", parents=[common], help="generate a dataset CSV")
    filt = sub.add_parser("filter", parents=[common], help="run a filter over a dataset CSV")
    filt.add_argument("--data", type=str, default=None, help="dataset CSV path")
    sub.add_parser("experiment", parents=[common], help="run a named experiment end to end")
    sweep = sub.add_parser("sweep-nmc", parents=[common], help="Monte-Carlo sample-count sweep")
    sweep.add_argument("--nmc-list", type=str, default=None, help="comma list, must contain 1")
    sub.add_parser("grid", parents=[common], help="rho grid search for the adaptive filter")
    return parser


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_q_shapes(text: str) -> tuple[QShape, ...]:
    return tuple(QShape) if text == "both" else (QShape(text),)


# Every key a config file may set, with its parser.
CONFIG_KEYS = {
    "experiment": ExperimentKind, "method": Method, "setting": Setting,
    **dict.fromkeys(("n", "seed", "n_mc", "n_iter"), int),
    **dict.fromkeys(("rho_a", "rho_b", "a0", "s0", "q0", "sigma0", "p0", "sigma2_const",
                     "walk_var"), float),
    **dict.fromkeys(("learn_a", "learn_b"), _parse_bool),
    "seeds": _parse_seeds, "q_grid": _parse_floats, "q_shape": _parse_q_shapes,
    "out": str, "data": str, "nmc_list": lambda text: [int(v) for v in text.split(",")],
}
# Keys the subcommands read themselves; the rest fill ExperimentConfig or
# InitOverrides fields of the same name (q_shape fills q_shapes).
_COMMAND_KEYS = {"seed", "out", "data", "nmc_list"}
_INIT_FIELDS = {f.name for f in fields(InitOverrides)}


def _options(args: argparse.Namespace) -> dict:
    """Every key the user set, config-file values overridden by explicit
    flags, each parsed by its :data:`CONFIG_KEYS` entry."""
    file = parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(file) - CONFIG_KEYS.keys())
    if unknown:
        raise UsageError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
    flags = {key: raw for key in CONFIG_KEYS if (raw := getattr(args, key, None)) is not None}
    opts = {}
    for key, raw in {**file, **flags}.items():
        try:
            opts[key] = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise UsageError(f"{key}: {exc}") from exc
    # precedence: the --seed flag, then seeds (flag or file), then a file's seed
    if "seed" in flags or ("seeds" not in opts and "seed" in opts):
        opts["seeds"] = (opts["seed"],)
    return opts


def _build_config(opts: dict, *, seeds_default: tuple[int, ...] | None = (1,)) -> ExperimentConfig:
    """Config from the keys the user set; a ``None`` seeds default keeps the config's."""
    given: dict = {"experiment": ExperimentKind.WS_IID, "method": Method.VIKING}
    init: dict = {}
    for key, value in opts.items():
        if key not in _COMMAND_KEYS:
            field = "q_shapes" if key == "q_shape" else key
            (init if field in _INIT_FIELDS else given)[field] = value
    if seeds_default is not None:
        given.setdefault("seeds", seeds_default)
    return ExperimentConfig(**given, init=InitOverrides(**init))


def _out_dir(opts: dict) -> Path:
    out = Path(opts.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(opts: dict) -> int:
    cfg = _build_config(opts)
    out = _out_dir(opts)
    for seed in cfg.seeds:
        ds = make_dataset(cfg, seed)
        path = out / f"{cfg.experiment.value}-seed{seed}.csv"
        write_dataset_csv(ds, path)
        print(path)
    return 0


def _cmd_filter(opts: dict) -> int:
    data = opts.get("data")
    if data is None:
        raise UsageError("filter requires --data <dataset csv>")
    cfg = _build_config(opts)
    ds = read_dataset_csv(data)
    trace = run_cell(cfg, grid_points(cfg)[0], ds, cfg.seeds[0])
    out = _out_dir(opts)
    path = out / f"trace-{cfg.method.value}-{cfg.setting.value}.csv"
    write_trace_csv(trace, path)
    print(path)
    return 0


def _cmd_experiment(opts: dict) -> int:
    cfg = _build_config(opts, seeds_default=None)
    out = _out_dir(opts)
    summary = run_experiment(cfg, out_dir=out)
    row = summary.best_row
    print(f"{summary.experiment} {row.method}-{row.setting} [{row.grid}] "
          f"mse={row.mean_mse:.6g} stderr={row.stderr_mse:.3g}")
    return 0


def _cmd_sweep_nmc(opts: dict) -> int:
    cfg = _build_config(opts, seeds_default=None)
    nmc_list = opts.get("nmc_list", [1, 2, 5, 10, 20])
    out = _out_dir(opts)
    rows = sweep_nmc(cfg, nmc_list, out_dir=out)
    for nmc, mean, ratio in rows:
        print(f"n_mc={nmc} mse={mean:.6g} ratio={ratio:.4g}")
    return 0


def _cmd_grid(opts: dict) -> int:
    cfg = _build_config(opts, seeds_default=tuple(range(1, 11)))
    if cfg.method is not Method.VIKING:
        raise UsageError("grid search applies to the adaptive filter only")
    if cfg.rho_a is None:
        cfg.rho_a = DEFAULT_RHO_GRID
    if cfg.rho_b is None:
        cfg.rho_b = DEFAULT_RHO_GRID
    out = _out_dir(opts)
    summary = run_experiment(cfg, out_dir=out)
    row = summary.best_row
    print(f"best [{row.grid}] mse={row.mean_mse:.6g} stderr={row.stderr_mse:.3g}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "filter": _cmd_filter,
    "experiment": _cmd_experiment,
    "sweep-nmc": _cmd_sweep_nmc,
    "grid": _cmd_grid,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand")
        return _COMMANDS[args.command](_options(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SingularMatrixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
