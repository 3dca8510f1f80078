"""Benchmark runner for the ``viking`` package.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload ms-noniid-viking --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

One run sets the workload up, repeats fixed passes of it until ``--seconds``
of measured work have passed, checks every pass's outputs, and prints the
metrics by name with their units. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from a separate traced pass) with ``--trace 1``. ``--workload all`` runs
every workload in its own process and prints a table.

End-to-end timings are put on a reference time scale: each pass is bracketed
by a fixed reference kernel, and its times are multiplied by ``REF_SECONDS``
over the kernel's time around it, which takes out the drift of a shared
machine's speed (see ``bench/README.md``). BLAS and OpenMP threads are pinned
to 1 before numpy is imported. Byte code, experiment outputs and span files go
under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORKLOAD_NAMES = ("ms-noniid-viking", "ms-noniid-kalman-grid", "online-d20")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "mean_mse": "y2",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "harness.make_dataset.ms": "ms",
    "harness.run_cell.calls_per_cell": "ratio",
    "harness.run_cell.self_us_per_step": "us",
    "datagen.gen_design.ms": "ms",
    "datagen.gen_misspecified.ms": "ms",
    "datagen.gen_wellspecified.ms": "ms",
    "vb.viking_step.us": "us",
    "vb.viking_step.self_us": "us",
    "vb.estimate_precision.us": "us",
    "vb.estimate_precision.self_us": "us",
    "vb.sample_noise_latents.us": "us",
    "vb.update_state_moments.us": "us",
    "vb.update_s.us": "us",
    "vb.update_a.us": "us",
    "vb.update_b.us": "us",
    "transforms.psi_gradient_hessian_bound.us": "us",
    "linalg.spd_inv.us": "us",
    "linalg.spd_inv.calls_per_step": "calls/step",
    "linalg.spd_inv_batch.us": "us",
    "linalg.spd_inv_batch.calls_per_step": "calls/step",
    "linalg.inversions_per_step": "count/step",
    "linalg.spd_inv_batch.fallbacks": "count",
    "kalman.kalman_step.us": "us",
    "kalman.kalman_step.self_us": "us",
    "kalman.rank_one_update.us": "us",
    "vb.py_calls_per_step": "calls/step",
    "kalman.py_calls_per_step": "calls/step",
    "records.write_trace_csv.ms": "ms",
    "records.bytes_written": "B/pass",
    "trace.overhead_frac": "ratio",
}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Make ``src/viking`` importable; byte code goes under ``.bench_build``."""
    sys.pycache_prefix = str(BUILD / "pycache")
    if not (ROOT / "src" / "viking" / "__init__.py").is_file():
        raise SystemExit(f"bench: no viking sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import viking
    return viking


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """0.99, lowered so that at least 10 of ``n`` samples lie beyond it; the median at least."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, generate inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    """Attempted units and failures (errors plus failed checks) over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, res, errors: list[str]) -> None:
        self.attempted += res.units
        self.failed += res.failed_units + len(errors)
        self.messages += res.errors + errors

    def note(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def result(self, metrics: dict) -> dict:
        failed = min(self.failed, self.attempted)
        return {"correct": failed == 0, "attempted": self.attempted,
                "failed": failed, "metrics": metrics}


def measured_passes(wl, seconds: float, tally: Tally) -> list:
    """Cycle through the workload's groups until each ran once and ``seconds`` were measured.

    The reference kernel runs before the first pass and after every pass; a
    pass's ``scale`` is ``REF_SECONDS`` over the mean of the two around it.
    """
    from workloads import REF_SECONDS, Reference

    ref = Reference()
    ref.seconds()  # warm-up
    before = ref.seconds()
    passes = []
    first_of: dict[int, object] = {}
    while len(passes) < wl.groups or sum(p.wall_s for p in passes) < seconds:
        group = len(passes) % wl.groups
        res = wl.run_pass(group)
        after = ref.seconds()
        res.scale = REF_SECONDS / (0.5 * (before + after))
        before = after
        tally.add(res, wl.check(res, first=group not in first_of))
        if group in first_of and res.fingerprint != first_of[group].fingerprint:
            tally.note(f"pass {len(passes)} outputs differ from the first pass of group {group}")
        first_of.setdefault(group, res)
        res.records = []  # checked; keep peak memory to one pass
        passes.append(res)
    return passes


def end_to_end(wl, args, tally: Tally) -> tuple[dict, dict]:
    """Timings are on the reference time scale; the caller's raw clock readings go to ``info``."""
    setup_times = measure_setup(wl.name, args.seed)
    wl.setup()
    passes = measured_passes(wl, args.seconds, tally)
    steps = sum(p.steps for p in passes)
    wall = sum(p.wall_s for p in passes)
    scaled_wall = sum(p.wall_s * p.scale for p in passes)
    # a harness call exposes no per-step latency; its only sample is the mean time per useful step
    raw = [v for p in passes for v in p.latencies_us] or [1e6 * wall / steps]
    scaled = [v * p.scale for p in passes for v in p.latencies_us] or [1e6 * scaled_wall / steps]
    tail = tail_quantile(len(scaled))
    per_group = {}
    for p in passes:
        per_group.setdefault(p.group, p.mean_mse)
    values = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": steps / scaled_wall,
        "step_p50_us": nearest_rank(scaled, 0.50),
        "step_p99_us": nearest_rank(scaled, tail),
        "mean_mse": statistics.fmean(per_group[g] for g in sorted(per_group)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes), "latency_samples": len(scaled), "setup_samples": len(setup_times),
            "tail_quantile": tail, "scale": [round(p.scale, 4) for p in passes],
            "raw_steps_per_s": steps / wall, "raw_step_p50_us": nearest_rank(raw, 0.50),
            "raw_step_p99_us": nearest_rank(raw, tail)}
    return values, info


def per_layer(wl, args, tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced passes of group 0, alternated twice; the faster of each pair counts."""
    import viking
    from tracing import ROOT as ROOT_SPAN, SpanStats, Tracer, count_python_calls, installed

    wl.setup()
    plain, traced = [], []
    for _ in range(2):
        res = wl.run_pass(0)
        tally.add(res, wl.check(res, first=not plain))
        plain.append(res)
        tracer = Tracer(wl.unit_span)
        with installed(tracer):
            wl.regenerate_inputs()
            with tracer.span(ROOT_SPAN):
                res = wl.run_pass(0)
        tally.add(res, wl.check(res, first=False))
        traced.append((res, tracer))
    if any(res.fingerprint != plain[0].fingerprint for res in plain + [r for r, _ in traced]):
        tally.note("traced and untraced passes give different outputs")
    best_plain = min(p.wall_s for p in plain)
    res, tracer = min(traced, key=lambda rt: rt[0].wall_s)

    codes = {"vb": viking.vb.viking_step.__code__, "kalman": viking.kalman.kalman_step.__code__}
    py_calls = count_python_calls(wl.slice_fn(), tuple(codes.values()))

    st = SpanStats(tracer)
    vb_steps = st.calls("vb.viking_step")
    kalman_steps = st.calls("kalman.kalman_step")

    def per(num, den):
        return num / den if den else 0.0

    values = {
        "harness.make_dataset.ms": st.mean_us("harness.make_dataset") / 1e3,
        "harness.run_cell.calls_per_cell": (per(st.calls("harness.run_cell"), res.units)
                                            if wl.unit_span == "harness.run_cell" else 0.0),
        "harness.run_cell.self_us_per_step": per(st.self_ns("harness.run_cell") / 1e3,
                                                 vb_steps + kalman_steps),
        "datagen.gen_design.ms": st.mean_us("datagen.gen_design") / 1e3,
        "datagen.gen_misspecified.ms": st.mean_us("datagen.gen_misspecified") / 1e3,
        "datagen.gen_wellspecified.ms": st.mean_us("datagen.gen_wellspecified") / 1e3,
        "linalg.spd_inv.calls_per_step": per(st.calls("linalg.spd_inv"), vb_steps),
        "linalg.spd_inv_batch.calls_per_step": per(st.calls("linalg.spd_inv_batch"), vb_steps),
        "linalg.inversions_per_step": per(res.inversions, vb_steps),
        "linalg.spd_inv_batch.fallbacks": st.nested_calls("linalg.spd_inv", "linalg.spd_inv_batch"),
        "vb.py_calls_per_step": per(py_calls[codes["vb"]][1], py_calls[codes["vb"]][0]),
        "kalman.py_calls_per_step": per(py_calls[codes["kalman"]][1], py_calls[codes["kalman"]][0]),
        "records.write_trace_csv.ms": st.mean_us("records.write_trace_csv") / 1e3,
        "records.bytes_written": res.bytes_written,
        "trace.overhead_frac": res.wall_s / best_plain - 1.0,
    }
    for key in PER_LAYER_UNITS:
        if key not in values:
            name, _, kind = key.rpartition(".")
            values[key] = st.mean_us(name, self_time=kind == "self_us")
    spans_path = BUILD / "spans" / f"{wl.name}-seed{args.seed}.csv"
    tracer.write_csv(spans_path)
    info = {"spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT)),
            "vb_steps": vb_steps, "kalman_steps": kalman_steps,
            "untraced_s": [p.wall_s for p in plain], "traced_s": [r.wall_s for r, _ in traced]}
    return {key: values[key] for key in PER_LAYER_UNITS}, info


def run_one(args) -> int:
    pin_threads()
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    work_dir = BUILD / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if args.setup_only:
            wl.setup()
            return 0
        tally = Tally()
        if args.trace:
            values, info = per_layer(wl, args, tally)
            units = PER_LAYER_UNITS
        else:
            values, info = end_to_end(wl, args, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("info " + json.dumps(info, sort_keys=True))
    for message in tally.messages:
        print(f"check failed: {message}")
    for key, value in values.items():
        print(f"  {key:<44} {value!r:>24} {units[key]}")
    result = tally.result({k: {"value": float(v), "unit": units[k]} for k, v in values.items()})
    print(f"  {'failed_frac':<44} {result['failed'] / result['attempted']!r:>24} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table of all metrics."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT_S).stdout
        rows[name] = json.loads(out.strip().splitlines()[-1])
    metrics = list(rows[WORKLOAD_NAMES[0]]["metrics"])
    width = max(len(m) for m in metrics + ["failed_frac"])
    print(f"{'metric':<{width}} {'unit':<10} " + " ".join(f"{n:>22}" for n in WORKLOAD_NAMES))
    for m in metrics:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][m]["unit"]
        cells = " ".join(f"{rows[n]['metrics'][m]['value']:>22.6g}" for n in WORKLOAD_NAMES)
        print(f"{m:<{width}} {unit:<10} {cells}")
    fracs = " ".join(f"{rows[n]['failed'] / rows[n]['attempted']:>22.6g}" for n in WORKLOAD_NAMES)
    print(f"{'failed_frac':<{width}} {'1':<10} {fracs}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
