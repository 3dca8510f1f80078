"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of the repository with::

    python -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "GRID_N", 40)
    monkeypatch.setattr(workloads, "GRID_GROUPS", 2)
    monkeypatch.setattr(workloads, "GROUP_SEEDS", 1)
    monkeypatch.setattr(workloads, "ONLINE_N", 60)
    monkeypatch.setattr(workloads, "SLICE_STEPS", 10)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(sys, "pycache_prefix", sys.pycache_prefix)


def _viking_attrs() -> dict:
    mods = [m for name, m in sorted(sys.modules.items()) if name == "viking" or name.startswith("viking.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_spec_matches_the_metrics_the_runner_prints():
    assert SPEC["command"][1] == "bench/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace, tiny, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert list(result["metrics"]) == list(units)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif name != "ms-noniid-kalman-grid":
        assert result["metrics"]["linalg.inversions_per_step"]["value"] == workloads.N_ITER * (workloads.N_MC + 4)


def test_wrappers_restore_every_attribute(tiny, tmp_path):
    before = _viking_attrs()
    tracer = tracing.Tracer("harness.run_cell")
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            changed = [key for key, v in _viking_attrs().items() if before[key] is not v]
            assert {mod for mod, _ in changed} == {"viking", "viking.harness", "viking.vb",
                                                   "viking.transforms", "viking.linalg", "viking.kalman"}
            raise RuntimeError("leave the block by an exception")
    after = _viking_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_leaves_outputs_bit_identical(name, tiny, tmp_path):
    wl = workloads.WORKLOADS[name](5, tmp_path)
    wl.setup()
    plain = wl.run_pass(0)
    tracer = tracing.Tracer(wl.unit_span)
    with tracing.installed(tracer):
        traced = wl.run_pass(0)
    assert len(tracer) > 0
    assert traced.mean_mse == plain.mean_mse
    assert traced.fingerprint == plain.fingerprint


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("outer")
    tracer.name_id("outer")
    tracer.name_id("inner")
    # outer [0, 100] holds inner [10, 30] and inner [50, 90]
    for nid, start, end, parent in ((0, 0, 100, -1), (1, 10, 30, 0), (1, 50, 90, 0)):
        tracer.name.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.unit_id.append(0)
    st = tracing.SpanStats(tracer)
    assert st.total_ns("outer") == 100 and st.self_ns("outer") == 40
    assert st.calls("inner") == 2 and st.self_ns("inner") == 60
    assert st.nested_calls("inner", "outer") == 2


def test_python_call_counts_are_exact():
    def leaf():
        return 1

    def step():
        return leaf() + leaf()

    def other():
        return leaf()

    def outer():
        for _ in range(4):
            step()
        other()

    counts = tracing.count_python_calls(outer, (step.__code__,))
    assert counts[step.__code__] == (4, 12)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "online-d20", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
