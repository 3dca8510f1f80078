"""Outside-in tracing of the ``viking`` layers.

Spans are recorded by wrapper functions installed on the module attributes
through which each layer calls the next (the binding in the *calling*
module), so nothing under ``src/`` is edited. Every span keeps its name,
start, end, parent span and the id of the unit of work it belongs to (a
harness cell or an online step); spans live in flat arrays in memory and are
written out once, after the measured work.

Python call counts per step come from ``sys.setprofile`` over a short slice,
with no wrappers installed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

# (module, attribute, span name). The module is the caller's namespace.
WRAP_TARGETS = (
    ("viking.harness", "make_dataset", "harness.make_dataset"),
    ("viking.harness", "run_cell", "harness.run_cell"),
    ("viking.harness", "write_summary_csv", "harness.write_summary_csv"),
    ("viking.harness", "write_trace_csv", "records.write_trace_csv"),
    ("viking.harness", "gen_design", "datagen.gen_design"),
    ("viking.harness", "gen_misspecified", "datagen.gen_misspecified"),
    ("viking.harness", "gen_wellspecified", "datagen.gen_wellspecified"),
    ("viking", "gen_wellspecified", "datagen.gen_wellspecified"),
    ("viking", "viking_step", "vb.viking_step"),
    ("viking.vb", "viking_step", "vb.viking_step"),
    ("viking.vb", "estimate_precision", "vb.estimate_precision"),
    ("viking.vb", "sample_noise_latents", "vb.sample_noise_latents"),
    ("viking.vb", "update_state_moments", "vb.update_state_moments"),
    ("viking.vb", "update_s", "vb.update_s"),
    ("viking.vb", "update_a", "vb.update_a"),
    ("viking.vb", "update_b", "vb.update_b"),
    ("viking.vb", "psi_gradient_hessian_bound", "transforms.psi_gradient_hessian_bound"),
    ("viking.vb", "spd_inv", "linalg.spd_inv"),
    ("viking.vb", "spd_inv_batch", "linalg.spd_inv_batch"),
    ("viking.vb", "rank_one_update", "kalman.rank_one_update"),
    ("viking.transforms", "spd_inv", "linalg.spd_inv"),
    ("viking.linalg", "spd_inv", "linalg.spd_inv"),
    ("viking.kalman", "kalman_step", "kalman.kalman_step"),
    ("viking.kalman", "rank_one_update", "kalman.rank_one_update"),
)

ROOT = "bench.pass"


class Tracer:
    """In-memory span store. ``unit`` names the span that starts a new unit id."""

    def __init__(self, unit: str):
        self.unit = unit
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit_id = array("i")
        self._stack = [-1]
        self._unit = -1
        self._units = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, is_unit: bool) -> int:
        idx = len(self.start)
        if is_unit:
            self._unit = self._units
            self._units += 1
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.unit_id.append(self._unit)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        is_unit = name == self.unit
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid, is_unit)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name), name == self.unit)
        try:
            yield
        finally:
            self._close(idx)

    def __len__(self) -> int:
        return len(self.start)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,unit\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.unit_id[i]}\n")


@contextmanager
def installed(tracer: Tracer, targets=WRAP_TARGETS):
    """Rebind every present target to a tracing wrapper; restore on exit."""
    saved: list[tuple[ModuleType, str, object]] = []
    try:
        for mod_name, attr, span_name in targets:
            module = sys.modules.get(mod_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span_name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanStats:
    """Per-name count, total duration and total self time (ns)."""

    def __init__(self, tracer: Tracer):
        n = len(tracer)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(tracer.names)
        self.count = [0] * k
        self.total = [0] * k
        self.self_total = [0] * k
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        for i in range(n):
            nid = tracer.name[i]
            self.count[nid] += 1
            self.total[nid] += dur[i]
            self.self_total[nid] += dur[i] - child[i]
        self._nested = {}
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                key = (tracer.names[tracer.name[i]], tracer.names[tracer.name[p]])
                self._nested[key] = self._nested.get(key, 0) + 1

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.count[nid]

    def total_ns(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.total[nid]

    def self_ns(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.self_total[nid]

    def mean_us(self, name: str, self_time: bool = False) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        return (self.self_ns(name) if self_time else self.total_ns(name)) / calls / 1e3

    def nested_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        return self._nested.get((child, parent), 0)


def count_python_calls(fn, codes) -> dict:
    """Run ``fn()`` and count Python-level calls made inside frames of each code object.

    Returns ``{code: (entries, calls)}``: how often ``code`` was entered and
    how many Python function calls happened while it was on the stack (each
    entry counting itself). The code objects must not call each other.
    """
    counts = {code: [0, 0] for code in codes}
    depth = 0
    current = None

    def profile(frame, event, arg):
        nonlocal depth, current
        if event == "call":
            if depth:
                depth += 1
                current[1] += 1
            elif frame.f_code in counts:
                current = counts[frame.f_code]
                depth = 1
                current[0] += 1
                current[1] += 1
        elif event == "return" and depth:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return {code: tuple(c) for code, c in counts.items()}
