"""Start-up: runs that factor no matrix load no scipy module.

scipy's LAPACK routines are bound at the first factorization
(``viking.linalg``), so importing the package, the command line's argument
handling, ``simulate`` and the Kalman methods start in numpy's time. The
binding loads scipy's LAPACK extension by file, never the ``scipy.linalg``
package. Each check runs in a fresh child interpreter, because the suite
itself has loaded scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import viking

SRC = str(Path(viking.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

# runs ``python -m viking`` with the given arguments, then prints its exit
# code and the scipy modules it loaded as one JSON line
_RUN_CLI = """
import json, runpy, sys
sys.argv = ["viking", *sys.argv[1:]]
try:
    runpy.run_module("viking", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _child(code: str, *args: str, cwd: Path | None = None) -> dict:
    """Run ``code`` in a fresh interpreter that imports ``viking`` from this
    checkout; its last line of standard output, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_and_its_cli_loads_no_scipy_module():
    loaded = _child("import json, sys, viking, viking.cli\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert loaded == []


@pytest.mark.parametrize("args", [
    ["--help"],
    ["simulate", "--experiment", "ms-noniid", "--n", "40", "--seed", "2", "--out", "sim"],
    ["experiment", "--experiment", "ms-noniid", "--method", "kalman-constant", "--seeds", "1,2",
     "--n", "60", "--out", "exp"],
], ids=["help", "simulate", "kalman-constant"])
def test_runs_that_factor_no_matrix_load_no_scipy_module(args, tmp_path):
    assert _child(_RUN_CLI, *args, cwd=tmp_path) == {"code": 0, "scipy": []}


def test_a_viking_run_binds_lapack_at_its_first_factorization(tmp_path):
    args = ["experiment", "--experiment", "ms-noniid", "--method", "viking", "--seeds", "1", "--n", "20",
            "--out", "exp"]
    out = _child(_RUN_CLI, *args, cwd=tmp_path)
    assert out["code"] == 0 and "scipy.linalg._flapack" in out["scipy"] and "scipy.linalg" not in out["scipy"]


def test_a_later_scipy_linalg_import_adopts_the_bound_routines():
    out = _child("""
import json
import numpy as np
import viking.linalg as L
L.spd_inv(np.eye(2))
import scipy.linalg
print(json.dumps([scipy.linalg.lapack.dpotrf is L.dpotrf, scipy.linalg.lapack.dtrtri is L.dtrtri,
                  scipy.linalg.lapack.dpotrs is L.dpotrs]))
""")
    assert out == [True, True, True]


def test_binding_reuses_the_extension_scipy_linalg_loaded_first():
    out = _child("""
import json, sys
import scipy.linalg
flapack = sys.modules["scipy.linalg._flapack"]
import viking.linalg as L
loads = []
L.module_from_spec = loads.append
L.dpotrf
print(json.dumps([loads, sys.modules["scipy.linalg._flapack"] is flapack, L.dpotrf is flapack.dpotrf,
                  L.dtrtri is scipy.linalg.lapack.dtrtri]))
""")
    assert out == [[], True, True, True]


def test_scipy_works_after_the_extension_is_loaded_alone():
    out = _child("""
import json
import numpy as np
import viking.linalg as L
m = np.array([[4.0, 1.0], [1.0, 3.0]])
L.spd_factor(m)
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
x = cho_solve(cho_factor(m), np.ones(2))
print(json.dumps([bool(np.allclose(m @ x, 1.0)), bool(np.isclose(quad(np.cos, 0.0, np.pi / 2)[0], 1.0))]))
""")
    assert out == [True, True]


def test_psi_value_loads_no_scipy_linalg():
    out = _child("""
import json, sys
import numpy as np
import viking
value = viking.psi_value(viking.NoiseTransform.diagonal(2), np.ones(2), np.eye(2), np.eye(2))
print(json.dumps(["scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules, bool(np.isfinite(value))]))
""")
    assert out == [False, True, True]


def test_lapack_routines_are_module_attributes_before_any_factorization():
    # read before anything is factored, then replaced: spd_inv and
    # spd_factor call the replacement, and the real routine's bits come back
    out = _child("""
import json, sys
import numpy as np
import viking.linalg as L
before = [m for m in sys.modules if m.split(".")[0] == "scipy"]
potrf, trtri = L.dpotrf, L.dtrtri
from scipy.linalg.lapack import dpotrf, dtrtri
calls = []
def counted(*args, **kwargs):
    calls.append(1)
    return potrf(*args, **kwargs)
L.dpotrf = counted
m = np.array([[4.0, 1.0], [1.0, 3.0]])
inv = L.spd_inv(m)
L.spd_factor(m)
print(json.dumps({"before": before, "same": [potrf is dpotrf, trtri is dtrtri],
                  "calls": len(calls), "inverse": bool(np.allclose(inv @ m, np.eye(2)))}))
""")
    assert out == {"before": [], "same": [True, True], "calls": 2, "inverse": True}


def test_collecting_the_acceptance_suite_loads_lapack_before_c01_times_itself():
    # c01 holds a 1 s wall-clock bound and is the acceptance suite's first
    # factorization; the suite's oracles load scipy (through scipy.integrate)
    # at collection, so binding LAPACK inside c01 costs no import
    out = _child("import json, sys, oracles\nprint(json.dumps('scipy.linalg.lapack' in sys.modules))")
    assert out is True


def test_a_missing_extension_raises_import_error_naming_the_path(tmp_path):
    out = _child("""
import json, sys
import scipy
import viking.linalg as L
scipy.__path__ = [sys.argv[1]]
try:
    L.dpotrf
    print(json.dumps(None))
except ImportError as exc:
    print(json.dumps([exc.path, str(exc)]))
""", str(tmp_path))
    path = str(tmp_path / "linalg")
    assert out == [path, f"no scipy.linalg._flapack extension in {path}"]
