"""Exact bytes of every CSV writer, on two-row inputs whose values need all
17 significant digits (0.1 + 0.2, 1/3), a tiny negative value and -0.0."""

import numpy as np

from viking.datagen import Dataset, Truth, read_dataset_csv, write_dataset_csv
from viking.harness import ExperimentSummary, SummaryRow, write_summary_csv
from viking.records import Trace, write_trace_csv

A, B, C, Z = 0.1 + 0.2, 1 / 3, -2.5e-300, -0.0
X = np.array([[A, B], [C, Z]])
Y = np.array([B, A])


def col(*values):
    return np.array(values, dtype=float)


def test_dataset_with_truth_and_mix_bytes(tmp_path):
    truth = Truth(col(A, 1.0), np.array([[Z, B], [C, 2.0]]), mix=np.array([1, 0]))
    path = tmp_path / "data.csv"
    write_dataset_csv(Dataset(X, Y, 0, truth=truth), path)
    assert path.read_text() == (
        "t,x1,x2,y,sigma2,q1,q2,i\n"
        "0,0.30000000000000004,0.33333333333333331,0.33333333333333331,0.30000000000000004,-0,"
        "0.33333333333333331,1\n"
        "1,-2.5e-300,-0,0.30000000000000004,1,-2.5e-300,2,0\n")


def test_dataset_without_truth_bytes_and_readback(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset_csv(Dataset(X, Y, 0), path)
    assert path.read_text() == (
        "t,x1,x2,y\n"
        "0,0.30000000000000004,0.33333333333333331,0.33333333333333331\n"
        "1,-2.5e-300,-0,0.30000000000000004\n")
    back = read_dataset_csv(path)
    assert back.truth is None
    assert back.x.tobytes() == X.tobytes() and back.y.tobytes() == Y.tobytes()
    assert back.x.flags.c_contiguous and back.y.flags.c_contiguous


def test_trace_with_latents_bytes(tmp_path):
    trace = Trace(np.arange(2), Y, col(A, C), col(B, 1e300), col(Z, A), col(-B, 0.0), col(1e-5, B),
                  col(A, 2.0), np.array([[A, C], [B, Z]]), np.array([[1e-17, B], [A, 3.0]]), col(0.0, A))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_text() == (
        "t,y,forecast,forecast_var,residual,a_hat,s,sigma2_eff,b1,b2,Sigma1,Sigma2,cum_sq_err\n"
        "0,0.33333333333333331,0.30000000000000004,0.33333333333333331,-0,-0.33333333333333331,"
        "1.0000000000000001e-05,0.30000000000000004,0.30000000000000004,-2.5e-300,"
        "1.0000000000000001e-17,0.33333333333333331,0\n"
        "1,0.30000000000000004,-2.5e-300,1.0000000000000001e+300,0.30000000000000004,0,"
        "0.33333333333333331,2,0.33333333333333331,-0,0.30000000000000004,3,0.30000000000000004\n")


def test_kalman_trace_without_latents_bytes(tmp_path):
    trace = Trace(np.arange(2), Y, col(A, C), col(B, 1e300), col(Z, A), col(0.0, -B), col(0.0, 0.0),
                  col(1.0, A), None, None, col(Z, B))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_text() == (
        "t,y,forecast,forecast_var,residual,a_hat,s,sigma2_eff,cum_sq_err\n"
        "0,0.33333333333333331,0.30000000000000004,0.33333333333333331,-0,0,0,1,-0\n"
        "1,0.30000000000000004,-2.5e-300,1.0000000000000001e+300,0.30000000000000004,"
        "-0.33333333333333331,0,0.30000000000000004,0.33333333333333331\n")


def test_summary_bytes(tmp_path):
    rows = [SummaryRow("viking", "diagonal", "rho_a=0.000123,rho_b=0.00248", A, B),
            SummaryRow("viking", "diagonal", "rho_a=1,rho_b=0", C, Z)]
    path = tmp_path / "summary.csv"
    write_summary_csv(ExperimentSummary("ws-iid", rows, 0), path)
    assert path.read_text() == (
        "method,setting,grid,mean_mse,stderr_mse\n"
        "viking,diagonal,rho_a=0.000123,rho_b=0.00248,0.30000000000000004,0.33333333333333331\n"
        "viking,diagonal,rho_a=1,rho_b=0,-2.5e-300,-0\n")
