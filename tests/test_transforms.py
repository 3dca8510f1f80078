import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from viking import (
    NoiseTransform,
    SingularMatrixError,
    apply_f,
    phi,
    phi_d1,
    phi_d2,
    psi_gradient,
    psi_gradient_hessian_bound,
    psi_hessian_bound,
    psi_value,
)
from viking.linalg import spd_inv
from viking.transforms import expansion_point
from oracles import central_diff_gradient, central_diff_hessian, rand_spd

E = math.e

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("b, expected", [(-2.0, 0.0), (0.0, 0.0), (E - 1.0, 1.0)])
def test_phi_values(b, expected):
    assert phi(b) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("b, d1, d2", [
    (1.0, 0.5, -0.25),
    (-1.0, 0.0, 0.0),
    (0.0, 1.0, -1.0),  # right limits at the kink
])
def test_phi_derivatives(b, d1, d2):
    assert phi_d1(b) == pytest.approx(d1)
    assert phi_d2(b) == pytest.approx(d2)


@given(finite_floats, finite_floats)
def test_phi_monotone_and_dominated(b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    assert phi(lo) <= phi(hi)
    assert phi(hi) >= 0.0
    if hi >= 0.0:
        assert phi(hi) <= hi


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
def test_phi_concave_on_active_branch(b1, b2):
    mid = 0.5 * (b1 + b2)
    assert phi(mid) >= 0.5 * (phi(b1) + phi(b2)) - 1e-12


def test_apply_f_scalar_identity():
    t = NoiseTransform.scalar(3)
    np.testing.assert_allclose(apply_f(t, np.array([E - 1.0])), np.eye(3), atol=1e-15)


def test_apply_f_diagonal_cases():
    t = NoiseTransform.diagonal(2)
    np.testing.assert_allclose(apply_f(t, np.array([-1.0, 0.0])), np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(
        apply_f(t, np.array([E - 1.0, E ** 2 - 1.0])), np.diag([1.0, 2.0]), atol=1e-14
    )


def test_apply_f_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_f(NoiseTransform.scalar(3), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        apply_f(NoiseTransform.diagonal(3), np.array([1.0, 2.0]))


def test_apply_f_monotone_psd():
    rng = np.random.default_rng(5)
    t = NoiseTransform.diagonal(4)
    for _ in range(50):
        b1 = rng.uniform(-1.0, 3.0, size=4)
        b2 = b1 + rng.uniform(0.0, 2.0, size=4)
        f1, f2 = apply_f(t, b1), apply_f(t, b2)
        assert np.all(np.diag(f1) >= 0.0)
        assert np.all(np.diag(f2) - np.diag(f1) >= 0.0)
        assert np.count_nonzero(f1 - np.diag(np.diag(f1))) == 0


def test_psi_value_examples():
    ts = NoiseTransform.scalar(1)
    assert psi_value(ts, np.array([E - 1.0]), np.array([[1.0]]), np.array([[0.0]])) == pytest.approx(1.0)
    assert psi_value(ts, np.array([-1.0]), np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(1.0)


def test_psi_value_scalar_minimized_at_c_equals_B():
    # in one dimension the objective is log c + B/c, minimized at c = B
    ts = NoiseTransform.scalar(1)
    B = 1.7
    KPK = np.array([[0.0]])

    def val(c):
        return psi_value(ts, np.array([math.exp(c) - 1.0]), np.array([[B]]), KPK)

    cs = np.linspace(0.2, 5.0, 200)
    vals = [val(c) for c in cs]
    assert val(B) <= min(vals) + 1e-12


def test_psi_value_singular_raises():
    ts = NoiseTransform.scalar(2)
    with pytest.raises(SingularMatrixError):
        psi_value(ts, np.array([-1.0]), np.eye(2), np.zeros((2, 2)))


def test_psi_gradient_examples():
    ts = NoiseTransform.scalar(1)
    b_stat = np.array([math.expm1(0.3)])
    g = psi_gradient(ts, b_stat, np.array([[1.0]]), np.array([[1.0]]))
    assert g[0] == pytest.approx(0.0, abs=1e-14)
    b_half = np.array([1.0])  # phi'(1) = 0.5
    g = psi_gradient(ts, b_half, np.array([[2.0]]), np.array([[1.0]]))
    assert g[0] == pytest.approx(-0.5)
    td = NoiseTransform.diagonal(2)
    g = psi_gradient(td, np.array([E - 1.0, E - 1.0]), np.diag([1.0, 3.0]), np.eye(2))
    np.testing.assert_allclose(g, [0.0, -2.0 / E], atol=1e-14)


def _random_instance(rng, d, kind):
    transform = NoiseTransform.scalar(d) if kind == "scalar" else NoiseTransform.diagonal(d)
    b = rng.uniform(0.1, 2.0, size=transform.latent_dim) + 0.1
    KPK = rand_spd(rng, d, ridge=0.3)
    B = rand_spd(rng, d, ridge=0.2)
    C = KPK + apply_f(transform, b)
    return transform, b, B, KPK, C


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("kind", ["scalar", "diagonal"])
def test_psi_gradient_matches_finite_differences(d, kind):
    rng = np.random.default_rng(100 + d)
    for _ in range(30):
        transform, b, B, KPK, C = _random_instance(rng, d, kind)
        grad = psi_gradient(transform, b, B, C)
        fd = central_diff_gradient(lambda bb: psi_value(transform, bb, B, KPK), b, h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)


def test_psi_hessian_bound_examples():
    ts = NoiseTransform.scalar(1)
    H = psi_hessian_bound(ts, np.array([E - 1.0]), np.array([[1.0]]), np.array([[1.0]]))
    assert H[0, 0] == pytest.approx(3.0 / E ** 2)
    H0 = psi_hessian_bound(ts, np.array([E - 1.0]), np.array([[0.0]]), np.array([[1.0]]))
    assert H0[0, 0] == pytest.approx(0.0, abs=1e-15)
    td = NoiseTransform.diagonal(2)
    H = psi_hessian_bound(td, np.array([E - 1.0, E - 1.0]), np.eye(2), np.eye(2))
    np.testing.assert_allclose(H, np.diag([3.0 / E ** 2, 3.0 / E ** 2]), atol=1e-14)


def test_psi_hessian_bound_requires_positive_latent():
    ts = NoiseTransform.scalar(2)
    with pytest.raises(ValueError):
        psi_hessian_bound(ts, np.array([0.0]), np.eye(2), np.eye(2))


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("kind", ["scalar", "diagonal"])
def test_psi_hessian_bound_dominates(d, kind):
    rng = np.random.default_rng(200 + d)
    for _ in range(20):
        transform, b, B, KPK, C = _random_instance(rng, d, kind)
        H = psi_hessian_bound(transform, b, B, C)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        assert np.linalg.eigvalsh(H).min() >= -1e-10
        fd = central_diff_hessian(lambda bb: psi_value(transform, bb, B, KPK), b, h=1e-4)
        assert np.linalg.eigvalsh(H - fd).min() >= -1e-8


def test_combined_matches_separate_calls():
    rng = np.random.default_rng(7)
    transform, b, B, KPK, C = _random_instance(rng, 4, "diagonal")
    grad, H = psi_gradient_hessian_bound(transform, b, B, C)
    np.testing.assert_array_equal(grad, psi_gradient(transform, b, B, C))
    np.testing.assert_array_equal(H, psi_hessian_bound(transform, b, B, C))


@pytest.mark.parametrize("kind", ["scalar", "diagonal"])
def test_expansion_point_gives_the_same_bits(kind):
    # the terms a filter forms once per step give the gradient and bound bit
    # for bit, for one filter and for a stack, as the direct formulas do
    rng = np.random.default_rng(17)
    insts = [_random_instance(rng, 4, kind) for _ in range(3)]
    transform = insts[0][0]
    for _, b, B, _, C in insts:
        M = spd_inv(C)
        MBM = M @ B @ M
        d1, d2 = phi_d1(b), phi_d2(b)
        H = 2.0 * MBM * M * (d1[:, None] * d1[None, :]) - np.diag(np.diagonal(MBM) * d2)
        want = (np.diagonal(M - MBM) * d1, 0.5 * (H + H.T))
        if kind == "scalar":
            want = tuple(w.sum(keepdims=True) for w in want)
        for got in (psi_gradient_hessian_bound(transform, expansion_point(transform, b), B, C),
                    psi_gradient_hessian_bound(transform, b, B, C)):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
    bs, Bs, Cs = (np.stack([inst[i] for inst in insts]) for i in (1, 2, 4))
    grads, Hs = psi_gradient_hessian_bound(transform, expansion_point(transform, bs), Bs, Cs)
    for i in range(3):
        grad, H = psi_gradient_hessian_bound(transform, bs[i], Bs[i], Cs[i])
        assert grads[i].tobytes() == grad.tobytes() and Hs[i].tobytes() == H.tobytes()


def test_phi_family_is_elementwise():
    b = np.array([-2.0, 0.0, 0.5, 3.0])
    for fn in (phi, phi_d1, phi_d2):
        assert isinstance(fn(0.5), float)
        np.testing.assert_array_equal(fn(b), [fn(float(v)) for v in b])


@pytest.mark.parametrize("d", [1, 3, 5])
def test_scalar_kind_matches_its_trace_forms(d):
    # the scalar kind runs the diagonal path and sums it back onto its one
    # latent, in another order than the trace forms: equal up to rounding
    rng = np.random.default_rng(300 + d)
    for _ in range(20):
        transform, b, B, KPK, C = _random_instance(rng, d, "scalar")
        M = np.linalg.inv(C)
        MBM = M @ B @ M
        d1, d2 = 1.0 / (1.0 + b[0]), -1.0 / (1.0 + b[0]) ** 2
        grad, H = psi_gradient_hessian_bound(transform, b, B, C)
        assert grad[0] == pytest.approx(np.trace(M - MBM) * d1, rel=1e-10, abs=1e-12)
        want = -np.trace(MBM) * d2 + 2.0 * np.trace(M @ MBM) * d1 * d1
        assert H[0, 0] == pytest.approx(want, rel=1e-10)


def test_phi_family_maps_nan_to_nan():
    b = np.array([np.nan, -1.0, 0.5])
    for fn in (phi, phi_d1, phi_d2):
        assert math.isnan(fn(math.nan))
        out = fn(b)
        assert math.isnan(out[0]) and not np.isnan(out[1:]).any()


def test_phi_family_keeps_its_bits_on_finite_input():
    # the NaN-propagating forms against the branch form they replace, signed zeros included
    rng = np.random.default_rng(31)
    b = np.concatenate([rng.standard_normal(200) * 10.0, [0.0, -0.0, 1e-300, -1e-300, 1e150, -1e300]])
    for fn, branch in ((phi, np.log1p), (phi_d1, lambda u: 1.0 / (1.0 + u)),
                       (phi_d2, lambda u: -1.0 / (1.0 + u) ** 2)):
        want = np.where(b >= 0.0, branch(np.maximum(b, 0.0)), 0.0)
        assert fn(b).tobytes() == want.tobytes()
        assert all(np.float64(fn(float(v))).tobytes() == w.tobytes() for v, w in zip(b, want))
