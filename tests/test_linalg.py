"""The one SPD inverse kernel: a stacked matrix gets the bits it gets alone,
outputs are exactly symmetric, and failures take the jitter retry or name
their stack position."""

import numpy as np
import pytest

import viking as vk
from viking.linalg import JITTER_SCALE, SingularMatrixError, spd_inv


def _spd_stack(d: int, n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, d, d))
    m = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(d)
    return 0.5 * (m + m.swapaxes(-1, -2))


@pytest.mark.parametrize("d", [1, 5, 20])
@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_stack_matches_alone_symmetric_and_counted(d, n):
    ms = _spd_stack(d, n, seed=10 * d + n)
    vk.reset_spd_inversion_count()
    inv = spd_inv(ms)
    assert vk.spd_inversion_count() == n
    assert inv.shape == ms.shape
    assert np.array_equal(inv, inv.swapaxes(-1, -2))
    residual = np.abs(inv @ ms - np.eye(d)).max(axis=(-2, -1)) / np.linalg.cond(ms)
    assert residual.max() < 1e-13
    for i in range(n):
        alone = spd_inv(ms[i])
        assert alone.shape == (d, d)
        assert alone.tobytes() == inv[i].tobytes(), i
    assert vk.spd_inversion_count() == 2 * n


@pytest.mark.parametrize("d", [33, 64])
@pytest.mark.parametrize("n", [None, 3])
def test_inverse_is_exactly_symmetric_as_the_product_forms_it(d, n):
    # no symmetrising pass follows the L^-T L^-1 product: the product itself
    # must be exactly symmetric, for one matrix and for a stack
    ms = _spd_stack(d, n or 1, seed=d)
    inv = spd_inv(ms if n else ms[0])
    assert np.array_equal(inv, inv.swapaxes(-1, -2))


def test_multi_axis_stack_matches_flat_stack():
    ms = _spd_stack(4, 6, seed=3)
    assert np.array_equal(spd_inv(ms.reshape(2, 3, 4, 4)).reshape(6, 4, 4), spd_inv(ms))


def test_any_layout_or_dtype_gives_the_same_inverse():
    m = _spd_stack(5, 1, seed=4)[0]
    want = spd_inv(m)
    assert np.array_equal(spd_inv(np.asfortranarray(m)), want)
    assert np.array_equal(spd_inv(m.T), want)
    assert np.array_equal(spd_inv(np.stack([m, m])[:, ::-1, ::-1])[0], spd_inv(m[::-1, ::-1].copy()))
    assert np.array_equal(spd_inv(np.array([[2, 1], [1, 2]])), spd_inv(np.array([[2.0, 1.0], [1.0, 2.0]])))


def test_psd_singular_matrix_takes_the_jitter_retry():
    m = np.ones((2, 2))
    jittered = m + JITTER_SCALE * np.eye(2)
    inv = spd_inv(m)
    assert np.isfinite(inv).all()
    assert np.array_equal(inv, spd_inv(jittered))
    stack = np.stack([np.eye(2), m, 2.0 * np.eye(2)])
    vk.reset_spd_inversion_count()
    assert np.array_equal(spd_inv(stack)[1], inv)
    assert vk.spd_inversion_count() == 3


def test_zero_matrix_names_its_stack_position():
    with pytest.raises(SingularMatrixError, match="no usable jitter scale") as info:
        spd_inv(np.zeros((3, 3)))
    assert info.value.index is None

    stack = _spd_stack(3, 6, seed=5).reshape(2, 3, 3, 3)
    stack[1, 2] = 0.0
    with pytest.raises(SingularMatrixError) as info:
        spd_inv(stack)
    assert tuple(int(i) for i in info.value.index) == (1, 2)

    flat = _spd_stack(3, 4, seed=6)
    flat[2] = 0.0
    with pytest.raises(SingularMatrixError) as info:
        spd_inv(flat)
    assert tuple(int(i) for i in info.value.index) == (2,)
