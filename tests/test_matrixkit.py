import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_multicast import matrixkit as mk

from conftest import random_complex


def test_svd_identity():
    res = mk.svd(np.eye(3))
    assert np.allclose(res.s, [1.0, 1.0, 1.0])


def test_svd_diagonal_singular_values():
    res = mk.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.s, [3.0, 2.0, 1.0])


def test_svd_reconstruction_random_8x5():
    a = random_complex(np.random.default_rng(0), 8, 5)
    res = mk.svd(a)
    err = np.linalg.norm(a - (res.u * res.s) @ res.vh) / np.linalg.norm(a)
    assert err < 1e-10


def test_svd_orthonormal_factors():
    a = random_complex(np.random.default_rng(1), 6, 9)
    res = mk.svd(a)
    k = res.s.size
    assert np.allclose(res.u.conj().T @ res.u, np.eye(k), atol=1e-10)
    assert np.allclose(res.vh @ res.vh.conj().T, np.eye(k), atol=1e-10)
    assert np.all(np.diff(res.s) <= 0)


def test_svd_phase_convention_deterministic():
    a = random_complex(np.random.default_rng(2), 7, 4)
    r1, r2 = mk.svd(a), mk.svd(a.copy())
    np.testing.assert_array_equal(r1.u, r2.u)
    np.testing.assert_array_equal(r1.vh, r2.vh)
    for j in range(r1.u.shape[1]):
        col = r1.u[:, j]
        top = col[int(np.argmax(np.abs(col)))]
        assert abs(top.imag) < 1e-12 * abs(top)
        assert top.real > 0


def test_svd_empty_matrix_rejected():
    with pytest.raises(ValueError, match="empty"):
        mk.svd(np.zeros((0, 3)))


def test_svd_nonfinite_rejected():
    a = np.ones((2, 2), dtype=complex)
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        mk.svd(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_svd_reconstruction_property(rows, cols, seed):
    a = random_complex(np.random.default_rng(seed), rows, cols)
    res = mk.svd(a)
    assert np.linalg.norm(a - (res.u * res.s) @ res.vh) <= 1e-9 * max(np.linalg.norm(a), 1e-30)


def test_nullspace_axis_aligned():
    v0 = mk.nullspace_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert v0.shape == (2, 1)
    assert abs(abs(v0[1, 0]) - 1.0) < 1e-12
    assert abs(v0[0, 0]) < 1e-12


def test_nullspace_zero_rows_gives_identity():
    v0 = mk.nullspace_basis(np.zeros((0, 4)))
    np.testing.assert_array_equal(v0, np.eye(4))


def test_nullspace_rank3_5x8():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 5, 3) @ random_complex(rng, 3, 8)
    v0 = mk.nullspace_basis(a)
    assert v0.shape == (8, 5)
    assert np.linalg.norm(a @ v0) < 1e-9 * np.linalg.norm(a)
    assert np.allclose(v0.conj().T @ v0, np.eye(5), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_nullspace_rank_nullity_property(rank, cols, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, cols)
    a = random_complex(rng, rank + 2, rank) @ random_complex(rng, rank, cols)
    v0 = mk.nullspace_basis(a)
    assert rank + v0.shape[1] == cols
    assert np.allclose(v0.conj().T @ v0, np.eye(v0.shape[1]), atol=1e-10)


def test_pinv_identity():
    np.testing.assert_allclose(mk.pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)


def test_pinv_diagonal():
    np.testing.assert_allclose(mk.pseudo_inverse(np.diag([2.0, 4.0])),
                               np.diag([0.5, 0.25]), atol=1e-12)


def test_pinv_full_column_rank_left_inverse():
    a = random_complex(np.random.default_rng(4), 6, 3)
    np.testing.assert_allclose(mk.pseudo_inverse(a) @ a, np.eye(3), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 31 - 1))
def test_pinv_penrose_conditions(rows, cols, seed):
    a = random_complex(np.random.default_rng(seed), rows, cols)
    ap = mk.pseudo_inverse(a)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ ap @ a - a) <= 1e-9 * scale
    assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-9 * np.linalg.norm(ap)
    assert np.allclose(a @ ap, (a @ ap).conj().T, atol=1e-9)
    assert np.allclose(ap @ a, (ap @ a).conj().T, atol=1e-9)
