import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_multicast import matrixkit as mk

from conftest import random_complex


def test_svd_identity():
    _, s, _ = mk.svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_diagonal_singular_values():
    _, s, _ = mk.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0])


def test_svd_reconstruction_random_8x5():
    a = random_complex(np.random.default_rng(0), 8, 5)
    u, s, vh = mk.svd(a)
    err = np.linalg.norm(a - (u * s) @ vh) / np.linalg.norm(a)
    assert err < 1e-10


def test_svd_orthonormal_factors():
    a = random_complex(np.random.default_rng(1), 6, 9)
    u, s, vh = mk.svd(a)
    k = s.size
    assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-10)
    assert np.allclose(vh @ vh.conj().T, np.eye(k), atol=1e-10)
    assert np.all(np.diff(s) <= 0)


def test_svd_phase_convention_deterministic():
    a = random_complex(np.random.default_rng(2), 7, 4)
    (u1, _, vh1), (u2, _, vh2) = mk.svd(a), mk.svd(a.copy())
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(vh1, vh2)
    for j in range(u1.shape[1]):
        col = u1[:, j]
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
    u, s, vh = mk.svd(a)
    assert np.linalg.norm(a - (u * s) @ vh) <= 1e-9 * max(np.linalg.norm(a), 1e-30)


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


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 2 ** 31 - 1))
def test_svd_times_is_the_svd_of_the_product(rank, rows, seed):
    # a (rows x 10) of numerical rank <= 6, times an orthonormal 10 x 7 basis
    rng = np.random.default_rng(seed)
    a = random_complex(rng, rows, rank) @ random_complex(rng, rank, 10)
    b = np.linalg.qr(random_complex(rng, 10, 7))[0]
    fac = mk.nullspace_svd(a)
    assert fac.rank == min(rank, rows)
    assert np.array_equal(fac.basis, mk.nullspace_basis(a))
    u, s, vh = fac.svd_times(b)
    assert u.shape == (rows, min(fac.rank, 7)) and s.shape == (min(fac.rank, 7),)
    assert np.all(s[:-1] >= s[1:])
    assert np.allclose(u.conj().T @ u, np.eye(len(s)), atol=1e-10)
    assert np.linalg.norm(a @ b - (u * s) @ vh) <= 1e-12 * np.linalg.norm(a)
    # the phase convention holds on the lifted left vectors
    peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    assert np.all(np.abs(np.angle(peak)) <= 1e-12)
    assert np.allclose(s, mk.svd(a @ b)[1][:len(s)], rtol=0.0, atol=1e-12 * s[0])


def _reference_fix_column_phases(u, vh):
    """The per-column loop of the phase convention, kept as the oracle."""
    u, vh = u.copy(), vh.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        mag = np.abs(col[i])
        if mag > 0.0:
            phase = col[i] / mag
            u[:, j] = col * np.conj(phase)
            vh[j, :] = vh[j, :] * phase
    return u, vh


def test_phase_convention_bit_identical_to_reference_loop():
    rng = np.random.default_rng(70)
    for rows, cols in [(16, 12), (64, 60), (7, 4), (4, 9), (16, 16)]:
        for _ in range(20):
            u, _, vh = np.linalg.svd(random_complex(rng, rows, cols), full_matrices=False)
            ref = _reference_fix_column_phases(u, vh)
            got = mk._fix_column_phases(u, vh)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_phase_convention_ties_and_zero_columns():
    # a tie in the column peak goes to the first row; a zero column keeps phase 1
    u = np.array([[1j, 0.0, 0.6], [-1j, 0.0, 0.8j], [0.5, 0.0, -0.8j]], dtype=np.complex128)
    vh = random_complex(np.random.default_rng(71), 3, 5)
    ref = _reference_fix_column_phases(u, vh)
    got = mk._fix_column_phases(u, vh)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert got[0][0, 0] == 1.0 and got[0][1, 2] == 0.8
