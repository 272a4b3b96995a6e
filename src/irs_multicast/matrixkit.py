"""Dense complex matrix primitives: SVD, null-space bases, pseudo-inverse.

Thin, contract-enforcing wrappers around ``numpy.linalg``. The SVD is made
deterministic across runs by a fixed per-column phase convention, which the
rest of the library relies on for reproducible beamformers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdResult",
    "svd",
    "nullspace_basis",
    "default_rank_tol",
    "pseudo_inverse",
]


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff below which directions count as null."""
    return 1e-10 * max(shape)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(s) @ vh`` with s real, non-negative, descending."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray


def _fix_column_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rotate each singular pair so the largest-magnitude entry of the left
    # vector is real-positive; u @ diag(s) @ vh is unchanged.
    for j in range(u.shape[1]):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        mag = np.abs(col[i])
        if mag > 0.0:
            phase = col[i] / mag
            u[:, j] = col * np.conj(phase)
            vh[j, :] = vh[j, :] * phase
    return u, vh


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def svd(a) -> SvdResult:
    """Deterministic thin SVD of a complex matrix.

    Raises
    ------
    ValueError
        If the matrix is empty or contains non-finite entries.
    """
    a = _as_matrix(a)
    if a.size == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, vh = _fix_column_phases(u.copy(), vh.copy())
    return SvdResult(u=u, s=s, vh=vh)


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``.

    Columns span the right singular directions whose singular values fall
    below ``default_rank_tol(a.shape) * s_max``. A matrix with zero rows
    constrains nothing and yields the full identity basis.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(n, dtype=np.complex128)
    rel_tol = default_rank_tol(a.shape)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > rel_tol * smax)) if smax > 0.0 else 0
    return vh[rank:, :].conj().T


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse."""
    a = _as_matrix(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.pinv(a)
