"""Dense complex matrix primitives: SVD and null-space bases.

Thin, contract-enforcing wrappers around ``numpy.linalg``. The SVD returns
numpy's ``(u, s, vh)`` triple, made deterministic across runs by a fixed
per-column phase convention, which the rest of the library relies on for
reproducible beamformers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "svd",
    "nullspace_basis",
    "default_rank_tol",
]


def default_rank_tol(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff below which directions count as null."""
    return 1e-10 * max(shape)


def _fix_column_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rotate each singular pair so the largest-magnitude entry of the left
    # vector is real-positive; u @ diag(s) @ vh is unchanged. A zero column
    # keeps phase 1.
    cols = np.arange(u.shape[1])
    peak = u[np.argmax(np.abs(u), axis=0), cols]
    mag = np.abs(peak)
    phase = np.divide(peak, mag, out=np.ones_like(peak), where=mag > 0.0)
    return u * np.conj(phase), vh * phase[:, None]


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic thin SVD ``a = u @ diag(s) @ vh`` of a complex matrix,
    as the triple ``(u, s, vh)`` with s real, non-negative, descending.

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
    u, vh = _fix_column_phases(u, vh)
    return u, s, vh


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``.

    Columns span the right singular directions whose singular values fall
    below ``default_rank_tol(a.shape) * s_max``. A matrix with zero rows
    constrains nothing: it has no singular values, so rank 0, and numpy's
    full ``vh`` is the identity, the full basis.
    """
    a = _as_matrix(a)
    rel_tol = default_rank_tol(a.shape)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > rel_tol * smax)) if smax > 0.0 else 0
    return vh[rank:, :].conj().T
