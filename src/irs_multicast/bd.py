"""Block-diagonalization beamformers and their closed-form rate.

Each group transmits inside the null space of every other group's effective
channel; the per-user SVD inside that null space then diagonalizes the own
link. The closed-form log-det rate this yields is checked against the
signal-level oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .channel import ChannelSet, SystemConfig, effective_channels
from .signalmodel import BeamformerSet, validate_groups

__all__ = [
    "BdInfeasibleError",
    "BdDecomposition",
    "stack_other_groups",
    "null_projector",
    "decompose",
    "build_beamformers",
    "bd_rate_closed_form",
]


class BdInfeasibleError(RuntimeError):
    """The geometry cannot support BD with the requested stream count."""


@dataclass(frozen=True)
class BdDecomposition:
    """Per-group null bases V0 and each user's leading SVD factors of H_k V0.

    User k's factors live in its group's null basis: U1 (N_U x zeta), the
    singular values ``s1[k]`` and V1 (n_h x zeta). Without nulling a group
    has no basis (``v0[h]`` is None) and the factors are those of H_k itself.
    """

    v0: tuple[np.ndarray | None, ...]   # per group: null basis of the other groups' channels
    u1: tuple[np.ndarray, ...]          # per user
    s1: np.ndarray                      # (K, zeta)
    v1: tuple[np.ndarray, ...]          # per user


def stack_other_groups(h_eff: list[np.ndarray], groups, h: int) -> np.ndarray:
    """Vertically stack the effective channels of every user outside group ``h``."""
    if not 0 <= h < len(groups):
        raise ValueError(f"group index {h} out of range")
    others = sorted(k for g, members in enumerate(groups) if g != h for k in members)
    n_bs = h_eff[0].shape[1]
    if not others:
        return np.zeros((0, n_bs), dtype=np.complex128)
    return np.vstack([h_eff[k] for k in others])


def null_projector(h_tilde: np.ndarray, n_bs: int) -> np.ndarray:
    """Orthonormal basis of null(h_tilde); errors out when no null space is left."""
    if h_tilde.shape[1] != n_bs:
        raise ValueError(f"expected {n_bs} columns, got {h_tilde.shape[1]}")
    v0 = mk.nullspace_basis(h_tilde)
    if v0.shape[1] == 0:
        raise BdInfeasibleError("insufficient BS antennas for BD")
    return v0


def decompose(h_eff: list[np.ndarray], groups, cfg: SystemConfig,
              nulling: bool = True) -> BdDecomposition:
    """Per-group null bases and per-user SVD factors (Lemma-1 raw material).

    With ``nulling=False`` the inter-group null projection is dropped and
    each user's factors come from its raw effective channel.

    Raises
    ------
    BdInfeasibleError
        When a group has no null space left or a user's projected channel
        cannot carry ``zeta`` streams.
    """
    validate_groups(groups, cfg.k_users)
    zeta = cfg.zeta
    v0s = []
    u1, v1 = [None] * cfg.k_users, [None] * cfg.k_users
    s1 = np.empty((cfg.k_users, zeta))
    for h, members in enumerate(groups):
        v0 = None
        if nulling:
            v0 = null_projector(stack_other_groups(h_eff, groups, h), cfg.n_bs)
            if v0.shape[1] < zeta:
                raise BdInfeasibleError(
                    f"group {h}: null space dimension {v0.shape[1]} < zeta={zeta}")
        for k in members:
            proj = h_eff[k] if v0 is None else h_eff[k] @ v0
            res = mk.svd(proj)
            # Rank of the projection judged against the unprojected channel's
            # scale: when the cascade shares the other groups' path space the
            # projection leaves pure rounding noise, which is full rank
            # relative to itself but zero relative to H_k.
            hk_scale = float(np.linalg.norm(h_eff[k], 2))
            rank_tol = mk.default_rank_tol(proj.shape)
            if hk_scale == 0.0 or res.s[zeta - 1] <= rank_tol * hk_scale:
                raise BdInfeasibleError(
                    f"user {k}: projected channel rank below zeta={zeta}"
                    " (effective channel collapses in the other groups' null space)")
            u1[k], s1[k], v1[k] = res.u[:, :zeta], res.s[:zeta], res.vh[:zeta, :].conj().T
        v0s.append(v0)
    return BdDecomposition(v0=tuple(v0s), u1=tuple(u1), s1=s1, v1=tuple(v1))


def build_beamformers(chset: ChannelSet, groups, nu: np.ndarray, cfg: SystemConfig,
                      nulling: bool = True) -> tuple[BeamformerSet, BdDecomposition]:
    """Construct the fully digital Lemma-1 beamformers at phase vector ``nu``.

    Each group's block sums the V factors of its own members, at the
    per-stream power P/(H*zeta). The composed transmit matrix is then rescaled
    to meet the power budget exactly. ``nulling=False`` keeps every step but
    the inter-group null projection (the eigen-beamforming baselines d/e).
    """
    h_eff = effective_channels(chset, nu, cfg)
    decomp = decompose(h_eff, groups, cfg, nulling)
    p_stream = cfg.power_w / (cfg.h_groups * cfg.zeta)
    blocks = []
    for h, members in enumerate(groups):
        v = sum(decomp.v1[k] for k in members) / np.sqrt(len(members))
        if decomp.v0[h] is not None:
            v = decomp.v0[h] @ v
        blocks.append(v * np.sqrt(p_stream))
    b = np.hstack(blocks)
    realized = float(np.linalg.norm(b, "fro") ** 2)
    if realized == 0.0:
        raise BdInfeasibleError("degenerate geometry: zero transmit beamformer")
    b = b * np.sqrt(cfg.power_w / realized)
    return BeamformerSet(tx=b, combiners=list(decomp.u1)), decomp


def bd_rate_closed_form(decomp: BdDecomposition, groups, cfg: SystemConfig) -> np.ndarray:
    """Per-user log-det rates from the projected singular values.

    ``R_k = W * log2 det(I + P/(|H_h| H zeta sigma^2) * S1^2)`` evaluated as a
    sum of scalar logs.
    """
    rates = np.zeros(cfg.k_users)
    for members in groups:
        scale = cfg.power_w / (len(members) * cfg.h_groups * cfg.zeta * cfg.noise_w)
        for k in members:
            rates[k] = cfg.bw_hz * np.sum(np.log2(1.0 + scale * decomp.s1[k] ** 2))
    return rates
