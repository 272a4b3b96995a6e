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
    "UserFactors",
    "GroupFactors",
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
class UserFactors:
    """Leading SVD factors of H_k V0 for one user: U1 (N_U x zeta), s1 (zeta,), V1 (n x zeta)."""

    u1: np.ndarray
    s1: np.ndarray
    v1: np.ndarray


@dataclass(frozen=True)
class GroupFactors:
    v0: np.ndarray                      # null basis of the stacked other-group channels
    users: dict[int, UserFactors]       # keyed by global user index


@dataclass(frozen=True)
class BdDecomposition:
    groups: tuple[GroupFactors, ...]
    p_stream: float                     # per-stream power P/(H*zeta)
    power_prescale: float               # ||B||_F^2 / P before the exact rescale


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


def decompose(h_eff: list[np.ndarray], groups, cfg: SystemConfig) -> BdDecomposition:
    """Per-group null bases and per-user SVD factors (Lemma-1 raw material).

    Raises
    ------
    BdInfeasibleError
        When a group has no null space left or a user's projected channel
        cannot carry ``zeta`` streams.
    """
    validate_groups(groups, cfg.k_users)
    zeta = cfg.zeta
    out = []
    for h, members in enumerate(groups):
        h_tilde = stack_other_groups(h_eff, groups, h)
        v0 = null_projector(h_tilde, cfg.n_bs)
        if v0.shape[1] < zeta:
            raise BdInfeasibleError(
                f"group {h}: null space dimension {v0.shape[1]} < zeta={zeta}")
        users = {}
        for k in members:
            proj = h_eff[k] @ v0
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
            users[k] = UserFactors(u1=res.u[:, :zeta], s1=res.s[:zeta],
                                   v1=res.vh[:zeta, :].conj().T)
        out.append(GroupFactors(v0=v0, users=users))
    p_stream = cfg.power_w / (cfg.h_groups * zeta)
    return BdDecomposition(groups=tuple(out), p_stream=p_stream, power_prescale=1.0)


def build_beamformers(chset: ChannelSet, groups, nu: np.ndarray,
                      cfg: SystemConfig) -> tuple[BeamformerSet, BdDecomposition]:
    """Construct the fully digital Lemma-1 beamformers at phase vector ``nu``.

    Each group's block sums the V factors of its own members. The composed
    transmit matrix is rescaled to meet the power budget exactly; the
    pre-rescale ratio is recorded on the returned decomposition.
    """
    h_eff = effective_channels(chset, nu, cfg)
    decomp = decompose(h_eff, groups, cfg)
    blocks = []
    for h, members in enumerate(groups):
        gf = decomp.groups[h]
        v_sum_mat = sum(gf.users[k].v1 for k in members)
        b_h = gf.v0 @ (v_sum_mat / np.sqrt(len(members))) * np.sqrt(decomp.p_stream)
        blocks.append(b_h)
    b = np.hstack(blocks)
    realized = float(np.linalg.norm(b, "fro") ** 2)
    if realized == 0.0:
        raise BdInfeasibleError("degenerate geometry: zero transmit beamformer")
    prescale = realized / cfg.power_w
    b = b * np.sqrt(cfg.power_w / realized)
    j = [None] * cfg.k_users  # groups cover every user (checked in decompose)
    for h, members in enumerate(groups):
        for k in members:
            j[k] = decomp.groups[h].users[k].u1
    bf = BeamformerSet(mode="digital", digital_b=b, digital_j=j)
    decomp = BdDecomposition(groups=decomp.groups, p_stream=decomp.p_stream,
                             power_prescale=prescale)
    return bf, decomp


def bd_rate_closed_form(decomp: BdDecomposition, groups, cfg: SystemConfig) -> np.ndarray:
    """Per-user log-det rates from the projected singular values.

    ``R_k = W * log2 det(I + P/(|H_h| H zeta sigma^2) * S1^2)`` evaluated as a
    sum of scalar logs.
    """
    rates = np.zeros(cfg.k_users)
    for h, members in enumerate(groups):
        scale = cfg.power_w / (len(members) * cfg.h_groups * cfg.zeta * cfg.noise_w)
        for k in members:
            s1 = decomp.groups[h].users[k].s1
            rates[k] = cfg.bw_hz * np.sum(np.log2(1.0 + scale * s1 ** 2))
    return rates
