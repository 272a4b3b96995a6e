"""Block-diagonalization beamformers and their closed-form rate.

Each group transmits inside the null space of the other groups' effective
channels, the rows of ``h_eff[others]`` stacked into one matrix; the per-user
SVD inside that null space then diagonalizes the own link. The closed-form
log-det rate this yields is checked against the signal-level oracle in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .channel import SystemConfig
from .signalmodel import BeamformerSet, stream_snr_scale, validate_groups

__all__ = [
    "BdInfeasibleError",
    "BdDecomposition",
    "decompose",
    "build_beamformers",
    "bd_rate_closed_form",
]


class BdInfeasibleError(ValueError):
    """The geometry cannot support BD with the requested stream count."""


@dataclass(frozen=True)
class BdDecomposition:
    """Per-group null bases V0 and each user's leading SVD factors of H_k V0.

    User k's factors live in its group's null basis: ``u1[k]`` (N_U x zeta),
    the singular values ``s1[k]`` and ``v1[k]`` (n_h x zeta). The null
    dimension n_h differs from group to group, so ``v0`` and ``v1`` stay
    tuples. Without nulling a group has no basis (``v0[h]`` is None) and the
    factors are those of H_k itself.
    """

    v0: tuple[np.ndarray | None, ...]   # per group: null basis of the other groups' channels
    u1: np.ndarray                      # (K, N_U, zeta)
    s1: np.ndarray                      # (K, zeta)
    v1: tuple[np.ndarray, ...]          # per user


def decompose(h_eff: np.ndarray, cfg: SystemConfig, nulling: bool = True) -> BdDecomposition:
    """Per-group null bases and per-user SVD factors (Lemma-1 raw material)
    of the effective channels ``h_eff`` (K, N_U, N_B), on the config's groups.

    With ``nulling=False`` the inter-group null projection is dropped and
    each user's factors come from its raw effective channel. Where user k's
    channel alone is another group's constraint stack, that stack's SVD
    ``H_k = U S Vh`` gives them: ``H_k V0`` is ``U`` times the small core
    ``S Vh V0`` of rank(H_k) rows, so only the core is decomposed.

    Raises
    ------
    BdInfeasibleError
        When a group has no null space left or a user's projected channel
        cannot carry ``zeta`` streams.
    """
    group_of = validate_groups(None, cfg)
    zeta = cfg.zeta
    k_users, n_ue, n_bs = h_eff.shape
    v0s, v1 = [], [None] * k_users
    u1 = np.empty((k_users, n_ue, zeta), dtype=np.complex128)
    s1 = np.empty((k_users, zeta))
    nulls, own = [], {}
    for h in range(cfg.h_groups if nulling else 0):
        others = np.flatnonzero(group_of != h)
        nulls.append(mk.nullspace_svd(h_eff[others].reshape(-1, n_bs)))
        if others.size == 1:  # one user's channel: its SVD is that user's own
            own[int(others[0])] = nulls[h]
    for h, members in enumerate(cfg.groups()):
        v0 = None
        if nulling:
            v0 = nulls[h].basis
            if v0.shape[1] == 0:
                raise BdInfeasibleError("insufficient BS antennas for BD")
            if v0.shape[1] < zeta:
                raise BdInfeasibleError(
                    f"group {h}: null space dimension {v0.shape[1]} < zeta={zeta}")
        for k in members:
            if k in own:
                u, s, vh = own[k].svd_times(v0)
            else:
                u, s, vh = mk.svd(h_eff[k] if v0 is None else h_eff[k] @ v0)
            # Rank of the projection judged against the unprojected channel's
            # scale ||H_k||_2: when the cascade shares the other groups' path
            # space the projection leaves pure rounding noise, which is full
            # rank relative to itself but zero relative to H_k. ||H_k||_F
            # bounds ||H_k||_2 from above, so the 2-norm (one more SVD) is
            # taken only for a projection that fails the Frobenius bound. A
            # core of rank below zeta has no zeta-th singular value: it is 0.
            s_min = s[zeta - 1] if s.size >= zeta else 0.0
            rank_tol = mk.default_rank_tol((n_ue, n_bs if v0 is None else v0.shape[1]))
            if s_min <= rank_tol * float(np.linalg.norm(h_eff[k])) * (1.0 + 1e-12):
                hk_scale = float(np.linalg.norm(h_eff[k], 2))
                if hk_scale == 0.0 or s_min <= rank_tol * hk_scale:
                    raise BdInfeasibleError(
                        f"user {k}: projected channel rank below zeta={zeta}"
                        " (effective channel collapses in the other groups' null space)")
            u1[k], s1[k], v1[k] = u[:, :zeta], s[:zeta], vh[:zeta, :].conj().T
        v0s.append(v0)
    return BdDecomposition(v0=tuple(v0s), u1=u1, s1=s1, v1=tuple(v1))


def build_beamformers(h_eff: np.ndarray, groups, cfg: SystemConfig,
                      nulling: bool = True) -> tuple[BeamformerSet, BdDecomposition]:
    """Construct the fully digital Lemma-1 beamformers on the effective
    channels ``h_eff`` (:func:`~irs_multicast.channel.effective_channels` at
    the phase vector). ``groups`` must be the config's layout.

    Each group's block sums the V factors of its own members, at the
    per-stream power P/(H*zeta). The composed transmit matrix is then rescaled
    to meet the power budget exactly. ``nulling=False`` keeps every step but
    the inter-group null projection (the eigen-beamforming baselines d/e).
    """
    validate_groups(groups, cfg)
    decomp = decompose(h_eff, cfg, nulling)
    p_stream = cfg.power_w / (cfg.h_groups * cfg.zeta)
    blocks = []
    for h, members in enumerate(cfg.groups()):
        v = sum(decomp.v1[k] for k in members) / np.sqrt(len(members))
        if decomp.v0[h] is not None:
            v = decomp.v0[h] @ v
        blocks.append(v * np.sqrt(p_stream))
    b = np.hstack(blocks)
    realized = float(np.linalg.norm(b, "fro") ** 2)
    if realized == 0.0:
        raise BdInfeasibleError("degenerate geometry: zero transmit beamformer")
    b = b * np.sqrt(cfg.power_w / realized)
    return BeamformerSet(tx=b, combiners=decomp.u1), decomp


def bd_rate_closed_form(decomp: BdDecomposition, groups, cfg: SystemConfig) -> np.ndarray:
    """Per-user log-det rates from the projected singular values.

    ``R_k = W * log2 det(I + scale_k * S1^2)`` evaluated as a sum of scalar
    logs, with each user's :func:`~irs_multicast.signalmodel.stream_snr_scale`.
    ``groups`` must be the config's layout.
    """
    validate_groups(groups, cfg)
    scale = stream_snr_scale(cfg)
    return cfg.bw_hz * np.sum(np.log2(1.0 + scale[:, None] * decomp.s1 ** 2), axis=1)
