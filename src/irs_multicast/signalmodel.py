"""Ground-truth rate oracle: SINR, per-user and per-group rates from raw beamformers.

Everything here evaluates beamformers by direct summation over streams; it
knows nothing about how the beamformers were constructed, which is what makes
it usable as the independent check on the block-diagonalization closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig

__all__ = [
    "BeamformerSet",
    "RateReport",
    "ConstraintReport",
    "validate_groups",
    "user_rate",
    "sum_rate",
    "check_constraints",
]


def validate_groups(groups, k_users: int) -> None:
    seen: set[int] = set()
    for members in groups:
        if len(members) == 0:
            raise ValueError("empty group")
        for k in members:
            if not 0 <= k < k_users:
                raise ValueError(f"user index {k} out of range")
            if k in seen:
                raise ValueError(f"user {k} appears in more than one group")
            seen.add(k)
    if len(seen) != k_users:
        raise ValueError("groups must cover every user exactly once")


@dataclass
class BeamformerSet:
    """Composed transmit/receive beamformers and their constant-modulus factors.

    ``tx`` is the N_B x H*zeta transmit matrix (F_R F_B when hybrid) and
    ``combiners[k]`` user k's N_U x zeta combiner (W_R,k W_B,k when hybrid).
    ``rf`` holds the analog factors the unit-modulus constraint applies to;
    it is empty for a fully digital set.
    """

    tx: np.ndarray
    combiners: list[np.ndarray]
    rf: tuple[np.ndarray, ...] = ()


@dataclass
class RateReport:
    """Per-stream SINR decomposition plus the multicast rate roll-up."""

    sinr: np.ndarray            # (K, zeta)
    signal: np.ndarray          # (K, zeta) desired-signal power
    intra: np.ndarray           # (K, zeta) own-stream interference power
    inter: np.ndarray           # (K, zeta) other-group interference power
    user_rates: np.ndarray      # (K,) bit/s
    group_rates: np.ndarray     # (H,) min over members
    sum_rate: float
    noise_w: float

    def interference_ratio(self) -> np.ndarray:
        """max(I, J) relative to desired signal power, per stream."""
        sig = np.where(self.signal > 0.0, self.signal, np.inf)
        return np.maximum(self.intra, self.inter) / sig


def _stream_terms(gains_k: np.ndarray, group_h: int, zeta: int):
    """Split the per-user gain matrix (zeta x H*zeta) into signal/I/J powers.

    Interference sums run over the explicit off-diagonal entries (not
    total-minus-diagonal, which cancels interference 1e16x below the signal).
    """
    power = np.abs(gains_k) ** 2
    own = power[:, group_h * zeta:(group_h + 1) * zeta]
    signal = np.diagonal(own).copy()
    off = own.copy()
    np.fill_diagonal(off, 0.0)
    intra = off.sum(axis=1)
    other = np.ones(power.shape[1], dtype=bool)
    other[group_h * zeta:(group_h + 1) * zeta] = False
    inter = power[:, other].sum(axis=1)
    return signal, intra, inter


def user_rate(sinrs: np.ndarray, bw_hz: float) -> float:
    """Shannon rate summed over streams: W * sum_i log2(1 + xi_i)."""
    return float(bw_hz * np.sum(np.log2(1.0 + np.asarray(sinrs))))


def sum_rate(bf: BeamformerSet, h_eff: list[np.ndarray], cfg: SystemConfig,
             groups=None) -> RateReport:
    """Evaluate the full multicast objective: sum over groups of min member rate,
    on the effective channels ``h_eff`` (one N_U x N_B matrix per user)."""
    groups = cfg.groups() if groups is None else groups
    validate_groups(groups, cfg.k_users)
    k_users, zeta = cfg.k_users, cfg.zeta
    sig = np.zeros((k_users, zeta))
    intra = np.zeros((k_users, zeta))
    inter = np.zeros((k_users, zeta))
    for h, members in enumerate(groups):
        for k in members:
            gains = bf.combiners[k].conj().T @ h_eff[k] @ bf.tx
            sig[k], intra[k], inter[k] = _stream_terms(gains, h, zeta)
    sinr = sig / (intra + inter + cfg.noise_w)
    rates = np.array([user_rate(sinr[k], cfg.bw_hz) for k in range(k_users)])
    group_rates = np.array([min(rates[k] for k in members) for members in groups])
    return RateReport(sinr=sinr, signal=sig, intra=intra, inter=inter,
                      user_rates=rates, group_rates=group_rates,
                      sum_rate=float(group_rates.sum()), noise_w=cfg.noise_w)


# Tolerances of ConstraintReport.ok().
_RF_TOL = 1e-9
_POWER_TOL = 1e-6
_PHASE_TOL = 1e-12


@dataclass
class ConstraintReport:
    """Deviations from the problem constraints; purely diagnostic."""

    rf_modulus_dev: float       # max | |entry| - 1 | over the RF factors, 0 if none
    power_ratio: float          # ||tx||_F^2 / P
    phase_modulus_dev: float    # max | |nu_m| - 1 |, 0 if no nu given

    def ok(self) -> bool:
        return (self.rf_modulus_dev <= _RF_TOL
                and self.power_ratio <= 1.0 + _POWER_TOL
                and self.phase_modulus_dev <= _PHASE_TOL)


def check_constraints(bf: BeamformerSet, cfg: SystemConfig,
                      nu: np.ndarray | None = None) -> ConstraintReport:
    rf_dev = float(max((np.max(np.abs(np.abs(r) - 1.0)) for r in bf.rf), default=0.0))
    power_ratio = float(np.linalg.norm(bf.tx, "fro") ** 2 / cfg.power_w)
    phase_dev = 0.0
    if nu is not None:
        phase_dev = float(np.max(np.abs(np.abs(nu) - 1.0)))
    return ConstraintReport(rf_modulus_dev=rf_dev, power_ratio=power_ratio,
                            phase_modulus_dev=phase_dev)
