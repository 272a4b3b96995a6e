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
    "stream_snr_scale",
    "sum_rate",
    "check_constraints",
]


def validate_groups(groups, cfg: SystemConfig) -> np.ndarray:
    """The membership vector ``group_of`` (K,) of the config's layout
    ``cfg.groups()``: ``group_of[k]`` is the index of user k's group.

    ``groups`` (None for the config's) must be that layout, as tuples or
    lists of the same members in the same order; any other is refused.
    """
    if groups is not None:
        _check_layout(groups, cfg.groups())
    return np.repeat(np.arange(cfg.h_groups), cfg.group_sizes)


def _check_layout(groups, layout: tuple) -> None:
    """Refuse ``groups`` unless they list the members of ``layout`` in its order."""
    if groups != layout and tuple(map(tuple, groups)) != layout:
        raise ValueError(f"groups {groups!r} are not the config's layout {layout!r}")


def stream_snr_scale(cfg: SystemConfig) -> np.ndarray:
    """Each user's per-stream SNR scale ``P/(|G_h| H zeta sigma^2)`` (K,): Lemma 1's
    P/(H zeta) per stream, shared by the |G_h| members of the user's group h."""
    sizes = np.repeat(cfg.group_sizes, cfg.group_sizes)
    return cfg.power_w / (sizes * cfg.h_groups * cfg.zeta * cfg.noise_w)


@dataclass
class BeamformerSet:
    """Composed transmit/receive beamformers and their constant-modulus factors.

    ``tx`` is the N_B x H*zeta transmit matrix (F_R F_B when hybrid) and
    ``combiners`` the (K, N_U, zeta) stack of every user's combiner
    (W_R,k W_B,k when hybrid). ``rf`` holds the analog factors the
    unit-modulus constraint applies to, ``(F_R, W_R)`` with W_R the
    (K, N_U, m_ue) stack of every user's; it is empty for a fully digital set.
    """

    tx: np.ndarray
    combiners: np.ndarray
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

    def interference_ratio(self) -> np.ndarray:
        """max(I, J) relative to desired signal power, per stream."""
        sig = np.where(self.signal > 0.0, self.signal, np.inf)
        return np.maximum(self.intra, self.inter) / sig


def sum_rate(bf: BeamformerSet, h_eff: np.ndarray, cfg: SystemConfig) -> RateReport:
    """Evaluate the full multicast objective: sum over the config's groups of
    the min member rate, on the effective channels ``h_eff`` (K, N_U, N_B).

    Interference sums run over the explicit off-diagonal entries (not
    total-minus-diagonal, which cancels interference 1e16x below the signal).
    """
    group_of = validate_groups(None, cfg)
    zeta = cfg.zeta
    # every user's zeta x H*zeta stream gains W_k^H H_k B, as powers with the
    # columns of the user's own group first, then the other groups' in order
    gains = np.conj(bf.combiners).swapaxes(1, 2) @ h_eff @ bf.tx
    in_group = np.arange(gains.shape[2]) // zeta == group_of[:, None]
    order = np.argsort(~in_group, axis=1, kind="stable")
    power = np.take_along_axis(np.abs(gains) ** 2, order[:, None, :], axis=2)
    diag = np.arange(zeta)
    sig = power[:, diag, diag]
    power[:, diag, diag] = 0.0
    intra = power[..., :zeta].sum(axis=2)
    inter = power[..., zeta:].sum(axis=2)
    sinr = sig / (intra + inter + cfg.noise_w)
    # Shannon rate summed over streams: W * sum_i log2(1 + xi_i)
    rates = cfg.bw_hz * np.sum(np.log2(1.0 + sinr), axis=1)
    group_rates = np.full(cfg.h_groups, np.inf)
    np.minimum.at(group_rates, group_of, rates)
    return RateReport(sinr=sinr, signal=sig, intra=intra, inter=inter,
                      user_rates=rates, group_rates=group_rates,
                      sum_rate=float(group_rates.sum()))


# Tolerances of ConstraintReport.ok().
_RF_TOL = 1e-9
_POWER_TOL = 1e-6
_PHASE_TOL = 1e-12


@dataclass
class ConstraintReport:
    """Deviations from the problem constraints; purely diagnostic."""

    rf_modulus_dev: float       # max | |entry| - 1 | over the RF factors, 0 if none
    power_ratio: float          # ||tx||_F^2 / P
    phase_modulus_dev: float    # max | |nu_m| - 1 |

    def ok(self) -> bool:
        return (self.rf_modulus_dev <= _RF_TOL
                and self.power_ratio <= 1.0 + _POWER_TOL
                and self.phase_modulus_dev <= _PHASE_TOL)


def check_constraints(bf: BeamformerSet, cfg: SystemConfig,
                      nu: np.ndarray) -> ConstraintReport:
    rf_dev = float(max((np.max(np.abs(np.abs(r) - 1.0)) for r in bf.rf), default=0.0))
    power_ratio = float(np.linalg.norm(bf.tx, "fro") ** 2 / cfg.power_w)
    phase_dev = float(np.max(np.abs(np.abs(nu) - 1.0)))
    return ConstraintReport(rf_modulus_dev=rf_dev, power_ratio=power_ratio,
                            phase_modulus_dev=phase_dev)
