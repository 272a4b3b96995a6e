"""IRS phase optimization by Riemannian gradient descent on the unit-modulus manifold.

The objective is the truncated-SVD surrogate of the BD sum rate: each group's
bottleneck user contributes ``sum_i log2(1 + b_i |nu^H c^ii|^2)`` where the
coupling vectors c pair that user's strongest propagation paths with a
group-specific block of BS-side paths. Descent runs on the negated objective
with Armijo backtracking and element-wise normalization as the retraction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, SystemConfig, upa_response
from .signalmodel import validate_groups

__all__ = [
    "UserCoupling",
    "CouplingSet",
    "OptimizeSettings",
    "TraceRow",
    "OptimizeResult",
    "coupling_vectors",
    "sigma_approx",
    "objective_f",
    "euclidean_grad",
    "tangent_project",
    "retract",
    "optimize_phases",
    "write_trace",
]

LN2 = math.log(2.0)
# Distance from the unit circle within which retract() leaves an entry as is.
_CIRCLE_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class UserCoupling:
    """Coupling data for one user.

    Row i of ``c`` is the pure steering product conj(a_dep,i) * a_arr,j of
    the user's i-th strongest path and its paired BS-side path
    j = ``diag_cols[i]`` (the group-blocked pairing), so ``nu^H c[i]`` is the
    paper-style d_ii. Effective gains carry the channel scale prefactors and
    antenna gains.
    """

    c: np.ndarray              # (zeta, M)
    alpha_eff: np.ndarray      # (Y,) BS-side effective gains, |.| descending
    beta_eff: np.ndarray       # (L,) user-side effective gains, |.| descending
    diag_cols: np.ndarray      # (zeta,) BS-side column index per stream
    b: np.ndarray              # (zeta,) SINR scale factors


@dataclass(frozen=True)
class CouplingSet:
    users: tuple[UserCoupling, ...]
    zeta: int
    bw_hz: float

    def diag_vector(self, k: int, i: int) -> np.ndarray:
        return self.users[k].c[i]

    def diag_gain(self, k: int, i: int) -> complex:
        uc = self.users[k]
        return uc.alpha_eff[uc.diag_cols[i]] * uc.beta_eff[i]


def coupling_vectors(chset: ChannelSet, cfg: SystemConfig, groups=None) -> CouplingSet:
    """Build per-user coupling vectors and SINR scales from the path geometry.

    Group h pairs its i-th diagonal stream with the sorted BS-side path
    h*zeta+i, so different groups align onto disjoint BS-side directions.
    """
    groups = cfg.groups() if groups is None else groups
    validate_groups(groups, cfg.k_users)
    zeta = cfg.zeta
    y, ell = cfg.paths_y, cfg.paths_l
    if zeta > min(y, ell):
        raise ValueError(
            f"zeta={zeta} exceeds available paths (Y={y}, L={ell})")
    if cfg.h_groups * zeta > y:
        raise ValueError(
            f"group-blocked pairing needs Y >= H*zeta ({cfg.h_groups * zeta}), got Y={y}")
    bs = chset.bs_paths
    alpha = cfg.g_tx_lin * math.sqrt(cfg.n_bs * cfg.n_irs / y) * bs.gains
    order_a = np.argsort(-np.abs(alpha), kind="stable")
    alpha_sorted = alpha[order_a]
    arr_vecs = np.stack([
        upa_response(bs.az_irs[j], bs.el_irs[j], cfg.f_y, cfg.f_z)
        for j in order_a[:cfg.h_groups * zeta]])
    group_of = {k: h for h, members in enumerate(groups) for k in members}
    users = []
    for k in range(cfg.k_users):
        h = group_of[k]
        up = chset.ue_paths[k]
        beta = cfg.g_rx_lin * math.sqrt(cfg.n_irs * cfg.n_ue / ell) * up.gains
        order_b = np.argsort(-np.abs(beta), kind="stable")
        beta_sorted = beta[order_b]
        dep_vecs = np.stack([
            upa_response(up.az_irs[i], up.el_irs[i], cfg.f_y, cfg.f_z)
            for i in order_b[:zeta]])
        diag_cols = np.arange(h * zeta, h * zeta + zeta)
        c = np.conj(dep_vecs) * arr_vecs[diag_cols]
        scale = cfg.power_w / (len(groups[h]) * cfg.h_groups * zeta * cfg.noise_w)
        b = scale * np.abs(alpha_sorted[diag_cols] * beta_sorted[:zeta]) ** 2
        users.append(UserCoupling(c=c, alpha_eff=alpha_sorted,
                                  beta_eff=beta_sorted, diag_cols=diag_cols, b=b))
    return CouplingSet(users=tuple(users), zeta=zeta, bw_hz=cfg.bw_hz)


def sigma_approx(coupling: CouplingSet, nu: np.ndarray) -> list[np.ndarray]:
    """Per-user diagonal approximation of the projected singular values.

    Entry i is ``alpha_i beta_i nu^H c^ii`` for the paired paths; its modulus
    approximates the i-th entry of the projected channel's singular spectrum.
    """
    out = []
    for k in range(len(coupling.users)):
        d = np.empty(coupling.zeta, dtype=np.complex128)
        for i in range(coupling.zeta):
            c = coupling.diag_vector(k, i)
            d[i] = coupling.diag_gain(k, i) * (np.conj(nu) @ c)
        out.append(d)
    return out


def _user_rate_bpshz(coupling: CouplingSet, nu: np.ndarray, k: int) -> float:
    """Approximate rate of user k in bit/s/Hz (bandwidth-normalized)."""
    uc = coupling.users[k]
    total = 0.0
    for i in range(coupling.zeta):
        d = np.conj(nu) @ uc.c[i]
        total += math.log2(1.0 + uc.b[i] * abs(d) ** 2)
    return total


def _bottlenecks(coupling: CouplingSet, nu: np.ndarray, groups) -> list[tuple[int, float]]:
    """Per group: (bottleneck user, its rate in bit/s/Hz); ties to lowest index."""
    out = []
    for members in groups:
        rates = [(_user_rate_bpshz(coupling, nu, k), k) for k in members]
        best = min(rates, key=lambda t: (t[0], t[1]))
        out.append((best[1], best[0]))
    return out


def objective_f(coupling: CouplingSet, nu: np.ndarray, groups) -> float:
    """Negated approximate sum rate (bit/s): the quantity descent minimizes."""
    total = sum(rate for _, rate in _bottlenecks(coupling, nu, groups))
    return -coupling.bw_hz * total


def euclidean_grad(coupling: CouplingSet, nu: np.ndarray, groups) -> np.ndarray:
    """Wirtinger gradient (2 d/d nu*) of ``objective_f`` at ``nu``.

    Only each group's current bottleneck user contributes (subgradient of the
    min); C^ii nu is evaluated through the rank-1 structure c (c^H nu).
    """
    grad = np.zeros_like(nu)
    for k, _ in _bottlenecks(coupling, nu, groups):
        uc = coupling.users[k]
        for i in range(coupling.zeta):
            c = uc.c[i]
            d = np.conj(nu) @ c
            grad -= coupling.bw_hz * (2.0 * uc.b[i] / LN2) * c * np.conj(d) \
                / (1.0 + uc.b[i] * abs(d) ** 2)
    return grad


def tangent_project(grad: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Project onto the tangent space: g - Re{g o nu*} o nu."""
    if grad.shape != nu.shape:
        raise ValueError("gradient and phase vector lengths differ")
    return grad - (grad * nu.conj()).real * nu


def retract(nu_bar: np.ndarray) -> np.ndarray:
    """Element-wise normalization back onto the unit-modulus manifold.

    Entries already on the circle to within a few ulp pass through unchanged,
    which makes the retraction exactly idempotent.
    """
    mags = np.abs(nu_bar)
    if (mags < 1e-300).any():
        raise ValueError("retraction singularity: zero-magnitude entry")
    on_circle = np.abs(mags - 1.0) <= _CIRCLE_TOL
    return np.where(on_circle, nu_bar, nu_bar / mags)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    f_value: float
    step_size: float
    grad_norm: float
    backtracks: int


@dataclass(frozen=True)
class OptimizeSettings:
    tol: float = 1e-6
    max_iters: int = 500
    initial_step: float = 1.0
    shrink: float = 0.5
    armijo_c: float = 1e-4
    max_backtracks: int = 30


@dataclass
class OptimizeResult:
    nu: np.ndarray
    f_value: float
    iterations: int
    trace: list[TraceRow] = field(default_factory=list)
    converged: bool = False


def optimize_phases(coupling: CouplingSet, groups, nu0: np.ndarray,
                    settings: OptimizeSettings | None = None) -> OptimizeResult:
    """Armijo-backtracked Riemannian descent from ``nu0``.

    The line search runs on the bandwidth-normalized objective so the unit
    initial step is meaningful; reported f values carry the bandwidth back.
    Returns the last accepted iterate; the f trace is non-increasing.
    """
    st = settings or OptimizeSettings()
    nu = retract(np.asarray(nu0, dtype=np.complex128).copy())
    w = coupling.bw_hz

    def f_norm(x):
        return objective_f(coupling, x, groups) / w

    f_cur = f_norm(nu)
    trace: list[TraceRow] = []
    converged = False
    nu_prev = rgrad_prev = None
    step_trial = st.initial_step
    for iteration in range(1, st.max_iters + 1):
        grad = euclidean_grad(coupling, nu, groups) / w
        rgrad = tangent_project(grad, nu)
        gnorm_sq = float(np.sum(np.abs(rgrad) ** 2))
        gnorm = math.sqrt(gnorm_sq)
        if gnorm < 1e-14:
            converged = True
            break
        if nu_prev is not None:
            # Barzilai-Borwein trial length; plain unit restarts zigzag for
            # hundreds of iterations on ill-conditioned coupling sets. The
            # Armijo test below still guards every step, so the accepted
            # trace stays monotone.
            s = nu - nu_prev
            y = rgrad - rgrad_prev
            denom = abs(float(np.sum(np.real(s * np.conj(y)))))
            if denom > 1e-300:
                step_trial = float(np.sum(np.abs(s) ** 2)) / denom
        step = step_trial
        accepted = False
        f_new = f_cur
        backtracks = 0
        for backtracks in range(st.max_backtracks + 1):
            cand = retract(nu - step * rgrad)
            f_cand = f_norm(cand)
            if f_cand <= f_cur - st.armijo_c * step * gnorm_sq:
                accepted = True
                f_new = f_cand
                break
            step *= st.shrink
        if not accepted:
            # No descent within line-search resolution: numerically stationary.
            converged = True
            break
        nu_prev, rgrad_prev = nu, rgrad
        nu = cand
        trace.append(TraceRow(iteration=iteration, f_value=f_new * w,
                              step_size=step, grad_norm=gnorm * w,
                              backtracks=backtracks))
        rel_change = abs(f_new - f_cur) / max(abs(f_cur), 1e-300)
        f_cur = f_new
        if rel_change < st.tol:
            converged = True
            break
    return OptimizeResult(nu=nu, f_value=f_cur * w, iterations=len(trace),
                          trace=trace, converged=converged)


def write_trace(path, rows: list[TraceRow]) -> None:
    """Dump an optimizer trace as CSV (iter, f_value, step_size, grad_norm, backtracks)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "f_value", "step_size", "grad_norm", "backtracks"])
        for row in rows:
            writer.writerow([row.iteration, repr(row.f_value), repr(row.step_size),
                             repr(row.grad_norm), row.backtracks])
