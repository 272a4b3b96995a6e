"""Factor fully digital beamformers into constant-modulus RF and baseband parts.

Alternates Riemannian descent on the RF matrix entries (the complex circle
manifold, reusing the phase-optimizer's tangent projection and retraction)
with the least-squares baseband update ``F_B = pinv(F_R) B``. The same
:func:`factor` serves the transmit beamformer and every receive combiner.

Bit-exact contract: the iterates (gradient, tangent projection,
Barzilai-Borwein step, retraction, pseudo-inverse) are computed with a fixed
sequence of floating-point operations. The descent is chaotic: scaling the
gradient by 1 + 1e-15 moves rf-limited sweep rates by up to ~2e-3 relative.
Work may be removed around that sequence (a residual reused, a constant
hoisted, a dispatch skipped) but never reordered inside it. The Armijo
objective ``q`` is compared only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .phaseopt import retract, tangent_project

__all__ = [
    "FactorSettings",
    "FactorResult",
    "solve_baseband",
    "rf_objective_grad",
    "factor",
    "normalize_power",
]


def solve_baseband(f_rf: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius-optimal baseband for fixed RF: ``pinv(F_R) @ B``."""
    return mk.pseudo_inverse(f_rf) @ b


def rf_objective_grad(x_mat: np.ndarray, f_bb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wirtinger gradient (2 d/dX*) of ``||B - X F_B||_F^2`` in matrix form."""
    return -2.0 * (b - x_mat @ f_bb) @ f_bb.conj().T


def _residual_grad(resid: np.ndarray, f_bb_h: np.ndarray) -> np.ndarray:
    """:func:`rf_objective_grad` from ``R = B - X F_B`` and ``F_B^H`` at hand.

    The same operations in the same order, so the result is bit-identical;
    tests hold the two to ``np.array_equal``.
    """
    return -2.0 * resid @ f_bb_h


# Stopping rules of the alternation and Armijo line search of the RF descent.
_TOL = 1e-6             # stop on relative residual change below this
_FLOOR = 1e-9           # stop outright once the relative residual is this small
_INNER_STEPS = 60
_INNER_REL_DROP = 1e-11  # end a descent once a step gains less than this, relative
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class FactorSettings:
    max_alternations: int = 100
    init_mode: str = "auto"     # "auto": two-phase split when chains allow; "phase_copy"


@dataclass
class FactorResult:
    f_rf: np.ndarray
    f_bb: np.ndarray
    residuals: list[float] = field(default_factory=list)
    alternations: int = 0

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else math.inf


def _phase_copy_init(b: np.ndarray, n_rf: int, rng: np.random.Generator) -> np.ndarray:
    """Phase-copy warm start from B's leading columns; random phases fill gaps."""
    n, cols = b.shape
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n_rf)))
    take = min(cols, n_rf)
    lead = b[:, :take]
    nz = np.abs(lead) > 0.0
    x[:, :take][nz] = lead[nz] / np.abs(lead[nz])
    return x


def _two_phase_split_init(b: np.ndarray, n_rf: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Exact warm start when ``n_rf >= 2 * cols``.

    Every complex entry v with |v| <= 2c splits as c(e^{j(a+t)} + e^{j(a-t)})
    with a = arg v and t = arccos(|v| / 2c), so a pair of constant-modulus
    columns reproduces each target column exactly; the least-squares baseband
    recovers the pairing, leaving only rounding in the starting residual.
    """
    n, cols = b.shape
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n_rf)))
    for i in range(cols):
        col = b[:, i]
        peak = float(np.max(np.abs(col)))
        if peak == 0.0:
            continue
        c = peak / 2.0
        ang = np.angle(col)
        t = np.arccos(np.clip(np.abs(col) / (2.0 * c), 0.0, 1.0))
        x[:, i] = np.exp(1j * (ang + t))
        x[:, cols + i] = np.exp(1j * (ang - t))
    return x


def _init_rf(b: np.ndarray, n_rf: int, rng: np.random.Generator,
             init_mode: str) -> np.ndarray:
    if init_mode not in ("auto", "phase_copy"):
        raise ValueError(f"unknown init mode {init_mode!r}")
    if init_mode == "auto" and n_rf >= 2 * b.shape[1]:
        return _two_phase_split_init(b, n_rf, rng)
    return _phase_copy_init(b, n_rf, rng)


def _fro_norm(m: np.ndarray) -> float:
    """``np.linalg.norm(m, "fro")`` of a complex matrix, minus the dispatch.

    The same ravel, real-part dots and square root, so the value is
    bit-identical.
    """
    v = m.ravel(order="K")
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rf_descent(x: np.ndarray, f_bb: np.ndarray, b: np.ndarray,
                scale: float) -> np.ndarray:
    """Armijo-safeguarded manifold descent on the RF entries, F_B fixed.

    Minimizes ``q(X) = ||B - X F_B||_F^2 / scale`` with ``scale = ||B||_F^2``.
    Trial steps use the Barzilai-Borwein spectral length from the previous
    accepted pair; plain steepest descent stalls well above the factorable
    floor on these strongly coupled blocks.

    Iterate arithmetic follows the module's bit-exact contract. The gradient
    is :func:`rf_objective_grad` divided by ``scale``, taken from the residual
    ``R = B - X F_B`` that the accepted Armijo trial already computed, and the
    tangent projection, BB step and retraction keep their operation order.
    ``q`` enters only comparisons.
    """
    f_bb_h = f_bb.conj().T
    resid = b - x @ f_bb
    q_cur = _fro_norm(resid) ** 2 / scale
    x_prev = grad_prev = None
    step_trial = _INITIAL_STEP
    for _ in range(_INNER_STEPS):
        grad = _residual_grad(resid, f_bb_h) / scale
        rgrad = tangent_project(grad, x)
        gnorm_sq = float((np.abs(rgrad) ** 2).sum())
        if gnorm_sq < 1e-30:
            break
        if x_prev is not None:
            s = x - x_prev
            denom = abs(float((s * (rgrad - grad_prev).conj()).real.sum()))
            if denom > 1e-300:
                step_trial = float((np.abs(s) ** 2).sum()) / denom
        step = step_trial
        for _ in range(_MAX_BACKTRACKS + 1):
            cand = retract(x - step * rgrad)
            cand_resid = b - cand @ f_bb
            q_cand = _fro_norm(cand_resid) ** 2 / scale
            if q_cand <= q_cur - _ARMIJO_C * step * gnorm_sq:
                break
            step *= _SHRINK
        else:  # no trial step passed the Armijo test
            break
        x_prev, grad_prev = x, rgrad
        drop = q_cur - q_cand
        x, resid, q_cur = cand, cand_resid, q_cand
        if drop < _INNER_REL_DROP * max(q_cur, 1e-300):
            break
    return x


def factor(b: np.ndarray, n_rf: int, settings: FactorSettings | None = None,
           rng: np.random.Generator | None = None) -> FactorResult:
    """Alternating constant-modulus factorization ``B ~ F_R F_B``.

    Serves both the transmit beamformer and each receive combiner; no power
    constraint applies here (see :func:`normalize_power`). The
    relative-residual trace is non-increasing: the manifold steps are
    Armijo-guarded and the baseband update is the exact least squares.
    """
    st = settings or FactorSettings()
    rng = rng or np.random.default_rng(0)
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 2 or b.size == 0:
        raise ValueError("empty target matrix")
    if n_rf < 1:
        raise ValueError("need at least one RF chain")
    b_norm = _fro_norm(b)
    if b_norm == 0.0:
        raise ValueError("zero target matrix")
    scale = max(b_norm ** 2, 1e-300)
    x = _init_rf(b, n_rf, rng, st.init_mode)
    f_bb = solve_baseband(x, b)
    residuals = [_fro_norm(b - x @ f_bb) / b_norm]
    alternations = 0
    if residuals[0] > _FLOOR:
        for alternations in range(1, st.max_alternations + 1):
            x_new = _rf_descent(x, f_bb, b, scale)
            f_new = solve_baseband(x_new, b)
            res = _fro_norm(b - x_new @ f_new) / b_norm
            prev = residuals[-1]
            if res > prev:
                # Rounding plateau: keep the incumbent rather than log an uptick.
                alternations -= 1
                break
            x, f_bb = x_new, f_new
            residuals.append(res)
            if res <= _FLOOR or prev - res <= _TOL * max(prev, 1e-300):
                break
    return FactorResult(f_rf=x, f_bb=f_bb, residuals=residuals,
                        alternations=alternations)


def normalize_power(f_rf: np.ndarray, f_bb: np.ndarray, p_watts: float) -> np.ndarray:
    """Scale the baseband so ``||F_R F_B||_F^2`` meets the power budget exactly."""
    norm = float(np.linalg.norm(f_rf @ f_bb, "fro"))
    if norm == 0.0:
        raise ValueError("zero composed beamformer cannot be power-normalized")
    return (math.sqrt(p_watts) / norm) * f_bb
