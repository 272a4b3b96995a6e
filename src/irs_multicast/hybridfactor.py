"""Factor fully digital beamformers into constant-modulus RF and baseband parts.

Alternates Riemannian descent on the RF matrix entries (the complex circle
manifold, reusing the phase-optimizer's tangent projection and retraction)
with the least-squares baseband update ``F_B = pinv(F_R) B``. With at least
twice as many RF chains as target columns no alternation is needed: the
two-phase split writes an exact ``F_R`` and ``F_B`` in closed form. The same
:func:`factor` serves the transmit beamformer and every receive combiner.

Bit-exact contract, for the phase-copy start and the alternation only: the
iterates (gradient, tangent projection, Barzilai-Borwein step, retraction,
pseudo-inverse) are computed with a fixed sequence of floating-point
operations. The descent is chaotic: scaling the gradient by 1 + 1e-15 moves
rf-limited sweep rates by up to ~2e-3 relative. Work may be removed around
that sequence (a residual reused, a constant hoisted, a dispatch skipped) but
never reordered inside it. The gradient's factor -2 is folded into ``F_B^H``
once per descent: short of overflow and subnormals, a power-of-two scale
commutes with every rounding of the product, so the gradient keeps its bits.
The Armijo objective ``q`` is compared only. The closed-form split is outside
the contract: only the rate evaluation follows it, which does not amplify a
last-bit change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phaseopt import retract, tangent_project

__all__ = [
    "FactorSettings",
    "FactorResult",
    "factor",
    "normalize_power",
]


# Relative modulus spread below which the two-phase split copies a target
# column's phases instead of splitting them.
_EQUAL_MODULUS = 1e-12

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

    def __post_init__(self):
        if self.init_mode not in ("auto", "phase_copy"):
            raise ValueError(f"unknown init mode {self.init_mode!r}")


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


def _two_phase_split(b: np.ndarray, n_rf: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exact factorization ``B = F_R F_B`` in closed form when ``n_rf >= 2 * cols``.

    Every complex entry v with |v| <= 2c splits as c(e^{j(a+t)} + e^{j(a-t)})
    with a = arg v and t = arccos(|v| / 2c). With 2c the peak modulus of
    target column i, its split pair goes to RF columns i and cols+i, and
    ``F_B`` holds c at rows i and cols+i of column i; every other entry of
    ``F_B`` is zero, so the remaining RF columns keep their random draw.

    A column whose entries all have the peak modulus, to within
    ``_EQUAL_MODULUS`` relative, has t ~ 0: the pair would be two
    (near-)identical columns. Its phases alone then reproduce it, ``F_B``
    holds the peak at row i, and the partner column keeps its random draw. A
    zero column keeps both draws and a zero ``F_B`` column.
    """
    n, cols = b.shape
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n_rf)))
    mag = np.abs(b)
    peak = mag.max(axis=0)
    live = peak > 0.0
    ratio = np.clip(mag / np.where(live, peak, 1.0), 0.0, 1.0)
    split = live & (ratio.min(axis=0) < 1.0 - _EQUAL_MODULUS)
    ang = np.angle(b)
    t = np.where(split, np.arccos(ratio), 0.0)
    idx = np.arange(cols)
    x[:, idx[live]] = np.exp(1j * (ang + t))[:, live]
    x[:, cols + idx[split]] = np.exp(1j * (ang - t))[:, split]
    f_bb = np.zeros((n_rf, cols), dtype=np.complex128)
    f_bb[idx, idx] = np.where(split, peak / 2.0, peak)
    f_bb[cols + idx[split], idx[split]] = peak[split] / 2.0
    return x, f_bb


def _fro_norm(m: np.ndarray) -> float:
    """``np.linalg.norm(m, "fro")`` of a complex matrix, minus the dispatch.

    The same ravel, real-part dots and square root, so the value is
    bit-identical.
    """
    v = m.ravel(order="K")
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rf_descent(x: np.ndarray, f_bb: np.ndarray, b: np.ndarray,
                scale: float, resid: np.ndarray) -> np.ndarray:
    """Armijo-safeguarded manifold descent on the RF entries, F_B fixed.

    Minimizes ``q(X) = ||B - X F_B||_F^2 / scale`` with ``scale = ||B||_F^2``,
    starting from ``X`` and its residual ``resid = B - X F_B``.
    Trial steps use the Barzilai-Borwein spectral length from the previous
    accepted pair; plain steepest descent stalls well above the factorable
    floor on these strongly coupled blocks.

    Iterate arithmetic follows the module's bit-exact contract. The gradient
    is the Wirtinger gradient (2 d/dX*) of ``||B - X F_B||_F^2``,
    ``-2 R F_B^H``, divided by ``scale``, taken from the residual ``R`` that
    the caller (for the start) or the accepted Armijo trial already computed,
    and the tangent projection, BB step and retraction keep their operation
    order. ``q`` enters only comparisons.
    """
    # the gradient's -2, folded into F_B^H once (see the module's contract)
    f_bb_h2 = -2.0 * f_bb.conj().T
    q_cur = _fro_norm(resid) ** 2 / scale
    x_prev = grad_prev = None
    step_trial = _INITIAL_STEP
    for _ in range(_INNER_STEPS):
        grad = resid @ f_bb_h2 / scale
        rgrad = tangent_project(grad, x)
        gnorm_sq = float(np.add.reduce(np.abs(rgrad) ** 2, None))
        if gnorm_sq < 1e-30:
            break
        if x_prev is not None:
            s = x - x_prev
            denom = abs(float(np.add.reduce((s * (rgrad - grad_prev).conj()).real, None)))
            if denom > 1e-300:
                step_trial = float(np.add.reduce(np.abs(s) ** 2, None)) / denom
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
    Armijo-guarded and the baseband update is the exact least squares. When
    ``n_rf >= 2 * cols`` (``init_mode="auto"``) the closed-form split is exact
    to rounding and no alternation runs.
    """
    st = settings or FactorSettings()
    rng = rng or np.random.default_rng(0)
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 2 or b.size == 0:
        raise ValueError("empty target matrix")
    if n_rf < 1:
        raise ValueError("need at least one RF chain")
    b_norm = _fro_norm(b)
    if not 0.0 < b_norm < math.inf:   # zero, or a nan or inf entry
        raise ValueError(f"target matrix norm {b_norm!r} must be finite and > 0")
    scale = max(b_norm ** 2, 1e-300)
    if st.init_mode == "auto" and n_rf >= 2 * b.shape[1]:
        x, f_bb = _two_phase_split(b, n_rf, rng)
    else:
        x = _phase_copy_init(b, n_rf, rng)
        f_bb = np.linalg.pinv(x) @ b
    resid = b - x @ f_bb
    residuals = [_fro_norm(resid) / b_norm]
    alternations = 0
    if residuals[0] > _FLOOR:
        for alternations in range(1, st.max_alternations + 1):
            x_new = _rf_descent(x, f_bb, b, scale, resid)
            f_new = np.linalg.pinv(x_new) @ b
            r_new = b - x_new @ f_new
            res = _fro_norm(r_new) / b_norm
            prev = residuals[-1]
            if res > prev:
                # Rounding plateau: keep the incumbent rather than log an uptick.
                alternations -= 1
                break
            x, f_bb, resid = x_new, f_new, r_new
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
