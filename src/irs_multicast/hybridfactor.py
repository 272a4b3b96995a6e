"""Factor fully digital beamformers into constant-modulus RF and baseband parts.

Alternates Riemannian descent on the RF matrix entries (the complex circle
manifold, reusing the phase-optimizer's tangent projection and retraction)
with the least-squares baseband update ``F_B = pinv(F_R) B``. With at least
twice as many RF chains as target columns no alternation is needed: the
two-phase split writes an exact ``F_R`` and ``F_B`` in closed form, each
nonzero column (an equal-modulus one too) a sum of two constant-modulus
columns. The same :func:`factor` serves the transmit beamformer and the
``(K, N_U, zeta)`` stack of every receive combiner: a stack is P independent
problems of one shape, run by one engine in lockstep.

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

Stacks: every matrix of a stack gets the iterates, residual trace and stop of
a lone call on it, bit for bit, and the generator ends where P lone calls in
stack order leave it. Each matrix keeps its own step length, backtracking and
inner and outer stop; one that stops leaves the stack, which is compacted,
not masked. This rests on rules measured on numpy 2.4.6 with one BLAS thread,
each equal to its per-matrix form over 3,000 random stacks of 4: batched
``matmul``; stacked ``np.linalg.pinv``; ``np.add.reduce(x, (1, 2))``
against ``np.add.reduce(x_i, None)``; division by, and multiplication with,
a ``(P, 1, 1)`` complex array of real values against the Python float; and
one ``rng.uniform(size=(P, n, r))`` draw against P draws of ``(n, r)``. The
norms stay per matrix, and ``q`` and the Armijo scalars stay Python floats
per matrix, because their ``** 2`` is libm ``pow``, which numpy's square is
not. A target is copied once so that each of its matrices is contiguous in
its own memory order, the layout a compacted stack has, and every matrix
meets the same ``matmul`` kernel alone or stacked.

Ladders: a matrix that fails the first trial of a step tries its next
``_LADDER`` halvings at once, one broadcast ``X - t G`` over an
``(L, w, 1, 1)`` step array for the w failing matrices, one normalization
and one ``(L, w, n, r) @ (w, r, c)`` product, and walks its own rungs in
order up to the first Armijo pass; the step one halving per round would
take. This rests on three more rules. Repeated halving is exact: rung k is
built by the same k ``* 0.5`` on a Python float as k failed trials. The
broadcast ladder product equals each rung's per-matrix product, measured
like the stack rules above, over 3,000 random ladders. The gradient is
divided by ``scale`` as numpy's complex division by a real does it, by
multiplying its float64 view with the reciprocal (the phase optimizer's
rule). The retraction, :func:`phaseopt.retract`, checks nothing: a zero or
non-finite entry of a trial turns into a nan in that trial's residual norm,
and the walk, which takes a rung's norm only when it reaches the rung,
raises the ``retraction singularity`` there, as the phase descent raises
it on a nan objective. A discarded rung is never read, and the descent
runs under an ``np.errstate`` that keeps its divisions silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phaseopt import _SINGULARITY, retract, tangent_project

__all__ = [
    "FactorSettings",
    "FactorResult",
    "factor",
    "normalize_power",
]


# Stopping rules of the alternation and Armijo line search of the RF descent.
_TOL = 1e-6             # stop on relative residual change below this
_FLOOR = 1e-9           # stop outright once the relative residual is this small
_INNER_STEPS = 60
_INNER_REL_DROP = 1e-11  # end a descent once a step gains less than this, relative
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_LADDER = 6             # halvings a step that fails its first trial tries at once


@dataclass(frozen=True)
class FactorSettings:
    max_alternations: int = 100
    init_mode: str = "auto"     # "auto": two-phase split when chains allow; "phase_copy"

    def __post_init__(self):
        if self.init_mode not in ("auto", "phase_copy"):
            raise ValueError(f"unknown init mode {self.init_mode!r}")


@dataclass
class FactorResult:
    """The factors of a matrix, or of every matrix of a stack.

    For a ``(P, n, cols)`` stack, ``f_rf`` and ``f_bb`` are stacks too,
    ``residuals`` holds one trace per matrix, and ``alternations`` is the
    most any matrix ran.
    """

    f_rf: np.ndarray
    f_bb: np.ndarray
    residuals: list = field(default_factory=list)
    alternations: int = 0

    @property
    def final_residual(self) -> float:
        """The last relative residual of a lone matrix."""
        return self.residuals[-1] if self.residuals else math.inf


def _phase_copy_init(b: np.ndarray, n_rf: int, rng: np.random.Generator) -> np.ndarray:
    """Phase-copy warm start from B's leading columns, for a matrix or a
    stack; random phases fill gaps."""
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, b.shape[:-1] + (n_rf,)))
    take = min(b.shape[-1], n_rf)
    lead = b[..., :take]
    nz = np.abs(lead) > 0.0
    x[..., :take][nz] = lead[nz] / np.abs(lead[nz])
    return x


def _two_phase_split(b: np.ndarray, n_rf: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exact factorization ``B = F_R F_B`` of a matrix, or of every matrix of
    a stack, in closed form when ``n_rf >= 2 * cols``.

    Every complex entry v with |v| <= 2c splits as c(e^{j(a+t)} + e^{j(a-t)})
    with a = arg v and t = arccos(|v| / 2c). With 2c the peak modulus of
    target column i, its split pair goes to RF columns i and cols+i, and
    ``F_B`` holds c at rows i and cols+i of column i; every other entry of
    ``F_B`` is zero. An equal-modulus column has t = 0 and splits into two
    equal columns, which stays exact because ``F_B`` is written, not solved
    for. A zero column and the spare chains keep their random draw.
    """
    cols = b.shape[-1]
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, b.shape[:-1] + (n_rf,)))
    mag = np.abs(b)
    peak = mag.max(axis=-2, keepdims=True)
    live = peak > 0.0
    ang = np.angle(b)
    t = np.arccos(mag / np.where(live, peak, 1.0))   # mag <= peak: in [0, pi/2]
    pair = slice(cols, 2 * cols)
    x[..., :cols] = np.where(live, np.exp(1j * (ang + t)), x[..., :cols])
    x[..., pair] = np.where(live, np.exp(1j * (ang - t)), x[..., pair])
    idx = np.arange(cols)
    f_bb = np.zeros(b.shape[:-2] + (n_rf, cols), dtype=np.complex128)
    f_bb[..., idx, idx] = f_bb[..., cols + idx, idx] = (peak / 2.0)[..., 0, :]
    return x, f_bb


def _fro_norm(m: np.ndarray) -> float:
    """``np.linalg.norm(m, "fro")`` of a complex matrix, minus the dispatch.

    The same ravel, real-part dots and square root, so the value is
    bit-identical.
    """
    v = m.ravel(order="K")
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _fro_norms(m: np.ndarray) -> list[float]:
    """:func:`_fro_norm` of every matrix of a stack."""
    return [_fro_norm(mi) for mi in m]


# a zero or non-finite entry of a trial divides 0/0 in its normalization,
# silently; the walk raises on the trials it reaches
@np.errstate(divide="ignore", invalid="ignore")
def _rf_descent(x: np.ndarray, f_bb: np.ndarray, b: np.ndarray,
                scale: list[float], resid: np.ndarray) -> np.ndarray:
    """Armijo-safeguarded manifold descent on the RF entries of a stack, F_B fixed.

    Minimizes each ``q(X) = ||B - X F_B||_F^2 / scale`` with
    ``scale = ||B||_F^2``, starting from ``X`` and its residual
    ``resid = B - X F_B``. Trial steps use the Barzilai-Borwein spectral
    length from the previous accepted pair; plain steepest descent stalls
    well above the factorable floor on these strongly coupled blocks.

    Iterate arithmetic follows the module's bit-exact contract. The gradient
    is the Wirtinger gradient (2 d/dX*) of ``||B - X F_B||_F^2``,
    ``-2 R F_B^H``, divided by ``scale``, taken from the residual ``R`` that
    the caller (for the start) or the accepted Armijo trial already computed,
    and the tangent projection, BB step and retraction keep their operation
    order. ``q`` enters only comparisons.

    The matrices step in lockstep. Each backtracks on its own step until its
    own Armijo test passes; the retries run on those still failing only, a
    ladder of halvings per round (see the module's contract). A matrix whose
    descent ends writes its iterate to the result and leaves the stack.
    """
    out = x.copy()
    rows = np.arange(len(x))      # the row of ``out`` of each matrix still descending
    # the gradient's -2, folded into F_B^H once, and its divisors as
    # reciprocals (see the module's contract)
    f_bb_h2 = (-2.0 * f_bb.conj()).transpose(0, 2, 1)
    inv_scales = np.array([1.0 / s for s in scale]).reshape(-1, 1, 1)
    q_cur = [nrm ** 2 / s for nrm, s in zip(_fro_norms(resid), scale)]
    x_prev = grad_prev = None
    step_trial = [_INITIAL_STEP] * len(x)
    for _ in range(_INNER_STEPS):
        n_live = len(x)
        grad = resid @ f_bb_h2
        re_im = grad.view(np.float64)
        re_im *= inv_scales        # grad / scale, bit for bit
        rgrad = tangent_project(grad, x)
        gnorm_sq = np.add.reduce(np.abs(rgrad) ** 2, (1, 2)).tolist()
        if x_prev is not None:
            s = x - x_prev
            denom = np.add.reduce((s * (rgrad - grad_prev).conj()).real, (1, 2)).tolist()
            s_sq = np.add.reduce(np.abs(s) ** 2, (1, 2)).tolist()
            for i, d in enumerate(denom):
                if abs(d) > 1e-300:
                    step_trial[i] = s_sq[i] / abs(d)
        step = list(step_trial)
        q_new = [None] * n_live   # the accepted trial's q; None ends the descent
        trial = [i for i, g in enumerate(gnorm_sq) if not g < 1e-30]
        x_new = resid_new = None
        tries = _MAX_BACKTRACKS + 1   # the trials left to each matrix in ``trial``
        rungs = 1                     # the first trial alone, then ladders
        while trial and tries:
            rungs = min(rungs, tries)
            tries -= rungs
            whole = len(trial) == n_live   # no matrix has passed yet
            if whole:
                x_t, rgrad_t, b_t, f_t = x, rgrad, b, f_bb
            else:
                # a slice view for one matrix, a copy for several; either
                # keeps every matrix's layout, and so its matmul kernel
                sub = slice(trial[0], trial[0] + 1) if len(trial) == 1 else np.array(trial)
                x_t, rgrad_t, b_t, f_t = x[sub], rgrad[sub], b[sub], f_bb[sub]
            # rung k of matrix i holds step[i] halved k times, as k failed
            # trials in a row would have left it
            ladder = [[step[i] for i in trial]]
            for _ in range(rungs - 1):
                ladder.append([t * _SHRINK for t in ladder[-1]])
            if rungs > 1:
                steps = np.array(ladder, dtype=np.complex128).reshape(rungs, -1, 1, 1)
            elif len(trial) > 1:   # a lone rung keeps the stack's shape
                steps = np.array(ladder[0], dtype=np.complex128).reshape(-1, 1, 1)
            else:
                steps = ladder[0][0]
            cand = retract(x_t - steps * rgrad_t)
            cand_resid = b_t - cand @ f_t
            if rungs == 1:
                cand, cand_resid = cand[None], cand_resid[None]
            if whole:
                x_new, resid_new = cand[0], cand_resid[0]
            elif x_new is None:
                x_new, resid_new = x.copy(), resid.copy()
            failed = []
            for j, i in enumerate(trial):
                # walk the rungs in order up to the first Armijo pass; the
                # rest are discarded unread
                for k in range(rungs):
                    nrm = _fro_norm(cand_resid[k, j])
                    if math.isnan(nrm):   # a zero or non-finite entry in cand[k, j]
                        raise ValueError(_SINGULARITY)
                    q_cand = nrm ** 2 / scale[i]
                    if q_cand <= q_cur[i] - _ARMIJO_C * step[i] * gnorm_sq[i]:
                        q_new[i] = q_cand
                        if k or not whole:
                            x_new[i], resid_new[i] = cand[k, j], cand_resid[k, j]
                        break
                    step[i] *= _SHRINK
                else:
                    failed.append(i)
            trial = failed
            rungs = _LADDER
        # a vanished gradient, a failed line search or a step that gained
        # too little ends that matrix's descent
        going = []
        for i, q in enumerate(q_new):
            if q is None:
                out[rows[i]] = x[i]
                continue
            drop = q_cur[i] - q
            q_cur[i] = q
            if drop < _INNER_REL_DROP * max(q, 1e-300):
                out[rows[i]] = x_new[i]
            else:
                going.append(i)
        if not going:
            return out
        x_prev, grad_prev, x, resid = x, rgrad, x_new, resid_new
        if len(going) < n_live:
            keep = np.array(going)
            rows, x, resid, x_prev, grad_prev, f_bb, f_bb_h2, b, inv_scales = (
                a[keep] for a in (rows, x, resid, x_prev, grad_prev, f_bb, f_bb_h2, b, inv_scales))
            q_cur, step_trial, scale = ([v[i] for i in going] for v in (q_cur, step_trial, scale))
    out[rows] = x
    return out


def factor(b: np.ndarray, n_rf: int, settings: FactorSettings | None = None,
           rng: np.random.Generator | None = None) -> FactorResult:
    """Alternating constant-modulus factorization ``B ~ F_R F_B``.

    ``b`` is one ``(n, cols)`` matrix or a ``(P, n, cols)`` stack, factored as
    P lone calls in stack order would factor it (see the module's contract).
    Serves the transmit beamformer and the stack of receive combiners; no
    power constraint applies here (see :func:`normalize_power`). The
    relative-residual trace is non-increasing: the manifold steps are
    Armijo-guarded and the baseband update is the exact least squares. When
    ``n_rf >= 2 * cols`` (``init_mode="auto"``) the closed-form split is exact
    to rounding and no alternation runs.
    """
    st = settings or FactorSettings()
    rng = rng or np.random.default_rng(0)
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (2, 3) or b.size == 0:
        raise ValueError("need a nonempty target matrix or stack of matrices")
    if n_rf < 1:
        raise ValueError("need at least one RF chain")
    stack = b.reshape((-1,) + b.shape[-2:])
    # a copy whose matrices are each contiguous in their own memory order,
    # which is how every compacted stack below lays them out
    stack = stack[np.arange(len(stack))]
    b_norm = _fro_norms(stack)
    for norm in b_norm:
        if not 0.0 < norm < math.inf:   # zero, or a nan or inf entry
            raise ValueError(f"target matrix norm {norm!r} must be finite and > 0")
    scale = [max(norm ** 2, 1e-300) for norm in b_norm]
    if st.init_mode == "auto" and n_rf >= 2 * stack.shape[2]:
        x, f_bb = _two_phase_split(stack, n_rf, rng)
    else:
        x = _phase_copy_init(stack, n_rf, rng)
        f_bb = np.linalg.pinv(x) @ stack
    resid = stack - x @ f_bb
    residuals = [[r / norm] for r, norm in zip(_fro_norms(resid), b_norm)]
    alternations = 0
    act = [i for i, trace in enumerate(residuals) if trace[0] > _FLOOR]
    x_a, f_a, r_a, b_a = (a[act] for a in (x, f_bb, resid, stack))
    for it in range(1, st.max_alternations + 1):
        if not act:
            break
        x_new = _rf_descent(x_a, f_a, b_a, [scale[i] for i in act], r_a)
        f_new = np.linalg.pinv(x_new) @ b_a
        r_new = b_a - x_new @ f_new
        taken, going = [], []
        for j, (i, nrm) in enumerate(zip(act, _fro_norms(r_new))):
            res = nrm / b_norm[i]
            prev = residuals[i][-1]
            if res > prev:
                # Rounding plateau: keep the incumbent rather than log an uptick.
                alternations = max(alternations, it - 1)
                continue
            taken.append(j)
            residuals[i].append(res)
            alternations = it
            if not (res <= _FLOOR or prev - res <= _TOL * max(prev, 1e-300)):
                going.append(j)
        rows = [act[j] for j in taken]
        x[rows], f_bb[rows] = x_new[taken], f_new[taken]
        act = [act[j] for j in going]
        x_a, f_a, r_a, b_a = (a[going] for a in (x_new, f_new, r_new, b_a))
    if b.ndim == 2:
        return FactorResult(f_rf=x[0], f_bb=f_bb[0], residuals=residuals[0],
                            alternations=alternations)
    return FactorResult(f_rf=x, f_bb=f_bb, residuals=residuals, alternations=alternations)


def normalize_power(f_rf: np.ndarray, f_bb: np.ndarray, p_watts: float) -> np.ndarray:
    """Scale the baseband so ``||F_R F_B||_F^2`` meets the power budget exactly."""
    norm = float(np.linalg.norm(f_rf @ f_bb, "fro"))
    if norm == 0.0:
        raise ValueError("zero composed beamformer cannot be power-normalized")
    return (math.sqrt(p_watts) / norm) * f_bb
