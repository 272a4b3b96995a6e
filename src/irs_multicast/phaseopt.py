"""IRS phase optimization by Riemannian gradient descent on the unit-modulus manifold.

The objective is the truncated-SVD surrogate of the BD sum rate: each group's
bottleneck user contributes ``sum_i log2(1 + b_i |nu^H c^ii|^2)`` where the
coupling vectors c pair that user's strongest propagation paths with a
group-specific block of BS-side paths. Descent runs on the negated objective
with Armijo backtracking and element-wise normalization as the retraction.

Bit-exact contract: the descent is chaotic (a 1e-15 relative change of the
objective moves ~20% of full-scale sweep rates by more than 1e-9), so the
stacked objective and gradient reproduce the per-stream scalar loops they
replaced bit for bit, and tests hold them to those loops. Measured on
numpy 2.4, these rules keep them so:

- stream moduli are the builtin ``abs()`` of each Python complex, which
  equals ``np.hypot(d.real, d.imag)``; array ``np.abs`` and ``np.abs`` of a
  numpy scalar differ from it in the last bit on about 35% of entries;
- they are squared as Python floats with ``** 2`` (libm ``pow``, as for a
  numpy float scalar); ``x * x``, ``np.square`` and ``np.power(a, 2.0)``
  differ on about 0.1% of entries;
- the stream terms ``1.0 + b * s`` and the gradient's ``1.0 / den`` are
  Python floats, equal to the array forms ``1.0 + b * sq`` and
  ``1.0 / den`` they replaced;
- rates take ``math.log2`` of Python floats, summed per user in stream
  order; array ``np.log2`` differs on 0.01-0.06% of entries, depending on
  the inputs;
- numpy divides a complex array by a real one as a complex division by a
  zero imaginary part, whose algorithm (Smith's) multiplies each component
  by the divisor's reciprocal. So the gradient scales its float64 view in
  place by ``1 / den`` and the descent by ``1 / bw_hz``: the same bits
  without the complex division. Dividing each component by the divisor
  differs on about 25% of entries;
- the gradient rows are stored negated: negation commutes exactly with the
  complex product, the reciprocal scale and the axis-0 sum, so the sum of
  the negated terms is the negated sum.

``test_stream_rules_on_python_floats_equal_the_array_forms`` checks the
moduli, the terms, the reciprocals and the negated rows against their array
forms over 3,000 random draws, and ``test_real_divisor_is_the_reciprocal_product``
the reciprocal scale. The gradient terms are one stacked product in the
loops' operation order, summed over streams along axis 0, which adds them
in the loops' order too.

Each phase point is evaluated once: ``objective_f`` and ``euclidean_grad``
share one memo on the coupling set, keyed by the value of ``nu`` (dtype,
shape and bytes). It holds the stream gains, their terms and each group's
bottleneck user, so the gradient at an accepted point reuses the line
search's evaluation. The coupling set's ``c`` and ``b`` are read-only, so
neither the memo nor the stored gradient rows can outlive them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, SystemConfig
from .signalmodel import _check_layout, stream_snr_scale, validate_groups

__all__ = [
    "CouplingSet",
    "TraceRow",
    "OptimizeResult",
    "coupling_vectors",
    "sigma_approx",
    "objective_f",
    "euclidean_grad",
    "tangent_project",
    "retract",
    "optimize_phases",
]

LN2 = math.log(2.0)
# Distance from the unit circle within which retract() leaves an entry as is.
_CIRCLE_TOL = 4.0 * np.finfo(float).eps
# What a descent raises on a nan that retract() made.
_SINGULARITY = "retraction singularity: zero-magnitude or non-finite entry"

# Bare ufuncs and reductions of the per-iteration arithmetic, looked up once.
_abs, _where, _add_reduce = np.abs, np.where, np.add.reduce

# Stopping rule and Armijo line search of the phase descent.
_TOL = 1e-6             # stop on relative objective change below this
_MAX_ITERS = 500
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class CouplingSet:
    """Coupling data of every user, stacked so that row k belongs to user k.

    ``c[k, i]`` is the pure steering product conj(a_dep,i) * a_arr,j of user
    k's i-th strongest path and its paired BS-side path j, the sorted
    BS-side path h*zeta+i of k's group h (the group-blocked pairing), so
    ``nu^H c[k, i]`` is the paper-style d_ii. ``gain[k, i]`` is that pair's
    effective gain product alpha_j beta_i, with the channel scale prefactors
    and antenna gains; ``b`` is its squared modulus at the stream SNR scale.
    ``c`` and ``b`` are stored as read-only copies.
    """

    c: np.ndarray              # (K, zeta, M)
    b: np.ndarray              # (K, zeta) SINR scale factors
    gain: np.ndarray           # (K, zeta) paired effective gains alpha_j beta_i
    zeta: int
    bw_hz: float
    groups: tuple              # the config's layout, cfg.groups()
    # The last [key, value] of _evaluate: the descent evaluates each accepted
    # point twice, by objective_f in the line search and by euclidean_grad at
    # the next iteration. Keyed by the value of nu, never by its id; c, b and
    # bw_hz are fixed per set, and dataclasses.replace starts a new memo.
    _memo: list = field(default_factory=lambda: [None, None], init=False,
                        repr=False, compare=False)
    # euclidean_grad's rows per tuple of bottleneck users: the flat stream
    # index and the negated gradient coefficients -bw_hz * (2 b / ln 2) * c,
    # each entry the loops' product, formed once per coupling set and users.
    _grad_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the memo and the gradient rows read c and b, so neither may change
        for name in ("c", "b"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def coupling_vectors(chset: ChannelSet, cfg: SystemConfig, groups=None) -> CouplingSet:
    """Build the stacked coupling vectors and SINR scales from the path gains
    and the paths' IRS steering stacks.

    Group h pairs its i-th diagonal stream with the sorted BS-side path
    h*zeta+i, so different groups align onto disjoint BS-side directions.
    """
    group_of = validate_groups(groups, cfg)
    zeta = cfg.zeta
    y, ell = cfg.paths_y, cfg.paths_l
    if cfg.h_groups * zeta > y:
        raise ValueError(
            f"group-blocked pairing needs Y >= H*zeta ({cfg.h_groups * zeta}), got Y={y}")
    bs, up = chset.bs_paths, chset.ue_paths
    alpha = cfg.g_tx_lin * math.sqrt(cfg.n_bs * cfg.n_irs / y) * bs.gains
    order_a = np.argsort(-np.abs(alpha), kind="stable")
    alpha_sorted = alpha[order_a]
    arr_vecs = bs.a_irs[order_a[:cfg.h_groups * zeta]]
    beta = cfg.g_rx_lin * math.sqrt(cfg.n_irs * cfg.n_ue / ell) * up.gains
    order_b = np.argsort(-np.abs(beta), axis=1, kind="stable")
    beta_sorted = np.take_along_axis(beta, order_b, axis=1)
    dep_vecs = np.take_along_axis(up.a_irs, order_b[:, :zeta, None], axis=1)
    cols = group_of[:, None] * zeta + np.arange(zeta)
    gain = alpha_sorted[cols] * beta_sorted[:, :zeta]
    b = stream_snr_scale(cfg)[:, None] * np.abs(gain) ** 2
    return CouplingSet(c=np.conj(dep_vecs) * arr_vecs[cols], b=b, gain=gain, zeta=zeta,
                       bw_hz=cfg.bw_hz, groups=cfg.groups())


def _stream_gains(coupling: CouplingSet, nu: np.ndarray) -> np.ndarray:
    """Unscaled stream gains ``nu^H c[k, i]``, (K, zeta)."""
    return np.vecdot(nu, coupling.c)


def sigma_approx(coupling: CouplingSet, nu: np.ndarray) -> np.ndarray:
    """Diagonal approximation of the projected singular values, (K, zeta).

    Entry (k, i) is ``gain[k, i] nu^H c[k, i]``, the paired gain product
    alpha_j beta_i times the stream gain; its modulus approximates the i-th
    entry of the projected channel's singular spectrum.
    """
    return coupling.gain * _stream_gains(coupling, nu)


def _stream_rates(b: np.ndarray, d: np.ndarray) -> tuple[list, list]:
    """The terms ``1 + b |d|^2`` (a flat, row-major list of Python floats)
    and each row's rate in bit/s/Hz, ``sum_i log2(term_i)`` summed in stream
    order."""
    terms = [1.0 + bi * abs(z) ** 2 for bi, z in zip(b.ravel().tolist(), d.ravel().tolist())]
    width = d.shape[-1]
    rates = []
    for start in range(0, len(terms), width):
        rate = 0.0
        for t in terms[start:start + width]:
            rate += math.log2(t)
        rates.append(rate)
    return terms, rates


def _pick(groups, rates: list[float]) -> list[tuple[int, float]]:
    """Per group: (bottleneck user, its rate); ties go to the first member."""
    out = []
    for members in groups:
        k = members[0] if len(members) == 1 else min(members, key=rates.__getitem__)
        out.append((k, rates[k]))
    return out


def _evaluate(coupling: CouplingSet, nu: np.ndarray) -> tuple:
    """The stream gains ``d`` (K, zeta) at ``nu``, the flat terms
    ``1 + b |d|^2``, each group's bottleneck user and the sum of their rates.

    The layout is the coupling set's, which every caller has checked. The
    result is shared with the next call on an equal ``nu``; callers only
    read it.
    """
    memo = coupling._memo
    key = (nu.dtype, nu.shape, nu.tobytes())
    if key == memo[0]:
        return memo[1]
    d = _stream_gains(coupling, nu)
    d.flags.writeable = False
    terms, rates = _stream_rates(coupling.b, d)
    picks = _pick(coupling.groups, rates)
    value = d, terms, tuple([k for k, _ in picks]), sum(rate for _, rate in picks)
    memo[:] = key, value
    return value


def objective_f(coupling: CouplingSet, nu: np.ndarray, groups) -> float:
    """Negated approximate sum rate (bit/s): the quantity descent minimizes."""
    _check_layout(groups, coupling.groups)
    return -coupling.bw_hz * _evaluate(coupling, nu)[3]


def euclidean_grad(coupling: CouplingSet, nu: np.ndarray, groups) -> np.ndarray:
    """Wirtinger gradient (2 d/d nu*) of ``objective_f`` at ``nu``.

    Only each group's current bottleneck user contributes (subgradient of the
    min); C^ii nu is evaluated through the rank-1 structure c (c^H nu).
    """
    _check_layout(groups, coupling.groups)
    d, terms, users, _ = _evaluate(coupling, nu)
    rows = coupling._grad_rows.get(users)
    if rows is None:
        flat = [k * coupling.zeta + i for k in users for i in range(coupling.zeta)]
        b_sel = coupling.b[list(users)].ravel()
        coef = coupling.bw_hz * (2.0 * b_sel / LN2)
        gc = coef[:, None] * coupling.c[list(users)].reshape(len(flat), -1)
        rows = coupling._grad_rows[users] = flat, np.array(flat), np.negative(gc)
    flat, idx, neg_gc = rows
    out = neg_gc * np.conj(d.take(idx))[:, None]
    re_im = out.view(np.float64)
    re_im *= np.array([1.0 / terms[j] for j in flat])[:, None]    # / den, bit for bit
    return _add_reduce(out, 0)


def tangent_project(grad: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Project onto the tangent space: g - Re{g o nu*} o nu."""
    if grad.shape != nu.shape:
        raise ValueError("gradient and phase vector lengths differ")
    return grad - (grad * nu.conj()).real * nu


def retract(nu_bar: np.ndarray) -> np.ndarray:
    """Element-wise normalization back onto the unit-modulus manifold.

    Entries already on the circle to within a few ulp pass through unchanged,
    which makes the retraction exactly idempotent. A zero or non-finite
    entry comes out nan; numpy warns unless the caller's ``np.errstate``
    ignores invalid divisions, as both descents' does. A tangent step from
    the circle has modulus at least 1, so only a non-finite start or
    gradient makes one, and each descent raises a ``retraction
    singularity`` on the nan in the value it compares: ``optimize_phases``
    in f, the RF descent in a reached trial's residual norm.
    """
    mags = _abs(nu_bar)
    on_circle = _abs(mags - 1.0) <= _CIRCLE_TOL
    return _where(on_circle, nu_bar, nu_bar / mags)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    f_value: float
    step_size: float
    grad_norm: float
    backtracks: int


@dataclass
class OptimizeResult:
    nu: np.ndarray
    f_value: float
    iterations: int
    trace: list[TraceRow] = field(default_factory=list)
    converged: bool = False


@np.errstate(divide="ignore", invalid="ignore")
def optimize_phases(coupling: CouplingSet, nu0: np.ndarray) -> OptimizeResult:
    """Armijo-backtracked Riemannian descent from ``nu0``, on the coupling
    set's group layout.

    The line search runs on the bandwidth-normalized objective so the unit
    initial step is meaningful; reported f values carry the bandwidth back.
    Returns the last accepted iterate; the f trace is non-increasing. A
    zero or non-finite entry of ``nu0`` or of a trial raises a ``retraction
    singularity`` ValueError on the nan it leaves in f (see :func:`retract`).
    """
    groups = coupling.groups
    nu = retract(np.asarray(nu0, dtype=np.complex128))
    w = coupling.bw_hz
    inv_w = 1.0 / w
    f_cur = objective_f(coupling, nu, groups) / w
    if math.isnan(f_cur):
        raise ValueError(_SINGULARITY)
    trace: list[TraceRow] = []
    converged = False
    nu_prev = rgrad_prev = None
    step_trial = _INITIAL_STEP
    for iteration in range(1, _MAX_ITERS + 1):
        grad = euclidean_grad(coupling, nu, groups)
        re_im = grad.view(np.float64)
        re_im *= inv_w    # grad / w, bit for bit
        rgrad = grad - (grad * nu.conj()).real * nu    # tangent_project, inline
        gnorm_sq = float(_add_reduce(_abs(rgrad) ** 2, None))
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
            denom = abs(float(_add_reduce((s * np.conj(y)).real, None)))
            if denom > 1e-300:
                step_trial = float(_add_reduce(_abs(s) ** 2, None)) / denom
        step = step_trial
        accepted = False
        f_new = f_cur
        backtracks = 0
        for backtracks in range(_MAX_BACKTRACKS + 1):
            cand = retract(nu - step * rgrad)
            f_cand = objective_f(coupling, cand, groups) / w
            if f_cand <= f_cur - _ARMIJO_C * step * gnorm_sq:
                accepted = True
                f_new = f_cand
                break
            if math.isnan(f_cand):
                raise ValueError(_SINGULARITY)
            step *= _SHRINK
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
        if rel_change < _TOL:
            converged = True
            break
    return OptimizeResult(nu=nu, f_value=f_cur * w, iterations=len(trace),
                          trace=trace, converged=converged)

