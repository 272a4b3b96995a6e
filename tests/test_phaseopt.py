import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_multicast import channel as ch
from irs_multicast import harness
from irs_multicast import phaseopt as po
from irs_multicast.signalmodel import stream_snr_scale

from conftest import CONFIG_DIR, user_paths


def single_user_cfg(desk_cfg, zeta=1):
    return dataclasses.replace(desk_cfg, k_users=1, h_groups=1, group_sizes=(1,),
                               zeta=zeta, m_bs=max(4, 2 * zeta), m_ue=max(4, 2 * zeta))


def make_coupling(cfg, seed):
    rng = np.random.default_rng(seed)
    chset = ch.generate_channels(cfg, rng)
    return chset, po.coupling_vectors(chset, cfg, cfg.groups()), rng


def unit_phases(m, rng):
    return np.exp(-1j * rng.uniform(0, 2 * np.pi, m))


# ---------------------------------------------------------------------------
# Coupling construction
# ---------------------------------------------------------------------------

def effective_gains(cfg, chset, k):
    """User k's (user-side, BS-side) effective path gains, unsorted."""
    alpha = cfg.g_tx_lin * math.sqrt(cfg.n_bs * cfg.n_irs / cfg.paths_y) * chset.bs_paths.gains
    beta = cfg.g_rx_lin * math.sqrt(cfg.n_irs * cfg.n_ue / cfg.paths_l) \
        * user_paths(chset)[k].gains
    return beta, alpha


def sorted_paths(cfg, chset, k):
    """User k's (user-side, BS-side) effective gains and IRS steering
    vectors, each pair sorted by descending gain modulus."""
    def by_gain(paths, gains):
        order = np.argsort(-np.abs(gains), kind="stable")
        return gains[order], [ch.upa_response(paths.az_irs[i], paths.el_irs[i], cfg.f_y,
                                              cfg.f_z) for i in order]
    beta, alpha = effective_gains(cfg, chset, k)
    return by_gain(user_paths(chset)[k], beta), by_gain(chset.bs_paths, alpha)


def paired_cols(cfg, k):
    """The sorted BS-side paths that user k's streams pair with: the block
    h*zeta, ..., h*zeta+zeta-1 of its group h."""
    h = next(h for h, members in enumerate(cfg.groups()) if k in members)
    return np.arange(h * cfg.zeta, (h + 1) * cfg.zeta)


def test_coupling_identity_with_reflection_matrix(desk_cfg):
    # nu^H c[i] must reproduce a_dep,i^H Phi a_arr,j for the paired path j
    chset, cs, rng = make_coupling(desk_cfg, 0)
    nu = unit_phases(desk_cfg.n_irs, rng)
    phi = np.diag(np.conj(nu))
    for k, ck in enumerate(cs.c):
        (_, dep), (_, arr) = sorted_paths(desk_cfg, chset, k)
        for i, j in enumerate(paired_cols(desk_cfg, k)):
            direct = dep[i].conj() @ phi @ arr[j]
            assert abs(direct - np.conj(nu) @ ck[i]) < 1e-12


def test_coupling_rows_are_paired_steering_products(multiuser_cfg):
    chset, cs, _ = make_coupling(multiuser_cfg, 3)
    assert cs.c.shape == (multiuser_cfg.k_users, multiuser_cfg.zeta, multiuser_cfg.n_irs)
    for k in range(multiuser_cfg.k_users):
        (_, dep), (_, arr) = sorted_paths(multiuser_cfg, chset, k)
        for i, j in enumerate(paired_cols(multiuser_cfg, k)):
            np.testing.assert_array_equal(cs.c[k, i], np.conj(dep[i]) * arr[j])


def test_coupling_zero_angles_constant_vector(desk_cfg):
    m = desk_cfg.n_irs
    a = ch.upa_response(0.0, 0.0, desk_cfg.f_y, desk_cfg.f_z)
    c = np.conj(a) * a
    np.testing.assert_allclose(c, np.full(m, 1.0 / m), atol=1e-15)


def test_coupling_entry_magnitudes(desk_cfg):
    # every entry of a paired steering product has modulus 1/M
    _, cs, _ = make_coupling(desk_cfg, 1)
    m = desk_cfg.n_irs
    np.testing.assert_allclose(np.abs(cs.c), 1.0 / m, rtol=1e-12)


def test_coupling_outer_products_rank_one_psd(desk_cfg):
    _, cs, rng = make_coupling(desk_cfg, 42)
    for i in range(cs.zeta):
        c = cs.c[0, i]
        cc = np.outer(c, c.conj())
        np.testing.assert_allclose(cc, cc.conj().T, atol=1e-15)
        eigs = np.linalg.eigvalsh(cc)
        assert eigs.min() > -1e-15
        assert np.sum(eigs > 1e-12 * eigs.max()) == 1
        # the quadratic form is |nu^H c|^2, hence non-negative for any nu
        nu = unit_phases(desk_cfg.n_irs, rng)
        assert np.real(np.conj(nu) @ cc @ nu) >= 0.0


def test_coupling_group_blocked_pairing(multiuser_cfg):
    # stream i of a user in group h pairs the user's i-th strongest path with
    # the sorted BS-side path h*zeta+i
    chset, cs, _ = make_coupling(multiuser_cfg, 2)
    zeta = multiuser_cfg.zeta
    assert multiuser_cfg.h_groups == 2
    for h, members in enumerate(multiuser_cfg.groups()):
        cols = np.arange(h * zeta, (h + 1) * zeta)
        for k in members:
            (beta, _), (alpha, _) = sorted_paths(multiuser_cfg, chset, k)
            np.testing.assert_array_equal(cs.gain[k], alpha[cols] * beta[:zeta])


def test_coupling_b_nonnegative_and_gain_sorted(desk_cfg):
    chset, cs, _ = make_coupling(desk_cfg, 4)
    assert cs.b.shape == cs.gain.shape == (desk_cfg.k_users, desk_cfg.zeta)
    assert np.all(cs.b >= 0)
    scale = stream_snr_scale(desk_cfg)
    assert np.array_equal(cs.b, scale[:, None] * np.abs(cs.gain) ** 2)
    # |gain[k, i]| is the i-th largest user-side modulus of user k times the
    # paired BS-side modulus in descending order, sorted here by value alone
    for k in range(desk_cfg.k_users):
        beta, alpha = effective_gains(desk_cfg, chset, k)
        beta_desc, alpha_desc = -np.sort(-np.abs(beta)), -np.sort(-np.abs(alpha))
        expected = alpha_desc[paired_cols(desk_cfg, k)] * beta_desc[:desk_cfg.zeta]
        np.testing.assert_allclose(np.abs(cs.gain[k]), expected, rtol=1e-14)


def test_coupling_blocked_needs_enough_bs_paths(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, paths_y=3)
    chset = ch.generate_channels(cfg, np.random.default_rng(6))
    with pytest.raises(ValueError, match="H\\*zeta"):
        po.coupling_vectors(chset, cfg)


# ---------------------------------------------------------------------------
# Approximation and objective
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["desk", "desk_multiuser", "full_scale"])
def test_sigma_approx_equals_the_per_entry_loop(preset):
    # the one array product alpha_j beta_i nu^H c rounds apart from the
    # scalar loop it replaced only in the last bits
    cfg = ch.load_config(CONFIG_DIR / f"{preset}.json")
    for seed in range(4):
        chset, cs, rng = make_coupling(cfg, 340 + seed)
        nu = unit_phases(cfg.n_irs, rng)
        want = np.empty((cfg.k_users, cfg.zeta), dtype=np.complex128)
        for k in range(cfg.k_users):
            (beta, _), (alpha, _) = sorted_paths(cfg, chset, k)
            for i, j in enumerate(paired_cols(cfg, k)):
                want[k, i] = alpha[j] * beta[i] * (np.conj(nu) @ cs.c[k, i])
        np.testing.assert_allclose(po.sigma_approx(cs, nu), want, rtol=1e-15, atol=0)


def test_sigma_approx_alignment_extremes(desk_cfg):
    cfg = single_user_cfg(desk_cfg)
    _, cs, _ = make_coupling(cfg, 7)
    c = cs.c[0, 0]
    gain = abs(cs.gain[0, 0])
    nu_aligned = np.exp(1j * np.angle(c))
    d = po.sigma_approx(cs, nu_aligned)[0]
    assert math.isclose(abs(d[0]), gain * np.sum(np.abs(c)), rel_tol=1e-12)
    # alternating sign flips cancel the equal-magnitude entries exactly
    signs = np.where(np.arange(c.size) % 2 == 0, 1.0, -1.0)
    d0 = po.sigma_approx(cs, signs * nu_aligned)[0]
    assert abs(d0[0]) < 1e-12 * gain


def test_objective_zero_when_orthogonal(desk_cfg):
    cfg = single_user_cfg(desk_cfg)
    _, cs, _ = make_coupling(cfg, 8)
    c = cs.c[0, 0]
    signs = np.where(np.arange(c.size) % 2 == 0, 1.0, -1.0)
    nu = signs * np.exp(1j * np.angle(c))
    assert abs(po.objective_f(cs, nu, cfg.groups())) < 1e-6


def test_objective_single_term_formula(desk_cfg):
    cfg = single_user_cfg(desk_cfg)
    _, cs, rng = make_coupling(cfg, 9)
    nu = unit_phases(cfg.n_irs, rng)
    d = np.conj(nu) @ cs.c[0, 0]
    expected = -cfg.bw_hz * math.log2(1.0 + cs.b[0, 0] * abs(d) ** 2)
    assert math.isclose(po.objective_f(cs, nu, cfg.groups()), expected, rel_tol=1e-12)


def test_objective_global_phase_invariant(desk_cfg):
    _, cs, rng = make_coupling(desk_cfg, 10)
    nu = unit_phases(desk_cfg.n_irs, rng)
    f0 = po.objective_f(cs, nu, desk_cfg.groups())
    f1 = po.objective_f(cs, np.exp(1j * 0.73) * nu, desk_cfg.groups())
    assert abs(f0 - f1) <= 1e-10 * abs(f0)


def test_gradient_matches_finite_differences(desk_cfg):
    groups = desk_cfg.groups()
    step = 1e-6
    for seed in range(5):
        _, cs, rng = make_coupling(desk_cfg, 20 + seed)
        nu = unit_phases(desk_cfg.n_irs, rng)
        grad = po.euclidean_grad(cs, nu, groups)
        fd = np.zeros_like(grad)
        for m in range(desk_cfg.n_irs):
            e = np.zeros(desk_cfg.n_irs, dtype=complex)
            e[m] = step
            fr = (po.objective_f(cs, nu + e, groups)
                  - po.objective_f(cs, nu - e, groups)) / (2 * step)
            e[m] = 1j * step
            fi = (po.objective_f(cs, nu + e, groups)
                  - po.objective_f(cs, nu - e, groups)) / (2 * step)
            fd[m] = fr + 1j * fi
        assert np.linalg.norm(fd - grad) < 1e-5 * np.linalg.norm(grad)


def test_gradient_uses_bottleneck_user(multiuser_cfg):
    _, cs, rng = make_coupling(multiuser_cfg, 26)
    groups = multiuser_cfg.groups()
    nu = unit_phases(multiuser_cfg.n_irs, rng)
    grad = po.euclidean_grad(cs, nu, groups)
    picks = _bottlenecks(cs, po._stream_gains(cs, nu), groups)
    manual = np.zeros_like(nu)
    for (k, rate), members in zip(picks, groups):
        rates = {j: sum(math.log2(1 + cs.b[j, i] * abs(np.conj(nu) @ cs.c[j, i]) ** 2)
                        for i in range(cs.zeta)) for j in members}
        assert k == min(members, key=rates.get)
        assert math.isclose(rate, rates[k], rel_tol=1e-12)
        for i in range(cs.zeta):
            c, b = cs.c[k, i], cs.b[k, i]
            d = np.conj(nu) @ c
            manual -= cs.bw_hz * (2 * b / math.log(2)) * c * np.conj(d) / (1 + b * abs(d) ** 2)
    np.testing.assert_allclose(grad, manual, rtol=1e-12)


@pytest.mark.parametrize("groups", [((0, 1, 2, 3),), ((0, 2), (1, 3)), ((0, 9), (1, 3)),
                                    ((1, 0), (3, 2))])
@pytest.mark.parametrize("call", [po.objective_f, po.euclidean_grad],
                         ids=["objective_f", "euclidean_grad"])
def test_phase_functions_refuse_a_layout_other_than_the_coupling_sets(multiuser_cfg,
                                                                      call, groups):
    # the coupling set's scales and stream pairing hold for ((0, 1), (2, 3))
    # only; any other layout took group minima over the wrong users, or
    # indexed past the users
    _, cs, rng = make_coupling(multiuser_cfg, 0)
    assert cs.groups == ((0, 1), (2, 3))
    nu = unit_phases(multiuser_cfg.n_irs, rng)
    with pytest.raises(ValueError, match="not the config's layout"):
        call(cs, nu, groups)
    # the same members in the same order, as lists, are its layout
    assert call(cs, nu, [[0, 1], [2, 3]]) is not None


# ---------------------------------------------------------------------------
# Manifold operations
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 64))
def test_tangent_projection_properties(seed, m):
    rng = np.random.default_rng(seed)
    nu = np.exp(-1j * rng.uniform(0, 2 * np.pi, m))
    g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    t = po.tangent_project(g, nu)
    assert np.max(np.abs(np.real(t * np.conj(nu)))) < 1e-12 * max(1.0, np.max(np.abs(g)))
    np.testing.assert_allclose(po.tangent_project(t, nu), t, atol=1e-12)


def test_tangent_projection_kills_radial_direction():
    rng = np.random.default_rng(0)
    nu = np.exp(-1j * rng.uniform(0, 2 * np.pi, 8))
    radial = rng.standard_normal(8) * nu
    assert np.max(np.abs(po.tangent_project(radial, nu))) < 1e-12


def test_retract_examples():
    out = po.retract(np.array([2.0 + 0j, 0.5j]))
    np.testing.assert_allclose(out, np.array([1.0, 1j]), atol=1e-15)
    nu = np.exp(1j * np.linspace(0, 3, 7))
    np.testing.assert_allclose(po.retract(nu), nu, atol=1e-15)


SINGULAR = [0.0, math.nan, math.inf, complex(math.nan, 1.0), complex(1.0, -math.inf)]


@pytest.mark.parametrize("bad", SINGULAR)
def test_retract_turns_zero_and_non_finite_entries_into_nan(bad):
    # nothing is checked: the nan reaches the descent that retracted it
    for nu_bar in (np.array([bad, 2.0 + 0j]),
                   np.array([[1.0, 1j], [bad, 2.0]], dtype=np.complex128)):
        with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            out = po.retract(nu_bar)
        assert np.isnan(out.flat[-2]) and abs(out.flat[-1]) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 64))
def test_retract_unit_modulus_and_idempotent(seed, m):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v[np.abs(v) < 1e-3] = 1.0
    out = po.retract(v)
    assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-14
    np.testing.assert_array_equal(po.retract(out), out)


@pytest.mark.parametrize("bad", SINGULAR)
def test_descent_raises_on_a_singular_start(desk_cfg, monkeypatch, bad):
    # on the start's objective, before a gradient of nans is formed
    _, cs, rng = make_coupling(desk_cfg, 0)
    nu0 = unit_phases(desk_cfg.n_irs, rng)
    nu0[5] = bad
    monkeypatch.setattr(po, "euclidean_grad", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="retraction singularity"):
            po.optimize_phases(cs, nu0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("iteration", [1, 3])
def test_descent_raises_on_a_singular_trial(desk_cfg, monkeypatch, bad, iteration):
    # a non-finite gradient makes every trial of its step singular
    _, cs, rng = make_coupling(desk_cfg, 0)
    grad, calls = po.euclidean_grad, []

    def corrupt(coupling, nu, groups):
        calls.append(None)
        out = grad(coupling, nu, groups)
        if len(calls) == iteration:
            out[3] = bad
        return out

    monkeypatch.setattr(po, "euclidean_grad", corrupt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="retraction singularity"):
            po.optimize_phases(cs, unit_phases(desk_cfg.n_irs, rng))
    assert len(calls) == iteration


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_optimizer_stationary_start_takes_no_steps(desk_cfg):
    cfg = single_user_cfg(desk_cfg)
    _, cs, _ = make_coupling(cfg, 30)
    # the phase-aligned point maximizes |nu^H c|: the Riemannian gradient
    # vanishes there and the optimizer must return immediately
    nu_star = po.retract(np.exp(1j * np.angle(cs.c[0, 0])))
    res = po.optimize_phases(cs, nu_star)
    assert res.iterations == 0
    assert res.converged
    np.testing.assert_array_equal(res.nu, nu_star)


def test_optimizer_reaches_alignment_optimum(desk_cfg):
    cfg = single_user_cfg(desk_cfg)
    for seed in range(3):
        _, cs, rng = make_coupling(cfg, 31 + seed)
        nu0 = unit_phases(cfg.n_irs, rng)
        res = po.optimize_phases(cs, nu0)
        c = cs.c[0, 0]
        achieved = abs(np.conj(res.nu) @ c)
        assert achieved >= 0.99 * np.sum(np.abs(c))


def test_optimizer_trace_monotone_and_capped(desk_cfg):
    _, cs, rng = make_coupling(desk_cfg, 35)
    nu0 = unit_phases(desk_cfg.n_irs, rng)
    res = po.optimize_phases(cs, nu0)
    assert res.iterations <= 500
    f = np.array([row.f_value for row in res.trace])
    assert np.all(np.diff(f) <= 0)
    assert np.max(np.abs(np.abs(res.nu) - 1.0)) <= 1e-12


def test_optimizer_converges_within_tens_of_iterations(desk_cfg):
    # figure-style convergence: the bulk of the objective drop lands within
    # the first dozens of iterations at desk scale
    for seed in (36, 37, 38):
        _, cs, rng = make_coupling(desk_cfg, seed)
        nu0 = unit_phases(desk_cfg.n_irs, rng)
        res = po.optimize_phases(cs, nu0)
        f = np.array([row.f_value for row in res.trace])
        f0 = po.objective_f(cs, nu0, desk_cfg.groups())
        total_drop = f0 - f[-1]
        assert total_drop > 0
        k95 = int(np.argmax(f <= f0 - 0.95 * total_drop)) + 1
        assert k95 <= 50


def test_optimizer_writes_trace_csv(desk_cfg):
    rec = harness.run_proposed(desk_cfg, np.random.default_rng(37), seed=37)
    lines = harness.trace_csv_text([rec]).splitlines()
    assert lines[0] == "seed,baseline,sweep_value,iter,f_value,step_size,grad_norm,backtracks"
    assert len(lines) == len(rec.trace) + 1 == rec.s1_iters + 1
    assert lines[1].startswith("37,proposed,0.0,1,")


def test_offdiag_small_relative_to_diagonal_after_optimization(desk_cfg):
    # optimized phases concentrate on the paired couplings; the remaining
    # cross couplings |nu^H c_ij| (unpaired user path i, BS path j) stay
    # near the 1/sqrt(M) incoherent level
    diag_mags, off_mags = [], []
    for seed in range(5):
        chset, cs, rng = make_coupling(desk_cfg, 50 + seed)
        nu0 = unit_phases(desk_cfg.n_irs, rng)
        res = po.optimize_phases(cs, nu0)
        off = 0.0
        for k in range(desk_cfg.k_users):
            (_, dep), (_, arr) = sorted_paths(desk_cfg, chset, k)
            d = np.abs((np.conj(dep) * np.conj(res.nu)) @ np.transpose(arr))
            d[np.arange(cs.zeta), paired_cols(desk_cfg, k)] = 0.0
            off = max(off, float(d.max()))
        off_mags.append(off)
        diag_mags.append(np.max(np.abs(po.sigma_approx(cs, res.nu)[:, 0] / cs.gain[:, 0])))
    assert np.mean(off_mags) < np.mean(diag_mags)


# ---------------------------------------------------------------------------
# Bit-exact kernels: the per-stream loops they replaced, kept as oracles
# ---------------------------------------------------------------------------

def _reference_stream_gains(coupling, nu):
    d = np.empty(coupling.b.shape, dtype=np.complex128)
    nu_h = np.conj(nu)
    for k, ck in enumerate(coupling.c):
        for i in range(coupling.zeta):
            d[k, i] = nu_h @ ck[i]
    return d


def _bottlenecks(coupling, d, groups):
    """Per group: (bottleneck user, its rate) as objective_f picks them."""
    return po._pick(groups, po._stream_rates(coupling.b, d)[1])


def _reference_bottlenecks(coupling, d, groups):
    out = []
    for members in groups:
        rates = []
        for k in members:
            rate = 0.0
            for i in range(coupling.zeta):
                rate += math.log2(1.0 + coupling.b[k, i] * abs(d[k, i]) ** 2)
            rates.append((rate, k))
        rate, k = min(rates)
        out.append((k, rate))
    return out


def _reference_objective(coupling, nu, groups):
    d = _reference_stream_gains(coupling, nu)
    return -coupling.bw_hz * sum(rate for _, rate in _reference_bottlenecks(coupling, d, groups))


def _reference_grad(coupling, nu, groups):
    d = _reference_stream_gains(coupling, nu)
    grad = np.zeros_like(nu)
    for k, _ in _reference_bottlenecks(coupling, d, groups):
        b = coupling.b[k]
        for i in range(coupling.zeta):
            grad -= coupling.bw_hz * (2.0 * b[i] / po.LN2) * coupling.c[k, i] \
                * np.conj(d[k, i]) / (1.0 + b[i] * abs(d[k, i]) ** 2)
    return grad


def assert_kernels_match_reference(cs, nu, groups):
    d = po._stream_gains(cs, nu)
    assert np.array_equal(d, _reference_stream_gains(cs, nu))
    assert _bottlenecks(cs, d, groups) == _reference_bottlenecks(cs, d, groups)
    assert po.objective_f(cs, nu, groups) == _reference_objective(cs, nu, groups)
    assert np.array_equal(po.euclidean_grad(cs, nu, groups), _reference_grad(cs, nu, groups))


@pytest.mark.parametrize("preset", ["desk", "desk_multiuser", "full_scale"])
def test_kernels_bit_identical_to_reference_loops(preset):
    cfg = ch.load_config(CONFIG_DIR / f"{preset}.json")
    groups = cfg.groups()
    for seed in range(8):
        _, cs, rng = make_coupling(cfg, 300 + seed)
        for _ in range(3):
            assert_kernels_match_reference(cs, unit_phases(cfg.n_irs, rng), groups)
        # and along a descent, where the bottleneck picks move
        res = po.optimize_phases(cs, unit_phases(cfg.n_irs, rng))
        assert_kernels_match_reference(cs, res.nu, groups)


def test_kernels_bit_identical_on_a_planted_tie(multiuser_cfg):
    # users 0 and 1 share their coupling, so their rates tie exactly and the
    # bottleneck goes to the lower index
    _, cs, rng = make_coupling(multiuser_cfg, 310)
    c, b = cs.c.copy(), cs.b.copy()
    c[1], b[1] = c[0], b[0]
    cs = dataclasses.replace(cs, c=c, b=b)
    nu = unit_phases(multiuser_cfg.n_irs, rng)
    groups = multiuser_cfg.groups()
    assert _bottlenecks(cs, po._stream_gains(cs, nu), groups)[0][0] == 0
    assert_kernels_match_reference(cs, nu, groups)


def test_stream_rates_bit_identical_on_many_gains(desk_cfg):
    # enough entries that a last-bit difference in |d|, its square or the
    # log shows: each differs on 0.01-35% of entries when done array-wide
    _, cs, rng = make_coupling(desk_cfg, 320)
    shape = (5000, 4)
    d = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * rng.uniform(0, 3, shape)
    cs = dataclasses.replace(cs, b=rng.uniform(0.0, 1e3, shape))
    terms, rates = po._stream_rates(cs.b, d)
    terms = np.reshape(terms, shape)
    for k in range(shape[0]):
        rate = 0.0
        for i in range(shape[1]):
            term = 1.0 + cs.b[k, i] * abs(d[k, i]) ** 2
            assert terms[k, i] == term
            rate += math.log2(term)
        assert rates[k] == rate


def test_real_divisor_is_the_reciprocal_product():
    # the contract's fourth rule: numpy divides a complex array by a real one
    # as each component times the reciprocal, so euclidean_grad and the
    # descent scale the float64 view by 1 / den and 1 / bw_hz in place
    rng = np.random.default_rng(330)
    shape = (1000, 128)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.uniform(-12, 12, shape)
    w = harness.DESK_CONFIG.bw_hz
    for r in (10.0 ** rng.uniform(0, 12, (shape[0], 1)), np.full((shape[0], 1), w), w):
        scaled = x.copy()
        re_im = scaled.view(np.float64)
        re_im *= 1.0 / r
        assert np.array_equal(scaled, x / r)


# ---------------------------------------------------------------------------
# The descent as it was before the gradient coefficients were stored and each
# accepted point was evaluated once, kept as the oracle for optimize_phases
# ---------------------------------------------------------------------------

def _prior_rates(coupling, d):
    sq = np.array([m ** 2 for m in np.hypot(d.real, d.imag).ravel().tolist()]).reshape(d.shape)
    rates = []
    for row in (1.0 + coupling.b * sq).tolist():
        rate = 0.0
        for t in row:
            rate += math.log2(t)
        rates.append(rate)
    return sq, rates


def _prior_pick(groups, rates):
    return [min(members, key=lambda j: (rates[j], j)) for members in groups]


def _prior_objective(coupling, nu, groups):
    rates = _prior_rates(coupling, np.vecdot(nu, coupling.c))[1]
    return -coupling.bw_hz * sum(rates[k] for k in _prior_pick(groups, rates))


def _prior_grad(coupling, nu, groups):
    d = np.vecdot(nu, coupling.c)
    sq, rates = _prior_rates(coupling, d)
    users = _prior_pick(groups, rates)
    b_sel = coupling.b[users].ravel()
    coef = coupling.bw_hz * (2.0 * b_sel / po.LN2)
    den = 1.0 + b_sel * sq[users].ravel()
    c_sel = coupling.c[users].reshape(len(b_sel), -1)
    d_sel = d[users].ravel()
    terms = coef[:, None] * c_sel * np.conj(d_sel)[:, None] / den[:, None]
    return -terms.sum(axis=0)


def _prior_optimize(coupling, groups, nu0):
    """Returns the result and its call counts: [1 + line-search trials,
    iterations entered]."""
    nu = po.retract(np.asarray(nu0, dtype=np.complex128).copy())
    w = coupling.bw_hz
    calls = [0, 0]

    def f_norm(x):
        calls[0] += 1
        return _prior_objective(coupling, x, groups) / w

    f_cur = f_norm(nu)
    trace, converged = [], False
    nu_prev = rgrad_prev = None
    step_trial = 1.0
    for iteration in range(1, 501):
        calls[1] += 1
        grad = _prior_grad(coupling, nu, groups) / w
        rgrad = po.tangent_project(grad, nu)
        gnorm_sq = float((np.abs(rgrad) ** 2).sum())
        gnorm = math.sqrt(gnorm_sq)
        if gnorm < 1e-14:
            converged = True
            break
        if nu_prev is not None:
            s = nu - nu_prev
            denom = abs(float((s * np.conj(rgrad - rgrad_prev)).real.sum()))
            if denom > 1e-300:
                step_trial = float((np.abs(s) ** 2).sum()) / denom
        step = step_trial
        accepted = False
        f_new = f_cur
        for backtracks in range(31):
            cand = po.retract(nu - step * rgrad)
            f_cand = f_norm(cand)
            if f_cand <= f_cur - 1e-4 * step * gnorm_sq:
                accepted = True
                f_new = f_cand
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        nu_prev, rgrad_prev = nu, rgrad
        nu = cand
        trace.append(po.TraceRow(iteration=iteration, f_value=f_new * w, step_size=step,
                                 grad_norm=gnorm * w, backtracks=backtracks))
        rel_change = abs(f_new - f_cur) / max(abs(f_cur), 1e-300)
        f_cur = f_new
        if rel_change < 1e-6:
            converged = True
            break
    return po.OptimizeResult(nu=nu, f_value=f_cur * w, iterations=len(trace),
                             trace=trace, converged=converged), calls


@pytest.mark.parametrize("preset", ["desk", "desk_multiuser", "full_scale"])
def test_descent_bit_identical_to_prior_descent(monkeypatch, preset):
    # two powers share each draw and start point, as in a power sweep, so a
    # memo keyed by anything but the values it reads would show
    calls = [0, 0]

    def counted(idx, fn):
        def wrapper(*args):
            calls[idx] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(po, "objective_f", counted(0, po.objective_f))
    monkeypatch.setattr(po, "euclidean_grad", counted(1, po.euclidean_grad))
    base = ch.load_config(CONFIG_DIR / f"{preset}.json")
    for seed in range(3):
        rng = np.random.default_rng(400 + seed)
        chset = ch.generate_channels(base, rng)
        nu0 = unit_phases(base.n_irs, rng)
        for power in (30.0, 50.0):
            cfg = dataclasses.replace(base, power_dbm=power)
            cs = po.coupling_vectors(chset, cfg, cfg.groups())
            want, want_calls = _prior_optimize(cs, cfg.groups(), nu0)
            calls[:] = [0, 0]
            got = po.optimize_phases(cs, nu0)
            assert np.array_equal(got.nu, want.nu)
            assert got.f_value == want.f_value
            assert got.trace == want.trace and got.iterations > 0
            assert got.converged == want.converged
            # objective_f: the start plus one per line-search trial;
            # euclidean_grad: one per iteration entered
            assert calls == want_calls
            assert calls[1] in (got.iterations, got.iterations + 1)


def test_kernels_read_no_stale_rates_across_coupling_sets(desk_cfg):
    # a power sweep frees each seed's coupling set before it builds the next
    # from the same draw (the next one often at the same address), and every
    # power starts from the same phases
    groups = desk_cfg.groups()
    chset, _, rng = make_coupling(desk_cfg, 410)
    nu0 = unit_phases(desk_cfg.n_irs, rng)
    cfgs = [dataclasses.replace(desk_cfg, power_dbm=p) for p in (20.0, 30.0, 40.0, 50.0)]

    def check(cs):
        assert po.objective_f(cs, nu0, groups) == _prior_objective(cs, nu0, groups)
        assert np.array_equal(po.euclidean_grad(cs, nu0, groups), _prior_grad(cs, nu0, groups))

    for cfg in cfgs:
        check(po.coupling_vectors(chset, cfg, groups))


# ---------------------------------------------------------------------------
# One evaluation per phase point: the memo keyed by the value of nu
# ---------------------------------------------------------------------------

def _count_vecdot(monkeypatch):
    calls = [0]
    vecdot = np.vecdot

    def counted(*args, **kwargs):
        calls[0] += 1
        return vecdot(*args, **kwargs)

    monkeypatch.setattr(np, "vecdot", counted)
    return calls


def test_gradient_reuses_the_objectives_evaluation_at_equal_phases(monkeypatch,
                                                                    multiuser_cfg):
    _, cs, rng = make_coupling(multiuser_cfg, 420)
    groups = multiuser_cfg.groups()
    nu = unit_phases(multiuser_cfg.n_irs, rng)
    calls = _count_vecdot(monkeypatch)
    f = po.objective_f(cs, nu, groups)
    assert calls == [1]
    # another array of the same values, as the descent's accepted candidate is
    grad = po.euclidean_grad(cs, nu.copy(), groups)
    assert calls == [1]
    assert f == _prior_objective(cs, nu, groups)
    assert np.array_equal(grad, _prior_grad(cs, nu, groups))


def test_gradient_after_an_in_place_change_of_the_phases(monkeypatch, multiuser_cfg):
    _, cs, rng = make_coupling(multiuser_cfg, 421)
    groups = multiuser_cfg.groups()
    nu = unit_phases(multiuser_cfg.n_irs, rng)
    calls = _count_vecdot(monkeypatch)
    po.objective_f(cs, nu, groups)
    nu[3] *= np.exp(0.4j)
    grad = po.euclidean_grad(cs, nu, groups)
    assert calls == [2]
    assert np.array_equal(grad, _prior_grad(cs, nu, groups))


@pytest.mark.parametrize("preset", ["desk", "desk_multiuser"])
def test_coupling_set_refuses_in_place_writes_and_replace_starts_fresh(preset):
    # the memo and the stored gradient rows read c and b, so an in-place
    # write, which left both stale, is refused; a set with another c or b is
    # a new one, with its own memo and rows, holding copies of its arrays
    cfg = ch.load_config(CONFIG_DIR / f"{preset}.json")
    groups = cfg.groups()
    _, cs, rng = make_coupling(cfg, 422)
    nu = unit_phases(cfg.n_irs, rng)
    f0 = po.objective_f(cs, nu, groups)
    g0 = po.euclidean_grad(cs, nu, groups)
    for name in ("c", "b"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cs, name)[...] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(cs, name)[0, 0] = 0.0
    assert po.objective_f(cs, nu, groups) == f0 == _prior_objective(cs, nu, groups)
    assert np.array_equal(po.euclidean_grad(cs, nu, groups), g0)
    for change in ({"b": cs.b * 3.0}, {"b": cs.b * 0.25}, {"c": cs.c * 2.0}):
        new = dataclasses.replace(cs, **change)
        for value in change.values():
            value[...] = 0.0    # the caller's array stays its own
        f = po.objective_f(new, nu, groups)
        assert f == _prior_objective(new, nu, groups) and f != f0
        assert np.array_equal(po.euclidean_grad(new, nu, groups), _prior_grad(new, nu, groups))
        assert po.objective_f(new, nu, groups) == f


def test_stream_rules_on_python_floats_equal_the_array_forms():
    # the contract's rules for the scalar stream terms and the negated
    # gradient rows, each against the array form it replaced, over 3,000
    # random draws of up to 8 streams on 16-256 elements
    rng = np.random.default_rng(430)
    for _ in range(3000):
        n, m = int(rng.integers(1, 9)), int(rng.choice([16, 64, 256]))
        d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 8, n)
        b = 10.0 ** rng.uniform(-12, 12, n)
        gc = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) \
            * 10.0 ** rng.uniform(-6, 6, (n, 1))
        # moduli: the builtin abs of each Python complex is np.hypot
        mags = [abs(z) for z in d.tolist()]
        assert mags == np.hypot(d.real, d.imag).tolist()
        sq = [x ** 2 for x in mags]
        # 1 + b|d|^2 and 1 / den on Python floats
        terms = [1.0 + bi * s for bi, s in zip(b.tolist(), sq)]
        den = 1.0 + b * np.array(sq)
        assert terms == den.tolist()
        recip = [1.0 / t for t in terms]
        assert recip == (1.0 / den).tolist()
        # negating the rows commutes with the product, the reciprocal scale
        # and the axis-0 reduction
        before = gc * np.conj(d)[:, None]
        before.view(np.float64)[...] *= (1.0 / den)[:, None]
        after = np.negative(gc) * np.conj(d)[:, None]
        after.view(np.float64)[...] *= np.array(recip)[:, None]
        assert (-np.add.reduce(before, 0)).tobytes() == np.add.reduce(after, 0).tobytes()
