import math

import numpy as np
import pytest

from irs_multicast import bd
from irs_multicast import channel as ch
from irs_multicast import hybridfactor as hf
from irs_multicast import phaseopt as po
from irs_multicast import signalmodel as sm

from conftest import random_complex


def unit_modulus(rng, rows, cols):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, cols)))


def planted(rng, n, n_rf, cols):
    x = unit_modulus(rng, n, n_rf)
    y = random_complex(rng, n_rf, cols)
    return x @ y


def test_solve_baseband_orthonormal_rf():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(random_complex(rng, 8, 4))
    b = random_complex(rng, 8, 3)
    np.testing.assert_allclose(hf.solve_baseband(q, b), q.conj().T @ b, atol=1e-12)


def test_solve_baseband_exact_when_in_range():
    rng = np.random.default_rng(2)
    f_rf = unit_modulus(rng, 8, 4)
    b = f_rf @ random_complex(rng, 4, 2)
    f_bb = hf.solve_baseband(f_rf, b)
    assert np.linalg.norm(b - f_rf @ f_bb) < 1e-10 * np.linalg.norm(b)


def test_solve_baseband_beats_random_candidates():
    rng = np.random.default_rng(3)
    f_rf = unit_modulus(rng, 8, 4)
    b = random_complex(rng, 8, 3)
    best = np.linalg.norm(b - f_rf @ hf.solve_baseband(f_rf, b))
    for _ in range(100):
        alt = random_complex(rng, 4, 3)
        assert np.linalg.norm(b - f_rf @ alt) >= best - 1e-12


def test_rf_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = unit_modulus(rng, 6, 3)
    f_bb = random_complex(rng, 3, 2)
    b = random_complex(rng, 6, 2)
    grad = hf.rf_objective_grad(x, f_bb, b)
    step = 1e-6

    def q(xm):
        return np.linalg.norm(b - xm @ f_bb) ** 2

    fd = np.zeros_like(grad)
    for idx in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[idx] = step
        fr = (q(x + e) - q(x - e)) / (2 * step)
        e[idx] = 1j * step
        fi = (q(x + e) - q(x - e)) / (2 * step)
        fd[idx] = fr + 1j * fi
    assert np.linalg.norm(fd - grad) < 1e-5 * np.linalg.norm(grad)


@pytest.mark.parametrize("init_mode", ["auto", "phase_copy"])
def test_planted_factorization_recovered(init_mode):
    # "auto" starts from the exact two-phase split; "phase_copy" makes the
    # alternating descent do the whole recovery
    settings = hf.FactorSettings(init_mode=init_mode)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        b = planted(rng, 16, 8, 4)
        res = hf.factor(b, 8, settings, rng=rng)
        assert res.alternations <= 100
        assert res.final_residual < 1e-6


def test_two_phase_split_initial_residual_is_rounding():
    rng = np.random.default_rng(50)
    b = random_complex(rng, 16, 4)  # arbitrary target, 8 >= 2*4 chains
    res = hf.factor(b, 8, rng=rng)
    assert res.residuals[0] < 1e-12


def test_descent_only_regime_monotone_fit():
    # with fewer than 2*cols chains no exact split exists; the alternation
    # still has to make monotone progress toward a usable fit
    rng = np.random.default_rng(51)
    b = planted(rng, 16, 6, 4)
    res = hf.factor(b, 6, rng=rng)
    assert np.all(np.diff(res.residuals) <= 0)
    assert res.final_residual < 0.25 * res.residuals[0]


def _reference_factor(b, n_rf, st, rng):
    """The alternation as first written, kept as the oracle for ``factor``.

    Every Armijo trial takes ``np.linalg.norm`` of a fresh residual and every
    step calls ``rf_objective_grad``. The stopping and line-search constants
    are spelled out. Also returns the number of backtracks.
    """
    b = np.asarray(b, dtype=np.complex128)
    b_norm = float(np.linalg.norm(b, "fro"))
    x = hf._init_rf(b, n_rf, rng, st.init_mode)
    f_bb = hf.solve_baseband(x, b)
    residuals = [float(np.linalg.norm(b - x @ f_bb, "fro")) / b_norm]
    backtracks = 0

    def descent(x, f_bb):
        nonlocal backtracks
        scale = max(float(np.linalg.norm(b, "fro") ** 2), 1e-300)

        def q(xm):
            return float(np.linalg.norm(b - xm @ f_bb, "fro") ** 2) / scale

        q_cur = q(x)
        x_prev = grad_prev = None
        step_trial = 1.0
        for _ in range(60):
            grad = hf.rf_objective_grad(x, f_bb, b) / scale
            rgrad = po.tangent_project(grad, x)
            gnorm_sq = float(np.sum(np.abs(rgrad) ** 2))
            if gnorm_sq < 1e-30:
                break
            if x_prev is not None:
                s = x - x_prev
                y = rgrad - grad_prev
                denom = abs(float(np.sum(np.real(s * np.conj(y)))))
                if denom > 1e-300:
                    step_trial = float(np.sum(np.abs(s) ** 2)) / denom
            step = step_trial
            accepted = False
            for _ in range(60 + 1):
                cand = po.retract(x - step * rgrad)
                q_cand = q(cand)
                if q_cand <= q_cur - 1e-4 * step * gnorm_sq:
                    accepted = True
                    break
                step *= 0.5
                backtracks += 1
            if not accepted:
                break
            x_prev, grad_prev = x, rgrad
            drop = q_cur - q_cand
            x, q_cur = cand, q_cand
            if drop < 1e-11 * max(q_cur, 1e-300):
                break
        return x

    alternations = 0
    if residuals[0] > 1e-9:
        for alternations in range(1, st.max_alternations + 1):
            x_new = descent(x, f_bb)
            f_new = hf.solve_baseband(x_new, b)
            res = float(np.linalg.norm(b - x_new @ f_new, "fro")) / b_norm
            prev = residuals[-1]
            if res > prev:
                alternations -= 1
                break
            x, f_bb = x_new, f_new
            residuals.append(res)
            if res <= 1e-9 or prev - res <= 1e-6 * max(prev, 1e-300):
                break
    return hf.FactorResult(f_rf=x, f_bb=f_bb, residuals=residuals,
                           alternations=alternations), backtracks


@pytest.mark.parametrize("rows, cols, n_rf", [(16, 2, 3), (16, 4, 6)])
def test_factor_bit_identical_to_reference(rows, cols, n_rf):
    # fewer than 2*cols chains: no exact split, so every call alternates;
    # a Fortran-ordered target checks that the norms keep numpy's order
    st = hf.FactorSettings(max_alternations=6)
    for seed in range(3):
        b = random_complex(np.random.default_rng(200 + seed), rows, cols)
        if seed == 1:
            b = np.asfortranarray(b)
        ref, backtracks = _reference_factor(b, n_rf, st, np.random.default_rng(seed))
        got = hf.factor(b, n_rf, st, rng=np.random.default_rng(seed))
        assert ref.alternations > 0 and backtracks > 0
        assert np.array_equal(got.f_rf, ref.f_rf)
        assert np.array_equal(got.f_bb, ref.f_bb)
        assert got.residuals == ref.residuals
        assert got.alternations == ref.alternations


def test_residual_gradient_bit_identical():
    rng = np.random.default_rng(60)
    for rows, n_rf, cols in [(16, 3, 2), (16, 6, 4), (8, 4, 1)]:
        x = po.retract(random_complex(rng, rows, n_rf))
        f_bb = random_complex(rng, n_rf, cols)
        b = random_complex(rng, rows, cols)
        resid = b - x @ f_bb
        assert np.array_equal(hf._residual_grad(resid, f_bb.conj().T),
                              hf.rf_objective_grad(x, f_bb, b))


def test_bad_init_mode_rejected():
    with pytest.raises(ValueError, match="init"):
        hf.factor(np.ones((4, 2), dtype=complex), 4,
                  hf.FactorSettings(init_mode="nope"))


def test_self_factorization_unit_modulus_target():
    rng = np.random.default_rng(5)
    b = unit_modulus(rng, 12, 4)
    res = hf.factor(b, 4, rng=rng)
    # phase-copy init makes F_R = B and F_B = I optimal immediately
    assert res.final_residual < 1e-12


def test_factor_invariants():
    rng = np.random.default_rng(6)
    b = random_complex(rng, 16, 4)  # not exactly factorable with 6 chains
    res = hf.factor(b, 6, rng=rng)
    assert np.max(np.abs(np.abs(res.f_rf) - 1.0)) < 1e-12
    diffs = np.diff(res.residuals)
    assert np.all(diffs <= 0)
    assert res.alternations <= 100


def test_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        hf.factor(np.zeros((0, 2)), 2)
    with pytest.raises(ValueError):
        hf.factor(np.zeros((4, 2), dtype=complex), 2)
    with pytest.raises(ValueError):
        hf.factor(np.ones((4, 2), dtype=complex), 0)


def test_normalize_power():
    rng = np.random.default_rng(7)
    f_rf = unit_modulus(rng, 8, 4)
    f_bb = random_complex(rng, 4, 3)
    p = 5.0
    scaled = hf.normalize_power(f_rf, f_bb, p)
    assert math.isclose(np.linalg.norm(f_rf @ scaled) ** 2, p, rel_tol=1e-10)
    # already at the budget: unchanged
    again = hf.normalize_power(f_rf, scaled, p)
    np.testing.assert_allclose(again, scaled, rtol=1e-12)
    # twice the amplitude budget scales by exactly 1/2
    quad = hf.normalize_power(f_rf, 2.0 * scaled, p)
    np.testing.assert_allclose(quad, scaled, rtol=1e-12)


def test_normalize_power_zero_product():
    with pytest.raises(ValueError, match="zero"):
        hf.normalize_power(np.ones((4, 2), dtype=complex),
                           np.zeros((2, 2), dtype=complex), 1.0)


def test_factor_receive_exact_when_chains_match_columns():
    rng = np.random.default_rng(8)
    j_k = unit_modulus(rng, 16, 2)
    res = hf.factor(j_k, 2, rng=rng)
    assert res.final_residual < 1e-12


def test_factor_receive_monotone_residuals():
    rng = np.random.default_rng(9)
    j_k = random_complex(rng, 16, 2)
    res = hf.factor(j_k, 4, rng=rng)
    assert np.all(np.diff(res.residuals) <= 0)


def test_hybrid_reproduces_digital_rate(desk_cfg):
    # composed W_R W_B and F_R F_B must track the digital beamformers' rates
    rng = np.random.default_rng(10)
    chset = ch.generate_channels(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    bf, _ = bd.build_beamformers(chset, desk_cfg.groups(), nu, desk_cfg)
    tx = hf.factor(bf.digital_b, desk_cfg.m_bs, rng=rng)
    f_bb = hf.normalize_power(tx.f_rf, tx.f_bb, desk_cfg.power_w)
    w_rf, w_bb = [], []
    for k in range(desk_cfg.k_users):
        rx = hf.factor(bf.digital_j[k], desk_cfg.m_ue, rng=rng)
        w_rf.append(rx.f_rf)
        w_bb.append(rx.f_bb)
    hybrid = sm.BeamformerSet(mode="hybrid", f_rf=tx.f_rf, f_bb=f_bb,
                              w_rf=w_rf, w_bb=w_bb)
    digital_rate = sm.sum_rate(bf, chset, nu, desk_cfg).sum_rate
    hybrid_rate = sm.sum_rate(hybrid, chset, nu, desk_cfg).sum_rate
    assert abs(hybrid_rate - digital_rate) / digital_rate < 0.05
    rep = sm.check_constraints(hybrid, desk_cfg, nu)
    assert rep.ok()
