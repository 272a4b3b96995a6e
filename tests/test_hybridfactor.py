import math
import warnings

import numpy as np
import pytest

from irs_multicast import bd
from irs_multicast import channel as ch
from irs_multicast import harness
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


@pytest.mark.parametrize("max_alternations", [0, 3])
def test_factor_baseband_is_pinv_of_its_rf_times_target(max_alternations):
    # the phase-copy start and every alternation take F_B = pinv(F_R) @ B
    b = random_complex(np.random.default_rng(1), 8, 3)
    res = hf.factor(b, 4, hf.FactorSettings(max_alternations=max_alternations),
                    rng=np.random.default_rng(2))
    assert res.alternations == max_alternations
    assert np.array_equal(res.f_bb, np.linalg.pinv(res.f_rf) @ b)


def test_phase_copy_start_exact_when_target_in_rf_range():
    # the leading columns are unit-modulus, so the phase copy writes them
    # into F_R, and the rest are combinations of them
    rng = np.random.default_rng(2)
    lead = unit_modulus(rng, 8, 2)
    b = np.hstack([lead, lead @ random_complex(rng, 2, 2)])
    res = hf.factor(b, 2, rng=rng)
    assert res.alternations == 0
    assert res.final_residual < 1e-10


def test_factor_baseband_beats_random_candidates():
    rng = np.random.default_rng(3)
    b = random_complex(rng, 8, 3)
    res = hf.factor(b, 4, rng=rng)
    assert res.alternations > 0
    best = np.linalg.norm(b - res.f_rf @ res.f_bb)
    for _ in range(100):
        alt = random_complex(rng, 4, 3)
        assert np.linalg.norm(b - res.f_rf @ alt) >= best - 1e-12


def test_rf_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = unit_modulus(rng, 6, 3)
    f_bb = random_complex(rng, 3, 2)
    b = random_complex(rng, 6, 2)
    grad = -2.0 * (b - x @ f_bb) @ f_bb.conj().T
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


def test_two_phase_split_equal_modulus_column_is_exact():
    # all |v| = 0.5, so t = 0 everywhere: both RF columns copy the phases
    b = np.array([[0.3 + 0.4j], [-0.3 + 0.4j], [0.4 - 0.3j], [-0.4 - 0.3j]])
    assert np.all(np.abs(b) == 0.5)
    res = hf.factor(b, 2, rng=np.random.default_rng(0))
    assert res.alternations == 0
    assert res.final_residual <= hf._FLOOR


def test_two_phase_split_splits_steering_like_columns_exactly():
    # steering-like combiners: moduli equal up to an ulp, so t is 0 or ~1e-8
    # and the pair is two (near-)identical columns; F_B is written, not
    # solved for, so the start is exact and no alternation runs
    rng = np.random.default_rng(1)
    spread = 0
    for seed in range(40):
        b = (np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) / 2.0).reshape(4, 1)
        spread += int(np.ptp(np.abs(b)) > 0.0)
        x, f_bb = hf._two_phase_split(b, 2, np.random.default_rng(seed))
        peak = np.max(np.abs(b))
        t = np.arccos(np.abs(b[:, 0]) / peak)
        np.testing.assert_array_equal(x[:, 0], np.exp(1j * (np.angle(b[:, 0]) + t)))
        np.testing.assert_array_equal(x[:, 1], np.exp(1j * (np.angle(b[:, 0]) - t)))
        np.testing.assert_array_equal(f_bb, [[peak / 2.0], [peak / 2.0]])
        res = hf.factor(b, 2, rng=np.random.default_rng(seed))
        assert res.alternations == 0
        assert res.final_residual <= 1e-15
    assert spread > 20


def test_two_phase_split_keeps_the_draw_of_zero_columns_and_spare_chains():
    # every live column splits, an equal-modulus one too: x[:, i] = e^{j(a+t)},
    # x[:, cols+i] = e^{j(a-t)}; only the zero column's pair and the spare
    # chain keep the random draw
    rng = np.random.default_rng(2)
    b = np.hstack([0.5 * np.array([[1.0], [1j], [-1.0], [-1j]]), random_complex(rng, 4, 1),
                   np.zeros((4, 1))])
    x, _ = hf._two_phase_split(b, 7, np.random.default_rng(3))
    draw = np.exp(1j * np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (4, 7)))
    for j in (2, 5, 6):
        np.testing.assert_array_equal(x[:, j], draw[:, j])
    for i in (0, 1):
        col = b[:, i]
        t = np.arccos(np.abs(col) / np.max(np.abs(col)))
        np.testing.assert_array_equal(x[:, i], np.exp(1j * (np.angle(col) + t)))
        np.testing.assert_array_equal(x[:, 3 + i], np.exp(1j * (np.angle(col) - t)))
    np.testing.assert_array_equal(x[:, 0], x[:, 3])   # t = 0: two equal columns


def _split_target(rng, rows):
    # a generic column, an equal-modulus column and a zero column
    return np.hstack([random_complex(rng, rows, 1),
                      0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, 1))),
                      np.zeros((rows, 1))])


@pytest.mark.parametrize("n_rf", [6, 8])
def test_two_phase_split_writes_the_baseband_in_closed_form(n_rf):
    # n_rf = 2*cols and > 2*cols: F_B has c = peak/2 at rows i and cols+i of
    # every live column i, zeros else
    b = _split_target(np.random.default_rng(7), 8)
    x, f_bb = hf._two_phase_split(b, n_rf, np.random.default_rng(8))
    peak = np.max(np.abs(b), axis=0)
    want = np.zeros((n_rf, 3), dtype=complex)
    want[0, 0] = want[3, 0] = peak[0] / 2.0
    want[1, 1] = want[4, 1] = peak[1] / 2.0
    np.testing.assert_array_equal(f_bb, want)
    draw = np.exp(1j * np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, (8, n_rf)))
    # the zero column's pair and the spare chains keep the random draw
    for j in [2, 5] + list(range(6, n_rf)):
        np.testing.assert_array_equal(x[:, j], draw[:, j])
    np.testing.assert_allclose(np.abs(x), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x @ f_bb, b, rtol=0, atol=1e-12)


def test_two_phase_split_is_exact_on_many_equal_modulus_targets():
    # seeded equal-modulus targets of 1-4 columns, 4-64 rows and 2*cols to
    # 2*cols+2 chains, a zero column in every fifth: each live column's pair
    # is two (near-)equal columns, the start is exact with no alternation,
    # and every RF entry is within an ulp of unit modulus
    rng = np.random.default_rng(11)
    worst_res = worst_mod = 0.0
    for n in range(300):
        cols, rows = int(rng.integers(1, 5)), int(rng.integers(4, 65))
        b = np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, cols))) * rng.uniform(0.1, 3.0, cols)
        if n % 5 == 0:
            b[:, rng.integers(cols)] = 0.0
            if not b.any():
                continue
        res = hf.factor(b, 2 * cols + int(rng.integers(0, 3)), rng=rng)
        assert res.alternations == 0 and len(res.residuals) == 1
        worst_res = max(worst_res, res.final_residual)
        worst_mod = max(worst_mod, np.max(np.abs(np.abs(res.f_rf) - 1.0)))
    assert worst_res <= 1e-15
    assert worst_mod <= 2.3e-16


@pytest.mark.parametrize("n_rf", [6, 7, 8])
def test_two_phase_split_is_exact_without_pseudo_inverse(monkeypatch, n_rf):
    calls = []
    real = np.linalg.pinv

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "pinv", spy)
    for seed in range(10):
        rng = np.random.default_rng(60 + seed)
        b = _split_target(rng, 8) if seed % 2 else random_complex(rng, 8, 3)
        res = hf.factor(b, n_rf, rng=rng)
        assert res.alternations == 0 and len(res.residuals) == 1
        assert res.residuals[0] <= 1e-12
        np.testing.assert_allclose(
            np.linalg.norm(b - res.f_rf @ res.f_bb) / np.linalg.norm(b), res.residuals[0],
            rtol=0, atol=1e-15)
    assert calls == []
    # the phase-copy start still takes the least-squares baseband, of a lone
    # target as a stack of one
    hf.factor(random_complex(np.random.default_rng(1), 8, 3), 5, rng=np.random.default_rng(2))
    assert calls[0] == (1, 8, 5)


@pytest.mark.parametrize("rows, cols, n_rf", [(8, 3, 6), (16, 2, 7), (16, 4, 6)])
def test_factor_leaves_the_generator_where_the_one_draw_did(rows, cols, n_rf):
    # exactly one (rows, n_rf) uniform draw per call on either start, so the
    # next factor call of a run (the combiners after the precoder) sees the
    # stream it always saw
    b = random_complex(np.random.default_rng(9), rows, cols)
    rng = np.random.default_rng(10)
    res = hf.factor(b, n_rf, hf.FactorSettings(max_alternations=0), rng=rng)
    ref = np.random.default_rng(10)
    ref.uniform(0.0, 2.0 * np.pi, (rows, n_rf))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert res.alternations == 0


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
    step forms the gradient from a fresh residual ``B - X F_B``. The stopping
    and line-search constants are spelled out. Only the phase-copy start:
    fewer than 2*cols chains. Also returns the number of backtracks.
    """
    b = np.asarray(b, dtype=np.complex128)
    assert n_rf < 2 * b.shape[1]
    b_norm = float(np.linalg.norm(b, "fro"))
    x = hf._phase_copy_init(b, n_rf, rng)
    f_bb = np.linalg.pinv(x) @ b
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
            grad = -2.0 * (b - x @ f_bb) @ f_bb.conj().T / scale
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
            f_new = np.linalg.pinv(x_new) @ b
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


def test_bad_init_mode_rejected():
    # at construction, before any factor call reads it
    with pytest.raises(ValueError, match="unknown init mode 'nope'"):
        hf.FactorSettings(init_mode="nope")


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


@pytest.mark.parametrize("n_rf", [4, 3])   # the exact split and the phase-copy start
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factor_rejects_a_non_finite_target_before_drawing(n_rf, bad):
    # a nan returned residuals [nan] and a non-finite F_B; an inf raised only
    # on the phase-copy start, from the pseudo-inverse
    b = random_complex(np.random.default_rng(8), 16, 2)
    b[3, 1] = bad
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must be finite"):
        hf.factor(b, n_rf, rng=rng)
    assert rng.bit_generator.state == state


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
    h_eff = ch.effective_channels(chset, nu, desk_cfg)
    bf, _ = bd.build_beamformers(h_eff, desk_cfg.groups(), desk_cfg)
    hybrid, _ = harness._hybridize(bf, desk_cfg, rng)
    assert len(hybrid.rf) == 1 + desk_cfg.k_users
    digital_rate = sm.sum_rate(bf, h_eff, desk_cfg).sum_rate
    hybrid_rate = sm.sum_rate(hybrid, h_eff, desk_cfg).sum_rate
    assert abs(hybrid_rate - digital_rate) / digital_rate < 0.05
    rep = sm.check_constraints(hybrid, desk_cfg, nu)
    assert rep.ok()


def _stack_targets(rng, rows, cols, n_rf):
    # two random targets, an exact-at-start one (unit-modulus columns, which
    # the phase copy writes into F_R) and a planted one
    return np.stack([random_complex(rng, rows, cols), unit_modulus(rng, rows, cols),
                     random_complex(rng, rows, cols), planted(rng, rows, n_rf - 1, cols)])


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("init_mode, n_rf, cols, cap, stops", [
    # every alternating matrix reaches the floor, each at its own alternation
    ("phase_copy", 8, 4, 60, "alternation"),
    # fewer than 2*cols chains, so the phase copy; matrices end descents at
    # different inner steps, and the cap stops them all
    ("auto", 3, 2, 12, "inner step"),
    # the exact split for every matrix
    ("auto", 8, 4, 60, None),
])
def test_stacked_factor_equals_lone_calls_in_stack_order(monkeypatch, fortran, init_mode,
                                                         n_rf, cols, cap, stops):
    # each matrix of the stack must get what a lone call made in stack order
    # on one generator gives it, bit for bit, and leave the generator there
    st = hf.FactorSettings(max_alternations=cap, init_mode=init_mode)
    stack = _stack_targets(np.random.default_rng(300), 16, cols, n_rf)
    if fortran:
        stack = np.asfortranarray(stack)
    rng = np.random.default_rng(301)
    lone = [hf.factor(b, n_rf, st, rng=rng) for b in stack]
    lone_state = rng.bit_generator.state
    # the stack size at each gradient, per descent
    sizes = []
    descent = hf._rf_descent

    def spy_descent(x, *args):
        sizes.append([])
        return descent(x, *args)

    project = hf.tangent_project

    def spy_project(grad, x):
        sizes[-1].append(len(grad))
        return project(grad, x)

    monkeypatch.setattr(hf, "_rf_descent", spy_descent)
    monkeypatch.setattr(hf, "tangent_project", spy_project)
    rng = np.random.default_rng(301)
    got = hf.factor(stack, n_rf, st, rng=rng)
    assert rng.bit_generator.state == lone_state
    assert got.f_rf.shape == (4, 16, n_rf) and got.f_bb.shape == (4, n_rf, cols)
    for i, res in enumerate(lone):
        assert np.array_equal(got.f_rf[i], res.f_rf)
        assert np.array_equal(got.f_bb[i], res.f_bb)
        assert got.residuals[i] == res.residuals
    runs = [len(res.residuals) - 1 for res in lone]
    assert got.alternations == max(runs)
    if stops is None:
        assert runs == [0] * 4 and sizes == []
        return
    # the exact matrix never alternates, beside matrices that do
    assert runs[1] == 0 and min(runs[0], runs[2], runs[3]) > 0, runs
    if stops == "alternation":
        assert len(set(runs)) == 4 and max(runs) < cap, runs
    else:
        # some matrices leave a descent while the rest of the stack goes on
        assert runs == [0 if i == 1 else cap for i in range(4)], runs
        assert any(len(set(s)) > 1 for s in sizes)


@pytest.mark.parametrize("n_rf", [4, 3])
def test_stacked_factor_rejects_a_non_finite_matrix_before_drawing(n_rf):
    stack = random_complex(np.random.default_rng(8), 3 * 16, 2).reshape(3, 16, 2)
    stack[2, 5, 0] = np.nan
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must be finite"):
        hf.factor(stack, n_rf, rng=rng)
    assert rng.bit_generator.state == state


def _rf_limited_target(shape):
    # the transmit matrix (16 x 4, six chains) or the combiner stack (four
    # 16 x 2, three chains) of the rf_limited benchmark: fewer than 2*cols
    # chains, so every matrix alternates
    rng = np.random.default_rng(400 + len(shape))
    return random_complex(rng, math.prod(shape[:-1]), shape[-1]).reshape(shape)


@pytest.mark.parametrize("shape, n_rf", [((16, 4), 6), ((4, 16, 2), 3)])
def test_ladder_length_leaves_factor_bit_identical(monkeypatch, shape, n_rf):
    # the halvings a failing matrix tries at once change the work, never the
    # iterates: one halving per round, two, and the default give equal bits
    st = hf.FactorSettings(max_alternations=20)
    b = _rf_limited_target(shape)
    rounds = []   # the trial rounds of each step, per ladder length
    project, normalize = hf.tangent_project, hf.retract

    def spy_project(grad, x):
        rounds[-1].append(0)
        return project(grad, x)

    def spy_normalize(nu_bar):
        rounds[-1][-1] += 1
        return normalize(nu_bar)

    monkeypatch.setattr(hf, "tangent_project", spy_project)
    monkeypatch.setattr(hf, "retract", spy_normalize)
    results = []
    for ladder in (1, 2, hf._LADDER):
        monkeypatch.setattr(hf, "_LADDER", ladder)
        rounds.append([])
        rng = np.random.default_rng(17)
        results.append((hf.factor(b, n_rf, st, rng=rng), rng.bit_generator.state))
    (ref, ref_state), *others = results
    assert ref.alternations == st.max_alternations
    for got, state in others:
        assert np.array_equal(got.f_rf, ref.f_rf)
        assert np.array_equal(got.f_bb, ref.f_bb)
        assert got.residuals == ref.residuals
        assert state == ref_state
    # with the default ladder some step fails its first trial and a whole
    # ladder after it, and needs a second ladder
    assert max(rounds[-1]) >= 3
    assert sum(rounds[0]) > sum(rounds[1]) > sum(rounds[-1])


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
@pytest.mark.parametrize("shape, n_rf", [((16, 4), 6), ((4, 16, 2), 3)])
def test_a_discarded_singular_rung_neither_raises_nor_warns(monkeypatch, bad, shape, n_rf):
    # a ladder of every halving left: its last rung, the 60th halving, is
    # never reached, since by then a trial step no longer moves X and
    # passes. Zeroing (or worse) one of its entries must change nothing.
    st = hf.FactorSettings(max_alternations=10)
    b = _rf_limited_target(shape)
    monkeypatch.setattr(hf, "_LADDER", hf._MAX_BACKTRACKS)
    want = hf.factor(b, n_rf, st, rng=np.random.default_rng(5))
    normalize = hf.retract
    ladders = []

    def corrupt_last_rung(nu_bar):
        if nu_bar.ndim == 4:
            assert len(nu_bar) == hf._MAX_BACKTRACKS
            nu_bar[-1, :, 0, 0] = bad
            ladders.append(nu_bar.shape[1])
        return normalize(nu_bar)

    monkeypatch.setattr(hf, "retract", corrupt_last_rung)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hf.factor(b, n_rf, st, rng=np.random.default_rng(5))
    assert ladders
    assert np.array_equal(got.f_rf, want.f_rf)
    assert np.array_equal(got.f_bb, want.f_bb)
    assert got.residuals == want.residuals


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
@pytest.mark.parametrize("shape, n_rf", [((16, 4), 6), ((4, 16, 2), 3)])
def test_a_reached_singular_trial_raises(monkeypatch, first, bad, shape, n_rf):
    # the first trial of the last matrix, or the first rung of the first
    # ladder, which a matrix that failed its first trial always reaches
    normalize = hf.retract

    def corrupt(nu_bar):
        if (nu_bar.ndim == 4) != first:
            nu_bar[(0,) * (nu_bar.ndim - 3) + (-1, 0, 0)] = bad
        return normalize(nu_bar)

    monkeypatch.setattr(hf, "retract", corrupt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="retraction singularity"):
            hf.factor(_rf_limited_target(shape), n_rf, rng=np.random.default_rng(5))


def test_hybridize_factors_the_transmit_matrix_and_the_combiner_stack(desk_cfg, monkeypatch):
    calls = []
    factor = hf.factor

    def spy(b, n_rf, *args, **kwargs):
        calls.append((b.shape, n_rf))
        return factor(b, n_rf, *args, **kwargs)

    monkeypatch.setattr(hf, "factor", spy)
    rng = np.random.default_rng(10)
    chset = ch.generate_channels(desk_cfg, rng)
    h_eff = ch.effective_channels(chset, ch.random_phase_vector(desk_cfg.n_irs, rng), desk_cfg)
    bf, _ = bd.build_beamformers(h_eff, desk_cfg.groups(), desk_cfg)
    harness._hybridize(bf, desk_cfg, rng)
    assert calls == [((desk_cfg.n_bs, desk_cfg.h_groups * desk_cfg.zeta), desk_cfg.m_bs),
                     ((desk_cfg.k_users, desk_cfg.n_ue, desk_cfg.zeta), desk_cfg.m_ue)]
