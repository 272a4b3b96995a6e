import dataclasses
import math

import numpy as np
import pytest

from irs_multicast import bd
from irs_multicast import channel as ch
from irs_multicast import matrixkit as mk
from irs_multicast import signalmodel as sm

from conftest import random_complex


def build_at_random_nu(cfg, seed, **kw):
    rng = np.random.default_rng(seed)
    chset = ch.generate_channels(cfg, rng)
    nu = ch.random_phase_vector(cfg.n_irs, rng)
    bf, decomp = bd.build_beamformers(chset, cfg.groups(), nu, cfg, **kw)
    return chset, nu, bf, decomp


def test_stack_other_groups_single_group(desk_cfg):
    h_eff = [random_complex(np.random.default_rng(0), 4, 8)]
    out = bd.stack_other_groups(h_eff, ((0,),), 0)
    assert out.shape == (0, 8)


def test_stack_other_groups_two_singletons():
    h_eff = [random_complex(np.random.default_rng(i), 4, 8) for i in range(2)]
    out = bd.stack_other_groups(h_eff, ((0,), (1,)), 0)
    np.testing.assert_array_equal(out, h_eff[1])


def test_stack_other_groups_row_count():
    n_ue, n_bs = 3, 10
    h_eff = [random_complex(np.random.default_rng(i), n_ue, n_bs) for i in range(6)]
    groups = ((0, 1), (2,), (3, 4, 5))
    out = bd.stack_other_groups(h_eff, groups, 1)
    assert out.shape == (5 * n_ue, n_bs)
    np.testing.assert_array_equal(out[:n_ue], h_eff[0])  # ascending user order


def test_null_projector_empty_constraint():
    v0 = bd.null_projector(np.zeros((0, 6)), 6)
    np.testing.assert_array_equal(v0, np.eye(6))


def test_null_projector_axis_row():
    h = np.zeros((1, 5), dtype=complex)
    h[0, 0] = 1.0
    v0 = bd.null_projector(h, 5)
    assert v0.shape == (5, 4)
    assert np.allclose(v0[0, :], 0.0, atol=1e-12)


def test_null_projector_residual(desk_cfg):
    rng = np.random.default_rng(1)
    h = random_complex(rng, 6, 3) @ random_complex(rng, 3, 16)
    v0 = bd.null_projector(h, 16)
    assert np.linalg.norm(h @ v0) < 1e-9 * np.linalg.norm(h)


def test_null_projector_no_null_space():
    with pytest.raises(bd.BdInfeasibleError, match="insufficient"):
        bd.null_projector(random_complex(np.random.default_rng(2), 8, 8), 8)


def test_single_user_degenerates_to_eigen_beamforming(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, k_users=1, h_groups=1, group_sizes=(1,),
                              zeta=1, m_bs=4, m_ue=4)
    chset, nu, bf, decomp = build_at_random_nu(cfg, 3)
    h_eff = ch.effective_channels(chset, nu, cfg)[0]
    res = mk.svd(h_eff)
    b_expected = res.vh[0].conj() * math.sqrt(cfg.power_w)
    # compare up to a global phase
    inner = np.vdot(bf.tx[:, 0], b_expected)
    assert math.isclose(abs(inner), cfg.power_w, rel_tol=1e-9)
    inner_j = np.vdot(bf.combiners[0][:, 0], res.u[:, 0])
    assert math.isclose(abs(inner_j), 1.0, rel_tol=1e-9)


def test_bd_nulls_all_interference_singleton_groups(desk_cfg):
    for seed in range(5):
        chset, nu, bf, _ = build_at_random_nu(desk_cfg, seed)
        rep = sm.sum_rate(bf, chset, nu, desk_cfg)
        assert rep.interference_ratio().max() < 1e-9


def test_bd_inter_group_nulling_multiuser(multiuser_cfg):
    # exact null projection kills J for any feasible group sizes; the intra
    # term is only approximately nulled when groups have several members
    chset, nu, bf, _ = build_at_random_nu(multiuser_cfg, 4)
    rep = sm.sum_rate(bf, chset, nu, multiuser_cfg)
    sig = np.where(rep.signal > 0, rep.signal, np.inf)
    assert (rep.inter / sig).max() < 1e-9
    assert rep.intra.max() > 0.0


def test_no_nulling_factors_are_those_of_the_raw_channel(multiuser_cfg):
    chset, nu, bf, decomp = build_at_random_nu(multiuser_cfg, 4, nulling=False)
    assert decomp.v0 == (None,) * multiuser_cfg.h_groups
    for k, h_k in enumerate(ch.effective_channels(chset, nu, multiuser_cfg)):
        res = mk.svd(h_k)
        np.testing.assert_array_equal(decomp.s1[k], res.s[:multiuser_cfg.zeta])
        np.testing.assert_array_equal(bf.combiners[k], res.u[:, :multiuser_cfg.zeta])
    rep = sm.sum_rate(bf, chset, nu, multiuser_cfg)
    assert rep.interference_ratio().max() > 1e-3


def test_no_nulling_zero_beamformer_rejected(multiuser_cfg, monkeypatch):
    # An all-zero channel still has unit singular vectors, so the no-nulling
    # beamformer vanishes only when group members' directions cancel:
    # here each group's second member sees the negated channel of the first.
    rng = np.random.default_rng(12)
    chset = ch.generate_channels(multiuser_cfg, rng)
    nu = ch.random_phase_vector(multiuser_cfg.n_irs, rng)
    h_eff = ch.effective_channels(chset, nu, multiuser_cfg)
    for first, second in multiuser_cfg.groups():
        h_eff[second] = -h_eff[first]
    monkeypatch.setattr(bd, "effective_channels", lambda *a: h_eff)
    with pytest.raises(bd.BdInfeasibleError, match="zero transmit beamformer"):
        bd.build_beamformers(chset, multiuser_cfg.groups(), nu, multiuser_cfg,
                             nulling=False)


def test_closed_form_matches_oracle(desk_cfg):
    for seed in range(5):
        chset, nu, bf, decomp = build_at_random_nu(desk_cfg, 10 + seed)
        rep = sm.sum_rate(bf, chset, nu, desk_cfg)
        closed = bd.bd_rate_closed_form(decomp, desk_cfg.groups(), desk_cfg)
        assert np.max(np.abs(closed - rep.user_rates) / rep.user_rates) < 1e-6


def test_bd_objective_equals_oracle_objective(desk_cfg):
    # sum over groups of the minimum member closed-form rate
    rng = np.random.default_rng(20)
    chset = ch.generate_channels(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    groups = desk_cfg.groups()
    bf, decomp = bd.build_beamformers(chset, groups, nu, desk_cfg)
    rates = bd.bd_rate_closed_form(decomp, groups, desk_cfg)
    obj = sum(min(rates[k] for k in members) for members in groups)
    rep = sm.sum_rate(bf, chset, nu, desk_cfg)
    assert math.isclose(obj, rep.sum_rate, rel_tol=1e-6)


def test_power_met_exactly(desk_cfg, multiuser_cfg):
    for cfg, seed in ((desk_cfg, 5), (multiuser_cfg, 6)):
        _, _, bf, decomp = build_at_random_nu(cfg, seed)
        assert math.isclose(np.linalg.norm(bf.tx) ** 2, cfg.power_w,
                            rel_tol=1e-12)
    # singleton groups: each block V0 V1 has orthonormal columns, so the
    # blocks meet the budget before the exact rescale
    _, _, _, decomp = build_at_random_nu(desk_cfg, 7)
    for v0, v1 in zip(decomp.v0, decomp.v1):
        block = v0 @ v1
        np.testing.assert_allclose(block.conj().T @ block, np.eye(desk_cfg.zeta),
                                   atol=1e-9)


def test_unitary_left_multiplication_preserves_singulars(desk_cfg):
    rng = np.random.default_rng(8)
    chset = ch.generate_channels(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    h_eff = ch.effective_channels(chset, nu, desk_cfg)
    groups = desk_cfg.groups()
    decomp = bd.decompose(h_eff, groups, desk_cfg)
    q, _ = np.linalg.qr(random_complex(rng, desk_cfg.n_ue, desk_cfg.n_ue))
    h_rot = [q @ h for h in h_eff]
    decomp_rot = bd.decompose(h_rot, groups, desk_cfg)
    assert decomp.s1.shape == (desk_cfg.k_users, desk_cfg.zeta)
    np.testing.assert_allclose(decomp.s1, decomp_rot.s1, rtol=1e-9)


def test_degenerate_shared_path_space_is_infeasible(desk_cfg):
    # Y = L makes every user's cascade span the same BS-side subspace: the
    # exact null projector then removes the whole signal and BD must refuse.
    cfg = dataclasses.replace(desk_cfg, paths_y=3, paths_l=3)
    rng = np.random.default_rng(9)
    chset = ch.generate_channels(cfg, rng)
    nu = ch.random_phase_vector(cfg.n_irs, rng)
    with pytest.raises(bd.BdInfeasibleError, match="rank below zeta"):
        bd.build_beamformers(chset, cfg.groups(), nu, cfg)


def test_multiuser_smoke(multiuser_cfg):
    # 2-user groups: the V-sum averaging leaves intra-group cross terms, so
    # the closed form is only an approximation here (its exactness is pinned
    # at 1e-6 on singleton groups above); the build must still satisfy the
    # hard contracts: positive rates, exact power, exact inter-group nulling.
    chset, nu, bf, decomp = build_at_random_nu(multiuser_cfg, 12)
    rep = sm.sum_rate(bf, chset, nu, multiuser_cfg)
    closed = bd.bd_rate_closed_form(decomp, multiuser_cfg.groups(), multiuser_cfg)
    assert np.all(closed > 0) and np.all(rep.user_rates > 0)
    assert np.all(np.isfinite(closed))
    assert math.isclose(np.linalg.norm(bf.tx) ** 2, multiuser_cfg.power_w,
                        rel_tol=1e-12)
