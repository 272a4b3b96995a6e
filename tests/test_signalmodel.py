import dataclasses
import math

import numpy as np
import pytest

from irs_multicast import bd
from irs_multicast import channel as ch
from irs_multicast import phaseopt as po
from irs_multicast import signalmodel as sm

from conftest import random_complex


def naive_stream_terms(combiners, h_effs, tx, groups, zeta, user_k, group_h, stream_i):
    """Scalar-loop reference: signal, I, J for one stream, no matrix slicing."""
    w_col = combiners[user_k][:, stream_i]
    hk = h_effs[user_k]
    sig = abs(np.vdot(w_col, hk @ tx[:, group_h * zeta + stream_i])) ** 2
    i_term = 0.0
    for j in range(zeta):
        if j != stream_i:
            i_term += abs(np.vdot(w_col, hk @ tx[:, group_h * zeta + j])) ** 2
    j_term = 0.0
    for m in range(len(groups)):
        if m == group_h:
            continue
        for l in range(zeta):
            j_term += abs(np.vdot(w_col, hk @ tx[:, m * zeta + l])) ** 2
    return sig, i_term, j_term


def channels_at_random_nu(cfg, rng):
    chset = ch.generate_channels(cfg, rng)
    return ch.effective_channels(chset, ch.random_phase_vector(cfg.n_irs, rng), cfg)


def random_digital_bf(cfg, rng):
    b = random_complex(rng, cfg.n_bs, cfg.h_groups * cfg.zeta)
    b *= math.sqrt(cfg.power_w) / np.linalg.norm(b)
    j = [random_complex(rng, cfg.n_ue, cfg.zeta) for _ in range(cfg.k_users)]
    return sm.BeamformerSet(tx=b, combiners=j)


def test_groups_from_sizes(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, k_users=6, h_groups=3, group_sizes=(2, 1, 3))
    assert cfg.groups() == ((0, 1), (2,), (3, 4, 5))


def test_validate_groups_returns_the_membership_vector(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, k_users=3, group_sizes=(2, 1))
    assert sm.validate_groups(((0, 1), (2,)), cfg).tolist() == [0, 0, 1]
    cfg = dataclasses.replace(desk_cfg, k_users=5, h_groups=3, group_sizes=(2, 1, 2))
    assert sm.validate_groups(None, cfg).tolist() == [0, 0, 1, 2, 2]
    # the config's layout as lists
    assert sm.validate_groups([[0, 1], [2], [3, 4]], cfg).tolist() == [0, 0, 1, 2, 2]


@pytest.mark.parametrize("layout", [((0, 1, 2, 3, 4),), ((3, 4), (2,), (0, 1)),
                                    ((1, 0), (2,), (4, 3)), ((0, 2), (1,), (3, 4))],
                         ids=["count", "group_order", "member_order", "non_contiguous"])
@pytest.mark.parametrize("entry", ["validate_groups", "coupling_vectors", "objective_f",
                                   "euclidean_grad", "build_beamformers",
                                   "bd_rate_closed_form"])
def test_group_count_other_than_the_config_is_rejected(multiuser_cfg, entry, layout):
    # one group of all users ran to a 16x2 transmit matrix and a rate; every
    # entry point that still takes groups holds them to the config's layout,
    # here the uneven (2, 1, 2), and refuses any other count, order or
    # partition of the users
    cfg = dataclasses.replace(multiuser_cfg, k_users=5, h_groups=3, group_sizes=(2, 1, 2),
                              paths_y=14)
    rng = np.random.default_rng(11)
    chset = ch.generate_channels(cfg, rng)
    nu = ch.random_phase_vector(cfg.n_irs, rng)
    h_eff = ch.effective_channels(chset, nu, cfg)
    cs = po.coupling_vectors(chset, cfg, cfg.groups())
    _, decomp = bd.build_beamformers(h_eff, cfg.groups(), cfg)
    call = {"validate_groups": lambda g: sm.validate_groups(g, cfg),
            "coupling_vectors": lambda g: po.coupling_vectors(chset, cfg, g),
            "objective_f": lambda g: po.objective_f(cs, nu, g),
            "euclidean_grad": lambda g: po.euclidean_grad(cs, nu, g),
            "build_beamformers": lambda g: bd.build_beamformers(h_eff, g, cfg),
            "bd_rate_closed_form": lambda g: bd.bd_rate_closed_form(decomp, g, cfg)}[entry]
    call(cfg.groups())
    with pytest.raises(ValueError, match=r"are not the config's layout \(\(0, 1\), \(2,\), "):
        call(layout)


def test_single_group_single_stream_sinr_is_signal_over_noise(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, h_groups=1, k_users=1, group_sizes=(1,),
                              zeta=1, m_bs=4, m_ue=4)
    rng = np.random.default_rng(0)
    h_eff = channels_at_random_nu(cfg, rng)
    bf = random_digital_bf(cfg, rng)
    rep = sm.sum_rate(bf, h_eff, cfg)
    assert rep.intra[0, 0] == 0.0 and rep.inter[0, 0] == 0.0
    sig = abs(np.vdot(bf.combiners[0][:, 0], h_eff[0] @ bf.tx[:, 0])) ** 2
    assert math.isclose(rep.sinr[0, 0], sig / cfg.noise_w, rel_tol=1e-12)


def test_zero_tx_column_zero_sinr(desk_cfg):
    rng = np.random.default_rng(1)
    h_eff = channels_at_random_nu(desk_cfg, rng)
    bf = random_digital_bf(desk_cfg, rng)
    bf.tx[:, 0] = 0.0
    assert sm.sum_rate(bf, h_eff, desk_cfg).sinr[0, 0] == 0.0


def test_stream_sinr_matches_naive_loops(multiuser_cfg):
    rng = np.random.default_rng(2)
    h_eff = channels_at_random_nu(multiuser_cfg, rng)
    bf = random_digital_bf(multiuser_cfg, rng)
    groups = multiuser_cfg.groups()
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    for h, members in enumerate(groups):
        for k in members:
            for i in range(multiuser_cfg.zeta):
                sinr, i_t, j_t = rep.sinr[k, i], rep.intra[k, i], rep.inter[k, i]
                sig, i_ref, j_ref = naive_stream_terms(
                    bf.combiners, h_eff, bf.tx, groups,
                    multiuser_cfg.zeta, k, h, i)
                assert math.isclose(i_t, i_ref, rel_tol=1e-10, abs_tol=1e-300)
                assert math.isclose(j_t, j_ref, rel_tol=1e-10, abs_tol=1e-300)
                ref = sig / (i_ref + j_ref + multiuser_cfg.noise_w)
                assert math.isclose(sinr, ref, rel_tol=1e-10)


def test_user_rate_values(desk_cfg):
    # one user, two streams on an identity link at 1 W noise: SINR 0 gives
    # 0 bit/s, SINR 1 over 1 Hz gives 1 bit/s per stream, SINR 3 gives 2 bits
    eye = np.eye(desk_cfg.n_bs, dtype=complex)
    h_eff, combiners = eye[None], eye[None, :, :2]
    for bw, tx_scale, per_stream in ((1e6, 0.0, 0.0), (1.0, 1.0, 1.0),
                                     (251.1886e6, math.sqrt(3.0), 2.0)):
        cfg = dataclasses.replace(desk_cfg, k_users=1, h_groups=1, group_sizes=(1,),
                                  noise_dbm=30.0, bw_hz=bw)
        bf = sm.BeamformerSet(tx=tx_scale * eye[:, :2], combiners=combiners)
        rep = sm.sum_rate(bf, h_eff, cfg)
        assert math.isclose(rep.user_rates[0], 2 * per_stream * bw)
        assert math.isclose(rep.sum_rate, 2 * per_stream * bw)


def test_sum_rate_singleton_groups_sums_user_rates(desk_cfg):
    rng = np.random.default_rng(4)
    h_eff = channels_at_random_nu(desk_cfg, rng)
    bf = random_digital_bf(desk_cfg, rng)
    rep = sm.sum_rate(bf, h_eff, desk_cfg)
    assert math.isclose(rep.sum_rate, rep.user_rates.sum(), rel_tol=1e-12)


def test_sum_rate_duplicate_users_min_of_equals(multiuser_cfg):
    rng = np.random.default_rng(5)
    chset = ch.generate_channels(multiuser_cfg, rng)
    # users 0 and 1 share one channel: the group min equals either rate
    h_ue = list(chset.h_irs_ue)
    h_ue[1] = h_ue[0]
    chset = dataclasses.replace(chset, h_irs_ue=tuple(h_ue))
    h_eff = ch.effective_channels(chset, ch.random_phase_vector(multiuser_cfg.n_irs, rng),
                                  multiuser_cfg)
    bf = random_digital_bf(multiuser_cfg, rng)
    bf.combiners[1] = bf.combiners[0]
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    assert math.isclose(rep.group_rates[0], rep.user_rates[0], rel_tol=1e-12)
    assert math.isclose(rep.user_rates[0], rep.user_rates[1], rel_tol=1e-12)


def test_sum_rate_matches_naive_decomposition(multiuser_cfg):
    rng = np.random.default_rng(6)
    h_eff = channels_at_random_nu(multiuser_cfg, rng)
    bf = random_digital_bf(multiuser_cfg, rng)
    groups = multiuser_cfg.groups()
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    expected_group = []
    for h, members in enumerate(groups):
        rates = []
        for k in members:
            total = 0.0
            for i in range(multiuser_cfg.zeta):
                sig, i_t, j_t = naive_stream_terms(
                    bf.combiners, h_eff, bf.tx, groups,
                    multiuser_cfg.zeta, k, h, i)
                total += math.log2(1 + sig / (i_t + j_t + multiuser_cfg.noise_w))
            rates.append(multiuser_cfg.bw_hz * total)
        expected_group.append(min(rates))
    assert np.allclose(rep.group_rates, expected_group, rtol=1e-10)
    assert math.isclose(rep.sum_rate, sum(expected_group), rel_tol=1e-10)


def test_zeroing_interferers_increases_sinr(multiuser_cfg):
    rng = np.random.default_rng(8)
    h_eff = channels_at_random_nu(multiuser_cfg, rng)
    bf = random_digital_bf(multiuser_cfg, rng)
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    bf.tx[:, multiuser_cfg.zeta:] = 0.0  # silence group 1
    rep2 = sm.sum_rate(bf, h_eff, multiuser_cfg)
    assert np.all(rep2.sinr[0] > rep.sinr[0])


def test_check_constraints_power_scaling(desk_cfg):
    rng = np.random.default_rng(10)
    bf = random_digital_bf(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    ratio = sm.check_constraints(bf, desk_cfg, nu).power_ratio
    bf.tx *= 2.0
    assert math.isclose(sm.check_constraints(bf, desk_cfg, nu).power_ratio,
                        4.0 * ratio, rel_tol=1e-12)


def test_check_constraints_compliant_hybrid(desk_cfg):
    rng = np.random.default_rng(11)
    f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (desk_cfg.n_bs, desk_cfg.m_bs)))
    f_bb = random_complex(rng, desk_cfg.m_bs, desk_cfg.h_groups * desk_cfg.zeta)
    f_bb *= math.sqrt(desk_cfg.power_w) / np.linalg.norm(f_rf @ f_bb)
    w_rf = np.exp(1j * rng.uniform(0, 2 * np.pi,
                                   (desk_cfg.k_users, desk_cfg.n_ue, desk_cfg.m_ue)))
    w_bb = np.stack([random_complex(rng, desk_cfg.m_ue, desk_cfg.zeta)
                     for _ in range(desk_cfg.k_users)])
    bf = sm.BeamformerSet(tx=f_rf @ f_bb, combiners=w_rf @ w_bb, rf=(f_rf, w_rf))
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    rep = sm.check_constraints(bf, desk_cfg, nu)
    assert rep.rf_modulus_dev < 1e-9
    assert rep.power_ratio <= 1.0 + 1e-6
    assert rep.phase_modulus_dev < 1e-12
    assert rep.ok()
    # one user's W_R entry off the unit circle violates the constraint
    w_rf[1, 2, 0] *= 1.5
    rep = sm.check_constraints(bf, desk_cfg, nu)
    assert math.isclose(rep.rf_modulus_dev, 0.5, rel_tol=1e-12)
    assert not rep.ok()
