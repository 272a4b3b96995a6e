"""The stacked user axis against the per-user forms it replaced.

Every per-user quantity is one ``(K, ...)`` array from the channel draw to
the rate oracle. The per-user code it replaced is kept here as the oracle,
and each stacked stage must reproduce it bit for bit, since the phase
descent and the hybrid alternation behind the rates are chaotic in the last
bits.
"""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from irs_multicast import bd, harness
from irs_multicast import channel as ch
from irs_multicast import hybridfactor as hf
from irs_multicast import matrixkit as mk
from irs_multicast import phaseopt as po
from irs_multicast import signalmodel as sm

from conftest import CONFIG_DIR, user_paths

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
CONFIGS = {"desk": CONFIG_DIR / "desk.json",
           "desk_multiuser": CONFIG_DIR / "desk_multiuser.json",
           "full_scale": CONFIG_DIR / "full_scale.json",
           "rf_limited": BENCH_DIR / "rf_limited.json"}
SEEDS = (0, 1, 2)
CASES = [(name, seed) for name in CONFIGS for seed in SEEDS]
# desk_multiuser with three groups of unequal size, which no preset has
UNEVEN = dict(k_users=5, h_groups=3, group_sizes=(2, 1, 2), paths_y=14)


def _config(name):
    if name == "uneven":
        return dataclasses.replace(ch.load_config(CONFIGS["desk_multiuser"]), **UNEVEN)
    return ch.load_config(CONFIGS[name])


def _draw(name, seed):
    cfg = _config(name)
    rng = np.random.default_rng(seed)
    chset = ch.generate_channels(cfg, rng)
    return cfg, chset, ch.random_phase_vector(cfg.n_irs, rng), rng


# ---------------------------------------------------------------------------
# The per-user forms, kept as oracles
# ---------------------------------------------------------------------------

def _effective_channels_per_user(chset, nu, cfg):
    gain = 10.0 ** (cfg.g_tx_dbi / 20.0) * 10.0 ** (cfg.g_rx_dbi / 20.0)
    phase = np.conj(nu)[None, :]
    return [gain * ((h_k * phase) @ chset.h_bs_irs) for h_k in chset.h_irs_ue]


def _coupling_per_user(chset, cfg, groups):
    zeta, y, ell = cfg.zeta, cfg.paths_y, cfg.paths_l
    bs = chset.bs_paths
    alpha = cfg.g_tx_lin * math.sqrt(cfg.n_bs * cfg.n_irs / y) * bs.gains
    order_a = np.argsort(-np.abs(alpha), kind="stable")
    alpha_sorted = alpha[order_a]
    arr_vecs = bs.a_irs[order_a[:cfg.h_groups * zeta]]
    group_of = {k: h for h, members in enumerate(groups) for k in members}
    c, b, gain = [], [], []
    for k, up in enumerate(user_paths(chset)):
        h = group_of[k]
        beta = cfg.g_rx_lin * math.sqrt(cfg.n_irs * cfg.n_ue / ell) * up.gains
        order_b = np.argsort(-np.abs(beta), kind="stable")
        beta_sorted = beta[order_b]
        dep_vecs = up.a_irs[order_b[:zeta]]
        cols = np.arange(h * zeta, h * zeta + zeta)
        c.append(np.conj(dep_vecs) * arr_vecs[cols])
        scale = cfg.power_w / (len(groups[h]) * cfg.h_groups * zeta * cfg.noise_w)
        gain.append(alpha_sorted[cols] * beta_sorted[:zeta])
        b.append(scale * np.abs(gain[-1]) ** 2)
    return dict(c=np.stack(c), b=np.stack(b), gain=np.stack(gain))


def _others(groups, h):
    return sorted(k for g, members in enumerate(groups) if g != h for k in members)


def _other_groups_vstack(h_eff, groups, h):
    others = _others(groups, h)
    if not others:
        return np.zeros((0, h_eff[0].shape[1]), dtype=np.complex128)
    return np.vstack([h_eff[k] for k in others])


def _projected_svd_per_user(h_eff, groups, k, v0):
    """SVD of user k's projection ``H_k V0``. Where a group's other groups
    are user k alone, it comes from that constraint stack's own SVD, as the
    SVD of its core lifted back; otherwise from the projection itself."""
    for g in range(len(groups)):
        if _others(groups, g) == [k]:
            return mk.nullspace_svd(_other_groups_vstack(h_eff, groups, g)).svd_times(v0)
    return mk.svd(h_eff[k] @ v0)


def _hybridize_per_user(tx, combiners, cfg, rng):
    """Hybrid factors of a digital transmit matrix and a list of combiners:
    the composed transmit matrix, the composed combiners and the RF factors
    (F_R, [W_R,k])."""
    tx_f = hf.factor(tx, cfg.m_bs, rng=rng)
    f_bb = hf.normalize_power(tx_f.f_rf, tx_f.f_bb, cfg.power_w)
    w_rf, out = [], []
    for w in combiners:
        rx = hf.factor(w, cfg.m_ue, rng=rng)
        w_rf.append(rx.f_rf)
        out.append(rx.f_rf @ rx.f_bb)
    return tx_f.f_rf @ f_bb, out, (tx_f.f_rf, w_rf)


def _stream_terms(gains_k, group_h, zeta):
    """Split one user's gain matrix (zeta x H*zeta) into signal/I/J powers."""
    power = np.abs(gains_k) ** 2
    own = power[:, group_h * zeta:(group_h + 1) * zeta]
    signal = np.diagonal(own).copy()
    off = own.copy()
    np.fill_diagonal(off, 0.0)
    intra = off.sum(axis=1)
    other = np.ones(power.shape[1], dtype=bool)
    other[group_h * zeta:(group_h + 1) * zeta] = False
    inter = power[:, other].sum(axis=1)
    return signal, intra, inter


def _sum_rate_per_user(bf, h_eff, cfg, groups):
    """Every RateReport field, user by user."""
    k_users, zeta = cfg.k_users, cfg.zeta
    sig, intra, inter = (np.zeros((k_users, zeta)) for _ in range(3))
    gains = np.conj(bf.combiners).swapaxes(1, 2) @ h_eff @ bf.tx
    for h, members in enumerate(groups):
        for k in members:
            sig[k], intra[k], inter[k] = _stream_terms(gains[k], h, zeta)
    sinr = sig / (intra + inter + cfg.noise_w)
    rates = np.array([float(cfg.bw_hz * np.sum(np.log2(1.0 + np.asarray(sinr[k]))))
                      for k in range(k_users)])
    group_rates = np.array([min(rates[k] for k in members) for members in groups])
    return dict(sinr=sinr, signal=sig, intra=intra, inter=inter, user_rates=rates,
                group_rates=group_rates, sum_rate=float(group_rates.sum()))


def _bd_rate_per_group(decomp, groups, cfg):
    rates = np.zeros(cfg.k_users)
    for members in groups:
        scale = cfg.power_w / (len(members) * cfg.h_groups * cfg.zeta * cfg.noise_w)
        for k in members:
            rates[k] = cfg.bw_hz * np.sum(np.log2(1.0 + scale * decomp.s1[k] ** 2))
    return rates


def _stream_powers_per_user(combiners, h_eff, tx, groups, zeta):
    k_users = len(combiners)
    sig, intra, inter = (np.zeros((k_users, zeta)) for _ in range(3))
    for h, members in enumerate(groups):
        for k in members:
            gains = combiners[k].conj().T @ h_eff[k] @ tx
            sig[k], intra[k], inter[k] = _stream_terms(gains, h, zeta)
    return sig, intra, inter


# ---------------------------------------------------------------------------
# Stacked stages against the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, seed", CASES)
def test_stacked_draw_slices_are_the_per_user_links(name, seed):
    cfg, chset, _, _ = _draw(name, seed)
    k, ell = cfg.k_users, cfg.paths_l
    paths = chset.ue_paths
    assert chset.h_irs_ue.shape == (k, cfg.n_ue, cfg.n_irs)
    assert chset.user_positions.shape == (k, 3)
    assert paths.gains.shape == paths.az_irs.shape == paths.endpoint.shape == (k, ell)
    assert paths.a_irs.shape == (k, ell, cfg.n_irs)
    assert paths.a_far.shape == (k, ell, cfg.n_ue)
    # the draw order is unchanged: the BS link, then each user's position and link
    rng = np.random.default_rng(seed)
    ch._draw_link(cfg, rng, cfg.bs_pos, cfg.paths_y, cfg.n_bs)
    for k, want in enumerate(user_paths(chset)):
        position = ch._draw_user_position(cfg, rng)
        assert np.array_equal(position, chset.user_positions[k])
        got = ch._draw_link(cfg, rng, position, ell, cfg.n_ue)
        for f in dataclasses.fields(ch.PathSet):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


@pytest.mark.parametrize("name, seed", CASES)
def test_effective_channels_equal_the_per_user_products(name, seed):
    cfg, chset, nu, rng = _draw(name, seed)
    for phases in (nu, ch.random_phase_vector(cfg.n_irs, rng)):
        h_eff = ch.effective_channels(chset, phases, cfg)
        assert h_eff.shape == (cfg.k_users, cfg.n_ue, cfg.n_bs)
        assert np.array_equal(h_eff, np.stack(_effective_channels_per_user(chset, phases, cfg)))


@pytest.mark.parametrize("name, seed", CASES)
def test_coupling_vectors_equal_the_per_user_loop(name, seed):
    cfg, chset, _, _ = _draw(name, seed)
    got = po.coupling_vectors(chset, cfg, cfg.groups())
    for field, want in _coupling_per_user(chset, cfg, cfg.groups()).items():
        assert np.array_equal(getattr(got, field), want), field


@pytest.mark.parametrize("name, seed", CASES)
def test_null_bases_equal_those_of_the_stacked_other_groups(name, seed):
    cfg, chset, nu, _ = _draw(name, seed)
    h_eff = ch.effective_channels(chset, nu, cfg)
    groups = cfg.groups()
    decomp = bd.decompose(h_eff, cfg)
    for h, v0 in enumerate(decomp.v0):
        assert np.array_equal(v0, mk.nullspace_basis(_other_groups_vstack(h_eff, groups, h)))
        for k in groups[h]:
            u, _, _ = _projected_svd_per_user(h_eff, groups, k, v0)
            assert np.array_equal(decomp.u1[k], u[:, :cfg.zeta])


@pytest.mark.parametrize("name, seed", CASES)
@pytest.mark.parametrize("nulling", [True, False])
def test_oracle_and_hybrid_equal_the_per_user_forms(name, seed, nulling, monkeypatch):
    # 10 alternations instead of 100 keep rf_limited fast; both sides run
    # the same factorization on their own inputs
    monkeypatch.setattr(hf, "FactorSettings",
                        functools.partial(hf.FactorSettings, max_alternations=10))
    cfg, chset, nu, rng = _draw(name, seed)
    groups = cfg.groups()
    h_eff = ch.effective_channels(chset, nu, cfg)
    h_list = _effective_channels_per_user(chset, nu, cfg)
    bf, decomp = bd.build_beamformers(h_eff, groups, cfg, nulling)
    assert bf.combiners.shape == (cfg.k_users, cfg.n_ue, cfg.zeta)
    # the digital combiners as the per-user decomposition sliced them
    digital = [None] * cfg.k_users
    for h, members in enumerate(groups):
        for k in members:
            if decomp.v0[h] is None:
                u, _, _ = mk.svd(h_list[k])
            else:
                u, _, _ = _projected_svd_per_user(h_list, groups, k, decomp.v0[h])
            digital[k] = u[:, :cfg.zeta]
    state = rng.bit_generator.state
    hybrid, s2 = harness._hybridize(bf, cfg, rng)
    assert s2 == (10 if name == "rf_limited" else 0)
    rng.bit_generator.state = state
    tx, combiners, rf = _hybridize_per_user(bf.tx, digital, cfg, rng)
    assert np.array_equal(hybrid.tx, tx)
    assert np.array_equal(hybrid.combiners, np.stack(combiners))
    f_rf, w_rf = hybrid.rf
    assert np.array_equal(f_rf, rf[0])
    assert np.array_equal(w_rf, np.stack(rf[1]))
    for got, (tx, combiners) in ((bf, (bf.tx, digital)), (hybrid, (tx, combiners))):
        report = sm.sum_rate(got, h_eff, cfg)
        sig, intra, inter = _stream_powers_per_user(combiners, h_list, tx, groups, cfg.zeta)
        assert np.array_equal(report.signal, sig)
        assert np.array_equal(report.intra, intra)
        assert np.array_equal(report.inter, inter)


@pytest.mark.parametrize("name, seed", CASES + [("uneven", seed) for seed in SEEDS])
@pytest.mark.parametrize("nulling", [True, False])
def test_rate_oracle_and_closed_form_equal_the_per_user_loops(name, seed, nulling,
                                                              monkeypatch):
    monkeypatch.setattr(hf, "FactorSettings",
                        functools.partial(hf.FactorSettings, max_alternations=10))
    cfg, chset, nu, rng = _draw(name, seed)
    groups = cfg.groups()
    h_eff = ch.effective_channels(chset, nu, cfg)
    bf, decomp = bd.build_beamformers(h_eff, groups, cfg, nulling)
    assert np.array_equal(bd.bd_rate_closed_form(decomp, groups, cfg),
                          _bd_rate_per_group(decomp, groups, cfg))
    hybrid, _ = harness._hybridize(bf, cfg, rng)
    for beams in (bf, hybrid):
        report = sm.sum_rate(beams, h_eff, cfg)
        for field, want in _sum_rate_per_user(beams, h_eff, cfg, groups).items():
            assert np.array_equal(getattr(report, field), want), field
