import dataclasses
import math

import numpy as np
import pytest

from irs_multicast import bd
from irs_multicast import channel as ch
from irs_multicast import matrixkit as mk
from irs_multicast import phaseopt as po
from irs_multicast import signalmodel as sm

from conftest import CONFIG_DIR, random_complex


def build_at_random_nu(cfg, seed, **kw):
    rng = np.random.default_rng(seed)
    chset = ch.generate_channels(cfg, rng)
    h_eff = ch.effective_channels(chset, ch.random_phase_vector(cfg.n_irs, rng), cfg)
    bf, decomp = bd.build_beamformers(h_eff, cfg.groups(), cfg, **kw)
    return h_eff, bf, decomp


def test_one_group_gets_the_identity_null_basis(desk_cfg):
    # no other group constrains the BS: the null basis is the identity and
    # the factors are the raw SVD's
    cfg = dataclasses.replace(desk_cfg, k_users=1, h_groups=1, group_sizes=(1,),
                              m_bs=4, m_ue=4)
    h_eff = random_complex(np.random.default_rng(3), cfg.n_ue, cfg.n_bs)[None]
    decomp = bd.decompose(h_eff, cfg)
    np.testing.assert_array_equal(decomp.v0[0], np.eye(cfg.n_bs))
    u, s, vh = mk.svd(h_eff[0])
    np.testing.assert_array_equal(decomp.u1[0], u[:, :cfg.zeta])
    np.testing.assert_array_equal(decomp.s1[0], s[:cfg.zeta])
    np.testing.assert_array_equal(decomp.v1[0], vh[:cfg.zeta].conj().T)


def test_other_groups_spanning_the_bs_space_leave_no_null_space(desk_cfg):
    # user 1's n_ue = n_bs rows span C^{N_B}, so group 0 has nothing to send in
    rng = np.random.default_rng(2)
    h_eff = np.stack([random_complex(rng, desk_cfg.n_ue, desk_cfg.n_bs) for _ in range(2)])
    with pytest.raises(bd.BdInfeasibleError, match="^insufficient BS antennas for BD$"):
        bd.decompose(h_eff, desk_cfg)


def test_null_space_thinner_than_the_streams_is_rejected(desk_cfg):
    # user 1's rows span all but one dimension: a 1-dimensional null space
    # cannot carry zeta = 2 streams
    rng = np.random.default_rng(4)
    n = desk_cfg.n_bs
    h1 = random_complex(rng, desk_cfg.n_ue, n - 1) @ random_complex(rng, n - 1, n)
    h_eff = np.stack([random_complex(rng, desk_cfg.n_ue, n), h1])
    assert desk_cfg.zeta == 2
    with pytest.raises(bd.BdInfeasibleError,
                       match="^group 0: null space dimension 1 < zeta=2$"):
        bd.decompose(h_eff, desk_cfg)


def test_single_user_degenerates_to_eigen_beamforming(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, k_users=1, h_groups=1, group_sizes=(1,),
                              zeta=1, m_bs=4, m_ue=4)
    h_eff, bf, decomp = build_at_random_nu(cfg, 3)
    u, _, vh = mk.svd(h_eff[0])
    b_expected = vh[0].conj() * math.sqrt(cfg.power_w)
    # compare up to a global phase
    inner = np.vdot(bf.tx[:, 0], b_expected)
    assert math.isclose(abs(inner), cfg.power_w, rel_tol=1e-9)
    inner_j = np.vdot(bf.combiners[0][:, 0], u[:, 0])
    assert math.isclose(abs(inner_j), 1.0, rel_tol=1e-9)


def test_bd_nulls_all_interference_singleton_groups(desk_cfg):
    for seed in range(5):
        h_eff, bf, _ = build_at_random_nu(desk_cfg, seed)
        rep = sm.sum_rate(bf, h_eff, desk_cfg)
        assert rep.interference_ratio().max() < 1e-9


def test_bd_inter_group_nulling_multiuser(multiuser_cfg):
    # exact null projection kills J for any feasible group sizes; the intra
    # term is only approximately nulled when groups have several members
    h_eff, bf, _ = build_at_random_nu(multiuser_cfg, 4)
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    sig = np.where(rep.signal > 0, rep.signal, np.inf)
    assert (rep.inter / sig).max() < 1e-9
    assert rep.intra.max() > 0.0


def test_no_nulling_factors_are_those_of_the_raw_channel(multiuser_cfg):
    h_eff, bf, decomp = build_at_random_nu(multiuser_cfg, 4, nulling=False)
    assert decomp.v0 == (None,) * multiuser_cfg.h_groups
    for k, h_k in enumerate(h_eff):
        u, s, _ = mk.svd(h_k)
        np.testing.assert_array_equal(decomp.s1[k], s[:multiuser_cfg.zeta])
        np.testing.assert_array_equal(bf.combiners[k], u[:, :multiuser_cfg.zeta])
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    assert rep.interference_ratio().max() > 1e-3


def test_no_nulling_zero_beamformer_rejected(multiuser_cfg):
    # An all-zero channel still has unit singular vectors, so the no-nulling
    # beamformer vanishes only when group members' directions cancel:
    # here each group's second member sees the negated channel of the first.
    rng = np.random.default_rng(12)
    chset = ch.generate_channels(multiuser_cfg, rng)
    nu = ch.random_phase_vector(multiuser_cfg.n_irs, rng)
    h_eff = ch.effective_channels(chset, nu, multiuser_cfg)
    for first, second in multiuser_cfg.groups():
        h_eff[second] = -h_eff[first]
    with pytest.raises(bd.BdInfeasibleError, match="zero transmit beamformer"):
        bd.build_beamformers(h_eff, multiuser_cfg.groups(), multiuser_cfg, nulling=False)


def test_closed_form_matches_oracle(desk_cfg):
    for seed in range(5):
        h_eff, bf, decomp = build_at_random_nu(desk_cfg, 10 + seed)
        rep = sm.sum_rate(bf, h_eff, desk_cfg)
        closed = bd.bd_rate_closed_form(decomp, desk_cfg.groups(), desk_cfg)
        assert np.max(np.abs(closed - rep.user_rates) / rep.user_rates) < 1e-6


def test_bd_objective_equals_oracle_objective(desk_cfg):
    # sum over groups of the minimum member closed-form rate
    rng = np.random.default_rng(20)
    chset = ch.generate_channels(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    h_eff = ch.effective_channels(chset, nu, desk_cfg)
    groups = desk_cfg.groups()
    bf, decomp = bd.build_beamformers(h_eff, groups, desk_cfg)
    rates = bd.bd_rate_closed_form(decomp, groups, desk_cfg)
    obj = sum(min(rates[k] for k in members) for members in groups)
    rep = sm.sum_rate(bf, h_eff, desk_cfg)
    assert math.isclose(obj, rep.sum_rate, rel_tol=1e-6)


def test_power_met_exactly(desk_cfg, multiuser_cfg):
    for cfg, seed in ((desk_cfg, 5), (multiuser_cfg, 6)):
        _, bf, decomp = build_at_random_nu(cfg, seed)
        assert math.isclose(np.linalg.norm(bf.tx) ** 2, cfg.power_w,
                            rel_tol=1e-12)
    # singleton groups: each block V0 V1 has orthonormal columns, so the
    # blocks meet the budget before the exact rescale
    _, _, decomp = build_at_random_nu(desk_cfg, 7)
    for v0, v1 in zip(decomp.v0, decomp.v1):
        block = v0 @ v1
        np.testing.assert_allclose(block.conj().T @ block, np.eye(desk_cfg.zeta),
                                   atol=1e-9)


def test_unitary_left_multiplication_preserves_singulars(desk_cfg):
    rng = np.random.default_rng(8)
    chset = ch.generate_channels(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    h_eff = ch.effective_channels(chset, nu, desk_cfg)
    decomp = bd.decompose(h_eff, desk_cfg)
    q, _ = np.linalg.qr(random_complex(rng, desk_cfg.n_ue, desk_cfg.n_ue))
    h_rot = q @ h_eff
    decomp_rot = bd.decompose(h_rot, desk_cfg)
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
        bd.build_beamformers(ch.effective_channels(chset, nu, cfg), cfg.groups(), cfg)


def test_multiuser_smoke(multiuser_cfg):
    # 2-user groups: the V-sum averaging leaves intra-group cross terms, so
    # the closed form is only an approximation here (its exactness is pinned
    # at 1e-6 on singleton groups above); the build must still satisfy the
    # hard contracts: positive rates, exact power, exact inter-group nulling.
    h_eff, bf, decomp = build_at_random_nu(multiuser_cfg, 12)
    rep = sm.sum_rate(bf, h_eff, multiuser_cfg)
    closed = bd.bd_rate_closed_form(decomp, multiuser_cfg.groups(), multiuser_cfg)
    assert np.all(closed > 0) and np.all(rep.user_rates > 0)
    assert np.all(np.isfinite(closed))
    assert math.isclose(np.linalg.norm(bf.tx) ** 2, multiuser_cfg.power_w,
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Rank test: the Frobenius bound first, the exact 2-norm only when it fails
# ---------------------------------------------------------------------------

def spy_on_two_norms(monkeypatch):
    """Count the ``np.linalg.norm(., 2)`` calls made while the spy is on."""
    calls = []
    norm = np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(x.shape)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


def planted_projection(s_proj, n=16):
    """Two singleton groups on an n-antenna BS whose user-0 channel is unit
    2-norm and Frobenius norm 2 up to a part of singular values ``s_proj``
    outside user 1's row space, so that user 0's projection has exactly
    those singular values, to rounding."""
    rng = np.random.default_rng(90)
    q, _ = np.linalg.qr(random_complex(rng, n, n))
    rows = q.conj().T
    u0, _ = np.linalg.qr(random_complex(rng, n, 6))
    h0 = u0[:, :4] @ rows[:4] + s_proj * (u0[:, 4:6] @ rows[4:6])
    h1 = random_complex(rng, n, 4) @ rows[:4] + random_complex(rng, n, 2) @ rows[6:8]
    return np.stack([h0, h1])


@pytest.mark.parametrize("s_proj, feasible",
                         [(0.0, False), (1.0e-9, False), (2.4e-9, True), (4.0e-9, True)])
def test_rank_test_keeps_the_exact_decision(desk_cfg, monkeypatch, s_proj, feasible):
    # rank_tol = 1.6e-9 on the 16 x 10 projection, ||H_0||_2 = 1 and
    # ||H_0||_F = 2: at 0 user 0's channel lies in user 1's row space and its
    # projection collapses to rounding, 1e-9 fails both tests, 2.4e-9 passes
    # only the exact one and 4e-9 clears the Frobenius bound without it
    h_eff = planted_projection(s_proj)
    assert math.isclose(np.linalg.norm(h_eff[0], 2), 1.0, rel_tol=1e-12)
    assert math.isclose(np.linalg.norm(h_eff[0]), 2.0, rel_tol=1e-12)
    proj = h_eff[0] @ mk.nullspace_basis(h_eff[1])
    s = mk.svd(proj)[1][desk_cfg.zeta - 1]
    tol = mk.default_rank_tol(proj.shape)
    # the decision of the exact test alone, against tol * ||H_0||_2
    assert (s > tol * np.linalg.norm(h_eff[0], 2)) == feasible
    calls = spy_on_two_norms(monkeypatch)
    if feasible:
        # user 0's channel alone is group 1's constraint stack, so its
        # factors come from that stack's SVD
        decomp = bd.decompose(h_eff, desk_cfg)
        core_s = mk.nullspace_svd(h_eff[0]).svd_times(mk.nullspace_basis(h_eff[1]))[1]
        assert np.array_equal(decomp.s1[0], core_s[:desk_cfg.zeta])
    else:
        with pytest.raises(bd.BdInfeasibleError,
                           match="user 0: projected channel rank below zeta"):
            bd.decompose(h_eff, desk_cfg)
    assert len(calls) == (0 if s_proj > 3.2e-9 else 1)


def test_feasible_full_scale_decompose_takes_no_two_norm(monkeypatch):
    cfg = ch.load_config(CONFIG_DIR / "full_scale.json")
    calls = spy_on_two_norms(monkeypatch)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        chset = ch.generate_channels(cfg, rng)
        h_eff = ch.effective_channels(chset, ch.random_phase_vector(cfg.n_irs, rng), cfg)
        for nulling in (True, False):
            bd.decompose(h_eff, cfg, nulling)
    assert calls == []


def check_against_direct_svd(h_eff, cfg):
    """On two singleton groups each user's channel alone is the other
    group's constraint stack, so ``decompose`` takes every user's factors
    from that stack's SVD. They must match the direct SVD of ``H_k V0`` to
    1e-12 * ||H_k||_2 absolute, and the infeasibility decision must be the
    direct path's: the exact rank test on that SVD. Returns whether BD is
    feasible."""
    assert cfg.group_sizes == (1, 1)
    zeta, direct, feasible = cfg.zeta, [], []
    for k in (0, 1):
        v0 = mk.nullspace_basis(h_eff[1 - k])
        u, s, vh = mk.svd(h_eff[k] @ v0)
        scale = float(np.linalg.norm(h_eff[k], 2))
        direct.append((u[:, :zeta], s[:zeta], vh[:zeta], scale))
        tol = mk.default_rank_tol((cfg.n_ue, v0.shape[1]))
        feasible.append(scale > 0.0 and s[zeta - 1] > tol * scale)
    if not all(feasible):
        with pytest.raises(bd.BdInfeasibleError,
                           match=f"^user {feasible.index(False)}: projected channel rank"
                                 f" below zeta={zeta} \\(effective channel collapses"):
            bd.decompose(h_eff, cfg)
        return False
    decomp = bd.decompose(h_eff, cfg)
    for k, (u, s, vh, scale) in enumerate(direct):
        assert np.max(np.abs(decomp.s1[k] - s)) <= 1e-12 * scale
        got = (decomp.u1[k] * decomp.s1[k]) @ decomp.v1[k].conj().T
        assert np.max(np.abs(got - (u * s) @ vh)) <= 1e-12 * scale
    return True


@pytest.mark.parametrize("name, n_ue", [("desk", None), ("full_scale", None),
                                        ("desk", 8), ("desk", 32)])
@pytest.mark.parametrize("seed", range(5))
def test_reused_constraint_svd_matches_the_direct_svd(name, n_ue, seed):
    # n_ue 8 and 32 give non-square U_k, N_U != N_B
    cfg = ch.load_config(CONFIG_DIR / f"{name}.json")
    if n_ue is not None:
        cfg = dataclasses.replace(cfg, n_ue=n_ue)
    rng = np.random.default_rng(seed)
    chset = ch.generate_channels(cfg, rng)
    nu = ch.random_phase_vector(cfg.n_irs, rng)
    optimized = po.optimize_phases(po.coupling_vectors(chset, cfg), nu).nu
    for phases in (nu, optimized):
        assert check_against_direct_svd(ch.effective_channels(chset, phases, cfg), cfg)


@pytest.mark.parametrize("s_proj", [0.0, 1.0e-9, 2.4e-9, 4.0e-9])
def test_reused_constraint_svd_keeps_the_planted_decisions(desk_cfg, s_proj):
    assert check_against_direct_svd(planted_projection(s_proj), desk_cfg) == (s_proj > 2e-9)


def test_one_user_constraint_below_zeta_is_rejected_as_the_direct_path(desk_cfg):
    # user 0's channel has rank 1 < zeta = 2: the SVD its constraint stack
    # holds for group 1 cannot carry the streams, and the direct projection
    # fails the rank test with the same message
    rng = np.random.default_rng(5)
    h0 = random_complex(rng, desk_cfg.n_ue, 1) @ random_complex(rng, 1, desk_cfg.n_bs)
    h1 = random_complex(rng, desk_cfg.n_ue, 8) @ random_complex(rng, 8, desk_cfg.n_bs)
    assert mk.nullspace_svd(h0).rank == 1 < desk_cfg.zeta
    assert not check_against_direct_svd(np.stack([h0, h1]), desk_cfg)
