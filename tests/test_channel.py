import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irs_multicast import channel as ch

angles = st.floats(-np.pi / 2, np.pi / 2, allow_nan=False)


def test_ula_broadside():
    np.testing.assert_allclose(ch.ula_response(0.0, 4), 0.5 * np.ones(4))


def test_ula_endfire_two_elements():
    out = ch.ula_response(np.pi / 2, 2)
    np.testing.assert_allclose(out, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


@given(angles, st.integers(1, 64))
def test_ula_unit_norm(angle, n):
    assert abs(np.linalg.norm(ch.ula_response(angle, n)) - 1.0) < 1e-12


def test_ula_zero_elements_rejected():
    with pytest.raises(ValueError):
        ch.ula_response(0.0, 0)


def test_upa_boresight_constant():
    out = ch.upa_response(0.0, 0.0, 3, 2)
    np.testing.assert_allclose(out, np.full(6, 1 / np.sqrt(6)))


def test_upa_single_element():
    np.testing.assert_allclose(ch.upa_response(0.3, -0.2, 1, 1), [1.0])


def test_upa_vertical_index_fastest():
    # flat index m = f1*f_z + f2: entry m=1 must move with the f2 (elevation) term
    theta, eta = 0.7, 0.4
    out = ch.upa_response(theta, eta, 2, 3)
    expected_m1 = np.exp(2j * np.pi * 0.5 * np.sin(eta)) / np.sqrt(6)
    assert abs(out[1] - expected_m1) < 1e-12
    expected_m3 = np.exp(2j * np.pi * 0.5 * np.cos(eta) * np.sin(theta)) / np.sqrt(6)
    assert abs(out[3] - expected_m3) < 1e-12


@given(angles, angles, st.integers(1, 8), st.integers(1, 8))
def test_upa_unit_norm(theta, eta, f_y, f_z):
    assert abs(np.linalg.norm(ch.upa_response(theta, eta, f_y, f_z)) - 1.0) < 1e-12


def test_upa_zero_dim_rejected():
    with pytest.raises(ValueError):
        ch.upa_response(0.0, 0.0, 0, 4)


# ---------------------------------------------------------------------------
# SystemConfig
# ---------------------------------------------------------------------------

def test_config_validation(desk_cfg):
    with pytest.raises(ch.ConfigError, match="RF chain"):
        dataclasses.replace(desk_cfg, m_bs=2)  # H*zeta = 4 > 2
    with pytest.raises(ch.ConfigError, match="RF chain"):
        dataclasses.replace(desk_cfg, m_ue=1)
    with pytest.raises(ch.ConfigError, match="n_irs"):
        dataclasses.replace(desk_cfg, n_irs=63)
    with pytest.raises(ch.ConfigError, match="group_sizes"):
        dataclasses.replace(desk_cfg, group_sizes=(1, 1, 1))
    with pytest.raises(ch.ConfigError, match="k_users"):
        dataclasses.replace(desk_cfg, group_sizes=(2, 1))
    # non-finite reals, non-positive bandwidth, non-integral counts
    for field, bad in (("noise_dbm", math.inf), ("power_dbm", math.nan),
                       ("g_tx_dbi", -math.inf), ("bs_pos", (2.0, math.nan, 10.0))):
        with pytest.raises(ch.ConfigError, match=f"{field} must be finite"):
            dataclasses.replace(desk_cfg, **{field: bad})
    # dB fields whose linear value overflows or underflows to 0
    for field, bad in (("power_dbm", 4000.0), ("noise_dbm", 4000.0), ("g_tx_dbi", 8000.0),
                       ("noise_dbm", -4000.0), ("power_dbm", -4000.0), ("g_rx_dbi", -8000.0)):
        with pytest.raises(ch.ConfigError, match=f"{field}=.* overflows or is 0"):
            dataclasses.replace(desk_cfg, **{field: bad})
    # each dB field is fine, but the SNR scale P*G_t^2*G_r^2/sigma^2 of the
    # rates overflows, or underflows to 0
    for field, bad in (("g_tx_dbi", 6000.0), ("g_rx_dbi", -6000.0)):
        with pytest.raises(ch.ConfigError, match="SNR scale .* must be finite and > 0"):
            dataclasses.replace(desk_cfg, **{field: bad})
    for bw in (-1.0, 0.0):
        with pytest.raises(ch.ConfigError, match="bw_hz must be positive"):
            dataclasses.replace(desk_cfg, bw_hz=bw)
    for field, bad in (("n_bs", 16.5), ("zeta", math.nan), ("paths_l", "3"),
                       ("group_sizes", (1.5, 0.5)), ("seed", 0.25)):
        with pytest.raises(ch.ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(desk_cfg, **{field: bad})
    # an integral float is a count, stored as an int
    cfg = dataclasses.replace(desk_cfg, n_bs=16.0)
    assert cfg == desk_cfg and type(cfg.n_bs) is int


def test_config_groups_partition(multiuser_cfg):
    groups = multiuser_cfg.groups()
    assert groups == ((0, 1), (2, 3))


def test_config_db_conversions(desk_cfg):
    assert math.isclose(desk_cfg.power_w, 100.0)
    assert math.isclose(desk_cfg.noise_w, 1e-12)
    assert math.isclose(desk_cfg.g_tx_lin, 10 ** (24.5 / 20.0))
    assert math.isclose(desk_cfg.g_rx_lin, 1.0)


def test_config_json_round_trip(tmp_path, desk_cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(desk_cfg)))
    assert ch.load_config(path) == desk_cfg


def test_config_unknown_key_rejected(tmp_path, desk_cfg):
    doc = dataclasses.asdict(desk_cfg)
    doc["bogus_knob"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ch.ConfigError, match="bogus_knob"):
        ch.load_config(path)
    del doc["bogus_knob"]
    doc["bs_pos"] = ["north", 0.0, 10.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ch.ConfigError):
        ch.load_config(path)


def test_config_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ch.ConfigError, match="JSON"):
        ch.load_config(path)


# ---------------------------------------------------------------------------
# Channel generation
# ---------------------------------------------------------------------------

def test_bs_irs_single_unit_path_norm(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, paths_y=1)
    paths = ch.PathSet(gains=np.array([1.0 + 0j]), az_irs=np.array([0.3]),
                       el_irs=np.array([0.1]), endpoint=np.array([-0.2]))
    h = ch.bs_irs_from_paths(paths, cfg)
    assert h.shape == (cfg.n_irs, cfg.n_bs)
    assert math.isclose(np.linalg.norm(h), math.sqrt(cfg.n_bs * cfg.n_irs), rel_tol=1e-12)
    assert np.linalg.matrix_rank(h) == 1


def test_irs_user_single_unit_path_norm(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, paths_l=1)
    paths = ch.PathSet(gains=np.array([1.0 + 0j]), az_irs=np.array([-0.4]),
                       el_irs=np.array([0.2]), endpoint=np.array([0.5]))
    h = ch.irs_user_from_paths(paths, cfg)
    assert h.shape == (cfg.n_ue, cfg.n_irs)
    assert math.isclose(np.linalg.norm(h), math.sqrt(cfg.n_irs * cfg.n_ue), rel_tol=1e-12)


def test_bs_irs_rank_bounded_by_paths(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, paths_y=7)
    h, paths = ch.gen_bs_irs(cfg, np.random.default_rng(0))
    assert paths.gains.shape == (7,)
    assert np.linalg.matrix_rank(h) <= 7


def test_channel_determinism(desk_cfg):
    a = ch.generate_channels(desk_cfg, np.random.default_rng(42))
    b = ch.generate_channels(desk_cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(a.h_bs_irs, b.h_bs_irs)
    for ha, hb in zip(a.h_irs_ue, b.h_irs_ue):
        np.testing.assert_array_equal(ha, hb)
    np.testing.assert_array_equal(a.bs_paths.gains, b.bs_paths.gains)


def test_nlos_angles_within_sampling_ranges(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(11))
    for paths in (chset.bs_paths, *chset.ue_paths):
        assert np.all(np.abs(paths.az_irs[1:]) < np.pi / 2)
        assert np.all(np.abs(paths.el_irs[1:]) < np.pi / 4)
        assert np.all(np.abs(paths.endpoint[1:]) < np.pi / 2)


def test_user_positions_in_disc(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(12))
    cx, cy, cz = desk_cfg.user_center
    for (x, y, z) in chset.user_positions:
        assert math.hypot(x - cx, y - cy) <= desk_cfg.user_radius + 1e-9
        assert z == cz


def test_gen_irs_user_index_range(desk_cfg):
    with pytest.raises(IndexError):
        ch.gen_irs_user(desk_cfg, desk_cfg.k_users, np.random.default_rng(0))


def test_gen_irs_user_explicit_position(desk_cfg):
    pos = (5.0, 150.0, 1.8)
    _, paths, used = ch.gen_irs_user(desk_cfg, 0, np.random.default_rng(0),
                                     position=pos)
    assert used == pos
    direction = ch._unit_direction(desk_cfg.irs_pos, pos)
    az, el = ch._upa_angles(direction)
    assert paths.az_irs[0] == az and paths.el_irs[0] == el


# ---------------------------------------------------------------------------
# Effective channel
# ---------------------------------------------------------------------------

def test_effective_channel_identity_phases(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(1))
    nu = np.ones(desk_cfg.n_irs, dtype=complex)
    h = ch.effective_channel(chset.h_bs_irs, chset.h_irs_ue[0], nu,
                             desk_cfg.g_tx_dbi, desk_cfg.g_rx_dbi)
    expected = desk_cfg.g_tx_lin * chset.h_irs_ue[0] @ chset.h_bs_irs
    np.testing.assert_allclose(h, expected, rtol=1e-12)


def test_effective_channel_zero_dbi_gain_is_one(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(2))
    nu = ch.random_phase_vector(desk_cfg.n_irs, np.random.default_rng(3))
    h = ch.effective_channel(chset.h_bs_irs, chset.h_irs_ue[0], nu, 0.0, 0.0)
    direct = (chset.h_irs_ue[0] * np.conj(nu)[None, :]) @ chset.h_bs_irs
    np.testing.assert_allclose(h, direct, rtol=1e-12)


def test_effective_channel_matches_diagonal_product(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(4))
    nu = ch.random_phase_vector(desk_cfg.n_irs, np.random.default_rng(5))
    h = ch.effective_channel(chset.h_bs_irs, chset.h_irs_ue[1], nu,
                             desk_cfg.g_tx_dbi, desk_cfg.g_rx_dbi)
    phi = np.diag(np.conj(nu))
    brute = desk_cfg.g_tx_lin * desk_cfg.g_rx_lin * chset.h_irs_ue[1] @ phi @ chset.h_bs_irs
    np.testing.assert_allclose(h, brute, rtol=1e-12)


def test_effective_channel_shape_mismatch(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(6))
    with pytest.raises(ValueError, match="shape"):
        ch.effective_channel(chset.h_bs_irs, chset.h_irs_ue[0],
                             np.ones(desk_cfg.n_irs - 1, dtype=complex), 0.0, 0.0)


def test_effective_channel_rank_one_in_each_phase(desk_cfg):
    # Perturbing a single reflecting element changes the cascade by a rank-1 term.
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    nu2 = nu.copy()
    nu2[5] = np.exp(-1j * rng.uniform(0, 2 * np.pi))
    h1 = ch.effective_channel(chset.h_bs_irs, chset.h_irs_ue[0], nu, 0.0, 0.0)
    h2 = ch.effective_channel(chset.h_bs_irs, chset.h_irs_ue[0], nu2, 0.0, 0.0)
    assert np.linalg.matrix_rank(h2 - h1, tol=1e-12 * np.linalg.norm(h1)) == 1


def test_phase_vector_helpers(desk_cfg):
    rng = np.random.default_rng(9)
    nu = ch.random_phase_vector(16, rng)
    assert nu.shape == (16,)
    assert np.max(np.abs(np.abs(nu) - 1.0)) <= 1e-12
    # distinct draws, not a constant vector
    assert np.unique(np.round(np.angle(nu), 12)).size == 16
