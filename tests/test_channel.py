import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CONFIG_DIR, user_paths
from irs_multicast import channel as ch
from irs_multicast import harness

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


def test_responses_broadcast_over_angle_arrays():
    # one call per angle array, each row the scalar call's bits
    rng = np.random.default_rng(22)
    theta, eta = rng.uniform(-np.pi / 2, np.pi / 2, (2, 2, 3))
    upa = ch.upa_response(theta, eta, 4, 3)
    ula = ch.ula_response(theta, 5)
    assert upa.shape == (2, 3, 12) and ula.shape == (2, 3, 5)
    for idx in np.ndindex(theta.shape):
        assert np.array_equal(upa[idx], ch.upa_response(float(theta[idx]), float(eta[idx]), 4, 3))
        assert np.array_equal(ula[idx], ch.ula_response(float(theta[idx]), 5))
    assert ch.upa_response(0.1, 0.2, 4, 3).shape == (12,)


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
    # every user channel has rank <= min(paths_y, paths_l) = 3 on desk, so
    # 4 streams failed every run of every baseline
    with pytest.raises(ch.ConfigError, match="^zeta of 4 .*paths_y=8, paths_l=3"):
        dataclasses.replace(desk_cfg, zeta=4, m_ue=4)
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
    # each dB field is fine, but the cascaded stream powers they scale
    # overflow, or underflow to 0
    for field, bad in (("g_tx_dbi", 6000.0), ("g_rx_dbi", -6000.0)):
        with pytest.raises(ch.ConfigError, match=f"^{field} of .* normal range"):
            dataclasses.replace(desk_cfg, **{field: bad})
    for bw in (-1.0, 0.0):
        with pytest.raises(ch.ConfigError, match="bw_hz must be positive"):
            dataclasses.replace(desk_cfg, bw_hz=bw)
    for field, bad in (("n_bs", 16.5), ("zeta", math.nan), ("paths_l", "3"),
                       ("group_sizes", (1.5, 0.5)), ("seed", 0.25)):
        with pytest.raises(ch.ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(desk_cfg, **{field: bad})
    # booleans are neither counts nor reals, and a list field must be a list
    for field, bad in (("zeta", True), ("seed", False), ("group_sizes", (True, True)),
                       ("user_radius", True), ("bs_pos", (True, 0.0, 10.0)),
                       ("group_sizes", 2), ("group_sizes", None)):
        with pytest.raises(ch.ConfigError, match=f"^{field} "):
            dataclasses.replace(desk_cfg, **{field: bad})
    # a gain at 1 m, scatterers stronger than the LOS ray, and losses that
    # take the weakest stream below float64's normal range: a LOS or
    # scatterer amplitude of 0 on the longest link, links whose squared length
    # overflows, and the 1e150 m link that underflowed every rate to 0, each
    # named by the field that sets most of the loss
    for field, bad in (("los_pathloss_db", -400.0), ("nlos_backoff_db", -1e-9),
                       ("los_pathloss_db", 7000.0), ("nlos_backoff_db", 7000.0),
                       ("los_pathloss_db", 3000.0), ("bs_pos", (1e150, 0.0, 0.0)),
                       ("bs_pos", (1e200, 0.0, 0.0)),
                       ("user_center", (1e200, 0.0, 0.0)), ("user_radius", 1e300)):
        with pytest.raises(ch.ConfigError, match=f"^{field} "):
            dataclasses.replace(desk_cfg, **{field: bad})
    # the bounds themselves pass: no loss at 1 m and scatterers as strong as
    # the LOS ray. A 1e150 m BS link at those losses keeps its weakest stream
    # power (~1e-296) normal, but its strongest SNR (~1e-280) rounds 1 + SNR
    # to 1, and every run of it failed as invalid; a 1e150 m user link as
    # well takes the weakest stream power out of range (~1e-593)
    dataclasses.replace(desk_cfg, los_pathloss_db=0.0, nlos_backoff_db=0.0)
    with pytest.raises(ch.ConfigError, match="^bs_pos .* strongest stream's SNR: log10 -279.5 "):
        dataclasses.replace(desk_cfg, los_pathloss_db=0.0, nlos_backoff_db=0.0,
                            bs_pos=(1e150, 0.0, 0.0))
    with pytest.raises(ch.ConfigError, match="^bs_pos .* channel power: log10 -592.9 "):
        dataclasses.replace(desk_cfg, los_pathloss_db=0.0, nlos_backoff_db=0.0,
                            bs_pos=(1e150, 0.0, 0.0), user_radius=1e150)
    # an integral float is a count, stored as an int
    cfg = dataclasses.replace(desk_cfg, n_bs=16.0)
    assert cfg == desk_cfg and type(cfg.n_bs) is int


NORMAL = "is outside float64's normal range [-307.7, 308.3]"


@pytest.mark.parametrize("change, message", [
    ({"los_pathloss_db": 3000.0}, "los_pathloss_db of 3000.0 sets most of the loss of the "
                                  "weakest stream's channel power: log10 -601.9 "),
    ({"power_dbm": -2950.0}, "power_dbm of -2950.0 sets most of the loss of the weakest "
                             "stream's received power: log10 -312.8 "),
    ({"power_dbm": 3000.0, "noise_dbm": -300.0}, "power_dbm of 3000.0 sets most of the gain "
                                                 "of the weakest stream's SNR scale: "),
    ({"noise_dbm": 3000.0}, "noise_dbm of 3000.0 sets most of the loss of the weakest "
                            "stream's SNR: log10 -309.8 "),
    ({"g_tx_dbi": 3000.0}, "g_tx_dbi of 3000.0 sets most of the gain of the strongest "
                           "stream's gradient coefficient: log10 310.3 "),
    ({"bw_hz": 1e305}, "bw_hz of 1e+305 sets most of the gain of the strongest stream's "
                       "gradient coefficient: "),
    ({"los_pathloss_db": 200.0}, "los_pathloss_db of 200.0 sets most of the loss of the "
                                 "strongest stream's SNR: log10 -23.9 is below -20.7, where "
                                 "1 + SNR rounds to 1 even over a coherent sum of the 8 x 3 "
                                 "paths"),
    # one term per array field: the array scales were one term named n_irs,
    # and a count past float's range ended in an OverflowError traceback
    ({"n_bs": 1e300}, f"n_bs of {int(1e300)} sets most of the gain of the strongest "
                      "stream's gradient coefficient: log10 311.5 "),
    ({"n_ue": 1e300}, f"n_ue of {int(1e300)} sets most of the gain of the strongest "
                      "stream's gradient coefficient: log10 311.5 "),
    ({"paths_y": 1e300}, f"paths_y of {int(1e300)} sets most of the loss of the weakest "
                         "stream's channel power: log10 -313.3 "),
    ({"n_bs": 10 ** 400}, f"n_bs of {10 ** 400} sets most of the gain of the weakest "
                          "stream's channel power: log10 384.6 "),
    ({"n_ue": 10 ** 400}, f"n_ue of {10 ** 400} sets most of the gain of the weakest "
                          "stream's channel power: log10 384.6 "),
    ({"paths_y": 10 ** 400}, f"paths_y of {10 ** 400} sets most of the loss of the weakest "
                             "stream's channel power: log10 -413.3 "),
], ids=["channel", "received", "snr_scale", "snr", "gradient", "gradient_bw", "resolution",
        "n_bs", "n_ue", "paths_y", "n_bs_401_digits", "n_ue_401_digits", "paths_y_401_digits"])
def test_link_budget_names_the_power_and_the_field_that_leave_the_normal_range(
        desk_cfg, change, message):
    # one log-domain budget of the cascaded per-stream powers, in the order
    # the pipeline forms them; each of these configs passed the point checks
    # it replaced and then failed its runs or wrote rates of 0
    with pytest.raises(ch.ConfigError) as exc:
        dataclasses.replace(desk_cfg, **change)
    text = str(exc.value)
    assert text.startswith(message)
    # the resolution stage's message is given whole
    assert text == message or text.endswith(NORMAL)


def test_link_budget_passes_every_preset_and_a_gain_its_runs_carry(desk_cfg):
    for path in sorted(CONFIG_DIR.glob("*.json")) + [CONFIG_DIR.parent / "bench" / "rf_limited.json"]:
        ch.load_config(path)
    # 2900 dBi: every stage stays normal and the runs are ok, although the
    # product P G_t^2 G_r^2 / sigma^2 the budget replaced is ~1e304
    cfg = dataclasses.replace(desk_cfg, g_tx_dbi=2900.0)
    rec = harness.run_baseline("proposed", cfg, np.random.default_rng(0))
    assert rec.status == "ok" and math.isfinite(rec.sum_rate_bps) and rec.sum_rate_bps > 0
    # counts beyond float's range whose gain and loss cancel pass the budget
    # (its SNR floor overflowed on their product); their runs fail labeled
    cfg = dataclasses.replace(desk_cfg, n_bs=10 ** 400, paths_y=10 ** 400)
    rec = harness.run_baseline("proposed", cfg, np.random.default_rng(0))
    assert rec.status == "failed:invalid (Maximum allowed dimension exceeded)"


def test_config_positions_are_three_reals_and_links_have_two_ends(desk_cfg):
    # test_harness runs the refused layouts and links through the CLI; here,
    # coordinates and reals of the wrong type, and what passes
    cfg = dataclasses.replace(desk_cfg, bs_pos=[2, 0, 10])
    assert cfg == desk_cfg and all(type(x) is float for x in cfg.bs_pos)
    for field, bad in (("irs_pos", (0.0, "148", 10.0)), ("user_center", 7.0),
                       ("power_dbm", None), ("user_radius", "10"), ("bw_hz", 10 ** 400)):
        with pytest.raises(ch.ConfigError, match=f"^{field} "):
            dataclasses.replace(desk_cfg, **{field: bad})
    # a point user off the IRS, and a disc of users around it, keep a direction
    dataclasses.replace(desk_cfg, user_radius=0.0)
    dataclasses.replace(desk_cfg, user_center=desk_cfg.irs_pos)
    dataclasses.replace(desk_cfg, bs_pos=desk_cfg.user_center)


def test_config_groups_partition(multiuser_cfg):
    groups = multiuser_cfg.groups()
    assert groups == ((0, 1), (2, 3))


def test_config_refuses_more_streams_than_paths(desk_cfg):
    # every user channel has rank <= min(paths_y, paths_l), so fewer paths
    # than zeta = 2 streams on either link is a config no run can use; the
    # bound itself passes
    for field in ("paths_y", "paths_l"):
        with pytest.raises(ch.ConfigError, match=f"^zeta of 2 .*{field}=1"):
            dataclasses.replace(desk_cfg, **{field: 1})
    assert dataclasses.replace(desk_cfg, paths_l=2).paths_l == 2


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


def test_config_not_utf8(tmp_path):
    # a UTF-16 byte-order mark ended in a UnicodeDecodeError traceback
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ch.ConfigError, match="is not UTF-8 text") as exc:
        ch.load_config(path)
    assert str(exc.value).startswith(str(path))


# ---------------------------------------------------------------------------
# Channel generation
# ---------------------------------------------------------------------------

def test_bs_irs_single_unit_path_norm(desk_cfg):
    # one path of unit gain: rank 1 and the norm of the link scale sqrt(N_B M / Y);
    # one path carries one stream
    cfg = dataclasses.replace(desk_cfg, paths_y=1, zeta=1, m_bs=4, m_ue=2)
    a_irs = ch.upa_response(0.3, 0.1, cfg.f_y, cfg.f_z)[None, :]
    a_bs = ch.ula_response(-0.2, cfg.n_bs)[None, :]
    h = ch._path_sum(np.array([1.0 + 0j]), a_irs, a_bs, math.sqrt(cfg.n_bs * cfg.n_irs))
    assert h.shape == (cfg.n_irs, cfg.n_bs)
    assert math.isclose(np.linalg.norm(h), math.sqrt(cfg.n_bs * cfg.n_irs), rel_tol=1e-12)
    assert np.linalg.matrix_rank(h) == 1
    # a drawn single-path link has the norm of its one gain times that scale
    chset = ch.generate_channels(cfg, np.random.default_rng(0))
    assert math.isclose(np.linalg.norm(chset.h_bs_irs),
                        abs(chset.bs_paths.gains[0]) * math.sqrt(cfg.n_bs * cfg.n_irs),
                        rel_tol=1e-12)


def test_irs_user_single_unit_path_norm(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, paths_l=1, zeta=1, m_bs=4, m_ue=2)
    a_ue = ch.ula_response(0.5, cfg.n_ue)[None, :]
    a_irs = ch.upa_response(-0.4, 0.2, cfg.f_y, cfg.f_z)[None, :]
    h = ch._path_sum(np.array([1.0 + 0j]), a_ue, a_irs, math.sqrt(cfg.n_irs * cfg.n_ue))
    assert h.shape == (cfg.n_ue, cfg.n_irs)
    assert math.isclose(np.linalg.norm(h), math.sqrt(cfg.n_irs * cfg.n_ue), rel_tol=1e-12)
    chset = ch.generate_channels(cfg, np.random.default_rng(0))
    for h_k, paths in zip(chset.h_irs_ue, user_paths(chset)):
        assert h_k.shape == (cfg.n_ue, cfg.n_irs)
        assert math.isclose(np.linalg.norm(h_k),
                            abs(paths.gains[0]) * math.sqrt(cfg.n_irs * cfg.n_ue),
                            rel_tol=1e-12)


def test_bs_irs_rank_bounded_by_paths(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, paths_y=7)
    chset = ch.generate_channels(cfg, np.random.default_rng(0))
    assert chset.bs_paths.gains.shape == (7,)
    assert chset.bs_paths.a_irs.shape == (7, cfg.n_irs)
    assert chset.bs_paths.a_far.shape == (7, cfg.n_bs)
    assert np.linalg.matrix_rank(chset.h_bs_irs) <= 7


PRESETS = ("desk", "desk_multiuser", "full_scale")


def _load(name):
    return ch.load_config(CONFIG_DIR / f"{name}.json")


@pytest.mark.parametrize("name", PRESETS)
def test_steering_stacks_are_the_per_path_responses(name):
    cfg = _load(name)
    chset = ch.generate_channels(cfg, np.random.default_rng(21))
    links = [(chset.bs_paths, cfg.n_bs)] + [(p, cfg.n_ue) for p in user_paths(chset)]
    for paths, n_far in links:
        a_irs = np.stack([ch.upa_response(az, el, cfg.f_y, cfg.f_z)
                          for az, el in zip(paths.az_irs, paths.el_irs)])
        a_far = np.stack([ch.ula_response(r, n_far) for r in paths.endpoint])
        assert np.array_equal(paths.a_irs, a_irs)
        assert np.array_equal(paths.a_far, a_far)


def _bs_irs_oracle(paths, cfg):
    """The BS->IRS matrix as one outer product per path, built from the angles."""
    scale = math.sqrt(cfg.n_bs * cfg.n_irs / cfg.paths_y)
    h = np.zeros((cfg.n_irs, cfg.n_bs), dtype=np.complex128)
    for gain, az, el, r_dep in zip(paths.gains, paths.az_irs, paths.el_irs, paths.endpoint):
        a_irs = ch.upa_response(az, el, cfg.f_y, cfg.f_z)
        a_bs = ch.ula_response(r_dep, cfg.n_bs)
        h += gain * np.outer(a_irs, a_bs.conj())
    return scale * h


def _irs_user_oracle(paths, cfg):
    """The IRS->user matrix as one outer product per path, built from the angles."""
    scale = math.sqrt(cfg.n_irs * cfg.n_ue / cfg.paths_l)
    h = np.zeros((cfg.n_ue, cfg.n_irs), dtype=np.complex128)
    for gain, az, el, r_arr in zip(paths.gains, paths.az_irs, paths.el_irs, paths.endpoint):
        a_ue = ch.ula_response(r_arr, cfg.n_ue)
        a_irs = ch.upa_response(az, el, cfg.f_y, cfg.f_z)
        h += gain * np.outer(a_ue, a_irs.conj())
    return scale * h


@pytest.mark.parametrize("name", PRESETS)
def test_channel_matrices_equal_outer_product_loops(name):
    cfg = _load(name)
    for seed in range(2):
        chset = ch.generate_channels(cfg, np.random.default_rng(seed))
        assert np.array_equal(chset.h_bs_irs, _bs_irs_oracle(chset.bs_paths, cfg))
        assert len(chset.h_irs_ue) == cfg.k_users
        for h_k, paths in zip(chset.h_irs_ue, user_paths(chset)):
            assert np.array_equal(h_k, _irs_user_oracle(paths, cfg))


def test_path_set_checks_lengths_and_gains(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(0))
    paths = chset.bs_paths
    with pytest.raises(ValueError, match="one length"):
        dataclasses.replace(paths, a_irs=paths.a_irs[1:])
    with pytest.raises(ValueError, match="one length"):
        dataclasses.replace(paths, a_far=paths.a_far[0])
    gains = paths.gains.copy()
    gains[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(paths, gains=gains)
    users = chset.ue_paths
    with pytest.raises(ValueError, match="one length"):
        dataclasses.replace(users, a_irs=users.a_irs[:, 1:])


def test_channel_determinism(desk_cfg):
    a = ch.generate_channels(desk_cfg, np.random.default_rng(42))
    b = ch.generate_channels(desk_cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(a.h_bs_irs, b.h_bs_irs)
    for ha, hb in zip(a.h_irs_ue, b.h_irs_ue):
        np.testing.assert_array_equal(ha, hb)
    np.testing.assert_array_equal(a.bs_paths.gains, b.bs_paths.gains)


class _ReadSpy:
    """Forwards attribute reads to a config and records their names."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


def _draw(cfg, seed=3):
    """A sweep run's draw: channels, then the random phase vector, from one
    generator; returns every array it made and the generator state after."""
    rng = np.random.default_rng(seed)
    chset = ch.generate_channels(cfg, rng)
    nu = ch.random_phase_vector(cfg.n_irs, rng)
    paths = [getattr(p, f.name) for p in (chset.bs_paths, chset.ue_paths)
             for f in dataclasses.fields(p)]
    arrays = [chset.h_bs_irs, *chset.h_irs_ue, np.array(chset.user_positions), nu, *paths]
    return arrays, rng.bit_generator.state


def test_draw_reads_exactly_the_draw_key_fields(multiuser_cfg):
    # a field read but missing from the key would let configs that draw
    # differently share a draw; a key field never read only costs sharing
    spy = _ReadSpy(multiuser_cfg)
    rng = np.random.default_rng(0)
    ch.generate_channels(spy, rng)
    ch.random_phase_vector(spy.n_irs, rng)
    assert spy.read == set(ch.DRAW_FIELDS)
    assert ch.draw_key(multiuser_cfg) == tuple(getattr(multiuser_cfg, f) for f in ch.DRAW_FIELDS)


@pytest.mark.parametrize("change", [
    dict(power_dbm=20.0), dict(noise_dbm=-80.0), dict(bw_hz=1e8), dict(g_tx_dbi=10.0),
    dict(g_rx_dbi=3.0), dict(zeta=1), dict(m_bs=12), dict(m_ue=6),
    dict(h_groups=1, group_sizes=(4,)), dict(group_sizes=(1, 3)),
])
def test_fields_outside_the_draw_key_leave_the_draw_unchanged(multiuser_cfg, change):
    other = dataclasses.replace(multiuser_cfg, **change)
    assert ch.draw_key(other) == ch.draw_key(multiuser_cfg)
    arrays, state = _draw(other)
    want_arrays, want_state = _draw(multiuser_cfg)
    assert len(arrays) == len(want_arrays)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, want_arrays))
    assert state == want_state


def test_nlos_angles_within_sampling_ranges(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(11))
    for paths in (chset.bs_paths, *user_paths(chset)):
        assert np.all(np.abs(paths.az_irs[1:]) < np.pi / 2)
        assert np.all(np.abs(paths.el_irs[1:]) < np.pi / 4)
        assert np.all(np.abs(paths.endpoint[1:]) < np.pi / 2)


def test_user_positions_in_disc(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(12))
    cx, cy, cz = desk_cfg.user_center
    for (x, y, z) in chset.user_positions:
        assert math.hypot(x - cx, y - cy) <= desk_cfg.user_radius + 1e-9
        assert z == cz


def test_gen_irs_user_explicit_position(desk_cfg):
    # a user link's LOS ray follows the position it is drawn for
    pos = (5.0, 150.0, 1.8)
    paths = ch._draw_link(desk_cfg, np.random.default_rng(0), pos, desk_cfg.paths_l,
                          desk_cfg.n_ue)
    direction = ch._unit_direction(desk_cfg.irs_pos, pos)
    az, el = ch._upa_angles(direction)
    assert paths.az_irs[0] == az and paths.el_irs[0] == el
    assert paths.endpoint[0] == ch._ula_angle(ch._unit_direction(pos, desk_cfg.irs_pos))
    assert paths.a_far.shape == (desk_cfg.paths_l, desk_cfg.n_ue)


# ---------------------------------------------------------------------------
# Effective channel
# ---------------------------------------------------------------------------

def test_effective_channel_identity_phases(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(1))
    nu = np.ones(desk_cfg.n_irs, dtype=complex)
    h = ch.effective_channels(chset, nu, desk_cfg)[0]
    expected = desk_cfg.g_tx_lin * chset.h_irs_ue[0] @ chset.h_bs_irs
    np.testing.assert_allclose(h, expected, rtol=1e-12)


def test_effective_channel_zero_dbi_gain_is_one(desk_cfg):
    cfg = dataclasses.replace(desk_cfg, g_tx_dbi=0.0, g_rx_dbi=0.0)
    chset = ch.generate_channels(cfg, np.random.default_rng(2))
    nu = ch.random_phase_vector(cfg.n_irs, np.random.default_rng(3))
    h = ch.effective_channels(chset, nu, cfg)[0]
    direct = (chset.h_irs_ue[0] * np.conj(nu)[None, :]) @ chset.h_bs_irs
    np.testing.assert_allclose(h, direct, rtol=1e-12)


def test_effective_channel_matches_diagonal_product(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(4))
    nu = ch.random_phase_vector(desk_cfg.n_irs, np.random.default_rng(5))
    h = ch.effective_channels(chset, nu, desk_cfg)[1]
    phi = np.diag(np.conj(nu))
    brute = desk_cfg.g_tx_lin * desk_cfg.g_rx_lin * chset.h_irs_ue[1] @ phi @ chset.h_bs_irs
    np.testing.assert_allclose(h, brute, rtol=1e-12)


def test_effective_channel_shape_mismatch(desk_cfg):
    chset = ch.generate_channels(desk_cfg, np.random.default_rng(6))
    with pytest.raises(ValueError, match="shape"):
        ch.effective_channels(chset, np.ones(desk_cfg.n_irs - 1, dtype=complex), desk_cfg)


def test_effective_channel_rank_one_in_each_phase(desk_cfg):
    # Perturbing a single reflecting element changes the cascade by a rank-1 term.
    cfg = dataclasses.replace(desk_cfg, g_tx_dbi=0.0, g_rx_dbi=0.0)
    chset = ch.generate_channels(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    nu = ch.random_phase_vector(cfg.n_irs, rng)
    nu2 = nu.copy()
    nu2[5] = np.exp(-1j * rng.uniform(0, 2 * np.pi))
    h1 = ch.effective_channels(chset, nu, cfg)[0]
    h2 = ch.effective_channels(chset, nu2, cfg)[0]
    assert np.linalg.matrix_rank(h2 - h1, tol=1e-12 * np.linalg.norm(h1)) == 1


def test_phase_vector_helpers(desk_cfg):
    rng = np.random.default_rng(9)
    nu = ch.random_phase_vector(16, rng)
    assert nu.shape == (16,)
    assert np.max(np.abs(np.abs(nu) - 1.0)) <= 1e-12
    # distinct draws, not a constant vector
    assert np.unique(np.round(np.angle(nu), 12)).size == 16
