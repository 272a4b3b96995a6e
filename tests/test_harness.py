import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irs_multicast import channel as ch
from irs_multicast import cli, harness
from irs_multicast.cli import main as cli_main

from conftest import CONFIG_DIR


def small_spec(**kw):
    base = dict(config=harness.DESK_CONFIG, sweep_var="power",
                sweep_values=(40.0, 50.0), baselines=("proposed", "b"),
                n_seeds=2)
    base.update(kw)
    return harness.ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ch.ConfigError, match="increasing"):
        small_spec(sweep_values=(50.0, 40.0))
    with pytest.raises(ch.ConfigError, match="baseline"):
        small_spec(baselines=("proposed", "zz"))
    with pytest.raises(ch.ConfigError, match="repeated baseline"):
        small_spec(baselines=("c", "proposed", "c"))
    with pytest.raises(ch.ConfigError, match="at least one baseline"):
        small_spec(baselines=())
    with pytest.raises(ch.ConfigError, match="seed"):
        small_spec(n_seeds=0)
    with pytest.raises(ch.ConfigError, match="sweep"):
        small_spec(sweep_var="frequency")
    # values without a sweep labeled identical runs "none,20.0" and "none,30.0"
    with pytest.raises(ch.ConfigError, match="need a sweep"):
        small_spec(sweep_var="none", sweep_values=(20.0, 30.0))
    assert small_spec(sweep_var="none", sweep_values=(0.0,)).sweep_values == (0.0,)
    # a fractional seed count or base seed passed and then failed the sweep
    # with a TypeError, a string count raised one here, and True ran one seed
    for field, value in (("n_seeds", 2.5), ("base_seed", 1.5), ("n_seeds", "2"),
                         ("n_seeds", True)):
        with pytest.raises(ch.ConfigError, match=f"^{field} must be an integer"):
            small_spec(**{field: value})
    with pytest.raises(ch.ConfigError, match="^n_seeds must be an integer, got 2.5$"):
        harness.theorem1_report(harness.DESK_CONFIG, seeds=2.5)
    spec = small_spec(n_seeds=np.int64(3), base_seed=2.0)
    assert (spec.n_seeds, spec.base_seed) == (3, 2)
    assert type(spec.n_seeds) is type(spec.base_seed) is int


def test_desk_preset_matches_config_file():
    assert ch.load_config(CONFIG_DIR / "desk.json") == harness.DESK_CONFIG


def test_default_sweep_values_filled():
    spec = harness.ExperimentSpec(sweep_var="power")
    assert spec.sweep_values == harness.DEFAULT_SWEEP_VALUES["power"]


def test_apply_sweep():
    cfg = harness.apply_sweep(harness.DESK_CONFIG, "elements", 16)
    assert (cfg.n_irs, cfg.f_y, cfg.f_z) == (16, 4, 4)
    with pytest.raises(ch.ConfigError, match="square"):
        harness.apply_sweep(harness.DESK_CONFIG, "elements", 8)
    cfg = harness.apply_sweep(harness.DESK_CONFIG, "groups", 3)
    assert cfg.h_groups == 3 and cfg.group_sizes == (1, 1, 1)
    cfg = harness.apply_sweep(harness.DESK_CONFIG, "power", 37.0)
    assert cfg.power_dbm == 37.0


@pytest.mark.parametrize("var, value", [("elements", 16.4), ("streams", 1.4),
                                        ("groups", 0.6), ("groups", 2.5)])
def test_apply_sweep_rejects_fractional_counts(var, value):
    # these ran the rounded count (16, 1, 1, 2) under the unrounded label
    with pytest.raises(ch.ConfigError, match=f"{var} sweep value must be an integer"):
        harness.apply_sweep(harness.DESK_CONFIG, var, value)
    cfg = harness.apply_sweep(harness.DESK_CONFIG, var, round(value))
    assert cfg == harness.apply_sweep(harness.DESK_CONFIG, var, float(round(value)))


def test_apply_sweep_rejects_a_negative_element_count():
    # math.isqrt raised a bare ValueError here
    with pytest.raises(ch.ConfigError, match="not a square"):
        harness.apply_sweep(harness.DESK_CONFIG, "elements", -16)


def test_spec_rejects_a_negative_base_seed():
    with pytest.raises(ch.ConfigError, match="base seed must be >= 0"):
        harness.ExperimentSpec(base_seed=-1)
    assert harness.ExperimentSpec(base_seed=0).base_seed == 0


def test_sweep_row_count_contract():
    records = harness.sweep(small_spec(n_seeds=3, baselines=("proposed",)))
    assert len(records) == 2 * 1 * 3
    text = harness.records_csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 7


def test_sweep_deterministic_bytes():
    spec = small_spec(baselines=("b",), n_seeds=2)
    a = harness.records_csv_text(harness.sweep(spec))
    b = harness.records_csv_text(harness.sweep(spec))
    assert a == b


def _assert_same_record(got, want):
    """Every RunRecord field but wall_ms equal, arrays bit for bit."""
    for f in dataclasses.fields(harness.RunRecord):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "wall_ms":
            continue
        if f.name == "report" and a is not None and b is not None:
            a, b = dataclasses.astuple(a), dataclasses.astuple(b)
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), f.name
        elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a is not None and b is not None and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("config, var", [("desk.json", "power"),
                                         ("desk.json", "groups"),
                                         ("desk_multiuser.json", "elements"),
                                         ("desk_multiuser.json", "streams"),
                                         ("full_scale.json", "power"),
                                         ("table2_faithful.json", "none")])
def test_sweep_shared_stages_match_independent_runs(config, var):
    # a seed's sweep values share its channel draw where the draw key allows,
    # a cell's baselines share its phases and BD builds; each record must
    # still equal the run computed on its own
    spec = harness.ExperimentSpec(config=ch.load_config(CONFIG_DIR / config), sweep_var=var,
                                  baselines=harness.BASELINES, n_seeds=2)
    records = harness.sweep(spec)
    assert len(records) == len(spec.sweep_values) * 6 * 2
    cfgs = dict(spec.configs())
    for rec in records:
        alone = harness.run_baseline(rec.baseline, cfgs[rec.sweep_value],
                                     np.random.default_rng(rec.seed), sweep_var=var,
                                     sweep_value=rec.sweep_value, seed=rec.seed)
        _assert_same_record(rec, alone)
    assert any(r.ok for r in records) == (config != "table2_faithful.json")
    assert any(r.trace for r in records) == (config != "table2_faithful.json")


def test_runs_on_one_memo_take_only_the_stages_they_would_compute():
    # two configs apart only in the receive antenna gain, which the draw key
    # leaves out, share the channel draw and nothing the gain enters: the
    # phases, the effective channels and the BD builds
    cfg = harness.DESK_CONFIG
    shared = {}
    for c in (cfg, dataclasses.replace(cfg, g_rx_dbi=3.0)):
        for baseline in harness.BASELINES:
            rec = harness._run(baseline, c, np.random.default_rng(0), shared=shared)
            assert rec.ok
            _assert_same_record(rec, harness._run(baseline, c, np.random.default_rng(0)))
    assert sum(key[0] == "channels" for key in shared) == 1


def test_sweep_computes_shared_stages_once_per_cell(monkeypatch):
    calls = {"channels": 0, "phases": 0, "h_eff": 0, "bd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "generate_channels",
                        counted("channels", harness.generate_channels))
    monkeypatch.setattr(harness.po, "optimize_phases",
                        counted("phases", harness.po.optimize_phases))
    phase_vectors = []

    def h_eff(chset, nu, cfg):
        phase_vectors.append(nu.tobytes())
        return ch.effective_channels(chset, nu, cfg)

    monkeypatch.setattr(harness, "effective_channels", counted("h_eff", h_eff))
    monkeypatch.setattr(harness.bd, "build_beamformers",
                        counted("bd", harness.bd.build_beamformers))
    records = harness.sweep(small_spec(baselines=harness.BASELINES))
    seeds, cells = 2, 2 * 2  # cells: sweep values x seeds
    assert len(records) == 6 * cells and all(r.ok for r in records)
    # one channel draw per seed serves both powers, and so do the effective
    # channels at its random phase vector; those at the optimized phases are
    # built once per cell; BD and the rate oracle read the same ones
    assert calls == {"channels": seeds, "phases": cells, "h_eff": seeds + cells,
                     "bd": 3 * cells}
    assert len(set(phase_vectors)) == len(phase_vectors)
    # the traces of proposed, a, d and e are equal but not one list
    traces = [r.trace for r in records if r.sweep_value == 50.0 and r.seed == 0 and r.trace]
    assert len(traces) == 4 and all(t == traces[0] for t in traces)
    assert len({id(t) for t in traces}) == 4
    calls.update(dict.fromkeys(calls, 0))
    assert harness.run_proposed(harness.DESK_CONFIG, np.random.default_rng(0)).ok
    assert calls == {"channels": 1, "phases": 1, "h_eff": 1, "bd": 1}


def test_sweep_drops_a_cells_stages_when_the_cell_ends(monkeypatch):
    # a sweep's configs all differ, so no later cell can take the stages
    # keyed by an earlier cell's config; the seed's draw stays for them
    seen = []
    run = harness._run

    def spy(baseline, cfg, rng, shared=None, **kw):
        seen.append({k[0] for k in shared if isinstance(k[1], ch.SystemConfig)
                     and k[1] is not cfg})
        return run(baseline, cfg, rng, shared=shared, **kw)

    monkeypatch.setattr(harness, "_run", spy)
    records = harness.sweep(small_spec(baselines=harness.BASELINES))
    assert all(r.ok for r in records) and len(seen) == 24
    assert seen == [set()] * 24


@pytest.mark.parametrize("var, values, draws_per_seed", [
    ("streams", (1.0, 2.0), 1), ("elements", (16.0, 64.0, 144.0), 3), ("groups", (1.0, 2.0), 2),
])
def test_sweep_draws_once_per_seed_and_draw_key(monkeypatch, var, values, draws_per_seed):
    draws = []

    def counted(cfg, rng):
        draws.append(ch.draw_key(cfg))
        return ch.generate_channels(cfg, rng)

    monkeypatch.setattr(harness, "generate_channels", counted)
    records = harness.sweep(small_spec(sweep_var=var, sweep_values=values,
                                       baselines=("proposed", "c")))
    assert len(records) == len(values) * 2 * 2 and all(r.ok for r in records)
    assert len(draws) == 2 * draws_per_seed
    assert len(set(draws)) == draws_per_seed


def test_failed_draw_fails_every_value_of_its_seed(monkeypatch):
    # a draw that raises is stored like a result: the seed's later values
    # fail with the same status and do not draw again
    calls = []

    def failing(cfg, rng):
        calls.append(cfg.power_dbm)
        raise ValueError("injected")

    monkeypatch.setattr(harness, "generate_channels", failing)
    records = harness.sweep(small_spec(sweep_values=(20.0, 30.0, 40.0)))
    assert calls == [20.0, 20.0]
    assert len(records) == 3 * 2 * 2
    assert {r.status for r in records} == {"failed:invalid (injected)"}


def test_sweep_keeps_one_seed_of_draws_alive(monkeypatch):
    # a seed's draws are dropped when the seed is done, so a power sweep
    # holds one realization at a time however many seeds it runs
    alive, peaks = [], []

    def tracked(cfg, rng):
        chset = ch.generate_channels(cfg, rng)
        alive.append(weakref.ref(chset))
        return chset

    def watched(*args, **kwargs):
        peaks.append(sum(ref() is not None for ref in alive))
        return run(*args, **kwargs)

    run = harness._run
    monkeypatch.setattr(harness, "generate_channels", tracked)
    monkeypatch.setattr(harness, "_run", watched)
    records = harness.sweep(small_spec(sweep_values=(20.0, 30.0, 40.0, 50.0), n_seeds=3,
                                       baselines=("proposed",)))
    assert len(records) == 12 and all(r.ok for r in records)
    assert len(alive) == 3 and max(peaks) == 1


def test_shared_stage_failure_fails_every_scheme_that_needs_it(monkeypatch):
    # a BD build without nulling that fails takes d and e with it, word for
    # word, and leaves the other four schemes alone
    build = harness.bd.build_beamformers

    def fail_without_nulling(h_eff, groups, cfg, nulling=True):
        if not nulling:
            raise harness.bd.BdInfeasibleError("injected")
        return build(h_eff, groups, cfg, nulling)

    monkeypatch.setattr(harness.bd, "build_beamformers", fail_without_nulling)
    records = harness.sweep(small_spec(baselines=harness.BASELINES, sweep_values=(50.0,)))
    status = {(r.baseline, r.seed): r.status for r in records}
    for seed in (0, 1):
        assert status["d", seed] == status["e", seed] == "failed:bd-infeasible (injected)"
        assert all(status[b, seed] == "ok" for b in ("proposed", "a", "b", "c"))


_STATUSES = ("ok", "ok;surrogate", "failed:constraint-violation")
_FAILURE_PREFIXES = ("failed:bd-infeasible (", "failed:invalid (")


@st.composite
def small_configs(draw, rf_limited=False):
    """Small valid configs with m_bs >= 2*H*zeta and m_ue >= 2*zeta, where the
    hybrid step starts from an exact split, or with ``rf_limited`` at least
    one side below that, where the hybrid factorization alternates; the path
    counts, each at least zeta, may leave too few BS-side paths for the
    group-blocked coupling or for BD, which must end in failure records."""
    zeta = draw(st.integers(1, 2))
    sizes = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    per_stream = 1 if rf_limited else 2
    m_bs = per_stream * len(sizes) * zeta + draw(st.integers(0, 2))
    m_ue = per_stream * zeta + draw(st.integers(0, 1))
    assume(not rf_limited or m_bs < 2 * len(sizes) * zeta or m_ue < 2 * zeta)
    f_y, f_z = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return dataclasses.replace(
        harness.DESK_CONFIG, n_bs=m_bs + draw(st.integers(0, 6)),
        n_ue=m_ue + draw(st.integers(0, 4)), m_bs=m_bs, m_ue=m_ue,
        n_irs=f_y * f_z, f_y=f_y, f_z=f_z, k_users=sum(sizes), h_groups=len(sizes),
        group_sizes=sizes, zeta=zeta, paths_y=draw(st.integers(zeta, 10)),
        paths_l=draw(st.integers(zeta, 4)), power_dbm=draw(st.floats(0.0, 50.0)))


def _check_failure_contract(cfg, seed):
    records = harness.sweep(harness.ExperimentSpec(config=cfg, baselines=harness.BASELINES,
                                                   base_seed=seed))
    assert len(records) == 6
    for rec in records:
        assert rec.status in _STATUSES or rec.status.startswith(_FAILURE_PREFIXES)
        if rec.ok:
            rates = (rec.sum_rate_bps, *rec.report.group_rates)
            assert all(math.isfinite(r) and r >= 0.0 for r in rates)
        _assert_same_record(rec, harness.run_baseline(
            rec.baseline, cfg, np.random.default_rng(seed), seed=seed))


@settings(max_examples=20, deadline=None)
@given(small_configs(), st.integers(0, 10_000))
def test_sweep_on_random_configs_keeps_the_failure_contract(cfg, seed):
    _check_failure_contract(cfg, seed)


@settings(max_examples=6, deadline=None)
@given(small_configs(rf_limited=True), st.integers(0, 10_000))
def test_rf_limited_sweep_on_random_configs_keeps_the_failure_contract(cfg, seed):
    _check_failure_contract(cfg, seed)


# proposed's median per-stream SINR (dB) over seeds 0-3, as measured when
# this test was written, and whether d outrates proposed on the preset
_REGIMES = {"desk": (-5.1, False), "desk_multiuser": (-20.0, True),
            "full_scale": (0.8, False)}


@pytest.mark.parametrize("preset", sorted(_REGIMES))
def test_preset_operating_regime(preset):
    # a change that moves a preset's operating point shows here: its SNR band
    # and baseline ordering. desk_multiuser sits on the BD feasibility edge
    # (paths_y = 2 * paths_l + zeta), where nulling costs more than it buys
    # and d, which drops the null projection, leads
    sinr_db, d_leads = _REGIMES[preset]
    spec = harness.ExperimentSpec(config=ch.load_config(CONFIG_DIR / f"{preset}.json"),
                                  baselines=("proposed", "b", "d"), n_seeds=4)
    records = harness.sweep(spec)
    assert all(r.ok for r in records)
    sinr = np.concatenate([r.report.sinr.ravel() for r in records
                           if r.baseline == "proposed"])
    assert abs(10.0 * math.log10(np.median(sinr)) - sinr_db) <= 3.0
    mean = {b: np.mean([r.sum_rate_bps for r in records if r.baseline == b])
            for b in spec.baselines}
    assert mean["proposed"] > mean["b"]
    assert (mean["d"] > mean["proposed"]) == d_leads


@pytest.mark.parametrize("var", ["streams", "groups"])
def test_structural_sweeps_run(var):
    spec = harness.ExperimentSpec(config=harness.DESK_CONFIG, sweep_var=var,
                                  baselines=("c",), n_seeds=1)
    records = harness.sweep(spec)
    assert len(records) == len(harness.DEFAULT_SWEEP_VALUES[var])
    assert all(r.ok for r in records)


def test_run_proposed_deterministic(desk_cfg):
    r1 = harness.run_proposed(desk_cfg, np.random.default_rng(3), seed=3)
    r2 = harness.run_proposed(desk_cfg, np.random.default_rng(3), seed=3)
    assert r1.sum_rate_bps == r2.sum_rate_bps
    assert r1.s1_iters == r2.s1_iters and r1.s2_iters == r2.s2_iters


def test_run_proposed_multiuser_smoke(multiuser_cfg):
    # scaled table-style config with two 2-user groups runs to completion
    rec = harness.run_proposed(multiuser_cfg, np.random.default_rng(0), seed=0)
    assert rec.ok
    assert rec.sum_rate_bps > 0
    assert rec.s1_iters >= 1
    assert 0 <= rec.s2_iters <= 100  # exact-split warm starts can need none
    assert len(rec.report.group_rates) == multiuser_cfg.h_groups


def test_baselines_b_c_share_phase_draw(desk_cfg):
    # same seed: identical channels and the same random phase vector; b and c
    # differ only in evaluating the hybrid vs the digital beamformers
    rec_b = harness.run_baseline("b", desk_cfg, np.random.default_rng(5), seed=5)
    rec_c = harness.run_baseline("c", desk_cfg, np.random.default_rng(5), seed=5)
    assert rec_b.s1_iters == rec_c.s1_iters == 0
    assert rec_c.s2_iters == 0
    # digital evaluation of the same BD construction, done by hand
    rng = np.random.default_rng(5)
    chset = ch.generate_channels(desk_cfg, rng)
    nu = ch.random_phase_vector(desk_cfg.n_irs, rng)
    from irs_multicast import bd, signalmodel as sm
    h_eff = ch.effective_channels(chset, nu, desk_cfg)
    bf, _ = bd.build_beamformers(h_eff, desk_cfg.groups(), desk_cfg)
    expected = sm.sum_rate(bf, h_eff, desk_cfg).sum_rate
    assert math.isclose(rec_c.sum_rate_bps, expected, rel_tol=1e-12)


def test_surrogate_baselines_leak_interference(desk_cfg):
    rec = harness.run_baseline("d", desk_cfg, np.random.default_rng(6), seed=6)
    assert rec.ok
    assert rec.status == "ok;surrogate"
    assert rec.report.interference_ratio().max() > 1e-3
    rec_e = harness.run_baseline("e", desk_cfg, np.random.default_rng(6), seed=6)
    assert rec_e.status == "ok;surrogate"
    assert rec_e.report.interference_ratio().max() > 1e-3


@pytest.mark.parametrize("baseline", ["d", "e"])
def test_surrogate_zero_power_yields_failure_record(tmp_path, desk_cfg, baseline):
    # power_w underflows to 0 at power_dbm=-4000; the config boundary refuses
    # that before any run, so a zero surrogate is reached only through
    # cancelling channels (test_no_nulling_zero_beamformer_rejected)
    doc = dataclasses.asdict(desk_cfg)
    doc["power_dbm"] = -4000.0
    path = tmp_path / "zero_power.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert cli_main(["--config", str(path), "--baselines", baseline, "--out", str(out)]) == 1
    assert not out.exists()


def test_unknown_baseline_rejected(desk_cfg):
    with pytest.raises(ch.ConfigError):
        harness.run_baseline("f", desk_cfg, np.random.default_rng(0))


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0, 0.0])
def test_meaningless_rate_yields_failure_record(desk_cfg, monkeypatch, rate):
    sum_rate = harness.sm.sum_rate
    monkeypatch.setattr(harness.sm, "sum_rate", lambda *a: dataclasses.replace(
        sum_rate(*a), sum_rate=rate))
    rec = harness.run_baseline("c", desk_cfg, np.random.default_rng(0))
    assert rec.status.startswith("failed:invalid (sum rate")
    assert rec.sum_rate_bps == 0.0


def test_infeasible_config_yields_failure_record():
    cfg = dataclasses.replace(harness.DESK_CONFIG, paths_y=4, paths_l=4)
    rec = harness.run_proposed(cfg, np.random.default_rng(0), seed=0)
    assert not rec.ok
    assert rec.status.startswith("failed:")
    assert "," not in rec.status
    assert rec.sum_rate_bps == 0.0


def test_energy_efficiency_formula(desk_cfg):
    # 39 dBm static power plus 10 dBm per IRS element besides the transmit power
    eff = harness._energy_efficiency(1e9, desk_cfg)
    total_w = desk_cfg.power_w + 10.0 ** 0.9 + desk_cfg.n_irs * 10.0 ** -2.0
    assert math.isclose(eff, 1e9 / total_w, rel_tol=1e-12)
    assert eff < 1e9 / desk_cfg.power_w


def test_theorem1_report_structure(desk_cfg):
    rows = harness.theorem1_report(desk_cfg, seeds=2, n_values=(16, 32))
    assert len(rows) == 2 * 2 * desk_cfg.k_users
    again = harness.theorem1_report(desk_cfg, seeds=2, n_values=(16, 32))
    assert rows == again
    for row in rows:
        assert math.isfinite(row["rel_gap"])
    header = harness.theorem1_csv_text(rows).splitlines()[0]
    assert header == "seed,n_antennas,user,sigma_true_fnorm,sigma_approx_fnorm,rel_gap"


def test_theorem1_report_keeps_rows_of_successful_runs(tmp_path, monkeypatch, capsys,
                                                       desk_cfg):
    clean = harness.theorem1_report(desk_cfg, seeds=2, n_values=(16, 64))
    build = harness.bd.build_beamformers

    def fail_at_32(h_eff, groups, cfg, nulling=True):
        if cfg.n_bs == 32:
            raise harness.bd.BdInfeasibleError("injected")
        return build(h_eff, groups, cfg, nulling)

    monkeypatch.setattr(harness.bd, "build_beamformers", fail_at_32)
    with pytest.raises(harness.ReportRunsFailed) as exc:
        harness.theorem1_report(desk_cfg, seeds=2)
    assert exc.value.rows == clean
    # the CLI writes the ok rows, to its file or to stdout, then the failure
    out = tmp_path / "t1.csv"
    for args in (["--out", str(out)], []):
        assert cli_main(["--report", "theorem1", "--seeds", "2", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "report theorem1: 2 of 6 runs failed (failed:bd-infeasible (injected))\n"
        assert (out.read_text() if args else captured.out) == harness.theorem1_csv_text(clean)


def test_theorem1_report_skips_antenna_counts_the_rf_chains_exceed(tmp_path, capsys,
                                                                    desk_cfg):
    # m_bs = 32 fits n = 32 and 64 but not n = 16
    doc = dataclasses.asdict(dataclasses.replace(desk_cfg, n_bs=32, n_ue=32, m_bs=32))
    path = tmp_path / "m32.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t1.csv"
    assert cli_main(["--report", "theorem1", "--config", str(path), "--seeds", "2",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert sorted({int(row[1]) for row in rows}) == [32, 64]
    assert len(rows) == 2 * 2 * desk_cfg.k_users
    # no antenna count left: a configuration error, one line, exit 1, no CSV
    doc.update(n_bs=65, n_ue=65, m_bs=65)
    path.write_text(json.dumps(doc))
    out = tmp_path / "none.csv"
    capsys.readouterr()
    assert cli_main(["--report", "theorem1", "--config", str(path), "--seeds", "1",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: RF chain bounds violated")
    assert err.count("\n") == 1
    assert not out.exists()


def test_energy_efficiency_rises_then_falls(desk_cfg):
    # figure-9 shape: static power dominates at low P (efficiency grows with
    # the rate), transmit power dominates at high P (efficiency decays)
    records = harness.sweep(harness.ExperimentSpec(
        config=desk_cfg, sweep_var="power", sweep_values=(20.0, 40.0, 50.0), n_seeds=4))
    assert all(r.ok for r in records)
    eff = {}
    for r in records:
        eff.setdefault(r.sweep_value, []).append(r.energy_eff_bps_per_w)
    means = {p: float(np.mean(v)) for p, v in eff.items()}
    assert all(m > 0 for m in means.values())
    assert means[40.0] > means[20.0]
    assert means[40.0] > means[50.0]


def test_proposed_rate_samples_dominate_random_phases(desk_cfg):
    # the sum-rate CDF: the sorted ok rates of each baseline over 50 seeds
    records = harness.sweep(harness.ExperimentSpec(
        config=desk_cfg, baselines=("proposed", "b"), n_seeds=50))
    rates = {b: sorted(r.sum_rate_bps for r in records if r.baseline == b and r.ok)
             for b in ("proposed", "b")}
    assert len(rates["proposed"]) == 50
    prop, rand = np.array(rates["proposed"]), np.array(rates["b"])
    assert np.mean(prop - rand) > 0
    assert np.mean(prop >= rand) >= 0.8  # sorted samples: empirical dominance


def test_optimizer_traces_descend_and_iterations_plateau_over_groups(desk_cfg):
    records = harness.sweep(harness.ExperimentSpec(config=desk_cfg, n_seeds=4))
    assert [r.seed for r in records if r.ok and r.trace] == [0, 1, 2, 3]
    for r in records:
        f_vals = [t.f_value for t in r.trace]
        assert len(f_vals) == r.s1_iters
        assert all(b <= a for a, b in zip(f_vals, f_vals[1:]))
    by_groups = harness.sweep(harness.ExperimentSpec(config=desk_cfg, sweep_var="groups",
                                                     n_seeds=4))
    assert len(by_groups) == 3 * 4 and all(r.ok for r in by_groups)
    assert {r.sweep_value for r in by_groups} == {1.0, 2.0, 3.0}
    assert all(1 <= r.s1_iters <= 500 for r in by_groups)
    # iteration cost stays in the same band as groups are added (the
    # figure-4 plateau); the initial rise does not survive the accelerated
    # line search at desk scale
    means = [np.mean([r.s1_iters for r in by_groups if r.sweep_value == h])
             for h in (1.0, 2.0, 3.0)]
    assert max(means) < 2.5 * min(means)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sweep_to_csv(tmp_path):
    out = tmp_path / "out.csv"
    code = cli_main(["--sweep", "power", "--sweep-values", "40,50",
                     "--baselines", "c", "--seeds", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 5


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_bs": 4}))
    assert cli_main(["--config", str(bad)]) == 1
    worse = tmp_path / "worse.json"
    worse.write_text("{")
    assert cli_main(["--config", str(worse)]) == 1
    assert cli_main(["--config", str(tmp_path / "missing.json")]) == 1
    # an empty path ran the desk preset as if no config were given
    assert cli_main(["--config", "", "--out", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()
    # values that used to yield an ok row with a meaningless rate, or a
    # traceback from deep inside the run
    for key, value in (("bw_hz", -1), ("n_bs", 16.5), ("power_dbm", 4000),
                       ("noise_dbm", 4000), ("g_tx_dbi", 8000), ("noise_dbm", -4000),
                       ("power_dbm", -4000)):
        doc = dataclasses.asdict(harness.DESK_CONFIG)
        doc[key] = value
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert not (tmp_path / "o.csv").exists()
    # a repeated baseline ran the same cell twice
    assert cli_main(["--baselines", "c,c", "--out", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("change, field", [
    # a 2- or 4-coordinate position, and a link whose ends coincide, failed
    # every run (exit 2) with numpy's message; a string bw_hz exited 1 with it
    ({"bs_pos": [2.0, 0.0]}, "bs_pos"),
    ({"bs_pos": [2.0, 0.0, 10.0, 1.0]}, "bs_pos"),
    ({"user_center": [7.0, 148.0]}, "user_center"),
    ({"bs_pos": [0.0, 148.0, 10.0]}, "bs_pos"),
    ({"user_radius": 0.0, "user_center": [0.0, 148.0, 10.0]}, "user_center"),
    ({"bw_hz": "1e6"}, "bw_hz"),
    # a gain at 1 m, and scatterers stronger than the LOS ray, wrote ok rows
    # of ~1e11 bit/s; a LOS amplitude of 0, and links whose squared length
    # overflows, failed every run as bd-infeasible
    ({"los_pathloss_db": -400}, "los_pathloss_db"),
    ({"nlos_backoff_db": -400}, "nlos_backoff_db"),
    ({"los_pathloss_db": 7000}, "los_pathloss_db"),
    ({"user_radius": 1e300}, "user_radius"),
    ({"bs_pos": [1e200, 0, 0]}, "bs_pos"),
    # JSON booleans ran as the count or length 1; a bare group size gave
    # "'int' object is not iterable", which names no field
    ({"zeta": True}, "zeta"),
    ({"user_radius": True}, "user_radius"),
    ({"group_sizes": [True, True]}, "group_sizes"),
    ({"irs_pos": [0.0, 148.0, True]}, "irs_pos"),
    ({"group_sizes": 2}, "group_sizes"),
    ({"group_sizes": None}, "group_sizes"),
    # losses that underflow every cascaded gain wrote ok rows of 0.0 bit/s,
    # and then failed every run as invalid
    ({"los_pathloss_db": 3000}, "los_pathloss_db"),
    ({"bs_pos": [1e150, 0, 0]}, "bs_pos"),
    # at 0 dB losses the 1e150 m BS link keeps every power normal, but its
    # strongest SNR, ~1e-280, rounds 1 + SNR to 1: every run failed as
    # invalid (sum rate 0.0)
    ({"los_pathloss_db": 0, "nlos_backoff_db": 0, "bs_pos": [1e150, 0, 0]}, "bs_pos"),
    # 4 streams over user channels of rank <= min(8, 3) failed every run of
    # every baseline, as invalid or bd-infeasible
    ({"zeta": 4, "m_ue": 4}, "zeta"),
])
def test_cli_config_no_run_can_use_is_a_config_error(tmp_path, capsys, change, field):
    doc = dataclasses.asdict(harness.DESK_CONFIG)
    doc.update(change)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert cli_main(["--config", str(path), "--seeds", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} ") and err.count("\n") == 1
    assert not out.exists()


def test_config_seed_other_than_zero_is_a_config_error(tmp_path, capsys):
    # nothing reads the config seed (runs take --base-seed), so "seed": 5
    # silently ran what "seed": 0 runs
    with pytest.raises(ch.ConfigError, match="--base-seed"):
        dataclasses.replace(harness.DESK_CONFIG, seed=5)
    doc = dataclasses.asdict(harness.DESK_CONFIG)
    doc["seed"] = 5
    path = tmp_path / "seed_5.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert cli_main(["--config", str(path), "--out", str(out)]) == 1
    assert "--base-seed" in capsys.readouterr().err
    assert not out.exists()
    # the presets and the benchmark's config carry 0 and load
    for preset in (*sorted(CONFIG_DIR.glob("*.json")),
                   CONFIG_DIR.parent / "bench" / "rf_limited.json"):
        assert ch.load_config(preset).seed == 0


@pytest.mark.parametrize("args", [
    ["--base-seed", "-1", "--seeds", "1"],
    ["--report", "theorem1", "--base-seed", "-1", "--seeds", "1"],
    ["--sweep", "elements", "--sweep-values", "16.4", "--seeds", "1"],
    ["--sweep", "streams", "--sweep-values", "1.4", "--seeds", "1"],
    ["--sweep", "groups", "--sweep-values", "0.6", "--seeds", "1"],
    ["--sweep", "streams", "--sweep-values", "4", "--seeds", "1"],
])
def test_cli_rejects_negative_seeds_and_fractional_counts(tmp_path, capsys, args):
    # a negative base seed ended in a numpy traceback (exit 2 as "invalid"
    # in a report); a fractional count wrote ok rows of the rounded count;
    # 4 streams, above desk's min(paths_y, paths_l) = 3, failed every row
    out = tmp_path / "o.csv"
    assert cli_main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # values without a sweep, and values no report reads, wrote ok rows of
    # one run under several labels, or ran the report as if not given
    (["--sweep-values", "20,30"], "sweep values need a sweep variable"),
    (["--report", "theorem1", "--sweep-values", "20,30"],
     "report theorem1 does not read --sweep-values"),
    # the one value a spec without a sweep holds passed unread
    (["--report", "theorem1", "--sweep-values", "0"],
     "report theorem1 does not read --sweep-values"),
    (["--report", "theorem1", "--sweep", "elements", "--sweep-values", "16,64"],
     "report theorem1 does not read --sweep, --sweep-values"),
    # an empty value list ran the default values
    (["--sweep-values="], "bad sweep values ''"),
    (["--sweep", "power", "--sweep-values="], "bad sweep values ''"),
    (["--report", "theorem1", "--sweep-values="],
     "report theorem1 does not read --sweep-values"),
    # reports that are gone: the power sweep's energy_eff_bps_per_w column
    # carries what energy did, a sweep's sorted ok sum_rate_bps what cdf did,
    # and --trace and a groups sweep's s1_iters what convergence did
    (["--report", "energy", "--seeds", "1"], "argument --report: invalid choice: 'energy'"),
    (["--report", "cdf", "--seeds", "2"], "argument --report: invalid choice: 'cdf'"),
    (["--report", "convergence", "--seeds", "1"],
     "argument --report: invalid choice: 'convergence'"),
    (["--report", "theorem1", "--trace", "{tmp}/t.csv"], "report theorem1 does not read --trace"),
    (["--report", "theorem1", "--timing"], "report theorem1 does not read --timing"),
    (["--report", "theorem1", "--baselines", "a"], "report theorem1 does not read --baselines"),
    (["--report", "theorem1", "--baselines", "proposed"],
     "report theorem1 does not read --baselines"),
    # usage errors exited 2, the code of partial run failures
    (["--seeds", "abc"], "argument --seeds: invalid int value"),
    (["--sweep", "bogus"], "argument --sweep: invalid choice"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    # an unwritable output ran every run, then ended in a traceback
    (["--out", "{tmp}/missing/x.csv"], "cannot write"),
    (["--out", "{tmp}"], "cannot write"),
    (["--trace", "{tmp}/missing/t.csv"], "cannot write"),
    (["--report", "theorem1", "--out", "{tmp}/missing/x.csv"], "cannot write"),
    # an empty path: the report ran every run and then raised
    # FileNotFoundError; a sweep wrote no trace, or printed its CSV, and
    # exited 0
    (["--report", "theorem1", "--seeds", "1", "--out", ""], "cannot write ''"),
    (["--seeds", "1", "--trace", ""], "cannot write ''"),
    (["--seeds", "1", "--out", ""], "cannot write ''"),
    # the trace overwrote the sweep CSV and the run exited 0
    (["--seeds", "1", "--out", "{tmp}/same.csv", "--trace", "{tmp}/same.csv"],
     "--out and --trace name one file"),
    (["--seeds", "1", "--out", "{tmp}/same.csv", "--trace", "{tmp}/./same.csv"],
     "--out and --trace name one file"),
])
def test_cli_input_it_would_ignore_or_cannot_serve_is_a_config_error(tmp_path, capsys,
                                                                     args, message):
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "o.csv")]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: simulate")


class _FullFile(io.StringIO):
    """A file whose every write fails as one on a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        """A descriptor of the null device, where the CLI points a failed stdout."""
        return os.open(os.devnull, os.O_WRONLY)


@pytest.fixture
def full_output(tmp_path, monkeypatch):
    """An output path whose write fails with ENOSPC: /dev/full where the CLI
    may write it, else a path the CLI's one write opens as a full file."""
    if os.path.exists("/dev/full") and os.access("/dev", os.W_OK | os.X_OK):
        return "/dev/full"
    monkeypatch.setattr(cli, "open", lambda *args, **kw: _FullFile(), raising=False)
    return str(tmp_path / "full.csv")


@pytest.mark.parametrize("args", [
    ["--seeds", "1", "--out"],
    ["--seeds", "1", "--trace"],
    ["--report", "theorem1", "--seeds", "1", "--out"],
    ["--seeds", "1"],
    ["--report", "theorem1", "--seeds", "1"],
], ids=["out", "trace", "report", "stdout", "report_stdout"])
def test_cli_failed_output_write_is_one_line_exit_1(capsys, monkeypatch, full_output, args):
    # a full disk ended each write in an OSError traceback, stdout's too
    if args[-1].startswith("--"):
        args, where = args + [full_output], full_output
    else:
        monkeypatch.setattr(sys, "stdout", _FullFile())
        where = "stdout"
    assert cli_main(args) == 1
    assert capsys.readouterr().err == \
        f"config error: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", [["--seeds", "1"], ["--report", "theorem1", "--seeds", "1"]],
                         ids=["sweep", "report"])
def test_cli_full_stdout_is_one_line_exit_1_at_process_exit(args):
    # a failed flush leaves the CSV in stdout's buffer; the interpreter's own
    # flush at exit failed on it again, printed "Exception ignored" and exited
    # 120. PYTHONUNBUFFERED gives stdout no such buffer, so it is unset here
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "irs_multicast.cli", *args], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == \
        (1, f"config error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("args", [["--seeds", "1"], ["--report", "theorem1", "--seeds", "1"]],
                         ids=["sweep", "report"])
def test_cli_closed_stdout_is_one_line_exit_1_before_any_run(monkeypatch, capsys, args):
    # started with fd 1 closed, Python sets sys.stdout to None: every run ran,
    # then the write ended in an AttributeError traceback
    want = f"config error: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "irs_multicast.cli", *args],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, want)

    def no_run(*a, **kw):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "sweep", no_run)
    monkeypatch.setattr(harness, "theorem1_report", no_run)
    monkeypatch.setattr(sys, "stdout", None)
    assert cli_main(args) == 1
    assert capsys.readouterr().err == want


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    os.close(2)
    os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)   # lands on fd 2


@pytest.mark.parametrize("stderr", [_close_stderr, _read_only_stderr], ids=["closed", "read_only"])
def test_cli_unwritable_stderr_keeps_every_exit_code(tmp_path, stderr):
    # with fd 2 closed Python sets sys.stderr to None, and print sent each
    # diagnostic to stdout; with fd 2 unwritable, a report whose runs failed
    # wrote its CSV, then raised an OSError on its stderr line and exited 1.
    # PYTHONUNBUFFERED would hide a line left in stderr's buffer, on which the
    # interpreter's flush at exit fails (exit 120), so it is unset here
    table2 = str(CONFIG_DIR / "table2_faithful.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    report, sweep = tmp_path / "report.csv", tmp_path / "sweep.csv"
    for want, args in [
            (2, ["--config", table2, "--report", "theorem1", "--seeds", "1", "--out", report]),
            (1, ["--baselines", "c,c", "--seeds", "1"]),
            (2, ["--config", table2, "--seeds", "1", "--out", sweep])]:
        proc = subprocess.run([sys.executable, "-m", "irs_multicast.cli", *map(str, args)],
                              preexec_fn=stderr, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (want, "")
    assert report.read_text() == harness.theorem1_csv_text([])   # its rows all failed
    assert sweep.read_text().count(",failed:invalid (group-blocked pairing") == 1


def test_cli_timing_changes_only_wall_ms(capsys):
    # full_scale runs take tens of ms, so a timed run's wall_ms is not 0
    args = ["--config", str(CONFIG_DIR / "full_scale.json"), "--seeds", "2"]
    assert cli_main(args) == 0
    plain = [line.rsplit(",", 1) for line in capsys.readouterr().out.splitlines()]
    assert cli_main(args + ["--timing"]) == 0
    timed = [line.rsplit(",", 1) for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in timed] == [row[0] for row in plain]
    assert plain[0][1] == timed[0][1] == "wall_ms"
    assert all(row[1] == "0" for row in plain[1:])
    assert all(int(row[1]) > 0 for row in timed[1:])


def test_cli_partial_failure_exit_code(tmp_path):
    cfg = dataclasses.replace(harness.DESK_CONFIG, paths_y=4, paths_l=4)
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    out = tmp_path / "out.csv"
    code = cli_main(["--config", str(path), "--baselines", "c",
                     "--seeds", "1", "--out", str(out)])
    assert code == 2
    assert "failed:" in out.read_text()


def test_cli_trace_dump(tmp_path):
    # every run that optimizes its phases writes its trace, keyed by seed,
    # baseline and sweep value, one row per iteration
    out = tmp_path / "out.csv"
    trace = tmp_path / "trace.csv"
    code = cli_main(["--sweep", "power", "--sweep-values", "30,50",
                     "--baselines", "proposed,b,d", "--seeds", "2",
                     "--out", str(out), "--trace", str(trace)])
    assert code == 0
    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["seed", "baseline", "sweep_value", "iter", "f_value",
                             "step_size", "grad_norm", "backtracks"]
    with open(out) as fh:
        runs = list(csv.DictReader(fh))
    want = {(r["seed"], r["baseline"], r["sweep_value"]): int(r["s1_iters"])
            for r in runs if r["baseline"] != "b"}
    assert len(want) == 8
    got = {}
    for row in rows:
        key = (row["seed"], row["baseline"], row["sweep_value"])
        got[key] = got.get(key, 0) + 1
        assert int(row["iter"]) == got[key]
    assert got == want


def test_cli_csvs_end_lines_with_newline_only(tmp_path, capsys):
    # the trace and report CSVs ended their lines in csv's default \r\n,
    # the sweep CSV in \n
    assert cli_main(["--seeds", "1"]) == 0
    texts = {"stdout": capsys.readouterr().out.encode()}
    paths = {name: tmp_path / f"{name}.csv" for name in ("sweep", "trace", "theorem1")}
    assert cli_main(["--seeds", "1", "--out", str(paths["sweep"]),
                     "--trace", str(paths["trace"])]) == 0
    assert cli_main(["--report", "theorem1", "--seeds", "2",
                     "--out", str(paths["theorem1"])]) == 0
    texts.update((name, path.read_bytes()) for name, path in paths.items())
    for name, text in texts.items():
        assert text.count(b"\n") > 1 and text.endswith(b"\n"), name
        assert b"\r" not in text, name


def _csv_module_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def test_cli_csvs_equal_the_csv_module_rendering_of_their_rows(tmp_path):
    # the one CSV writer joins each value's str with commas; the csv module,
    # which wrote the trace and theorem1 CSVs, renders the same rows alike
    paths = {name: tmp_path / f"{name}.csv" for name in ("sweep", "trace", "theorem1")}
    assert cli_main(["--seeds", "2", "--baselines", "proposed,b", "--out", str(paths["sweep"]),
                     "--trace", str(paths["trace"])]) == 0
    assert cli_main(["--report", "theorem1", "--seeds", "2",
                     "--out", str(paths["theorem1"])]) == 0
    records = harness.sweep(harness.ExperimentSpec(baselines=("proposed", "b"), n_seeds=2))
    trace = [(r.seed, r.baseline, r.sweep_value, *dataclasses.astuple(t))
             for r in records for t in r.trace]
    sweep = [(r.seed, r.baseline, r.sweep_var, float(r.sweep_value), float(r.sum_rate_bps),
              r.s1_iters, r.s2_iters, float(r.energy_eff_bps_per_w), r.status,
              int(round(r.wall_ms))) for r in records]
    theorem1 = harness.theorem1_report(harness.DESK_CONFIG, 2)
    assert trace and theorem1
    want = {
        "sweep": _csv_module_text(harness.CSV_HEADER.split(","), sweep),
        "trace": _csv_module_text(harness._TRACE_COLUMNS, trace),
        "theorem1": _csv_module_text(list(theorem1[0]), [row.values() for row in theorem1]),
    }
    for name, path in paths.items():
        assert path.read_bytes() == want[name].encode(), name


def test_cli_report_theorem1(tmp_path):
    # seeded from --base-seed like every other entry point
    text = {}
    for base in (0, 5):
        out = tmp_path / f"t1_{base}.csv"
        code = cli_main(["--report", "theorem1", "--seeds", "1",
                         "--base-seed", str(base), "--out", str(out)])
        assert code == 0
        text[base] = out.read_text()
        assert {line.split(",")[0] for line in text[base].splitlines()[1:]} == {str(base)}
    assert text[0] != text[5]


def test_cli_report_failure_is_labeled_not_raised(tmp_path, capsys):
    # table2_faithful has Y = 7 < H*zeta = 8 BS-side paths, so the coupling
    # construction refuses every run of the theorem1 report
    table2 = str(CONFIG_DIR / "table2_faithful.json")
    out = tmp_path / "t1.csv"
    code = cli_main(["--report", "theorem1", "--config", table2, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("report theorem1: 3 of 3 runs failed (failed:invalid (")
    assert "Y >= H*zeta" in err and err.count("\n") == 1
    assert out.read_text() == "seed,n_antennas,user,sigma_true_fnorm,sigma_approx_fnorm,rel_gap\n"
    # a groups sweep over the counts its 8 BS RF chains carry: H = 1 runs,
    # the configured H = 2 fails like every table2_faithful run, and H = 3,
    # which needs m_bs >= 12, is a configuration error
    out = tmp_path / "groups.csv"
    code = cli_main(["--sweep", "groups", "--sweep-values", "1,2", "--seeds", "1",
                     "--config", table2, "--out", str(out)])
    assert code == 2
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[3], row[8].split(" ")[0]) for row in rows] == \
        [("1.0", "ok"), ("2.0", "failed:invalid")]
    assert rows[1][8] == "failed:invalid (group-blocked pairing needs Y >= H*zeta (8); got Y=7)"
    assert cli_main(["--sweep", "groups", "--seeds", "1", "--config", table2]) == 1
    # bad arguments stay configuration errors
    assert cli_main(["--report", "theorem1", "--seeds", "0"]) == 1
    assert cli_main(["--baselines", "zz"]) == 1
    assert cli_main(["--sweep", "power", "--sweep-values", "30,nan"]) == 1
    assert cli_main(["--sweep", "power", "--sweep-values", "50,20"]) == 1


@pytest.mark.parametrize("exc, label", [
    (harness.bd.BdInfeasibleError("injected"), "bd-infeasible"),
    (ValueError("injected"), "invalid"),
])
def test_cli_report_failure_carries_the_run_label(monkeypatch, capsys, exc, label):
    # a report that fails outside its runs names the category a run would
    def fail(spec):
        raise exc

    monkeypatch.setattr(harness, "sweep", fail)
    assert cli_main(["--report", "theorem1", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == f"report theorem1 failed: {label} (injected)\n"


def test_cli_report_exit_code_counts_failed_runs(tmp_path, capsys):
    # every run on table2_faithful at H = 2 fails (Y = 7 < H*zeta = 8); the
    # report still writes its CSV, and says so in its exit code and one
    # stderr line
    table2 = str(CONFIG_DIR / "table2_faithful.json")
    out = tmp_path / "theorem1.csv"
    code = cli_main(["--report", "theorem1", "--config", table2, "--seeds", "2",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("report theorem1: 6 of 6 runs failed "
                          "(failed:invalid (group-blocked pairing")
    assert err.count("\n") == 1
    assert len(out.read_text().splitlines()) == 1
    # a power sweep writes a labeled row for each of its 4 x 2 failed runs
    out = tmp_path / "power.csv"
    assert cli_main(["--sweep", "power", "--config", table2, "--seeds", "2",
                     "--out", str(out)]) == 2
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(",failed:invalid (group-blocked pairing" in row for row in rows)

