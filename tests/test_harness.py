import csv
import dataclasses
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irs_multicast import channel as ch
from irs_multicast import harness
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
    counts may leave too few paths for the coupling or for BD, which must
    end in failure records."""
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
        group_sizes=sizes, zeta=zeta, paths_y=draw(st.integers(1, 10)),
        paths_l=draw(st.integers(1, 4)), power_dbm=draw(st.floats(0.0, 50.0)))


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


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
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


def test_theorem1_report_structure(tmp_path, desk_cfg):
    out = tmp_path / "t1.csv"
    rows = harness.theorem1_report(desk_cfg, seeds=2, out_path=out,
                                   n_values=(16, 32))
    assert len(rows) == 2 * 2 * desk_cfg.k_users
    again = harness.theorem1_report(desk_cfg, seeds=2, n_values=(16, 32))
    assert rows == again
    for row in rows:
        assert math.isfinite(row["rel_gap"])
    header = out.read_text().splitlines()[0]
    assert header == "seed,n_antennas,user,sigma_true_fnorm,sigma_approx_fnorm,rel_gap"


def test_theorem1_report_keeps_rows_of_successful_runs(tmp_path, monkeypatch, capsys,
                                                       desk_cfg):
    clean = tmp_path / "clean.csv"
    harness.theorem1_report(desk_cfg, seeds=2, out_path=clean, n_values=(16, 64))
    build = harness.bd.build_beamformers

    def fail_at_32(h_eff, groups, cfg, nulling=True):
        if cfg.n_bs == 32:
            raise harness.bd.BdInfeasibleError("injected")
        return build(h_eff, groups, cfg, nulling)

    monkeypatch.setattr(harness.bd, "build_beamformers", fail_at_32)
    out = tmp_path / "t1.csv"
    assert cli_main(["--report", "theorem1", "--seeds", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "report theorem1: 2 of 6 runs failed (failed:bd-infeasible (injected))\n"
    assert out.read_text() == clean.read_text()


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


def test_cdf_report(tmp_path, desk_cfg):
    rows = harness.cdf_report(desk_cfg, seeds=3, baselines=("b",),
                              out_path=tmp_path / "cdf.csv")
    assert [r["baseline"] for r in rows] == ["b"] * 3
    assert rows[-1]["cum_frac"] == 1.0
    assert rows[0]["sum_rate_bps"] <= rows[-1]["sum_rate_bps"]
    with pytest.raises(ch.ConfigError):
        harness.cdf_report(desk_cfg, seeds=1)


def test_energy_report_rises_then_falls(desk_cfg):
    # figure-9 shape: static power dominates at low P (efficiency grows with
    # the rate), transmit power dominates at high P (efficiency decays)
    rows = harness.energy_report(desk_cfg, (20.0, 40.0, 50.0), seeds=4,
                                 baselines=("proposed",))
    eff = {}
    for row in rows:
        eff.setdefault(row["power_dbm"], []).append(row["energy_eff_bps_per_w"])
    means = {p: float(np.mean(v)) for p, v in eff.items()}
    assert all(m > 0 for m in means.values())
    assert means[40.0] > means[20.0]
    assert means[40.0] > means[50.0]


def test_energy_report_keeps_caller_baseline_order(desk_cfg):
    # sweep sorts its records by baseline name; the report keeps the
    # caller's order, here the default one
    rows = harness.energy_report(desk_cfg, (40.0, 50.0), seeds=2)
    assert [(r["power_dbm"], r["baseline"], r["seed"]) for r in rows] == [
        (p, b, s) for p in (40.0, 50.0) for b in ("proposed", "b") for s in (0, 1)]
    assert all(r["status"] == "ok" for r in rows)


def test_cdf_proposed_dominates_random_phases(desk_cfg):
    rows = harness.cdf_report(desk_cfg, seeds=50, baselines=("proposed", "b"))
    assert sum(1 for r in rows if r["baseline"] == "proposed") == 50
    prop = np.array([r["sum_rate_bps"] for r in rows if r["baseline"] == "proposed"])
    rand = np.array([r["sum_rate_bps"] for r in rows if r["baseline"] == "b"])
    assert np.mean(prop - rand) > 0
    assert np.mean(prop >= rand) >= 0.8  # sorted samples: empirical dominance


def test_convergence_report(tmp_path, desk_cfg):
    # returning, not raising ReportRunsFailed, means all 4 + 3 * 4 runs are ok
    rows = harness.convergence_report(desk_cfg, seeds=4, out_path=tmp_path / "conv.csv")
    kinds = {row["kind"] for row in rows}
    assert kinds == {"trace", "groups"}
    trace_rows = [r for r in rows if r["kind"] == "trace"]
    assert {r["seed"] for r in trace_rows} == {0, 1, 2, 3}
    for seed in {r["seed"] for r in trace_rows}:
        f_vals = [r["f_value"] for r in trace_rows if r["seed"] == seed]
        assert all(b <= a for a, b in zip(f_vals, f_vals[1:]))
    group_rows = [r for r in rows if r["kind"] == "groups"]
    assert len(group_rows) == 3 * 4
    assert {r["h_groups"] for r in group_rows} == {1, 2, 3}
    assert all(1 <= r["s1_iters"] <= 500 for r in group_rows)
    # iteration cost stays in the same band as groups are added (the
    # figure-4 plateau); the initial rise does not survive the accelerated
    # line search at desk scale
    means = [np.mean([r["s1_iters"] for r in group_rows if r["h_groups"] == h])
             for h in (1, 2, 3)]
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
    ["--report", "cdf", "--base-seed", "-1", "--seeds", "2"],
    ["--sweep", "elements", "--sweep-values", "16.4", "--seeds", "1"],
    ["--sweep", "streams", "--sweep-values", "1.4", "--seeds", "1"],
    ["--sweep", "groups", "--sweep-values", "0.6", "--seeds", "1"],
])
def test_cli_rejects_negative_seeds_and_fractional_counts(tmp_path, capsys, args):
    # a negative base seed ended in a numpy traceback (exit 2 as "invalid"
    # in a report); a fractional count wrote ok rows of the rounded count
    out = tmp_path / "o.csv"
    assert cli_main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # values without a sweep, and values no report reads, wrote ok rows of
    # one run under several labels, or ran the report as if not given
    (["--sweep-values", "20,30"], "sweep values need a sweep variable"),
    (["--report", "theorem1", "--sweep-values", "20,30"], "sweep values need a sweep"),
    # energy read --sweep elements --sweep-values 16,64 as powers of 16 and 64 dBm
    (["--report", "energy", "--sweep", "elements", "--sweep-values", "16,64"],
     "report energy does not read --sweep"),
    (["--report", "theorem1", "--trace", "{tmp}/t.csv"], "report theorem1 does not read --trace"),
    (["--report", "cdf", "--seeds", "2", "--timing"], "report cdf does not read --timing"),
    (["--report", "theorem1", "--baselines", "a"], "report theorem1 does not read --baselines"),
    (["--report", "convergence", "--baselines", "proposed"],
     "report convergence does not read --baselines"),
    # usage errors exited 2, the code of partial run failures
    (["--seeds", "abc"], "argument --seeds: invalid int value"),
    (["--sweep", "bogus"], "argument --sweep: invalid choice"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    # an unwritable output ran every run, then ended in a traceback
    (["--out", "{tmp}/missing/x.csv"], "cannot write"),
    (["--out", "{tmp}"], "cannot write"),
    (["--trace", "{tmp}/missing/t.csv"], "cannot write"),
    (["--report", "cdf", "--seeds", "2", "--out", "{tmp}/missing/x.csv"], "cannot write"),
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


def test_cli_report_cdf(tmp_path):
    out = tmp_path / "cdf.csv"
    code = cli_main(["--report", "cdf", "--seeds", "2", "--baselines", "c",
                     "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_cli_report_energy(tmp_path):
    out = tmp_path / "energy.csv"
    code = cli_main(["--report", "energy", "--seeds", "1", "--baselines", "c",
                     "--sweep-values", "30,40", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("baseline,power_dbm,seed")
    assert len(lines) == 3


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
    # its groups sweep skips H = 3, which needs m_bs >= 12 > 8; H = 1 runs,
    # the configured H = 2 fails like every table2_faithful run
    out = tmp_path / "conv.csv"
    code = cli_main(["--report", "convergence", "--seeds", "1", "--config", table2,
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        "report convergence: 2 of 3 runs failed (failed:invalid (group-blocked pairing " \
        "needs Y >= H*zeta (8); got Y=7))\n"
    groups = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[2]) for row in groups] == [("groups", "1"), ("groups", "2")]
    # bad arguments stay configuration errors
    assert cli_main(["--report", "energy", "--seeds", "0"]) == 1
    assert cli_main(["--report", "cdf", "--seeds", "1"]) == 1
    assert cli_main(["--report", "cdf", "--seeds", "2", "--baselines", "zz"]) == 1
    assert cli_main(["--report", "energy", "--sweep-values", "30,nan"]) == 1
    assert cli_main(["--report", "energy", "--sweep-values", "50,20"]) == 1


@pytest.mark.parametrize("exc, label", [
    (harness.bd.BdInfeasibleError("injected"), "bd-infeasible"),
    (ValueError("injected"), "invalid"),
])
def test_cli_report_failure_carries_the_run_label(monkeypatch, capsys, exc, label):
    # a report that fails outside its runs names the category a run would
    def fail(spec):
        raise exc

    monkeypatch.setattr(harness, "sweep", fail)
    assert cli_main(["--report", "cdf", "--seeds", "2"]) == 2
    assert capsys.readouterr().err == f"report cdf failed: {label} (injected)\n"


def test_cli_report_exit_code_counts_failed_runs(tmp_path, capsys):
    # every run on table2_faithful fails (Y = 7 < H*zeta = 8); the report
    # still writes its CSV, and says so in its exit code and one stderr line
    table2 = str(CONFIG_DIR / "table2_faithful.json")
    for report, n_runs, n_lines in (("energy", 8, 1 + 8), ("cdf", 2, 1)):
        out = tmp_path / f"{report}.csv"
        code = cli_main(["--report", report, "--config", table2, "--seeds", "2",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report {report}: {n_runs} of {n_runs} runs failed "
                              "(failed:invalid (group-blocked pairing")
        assert err.count("\n") == 1
        assert len(out.read_text().splitlines()) == n_lines


def test_cli_report_convergence(tmp_path):
    out = tmp_path / "conv.csv"
    code = cli_main(["--report", "convergence", "--seeds", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
