import dataclasses
import json
import math

import numpy as np
import pytest

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
    with pytest.raises(ch.ConfigError, match="seed"):
        small_spec(n_seeds=0)
    with pytest.raises(ch.ConfigError, match="sweep"):
        small_spec(sweep_var="frequency")


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
    assert len(rec.group_rates) == multiuser_cfg.h_groups


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
    bf, _ = bd.build_beamformers(chset, desk_cfg.groups(), nu, desk_cfg)
    expected = sm.sum_rate(bf, chset, nu, desk_cfg).sum_rate
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

    def fail_at_32(chset, groups, nu, cfg, nulling=True):
        if cfg.n_bs == 32:
            raise harness.bd.BdInfeasibleError("injected")
        return build(chset, groups, nu, cfg, nulling)

    monkeypatch.setattr(harness.bd, "build_beamformers", fail_at_32)
    out = tmp_path / "t1.csv"
    assert cli_main(["--report", "theorem1", "--seeds", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "report theorem1: 2 of 6 runs failed (failed:bd-infeasible (injected))\n"
    assert out.read_text() == clean.read_text()


def test_cdf_report(tmp_path, desk_cfg):
    rows, records = harness.cdf_report(desk_cfg, seeds=3, baselines=("b",),
                                       out_path=tmp_path / "cdf.csv")
    assert len(rows) == 3
    assert [(r.baseline, r.seed) for r in records] == [("b", 0), ("b", 1), ("b", 2)]
    assert rows[-1]["cum_frac"] == 1.0
    assert rows[0]["sum_rate_bps"] <= rows[-1]["sum_rate_bps"]
    with pytest.raises(ch.ConfigError):
        harness.cdf_report(desk_cfg, seeds=1)


def test_energy_report_rises_then_falls(desk_cfg):
    # figure-9 shape: static power dominates at low P (efficiency grows with
    # the rate), transmit power dominates at high P (efficiency decays)
    rows, _ = harness.energy_report(desk_cfg, (20.0, 40.0, 50.0), seeds=4,
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
    rows, records = harness.energy_report(desk_cfg, (40.0, 50.0), seeds=2)
    assert [(r["power_dbm"], r["baseline"], r["seed"]) for r in rows] == [
        (p, b, s) for p in (40.0, 50.0) for b in ("proposed", "b") for s in (0, 1)]
    assert all(r.ok for r in records)


def test_cdf_proposed_dominates_random_phases(desk_cfg):
    rows, _ = harness.cdf_report(desk_cfg, seeds=50, baselines=("proposed", "b"))
    assert sum(1 for r in rows if r["baseline"] == "proposed") == 50
    prop = np.array([r["sum_rate_bps"] for r in rows if r["baseline"] == "proposed"])
    rand = np.array([r["sum_rate_bps"] for r in rows if r["baseline"] == "b"])
    assert np.mean(prop - rand) > 0
    assert np.mean(prop >= rand) >= 0.8  # sorted samples: empirical dominance


def test_convergence_report(tmp_path, desk_cfg):
    rows, records = harness.convergence_report(desk_cfg, seeds=4,
                                               out_path=tmp_path / "conv.csv")
    assert len(records) == 4 + 3 * 4 and all(r.ok for r in records)
    kinds = {row["kind"] for row in rows}
    assert kinds == {"trace", "groups"}
    trace_rows = [r for r in rows if r["kind"] == "trace"]
    for seed in {r["seed"] for r in trace_rows}:
        f_vals = [r["f_value"] for r in trace_rows if r["seed"] == seed]
        assert all(b <= a for a, b in zip(f_vals, f_vals[1:]))
    group_rows = [r for r in rows if r["kind"] == "groups"]
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
    out = tmp_path / "out.csv"
    trace = tmp_path / "trace.csv"
    code = cli_main(["--baselines", "proposed", "--seeds", "1",
                     "--out", str(out), "--trace", str(trace)])
    assert code == 0
    assert trace.read_text().splitlines()[0] == \
        "iter,f_value,step_size,grad_norm,backtracks"


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
