"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Expensive Monte Carlo bundles are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from irs_multicast import bd
from irs_multicast import channel as ch
from irs_multicast import harness
from irs_multicast import hybridfactor as hf
from irs_multicast import phaseopt as po
from irs_multicast import signalmodel as sm
from irs_multicast.harness import DESK_CONFIG

N_BD_INSTANCES = 100
N_MATCHED_SEEDS = 24
N_SWEEP_SEEDS = 20
N_THEOREM_SEEDS = 24
N_PLANTED_SEEDS = 20


def _report(num, desc, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


@pytest.fixture(scope="module")
def bd_instances():
    """BD beamformers at random phases on the desk config, 100 seeds."""
    t0 = time.perf_counter()
    out = []
    for seed in range(N_BD_INSTANCES):
        rng = np.random.default_rng(seed)
        chset = ch.generate_channels(DESK_CONFIG, rng)
        nu = ch.random_phase_vector(DESK_CONFIG.n_irs, rng)
        h_eff = ch.effective_channels(chset, nu, DESK_CONFIG)
        bf, decomp = bd.build_beamformers(h_eff, DESK_CONFIG.groups(), DESK_CONFIG)
        report = sm.sum_rate(bf, h_eff, DESK_CONFIG)
        closed = bd.bd_rate_closed_form(decomp, DESK_CONFIG.groups(), DESK_CONFIG)
        out.append((report, closed))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def matched_runs():
    """proposed, a, b, d, e on the same seeds; wall time of proposed+b recorded."""
    runs = {name: [] for name in ("proposed", "a", "b", "d", "e")}
    compare_wall = 0.0
    for seed in range(N_MATCHED_SEEDS):
        for name in runs:
            t0 = time.perf_counter()
            rng = np.random.default_rng(seed)
            if name == "proposed":
                rec = harness.run_proposed(DESK_CONFIG, rng, seed=seed)
            else:
                rec = harness.run_baseline(name, DESK_CONFIG, rng, seed=seed)
            if name in ("proposed", "b"):
                compare_wall += time.perf_counter() - t0
            assert rec.ok, f"{name} seed {seed}: {rec.status}"
            runs[name].append(rec)
    return runs, compare_wall


def _mean_rate(records):
    return float(np.mean([r.sum_rate_bps for r in records]))


def test_criterion_1_bd_nulling(bd_instances):
    instances, elapsed = bd_instances
    worst = max(rep.interference_ratio().max() for rep, _ in instances)
    ok = worst < 1e-9 and elapsed < 30.0
    _report(1, "BD interference-to-signal < 1e-9 over 100 seeds in < 30 s",
            ok, f"worst ratio {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_rate_formula_equivalence(bd_instances):
    instances, _ = bd_instances
    worst = 0.0
    for rep, closed in instances:
        worst = max(worst, float(np.max(np.abs(closed - rep.user_rates)
                                        / rep.user_rates)))
    _report(2, "log-det closed form matches SINR-sum oracle to 1e-6",
            worst < 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_3_gradient_matches_finite_differences():
    groups = DESK_CONFIG.groups()
    step = 1e-6
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        chset = ch.generate_channels(DESK_CONFIG, rng)
        coupling = po.coupling_vectors(chset, DESK_CONFIG, groups)
        nu = ch.random_phase_vector(DESK_CONFIG.n_irs, rng)
        grad = po.euclidean_grad(coupling, nu, groups)
        fd = np.zeros_like(grad)
        for m in range(DESK_CONFIG.n_irs):
            e = np.zeros(DESK_CONFIG.n_irs, dtype=complex)
            e[m] = step
            fr = (po.objective_f(coupling, nu + e, groups)
                  - po.objective_f(coupling, nu - e, groups)) / (2 * step)
            e[m] = 1j * step
            fi = (po.objective_f(coupling, nu + e, groups)
                  - po.objective_f(coupling, nu - e, groups)) / (2 * step)
            fd[m] = fr + 1j * fi
        worst = max(worst, float(np.linalg.norm(fd - grad) / np.linalg.norm(grad)))
    _report(3, "Euclidean gradient matches central differences to 1e-5 on 50 instances",
            worst < 1e-5, f"worst rel err {worst:.2e}")


def test_criterion_4_manifold_invariants(matched_runs):
    runs, _ = matched_runs
    rng = np.random.default_rng(7)
    retraction_dev = 0.0
    tangency_dev = 0.0
    for _ in range(200):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v[np.abs(v) < 1e-6] = 1.0
        nu = po.retract(v)
        retraction_dev = max(retraction_dev, float(np.max(np.abs(np.abs(nu) - 1.0))))
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        t = po.tangent_project(g, nu)
        tangency_dev = max(tangency_dev, float(np.max(np.abs(np.real(t * np.conj(nu))))))
    monotone = True
    for name in ("proposed", "a", "d", "e"):
        for rec in runs[name]:
            f = np.array([row.f_value for row in rec.trace])
            if f.size and np.any(np.diff(f) > 0):
                monotone = False
    ok = retraction_dev < 1e-12 and tangency_dev < 1e-12 and monotone
    _report(4, "retraction/tangency residuals < 1e-12; accepted traces monotone",
            ok, f"retr {retraction_dev:.1e}, tang {tangency_dev:.1e}, monotone {monotone}")


def test_criterion_5_truncated_svd_trend():
    rows = harness.theorem1_report(DESK_CONFIG, seeds=N_THEOREM_SEEDS,
                                   n_values=(16, 32, 64))
    means = {}
    for n in (16, 32, 64):
        gaps = [r["rel_gap"] for r in rows if r["n_antennas"] == n]
        means[n] = float(np.mean(gaps))
    ok = means[16] > means[32] > means[64]
    _report(5, "mean approximation gap decreases across N in {16, 32, 64}",
            ok, f"gaps {means[16]:.3f} > {means[32]:.3f} > {means[64]:.3f}")


def test_criterion_6_phase_optimization_gain(matched_runs):
    runs, compare_wall = matched_runs
    gain = (_mean_rate(runs["proposed"]) - _mean_rate(runs["b"])) / _mean_rate(runs["b"])
    ok = gain >= 0.10 and compare_wall < 300.0
    _report(6, "proposed vs random-phase hybrid mean gain >= 10% in < 5 min",
            ok, f"gain {100 * gain:.1f}%, {compare_wall:.0f} s")


def test_criterion_7_hybrid_fidelity(matched_runs):
    runs, _ = matched_runs
    assert DESK_CONFIG.m_bs == 2 * DESK_CONFIG.h_groups * DESK_CONFIG.zeta
    mean_digital = _mean_rate(runs["a"])
    mean_hybrid = _mean_rate(runs["proposed"])
    loss = abs(mean_digital - mean_hybrid) / mean_digital
    _report(7, "hybrid mean sum rate within 5% of fully digital (M_B = 2*H*zeta)",
            loss <= 0.05, f"gap {100 * loss:.2f}%")


def test_criterion_8_planted_factorization():
    # checked under both warm starts: the exact two-phase split and the pure
    # phase-copy start that leaves the whole recovery to the alternation
    worst = {}
    capped = True
    for mode in ("auto", "phase_copy"):
        settings = hf.FactorSettings(init_mode=mode)
        worst[mode] = 0.0
        for seed in range(N_PLANTED_SEEDS):
            rng = np.random.default_rng(2000 + seed)
            x_true = np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 8)))
            y_true = (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
            res = hf.factor(x_true @ y_true, 8, settings, rng=rng)
            worst[mode] = max(worst[mode], res.final_residual)
            capped = capped and res.alternations <= 100
    ok = max(worst.values()) < 1e-6 and capped
    _report(8, "planted factorization recovered to 1e-6 within 100 alternations",
            ok, f"worst residual auto {worst['auto']:.2e}, phase-copy {worst['phase_copy']:.2e}")


def test_criterion_9_monotone_trends():
    means = {}
    for var, values in (("power", (20.0, 30.0, 40.0, 50.0)),
                        ("elements", (16.0, 64.0, 144.0))):
        spec = harness.ExperimentSpec(config=DESK_CONFIG, sweep_var=var,
                                      sweep_values=values,
                                      baselines=("proposed",),
                                      n_seeds=N_SWEEP_SEEDS)
        records = harness.sweep(spec)
        assert all(r.ok for r in records)
        means[var] = [
            float(np.mean([r.sum_rate_bps for r in records if r.sweep_value == v]))
            for v in values]
    ok = (all(b >= a for a, b in zip(means["power"], means["power"][1:]))
          and all(b >= a for a, b in zip(means["elements"], means["elements"][1:])))
    detail = ("P " + "/".join(f"{m / 1e9:.2f}" for m in means["power"])
              + " Gbps; M " + "/".join(f"{m / 1e9:.2f}" for m in means["elements"]))
    _report(9, "mean sum rate non-decreasing in transmit power and element count",
            ok, detail)


def test_criterion_10_byte_deterministic_sweeps():
    spec = harness.ExperimentSpec(config=DESK_CONFIG, sweep_var="power",
                                  sweep_values=(40.0, 50.0),
                                  baselines=("proposed", "b"), n_seeds=2)
    first = harness.records_csv_text(harness.sweep(spec))
    second = harness.records_csv_text(harness.sweep(spec))
    _report(10, "repeated sweep with one base seed is byte-identical",
            first == second, f"{len(first)} bytes")


def test_criterion_11_baseline_mechanism(matched_runs):
    runs, _ = matched_runs
    surrogate_min = min(rec.report.interference_ratio().max()
                        for name in ("d", "e") for rec in runs[name])
    proposed_max = max(rec.report.interference_ratio().max()
                       for rec in runs["proposed"])
    ok = surrogate_min > 1e-3 and proposed_max < 1e-9
    _report(11, "surrogates leak inter-group interference (> 1e-3); proposed nulls it (< 1e-9)",
            ok, f"surrogate min {surrogate_min:.2e}, proposed max {proposed_max:.2e}")
