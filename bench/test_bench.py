"""Tests of the benchmark itself: the gate, the cell plan, the tracer and the
host-speed sampler.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from irs_multicast import harness, signalmodel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_records  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _sweep(name, baselines=None):
    """The first block's first seed of a workload pool, untraced."""
    wl = WORKLOADS[name]
    return harness.sweep(wl.spec(wl.config(), 0, 1, baselines=baselines))


@pytest.fixture(scope="module")
def desk_records():
    return _sweep("desk_sweep")


def test_gate_accepts_reference_cells(desk_records, reference):
    assert len(desk_records) == 18
    assert check_records(desk_records, reference["desk_sweep"]) == []


def test_gate_trips_on_perturbed_rate(reference):
    records = _sweep("desk_sweep")
    records[3].sum_rate_bps *= 1.0 + 1e-8
    errors = check_records(records, reference["desk_sweep"])
    assert len(errors) == 1 and "reference" in errors[0]


def test_gate_trips_on_failed_cell(reference):
    records = _sweep("desk_sweep")
    records[0].status = "failed:invalid (test)"
    errors = check_records(records, reference["desk_sweep"])
    assert len(errors) == 1 and "status" in errors[0]


def test_gate_trips_on_missing_reference(desk_records):
    assert len(check_records(desk_records, {})) == len(desk_records)


def test_constraint_gate_counts_violations(monkeypatch):
    def violated(bf, cfg, nu=None):
        return signalmodel.ConstraintReport(rf_modulus_dev=1.0, power_ratio=1.0,
                                            phase_modulus_dev=0.0)

    monkeypatch.setattr(signalmodel, "check_constraints", violated)
    with workloads.ConstraintGate() as gate:
        records = _sweep("full_scale")
    assert gate.checked == len(records) == gate.violations
    assert all(not r.ok for r in records)
    assert signalmodel.check_constraints is violated


def test_same_seed_same_cells():
    for wl in WORKLOADS.values():
        pool = sorted(wl.block_plan(0))
        for seed in (0, 1, 7, 123456789):
            plan = wl.block_plan(seed)
            assert plan == wl.block_plan(seed)
            assert sorted(plan) == pool
            assert plan[0] == (seed % wl.n_blocks) * wl.block_seeds
    wl = WORKLOADS["desk_sweep"]
    cfg = wl.config()
    cells = [(v, b, s) for base in wl.block_plan(5)
             for v, c in wl.spec(cfg, base, wl.block_seeds).configs()
             for b in wl.baselines for s in range(base, base + wl.block_seeds)]
    assert len(cells) == len(set(cells)) == 3 * 6 * wl.block_seeds * wl.n_blocks


def test_every_pool_cell_has_a_reference(reference):
    for wl in WORKLOADS.values():
        spec = wl.warmup_spec(wl.config())
        assert len(spec.sweep_values) == len(spec.baselines) == spec.n_seeds == 1
        n_values = len(harness.DEFAULT_SWEEP_VALUES[wl.sweep_var])
        pool_cells = n_values * len(wl.baselines) * wl.block_seeds * wl.n_blocks
        assert len(reference[wl.name]) == pool_cells + 1


def test_traced_and_untraced_rates_identical(desk_records):
    original_run = harness._run
    with Tracer() as tracer:
        assert harness._run is not original_run
        traced = _sweep("desk_sweep")
    assert harness._run is original_run
    assert [r.sum_rate_bps.hex() for r in traced] == \
        [r.sum_rate_bps.hex() for r in desk_records]
    table = tracer.table()
    assert len(table.cell_keys) == len(traced)
    split = table.attribution_ms()
    parts = sum(v for k, v in split.items() if k != "cell_total")
    assert parts == pytest.approx(split["cell_total"], rel=1e-9)


@pytest.mark.parametrize("name, baselines, expect_alternations", [
    ("desk_sweep", None, False),
    ("full_scale", None, False),
    ("rf_limited", ("b",), True),
])
def test_alternations_by_workload(name, baselines, expect_alternations):
    with Tracer() as tracer:
        records = _sweep(name, baselines)
    metrics = tracer.table().layer_metrics(len(records))
    if expect_alternations:
        assert metrics["hybridfactor.alternations_per_run"] > 0
        assert metrics["hybridfactor.exact_start_ratio"] == 0.0
    else:
        assert metrics["hybridfactor.alternations_per_run"] == 0
        assert metrics["hybridfactor.exact_start_ratio"] == 1.0
    assert metrics["hybridfactor.factor_calls_per_run"] > 0


def test_sampler_times_slices_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.times) == len(sampler.rates) >= 5
    assert list(sampler.times) == sorted(sampler.times)
    assert 0.0 < sampler.spent < t1 - t0
    inside = [r for t, r in zip(sampler.times, sampler.rates) if t0 <= t <= t1]
    assert sampler.speed(t0, t1) == pytest.approx(
        sum(inside) / len(inside) / hostspeed.REFERENCE_RATE)
    # a window without samples takes the nearest one
    assert sampler.speed(t1 + 10.0, t1 + 11.0) == \
        sampler.rates[-1] / hostspeed.REFERENCE_RATE


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full_scale", "--seed", "2",
         "--seconds", "0.1", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)


def test_command_prints_every_metric():
    proc = _run_bench(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_outside_a_checkout_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_command_prints_every_layer_metric():
    proc = _run_bench(ROOT, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert (ROOT / ".bench_out" / "spans_full_scale.npz").is_file()
