"""Benchmark workloads: which sweep each one runs, its cell pool, and the rate gate.

Each workload is a fixed pool of Monte Carlo seeds, split into blocks of
``block_seeds`` consecutive seeds. One block is one ``harness.sweep`` call
(every sweep value x every baseline x the block's seeds), so a batched sweep
engine can batch within it. A run walks whole passes over the pool; the
workload seed only picks the block a pass starts at (it shifts ``base_seed``
within the pool). Every run therefore measures the same cells, which keeps
run-to-run spread down to machine noise and makes the mean sum rate repeat
exactly, and every cell has an entry in the reference table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from irs_multicast import harness, signalmodel
from irs_multicast.channel import SystemConfig, load_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Per-cell relative tolerance on sum_rate_bps against the reference table.
# The phase optimizer is chaotic in its inputs: perturbing the objective by
# 1e-15 relative moves ~4% of desk cells and ~20% of full-scale cells by more
# than 1e-9, some by 30%. No tolerance short of that admits a reordering of
# floating-point work, so the gate pins the arithmetic itself, at the 1e-9
# that the batched-engine plan also targets. Repeated runs, BLAS thread
# counts 1 and 2, and traced runs all reproduce the table bit for bit.
RATE_RTOL = 1e-9

# Monte Carlo seed of the warm-up cell; outside every pool.
WARMUP_SEED = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: str            # relative to the repository root
    sweep_var: str
    baselines: tuple[str, ...]
    block_seeds: int            # Monte Carlo seeds per harness.sweep call
    n_blocks: int               # blocks per pass over the pool

    def config(self) -> SystemConfig:
        return load_config(ROOT / self.config_path)

    def spec(self, cfg: SystemConfig, base_seed: int, n_seeds: int,
             sweep_values: tuple[float, ...] = (),
             baselines: tuple[str, ...] | None = None) -> harness.ExperimentSpec:
        return harness.ExperimentSpec(
            config=cfg, sweep_var=self.sweep_var, sweep_values=sweep_values,
            baselines=self.baselines if baselines is None else baselines,
            n_seeds=n_seeds, base_seed=base_seed, measure_walltime=True)

    def warmup_spec(self, cfg: SystemConfig) -> harness.ExperimentSpec:
        """One cell: first sweep value, first baseline, the warm-up seed."""
        first = harness.DEFAULT_SWEEP_VALUES[self.sweep_var][0]
        return self.spec(cfg, WARMUP_SEED, 1, sweep_values=(first,),
                         baselines=self.baselines[:1])

    def block_plan(self, seed: int) -> list[int]:
        """Base seeds of one pass, starting at the block that ``seed`` selects."""
        start = seed % self.n_blocks
        order = [(start + i) % self.n_blocks for i in range(self.n_blocks)]
        return [b * self.block_seeds for b in order]

    def pool_specs(self, cfg: SystemConfig) -> list[harness.ExperimentSpec]:
        """Every block of the pool plus the warm-up cell, in pool order."""
        return ([self.spec(cfg, base, self.block_seeds) for base in self.block_plan(0)]
                + [self.warmup_spec(cfg)])


# Why each workload exists is recorded in BENCHMARK.json; sizes give each
# pass a few seconds on a 2-core box.
WORKLOADS = {
    w.name: w for w in (
        Workload("desk_sweep", "configs/desk.json", "elements",
                 harness.BASELINES, block_seeds=2, n_blocks=16),
        Workload("full_scale", "configs/full_scale.json", "power",
                 ("proposed",), block_seeds=2, n_blocks=16),
        Workload("rf_limited", "bench/rf_limited.json", "none",
                 ("proposed", "b"), block_seeds=1, n_blocks=2),
    )
}


def cell_key(sweep_value: float, baseline: str, seed: int) -> str:
    return f"{float(sweep_value)!r}/{baseline}/{seed}"


def load_reference() -> dict[str, dict[str, float]]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["rates"]


def check_records(records, reference: dict[str, float]) -> list[str]:
    """Gate one sweep's records: status ok and rate equal to the reference."""
    errors = []
    for r in records:
        key = cell_key(r.sweep_value, r.baseline, r.seed)
        if not r.ok:
            errors.append(f"{key}: status {r.status!r}")
            continue
        ref = reference.get(key)
        if ref is None:
            errors.append(f"{key}: no reference rate")
        elif not math.isfinite(r.sum_rate_bps) or \
                abs(r.sum_rate_bps - ref) > RATE_RTOL * abs(ref):
            errors.append(f"{key}: sum_rate_bps {r.sum_rate_bps!r} != reference {ref!r}")
    return errors


class ConstraintGate:
    """Counts every ``check_constraints`` report the harness computes.

    The harness already turns a violated report into a failed status; this
    checks it from outside, so a cell that skips or fails the check shows.
    """

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self._original = None

    def __enter__(self):
        original = self._original = signalmodel.check_constraints

        @functools.wraps(original)
        def gated(*args, **kwargs):
            report = original(*args, **kwargs)
            self.checked += 1
            if not report.ok():
                self.violations += 1
            return report

        signalmodel.check_constraints = gated
        return self

    def __exit__(self, *exc):
        signalmodel.check_constraints = self._original
        return False
