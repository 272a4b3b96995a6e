"""End-to-end pipeline, baselines, Monte Carlo sweeps, and CSV reports.

The proposed scheme runs: channels -> coupling -> manifold phase optimization
-> BD beamformers at the optimized phases -> hybrid factorization -> rate
evaluation on the hybrid set. Every baseline runs the same pipeline with
three choices of ``SCHEMES`` changed: the phase source (random), the
inter-group null projection (dropped: an eigen-beamforming surrogate, labeled
as such), or the hybrid factorization (skipped: fully digital).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bd, hybridfactor as hf, phaseopt as po, signalmodel as sm
from .channel import (ConfigError, SystemConfig, _integer, draw_key, effective_channels,
                      generate_channels, random_phase_vector)

__all__ = [
    "DESK_CONFIG",
    "SCHEMES",
    "BASELINES",
    "ReportRunsFailed",
    "SWEEP_CHOICES",
    "DEFAULT_SWEEP_VALUES",
    "CSV_HEADER",
    "ExperimentSpec",
    "RunRecord",
    "run_proposed",
    "run_baseline",
    "sweep",
    "records_csv_text",
    "trace_csv_text",
    "theorem1_report",
    "theorem1_csv_text",
]

# The preset of configs/desk.json, the default when no config is given: every
# structural constraint of the full-scale table is kept (RF chain bounds,
# M^B = 2*H*zeta, bandwidth, noise floor, geometry) at sizes that run in
# milliseconds. Singleton groups and Y > K*L keep the exact BD construction
# non-degenerate; see README for the full-scale variant.
DESK_CONFIG = SystemConfig(
    n_bs=16, n_ue=16, m_bs=8, m_ue=4,
    n_irs=64, f_y=8, f_z=8,
    k_users=2, h_groups=2, group_sizes=(1, 1), zeta=2,
    power_dbm=50.0, noise_dbm=-90.0, bw_hz=251.1886e6,
    g_tx_dbi=24.5, g_rx_dbi=0.0,
    paths_y=8, paths_l=3,
    bs_pos=(2.0, 0.0, 10.0), irs_pos=(0.0, 148.0, 10.0),
    user_center=(7.0, 148.0, 1.8), user_radius=10.0, seed=0)

# Each scheme's three pipeline choices: (optimize the phases, null the other
# groups' channels, factor into hybrid RF x baseband).
SCHEMES = {
    "proposed": (True, True, True),
    "a": (True, True, False),
    "b": (False, True, True),
    "c": (False, True, False),
    "d": (True, False, True),
    "e": (True, False, False),
}

BASELINES = tuple(SCHEMES)

SWEEP_CHOICES = ("none", "power", "elements", "streams", "groups")

DEFAULT_SWEEP_VALUES = {
    "power": (20.0, 30.0, 40.0, 50.0),
    "elements": (16.0, 64.0, 144.0),
    "streams": (1.0, 2.0),
    "groups": (1.0, 2.0, 3.0),
    "none": (0.0,),
}

CSV_HEADER = ("seed,baseline,sweep_var,sweep_value,sum_rate_bps,s1_iters,"
              "s2_iters,energy_eff_bps_per_w,status,wall_ms")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: base config, sweep axis, baselines, seeds, outputs."""

    config: SystemConfig = DESK_CONFIG
    sweep_var: str = "none"
    sweep_values: tuple[float, ...] = ()
    baselines: tuple[str, ...] = ("proposed",)
    n_seeds: int = 1
    base_seed: int = 0
    measure_walltime: bool = False

    def __post_init__(self):
        if self.sweep_var not in SWEEP_CHOICES:
            raise ConfigError(f"unknown sweep variable {self.sweep_var!r}")
        values = tuple(float(v) for v in self.sweep_values)
        if not values:
            values = DEFAULT_SWEEP_VALUES[self.sweep_var]
        if self.sweep_var == "none" and values != DEFAULT_SWEEP_VALUES["none"]:
            raise ConfigError("sweep values need a sweep variable")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "baselines", tuple(self.baselines))
        if not self.baselines:
            raise ConfigError("need at least one baseline")
        for b in self.baselines:
            if b not in BASELINES:
                raise ConfigError(f"unknown baseline {b!r}")
        if len(set(self.baselines)) != len(self.baselines):
            raise ConfigError(f"repeated baseline in {','.join(self.baselines)}")
        for name in ("n_seeds", "base_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_seeds < 1:
            raise ConfigError("need at least one seed")
        if self.base_seed < 0:
            raise ConfigError(f"base seed must be >= 0, got {self.base_seed}")

    def configs(self) -> list[tuple[float, SystemConfig]]:
        """Materialize (sweep value, config) pairs; invalid points fail fast."""
        return [(v, apply_sweep(self.config, self.sweep_var, v))
                for v in self.sweep_values]


def apply_sweep(cfg: SystemConfig, var: str, value: float) -> SystemConfig:
    """``cfg`` at one sweep value; a count sweep (elements, streams, groups)
    takes whole values only, so no row is labeled with a count never run."""
    if var == "none":
        return cfg
    if var == "power":
        return dataclasses.replace(cfg, power_dbm=float(value))
    if var not in SWEEP_CHOICES:
        raise ConfigError(f"unknown sweep variable {var!r}")
    count = _integer(f"{var} sweep value", value)
    if var == "elements":
        side = math.isqrt(max(count, 0))
        if side * side != count:
            raise ConfigError(f"element count {count} is not a square (square UPA assumed)")
        return dataclasses.replace(cfg, n_irs=count, f_y=side, f_z=side)
    if var == "streams":
        return dataclasses.replace(cfg, zeta=count)
    # Singleton groups: the sweep isolates the group-count effect.
    return dataclasses.replace(cfg, h_groups=count, k_users=count, group_sizes=(1,) * count)


@dataclass
class RunRecord:
    seed: int
    baseline: str
    sweep_var: str
    sweep_value: float
    sum_rate_bps: float
    s1_iters: int
    s2_iters: int
    energy_eff_bps_per_w: float
    status: str
    wall_ms: float
    report: sm.RateReport | None = None
    trace: list[po.TraceRow] = field(default_factory=list)
    bd_s1: np.ndarray | None = None         # (K, zeta) singular values behind the beamformers
    sigma_approx: np.ndarray | None = None  # (K, zeta) their coupling approximation

    @property
    def ok(self) -> bool:
        return self.status.startswith("ok")


# Consumed power besides the transmit power, for the energy efficiency: the
# static circuit power and the power of each IRS element.
_STATIC_POWER_DBM = 39.0
_ELEMENT_POWER_DBM = 10.0


def _energy_efficiency(sum_rate_bps: float, cfg: SystemConfig) -> float:
    total_w = (cfg.power_w
               + 10.0 ** ((_STATIC_POWER_DBM - 30.0) / 10.0)
               + cfg.n_irs * 10.0 ** ((_ELEMENT_POWER_DBM - 30.0) / 10.0))
    return sum_rate_bps / total_w


def _hybridize(bf_digital: sm.BeamformerSet, cfg: SystemConfig,
               rng: np.random.Generator) -> tuple[sm.BeamformerSet, int]:
    """Factor a digital set into RF/baseband parts, the transmit matrix in one
    call and the (K, N_U, zeta) combiner stack in another, and compose F_R F_B
    and every W_R W_B once; returns the hybrid set, whose ``rf`` keeps the
    factors as they come, and the max alternation count."""
    tx = hf.factor(bf_digital.tx, cfg.m_bs, rng=rng)
    f_bb = hf.normalize_power(tx.f_rf, tx.f_bb, cfg.power_w)
    rx = hf.factor(bf_digital.combiners, cfg.m_ue, rng=rng)
    return sm.BeamformerSet(tx=tx.f_rf @ f_bb, combiners=rx.f_rf @ rx.f_bb,
                            rf=(tx.f_rf, rx.f_rf)), max(tx.alternations, rx.alternations)


def _failure(exc: Exception) -> str:
    """The failure label of a stage exception: its category, then its message."""
    category = "bd-infeasible" if isinstance(exc, bd.BdInfeasibleError) else "invalid"
    return f"{category} ({exc})"


def _stage(shared: dict, key, compute):
    """``compute()``, computed once per ``key`` of the memo ``shared``.

    A stage that fails stores its exception, which every later run on the
    memo that needs the stage raises again.
    """
    out = shared.get(key)  # no stage returns None
    if out is None:
        try:
            out = compute()
        except ValueError as exc:
            out = exc
        shared[key] = out
    if isinstance(out, Exception):
        raise out
    return out


def _run(baseline: str, cfg: SystemConfig, rng: np.random.Generator,
         sweep_var: str = "none", sweep_value: float = 0.0, seed: int = 0,
         measure_walltime: bool = False, shared: dict | None = None) -> RunRecord:
    """One scheme on one channel draw.

    ``shared``, if given, is the stage memo of the run's seed, which the
    seed's other runs read and fill too (see :func:`sweep`); every run on it
    starts from a fresh generator of that seed. Each key names every input
    of its stage, so a run takes from it only what it would compute itself.
    Without it the run has a memo of its own.
    """
    t0 = time.perf_counter()
    shared = {} if shared is None else shared
    optimize, nulling, hybrid = SCHEMES[baseline]
    args = dict(seed=seed, baseline=baseline, sweep_var=sweep_var,
                sweep_value=sweep_value, sum_rate_bps=0.0,
                s1_iters=0, s2_iters=0, energy_eff_bps_per_w=0.0, status="ok")

    def draw():
        chset = generate_channels(cfg, rng)
        # b, c keep the draw that initializes the optimizer of the others
        nu = random_phase_vector(cfg.n_irs, rng)
        return chset, nu, rng.bit_generator.state

    def phases():
        coupling = po.coupling_vectors(chset, cfg)
        opt = po.optimize_phases(coupling, nu)
        return opt.nu, opt.iterations, opt.trace, po.sigma_approx(coupling, opt.nu)

    try:
        key = draw_key(cfg)
        chset, nu, state = _stage(shared, ("channels", key), draw)
        # the hybrid step draws on from where the channel draw left off
        rng.bit_generator.state = state
        s1, trace, approx = 0, [], None
        if optimize:
            nu, s1, trace, approx = _stage(shared, ("phases", cfg), phases)
        # the effective channels read the phase vector and the antenna gains
        h_key = cfg if optimize else (key, cfg.g_tx_dbi, cfg.g_rx_dbi)
        h_eff = _stage(shared, ("h_eff", h_key), lambda: effective_channels(chset, nu, cfg))
        bf, decomp = _stage(shared, ("bd", cfg, optimize, nulling),
                            lambda: bd.build_beamformers(h_eff, cfg.groups(), cfg, nulling))
        s2 = 0
        if hybrid:
            bf, s2 = _hybridize(bf, cfg, rng)
        report = sm.sum_rate(bf, h_eff, cfg)
        # with power and a nonzero channel the rate is positive: 0.0 means
        # the cascaded gains underflowed, and is no result either
        if not 0.0 < report.sum_rate < math.inf:
            raise ValueError(f"sum rate {report.sum_rate!r} is not finite and > 0")
        if not sm.check_constraints(bf, cfg, nu).ok():
            args["status"] = "failed:constraint-violation"
        elif not nulling:
            # stand-in for an external algorithm, flagged as such in the CSV
            args["status"] = "ok;surrogate"
        args.update(sum_rate_bps=report.sum_rate, s1_iters=s1, s2_iters=s2,
                    energy_eff_bps_per_w=_energy_efficiency(report.sum_rate, cfg),
                    report=report, trace=list(trace), bd_s1=decomp.s1,
                    sigma_approx=approx)
    except ValueError as exc:
        args["status"] = f"failed:{_failure(exc)}"
    wall = (time.perf_counter() - t0) * 1000.0 if measure_walltime else 0.0
    # status is one CSV field; keep the schema intact whatever the message
    args["status"] = args["status"].replace(",", ";").replace("\n", " ")
    return RunRecord(wall_ms=wall, **args)


def run_proposed(cfg: SystemConfig, rng: np.random.Generator, **kw) -> RunRecord:
    """Full pipeline: optimize phases, BD at the optimum, hybridize, evaluate."""
    return _run("proposed", cfg, rng, **kw)


def run_baseline(baseline: str, cfg: SystemConfig, rng: np.random.Generator,
                 **kw) -> RunRecord:
    """One of the comparison schemes (a-e); see module docstring."""
    if baseline not in BASELINES:
        raise ConfigError(f"unknown baseline {baseline!r}")
    return _run(baseline, cfg, rng, **kw)


def sweep(spec: ExperimentSpec) -> list[RunRecord]:
    """Cartesian product (sweep value x baseline x seed), deterministic order.

    Every (value, baseline, seed) run has its own RNG stream seeded by
    base_seed + seed index, so matched seeds share channel realizations
    across baselines and sweep values. Runs go seed by seed, and every run
    of a seed reads and fills one stage memo, which is dropped when the seed
    is done; the stages keyed by a cell's config go when the cell is. A memo
    key names every input of its stage (see :func:`_run`): the seed's
    channels, and the effective channels at its random phase vector, serve
    every sweep value with the same draw key (all of a power or streams
    sweep; each value of an elements or groups sweep draws its own), and
    the baselines of one (value, seed) cell share one phase
    optimization, one set of effective channels at the optimized phases and
    one BD build per (phase source, nulling) pair. Each stage is identical
    to what the run would compute on its own, and a failed stage fails every
    run that needs it alike. A run's ``wall_ms`` counts only the stages it
    computed itself, so the first run that needs a stage carries it.
    Rows come back sorted by (sweep value, baseline, seed).
    """
    cells = spec.configs()
    records = []
    for idx in range(spec.n_seeds):
        seed = spec.base_seed + idx
        shared = {}
        for value, cfg in cells:
            records += [_run(baseline, cfg, np.random.default_rng(seed),
                             sweep_var=spec.sweep_var, sweep_value=value, seed=seed,
                             measure_walltime=spec.measure_walltime, shared=shared)
                        for baseline in spec.baselines]
            # no later cell has this config: keep only the draw-keyed stages
            shared = {k: v for k, v in shared.items() if k[1] is not cfg}
    records.sort(key=lambda r: (r.sweep_value, r.baseline, r.seed))
    return records


def _csv_text(columns, rows) -> str:
    """Headed CSV text: each value's ``str`` (a float's is its ``repr``)
    joined by commas, every line ending in ``\n``. No field needs quoting:
    ``_run`` replaces the commas and newlines of a status, and every other
    field is a number or a baseline name."""
    return "".join(",".join(map(str, row)) + "\n" for row in (columns, *rows))


def records_csv_text(records: list[RunRecord]) -> str:
    return _csv_text(CSV_HEADER.split(","), (
        (r.seed, r.baseline, r.sweep_var, float(r.sweep_value), float(r.sum_rate_bps),
         r.s1_iters, r.s2_iters, float(r.energy_eff_bps_per_w), r.status,
         int(round(r.wall_ms))) for r in records))


_TRACE_COLUMNS = ("seed", "baseline", "sweep_value", "iter", "f_value", "step_size",
                  "grad_norm", "backtracks")


def trace_csv_text(records: list[RunRecord]) -> str:
    """The optimizer traces of ``records`` as CSV: one row per accepted
    iteration of every traced run, keyed by seed, baseline and sweep value."""
    return _csv_text(_TRACE_COLUMNS, (
        (r.seed, r.baseline, r.sweep_value, *dataclasses.astuple(t))
        for r in records for t in r.trace))


_THEOREM1_COLUMNS = ("seed", "n_antennas", "user", "sigma_true_fnorm",
                     "sigma_approx_fnorm", "rel_gap")


class ReportRunsFailed(RuntimeError):
    """Runs behind a report failed; ``rows`` holds the rows of the others."""

    def __init__(self, message: str, rows: list[dict]):
        super().__init__(message)
        self.rows = rows


def theorem1_report(cfg: SystemConfig, seeds: int,
                    n_values: tuple[int, ...] = (16, 32, 64),
                    base_seed: int = 0) -> list[dict]:
    """Truncated-SVD fidelity: true projected singular norms vs the coupling
    approximation, per seed and antenna count, at the optimized phases.

    A view of the digital-BD runs (baseline ``a``) of one sweep per antenna
    count; path draws do not depend on the antenna count, so the comparison
    is paired. Antenna counts the config's RF chains cannot carry are
    skipped; if none is left, the last one's ConfigError is raised. If any
    run failed, ReportRunsFailed names the failed count and the first failed
    status, and carries the rows of the ok runs.
    """
    runs, skipped = [], None
    for n in n_values:
        try:
            n_cfg = dataclasses.replace(cfg, n_bs=n, n_ue=n)
        except ConfigError as exc:
            skipped = exc  # m_bs or m_ue exceeds n
            continue
        runs += [(n, r) for r in sweep(ExperimentSpec(config=n_cfg, baselines=("a",),
                                                      n_seeds=seeds, base_seed=base_seed))]
    if skipped is not None and not runs:
        raise skipped
    runs.sort(key=lambda t: t[1].seed)
    rows = []
    for n, r in ((n, r) for n, r in runs if r.ok):
        for k, (true_s, approx_s) in enumerate(zip(r.bd_s1, r.sigma_approx)):
            true, approx = float(np.linalg.norm(true_s)), float(np.linalg.norm(approx_s))
            rows.append(dict(zip(_THEOREM1_COLUMNS, (r.seed, n, k, true, approx,
                                                     abs(true - approx) / true))))
    failed = [r for _, r in runs if not r.ok]
    if failed:
        raise ReportRunsFailed(f"{len(failed)} of {len(runs)} runs failed "
                               f"({failed[0].status})", rows)
    return rows


def theorem1_csv_text(rows: list[dict]) -> str:
    return _csv_text(_THEOREM1_COLUMNS, (row.values() for row in rows))
