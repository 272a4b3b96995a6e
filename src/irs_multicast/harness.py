"""End-to-end pipeline, baselines, Monte Carlo sweeps, and CSV reports.

The proposed scheme runs: channels -> coupling -> manifold phase optimization
-> BD beamformers at the optimized phases -> hybrid factorization -> rate
evaluation on the hybrid set. Baselines swap out the phase source (random),
the beamformer mode (digital), or the beamformer construction (a no-nulling
eigen-beamforming surrogate, labeled as such).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bd, hybridfactor as hf, matrixkit as mk, phaseopt as po, signalmodel as sm
from .channel import (ChannelSet, ConfigError, SystemConfig, effective_channels,
                      generate_channels, random_phase_vector)

__all__ = [
    "DESK_CONFIG",
    "BASELINES",
    "SWEEP_CHOICES",
    "DEFAULT_SWEEP_VALUES",
    "CSV_HEADER",
    "ExperimentSpec",
    "RunRecord",
    "run_proposed",
    "run_baseline",
    "sweep",
    "write_records_csv",
    "records_csv_text",
    "theorem1_report",
    "cdf_report",
    "energy_report",
    "convergence_report",
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

BASELINES = ("proposed", "a", "b", "c", "d", "e")

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
    static_power_dbm: float = 39.0
    element_power_dbm: float = 10.0
    measure_walltime: bool = False

    def __post_init__(self):
        if self.sweep_var not in SWEEP_CHOICES:
            raise ConfigError(f"unknown sweep variable {self.sweep_var!r}")
        values = tuple(float(v) for v in self.sweep_values)
        if not values:
            values = DEFAULT_SWEEP_VALUES[self.sweep_var]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "baselines", tuple(self.baselines))
        for b in self.baselines:
            if b not in BASELINES:
                raise ConfigError(f"unknown baseline {b!r}")
        if self.n_seeds < 1:
            raise ConfigError("need at least one seed")

    def configs(self) -> list[tuple[float, SystemConfig]]:
        """Materialize (sweep value, config) pairs; invalid points fail fast."""
        return [(v, apply_sweep(self.config, self.sweep_var, v))
                for v in self.sweep_values]


def apply_sweep(cfg: SystemConfig, var: str, value: float) -> SystemConfig:
    if var == "none":
        return cfg
    if var == "power":
        return dataclasses.replace(cfg, power_dbm=float(value))
    if var == "elements":
        m = int(round(value))
        side = math.isqrt(m)
        if side * side != m:
            raise ConfigError(f"element count {m} is not a square (square UPA assumed)")
        return dataclasses.replace(cfg, n_irs=m, f_y=side, f_z=side)
    if var == "streams":
        zeta = int(round(value))
        return dataclasses.replace(cfg, zeta=zeta)
    if var == "groups":
        h = int(round(value))
        # Singleton groups: the sweep isolates the group-count effect.
        return dataclasses.replace(cfg, h_groups=h, k_users=h,
                                   group_sizes=(1,) * h)
    raise ConfigError(f"unknown sweep variable {var!r}")


@dataclass
class RunRecord:
    seed: int
    baseline: str
    sweep_var: str
    sweep_value: float
    sum_rate_bps: float
    group_rates: tuple[float, ...]
    s1_iters: int
    s2_iters: int
    energy_eff_bps_per_w: float
    status: str
    wall_ms: float
    report: sm.RateReport | None = None
    trace: list[po.TraceRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status.startswith("ok")


def _energy_efficiency(sum_rate_bps: float, cfg: SystemConfig,
                       static_power_dbm: float, element_power_dbm: float) -> float:
    total_w = (cfg.power_w
               + 10.0 ** ((static_power_dbm - 30.0) / 10.0)
               + cfg.n_irs * 10.0 ** ((element_power_dbm - 30.0) / 10.0))
    return sum_rate_bps / total_w


def _hybridize(bf_digital: sm.BeamformerSet, cfg: SystemConfig,
               rng: np.random.Generator) -> tuple[sm.BeamformerSet, int]:
    """Factor a digital set into RF/baseband parts; returns max alternation count."""
    tx = hf.factor(bf_digital.digital_b, cfg.m_bs, rng=rng)
    f_bb = hf.normalize_power(tx.f_rf, tx.f_bb, cfg.power_w)
    w_rf, w_bb = [], []
    s2 = tx.alternations
    for k in range(cfg.k_users):
        rx = hf.factor(bf_digital.digital_j[k], cfg.m_ue, rng=rng)
        w_rf.append(rx.f_rf)
        w_bb.append(rx.f_bb)
        s2 = max(s2, rx.alternations)
    return sm.BeamformerSet(mode="hybrid", f_rf=tx.f_rf, f_bb=f_bb,
                            w_rf=w_rf, w_bb=w_bb), s2


def _surrogate_beamformers(chset: ChannelSet, groups, nu: np.ndarray,
                           cfg: SystemConfig) -> sm.BeamformerSet:
    """No-nulling eigen-beamforming stand-in for the externally cited baseline.

    Per group: average of members' dominant right-singular blocks of the raw
    effective channel (no inter-group null projection); combiner = dominant
    left singular vectors.
    """
    h_eff = effective_channels(chset, nu, cfg)
    p_stream = cfg.power_w / (cfg.h_groups * cfg.zeta)
    blocks = []
    j = [None] * cfg.k_users
    for members in groups:
        v_sum = None
        for k in members:
            res = mk.svd(h_eff[k])
            v1 = res.vh[:cfg.zeta, :].conj().T
            v_sum = v1 if v_sum is None else v_sum + v1
            j[k] = res.u[:, :cfg.zeta]
        blocks.append(v_sum / math.sqrt(len(members)) * math.sqrt(p_stream))
    b = np.hstack(blocks)
    realized = float(np.linalg.norm(b, "fro") ** 2)
    if realized == 0.0:
        raise ValueError("zero surrogate beamformer cannot be power-normalized")
    b = b * math.sqrt(cfg.power_w / realized)
    return sm.BeamformerSet(mode="digital", digital_b=b, digital_j=j)


def _sanitize_status(status: str) -> str:
    # status is one CSV field; keep the schema intact whatever the message
    return status.replace(",", ";").replace("\n", " ")


def _finish(record_args: dict, t0: float, measure: bool) -> RunRecord:
    wall = (time.perf_counter() - t0) * 1000.0 if measure else 0.0
    record_args["status"] = _sanitize_status(record_args["status"])
    return RunRecord(wall_ms=wall, **record_args)


def _run(baseline: str, cfg: SystemConfig, rng: np.random.Generator,
         sweep_var: str = "none", sweep_value: float = 0.0, seed: int = 0,
         static_power_dbm: float = 39.0, element_power_dbm: float = 10.0,
         measure_walltime: bool = False) -> RunRecord:
    t0 = time.perf_counter()
    groups = cfg.groups()
    args = dict(seed=seed, baseline=baseline, sweep_var=sweep_var,
                sweep_value=sweep_value, sum_rate_bps=0.0, group_rates=(),
                s1_iters=0, s2_iters=0, energy_eff_bps_per_w=0.0, status="ok")
    try:
        chset = generate_channels(cfg, rng)
        nu_draw = random_phase_vector(cfg.n_irs, rng)
        s1 = 0
        trace: list[po.TraceRow] = []
        if baseline in ("proposed", "a", "d", "e"):
            coupling = po.coupling_vectors(chset, cfg, groups)
            opt = po.optimize_phases(coupling, groups, nu_draw)
            nu, s1, trace = opt.nu, opt.iterations, opt.trace
        else:  # b, c: phase shifts stay at the random draw
            nu = nu_draw
        if baseline in ("proposed", "a", "b", "c"):
            bf_digital, _ = bd.build_beamformers(chset, groups, nu, cfg)
        else:  # d, e: surrogate without inter-group nulling
            bf_digital = _surrogate_beamformers(chset, groups, nu, cfg)
        s2 = 0
        if baseline in ("proposed", "b", "d"):
            bf, s2 = _hybridize(bf_digital, cfg, rng)
        else:
            bf = bf_digital
        report = sm.sum_rate(bf, chset, nu, cfg, groups)
        constraints = sm.check_constraints(bf, cfg, nu)
        if not constraints.ok():
            args["status"] = "failed:constraint-violation"
        elif baseline in ("d", "e"):
            # stand-in for an external algorithm, flagged as such in the CSV
            args["status"] = "ok;surrogate"
        args.update(sum_rate_bps=report.sum_rate,
                    group_rates=tuple(report.group_rates),
                    s1_iters=s1, s2_iters=s2,
                    energy_eff_bps_per_w=_energy_efficiency(
                        report.sum_rate, cfg, static_power_dbm, element_power_dbm))
        rec = _finish(args, t0, measure_walltime)
        rec.report = report
        rec.trace = trace
        return rec
    except bd.BdInfeasibleError as exc:
        args["status"] = f"failed:bd-infeasible ({exc})"
    except ValueError as exc:
        args["status"] = f"failed:invalid ({exc})"
    return _finish(args, t0, measure_walltime)


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

    Each (value, baseline, seed) cell is an independent work unit with its own
    RNG stream seeded by base_seed + seed index, so matched seeds share
    channel realizations across baselines and sweep values. Rows come back
    sorted by (sweep value, baseline, seed).
    """
    records = [_run(baseline, cfg, np.random.default_rng(spec.base_seed + idx),
                    sweep_var=spec.sweep_var, sweep_value=value,
                    seed=spec.base_seed + idx,
                    static_power_dbm=spec.static_power_dbm,
                    element_power_dbm=spec.element_power_dbm,
                    measure_walltime=spec.measure_walltime)
               for value, cfg in spec.configs()
               for baseline in spec.baselines
               for idx in range(spec.n_seeds)]
    records.sort(key=lambda r: (r.sweep_value, r.baseline, r.seed))
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def records_csv_text(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        row = [str(r.seed), r.baseline, r.sweep_var, _fmt(r.sweep_value),
               _fmt(r.sum_rate_bps), str(r.s1_iters), str(r.s2_iters),
               _fmt(r.energy_eff_bps_per_w), r.status,
               str(int(round(r.wall_ms)))]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def write_records_csv(path, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_csv_text(records))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _write_report(out_path, rows: list[dict], fieldnames=None) -> None:
    """Write report rows as a headed CSV (columns from the first row by default)."""
    if out_path is None:
        return
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames or list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def theorem1_report(cfg: SystemConfig, seeds: int, out_path=None,
                    n_values: tuple[int, ...] = (16, 32, 64)) -> list[dict]:
    """Truncated-SVD fidelity: true projected singular norms vs the coupling
    approximation, per seed and antenna count, at the optimized phases.

    Path draws do not depend on the antenna count, so each seed's geometry is
    shared across the ``n_values`` (paired comparison).
    """
    rows = []
    for idx in range(seeds):
        for n in n_values:
            cfg_n = dataclasses.replace(cfg, n_bs=n, n_ue=n)
            rng = np.random.default_rng(cfg.seed + idx)
            chset = generate_channels(cfg_n, rng)
            nu0 = random_phase_vector(cfg_n.n_irs, rng)
            groups = cfg_n.groups()
            coupling = po.coupling_vectors(chset, cfg_n, groups)
            nu = po.optimize_phases(coupling, groups, nu0).nu
            decomp = bd.decompose(effective_channels(chset, nu, cfg_n), groups, cfg_n)
            approx = po.sigma_approx(coupling, nu)
            for h, members in enumerate(groups):
                for k in members:
                    true_norm = float(np.linalg.norm(decomp.groups[h].users[k].s1))
                    approx_norm = float(np.linalg.norm(approx[k]))
                    gap = abs(true_norm - approx_norm) / true_norm
                    rows.append(dict(seed=cfg.seed + idx, n_antennas=n, user=k,
                                     sigma_true_fnorm=true_norm,
                                     sigma_approx_fnorm=approx_norm,
                                     rel_gap=gap))
    _write_report(out_path, rows)
    return rows


def cdf_report(cfg: SystemConfig, seeds: int, baselines=("proposed", "b"),
               out_path=None, base_seed: int = 0) -> list[dict]:
    """Sorted empirical sum-rate samples with cumulative fractions per baseline."""
    if seeds < 2:
        raise ConfigError("cdf needs at least two seeds")
    rows = []
    for baseline in baselines:
        rates = []
        for idx in range(seeds):
            rng = np.random.default_rng(base_seed + idx)
            rec = _run(baseline, cfg, rng, seed=base_seed + idx)
            rates.append(rec.sum_rate_bps if rec.ok else math.nan)
        finite = sorted(r for r in rates if not math.isnan(r))
        n = len(finite)
        for i, rate in enumerate(finite):
            rows.append(dict(baseline=baseline, sum_rate_bps=rate,
                             cum_frac=(i + 1) / n))
    _write_report(out_path, rows, ["baseline", "sum_rate_bps", "cum_frac"])
    return rows


def energy_report(cfg: SystemConfig, power_values, seeds: int,
                  baselines=("proposed", "b"), out_path=None,
                  static_power_dbm: float = 39.0, element_power_dbm: float = 10.0,
                  base_seed: int = 0) -> list[dict]:
    """Energy efficiency (rate over total consumed power) across a power sweep."""
    rows = []
    for p in power_values:
        cfg_p = dataclasses.replace(cfg, power_dbm=float(p))
        for baseline in baselines:
            for idx in range(seeds):
                rng = np.random.default_rng(base_seed + idx)
                rec = _run(baseline, cfg_p, rng, seed=base_seed + idx,
                           static_power_dbm=static_power_dbm,
                           element_power_dbm=element_power_dbm)
                rows.append(dict(baseline=baseline, power_dbm=float(p),
                                 seed=base_seed + idx,
                                 sum_rate_bps=rec.sum_rate_bps,
                                 energy_eff_bps_per_w=rec.energy_eff_bps_per_w,
                                 status=rec.status))
    _write_report(out_path, rows)
    return rows


def convergence_report(cfg: SystemConfig, seeds: int, out_path=None,
                       h_values: tuple[int, ...] = (1, 2, 3),
                       base_seed: int = 0) -> list[dict]:
    """Optimizer traces (objective per iteration) and iteration counts vs groups."""
    rows = []
    for idx in range(seeds):
        rng = np.random.default_rng(base_seed + idx)
        rec = run_proposed(cfg, rng, seed=base_seed + idx)
        for t in rec.trace:
            rows.append(dict(kind="trace", seed=base_seed + idx, h_groups=cfg.h_groups,
                             iter=t.iteration, f_value=t.f_value,
                             step_size=t.step_size, grad_norm=t.grad_norm,
                             backtracks=t.backtracks, s1_iters=""))
    for h in h_values:
        cfg_h = apply_sweep(cfg, "groups", h)
        for idx in range(seeds):
            rng = np.random.default_rng(base_seed + idx)
            rec = run_proposed(cfg_h, rng, seed=base_seed + idx)
            rows.append(dict(kind="groups", seed=base_seed + idx, h_groups=h,
                             iter="", f_value="", step_size="", grad_norm="",
                             backtracks="", s1_iters=rec.s1_iters))
    _write_report(out_path, rows)
    return rows
