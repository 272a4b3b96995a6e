"""Span tracing of the irs_multicast layers from outside the package.

``Tracer`` replaces every public function of the layer modules, plus the
harness's per-cell runner, with a wrapper that records one span per call:
name, start, end, parent span and Monte Carlo cell. A few wrappers also store
a count taken from the return value (optimizer iterations, factorization
alternations). Spans live in flat arrays until the run ends; ``SpanTable``
turns them into the per-layer metrics. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

from irs_multicast import (bd, channel, harness, hybridfactor, matrixkit,
                           phaseopt, signalmodel)

from workloads import cell_key

# cli is argument parsing only and stays out.
LAYERS = (channel, phaseopt, bd, matrixkit, hybridfactor, signalmodel, harness)
CELL_SPAN = "harness._run"

# Stage of each span that runs directly inside a cell; the surrogate
# beamformer of baselines d/e calls effective_channels and svd from the
# harness itself, so those count as its beamformer stage.
STAGES = {
    "channels": ("channel.generate_channels", "channel.random_phase_vector"),
    "coupling": ("phaseopt.coupling_vectors",),
    "phaseopt": ("phaseopt.optimize_phases",),
    "bd": ("bd.build_beamformers", "channel.effective_channels", "matrixkit.svd"),
    "hybrid": ("hybridfactor.factor", "hybridfactor.factor_receive",
               "hybridfactor.normalize_power"),
    "oracle": ("signalmodel.sum_rate", "signalmodel.check_constraints"),
}


def _optimize_count(args, kwargs, result):
    return result.iterations, 0


def _factor_count(args, kwargs, result):
    settings = kwargs.get("settings", args[2] if len(args) > 2 else None)
    cap = (settings or hybridfactor.FactorSettings()).max_alternations
    return result.alternations, int(result.alternations >= cap)


HOOKS = {
    "phaseopt.optimize_phases": _optimize_count,
    "hybridfactor.factor": _factor_count,
}


def _cell_of(args, kwargs) -> str:
    # harness._run(baseline, cfg, rng, sweep_var=..., sweep_value=..., seed=...)
    return cell_key(kwargs.get("sweep_value", 0.0), args[0], kwargs.get("seed", 0))


def _targets() -> list[tuple[object, str]]:
    """(module, attribute) of every function the tracer wraps."""
    out = []
    for mod in LAYERS:
        for name, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not name.startswith("_")):
                out.append((mod, name))
    out.append((harness, CELL_SPAN.split(".")[1]))
    return out


class Tracer:
    """Re-entrant context manager: spans are recorded while it is entered."""

    def __init__(self):
        self.names: list[str] = []
        self.cell_keys: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.cell = array("q")
        self.count = array("q")
        self.flag = array("b")
        self._stack = [-1]
        self._current_cell = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hook = HOOKS.get(name)
        is_cell = name == CELL_SPAN
        names, starts, ends = self.name_id, self.start, self.end
        parents, cells, counts, flags = self.parent, self.cell, self.count, self.flag
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            idx = len(starts)
            if is_cell:
                tracer._current_cell = len(tracer.cell_keys)
                tracer.cell_keys.append(_cell_of(args, kwargs))
            names.append(name_id)
            parents.append(stack[-1])
            cells.append(tracer._current_cell)
            counts.append(0)
            flags.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_cell:
                    tracer._current_cell = -1
            if hook is not None:
                counts[idx], flags[idx] = hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "irs_multicast" or n.startswith("irs_multicast.")]
        for home, attr in _targets():
            current = getattr(home, attr)
            wrapped = self._wrap(current, f"{home.__name__.rsplit('.', 1)[1]}.{attr}")
            # Rebind every name that refers to this function, including the
            # copies that ``from .x import f`` placed in other modules.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is current:
                        self._patches.append((mod, key, current))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
        return False

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.cell_keys, self.name_id, self.start,
                         self.end, self.parent, self.cell, self.count, self.flag)


class SpanTable:
    """Spans as numpy arrays, plus the metric arithmetic over them."""

    def __init__(self, names, cell_keys, name_id, start, end, parent, cell,
                 count, flag):
        self.names = list(names)
        self.cell_keys = list(cell_keys)
        self.name_id = np.array(name_id, dtype=np.int64)
        self.start = np.array(start, dtype=np.int64)
        self.end = np.array(end, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        self.cell = np.array(cell, dtype=np.int64)
        self.count = np.array(count, dtype=np.int64)
        self.flag = np.array(flag, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.start)

    @functools.cached_property
    def dur_ms(self) -> np.ndarray:
        return (self.end - self.start) / 1e6

    @functools.cached_property
    def self_ms(self) -> np.ndarray:
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur_ms[has_parent],
                            minlength=len(self))
        return self.dur_ms - child

    @functools.cached_property
    def in_cell(self) -> np.ndarray:
        """Spans called directly by a cell span."""
        is_cell = self.mask(CELL_SPAN)
        out = np.zeros(len(self), dtype=bool)
        has_parent = self.parent >= 0
        out[has_parent] = is_cell[self.parent[has_parent]]
        return out

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def total_ms(self, name: str) -> float:
        return float(self.dur_ms[self.mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def cell_stage_ms(self) -> dict[str, np.ndarray]:
        """Per cell, the time of each stage's spans that run directly in it."""
        out = {}
        for stage, names in STAGES.items():
            sel = self.in_cell & self.mask(*names)
            out[stage] = np.bincount(self.cell[sel], weights=self.dur_ms[sel],
                                     minlength=len(self.cell_keys))
        return out

    def attribution_ms(self) -> dict[str, float]:
        """Cell time split by the module of each span directly inside a cell.

        ``harness(self)`` is the cell spans' self time, so the module entries
        add up to ``cell_total``.
        """
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            sel = self.in_cell & (self.name_id == i)
            if sel.any():
                module = name.split(".")[0]
                out[module] = out.get(module, 0.0) + float(self.dur_ms[sel].sum())
        cell = self.mask(CELL_SPAN)
        out["harness(self)"] = float(self.self_ms[cell].sum())
        out["cell_total"] = float(self.dur_ms[cell].sum())
        return out

    def layer_metrics(self, n_cells: int) -> dict[str, float]:
        """The per-layer metrics; ``_per_run`` divides by ``n_cells``."""
        n = max(n_cells, 1)

        def per_run(x):
            return float(x) / n

        opt = self.mask("phaseopt.optimize_phases")
        iters = int(self.count[opt].sum())
        f_in_opt = np.zeros(len(self), dtype=bool)
        has_parent = self.parent >= 0
        f_in_opt[has_parent] = opt[self.parent[has_parent]]
        f_in_opt &= self.mask("phaseopt.objective_f")
        # Line-search trials: every objective call inside the optimizer but
        # the one that scores the starting point.
        trials = int(f_in_opt.sum()) - int(opt.sum())
        f_calls = self.calls("phaseopt.objective_f")
        g_calls = self.calls("phaseopt.euclidean_grad")
        fac = self.mask("hybridfactor.factor")
        fac_calls = int(fac.sum())
        alternations = int(self.count[fac].sum())
        fac_ms = self.total_ms("hybridfactor.factor")
        cell = self.mask(CELL_SPAN)
        return {
            "channel.generate_ms_per_run": per_run(self.total_ms("channel.generate_channels")),
            "channel.effective_ms_per_run": per_run(self.total_ms("channel.effective_channels")),
            "channel.effective_calls_per_run": per_run(self.calls("channel.effective_channels")),
            "phaseopt.coupling_ms_per_run": per_run(self.total_ms("phaseopt.coupling_vectors")),
            "phaseopt.optimize_ms_per_run": per_run(self.total_ms("phaseopt.optimize_phases")),
            "phaseopt.iters_per_run": per_run(iters),
            "phaseopt.f_calls_per_run": per_run(f_calls),
            "phaseopt.grad_calls_per_run": per_run(g_calls),
            "phaseopt.us_per_f_call": _ratio(1e3 * self.total_ms("phaseopt.objective_f"), f_calls),
            "phaseopt.us_per_grad_call": _ratio(1e3 * self.total_ms("phaseopt.euclidean_grad"), g_calls),
            "phaseopt.armijo_accept_ratio": _ratio(iters, trials),
            "bd.build_ms_per_run": per_run(self.self_ms[self.mask("bd.build_beamformers")].sum()),
            "bd.decompose_ms_per_run": per_run(self.total_ms("bd.decompose")),
            "matrixkit.svd_calls_per_run": per_run(self.calls("matrixkit.svd")),
            "matrixkit.svd_ms_per_run": per_run(self.total_ms("matrixkit.svd")),
            "matrixkit.nullspace_ms_per_run": per_run(self.total_ms("matrixkit.nullspace_basis")),
            "hybridfactor.factor_ms_per_run": per_run(fac_ms),
            "hybridfactor.factor_calls_per_run": per_run(fac_calls),
            "hybridfactor.alternations_per_run": per_run(alternations),
            # One pass per alternation plus the warm start of each call, so
            # the figure stays defined where every start is exact.
            "hybridfactor.ms_per_alternation": _ratio(fac_ms, alternations + fac_calls),
            "hybridfactor.exact_start_ratio": _ratio(int((self.count[fac] == 0).sum()), fac_calls),
            "hybridfactor.max_alt_hit_ratio": _ratio(int(self.flag[fac].sum()), fac_calls),
            "signalmodel.sum_rate_ms_per_run": per_run(self.total_ms("signalmodel.sum_rate")),
            "signalmodel.constraints_ms_per_run": per_run(self.total_ms("signalmodel.check_constraints")),
            "harness.self_ms_per_run": per_run(self.self_ms[cell].sum()),
            "harness.cell_ms_per_run": per_run(self.dur_ms[cell].sum()),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), name_id=self.name_id,
                 start_ns=self.start, end_ns=self.end, parent=self.parent,
                 cell=self.cell, count=self.count, flag=self.flag,
                 cell_key=np.array(self.cell_keys, dtype=str))


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the denominator counts no calls."""
    return float(num) / den if den else 0.0
