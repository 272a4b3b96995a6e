"""Geometric mmWave channels through an IRS: steering vectors, path sets, cascades.

The BS and every user carry ULAs; the IRS is a UPA with F_y x F_z elements.
Each link is a finite sum of paths. The first path of every set is the
line-of-sight ray, whose angles follow from the configured 3-D geometry and
whose amplitude follows a 28 GHz free-space loss of ``61.4 + 20*log10(d)`` dB;
the remaining paths are random scatterers ``nlos_backoff_db`` weaker on
average. Gain statistics are a standard substitution (the originating model
leaves them unspecified) and both knobs are configurable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "SystemConfig",
    "PathSet",
    "ChannelSet",
    "config_from_dict",
    "load_config",
    "ula_response",
    "upa_response",
    "generate_channels",
    "DRAW_FIELDS",
    "draw_key",
    "effective_channels",
    "random_phase_vector",
]

# Half-wavelength element spacing everywhere.
D_OVER_LAMBDA = 0.5


class ConfigError(ValueError):
    """Raised when a scenario configuration violates a structural constraint."""


_COUNT_FIELDS = ("n_bs", "n_ue", "m_bs", "m_ue", "n_irs", "f_y", "f_z", "k_users",
                 "h_groups", "zeta", "paths_y", "paths_l")
_REAL_FIELDS = ("power_dbm", "noise_dbm", "bw_hz", "g_tx_dbi", "g_rx_dbi", "user_radius",
                "los_pathloss_db", "nlos_backoff_db")
# dB fields and the linear value each converts to, which must be finite and
# non-zero.
_DB_FIELDS = {"power_dbm": "power_w", "noise_dbm": "noise_w",
              "g_tx_dbi": "g_tx_lin", "g_rx_dbi": "g_rx_lin"}


def _integer(name: str, value) -> int:
    """``value`` as an int; 16.0 passes, 16.5, nan, "16" and True raise ConfigError."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float; 16 and 16.5 pass, nan, "16", None and True raise ConfigError."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) \
                and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ConfigError(f"{name} must be finite and real, got {value!r}")


def _entries(name: str, value, convert) -> tuple:
    """``value`` as a tuple of ``convert(name, entry)``; a non-list raises ConfigError."""
    try:
        return tuple(convert(name, x) for x in value)
    except TypeError:  # not a sequence
        raise ConfigError(f"{name} must be a list, got {value!r}") from None


@dataclass(frozen=True)
class SystemConfig:
    """All scenario scalars for one simulation setup.

    Counts follow the usual hybrid-MIMO naming: ``n_*`` antennas, ``m_*`` RF
    chains, ``n_irs`` reflecting elements, ``zeta`` streams per user.
    Positions are metres; powers dBm; antenna gains dBi.
    """

    n_bs: int
    n_ue: int
    m_bs: int
    m_ue: int
    n_irs: int
    f_y: int
    f_z: int
    k_users: int
    h_groups: int
    group_sizes: tuple[int, ...]
    zeta: int
    power_dbm: float
    noise_dbm: float
    bw_hz: float
    g_tx_dbi: float
    g_rx_dbi: float
    paths_y: int
    paths_l: int
    bs_pos: tuple[float, float, float]
    irs_pos: tuple[float, float, float]
    user_center: tuple[float, float, float]
    user_radius: float
    seed: int = 0
    los_pathloss_db: float = 61.4
    nlos_backoff_db: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", _entries("group_sizes", self.group_sizes,
                                                         _integer))
        for name in ("bs_pos", "irs_pos", "user_center"):
            pos = _entries(name, getattr(self, name), _real)
            if len(pos) != 3:
                raise ConfigError(f"{name} must be 3 coordinates (x, y, z), "
                                  f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, pos)
        for name in _REAL_FIELDS:
            _real(name, getattr(self, name))
        for name, linear in _DB_FIELDS.items():
            try:
                value = getattr(self, linear)
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name}={getattr(self, name)} gives a linear value that "
                                  "overflows or is 0")
        if self.bw_hz <= 0:
            raise ConfigError(f"bw_hz must be positive, got {self.bw_hz}")
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.seed != 0:
            raise ConfigError(f"seed={self.seed} seeds no run: runs take --base-seed")
        for name in _COUNT_FIELDS:
            value = _integer(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.n_irs != self.f_y * self.f_z:
            raise ConfigError(
                f"n_irs={self.n_irs} must equal f_y*f_z={self.f_y * self.f_z}")
        if not (self.h_groups * self.zeta <= self.m_bs <= self.n_bs):
            raise ConfigError(
                f"RF chain bounds violated: need H*zeta={self.h_groups * self.zeta}"
                f" <= m_bs={self.m_bs} <= n_bs={self.n_bs}")
        if not (self.zeta <= self.m_ue <= self.n_ue):
            raise ConfigError(
                f"RF chain bounds violated: need zeta={self.zeta}"
                f" <= m_ue={self.m_ue} <= n_ue={self.n_ue}")
        # every H_k = H^R_k diag(conj nu) H^B has rank <= min(Y, L)
        if self.zeta > min(self.paths_y, self.paths_l):
            raise ConfigError(
                f"zeta of {self.zeta} exceeds min(paths_y={self.paths_y}, "
                f"paths_l={self.paths_l}), the largest rank of a user channel")
        if len(self.group_sizes) != self.h_groups:
            raise ConfigError(
                f"group_sizes has {len(self.group_sizes)} entries, expected {self.h_groups}")
        if any(g < 1 for g in self.group_sizes):
            raise ConfigError("every group needs at least one user")
        if sum(self.group_sizes) != self.k_users:
            raise ConfigError(
                f"sum(group_sizes)={sum(self.group_sizes)} must equal k_users={self.k_users}")
        if self.user_radius < 0:
            raise ConfigError("user_radius must be non-negative")
        if self.bs_pos == self.irs_pos:
            raise ConfigError("bs_pos equals irs_pos: the BS link has no direction")
        if self.user_radius == 0 and self.user_center == self.irs_pos:
            raise ConfigError("user_center equals irs_pos at user_radius 0: "
                              "the user links have no direction")
        # a negative reference loss is a gain at 1 m, and scatterers are
        # weaker than the LOS ray
        for name in ("los_pathloss_db", "nlos_backoff_db"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        _link_budget(self)

    @property
    def power_w(self) -> float:
        return 10.0 ** ((self.power_dbm - 30.0) / 10.0)

    @property
    def noise_w(self) -> float:
        return 10.0 ** ((self.noise_dbm - 30.0) / 10.0)

    @property
    def g_tx_lin(self) -> float:
        # dBi applied as an amplitude factor inside the effective channel.
        return 10.0 ** (self.g_tx_dbi / 20.0)

    @property
    def g_rx_lin(self) -> float:
        return 10.0 ** (self.g_rx_dbi / 20.0)

    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint consecutive user-index blocks, one per group."""
        out, start = [], 0
        for size in self.group_sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)


# float64's normal range in log10: a power beyond it overflows, or loses
# precision and then underflows to 0
_LOG10_NORMAL = (math.log10(sys.float_info.min), math.log10(sys.float_info.max))


def _link_budget(cfg: SystemConfig) -> None:
    """Refuse a config whose cascaded per-stream powers leave float64's
    normal range, naming the field that sets most of the loss (or gain).

    The budget is a sum of log10 power terms, one per field: the antenna
    gains, the array scales ``sqrt(N_B M / Y)`` and ``sqrt(M N_U / L)``, the
    LOS loss ``los_pathloss_db + 20 log10(max(d, 1))`` dB of each link, as
    ``_draw_link`` forms it, and for the weakest stream the scatterers'
    ``nlos_backoff_db`` on both links. The weakest stream takes the longest
    BS and user links, the strongest the LOS rays on the nearest user link.
    A link whose squared length overflows has a power of 0. Each stream's
    channel power ``|alpha beta|^2``, its received power at ``P / (H zeta)``,
    the SNR scale ``P / (|G_h| H zeta sigma^2)``, their product, the
    surrogate's ``b``, and the gradient coefficient ``bw_hz 2 b / ln 2`` must
    each stay in range. Last, the strongest stream's SNR, raised by a margin
    ``(10 Y L)^2`` for a coherent sum of the paths, must reach 2^-53: below
    it ``1 + b |d|^2`` rounds to 1 on every stream, and every rate is 0.
    """
    lo, hi = _LOG10_NORMAL
    center = math.dist(cfg.user_center, cfg.irs_pos)

    def link(length: float) -> float:
        return -2.0 * math.log10(max(length, 1.0)) if length * length < math.inf else -math.inf

    channel = {"g_tx_dbi": cfg.g_tx_dbi / 10.0, "g_rx_dbi": cfg.g_rx_dbi / 10.0,
               "n_bs": math.log10(cfg.n_bs), "n_ue": math.log10(cfg.n_ue),
               "n_irs": 2.0 * math.log10(cfg.n_irs), "paths_y": -math.log10(cfg.paths_y),
               "paths_l": -math.log10(cfg.paths_l),
               "los_pathloss_db": -cfg.los_pathloss_db / 5.0,
               "bs_pos": link(math.dist(cfg.bs_pos, cfg.irs_pos))}
    per_stream = (cfg.power_dbm - 30.0) / 10.0 - math.log10(cfg.h_groups * cfg.zeta)
    grad = math.log10(2.0 * cfg.bw_hz / math.log(2.0))
    weak = {**channel, "nlos_backoff_db": -cfg.nlos_backoff_db / 5.0,
            "user_center" if center >= cfg.user_radius else "user_radius":
            link(center + cfg.user_radius)}
    strong = {**channel, "user_center": link(max(center - cfg.user_radius, 0.0))}
    for stream, side, size in ((weak, "weakest", max(cfg.group_sizes)),
                               (strong, "strongest", min(cfg.group_sizes))):
        scale = {"power_dbm": per_stream, "noise_dbm": (30.0 - cfg.noise_dbm) / 10.0,
                 "group_sizes": -math.log10(size)}
        snr = {**stream, **scale}
        for what, terms in (("channel power", stream),
                            ("received power", {**stream, "power_dbm": per_stream}),
                            ("SNR scale", scale),
                            ("SNR", snr),
                            ("gradient coefficient", {**snr, "bw_hz": grad})):
            total = sum(terms.values())
            if lo <= total <= hi:
                continue
            pick, sets = (min, "loss") if total < lo else (max, "gain")
            name = pick(terms, key=terms.get)
            raise ConfigError(f"{name} of {getattr(cfg, name)!r} sets most of the {sets} of "
                              f"the {side} stream's {what}: log10 {total:.1f} is outside "
                              f"float64's normal range [{lo:.1f}, {hi:.1f}]")
    # snr is the strongest stream's, from the loop's last pass
    total = sum(snr.values())
    floor = math.log10(2.0 ** -53) - 2.0 * (1.0 + math.log10(cfg.paths_y) + math.log10(cfg.paths_l))
    if total < floor:
        name = min(snr, key=snr.get)
        raise ConfigError(f"{name} of {getattr(cfg, name)!r} sets most of the loss of the "
                          f"strongest stream's SNR: log10 {total:.1f} is below {floor:.1f}, "
                          f"where 1 + SNR rounds to 1 even over a coherent sum of the "
                          f"{cfg.paths_y} x {cfg.paths_l} paths")


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}


def config_from_dict(data: dict) -> SystemConfig:
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return SystemConfig(**data)
    except (TypeError, ValueError) as exc:  # missing keys, wrong value types
        raise ConfigError(str(exc)) from None


def load_config(path) -> SystemConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Array responses
# ---------------------------------------------------------------------------

def ula_response(angle_rad, n: int) -> np.ndarray:
    """Normalized ULA steering vector; element n' carries phase 2*pi*d/lambda*(n'-1)*sin(r).

    A scalar angle gives an (n,) vector; an array of angles of shape S gives
    one vector per angle, shape S + (n,). Each entry is the scalar call's.
    """
    if n < 1:
        raise ValueError("ULA needs at least one antenna")
    idx = np.arange(n)
    sin = np.sin(np.asarray(angle_rad, dtype=float)[..., None])
    return np.exp(2j * np.pi * D_OVER_LAMBDA * idx * sin) / math.sqrt(n)


def upa_response(theta, eta, f_y: int, f_z: int) -> np.ndarray:
    """Normalized UPA steering vector.

    Element (f1, f2) carries phase
    ``2*pi*d/lambda*((f1-1)*cos(eta)*sin(theta) + (f2-1)*sin(eta))``; the
    flat index runs with the vertical index f2 fastest. Scalar angles give an
    (f_y*f_z,) vector; arrays of angles of one shape S give one vector per
    angle pair, shape S + (f_y*f_z,). Each entry is the scalar call's.
    """
    if f_y < 1 or f_z < 1:
        raise ValueError("UPA needs at least one element per dimension")
    theta = np.asarray(theta, dtype=float)[..., None, None]
    eta = np.asarray(eta, dtype=float)[..., None, None]
    f1 = np.arange(f_y)[:, None]
    f2 = np.arange(f_z)[None, :]
    phase = f1 * (np.cos(eta) * np.sin(theta)) + f2 * np.sin(eta)
    grid = np.exp(2j * np.pi * D_OVER_LAMBDA * phase)
    return grid.reshape(grid.shape[:-2] + (f_y * f_z,)) / math.sqrt(f_y * f_z)


# ---------------------------------------------------------------------------
# Path sets and channel assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSet:
    """Per-path gains, angles and steering vectors of a link; path 0 is the LOS ray.

    ``az_irs``/``el_irs`` are the IRS-side azimuth/elevation (arrival for the
    BS link, departure for a user link); ``endpoint`` is the single ULA angle
    at the far end (BS departure or user arrival). ``a_irs`` (..., n, M) and
    ``a_far`` (..., n, N) hold each path's UPA response at the IRS and ULA
    response at the far end, one row per path. The BS link has shape (n,)
    gains and angles; the users' links share one set with a leading user
    axis, (K, n).
    """

    gains: np.ndarray
    az_irs: np.ndarray
    el_irs: np.ndarray
    endpoint: np.ndarray
    a_irs: np.ndarray
    a_far: np.ndarray

    def __post_init__(self):
        shape = self.gains.shape
        if not (self.az_irs.shape == self.el_irs.shape == self.endpoint.shape == shape
                and self.a_irs.shape[:-1] == self.a_far.shape[:-1] == shape):
            raise ValueError("path arrays must share one length")
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("path gains must be finite")


@dataclass(frozen=True)
class ChannelSet:
    """One realization: the BS->IRS matrix (M, N_B), the IRS->user matrices
    stacked along the user axis (K, N_U, M), the paths behind them and the
    user positions (K, 3)."""

    h_bs_irs: np.ndarray
    h_irs_ue: np.ndarray
    bs_paths: PathSet
    ue_paths: PathSet
    user_positions: np.ndarray


def _unit_direction(src, dst) -> np.ndarray:
    d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("coincident endpoints have no direction")
    return d / norm


def _upa_angles(direction: np.ndarray) -> tuple[float, float]:
    # IRS-local convention: boresight along +y, horizontal azimuth, elevation
    # from the horizontal plane.
    az = math.atan2(direction[0], direction[1])
    el = math.asin(np.clip(direction[2], -1.0, 1.0))
    return az, el


def _ula_angle(direction: np.ndarray) -> float:
    # ULA axis along x; steering angle measured from broadside.
    return math.asin(np.clip(direction[0], -1.0, 1.0))


def fspl_amplitude(dist_m: float, offset_db: float) -> float:
    """Amplitude factor of the ``offset_db + 20*log10(d)`` free-space loss."""
    loss_db = offset_db + 20.0 * math.log10(max(dist_m, 1.0))
    return 10.0 ** (-loss_db / 20.0)


def _draw_link(cfg: SystemConfig, rng: np.random.Generator, far_pos,
               n_paths: int, n_far: int) -> PathSet:
    """Draw the paths between the IRS and the ``n_far``-antenna ULA at ``far_pos``.

    The LOS angles and amplitude follow from the geometry; its phase and the
    NLOS gains and angles are drawn.
    """
    los_az, los_el = _upa_angles(_unit_direction(cfg.irs_pos, far_pos))
    los_far = _ula_angle(_unit_direction(far_pos, cfg.irs_pos))
    dist = float(np.linalg.norm(np.asarray(cfg.irs_pos) - np.asarray(far_pos)))
    los_gain_amp = fspl_amplitude(dist, cfg.los_pathloss_db)
    gains = np.empty(n_paths, dtype=np.complex128)
    gains[0] = los_gain_amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    n_nlos = n_paths - 1
    az = np.empty(n_paths)
    el = np.empty(n_paths)
    endpoint = np.empty(n_paths)
    az[0], el[0], endpoint[0] = los_az, los_el, los_far
    if n_nlos:
        sigma = los_gain_amp * 10.0 ** (-cfg.nlos_backoff_db / 20.0)
        reim = rng.standard_normal((n_nlos, 2))
        gains[1:] = sigma / math.sqrt(2.0) * (reim[:, 0] + 1j * reim[:, 1])
        az[1:] = rng.uniform(-np.pi / 2, np.pi / 2, n_nlos)
        el[1:] = rng.uniform(-np.pi / 4, np.pi / 4, n_nlos)
        endpoint[1:] = rng.uniform(-np.pi / 2, np.pi / 2, n_nlos)
    return PathSet(gains=gains, az_irs=az, el_irs=el, endpoint=endpoint,
                   a_irs=upa_response(az, el, cfg.f_y, cfg.f_z),
                   a_far=ula_response(endpoint, n_far))


def _path_sum(gains: np.ndarray, left: np.ndarray, right: np.ndarray,
              scale: float) -> np.ndarray:
    """``scale * sum_p g_p left_p right_p^H`` over the path rows, in path order."""
    h = np.zeros((left.shape[1], right.shape[1]), dtype=np.complex128)
    term = np.empty_like(h)    # each path's g_p left_p right_p^H, in one buffer
    for g, a, b in zip(gains, left, np.conj(right)):
        np.multiply(a[:, None], b[None, :], out=term)
        np.multiply(g, term, out=term)
        h += term
    return scale * h


def _draw_user_position(cfg: SystemConfig, rng: np.random.Generator) -> tuple[float, float, float]:
    radius = cfg.user_radius * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    cx, cy, cz = cfg.user_center
    return (cx + radius * math.cos(angle), cy + radius * math.sin(angle), cz)


def generate_channels(cfg: SystemConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one full channel realization.

    The draw order is fixed for reproducibility: the BS link, then for each
    user its position, uniform in the configured disc, and its link.
    """
    bs_paths = _draw_link(cfg, rng, cfg.bs_pos, cfg.paths_y, cfg.n_bs)
    links, positions = [], []
    for _ in range(cfg.k_users):
        positions.append(_draw_user_position(cfg, rng))
        links.append(_draw_link(cfg, rng, positions[-1], cfg.paths_l, cfg.n_ue))
    h_bs = _path_sum(bs_paths.gains, bs_paths.a_irs, bs_paths.a_far,
                     math.sqrt(cfg.n_bs * cfg.n_irs / cfg.paths_y))
    ue_scale = math.sqrt(cfg.n_irs * cfg.n_ue / cfg.paths_l)
    h_ue = np.stack([_path_sum(p.gains, p.a_far, p.a_irs, ue_scale) for p in links])
    ue_paths = PathSet(**{f.name: np.stack([getattr(p, f.name) for p in links])
                          for f in dataclasses.fields(PathSet)})
    return ChannelSet(h_bs_irs=h_bs, h_irs_ue=h_ue, bs_paths=bs_paths,
                      ue_paths=ue_paths, user_positions=np.array(positions))


# The config fields that generate_channels and random_phase_vector (of
# n_irs elements) read. Power, noise, gains, RF chains, streams and groups
# stay out: a power or streams sweep draws every value's realization alike.
DRAW_FIELDS = ("n_bs", "n_ue", "n_irs", "f_y", "f_z", "k_users", "paths_y", "paths_l",
               "bs_pos", "irs_pos", "user_center", "user_radius", "los_pathloss_db",
               "nlos_backoff_db")


def draw_key(cfg: SystemConfig) -> tuple:
    """Values of ``DRAW_FIELDS``: configs with equal keys draw the same channels
    and phase vector, and leave the generator in the same state."""
    return tuple(getattr(cfg, name) for name in DRAW_FIELDS)


# ---------------------------------------------------------------------------
# Phase vectors and effective channels
# ---------------------------------------------------------------------------

def random_phase_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus vector nu with nu_m = exp(-j*phi_m), phi uniform on [0, 2pi)."""
    return np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, m))


def effective_channels(chset: ChannelSet, nu: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Cascaded BS->IRS->user channels ``G_t G_r H_k^R Phi H^B``, (K, N_U, N_B)."""
    h_bs = chset.h_bs_irs
    if nu.shape != (h_bs.shape[0],):
        raise ValueError(f"shape mismatch: H_bs {h_bs.shape}, nu {nu.shape}")
    return cfg.g_tx_lin * cfg.g_rx_lin * ((chset.h_irs_ue * np.conj(nu)) @ h_bs)
