"""Experiment configurations, presets, and runners behind the CLI.

A run is described by a flat key=value configuration (strictly parsed), is
fully deterministic, and emits CSV datasets with JSON metadata sidecars
plus a machine-readable summary.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import propagate_exact, solve_volterra, solve_volterra_pm
from .environment import LatticeEnvironment
from .errors import ConfigError
from .floquet import (
    circular_distance,
    compute_spectrum,
    decompose_energy_terms,
    fbs_floquet_modes,
)
from .ideal import ideal_energy, ideal_peak_energy
from .markovian import markov_energy, markov_rates
from .model import ProtocolSchedule, SystemParams
from .output import csv_path, meta_path, write_csv, write_metadata
from .perturbation import (
    asymptotic_energy_closed_form,
    nonresonant_zeroth_order,
    phase_fourier_coeff,
    second_order_corrections,
    splitting_large_coupling,
    splitting_main_sum,
)

KINDS = ("ideal-cycle", "markov", "dynamics", "kappa-sweep", "spectrum",
         "asymptotic", "perturbation", "nonresonant")
ROUTES = ("exact", "volterra", "volterra-pm")
KERNELS = ("discrete", "continuum")

# samples per drive period used by the trace-producing kinds
_SAMPLES_PER_PERIOD = 24


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-typed description of one run.

    Unset optional fields resolve to kind-dependent defaults at run time;
    the resolved values are embedded in every output's metadata.
    """

    kind: str
    label: str = ""
    # system
    omega_0: float = 2.0
    delta: float = 0.0
    kappa: float = 3.0
    # environment
    n_side: int = 30
    varpi: float = 1.0
    q: float = 0.5
    g: float = 0.5
    # protocol (None -> defaults documented in resolve_schedule)
    tau_c: float | None = None
    tau_s: float | None = None
    tau_d: float | None = None
    # solver
    route: str = "exact"
    dt: float | None = None
    t_max: float | None = None
    n_samples: int = 0
    kernel: str = "discrete"
    # sweep grid
    kappa_min: float | None = None
    kappa_max: float | None = None
    kappa_step: float | None = None
    # markov
    gamma: float | None = None
    # spectral classification
    weight_threshold: float = 0.05
    gap_tolerance: float | None = None
    n_offsets: int = 96

    def stem(self) -> str:
        return self.label or self.kind


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_STR_KEYS = ("kind", "label", "route", "kernel")
_INT_KEYS = ("n_side", "n_samples", "n_offsets")
_FLOAT_KEYS = tuple(k for k in _FIELDS if k not in _STR_KEYS + _INT_KEYS)


def _coerce_value(key: str, raw: str):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key: {key}")
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected integer, got {raw!r}")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: expected number, got {raw!r}")


def parse_overrides(pairs: list[str]) -> dict:
    """key=value strings (CLI --set) into a typed override mapping."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        key = key.strip()
        out[key] = _coerce_value(key, raw)
    return out


def parse_config_text(text: str) -> ExperimentConfig:
    """Strict key=value configuration (``#`` comments, blank lines allowed)."""
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected key = value, got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {ln}: duplicate config key: {key}")
        values[key] = _coerce_value(key, raw)
    if "kind" not in values:
        raise ConfigError("missing config key: kind")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in KINDS:
        raise ConfigError(f"config key kind: {cfg.kind!r} is not one of {KINDS}")
    if cfg.route not in ROUTES:
        raise ConfigError(f"config key route: {cfg.route!r} is not one of {ROUTES}")
    if cfg.kernel not in KERNELS:
        raise ConfigError(
            f"config key kernel: {cfg.kernel!r} is not one of {KERNELS}")
    for key in _FLOAT_KEYS:
        v = getattr(cfg, key)
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"config key {key}: must be finite, got {v}")
    if cfg.omega_0 <= abs(cfg.delta):
        raise ConfigError("config keys omega_0, delta: omega_0 must exceed "
                          "|delta| so both level splittings are positive")
    if cfg.kappa <= 0:
        raise ConfigError("config key kappa: must be positive")
    if cfg.n_side < 1:
        raise ConfigError("config key n_side: must be >= 1")
    if cfg.varpi <= 0 or cfg.q <= 0:
        raise ConfigError("config keys varpi, q: must be positive")
    if cfg.g < 0:
        raise ConfigError("config key g: must be nonnegative")
    for key in ("tau_c", "tau_d", "dt"):
        v = getattr(cfg, key)
        if v is not None and v <= 0:
            raise ConfigError(f"config key {key}: must be positive")
    if cfg.tau_s is not None and cfg.tau_s < 0:
        raise ConfigError("config key tau_s: must be nonnegative")
    if cfg.t_max is not None and cfg.t_max <= 0:
        raise ConfigError("config key t_max: must be positive")
    if cfg.n_samples < 0:
        raise ConfigError("config key n_samples: must be nonnegative")
    if cfg.n_offsets < 1:
        raise ConfigError("config key n_offsets: must be >= 1")
    if cfg.gamma is not None and cfg.gamma < 0:
        raise ConfigError("config key gamma: must be nonnegative")
    if cfg.kind == "markov" and cfg.delta != 0.0:
        raise ConfigError("kind markov: the decay envelope holds only at "
                          "delta = 0")
    sweep_keys = (cfg.kappa_min, cfg.kappa_max, cfg.kappa_step)
    if cfg.kind in ("kappa-sweep",) and any(v is None for v in sweep_keys):
        raise ConfigError("kappa-sweep requires kappa_min, kappa_max, kappa_step")
    if any(v is not None for v in sweep_keys):
        if cfg.kappa_step is not None and cfg.kappa_step <= 0:
            raise ConfigError("config key kappa_step: must be positive")
        if None not in sweep_keys and not sweep_grid_values(cfg).size:
            raise ConfigError("empty sweep")
    if cfg.kind in ("asymptotic", "nonresonant") \
            and cfg.n_offsets % _SAMPLES_PER_PERIOD:
        raise ConfigError(
            f"config key n_offsets: must be a multiple of {_SAMPLES_PER_PERIOD}")


def sweep_grid_values(cfg: ExperimentConfig) -> np.ndarray:
    if None in (cfg.kappa_min, cfg.kappa_max, cfg.kappa_step):
        raise ConfigError("sweep requires kappa_min, kappa_max, kappa_step")
    n = math.floor((cfg.kappa_max - cfg.kappa_min) / cfg.kappa_step + 1e-9) + 1
    if n < 1:
        return np.empty(0)
    return cfg.kappa_min + cfg.kappa_step * np.arange(n)


# ---------------------------------------------------------------------------
# resolution of physical objects

def resolve_system(cfg: ExperimentConfig, kappa: float | None = None) -> SystemParams:
    return SystemParams.from_center(cfg.omega_0, cfg.delta,
                                    cfg.kappa if kappa is None else kappa)


def resolve_environment(cfg: ExperimentConfig) -> LatticeEnvironment:
    return LatticeEnvironment(n_side=cfg.n_side, varpi=cfg.varpi,
                              q=cfg.q, g=cfg.g)


def resolve_schedule(cfg: ExperimentConfig, kappa: float | None = None
                     ) -> ProtocolSchedule:
    """Fill unspecified segment durations.

    tau_c and tau_d default to the half-swap value pi/(2 kappa).  tau_s
    defaults to pi/(2 kappa) as well (equal segments) except for the
    lossless kinds (ideal-cycle, markov), where the phase-locking choice
    applies: pi/|delta| when detuned, 2pi/(10 omega_b) on resonance.
    """
    k = cfg.kappa if kappa is None else kappa
    half_swap = 0.5 * math.pi / k
    tau_c = half_swap if cfg.tau_c is None else cfg.tau_c
    tau_d = half_swap if cfg.tau_d is None else cfg.tau_d
    if cfg.tau_s is not None:
        tau_s = cfg.tau_s
    elif cfg.kind in ("ideal-cycle", "markov"):
        if cfg.delta != 0.0:
            tau_s = math.pi / abs(cfg.delta)
        else:
            omega_b = cfg.omega_0 - cfg.delta
            tau_s = 2.0 * math.pi / (10.0 * omega_b)
    else:
        tau_s = half_swap
    return ProtocolSchedule(tau_c=tau_c, tau_s=tau_s, tau_d=tau_d)


def _resolved_meta(cfg: ExperimentConfig, schedule: ProtocolSchedule,
                   **extra) -> dict:
    meta = {
        "config": config_to_dict(cfg),
        "resolved": {
            "tau_c": schedule.tau_c,
            "tau_s": schedule.tau_s,
            "tau_d": schedule.tau_d,
            "period": schedule.period,
            "omega_T": schedule.omega_T,
        },
        "version": __version__,
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# runners (one per experiment kind); each returns a summary fragment and
# appends written file paths to ``files``

def _run_ideal_cycle(cfg, out_dir, files):
    params = resolve_system(cfg)
    schedule = resolve_schedule(cfg)
    t_max = cfg.t_max if cfg.t_max is not None else 3.0 * schedule.period
    n = cfg.n_samples or 720
    ts = np.linspace(0.0, t_max, n + 1)
    energies = ideal_energy(params, schedule, ts)
    stem = cfg.stem()
    files.append(write_csv(csv_path(out_dir, stem), ["t", "energy"],
                           [ts, energies]))
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, schedule,
        columns={"t": "time", "energy": "battery energy (hbar = 1)"})))
    return {"kind": cfg.kind, "label": stem,
            "peak_energy": ideal_peak_energy(params),
            "period": schedule.period}


def _run_markov(cfg, out_dir, files):
    params = resolve_system(cfg)
    schedule = resolve_schedule(cfg)
    lamb_shift = None
    if cfg.gamma is not None:
        gamma = cfg.gamma
    else:
        rates = markov_rates(resolve_environment(cfg), params.omega_0)
        gamma, lamb_shift = rates.gamma, rates.lamb_shift
    t_max = cfg.t_max if cfg.t_max is not None else 3.0 * schedule.period
    n = cfg.n_samples or 720
    ts = np.linspace(0.0, t_max, n + 1)
    energies = markov_energy(params, schedule, gamma, ts)
    stem = cfg.stem()
    files.append(write_csv(csv_path(out_dir, stem), ["t", "energy"],
                           [ts, energies]))
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, schedule, gamma=gamma, lamb_shift=lamb_shift,
        columns={"t": "time", "energy": "decay-enveloped battery energy"})))
    return {"kind": cfg.kind, "label": stem, "gamma": gamma,
            "lamb_shift": lamb_shift}


def _run_dynamics(cfg, out_dir, files):
    params = resolve_system(cfg)
    env = resolve_environment(cfg)
    schedule = resolve_schedule(cfg)
    T = schedule.period
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 * T
    if cfg.route == "exact":
        sample_dt = (t_max / cfg.n_samples) if cfg.n_samples \
            else T / _SAMPLES_PER_PERIOD
        trace = propagate_exact(params, env, schedule, t_max=t_max,
                                sample_dt=sample_dt)
    elif cfg.route == "volterra":
        trace = solve_volterra(params, env, schedule, t_max=t_max,
                               dt=cfg.dt, kernel=cfg.kernel)
    else:
        trace = solve_volterra_pm(params, env, schedule, t_max=t_max,
                                  dt=cfg.dt, kernel=cfg.kernel)
    stem = cfg.stem()
    files.append(write_csv(csv_path(out_dir, stem), ["t", "energy"],
                           [trace.times, trace.energies]))
    solver = {k: v for k, v in trace.metadata.items()
              if isinstance(v, (int, float, str))}
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, schedule, solver=solver,
        columns={"t": "time", "energy": "battery energy (hbar = 1)"})))
    tail = trace.times >= t_max - T - 1e-9 * T
    return {"kind": cfg.kind, "label": stem, "route": cfg.route,
            "final_period_mean": float(np.mean(trace.energies[tail])),
            "final_period_peak": float(np.max(trace.energies[tail]))}


def _spectrum_rows(cfg: ExperimentConfig, kappa: float):
    """One sweep point: quasienergies, weights and FBS flags at ``kappa``."""
    params = resolve_system(cfg, kappa)
    env = resolve_environment(cfg)
    schedule = resolve_schedule(cfg, kappa)
    spec = compute_spectrum(params, env, schedule,
                            weight_threshold=cfg.weight_threshold,
                            gap_tolerance=cfg.gap_tolerance)
    flags = np.zeros(spec.dimension, dtype=int)
    flags[spec.fbs_indices] = 1
    point = {"kappa": kappa, "m_fbs": int(len(spec.fbs_indices)),
             "omega_T": spec.omega_T,
             "band_lo": spec.band.lo, "band_width": spec.band.width}
    if len(spec.fbs_indices) == 2:
        i, j = spec.fbs_indices
        point["delta_eps0"] = float(circular_distance(
            spec.quasienergies[i], spec.quasienergies[j], spec.omega_T))
    return spec.quasienergies, spec.system_weights, flags, point


def _run_kappa_sweep(cfg, out_dir, files):
    grid = sweep_grid_values(cfg)
    if not grid.size:
        raise ConfigError("empty sweep")
    kcol, icol, ecol, wcol, fcol, points = [], [], [], [], [], []
    for kappa in grid:
        eps, weights, flags, point = _spectrum_rows(cfg, float(kappa))
        d = eps.size
        kcol.append(np.full(d, kappa))
        icol.append(np.arange(d))
        ecol.append(eps)
        wcol.append(weights)
        fcol.append(flags)
        points.append(point)
    stem = cfg.stem()
    files.append(write_csv(
        csv_path(out_dir, stem),
        ["kappa", "index", "quasienergy", "system_weight", "is_fbs"],
        [np.concatenate(c) for c in (kcol, icol, ecol, wcol, fcol)]))
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, resolve_schedule(cfg), sweep={"kappa": grid.tolist()},
        columns={"kappa": "coupling", "index": "mode index",
                 "quasienergy": "folded quasienergy",
                 "system_weight": "battery+charger weight",
                 "is_fbs": "bound-state flag"})))
    return {"kind": cfg.kind, "label": stem, "points": points}


def _run_spectrum(cfg, out_dir, files):
    eps, weights, flags, point = _spectrum_rows(cfg, cfg.kappa)
    stem = cfg.stem()
    files.append(write_csv(
        csv_path(out_dir, stem),
        ["index", "quasienergy", "system_weight", "is_fbs"],
        [np.arange(eps.size), eps, weights, flags]))
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, resolve_schedule(cfg),
        columns={"index": "mode index", "quasienergy": "folded quasienergy",
                 "system_weight": "battery+charger weight",
                 "is_fbs": "bound-state flag"})))
    return {"kind": cfg.kind, "label": stem, **point}


def _bound_state_modes(cfg, params, env, schedule):
    spec = compute_spectrum(params, env, schedule,
                            weight_threshold=cfg.weight_threshold,
                            gap_tolerance=cfg.gap_tolerance)
    modes = fbs_floquet_modes(params, env, schedule, spec,
                              n_samples=cfg.n_offsets)
    return spec, modes


def _run_asymptotic(cfg, out_dir, files):
    params = resolve_system(cfg)
    env = resolve_environment(cfg)
    schedule = resolve_schedule(cfg)
    T = schedule.period
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 * T
    trace = propagate_exact(params, env, schedule, t_max=t_max,
                            sample_dt=T / _SAMPLES_PER_PERIOD)
    spec, modes = _bound_state_modes(cfg, params, env, schedule)
    decomp = decompose_energy_terms(modes, trace.times)
    m = len(modes)
    header = ["t", "energy_exact", "energy_asymptotic"]
    cols = [trace.times, trace.energies, decomp.total]
    for j in range(m):
        header.append(f"diag_{j + 1}")
        cols.append(decomp.elements[j])
    header.append("interference")
    cols.append(decomp.interference / params.omega_b)
    stem = cfg.stem()
    files.append(write_csv(csv_path(out_dir, stem), header, cols))
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, schedule, m_fbs=m,
        quasienergies=[mode.epsilon for mode in modes],
        coefficients_sq=[float(abs(c)**2) for c in decomp.coefficients],
        columns={"t": "time", "energy_exact": "propagated battery energy",
                 "energy_asymptotic": "bound-state-only battery energy",
                 "diag_j": "battery population of bound state j (dimensionless)",
                 "interference": "cross term / omega_b (dimensionless)"})))
    tail = trace.times >= t_max - min(20.0 * T, t_max) - 1e-9 * T
    diff = np.abs(trace.energies[tail] - decomp.total[tail])
    summary = {"kind": cfg.kind, "label": stem, "m_fbs": m,
               "tail_mean_abs_diff_over_omega0":
                   float(diff.mean() / params.omega_0)}
    if m == 2:
        summary["delta_eps0"] = float(circular_distance(
            modes[0].epsilon, modes[1].epsilon, spec.omega_T))
    return summary


def _run_perturbation(cfg, out_dir, files):
    env = resolve_environment(cfg)
    if None in (cfg.kappa_min, cfg.kappa_max, cfg.kappa_step):
        cfg = dataclasses.replace(cfg, kappa_min=5.0, kappa_max=15.0,
                                  kappa_step=0.5)
    grid = sweep_grid_values(cfg)
    if not grid.size:
        raise ConfigError("empty sweep")
    rows = {k: [] for k in ("kappa", "eps0", "eps2_plus", "eps2_minus",
                            "splitting_perturbative", "splitting_exact",
                            "splitting_main_sum", "splitting_large_kappa")}
    points = []
    for kappa in grid:
        kappa = float(kappa)
        params = resolve_system(cfg, kappa)
        schedule = resolve_schedule(cfg, kappa)
        res = second_order_corrections(params, env, schedule)
        eps, weights, flags, point = _spectrum_rows(cfg, kappa)
        exact = point.get("delta_eps0", math.nan)
        rows["kappa"].append(kappa)
        rows["eps0"].append(res.eps0)
        rows["eps2_plus"].append(res.eps2_plus)
        rows["eps2_minus"].append(res.eps2_minus)
        rows["splitting_perturbative"].append(res.splitting)
        rows["splitting_exact"].append(exact)
        rows["splitting_main_sum"].append(
            splitting_main_sum(params, env, schedule))
        rows["splitting_large_kappa"].append(
            splitting_large_coupling(env, kappa))
        entry = {"kappa": kappa, "m_fbs": point["m_fbs"],
                 "splitting_perturbative": res.splitting}
        if math.isfinite(exact):
            entry["relative_error"] = abs(res.splitting - exact) / exact
        points.append(entry)
    stem = cfg.stem()
    header = list(rows)
    files.append(write_csv(csv_path(out_dir, stem), header,
                           [np.asarray(rows[k]) for k in header]))
    # closed-form beating curve at the stiffest grid point
    k_top = float(grid[-1])
    schedule = resolve_schedule(cfg, k_top)
    T = schedule.period
    res = second_order_corrections(resolve_system(cfg, k_top), env, schedule)
    ts = np.linspace(0.0, 5.0 * T, 5 * cfg.n_offsets + 1)
    curve = cfg.omega_0 * asymptotic_energy_closed_form(
        res.splitting, k_top, schedule, ts)
    files.append(write_csv(csv_path(out_dir, stem + "-closed-form"),
                           ["t", "energy_closed_form"], [ts, curve]))
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, schedule, sweep={"kappa": grid.tolist()},
        f0_sq=float(abs(phase_fourier_coeff(k_top, schedule, 0))**2),
        columns={"kappa": "coupling",
                 "eps0": "shared zeroth-order quasienergy",
                 "eps2_plus/eps2_minus": "second-order corrections",
                 "splitting_*": "bound-state splitting by method",
                 "energy_closed_form": "analytic beating energy at "
                                       "kappa_max (absolute)"})))
    return {"kind": cfg.kind, "label": stem, "points": points}


def _run_nonresonant(cfg, out_dir, files):
    params = resolve_system(cfg)
    env = resolve_environment(cfg)
    schedule = resolve_schedule(cfg)
    T = schedule.period
    spec, modes = _bound_state_modes(cfg, params, env, schedule)
    m = len(modes)
    stem = cfg.stem()
    t_max = cfg.t_max if cfg.t_max is not None else 5.0 * T
    ts = np.arange(0.0, t_max + 1e-12, T / _SAMPLES_PER_PERIOD)
    decomp = decompose_energy_terms(modes, ts)

    battery_w = [float(abs(mode.phi0[0])**2) for mode in modes]
    charger_w = [float(abs(mode.phi0[1])**2) for mode in modes]
    c_sq = [float(abs(c)**2) for c in decomp.coefficients]
    files.append(write_csv(
        csv_path(out_dir, stem + "-modes"),
        ["index", "quasienergy", "weight_battery", "weight_charger",
         "c_initial_sq"],
        [np.arange(m), [mode.epsilon for mode in modes],
         battery_w, charger_w, c_sq]))

    header = ["component"] + [f"p_{j + 1}" for j in range(m)]
    cols = [np.arange(spec.dimension)]
    cols += [np.abs(mode.phi0)**2 for mode in modes]
    files.append(write_csv(csv_path(out_dir, stem + "-distribution"),
                           header, cols))

    header = ["t", "energy_asymptotic"]
    cols = [ts, decomp.total]
    for j in range(m):
        header.append(f"diag_{j + 1}")
        cols.append(decomp.elements[j])
    header.append("interference")
    cols.append(decomp.interference / params.omega_b)
    files.append(write_csv(csv_path(out_dir, stem + "-energy"), header, cols))

    zeroth = nonresonant_zeroth_order(params, schedule)
    files.append(write_metadata(meta_path(out_dir, stem), _resolved_meta(
        cfg, schedule, m_fbs=m,
        zeroth_order={"eps_battery": zeroth.eps_battery,
                      "eps_charger": zeroth.eps_charger,
                      "splitting": zeroth.splitting},
        columns={"index": "bound-state index",
                 "weight_battery/weight_charger": "|<b|phi>|^2, |<c|phi>|^2",
                 "c_initial_sq": "initial-state overlap |c_j|^2",
                 "p_j": "probability distribution of bound state j",
                 "diag_j": "battery population of bound state j",
                 "interference": "cross term / omega_b"})))
    summary = {"kind": cfg.kind, "label": stem, "m_fbs": m,
               "weight_battery": battery_w, "weight_charger": charger_w,
               "c_initial_sq": c_sq}
    n_per = _SAMPLES_PER_PERIOD
    if decomp.total.size > n_per:
        e0, e1 = decomp.total[:-n_per], decomp.total[n_per:]
        summary["periodicity_defect"] = float(
            np.max(np.abs(e1 - e0)) / max(np.max(decomp.total), 1e-300))
    return summary


_RUNNERS = {
    "ideal-cycle": _run_ideal_cycle,
    "markov": _run_markov,
    "dynamics": _run_dynamics,
    "kappa-sweep": _run_kappa_sweep,
    "spectrum": _run_spectrum,
    "asymptotic": _run_asymptotic,
    "perturbation": _run_perturbation,
    "nonresonant": _run_nonresonant,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str, jobs: int = 1):
    """Run one configured experiment; returns (files, summary fragment).

    Runs in one process.  ``jobs`` is accepted for existing callers and
    must be 1.
    """
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, got {jobs!r}")
    validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    files: list[str] = []
    summary = _RUNNERS[cfg.kind](cfg, out_dir, files)
    return files, summary


# ---------------------------------------------------------------------------
# presets: named configuration bundles reproducing the reference datasets

def _build_presets() -> dict[str, list[ExperimentConfig]]:
    half_swap_15 = 0.5 * math.pi / 15.0          # kappa = 15 in omega_b units
    store = 2.0 * math.pi / 10.0
    ideal_common = dict(n_side=1, tau_c=half_swap_15, tau_d=half_swap_15,
                        tau_s=store, kappa=15.0)
    t5 = 5.0 * (3.0 * 0.5 * math.pi / 15.0)      # five periods at kappa = 15
    return {
        "fig1b": [
            ExperimentConfig(kind="ideal-cycle", label="ideal-resonant",
                             omega_0=1.0, delta=0.0, **ideal_common),
            ExperimentConfig(kind="ideal-cycle", label="ideal-detuned",
                             omega_0=11.0, delta=10.0, **ideal_common),
            ExperimentConfig(kind="markov", label="markov",
                             omega_0=1.0, delta=0.0, gamma=0.5,
                             **ideal_common),
        ],
        "fig2a": [
            ExperimentConfig(kind="dynamics", label=f"dynamics-k{k:g}",
                             kappa=k) for k in (3.0, 4.5, 4.8)
        ],
        "fig2b": [ExperimentConfig(kind="kappa-sweep", label="sweep",
                                   kappa_min=3.0, kappa_max=6.0,
                                   kappa_step=0.05)],
        "fig3a": [ExperimentConfig(kind="asymptotic", label="trapped",
                                   kappa=4.5)],
        "fig3b": [ExperimentConfig(kind="asymptotic", label="oscillating",
                                   kappa=4.8)],
        "fig4a": [ExperimentConfig(kind="kappa-sweep", label="sweep",
                                   kappa_min=5.0, kappa_max=15.0,
                                   kappa_step=0.5)],
        "fig4b": [ExperimentConfig(kind="asymptotic", label="stabilized",
                                   kappa=15.0, t_max=t5)],
        "fig4c": [ExperimentConfig(kind="kappa-sweep", label="sweep",
                                   delta=0.5, kappa_min=5.0, kappa_max=15.0,
                                   kappa_step=0.5)],
        "fig4d": [ExperimentConfig(kind="asymptotic", label="reactivated",
                                   kappa=15.0, delta=0.5, t_max=t5)],
        "sm-s1": [ExperimentConfig(kind="perturbation", label="perturbation",
                                   kappa=15.0, kappa_min=5.0, kappa_max=15.0,
                                   kappa_step=0.5)],
        "sm-s2": [ExperimentConfig(kind="nonresonant", label="nonresonant",
                                   kappa=15.0, delta=0.5, t_max=t5)],
    }


PRESETS = _build_presets()

PRESET_NOTES = {
    "fig1b": "lossless and decay-enveloped cycles, kappa = 15 omega_b",
    "fig2a": "exact 100T energy traces in the three coupling regimes",
    "fig2b": "quasienergy spectrum sweep, kappa in [3, 6]",
    "fig3a": "exact vs bound-state energy, one bound state (kappa = 4.5)",
    "fig3b": "exact vs bound-state energy, two bound states (kappa = 4.8)",
    "fig4a": "spectrum sweep with bound-state splitting, kappa in [5, 15]",
    "fig4b": "energy decomposition at kappa = 15 on resonance",
    "fig4c": "detuned spectrum sweep (delta = 0.5), kappa in [5, 15]",
    "fig4d": "energy decomposition at kappa = 15, delta = 0.5",
    "sm-s1": "perturbative vs exact bound-state splitting",
    "sm-s2": "detuned bound-state localization and overlaps",
}
