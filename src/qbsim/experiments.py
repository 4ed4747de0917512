"""Experiment configurations, presets, and runners behind the CLI.

A run is described by a flat key=value configuration (strictly parsed), is
fully deterministic, and emits CSV datasets with one JSON metadata sidecar
plus a machine-readable summary.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import (_build_grid, check_memory, default_time_step,
                       propagate_exact, solve_volterra, solve_volterra_pm)
from .environment import LatticeEnvironment
from .errors import ConfigError, MemoryCapError
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
    _check_protocol,
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
# the kinds that build one-period spectra
_SPECTRUM_KINDS = ("kappa-sweep", "spectrum", "asymptotic", "perturbation",
                   "nonresonant")

# samples per drive period used by the trace-producing kinds
_SAMPLES_PER_PERIOD = 24
_DEFAULT_PERIODS = {"ideal-cycle": 3.0, "markov": 3.0,  # t_max / T if unset
                    "dynamics": 100.0, "asymptotic": 100.0, "nonresonant": 5.0}


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
    if not 0 < cfg.weight_threshold <= 1:
        raise ConfigError("config key weight_threshold: must lie in (0, 1]")
    if cfg.gap_tolerance is not None and cfg.gap_tolerance < 0:
        raise ConfigError("config key gap_tolerance: must be nonnegative")
    if cfg.kind in ("markov", "perturbation") and cfg.delta != 0.0:
        raise ConfigError(f"kind {cfg.kind}: its formulas hold only at "
                          "delta = 0")
    if cfg.kind == "dynamics" and cfg.route == "volterra-pm" \
            and cfg.delta != 0.0:
        raise ConfigError("route volterra-pm: the +/- decomposition "
                          "requires delta = 0")
    sweep_keys = (cfg.kappa_min, cfg.kappa_max, cfg.kappa_step)
    if cfg.kind in ("kappa-sweep",) and any(v is None for v in sweep_keys):
        raise ConfigError("kappa-sweep requires kappa_min, kappa_max, kappa_step")
    if cfg.kappa_step is not None and cfg.kappa_step <= 0:
        raise ConfigError("config key kappa_step: must be positive")
    if None not in sweep_keys and not sweep_grid_values(cfg).size:
        raise ConfigError("empty sweep")
    if cfg.kind in ("asymptotic", "nonresonant") \
            and cfg.n_offsets % _SAMPLES_PER_PERIOD:
        raise ConfigError(
            f"config key n_offsets: must be a multiple of {_SAMPLES_PER_PERIOD}")
    schedule = resolve_schedule(cfg)
    advice = ""
    try:  # the solvers' own protocol checks, before any work is done
        if cfg.kind in ("dynamics", "asymptotic"):
            advice = "; " + _step_advice(cfg)
            _, n_steps, _ = _build_grid(schedule, schedule.period, _trace_step(
                cfg, resolve_system(cfg), resolve_environment(cfg), schedule))
            # the trace samples must land on the modes' T/n_offsets offsets
            if cfg.kind == "asymptotic" and n_steps != _SAMPLES_PER_PERIOD:
                raise ValueError(
                    f"the trace step T/{_SAMPLES_PER_PERIOD} snaps to "
                    f"T/{n_steps} on the drive segments, so the trace is not "
                    "aligned with the mode samples")
        elif cfg.kind == "nonresonant":
            _check_protocol(cfg.kappa, schedule)
        elif cfg.kind == "perturbation":
            for kappa in sweep_grid_values(_default_sweep(cfg)):
                _check_protocol(float(kappa), resolve_schedule(cfg, kappa))
    except ValueError as exc:
        raise ConfigError(f"kind {cfg.kind}: {exc}{advice}") from None
    # the lattice kinds check the memory estimate of what they build, before
    # any of it is built; a spectrum needs at least as much as propagation
    env = resolve_environment(cfg)
    try:
        if cfg.kind in _SPECTRUM_KINDS:
            check_memory(env, cfg.delta)
        elif cfg.kind == "dynamics" and cfg.route == "exact":
            check_memory(env)
    except MemoryCapError as exc:
        raise ConfigError(f"kind {cfg.kind}: {exc}; lower n_side") from None
    if cfg.kind == "markov" and cfg.gamma is None:
        # the rates the runner computes, which the sidecar must hold as
        # finite numbers
        try:
            rates = markov_rates(env, cfg.omega_0)
        except ValueError as exc:
            raise ConfigError(f"kind markov: {exc}; set gamma") from None
        if not all(map(math.isfinite, (rates.gamma, rates.lamb_shift))):
            raise ConfigError(
                f"kind markov: the Markovian rates at omega_0 = {cfg.omega_0} "
                f"are not finite (gamma = {rates.gamma}, lamb_shift = "
                f"{rates.lamb_shift}): omega_0 lies on a band edge; set gamma")


def sweep_grid_values(cfg: ExperimentConfig) -> np.ndarray:
    if None in (cfg.kappa_min, cfg.kappa_max, cfg.kappa_step):
        raise ConfigError("sweep requires kappa_min, kappa_max, kappa_step")
    n = math.floor((cfg.kappa_max - cfg.kappa_min) / cfg.kappa_step + 1e-9) + 1
    return cfg.kappa_min + cfg.kappa_step * np.arange(max(n, 0))


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


def _schedule_meta(schedule: ProtocolSchedule) -> dict:
    return {**dataclasses.asdict(schedule), "period": schedule.period,
            "omega_T": schedule.omega_T}


def _default_sweep(cfg: ExperimentConfig) -> ExperimentConfig:
    """A perturbation run without a full sweep grid covers kappa = 5..15."""
    if None in (cfg.kappa_min, cfg.kappa_max, cfg.kappa_step):
        return dataclasses.replace(cfg, kappa_min=5.0, kappa_max=15.0,
                                   kappa_step=0.5)
    return cfg


def _t_max(cfg: ExperimentConfig, schedule: ProtocolSchedule) -> float:
    return cfg.t_max if cfg.t_max is not None \
        else _DEFAULT_PERIODS[cfg.kind] * schedule.period


def _step_advice(cfg) -> str:
    """What sets the trace step of ``_trace_step``, for alignment errors."""
    if cfg.kind == "dynamics" and cfg.route != "exact":
        return "set dt to a step that divides every segment"
    if cfg.kind == "dynamics":
        return ("set t_max and n_samples so that t_max/n_samples divides "
                "every segment")
    return f"segments must be multiples of T/{_SAMPLES_PER_PERIOD}"


def _trace_step(cfg, params, env, schedule) -> float:
    """Trace step of the runners and of validation: T/24, t_max/n_samples
    (``dynamics``), or ``dt`` or the default step (memory-kernel routes)."""
    if cfg.kind == "dynamics" and cfg.route != "exact":
        return cfg.dt if cfg.dt is not None \
            else default_time_step(params, env, schedule)
    if cfg.kind == "dynamics" and cfg.n_samples:
        return _t_max(cfg, schedule) / cfg.n_samples
    return schedule.period / _SAMPLES_PER_PERIOD


# ---------------------------------------------------------------------------
# runners, one per kind: each gets the config and the params, env and
# schedule resolved at cfg.kappa, and returns (tables, sidecar entries,
# summary fragment); a table is (stem suffix, header, columns).
# run_experiment writes the tables in order as <stem><suffix>.csv, then one
# <stem>.meta.json: config, resolved, version, the runner's entries (which
# may replace the first two) and columns; the summary starts kind, label.

_SPECTRUM_HEADER = ["index", "quasienergy", "system_weight", "is_fbs"]
_TRACE_COLUMNS = {"t": "time", "energy": "battery energy (hbar = 1)"}
_SPECTRUM_COLUMNS = {"index": "mode index",
                     "quasienergy": "folded quasienergy",
                     "system_weight": "battery+charger weight",
                     "is_fbs": "bound-state flag"}
# the sidecar's "columns" entry of each kind
_COLUMNS = {
    "ideal-cycle": _TRACE_COLUMNS,
    "markov": {"t": "time", "energy": "decay-enveloped battery energy"},
    "dynamics": _TRACE_COLUMNS,
    "kappa-sweep": {"kappa": "coupling", **_SPECTRUM_COLUMNS},
    "spectrum": _SPECTRUM_COLUMNS,
    "asymptotic": {
        "t": "time", "energy_exact": "propagated battery energy",
        "energy_asymptotic": "bound-state-only battery energy",
        "diag_j": "battery population of bound state j (dimensionless)",
        "interference": "cross term / omega_b (dimensionless)"},
    "perturbation": {
        "kappa": "coupling", "eps0": "shared zeroth-order quasienergy",
        "eps2_plus/eps2_minus": "second-order corrections",
        "splitting_*": "bound-state splitting by method",
        "energy_closed_form":
            "analytic beating energy at kappa_max (absolute)"},
    "nonresonant": {
        "index": "bound-state index",
        "weight_battery/weight_charger": "|<b|phi>|^2, |<c|phi>|^2",
        "c_initial_sq": "initial-state overlap |c_j|^2",
        "p_j": "probability distribution of bound state j",
        "diag_j": "battery population of bound state j",
        "interference": "cross term / omega_b"},
}


def _run_ideal_cycle(cfg, params, env, schedule):
    ts = np.linspace(0.0, _t_max(cfg, schedule), (cfg.n_samples or 720) + 1)
    return ([("", ["t", "energy"], [ts, ideal_energy(params, schedule, ts)])],
            {}, {"peak_energy": ideal_peak_energy(params),
                 "period": schedule.period})


def _run_markov(cfg, params, env, schedule):
    found = {"gamma": cfg.gamma, "lamb_shift": None}
    if cfg.gamma is None:
        rates = markov_rates(env, params.omega_0)
        found = {"gamma": rates.gamma, "lamb_shift": rates.lamb_shift}
    ts = np.linspace(0.0, _t_max(cfg, schedule), (cfg.n_samples or 720) + 1)
    energies = markov_energy(params, schedule, found["gamma"], ts)
    return [("", ["t", "energy"], [ts, energies])], found, found


def _run_dynamics(cfg, params, env, schedule):
    T = schedule.period
    t_max = _t_max(cfg, schedule)
    step = _trace_step(cfg, params, env, schedule)
    if cfg.route == "exact":
        trace = propagate_exact(params, env, schedule, t_max=t_max,
                                sample_dt=step)
    else:
        solve = solve_volterra if cfg.route == "volterra" \
            else solve_volterra_pm
        trace = solve(params, env, schedule, t_max=t_max, dt=step,
                      kernel=cfg.kernel)
    solver = {k: v for k, v in trace.metadata.items()
              if isinstance(v, (int, float, str))}
    tail = trace.times >= t_max - T - 1e-9 * T
    return ([("", ["t", "energy"], [trace.times, trace.energies])],
            {"solver": solver},
            {"route": cfg.route,
             "final_period_mean": float(np.mean(trace.energies[tail])),
             "final_period_peak": float(np.max(trace.energies[tail]))})


def _spectrum_rows(cfg, env, kappa):
    """One sweep point: the spectrum columns and summary point at ``kappa``."""
    params = resolve_system(cfg, kappa)
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
    return [np.arange(spec.dimension), spec.quasienergies,
            spec.system_weights, flags], point


def _run_kappa_sweep(cfg, params, env, schedule):
    grid = sweep_grid_values(cfg)
    blocks, points = [], []
    for kappa in grid:
        cols, point = _spectrum_rows(cfg, env, float(kappa))
        blocks.append([np.full(cols[0].size, kappa)] + cols)
        points.append(point)
    return ([("", ["kappa"] + _SPECTRUM_HEADER,
              [np.concatenate(c) for c in zip(*blocks)])],
            {"sweep": {"kappa": grid.tolist()}}, {"points": points})


def _run_spectrum(cfg, params, env, schedule):
    cols, point = _spectrum_rows(cfg, env, cfg.kappa)
    return [("", _SPECTRUM_HEADER, cols)], {}, point


def _bound_state_energy(cfg, params, env, schedule, ts):
    """Bound states, their energy terms over ``ts``, diag_j/interference."""
    spec = compute_spectrum(params, env, schedule,
                            weight_threshold=cfg.weight_threshold,
                            gap_tolerance=cfg.gap_tolerance)
    modes = fbs_floquet_modes(params, env, schedule, spec,
                              n_samples=cfg.n_offsets)
    decomp = decompose_energy_terms(modes, ts)
    header = [f"diag_{j + 1}" for j in range(len(modes))] + ["interference"]
    cols = list(decomp.elements) + [decomp.interference / params.omega_b]
    return spec, modes, decomp, header, cols


def _run_asymptotic(cfg, params, env, schedule):
    T = schedule.period
    t_max = _t_max(cfg, schedule)
    trace = propagate_exact(params, env, schedule, t_max=t_max,
                            sample_dt=_trace_step(cfg, params, env, schedule))
    spec, modes, decomp, header, cols = _bound_state_energy(
        cfg, params, env, schedule, trace.times)
    m = len(modes)
    tail = trace.times >= t_max - min(20.0 * T, t_max) - 1e-9 * T
    diff = np.abs(trace.energies[tail] - decomp.total[tail])
    summary = {"m_fbs": m, "tail_mean_abs_diff_over_omega0":
               float(diff.mean() / params.omega_0)}
    if m == 2:
        summary["delta_eps0"] = float(circular_distance(
            modes[0].epsilon, modes[1].epsilon, spec.omega_T))
    return ([("", ["t", "energy_exact", "energy_asymptotic"] + header,
              [trace.times, trace.energies, decomp.total] + cols)],
            {"m_fbs": m,
             "quasienergies": [mode.epsilon for mode in modes],
             "coefficients_sq": [float(abs(c)**2)
                                 for c in decomp.coefficients]},
            summary)


def _run_perturbation(cfg, params, env, schedule):
    cfg = _default_sweep(cfg)
    grid = sweep_grid_values(cfg)
    header = ["kappa", "eps0", "eps2_plus", "eps2_minus",
              "splitting_perturbative", "splitting_exact",
              "splitting_main_sum", "splitting_large_kappa"]
    rows, points = [], []
    for kappa in grid:
        kappa = float(kappa)
        params = resolve_system(cfg, kappa)
        schedule = resolve_schedule(cfg, kappa)
        res = second_order_corrections(params, env, schedule)
        _, point = _spectrum_rows(cfg, env, kappa)
        exact = point.get("delta_eps0", math.nan)
        rows.append((kappa, res.eps0, res.eps2_plus, res.eps2_minus,
                     res.splitting, exact,
                     splitting_main_sum(params, env, schedule),
                     splitting_large_coupling(env, kappa)))
        entry = {"kappa": kappa, "m_fbs": point["m_fbs"],
                 "splitting_perturbative": res.splitting}
        if math.isfinite(exact):
            entry["relative_error"] = abs(res.splitting - exact) / exact
        points.append(entry)
    # closed-form beating curve at the stiffest grid point, the last one
    ts = np.linspace(0.0, 5.0 * schedule.period, 5 * cfg.n_offsets + 1)
    curve = cfg.omega_0 * asymptotic_energy_closed_form(
        res.splitting, kappa, schedule, ts)
    return ([("", header, [np.asarray(c) for c in zip(*rows)]),
             ("-closed-form", ["t", "energy_closed_form"], [ts, curve])],
            {"config": config_to_dict(cfg),
             "resolved": _schedule_meta(schedule),
             "sweep": {"kappa": grid.tolist()},
             "f0_sq": float(abs(phase_fourier_coeff(kappa, schedule, 0))**2)},
            {"points": points})


def _run_nonresonant(cfg, params, env, schedule):
    step = _trace_step(cfg, params, env, schedule)
    ts = np.arange(0.0, _t_max(cfg, schedule) + 1e-12, step)
    spec, modes, decomp, header, cols = _bound_state_energy(
        cfg, params, env, schedule, ts)
    m = len(modes)
    zeroth = nonresonant_zeroth_order(params, schedule)
    weights = {
        "weight_battery": [float(abs(mode.phi0[0])**2) for mode in modes],
        "weight_charger": [float(abs(mode.phi0[1])**2) for mode in modes],
        "c_initial_sq": [float(abs(c)**2) for c in decomp.coefficients]}
    tables = [
        ("-modes", ["index", "quasienergy"] + list(weights),
         [np.arange(m), [mode.epsilon for mode in modes]]
         + list(weights.values())),
        ("-distribution", ["component"] + [f"p_{j + 1}" for j in range(m)],
         [np.arange(spec.dimension)]
         + [np.abs(spec.mode(j))**2 for j in spec.fbs_indices]),
        ("-energy", ["t", "energy_asymptotic"] + header,
         [ts, decomp.total] + cols),
    ]
    summary = {"m_fbs": m, **weights}
    n_per = _SAMPLES_PER_PERIOD
    if decomp.total.size > n_per:
        e0, e1 = decomp.total[:-n_per], decomp.total[n_per:]
        summary["periodicity_defect"] = float(
            np.max(np.abs(e1 - e0)) / max(np.max(decomp.total), 1e-300))
    return (tables,
            {"m_fbs": m,
             "zeroth_order": {"eps_battery": zeroth.eps_battery,
                              "eps_charger": zeroth.eps_charger,
                              "splitting": zeroth.splitting}},
            summary)


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
    schedule = resolve_schedule(cfg)
    tables, entries, fragment = _RUNNERS[cfg.kind](
        cfg, resolve_system(cfg), resolve_environment(cfg), schedule)
    stem = cfg.label or cfg.kind
    files = [write_csv(csv_path(out_dir, stem + suffix), header, columns)
             for suffix, header, columns in tables]
    meta = {"config": config_to_dict(cfg), "resolved": _schedule_meta(schedule),
            "version": __version__, **entries, "columns": _COLUMNS[cfg.kind]}
    files.append(write_metadata(meta_path(out_dir, stem), meta))
    return files, {"kind": cfg.kind, "label": stem, **fragment}


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
