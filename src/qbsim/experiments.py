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
from .dynamics import (MEMORY_CAP, SegmentPropagators, _build_grid,
                       _whole_step, check_memory, default_time_step,
                       propagate_exact, solve_volterra)
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
)

ROUTES = ("exact", "volterra", "volterra-pm")
KERNELS = ("discrete", "continuum")
# samples per drive period of the bound-state kinds, and dt unset, exact runs
_SAMPLES_PER_PERIOD = 24
# ideal-cycle and markov steps per period if dt is unset: fig1b's T/240
_CYCLE_STEPS = 240
# bytes per output row, charged against MEMORY_CAP (_check_rows)
_BYTES_PER_ROW = 1000
_DEFAULT_PERIODS = {"ideal-cycle": 3.0, "markov": 3.0,  # t_max / T if unset
                    "dynamics": 100.0, "asymptotic": 100.0, "nonresonant": 5.0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-typed description of one run.

    Unset optional fields resolve to kind-dependent defaults at run time.
    A kind reads only some of the run keys (``_KIND_STEPS``).
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


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_STR_KEYS = ("kind", "label", "route", "kernel")
_INT_KEYS = ("n_side",)
_FLOAT_KEYS = tuple(k for k in _FIELDS if k not in _STR_KEYS + _INT_KEYS)
_POSITIVE_KEYS = ("kappa", "n_side", "varpi", "q", "tau_c", "tau_d", "dt",
                  "t_max", "kappa_step")
_NONNEGATIVE_KEYS = ("g", "tau_s", "gamma", "gap_tolerance")
_SWEEP_KEYS = ("kappa_min", "kappa_max", "kappa_step")
_SPECTRUM_KEYS = ("weight_threshold", "gap_tolerance")
# the keys that only some kinds read (the third entry of _KIND_STEPS)
_RUN_KEYS = ("t_max", "dt", "route", "kernel", "gamma", *_SWEEP_KEYS,
             *_SPECTRUM_KEYS)


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
    """key=value strings (CLI --set) into a typed override mapping; a
    repeated key is a ConfigError."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"duplicate override key: {key}")
        out[key] = _coerce_value(key, raw)
    return out


def parse_config_text(text: str) -> ExperimentConfig:
    """Strict key=value configuration (``#`` comments, blank lines
    allowed).  Parses only: ``validate_config`` checks the values."""
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
    return ExperimentConfig(**values)


def validate_config(cfg: ExperimentConfig) -> "_Plan":
    """Check the scalar keys and that the kind reads every run key set
    away from its default, then make the kind's plan (``_KIND_STEPS``),
    the runner's own dry run: every rule a run checks before its work is
    checked here.  Returns the plan, which ``run_plan`` runs."""
    for key, allowed in (("kind", KINDS), ("route", ROUTES),
                         ("kernel", KERNELS)):
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"config key {key}: {getattr(cfg, key)!r} is "
                              f"not one of {allowed}")
    reads = _KIND_STEPS[cfg.kind][2]
    for key in _RUN_KEYS:  # kernel is read only by the memory routes
        read = key in reads and not (key == "kernel" and cfg.route == "exact")
        if not read and getattr(cfg, key) != _FIELDS[key].default:
            where = f" on route {cfg.route}" if key == "kernel" else ""
            raise ConfigError(f"config key {key}: kind {cfg.kind} does not "
                              f"read it{where}; leave it unset")
    for key in _FLOAT_KEYS + _INT_KEYS:
        v = getattr(cfg, key)
        if v is None:
            continue
        if not math.isfinite(v):
            raise ConfigError(f"config key {key}: must be finite, got {v}")
        if key in _POSITIVE_KEYS and v <= 0:
            raise ConfigError(f"config key {key}: must be positive")
        if key in _NONNEGATIVE_KEYS and v < 0:
            raise ConfigError(f"config key {key}: must be nonnegative")
    if cfg.label in (".", "..") or os.path.basename(cfg.label) != cfg.label:
        raise ConfigError(f"config key label: {cfg.label!r} is not a bare "
                          "file name; outputs are written into the output "
                          "directory itself")
    if cfg.omega_0 <= abs(cfg.delta):
        raise ConfigError("config keys omega_0, delta: omega_0 must exceed "
                          "|delta| so both level splittings are positive")
    if not 0 < cfg.weight_threshold <= 1:
        raise ConfigError("config key weight_threshold: must lie in (0, 1]")
    try:
        return _KIND_STEPS[cfg.kind][0](cfg)
    except MemoryCapError as exc:
        raise ConfigError(f"kind {cfg.kind}: {exc}; lower n_side") from None
    except ValueError as exc:
        raise ConfigError(f"kind {cfg.kind}: {exc}") from None


def _sweep_steps(cfg: ExperimentConfig) -> float:
    """(kappa_max - kappa_min) / kappa_step: the grid has its floor + 1
    points."""
    missing = [k for k in _SWEEP_KEYS if getattr(cfg, k) is None]
    if missing:
        raise ConfigError(f"kind {cfg.kind} needs its sweep grid: set "
                          f"{', '.join(missing)}")
    return (cfg.kappa_max - cfg.kappa_min) / cfg.kappa_step


def sweep_grid_values(cfg: ExperimentConfig) -> np.ndarray:
    n = math.floor(_sweep_steps(cfg) + 1e-9) + 1
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


# ---------------------------------------------------------------------------
# plans: everything a kind's runner uses, resolved from the config with no
# lattice linear algebra.  Each kind-specific rule lives in its kind's plan
# and raises ValueError, MemoryCapError or ConfigError there, so validation
# and the run apply it alike.

@dataclass(frozen=True)
class _Plan:
    cfg: ExperimentConfig       # as loaded
    params: SystemParams        # params, env and schedule at cfg.kappa
    env: LatticeEnvironment
    schedule: ProtocolSchedule
    t_max: float | None         # trace horizon, of the kinds that have one
    step: float | None = None   # trace step: whole steps to t_max
    times: np.ndarray | None = None  # trace sample times, 0 to t_max
    points: tuple = ()          # (kappa, params, schedule) per sweep point
    rates: dict | None = None   # markov gamma and lamb_shift


def _resolve(cfg: ExperimentConfig, **fields) -> _Plan:
    """The plan of a kind with no rules of its own; every plan starts here."""
    schedule = resolve_schedule(cfg)
    periods = _DEFAULT_PERIODS.get(cfg.kind)
    t_max = cfg.t_max if cfg.t_max is not None or periods is None \
        else periods * schedule.period
    return _Plan(cfg, resolve_system(cfg), resolve_environment(cfg),
                 schedule, t_max, **fields)


def _check_rows(rows: float, key: str) -> None:
    """ConfigError naming ``key`` if ``rows`` output rows, counted as a
    float before anything is allocated, exceed MEMORY_CAP at
    _BYTES_PER_ROW each.  A row is held as floats, formatted cells and a
    CSV line until its file is written: measured tracemalloc peaks at 1e5
    rows are 251 bytes a row for the two-column traces, 372 for
    kappa-sweep and 652 for asymptotic with two bound states."""
    required = rows * _BYTES_PER_ROW
    if required > MEMORY_CAP:
        raise ConfigError(f"config key {key}: {rows:.3g} output rows need "
                          f"an estimated {required / 1e9:.3g} GB, over the "
                          f"cap of {MEMORY_CAP / 1e9:.3g} GB")


def _check_grid(plan, default, source):
    """``plan`` with its trace step, dt or unset ``default(plan)``, and
    the times of ``_build_grid``, after ``_check_rows`` on its rows (or one
    period's steps if more).  ``source`` names the default in errors."""
    dt = plan.cfg.dt
    step, key, source = ((default(plan), "t_max", source) if dt is None
                         else (dt, "dt", "dt"))
    _check_rows(max(plan.t_max, plan.schedule.period) / step + 1, key)
    try:
        h, n_steps, _ = _build_grid(plan.schedule, plan.t_max, step)
    except ValueError as exc:
        raise ValueError(f"{exc}; the step is {source}") from None
    return dataclasses.replace(plan, step=step,
                               times=np.arange(n_steps + 1) * h)


def _sweep_points(cfg, rows_per_point):
    """(kappa, params, schedule) at every sweep grid point."""
    _check_rows((_sweep_steps(cfg) + 1) * rows_per_point, "kappa_step")
    grid = sweep_grid_values(cfg).tolist()
    if not grid:
        raise ConfigError("empty sweep")
    if grid[0] <= 0:
        raise ConfigError(f"config key kappa_min: every sweep coupling must "
                          f"be positive, the grid starts at {grid[0]:g}")
    return tuple((k, resolve_system(cfg, k), resolve_schedule(cfg, k))
                 for k in grid)


def _plan_cycle(cfg):
    """ideal-cycle, and markov's start: dt unset is T/240 in whole steps."""
    return _check_grid(_resolve(cfg), lambda p: _whole_step(
        p.schedule, p.schedule.period / _CYCLE_STEPS),
        f"T/{_CYCLE_STEPS} in whole steps; set dt")


def _plan_markov(cfg):
    if cfg.delta != 0.0:
        raise ValueError("its formulas hold only at delta = 0")
    plan = _plan_cycle(cfg)
    rates = {"gamma": cfg.gamma, "lamb_shift": None}
    if cfg.gamma is None:
        # the sidecar must hold them as finite numbers
        try:
            rates = dataclasses.asdict(markov_rates(plan.env, cfg.omega_0))
            if not all(map(math.isfinite, rates.values())):
                raise ValueError(
                    f"the Markovian rates at omega_0 = {cfg.omega_0} are not "
                    f"finite ({rates}): omega_0 lies on a band edge")
        except ValueError as exc:
            raise ValueError(f"{exc}; set gamma") from None
    return dataclasses.replace(plan, rates=rates)


def _plan_dynamics(cfg):
    """dt steps every route; unset, T/24 on the exact route and the
    solver's default on the memory routes."""
    if cfg.route != "exact":  # the memory routes build no propagators
        return _check_grid(_resolve(cfg), lambda p: default_time_step(
            p.params, p.env, p.schedule), "the solver's default; set dt")
    n = _SAMPLES_PER_PERIOD
    plan = _check_grid(_resolve(cfg), lambda p: p.schedule.period / n,
                       f"T/{n}; set dt")
    check_memory(plan.env, cfg.delta)
    return plan


def _plan_spectrum(cfg):
    """kappa-sweep at each grid point, d = 2 + 2 n_side^2 rows each;
    spectrum at cfg.kappa."""
    plan = _resolve(cfg)
    check_memory(plan.env, cfg.delta, spectrum=True)
    if cfg.kind != "kappa-sweep":
        return plan
    return dataclasses.replace(
        plan, points=_sweep_points(cfg, 2 + 2 * cfg.n_side**2))


def _plan_bound_states(cfg):
    """asymptotic and nonresonant: a T/24 trace, the modes on its grid."""
    n = _SAMPLES_PER_PERIOD
    if cfg.kind == "nonresonant":  # the zeroth-order modes' protocol
        _check_protocol(cfg.kappa, resolve_schedule(cfg))
    plan = _check_grid(_resolve(cfg), lambda p: p.schedule.period / n,
                       f"T/{n}: segments and t_max must be multiples of T/{n}")
    check_memory(plan.env, cfg.delta, spectrum=True)
    return plan


def _plan_perturbation(cfg):
    if cfg.delta != 0.0:
        raise ValueError("its formulas hold only at delta = 0")
    plan = _resolve(cfg, points=_sweep_points(cfg, 1))
    for kappa, _, schedule in plan.points:
        _check_protocol(kappa, schedule)
    check_memory(plan.env, cfg.delta, spectrum=True)
    return plan


# ---------------------------------------------------------------------------
# runners, one per kind: each takes the kind's plan and returns (tables,
# sidecar entries, summary fragment); a table is (stem suffix, header,
# columns).  run_plan writes the tables in order as
# <stem><suffix>.csv, then one <stem>.meta.json: config, resolved, version,
# the runner's entries (which may replace resolved) and columns; the
# summary starts kind, label.

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
            "analytic beating energy at the last grid point (absolute)"},
    "nonresonant": {
        "index": "bound-state index",
        "weight_battery/weight_charger": "|<b|phi>|^2, |<c|phi>|^2",
        "c_initial_sq": "initial-state overlap |c_j|^2",
        "component": "0 battery, 1 charger, then the battery-bath and "
                     "charger-bath frequency shells",
        "multiplicity": "lattice modes in the component (1, 1, then m_s)",
        "p_j": "probability of each one of the component's modes in bound "
               "state j",
        "diag_j": "battery population of bound state j",
        "interference": "cross term / omega_b"},
}


def _run_ideal_cycle(plan):
    ts = plan.times
    return ([("", ["t", "energy"],
              [ts, ideal_energy(plan.params, plan.schedule, ts)])],
            {}, {"peak_energy": ideal_peak_energy(plan.params),
                 "period": plan.schedule.period})


def _run_markov(plan):
    ts, rates = plan.times, plan.rates
    energies = markov_energy(plan.params, plan.schedule, rates["gamma"], ts)
    return [("", ["t", "energy"], [ts, energies])], rates, rates


def _run_dynamics(plan):
    cfg, T = plan.cfg, plan.schedule.period
    args = (plan.params, plan.env, plan.schedule)
    if cfg.route == "exact":
        trace = propagate_exact(*args, t_max=plan.t_max, sample_dt=plan.step)
    else:
        # volterra-pm is the march in the frame rotating at omega_0
        trace = solve_volterra(*args, t_max=plan.t_max, dt=plan.step,
                               kernel=cfg.kernel,
                               rotating=cfg.route == "volterra-pm")
    solver = {**trace.metadata, "route": cfg.route}
    tail = trace.times >= plan.t_max - T - 1e-9 * T
    return ([("", ["t", "energy"], [trace.times, trace.energies])],
            {"solver": solver},
            {"route": cfg.route,
             "final_period_mean": float(np.mean(trace.energies[tail])),
             "final_period_peak": float(np.max(trace.energies[tail]))})


def _spectrum_rows(cfg, env, kappa, params, schedule):
    """One sweep point: the spectrum columns and summary point at ``kappa``."""
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


def _run_kappa_sweep(plan):
    blocks, points = [], []
    for sweep_point in plan.points:
        cols, point = _spectrum_rows(plan.cfg, plan.env, *sweep_point)
        blocks.append([np.full(cols[0].size, sweep_point[0])] + cols)
        points.append(point)
    return ([("", ["kappa"] + _SPECTRUM_HEADER,
              [np.concatenate(c) for c in zip(*blocks)])],
            {"resolved": [_schedule_meta(s) for _, _, s in plan.points],
             "sweep": {"kappa": [k for k, _, _ in plan.points]}},
            {"points": points})


def _run_spectrum(plan):
    cols, point = _spectrum_rows(plan.cfg, plan.env, plan.cfg.kappa,
                                 plan.params, plan.schedule)
    return [("", _SPECTRUM_HEADER, cols)], {}, point


def _bound_state_energy(plan, ts):
    """Bound states, their energy terms over ``ts``, diag_j/interference;
    the spectrum and its modes share one eigensystem."""
    cfg, params, env, schedule = plan.cfg, plan.params, plan.env, plan.schedule
    props = SegmentPropagators(params, env)
    spec = compute_spectrum(params, env, schedule,
                            weight_threshold=cfg.weight_threshold,
                            gap_tolerance=cfg.gap_tolerance, props=props)
    modes = fbs_floquet_modes(params, env, schedule, spec,
                              n_samples=_SAMPLES_PER_PERIOD, props=props)
    decomp = decompose_energy_terms(modes, ts)
    header = [f"diag_{j + 1}" for j in range(len(modes))] + ["interference"]
    cols = list(decomp.elements) + [decomp.interference / params.omega_b]
    return spec, modes, decomp, header, cols


def _run_asymptotic(plan):
    T, t_max, ts = plan.schedule.period, plan.t_max, plan.times
    trace = propagate_exact(plan.params, plan.env, plan.schedule, t_max=t_max,
                            sample_dt=plan.step)
    spec, modes, decomp, header, cols = _bound_state_energy(plan, ts)
    m = len(modes)
    tail = ts >= t_max - min(20.0 * T, t_max) - 1e-9 * T
    diff = np.abs(trace.energies[tail] - decomp.total[tail])
    summary = {"m_fbs": m, "tail_mean_abs_diff_over_omega0":
               float(diff.mean() / plan.params.omega_0)}
    if m == 2:
        summary["delta_eps0"] = float(circular_distance(
            modes[0].epsilon, modes[1].epsilon, spec.omega_T))
    return ([("", ["t", "energy_exact", "energy_asymptotic"] + header,
              [ts, trace.energies, decomp.total] + cols)],
            {"m_fbs": m,
             "quasienergies": [mode.epsilon for mode in modes],
             "coefficients_sq": [float(abs(c)**2)
                                 for c in decomp.coefficients]},
            summary)


def _run_perturbation(plan):
    cfg, env = plan.cfg, plan.env
    header = ["kappa", "eps0", "eps2_plus", "eps2_minus",
              "splitting_perturbative", "splitting_exact",
              "splitting_large_kappa"]
    rows, points = [], []
    for kappa, params, schedule in plan.points:
        res = second_order_corrections(params, env, schedule)
        _, point = _spectrum_rows(cfg, env, kappa, params, schedule)
        exact = point.get("delta_eps0", math.nan)
        rows.append((kappa, res.eps0, res.eps2_plus, res.eps2_minus,
                     res.splitting, exact,
                     splitting_large_coupling(env, kappa)))
        entry = {"kappa": kappa, "m_fbs": point["m_fbs"],
                 "splitting_perturbative": res.splitting}
        if math.isfinite(exact):
            entry["relative_error"] = abs(res.splitting - exact) / exact
        points.append(entry)
    # closed-form beating curve at the stiffest grid point, the last one,
    # over 5T at T/96: a formula, so finer than the T/24 traces costs nothing
    ts = np.linspace(0.0, 5.0 * schedule.period, 5 * 96 + 1)
    curve = cfg.omega_0 * asymptotic_energy_closed_form(
        res.splitting, kappa, schedule, ts)
    return ([("", header, [np.asarray(c) for c in zip(*rows)]),
             ("-closed-form", ["t", "energy_closed_form"], [ts, curve])],
            {"resolved": _schedule_meta(schedule),
             "sweep": {"kappa": [k for k, _, _ in plan.points]},
             "f0_sq": float(abs(phase_fourier_coeff(kappa, schedule, 0))**2)},
            {"points": points})


def _run_nonresonant(plan):
    params, ts = plan.params, plan.times
    _, modes, decomp, header, cols = _bound_state_energy(plan, ts)
    m = len(modes)
    zeroth = nonresonant_zeroth_order(params, plan.schedule)
    # battery, charger, the battery-bath shells, the charger-bath shells:
    # a shell amplitude a_s puts |a_s|^2 / m_s on each of its m_s modes
    shell_m = plan.env.shells().multiplicities
    mult = np.concatenate([[1, 1], shell_m, shell_m])
    spread = 1.0 / np.sqrt(mult)
    weights = {
        "weight_battery": [float(abs(mode.phi0[0])**2) for mode in modes],
        "weight_charger": [float(abs(mode.phi0[1])**2) for mode in modes],
        "c_initial_sq": [float(abs(c)**2) for c in decomp.coefficients]}
    tables = [
        ("-modes", ["index", "quasienergy"] + list(weights),
         [np.arange(m), [mode.epsilon for mode in modes]]
         + list(weights.values())),
        ("-distribution",
         ["component", "multiplicity"] + [f"p_{j + 1}" for j in range(m)],
         [np.arange(mult.size), mult]
         + [np.abs(spread * mode.phi0)**2 for mode in modes]),
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


# kind -> (plan, runner, the run keys it reads), for every kind
_KIND_STEPS = {
    "ideal-cycle": (_plan_cycle, _run_ideal_cycle, ("t_max", "dt")),
    "markov": (_plan_markov, _run_markov, ("t_max", "dt", "gamma")),
    "dynamics": (_plan_dynamics, _run_dynamics,
                 ("t_max", "dt", "route", "kernel")),
    "kappa-sweep": (_plan_spectrum, _run_kappa_sweep,
                    _SWEEP_KEYS + _SPECTRUM_KEYS),
    "spectrum": (_plan_spectrum, _run_spectrum, _SPECTRUM_KEYS),
    "asymptotic": (_plan_bound_states, _run_asymptotic,
                   ("t_max", *_SPECTRUM_KEYS)),
    "perturbation": (_plan_perturbation, _run_perturbation,
                     _SWEEP_KEYS + _SPECTRUM_KEYS),
    "nonresonant": (_plan_bound_states, _run_nonresonant,
                    ("t_max", *_SPECTRUM_KEYS)),
}
KINDS = tuple(_KIND_STEPS)


def run_plan(plan: _Plan, out_dir: str):
    """Run a ``validate_config`` plan: its kind's runner, then the CSVs and
    the sidecar in ``out_dir``; returns (files, summary fragment)."""
    cfg = plan.cfg
    os.makedirs(out_dir, exist_ok=True)
    tables, entries, fragment = _KIND_STEPS[cfg.kind][1](plan)
    stem = cfg.label or cfg.kind
    files = [write_csv(csv_path(out_dir, stem + suffix), header, columns)
             for suffix, header, columns in tables]
    meta = {"config": dataclasses.asdict(cfg),
            "resolved": _schedule_meta(plan.schedule),
            "version": __version__, **entries, "columns": _COLUMNS[cfg.kind]}
    files.append(write_metadata(meta_path(out_dir, stem), meta))
    return files, {"kind": cfg.kind, "label": stem, **fragment}


def run_experiment(cfg: ExperimentConfig, out_dir: str, jobs: int = 1):
    """``run_plan`` on the plan of ``validate_config(cfg)``.  Runs in one
    process; ``jobs`` is accepted for existing callers and must be 1."""
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, got {jobs!r}")
    return run_plan(validate_config(cfg), out_dir)


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
