"""End-to-end physics acceptance suite.

Twelve criteria covering the whole pipeline: closed-pair energy-transfer
identities, the exponential-decay envelope, spectral-density normalization,
cross-route solver agreement, bound-state counts and thresholds versus drive
strength, long-horizon energy asymptotics, perturbation-theory accuracy, and
global numerical invariants.  Each test evaluates one criterion at its stated
tolerance and records a single PASS/FAIL line (echoed in the terminal summary
by conftest) together with the measured numbers and wall time.

Heavy artifacts — 100-period traces and quasienergy spectra on the default
30 x 30 environment — are computed once and shared across criteria via
memoized helpers.

Long-time numbers below the second threshold (kappa < ~4.6) are set by a
slow Floquet sideband decay, not by the finite lattice.  At zero detuning
the pair splits exactly into the sectors (u_c +/- u_b)/sqrt(2), which see
the drive as +/- kappa f(t).  In the "+" sector the main harmonic
(|f_0|^2 = 0.91, at omega_0 + 2 kappa/3) lies above the band and only the
|f_1|^2 = 0.036 sideband falls inside it, so that sector decays at the
Floquet golden-rule rate Gamma_+ = 2 pi sum_n |f_n|^2 J(omega_0 + 2 kappa/3
- n omega_T): 0.0125 at kappa = 3 and 0.0091 at kappa = 4.5, a lifetime of
about 100 periods.  Criterion 7 therefore checks the kappa = 3 decay law
against Gamma_+ on a 200 x 200 lattice, which returns nothing to the pair
within 100 periods; on the 30 x 30 lattice revivals re-excite the "-"
sector and only modulate the slow decay.  At kappa = 4.5 the single bound
state lies in the "-" sector while the "+" sector still holds a narrow
resonance at the folded band edge at 100T, which a bound-state-only
prediction leaves out by construction; criterion 8 there compares the
population of the sector that holds the bound state.
"""

import functools
import math
import time

import numpy as np
from scipy.integrate import quad

import qbsim as qb

VARPI = 1.0
Q = 0.5
G = 0.5
OMEGA_0 = 2.0
N_SIDE = 30

ENV30 = qb.LatticeEnvironment(n_side=N_SIDE, varpi=VARPI, q=Q, g=G)

SAMPLES_PER_PERIOD = 24

# Wide lattice for decay laws: its kernel revives only after N/(2q) = 200,
# beyond 100 periods for every kappa >= 3.
ENV200 = qb.LatticeEnvironment(n_side=200, varpi=VARPI, q=Q, g=G)

CRITERION_LINES: list[str] = []


def _record(num: int, name: str, ok: bool, detail: str,
            t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    line = (f"criterion {num:2d} [{name}]: {status} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _params(kappa: float, delta: float = 0.0) -> qb.SystemParams:
    return qb.SystemParams.from_center(OMEGA_0, delta, kappa)


def _schedule(kappa: float) -> qb.ProtocolSchedule:
    tau = 0.5 * math.pi / kappa
    return qb.ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)


@functools.lru_cache(maxsize=None)
def _props(kappa: float, delta: float = 0.0) -> qb.SegmentPropagators:
    return qb.SegmentPropagators(_params(kappa, delta), ENV30)


@functools.lru_cache(maxsize=None)
def _spectrum(kappa: float, delta: float = 0.0) -> qb.QuasienergySpectrum:
    return qb.compute_spectrum(_params(kappa, delta), ENV30, _schedule(kappa),
                               props=_props(kappa, delta))


@functools.lru_cache(maxsize=None)
def _modes(kappa: float, delta: float = 0.0) -> list:
    return qb.fbs_floquet_modes(_props(kappa, delta), _schedule(kappa),
                                _spectrum(kappa, delta))


@functools.lru_cache(maxsize=None)
def _trace_100(kappa: float) -> qb.EnergyTrace:
    sched = _schedule(kappa)
    return qb.propagate_exact(_props(kappa), sched,
                              t_max=100.0 * sched.period,
                              sample_dt=sched.period / SAMPLES_PER_PERIOD)


def _gamma_plus(kappa: float) -> float:
    """Floquet golden-rule decay rate of the "+" sector at zero detuning.

    Gamma_+ = 2 pi sum_n |f_n|^2 J(omega_0 + 2 kappa/3 - n omega_T); J
    vanishes off the band, so a few harmonics either side suffice.
    """
    sched = _schedule(kappa)
    ns = np.arange(-20, 21)
    fn2 = np.array([abs(qb.phase_fourier_coeff(kappa, sched, int(n))) ** 2
                    for n in ns])
    freqs = OMEGA_0 + 2.0 * kappa / 3.0 - ns * sched.omega_T
    return 2.0 * math.pi * float(np.sum(fn2 * qb.spectral_density(ENV200, freqs)))


@functools.lru_cache(maxsize=None)
def _decay_fit(kappa: float) -> tuple[float, float]:
    """Log-linear fit of the period-mean energy over [40T, 100T] on ENV200.

    Returns (rate, max |residual| of ln E); memory-kernel route with the
    discrete kernel, which criterion 5 validates against exact propagation.
    """
    sched = _schedule(kappa)
    params = _params(kappa)
    trace = qb.solve_volterra(params, ENV200, sched, 100.0 * sched.period,
                              kernel="discrete")
    per = round(sched.period / trace.metadata["dt"])
    means = (trace.energies[:100 * per].reshape(100, per).mean(axis=1)
             / params.omega_b)
    mids = (np.arange(40, 100) + 0.5) * sched.period
    log_e = np.log(means[40:])
    slope, icept = np.polyfit(mids, log_e, 1)
    return float(-slope), float(np.max(np.abs(log_e - (slope * mids + icept))))


@functools.lru_cache(maxsize=None)
def _splitting_exact(kappa: float) -> float:
    spec = _spectrum(kappa)
    eps = spec.quasienergies[spec.fbs_indices]
    return qb.circular_distance(eps[0], eps[1], spec.omega_T)


@functools.lru_cache(maxsize=None)
def _splitting_perturbative(kappa: float) -> float:
    res = qb.second_order_corrections(_params(kappa), ENV30, _schedule(kappa))
    return res.splitting


def test_criterion_01_ideal_cycle_full_transfer():
    t0 = time.perf_counter()
    params = qb.SystemParams(omega_b=1.0, omega_c=1.0, kappa=15.0)
    sched = qb.optimal_schedule(kappa=15.0, delta=0.0, tau_s=0.2 * math.pi)
    n = np.arange(11)
    charged = qb.ideal_energy(params, sched, n * sched.period + sched.tau_c)
    returned = qb.ideal_energy(params, sched, n * sched.period)
    worst_full = np.max(np.abs(charged - params.omega_b))
    worst_empty = np.max(np.abs(returned))
    ok = worst_full < 1e-10 and worst_empty < 1e-10
    _record(1, "ideal cycle full transfer", ok,
            f"max|E(nT+tau_c)-hw_b|={worst_full:.1e}, "
            f"max|E(nT)|={worst_empty:.1e}, n=0..10", t0, budget=1.0)


def test_criterion_02_ideal_detuned_peak():
    t0 = time.perf_counter()
    params = qb.SystemParams.from_center(omega_0=11.0, delta=10.0, kappa=15.0)
    target = (225.0 / 325.0) * params.omega_b
    peak = qb.ideal_peak_energy(params)
    sched = qb.optimal_schedule(kappa=15.0, delta=10.0)
    t_star = 0.5 * math.pi / params.rabi
    realized = qb.ideal_energy(params, sched, t_star)
    ok = abs(peak - target) < 1e-10 and abs(realized - target) < 1e-10
    _record(2, "detuned ideal peak", ok,
            f"peak={peak:.12f} vs 225/325={target:.12f}, "
            f"|realized-target|={abs(realized - target):.1e}", t0, budget=1.0)


def test_criterion_03_decay_envelope():
    t0 = time.perf_counter()
    params = qb.SystemParams(omega_b=1.0, omega_c=1.0, kappa=15.0)
    sched = qb.optimal_schedule(kappa=15.0, delta=0.0, tau_s=0.2 * math.pi)
    gamma = 0.5 * params.omega_b
    t_end = 10.0 / gamma
    ts = np.linspace(0.0, t_end, 4001)
    energy = qb.markov_energy(params, sched, gamma, ts)
    bound = params.omega_b * np.exp(-2.0 * gamma * ts)
    envelope_ok = bool(np.all(energy <= bound + 1e-12))
    n_last = int(t_end / sched.period)
    tc = np.linspace((n_last - 1) * sched.period, n_last * sched.period, 481)
    final_peak = float(np.max(qb.markov_energy(params, sched, gamma, tc)))
    ok = envelope_ok and final_peak < 1e-3 * params.omega_b
    _record(3, "decay envelope", ok,
            f"E<=hw_b*exp(-2*Gamma*t): {envelope_ok}, "
            f"final-cycle peak={final_peak:.2e} (<1e-3)", t0, budget=1.0)


def test_criterion_04_spectral_density_normalization():
    t0 = time.perf_counter()
    lo, hi = ENV30.band_edges
    total, _ = quad(lambda w: qb.spectral_density(ENV30, w), lo, hi,
                    points=[ENV30.varpi], limit=400)
    rel_total = abs(total - G**2) / G**2
    edge_target = G**2 / (4.0 * math.pi * Q)
    rel_edge = max(abs(qb.spectral_density(ENV30, lo) - edge_target),
                   abs(qb.spectral_density(ENV30, hi) - edge_target)) / edge_target
    ok = rel_total < 1e-4 and rel_edge < 1e-8
    _record(4, "spectral density normalization", ok,
            f"|int J - g^2|/g^2={rel_total:.1e} (<1e-4), "
            f"edge rel err={rel_edge:.1e} (<1e-8)", t0, budget=1.0)


def test_criterion_05_route_equivalence():
    t0 = time.perf_counter()
    env10 = qb.LatticeEnvironment(n_side=10, varpi=VARPI, q=Q, g=G)
    params = _params(3.0)
    sched = _schedule(3.0)
    t_max = 10.0 * sched.period
    d0 = qb.default_time_step(params, env10, sched)

    def route_gap(dt: float) -> float:
        volt = qb.solve_volterra(params, env10, sched, t_max, dt=dt)
        exact = qb.propagate_exact(qb.SegmentPropagators(params, env10),
                                   sched, t_max, sample_dt=volt.metadata["dt"])
        return float(np.max(np.abs(volt.u_b - exact.u_b)))

    errs = [route_gap(d0 / div) for div in (4, 8, 16)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    err_fine = route_gap(d0 / 96)
    ok = err_fine < 1e-6 and all(abs(o - 2.0) <= 0.3 for o in orders)
    _record(5, "route equivalence", ok,
            f"max|u_b| gap={err_fine:.2e} (<1e-6) at dt=d0/96, "
            f"orders={[f'{o:.2f}' for o in orders]} (2+-0.3)", t0, budget=120.0)


def test_criterion_06_fbs_counts_and_transitions():
    t0 = time.perf_counter()
    counts = {k: len(_spectrum(k).fbs_indices) for k in (3.0, 4.5, 4.8)}
    counts_ok = counts == {3.0: 0, 4.5: 1, 4.8: 2}
    scan = [round(k, 10) for k in np.arange(3.9, 4.901, 0.1)]
    m_scan = {k: len(_spectrum(k).fbs_indices) for k in scan}
    monotone = all(m_scan[a] <= m_scan[b] for a, b in zip(scan, scan[1:]))
    first_one = min(k for k, m in m_scan.items() if m >= 1)
    first_two = min(k for k, m in m_scan.items() if m >= 2)
    ok = (counts_ok and monotone
          and abs(first_one - 4.1) <= 0.3 and abs(first_two - 4.6) <= 0.3)
    _record(6, "bound-state counts and thresholds", ok,
            f"M(3/4.5/4.8)={counts[3.0]}/{counts[4.5]}/{counts[4.8]} "
            f"(0/1/2), M>=1 at {first_one:.1f} (4.1+-0.3), "
            f"M>=2 at {first_two:.1f} (4.6+-0.3)", t0, budget=600.0)


def test_criterion_07_dynamical_regimes():
    t0 = time.perf_counter()
    per = SAMPLES_PER_PERIOD
    omega_b = _params(3.0).omega_b

    # kappa = 3: full decay -- over [40T, 100T] the period-mean energy falls
    # as one exponential (no plateau) at the "+" sideband rate Gamma_+.  The
    # trapped kappa = 4.5 run is the control that this fit must reject.
    def sideband_decay(kappa):
        rate, resid = _decay_fit(kappa)
        gamma = _gamma_plus(kappa)
        fits = resid < 0.02 and abs(rate - gamma) < 0.2 * gamma
        return fits, (f"rate={rate:.4f} vs Gamma_+={gamma:.4f} (+-20%), "
                      f"log-fit residual {resid:.1e} (<0.02)")

    fits3, decay3 = sideband_decay(3.0)
    fits45, decay45 = sideband_decay(4.5)
    decay_ok = fits3 and not fits45

    # kappa = 4.5: trapped at a finite value with T-periodic asymptotics.
    tr45 = _trace_100(4.5)
    modes45 = _modes(4.5)
    t_last = tr45.times[-per - 1:]
    asym45 = qb.decompose_energy_terms(modes45, t_last).total
    asym45_prev = qb.decompose_energy_terms(
        modes45, t_last - _schedule(4.5).period).total
    periodic_ok = float(np.max(np.abs(asym45 - asym45_prev))) < 1e-9 * omega_b
    mean45 = float(np.mean(tr45.energies[-per - 1:])) / omega_b
    asym_mean45 = float(np.mean(asym45)) / omega_b
    trapped_ok = (len(modes45) == 1 and 0.05 < mean45 < 0.95
                  and abs(mean45 - asym_mean45) < 0.05)

    # kappa = 4.8: persistent oscillation -- final-period peak above half.
    peak48 = float(np.max(_trace_100(4.8).energies[-per - 1:])) / omega_b
    oscillating_ok = peak48 > 0.5

    ok = decay_ok and periodic_ok and trapped_ok and oscillating_ok
    _record(7, "dynamical regimes", ok,
            f"k=3 N=200 over [40T,100T]: {decay3}; "
            f"k=4.5 control, must fail: {decay45}; k=4.5 trapped "
            f"mean={mean45:.4f} vs T-periodic asymptote {asym_mean45:.4f}; "
            f"k=4.8 final peak={peak48:.3f} (>0.5)", t0, budget=900.0)


def test_criterion_08_asymptotic_agreement():
    t0 = time.perf_counter()

    def late(kappa):
        trace = _trace_100(kappa)
        period = _schedule(kappa).period
        sel = trace.times >= 80.0 * period - 1e-9 * period
        return trace, sel, trace.times[sel]

    # kappa = 4.8: two bound states carry the whole late battery energy.
    trace, sel, ts = late(4.8)
    asym = qb.decompose_energy_terms(_modes(4.8), ts).total
    gap48 = float(np.mean(np.abs(asym - trace.energies[sel]))) / OMEGA_0

    # kappa = 4.5: the bound state lies in one sector (u_c + s u_b)/sqrt(2);
    # the other sector still decays slowly at 100T, so compare the
    # population of the bound state's sector with its prediction.
    spec = _spectrum(4.5)
    pair = spec.vectors[:2, spec.columns[spec.fbs_indices]].T
    phi_b, phi_c = pair[:, 0], pair[:, 1]
    s = 1.0 if np.all(np.abs(phi_c - phi_b) < np.abs(phi_c + phi_b)) else -1.0
    leak = float(np.max(np.abs(phi_c - s * phi_b), initial=0.0))
    one_sector = phi_b.size >= 1 and leak < 1e-8
    trace, sel, ts = late(4.5)
    amp = np.zeros(ts.size, dtype=complex)
    for mode in _modes(4.5):
        at = mode.pair[mode.offset_index(ts)]
        # c_j = <phi_j(0)|charger>, the overlap with the charger-excited start
        amp += (np.conj(mode.phi0[1]) * np.exp(-1j * mode.epsilon * ts)
                * (at[:, 1] + s * at[:, 0]))
    pred45 = 0.5 * np.abs(amp) ** 2
    exact45 = 0.5 * np.abs(trace.u_c[sel] + s * trace.u_b[sel]) ** 2
    other45 = float(np.mean(0.5 * np.abs(trace.u_c[sel] - s * trace.u_b[sel]) ** 2))
    gap45 = float(np.mean(np.abs(pred45 - exact45)))

    ok = one_sector and gap45 < 0.05 and gap48 < 0.05
    sector = "+" if s > 0 else "-"
    _record(8, "bound-state asymptotics", ok,
            f"over [80T,100T]: k=4.5 bound state in '{sector}' sector "
            f"(leak {leak:.0e}), its population exact {np.mean(exact45):.3f} "
            f"vs predicted {np.mean(pred45):.3f}, mean|diff|={gap45:.4f} "
            f"(<0.05), other sector {other45:.3f}; k=4.8 "
            f"mean|E_exact-E_asym|/hw_0={gap48:.4f} (<0.05)",
            t0, budget=300.0)


def test_criterion_09_perturbative_splitting():
    t0 = time.perf_counter()
    ks = (8.0, 10.0, 12.0, 15.0)
    rel = [abs(_splitting_perturbative(k) - _splitting_exact(k))
           / _splitting_exact(k) for k in ks]
    monotone = all(rel[i + 1] < rel[i] for i in range(len(rel) - 1))
    ok = rel[-1] < 0.10 and monotone
    _record(9, "perturbative splitting", ok,
            "rel err at k=8/10/12/15: "
            + "/".join(f"{r:.4f}" for r in rel)
            + " (k=15 <0.10, decreasing)", t0, budget=600.0)


def test_criterion_10_splitting_closure_and_stabilization():
    t0 = time.perf_counter()
    ks = [round(k, 10) for k in np.arange(5.0, 15.01, 0.5)]
    spl = [_splitting_exact(k) for k in ks]
    decreasing = all(b < a for a, b in zip(spl, spl[1:]))

    modes15 = _modes(15.0)
    sched = _schedule(15.0)
    n_sub = modes15[0].battery_amplitudes.size
    ts = np.arange(0, 5 * n_sub + 1) * (sched.period / n_sub)
    dec = qb.decompose_energy_terms(modes15, ts)
    el_lo, el_hi = float(dec.elements.min()), float(dec.elements.max())
    flat = 0.45 <= el_lo and el_hi <= 0.55

    closed = qb.asymptotic_energy_closed_form(_splitting_exact(15.0), 15.0,
                                              sched, ts)
    asym = dec.total / OMEGA_0
    mismatch = float(np.max(np.abs(closed - asym)))
    scale = float(np.max(np.abs(asym)))
    closed_ok = mismatch < 0.10 * scale

    ok = decreasing and flat and closed_ok
    _record(10, "splitting closure and stabilization", ok,
            f"splitting decreasing on [5,15]: {decreasing}; diagonal "
            f"elements in [{el_lo:.3f},{el_hi:.3f}] (0.5+-0.05); closed-form "
            f"max gap {mismatch:.4f} vs 10% of {scale:.3f}", t0, budget=300.0)


def test_criterion_11_detuned_reactivation():
    t0 = time.perf_counter()
    spec = _spectrum(15.0, 0.5)
    idx = spec.fbs_indices
    count_ok = len(idx) == 2
    pair = spec.vectors[:2, spec.columns[idx]].T
    weight_b = np.abs(pair[:, 0]) ** 2
    weight_c = np.abs(pair[:, 1]) ** 2
    i_b = int(np.argmax(weight_b))
    i_c = 1 - i_b
    localized_ok = weight_b[i_b] > 0.9 and weight_c[i_c] > 0.9

    modes = _modes(15.0, 0.5)
    c2 = [abs(m.phi0[1]) ** 2 for m in modes]
    overlap_ok = c2[i_b] < 0.1 and c2[i_c] > 0.9

    sched = _schedule(15.0)
    per = SAMPLES_PER_PERIOD
    ts = np.arange(0, 5 * per + 1) * (sched.period / per)
    energy = qb.decompose_energy_terms(modes, ts).total
    defect = float(np.max(np.abs(energy[per:] - energy[:-per])))
    periodic_ok = defect < 0.05 * float(np.max(energy))

    ok = count_ok and localized_ok and overlap_ok and periodic_ok
    _record(11, "detuned reactivation", ok,
            f"localized weights {weight_b[i_b]:.3f}/{weight_c[i_c]:.3f} "
            f"(>0.9); |c|^2 battery/charger {c2[i_b]:.3f}/{c2[i_c]:.3f} "
            f"(<0.1/>0.9); periodicity defect {defect / max(energy):.4f} "
            f"(<0.05)", t0, budget=300.0)


def test_criterion_12_property_suite():
    t0 = time.perf_counter()
    drift = abs(_trace_100(4.8).metadata["final_norm"] - 1.0)
    norm_ok = drift < 1e-10

    u_t = qb.one_period_operator(_params(4.8), ENV30, _schedule(4.8))
    gram = u_t.conj().T @ u_t
    unitarity = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    unitary_ok = unitarity < 1e-8

    fold_ok = True
    for spec in (_spectrum(4.8), _spectrum(15.0, 0.5)):
        half = 0.5 * spec.omega_T
        eps = spec.quasienergies
        fold_ok = fold_ok and bool(
            np.all((eps > -half - 1e-12) & (eps <= half + 1e-12)))

    xs = np.linspace(0.0, 40.0, 1601)
    kernel_excess = float(np.max(np.abs(qb.memory_kernel_discrete(ENV30, xs)))
                          - G**2)
    kernel_ok = kernel_excess <= 1e-12

    sched = _schedule(15.0)
    power = sum(abs(qb.phase_fourier_coeff(15.0, sched, n)) ** 2
                for n in range(-50, 51))
    parseval_defect = 1.0 - power
    parseval_ok = 0.0 < parseval_defect < 1e-6

    ok = norm_ok and unitary_ok and fold_ok and kernel_ok and parseval_ok
    _record(12, "numerical invariants", ok,
            f"norm drift {drift:.1e} (<1e-10); unitarity {unitarity:.1e} "
            f"(<1e-8); zone fold: {fold_ok}; kernel excess "
            f"{kernel_excess:.1e} (<=1e-12); partial-sum defect "
            f"{parseval_defect:.1e} (<1e-6)", t0, budget=120.0)
