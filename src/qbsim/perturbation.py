"""Analytic quasienergy perturbation theory for the equal-segment protocol.

All results here assume tau_c = tau_s = tau_d = T/3 with kappa*T/3 = pi/2
(the self-discharging schedule).  The unperturbed driven pair then has a
doubly degenerate quasienergy at omega_0 - omega_T/2 whose modes carry a
piecewise-exponential phase profile y(t); bath coupling lifts the
degeneracy at second order, and the resulting splitting controls the
long-time energy beating.
"""

import math
from dataclasses import dataclass

import numpy as np

from .environment import LatticeEnvironment
from .errors import ConvergenceError, ResonantDenominatorError
from .model import ProtocolSchedule, SystemParams

__all__ = [
    "phase_profile",
    "phase_fourier_coeff",
    "SecondOrderResult",
    "second_order_corrections",
    "splitting_large_coupling",
    "asymptotic_energy_closed_form",
    "NonresonantPair",
    "nonresonant_zeroth_order",
]

_THETA = 0.5 * math.pi  # kappa * T/3 enforced by the protocol
_TAIL_TOL = 1e-8  # bound on the truncated harmonic tail of eps2
_N_CAP = 200  # largest n_max the harmonic range may grow to


def _check_protocol(kappa: float, schedule: ProtocolSchedule):
    T = schedule.period
    tau = T / 3.0
    # written as "not <=" so that a NaN fails each check
    if not all(abs(seg - tau) <= 1e-9 * T for seg in
               (schedule.tau_c, schedule.tau_s, schedule.tau_d)):
        raise ValueError("phase profile requires equal protocol segments")
    if not abs(kappa * tau - _THETA) <= 1e-9:
        raise ValueError("phase profile requires kappa * T/3 = pi/2")


def phase_profile(kappa: float, schedule: ProtocolSchedule, t):
    """Piecewise phase factor y(t) of the degenerate zeroth-order modes.

    y advances as exp(-i kappa t/3) while the drive is on, rewinds at twice
    the rate while it is off, and is continuous and T-periodic with |y| = 1.
    """
    _check_protocol(kappa, schedule)
    _, charge, store, discharge = schedule.cycle_split(t)
    y = np.exp(-1j * kappa * (charge + discharge - 2.0 * store) / 3.0)
    return complex(y) if np.ndim(t) == 0 else y


def _exp_integral(a: float, lo: float, hi: float) -> complex:
    """int_lo^hi exp(-i a x) dx for a != 0."""
    return (np.exp(-1j * a * lo) - np.exp(-1j * a * hi)) / (1j * a)


def phase_fourier_coeff(kappa: float, schedule: ProtocolSchedule, n):
    """Closed-form harmonic f_n = (1/T) int_0^T e^{-i n omega_T t} y(t) dt.

    Independent of kappa on the constrained protocol (the reduced-time
    profile is universal); the full signature checks the protocol, once
    per call.  ``n`` is an integer or an integer array; an array gives
    the array of its harmonics.
    """
    _check_protocol(kappa, schedule)
    th = _THETA
    a1 = 2.0 * math.pi * n + th
    a2 = 2.0 * math.pi * n - 2.0 * th
    i1 = _exp_integral(a1, 0.0, 1.0 / 3.0)
    i2 = np.exp(-1j * th) * _exp_integral(a2, 1.0 / 3.0, 2.0 / 3.0)
    i3 = np.exp(1j * th) * _exp_integral(a1, 2.0 / 3.0, 1.0)
    return complex(i1 + i2 + i3) if np.ndim(n) == 0 else i1 + i2 + i3


@dataclass(frozen=True)
class SecondOrderResult:
    """Second-order quasienergy corrections of the degenerate pair."""

    eps0: float            # shared zeroth-order quasienergy omega_0 - omega_T/2
    eps2_plus: float       # correction of the symmetric-branch member
    eps2_minus: float      # correction of the antisymmetric-branch member
    n_max: int
    tail_bound: float

    @property
    def splitting(self) -> float:
        return abs(self.eps2_plus - self.eps2_minus)


def second_order_corrections(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
) -> SecondOrderResult:
    """Degenerate-pair corrections summed over bath modes and harmonics.

    eps2_(+/-) = sum_{k,n} g_k^2 |f_n|^2 / (omega_0 - omega_k -/+ (n - 1/2) omega_T),

    summed over the frequency shells omega_s with g_s^2 = m_s g_k^2 for
    the m_s modes of shell s.

    The harmonic range grows until the Parseval remainder divided by the
    smallest out-of-range denominator bounds the tail below ``_TAIL_TOL``;
    exceeding ``_N_CAP`` raises ConvergenceError.
    """
    if params.delta != 0.0:
        raise ValueError("second-order corrections assume zero detuning")
    _check_protocol(params.kappa, schedule)
    w_t = schedule.omega_T
    shells = env.shells()
    omega_s = shells.frequencies
    gs2 = env.coupling_per_mode**2 * shells.multiplicities
    detune_max = float(np.max(np.abs(params.omega_0 - omega_s)))

    n_max = 8
    while True:
        ns = np.arange(-n_max, n_max + 1)
        fn2 = np.abs(phase_fourier_coeff(params.kappa, schedule, ns)) ** 2
        remainder = max(0.0, 1.0 - fn2.sum())
        margin = (n_max + 0.5) * w_t - detune_max
        tail = math.inf if margin <= 0 else env.g**2 * remainder / margin
        if tail < _TAIL_TOL:
            break
        if 2 * n_max > _N_CAP:
            raise ConvergenceError(
                "harmonic sum not converged within the n_max cap",
                estimate=tail)
        n_max *= 2

    base = params.omega_0 - omega_s[:, None]          # (S, 1)
    shift = (ns[None, :] - 0.5) * w_t                 # (1, 2 n_max + 1)
    d_plus = base - shift
    d_minus = base + shift
    for name, den in (("plus", d_plus), ("minus", d_minus)):
        bad = np.abs(den) < 1e-12 * w_t
        if np.any(bad):
            s_idx, n_idx = np.argwhere(bad)[0]
            # the shell's first lattice mode names it
            raise ResonantDenominatorError(
                mode_index=int(np.argmax(shells.index == s_idx)),
                harmonic=int(ns[n_idx]))
    weights = gs2[:, None] * fn2[None, :]
    eps2_plus = float(np.sum(weights / d_plus))
    eps2_minus = float(np.sum(weights / d_minus))
    return SecondOrderResult(eps0=params.omega_0 - 0.5 * w_t,
                             eps2_plus=eps2_plus, eps2_minus=eps2_minus,
                             n_max=n_max, tail_bound=tail)


def splitting_large_coupling(env: LatticeEnvironment, kappa: float) -> float:
    """Leading large-coupling behaviour 3 g^2 |f_0|^2 / kappa of the splitting.

    Follows from the combined harmonic sum when omega_T = 4 kappa / 3
    dominates every bath detuning; |f_0|^2 = 9/pi^2 on the constrained
    protocol.  A kappa that is not positive and finite raises ValueError.
    """
    if not 0 < kappa < math.inf:  # a NaN fails too
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return 3.0 * env.g**2 * (9.0 / math.pi**2) / kappa


def asymptotic_energy_closed_form(
    delta_eps0: float, kappa: float, schedule: ProtocolSchedule, t
):
    """Two-bound-state beating energy, in units of omega_0.

    E(t)/omega_0 = (1/2) { 1 - cos(delta_eps0 t) Re[y(t)^2 e^{-i omega_T t}] }
    for the charger-excited start; exactly T-periodic when the splitting
    closes, and bounded in [0, 1].  A non-finite ``delta_eps0`` raises
    ValueError.
    """
    if not math.isfinite(delta_eps0):
        raise ValueError(f"delta_eps0 must be finite, got {delta_eps0}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    y = np.atleast_1d(phase_profile(kappa, schedule, ts))
    osc = np.real(y**2 * np.exp(-1j * schedule.omega_T * ts))
    e = 0.5 * (1.0 - np.cos(delta_eps0 * ts) * osc)
    return float(e[0]) if np.ndim(t) == 0 else e


@dataclass(frozen=True)
class NonresonantPair:
    """Zeroth-order bound-state pair at finite detuning.

    The degenerate resonant quasienergy splits by 2*delta; the members
    are the bare battery and charger states, at ``eps_battery`` and
    ``eps_charger``.
    """

    eps_battery: float
    eps_charger: float
    splitting: float


def nonresonant_zeroth_order(
    params: SystemParams, schedule: ProtocolSchedule
) -> NonresonantPair:
    """Detuned zeroth-order quasienergies omega_0 - omega_T/2 +/- delta."""
    _check_protocol(params.kappa, schedule)
    eps0 = params.omega_0 - 0.5 * schedule.omega_T
    d = params.delta
    return NonresonantPair(
        eps_battery=eps0 + d,
        eps_charger=eps0 - d,
        splitting=2.0 * abs(d),
    )
