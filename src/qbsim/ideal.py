"""Closed-system dynamics of the driven battery-charger pair.

Everything here is 2x2 and in closed form.  The propagator from 0 to t is
C(discharge) F(store) C(charge) U_T^n, with (n, charge, store, discharge)
from ``ProtocolSchedule.cycle_split``, C the coupled and F the free
exponential and U_T the one-period propagator.  The common dynamical phase
exp(-i*omega_0*t) is retained in the amplitudes; probabilities are of course
unaffected by it.
"""

import numpy as np

from .model import ProtocolSchedule, SystemParams

__all__ = [
    "ideal_propagator",
    "ideal_evolve",
    "ideal_energy",
    "ideal_peak_energy",
]


def _coupled_propagator(params: SystemParams, dt: np.ndarray) -> np.ndarray:
    """exp(-i H dt) for H = [[omega_b, kappa], [kappa, omega_c]], shape (k, 2, 2).

    H = omega_0*I + M with M = [[-delta, kappa], [kappa, delta]] and
    M^2 = Omega^2 I, so the exponential splits into phase times rotation.
    """
    omega = params.rabi
    c = np.cos(omega * dt)
    s = np.sin(omega * dt) / omega if omega > 0 else dt
    d, k = params.delta, params.kappa
    u = np.empty(dt.shape + (2, 2), dtype=complex)
    u[:, 0, 0] = c + 1j * s * d
    u[:, 0, 1] = u[:, 1, 0] = -1j * s * k
    u[:, 1, 1] = c - 1j * s * d
    return np.exp(-1j * params.omega_0 * dt)[:, None, None] * u


def _free_propagator(params: SystemParams, dt: np.ndarray) -> np.ndarray:
    u = np.zeros(dt.shape + (2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(-1j * params.omega_b * dt)
    u[:, 1, 1] = np.exp(-1j * params.omega_c * dt)
    return u


def _within_period(params, charge, store, discharge) -> np.ndarray:
    """C(discharge) F(store) C(charge) for arrays of segment times."""
    return (_coupled_propagator(params, discharge)
            @ _free_propagator(params, store)
            @ _coupled_propagator(params, charge))


def _propagators(params: SystemParams, schedule: ProtocolSchedule, t) -> np.ndarray:
    """U(t) from 0 for every time in t, shape (k, 2, 2)."""
    n, charge, store, discharge = map(np.ravel, schedule.cycle_split(t))
    u = _within_period(params, charge, store, discharge)
    u_T = _within_period(params, *np.array(
        [[schedule.tau_c], [schedule.tau_s], [schedule.tau_d]]))[0]
    for m in np.unique(n):
        sel = n == m
        u[sel] = u[sel] @ np.linalg.matrix_power(u_T, int(m))
    return u


def ideal_propagator(
    params: SystemParams, schedule: ProtocolSchedule, t1: float, t0: float = 0.0
) -> np.ndarray:
    """2x2 propagator U(t1) U(t0)^dagger from t0 to t1 under the drive."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    u1, u0 = _propagators(params, schedule, [t1, t0])
    return u1 @ u0.conj().T


def ideal_evolve(
    params: SystemParams,
    schedule: ProtocolSchedule,
    t: float,
    t0: float = 0.0,
) -> np.ndarray:
    """Amplitudes (c_b, c_c) at t of the pair started charger-excited at t0.

    They form the charger column of the propagator from t0 to t.
    """
    return ideal_propagator(params, schedule, t, t0)[:, 1]


def ideal_energy(
    params: SystemParams, schedule: ProtocolSchedule, t
) -> float | np.ndarray:
    """Battery energy omega_b * |c_b(t)|^2 (hbar = 1); t scalar or array.

    The pair starts charger-excited at t = 0; every time reads the charger
    column of its own propagator U(t), so the times need no order.
    """
    e = params.omega_b * np.abs(_propagators(params, schedule, t)[:, 0, 1]) ** 2
    return float(e[0]) if np.ndim(t) == 0 else e


def ideal_peak_energy(params: SystemParams) -> float:
    """Maximum battery energy omega_b * kappa^2 / Omega^2 over a cycle.

    Attained during a coupled window whenever Omega*t crosses pi/2 (mod pi);
    valid for the charger-excited initial state.
    """
    omega2 = params.kappa**2 + params.delta**2
    if omega2 == 0:
        return 0.0
    return params.omega_b * params.kappa**2 / omega2
