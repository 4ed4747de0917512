"""Closed-system dynamics of the driven battery-charger pair.

Everything here is 2x2 and in closed form.  The common dynamical phase
exp(-i*omega_0*t) is retained in the amplitudes; probabilities are of course
unaffected by it.
"""

import cmath
import math

import numpy as np

from .model import ProtocolSchedule, SystemParams

__all__ = [
    "ideal_propagator",
    "ideal_evolve",
    "ideal_energy",
    "ideal_peak_energy",
]


def _coupled_propagator(params: SystemParams, dt: float) -> np.ndarray:
    """exp(-i H dt) for H = [[omega_b, kappa], [kappa, omega_c]].

    H = omega_0*I + M with M = [[-delta, kappa], [kappa, delta]] and
    M^2 = Omega^2 I, so the exponential splits into phase times rotation.
    """
    omega = params.rabi
    phase = cmath.exp(-1j * params.omega_0 * dt)
    c = math.cos(omega * dt)
    s = math.sin(omega * dt) / omega if omega > 0 else dt
    d, k = params.delta, params.kappa
    return phase * np.array(
        [[c + 1j * s * d, -1j * s * k], [-1j * s * k, c - 1j * s * d]],
        dtype=complex,
    )


def _free_propagator(params: SystemParams, dt: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * params.omega_b * dt), 0.0],
         [0.0, cmath.exp(-1j * params.omega_c * dt)]],
        dtype=complex,
    )


def ideal_propagator(
    params: SystemParams, schedule: ProtocolSchedule, t1: float, t0: float = 0.0
) -> np.ndarray:
    """2x2 propagator from t0 to t1 under the piecewise-constant drive."""
    u = np.eye(2, dtype=complex)
    for dt, f in schedule.pieces(t0, t1):
        step = _coupled_propagator(params, dt) if f else _free_propagator(params, dt)
        u = step @ u
    return u


def ideal_evolve(
    params: SystemParams,
    schedule: ProtocolSchedule,
    t: float,
    t0: float = 0.0,
) -> np.ndarray:
    """Amplitudes (c_b, c_c) at t of the pair started charger-excited at t0.

    They form the charger column of the propagator from t0 to t.
    """
    if t < 0 or t0 < 0:
        raise ValueError("times must be nonnegative")
    return ideal_propagator(params, schedule, t, t0)[:, 1]


def ideal_energy(
    params: SystemParams, schedule: ProtocolSchedule, t
) -> float | np.ndarray:
    """Battery energy omega_b * |c_b(t)|^2 (hbar = 1); t scalar or array.

    The pair starts charger-excited at t = 0; an array of times is walked
    in ascending order, one propagator per gap.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(ts.size)
    vec = np.array([0.0, 1.0], dtype=complex)
    prev = 0.0
    for idx in np.argsort(ts, kind="stable"):
        vec = ideal_propagator(params, schedule, float(ts[idx]), prev) @ vec
        prev = float(ts[idx])
        out[idx] = params.omega_b * abs(vec[0]) ** 2
    return float(out[0]) if np.ndim(t) == 0 else out


def ideal_peak_energy(params: SystemParams) -> float:
    """Maximum battery energy omega_b * kappa^2 / Omega^2 over a cycle.

    Attained during a coupled window whenever Omega*t crosses pi/2 (mod pi);
    valid for the charger-excited initial state.
    """
    omega2 = params.kappa**2 + params.delta**2
    if omega2 == 0:
        return 0.0
    return params.omega_b * params.kappa**2 / omega2
