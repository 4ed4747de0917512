"""Closed-system dynamics of the driven battery-charger pair.

Everything here is 2x2 and in closed form.  The common dynamical phase
exp(-i*omega_0*t) is retained in the amplitudes; probabilities are of course
unaffected by it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import ProtocolSchedule, SystemParams

__all__ = [
    "TwoLevelAmplitudes",
    "ideal_propagator",
    "ideal_evolve",
    "ideal_energy",
    "ideal_peak_energy",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class TwoLevelAmplitudes:
    """Single-excitation amplitudes on the battery (c_b) and charger (c_c)."""

    c_b: complex
    c_c: complex

    def norm_sq(self) -> float:
        return abs(self.c_b) ** 2 + abs(self.c_c) ** 2

    @classmethod
    def charger_excited(cls) -> "TwoLevelAmplitudes":
        return cls(0.0 + 0.0j, 1.0 + 0.0j)


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
    initial: TwoLevelAmplitudes | None = None,
    t0: float = 0.0,
) -> TwoLevelAmplitudes:
    """Evolve the pair amplitudes from t0 to t through the drive protocol."""
    if t < 0 or t0 < 0:
        raise ValueError("times must be nonnegative")
    if initial is None:
        initial = TwoLevelAmplitudes.charger_excited()
    if abs(initial.norm_sq() - 1.0) > _NORM_TOL:
        raise ValueError("initial amplitudes must be normalized")
    u = ideal_propagator(params, schedule, t, t0)
    vec = u @ np.array([initial.c_b, initial.c_c])
    return TwoLevelAmplitudes(complex(vec[0]), complex(vec[1]))


def ideal_energy(
    params: SystemParams,
    schedule: ProtocolSchedule,
    t,
    initial: TwoLevelAmplitudes | None = None,
) -> float | np.ndarray:
    """Battery energy omega_b * |c_b(t)|^2 (hbar = 1); t scalar or array."""
    if np.ndim(t) == 0:
        amp = ideal_evolve(params, schedule, float(t), initial)
        return params.omega_b * abs(amp.c_b) ** 2
    ts = np.asarray(t, dtype=float)
    if ts.size and np.any(np.diff(ts) < 0):
        order = np.argsort(ts, kind="stable")
    else:
        order = np.arange(ts.size)
    out = np.empty(ts.size)
    amp = initial if initial is not None else TwoLevelAmplitudes.charger_excited()
    prev = 0.0
    cur = amp
    for idx in order:
        cur = ideal_evolve(params, schedule, float(ts[idx]), cur, t0=prev)
        prev = float(ts[idx])
        out[idx] = params.omega_b * abs(cur.c_b) ** 2
    return out


def ideal_peak_energy(params: SystemParams) -> float:
    """Maximum battery energy omega_b * kappa^2 / Omega^2 over a cycle.

    Attained during a coupled window whenever Omega*t crosses pi/2 (mod pi);
    valid for the charger-excited initial state.
    """
    omega2 = params.kappa**2 + params.delta**2
    if omega2 == 0:
        return 0.0
    return params.omega_b * params.kappa**2 / omega2
