"""Weak-coupling (memoryless) limit of the driven dissipative pair."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .environment import LatticeEnvironment, spectral_density
from .model import ProtocolSchedule, SystemParams

__all__ = ["MarkovRates", "markov_rates", "markov_energy"]


@dataclass(frozen=True)
class MarkovRates:
    """Golden-rule decay rate and principal-value frequency shift at omega_0."""

    gamma: float
    lamb_shift: float


def markov_rates(env: LatticeEnvironment, omega_0: float) -> MarkovRates:
    """Gamma = pi J(omega_0) and the principal-value shift of the band.

    The shift Delta = P int J(omega)/(omega_0 - omega) domega is g^2 Re G(E)
    with G the square-lattice Green's function at E = omega_0 - varpi
    (Economou, Green's Functions in Quantum Physics, ch. 5):

        |E| >= 4q:  Delta = 2 g^2/(pi E) K(16 q^2/E^2)
        |E| <  4q:  Delta = g^2 sgn(E)/(2 pi q) K(E^2/(16 q^2))

    Both are +-inf on the band edges, where J stays finite and the principal
    value diverges logarithmically.  K(m) is evaluated from 1 - m, formed as
    a product so that it keeps full precision near the edges.  The
    band-center point omega_0 = varpi is rejected: J diverges there and no
    finite rate exists; so is a non-finite omega_0.
    """
    if not math.isfinite(omega_0):
        raise ValueError(f"omega_0 must be finite, got {omega_0}")
    if omega_0 == env.varpi:
        raise ValueError("J(omega) diverges at the band center; "
                         "Markovian rates are undefined at omega_0 = varpi")
    gamma = math.pi * spectral_density(env, omega_0)
    e = omega_0 - env.varpi
    a, half = abs(e), 4.0 * env.q
    if a >= half:
        k = special.ellipkm1((a - half) * (a + half) / e**2)
        shift = 2.0 * env.g**2 / (math.pi * e) * k
    else:
        k = special.ellipkm1((half - a) * (half + a) / half**2)
        shift = math.copysign(env.g**2 / (2.0 * math.pi * env.q), e) * k
    return MarkovRates(gamma=gamma, lamb_shift=float(shift))


def markov_energy(
    params: SystemParams,
    schedule: ProtocolSchedule,
    gamma: float,
    t,
) -> float | np.ndarray:
    """Memoryless-limit battery energy omega_0 exp(-2 Gamma t) sin^2(kappa F(t)).

    F(t) is the accumulated drive integral and ``gamma`` the decay rate
    Gamma.  The sin^2 law is the resonant pair's population, so a detuned
    pair (delta != 0) is rejected.  The frequency shift of MarkovRates only
    rotates the phase of the amplitude and drops out of the population.
    """
    if params.delta != 0.0:
        raise ValueError("markov_energy holds only at zero detuning")
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    ts = np.asarray(t, dtype=float)
    drive = schedule.drive_integral(ts)
    e = params.omega_0 * np.exp(-2.0 * gamma * ts) * np.sin(params.kappa * drive) ** 2
    return float(e) if np.ndim(t) == 0 else e
