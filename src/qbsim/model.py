"""Core model definitions: two-level pair and cyclic drive protocol.

Units: hbar = 1 throughout, so energies and angular frequencies coincide.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "ProtocolSchedule",
    "optimal_schedule",
]


@dataclass(frozen=True)
class SystemParams:
    """Battery and charger level splittings plus their exchange coupling."""

    omega_b: float
    omega_c: float
    kappa: float

    def __post_init__(self):
        # chained comparisons fail for NaN as well as out of range
        if not (0 < self.omega_b < math.inf and 0 < self.omega_c < math.inf):
            raise ValueError("level splittings must be positive and finite")
        if not 0 <= self.kappa < math.inf:
            raise ValueError("coupling kappa must be nonnegative and finite")

    @property
    def omega_0(self) -> float:
        return 0.5 * (self.omega_c + self.omega_b)

    @property
    def delta(self) -> float:
        return 0.5 * (self.omega_c - self.omega_b)

    @property
    def rabi(self) -> float:
        """Effective exchange frequency sqrt(kappa^2 + delta^2)."""
        return math.hypot(self.kappa, self.delta)

    @classmethod
    def from_center(cls, omega_0: float, delta: float, kappa: float) -> "SystemParams":
        return cls(omega_b=omega_0 - delta, omega_c=omega_0 + delta, kappa=kappa)


@dataclass(frozen=True)
class ProtocolSchedule:
    """Cyclic charge/store/discharge switching of the exchange coupling.

    The drive f(t) takes value 1 on (nT, nT + tau_c], 0 on
    (nT + tau_c, nT + tau_c + tau_s] and 1 on (nT + tau_c + tau_s, (n+1)T],
    with T = tau_c + tau_s + tau_d.  Segment endpoints belong to the segment
    they close (half-open on the left), and f is extended T-periodically,
    so f(0) = f(T) = 1.

    ``cycle_split`` is the one runtime map from a time into the cycle;
    every closed form (the drive integral, the closed pair, the Markov
    envelope, the phase profile) is built from its four values.  The
    pointwise drive value and the piecewise walk over an interval are kept
    as test oracles (``drive_value`` and ``drive_pieces`` in
    tests/oracles.py).
    """

    tau_c: float
    tau_s: float
    tau_d: float

    def __post_init__(self):
        if not (0 < self.tau_c < math.inf and 0 < self.tau_d < math.inf):
            raise ValueError("tau_c and tau_d must be positive and finite")
        if not 0 <= self.tau_s < math.inf:
            raise ValueError("tau_s must be nonnegative and finite")

    @property
    def period(self) -> float:
        return self.tau_c + self.tau_s + self.tau_d

    @property
    def omega_T(self) -> float:
        return 2.0 * math.pi / self.period

    def segments(self):
        """Per-cycle (duration, f) pairs, zero-length segments omitted."""
        segs = [(self.tau_c, 1.0)]
        if self.tau_s > 0:
            segs.append((self.tau_s, 0.0))
        segs.append((self.tau_d, 1.0))
        return segs

    def cycle_split(self, t):
        """(n, charge, store, discharge) of t; t scalar or array.

        n is the number of whole periods before t and, with s = t - nT, the
        other three are the time t has spent in each segment of its current
        period: min(s, tau_c), clip(s - tau_c, 0, tau_s) and
        max(s - tau_c - tau_s, 0).  Each is continuous in t, so a time that
        rounds to either side of a segment or period edge gives the same
        closed forms.  Non-finite or negative times raise ValueError.
        """
        ts = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(ts) & (ts >= 0)):
            raise ValueError("protocol is defined for finite t >= 0")
        n = np.floor(ts / self.period)
        s = ts - n * self.period
        return (n, np.minimum(s, self.tau_c),
                np.clip(s - self.tau_c, 0.0, self.tau_s),
                np.maximum(s - self.tau_c - self.tau_s, 0.0))

    def drive_integral(self, t):
        """Closed form of int_0^t f(tau) dtau (piecewise linear, continuous)."""
        n, charge, _, discharge = self.cycle_split(t)
        out = n * (self.tau_c + self.tau_d) + (charge + discharge)
        return float(out) if np.ndim(t) == 0 else out


def optimal_schedule(
    kappa: float,
    delta: float,
    tau_s: float | None = None,
) -> ProtocolSchedule:
    """Schedule making each cycle return the pair to its initial state.

    Charging and discharging windows satisfy Omega*tau = pi/2 with
    Omega = sqrt(kappa^2 + delta^2); the storage window satisfies
    |delta|*tau_s = pi.  At delta = 0 the storage duration is free and must
    be supplied explicitly via ``tau_s``; an explicit ``tau_s`` also
    overrides that window when delta != 0.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    half_swap = 0.5 * math.pi / math.hypot(kappa, delta)
    if tau_s is None:
        if delta == 0.0:
            raise ValueError(
                "storage duration is unconstrained at delta = 0; pass tau_s"
            )
        tau_s = math.pi / abs(delta)
    return ProtocolSchedule(tau_c=half_swap, tau_s=float(tau_s),
                            tau_d=half_swap)
