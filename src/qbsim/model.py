"""Core model definitions: two-level pair and cyclic drive protocol.

Units: hbar = 1 throughout, so energies and angular frequencies coincide.
"""

import math
from dataclasses import dataclass

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

    def evaluate(self, t: float) -> int:
        if t < 0:
            raise ValueError("protocol is defined for t >= 0")
        T = self.period
        s = math.fmod(t, T)
        if s <= 0.0:
            s = T  # t = nT maps to the discharging endpoint
        if s <= self.tau_c:
            return 1
        if s <= self.tau_c + self.tau_s:
            return 0
        return 1

    def pieces(self, t0: float, t1: float):
        """(duration, f) pieces covering [t0, t1], split at segment boundaries."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t0 < 0:
            raise ValueError("times must be nonnegative")
        T = self.period
        edges = [0.0, self.tau_c, self.tau_c + self.tau_s, T]
        out = []
        t = t0
        while t < t1 - 1e-15 * max(1.0, t1):
            n = math.floor(t / T)
            # t exactly on a period boundary can round t/T to just below an
            # integer; re-anchor to the next period or nxt would equal t.
            if (n + 1) * T <= t + 1e-12 * T:
                n += 1
            nxt = min(t1, (n + 1) * T)
            for e in edges:
                cand = n * T + e
                if cand > t + 1e-12 * T:
                    nxt = min(nxt, cand)
                    break
            mid = 0.5 * (t + nxt)
            out.append((nxt - t, self.evaluate(mid)))
            t = nxt
        return out

    def drive_integral(self, t: float) -> float:
        """Closed form of int_0^t f(tau) dtau (piecewise linear, continuous)."""
        if t < 0:
            raise ValueError("protocol is defined for t >= 0")
        T = self.period
        n = math.floor(t / T)
        s = t - n * T
        partial = min(s, self.tau_c) + max(0.0, s - self.tau_c - self.tau_s)
        return n * (self.tau_c + self.tau_d) + partial


def optimal_schedule(
    kappa: float,
    delta: float,
    n1: int = 0,
    n2: int = 1,
    n3: int = 0,
    tau_s: float | None = None,
) -> ProtocolSchedule:
    """Schedule making each cycle return the pair to its initial state.

    Charging and discharging windows satisfy Omega*tau = (1/2 + n)*pi with
    Omega = sqrt(kappa^2 + delta^2); the storage window satisfies
    delta*tau_s = n2*pi.  At delta = 0 the storage duration is free and must
    be supplied explicitly via ``tau_s``; an explicit ``tau_s`` also
    overrides n2 when delta != 0.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if n1 < 0 or n3 < 0:
        raise ValueError("n1 and n3 must be nonnegative integers")
    omega = math.hypot(kappa, delta)
    tc = (0.5 + n1) * math.pi / omega
    td = (0.5 + n3) * math.pi / omega
    if tau_s is None:
        if delta == 0.0:
            raise ValueError(
                "storage duration is unconstrained at delta = 0; pass tau_s"
            )
        if n2 < 1:
            raise ValueError("n2 must be a positive integer")
        tau_s = n2 * math.pi / abs(delta)
    return ProtocolSchedule(tau_c=tc, tau_s=float(tau_s), tau_d=td)

