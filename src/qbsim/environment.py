"""Square-lattice boson environments: dispersion, spectral density, kernels.

Each two-level emitter couples with uniform strength g/N to the N x N
momentum modes of its own 2D tight-binding bath,

    omega_k = varpi - 2 q (cos k_x + cos k_y),

which in the continuum limit produces a spectral density supported on
|omega - varpi| <= 4q with a logarithmic van Hove singularity at the band
center and a complete elliptic integral profile.

Because the coupling is the same for every mode, only the uniform
superposition of each set of degenerate modes (a frequency shell) couples
to the emitter; ``LatticeEnvironment.shells`` groups the modes.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

__all__ = [
    "LatticeEnvironment",
    "spectral_density",
    "memory_kernel_discrete",
    "memory_kernel_continuum",
]


# shell grouping tolerance, relative to |varpi| + 4q (the bound on |omega_k|)
SHELL_TOLERANCE = 1e-12


class Shells(NamedTuple):
    """Degenerate sets of bath modes, in increasing frequency."""

    frequencies: np.ndarray     # (S,) mean omega_k of each shell
    multiplicities: np.ndarray  # (S,) member count m_s
    index: np.ndarray           # (N^2,) shell of each mode, row-major order


@dataclass(frozen=True)
class LatticeEnvironment:
    """N x N lattice bath attached identically to battery and charger."""

    n_side: int
    varpi: float
    q: float
    g: float

    def __post_init__(self):
        # chained comparisons fail for NaN as well as out of range
        if not self.n_side >= 1:
            raise ValueError("n_side must be >= 1")
        if not math.isfinite(self.varpi):
            raise ValueError("band center varpi must be finite")
        if not 0 < self.q < math.inf:
            raise ValueError("hopping q must be positive and finite")
        if not 0 <= self.g < math.inf:
            raise ValueError("coupling g must be nonnegative and finite")

    @property
    def n_modes(self) -> int:
        return self.n_side**2

    @property
    def coupling_per_mode(self) -> float:
        return self.g / self.n_side

    @property
    def band_edges(self) -> tuple[float, float]:
        return (self.varpi - 4.0 * self.q, self.varpi + 4.0 * self.q)

    def mode_frequencies(self) -> np.ndarray:
        """omega_k on the row-major momentum grid, shape (N^2,)."""
        m = np.arange(self.n_side)
        ck = np.cos(2.0 * np.pi * m / self.n_side)
        return (self.varpi - 2.0 * self.q * (ck[:, None] + ck[None, :])).ravel()

    def shells(self) -> Shells:
        """Group the modes into shells of equal frequency.

        Sorted frequencies start a new shell where they step by more than
        SHELL_TOLERANCE * (|varpi| + 4q); degenerate modes differ only by
        rounding (about 1e-15).  There are 19, 61, 111 and 1301 shells at
        n_side = 10, 20, 30 and 100, at every tolerance from 1e-13 to 1e-10.
        """
        w = self.mode_frequencies()
        order = np.argsort(w, kind="stable")
        tol = SHELL_TOLERANCE * (abs(self.varpi) + 4.0 * self.q)
        starts = np.flatnonzero(np.diff(w[order], prepend=-np.inf) > tol)
        mult = np.diff(starts, append=w.size)
        index = np.empty(w.size, dtype=int)
        index[order] = np.repeat(np.arange(starts.size), mult)
        freqs = np.add.reduceat(w[order], starts) / mult
        return Shells(frequencies=freqs, multiplicities=mult, index=index)


def spectral_density(env: LatticeEnvironment, omega):
    """Continuum spectral density J(omega) of either bath.

    J = g^2/(2 q pi^2) * K(1 - (omega - varpi)^2 / (16 q^2)) on the band,
    zero outside (band edges included, where J = g^2/(4 pi q)).  At the
    band center omega = varpi the value is logarithmically divergent and
    +inf is returned rather than raising.  K(1 - m1) is taken from the
    complementary parameter m1 directly (``ellipkm1``), which avoids the
    cancellation in 1 - m near the logarithmic point m -> 1.
    """
    om = np.asarray(omega, dtype=float)
    u = om - env.varpi
    out = np.zeros_like(om)
    inside = np.abs(u) <= 4.0 * env.q
    center = u == 0.0
    reg = inside & ~center
    if np.any(reg):
        m1 = np.minimum((u[reg] / (4.0 * env.q)) ** 2, 1.0)
        # m1 underflows only for |omega - varpi| < ~1e-154: effectively center
        m1 = np.maximum(m1, 5e-324)
        out[reg] = env.g**2 / (2.0 * env.q * np.pi**2) * special.ellipkm1(m1)
    out[center] = np.inf
    return float(out) if np.ndim(omega) == 0 else out


def memory_kernel_discrete(env: LatticeEnvironment, x):
    """Finite-lattice memory kernel nu(x) = (g/N)^2 sum_k exp(-i omega_k x).

    The double momentum sum factorizes per axis, giving O(N) cost per x.
    Accepts scalar or array x (any sign); nu(-x) = conj(nu(x)).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    m = np.arange(env.n_side)
    ck = np.cos(2.0 * np.pi * m / env.n_side)
    # sum_k exp(-i omega_k x) = exp(-i varpi x) * S(x)^2, S = sum_m e^{2iq x cos}
    s_axis = np.exp(2j * env.q * xs[:, None] * ck[None, :]).sum(axis=1)
    nu = (env.g / env.n_side) ** 2 * np.exp(-1j * env.varpi * xs) * s_axis**2
    return complex(nu[0]) if np.ndim(x) == 0 else nu


def memory_kernel_continuum(env: LatticeEnvironment, x):
    """Continuum-limit kernel nu(x) = int J(omega) exp(-i omega x) domega.

    The transform of the square-lattice density of states factorizes per
    axis, like the discrete sum, into nu(x) = g^2 exp(-i varpi x) J0(2 q x)^2.
    Accepts scalar or array x (any sign); nu(-x) = conj(nu(x)).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    nu = env.g**2 * special.j0(2.0 * env.q * xs) ** 2 * np.exp(-1j * env.varpi * xs)
    return complex(nu[0]) if np.ndim(x) == 0 else nu
