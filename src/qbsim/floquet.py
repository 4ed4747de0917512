"""Stroboscopic analysis: quasienergies, bound states, asymptotic energy.

The one-period operator U_T is unitary, so its eigendecomposition is taken
through a complex Schur factorization (which for a normal matrix is the
eigendecomposition with rigorously orthonormal vectors, also inside
quasi-degenerate clusters of the folded bath band).  Quasienergies are
folded into the zone (-omega_T/2, omega_T/2].

``compute_spectrum`` never forms the full-basis U_T.  Every bath mode
couples with the same g/N, so within a frequency shell (a set of
degenerate modes, ``LatticeEnvironment.shells``) only the uniform
superposition couples to the pair: U_T is diagonalized on these bright
shell modes, 2 + 2S dimensions for S shells (124 instead of 802 at
N = 20).  The spectrum keeps these coupled eigenvectors on the shells and
lists all d quasienergies: the m_s - 1 dark combinations of each shell
and bath are uncoupled, with quasienergy fold(omega_s) and system weight
0, and no vector is stored for them.  ``QuasienergySpectrum.mode`` expands
a coupled mode to the full basis, spreading a bright amplitude over its
shell as a_s / sqrt(m_s).  At zero detuning ``resonant_spectrum``
also splits the symmetric/antisymmetric sectors (blocks of 1 + S), so
every bound state is exactly sector-pure, even when the two bound-state
quasienergies are degenerate.

``one_period_operator`` and ``quasienergy_spectrum`` work in the full
basis; they are the reference the shell path is checked against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg as sla

from .dynamics import (SegmentPropagators, _bath_arrays, _build_grid,
                       _pair_hamiltonian, _sector_hamiltonian,
                       build_hamiltonian, check_memory)
from .environment import LatticeEnvironment, Shells
from .errors import NotAnEigenpairError
from .model import ProtocolSchedule, SystemParams

__all__ = [
    "BandSupport",
    "QuasienergySpectrum",
    "FloquetMode",
    "EnergyDecomposition",
    "fold_quasienergy",
    "circular_distance",
    "one_period_operator",
    "quasienergy_spectrum",
    "resonant_spectrum",
    "compute_spectrum",
    "identify_fbs",
    "floquet_mode",
    "fbs_floquet_modes",
    "asymptotic_energy",
    "decompose_energy_terms",
]

# largest ||phi(T) - e^{-i eps T} phi(0)|| accepted from an eigenpair of U_T
_CLOSURE_TOL = 1e-6


def fold_quasienergy(eps, omega_T: float):
    """Map quasienergies into the zone (-omega_T/2, omega_T/2]."""
    e = np.mod(np.asarray(eps, dtype=float) + 0.5 * omega_T, omega_T) - 0.5 * omega_T
    e = np.where(e == -0.5 * omega_T, 0.5 * omega_T, e)
    return float(e) if np.ndim(eps) == 0 else e


def circular_distance(e1, e2, omega_T: float):
    """Distance between quasienergies on the zone circle."""
    d = np.abs(np.mod(np.asarray(e1) - np.asarray(e2) + 0.5 * omega_T, omega_T)
               - 0.5 * omega_T)
    return float(d) if np.ndim(d) == 0 else d


@dataclass(frozen=True)
class BandSupport:
    """Folded image of the bath band [lo, hi] on the quasienergy circle."""

    lo: float
    hi: float
    omega_T: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def covers_zone(self) -> bool:
        return self.width >= self.omega_T

    def distance(self, eps):
        """Circle distance from eps to the folded band (0 inside)."""
        if self.covers_zone:
            out = np.zeros_like(np.asarray(eps, dtype=float))
            return float(out) if np.ndim(eps) == 0 else out
        x = np.mod(np.asarray(eps, dtype=float) - self.lo, self.omega_T)
        out = np.where(x <= self.width, 0.0,
                       np.minimum(x - self.width, self.omega_T - x))
        return float(out) if np.ndim(eps) == 0 else out


@dataclass
class QuasienergySpectrum:
    """Eigensystem of one drive period, sorted by quasienergy.

    ``vectors`` holds the eigenvectors in the basis they were computed in:
    the shell basis (battery, charger, the S battery-bath shells, the S
    charger-bath shells) when ``shells`` is set, the full basis otherwise.
    ``columns[j]`` is the column of sorted mode j, or -1 for a dark mode,
    which has no stored vector.
    """

    quasienergies: np.ndarray  # (d,)
    system_weights: np.ndarray
    omega_T: float
    band: BandSupport
    vectors: np.ndarray        # (n, n_coupled)
    columns: np.ndarray        # (d,) column of each mode in vectors, or -1
    shells: Shells | None = None
    fbs_indices: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.quasienergies.size

    def mode(self, j: int) -> np.ndarray:
        """Full-basis eigenvector of the coupled mode j.

        A shell amplitude a_s spreads over the m_s members of its shell as
        a_s / sqrt(m_s), in the layout of ``build_hamiltonian``.
        """
        col = self.columns[j]
        if col < 0:
            raise ValueError(f"mode {j} is dark: it has no stored vector")
        v = self.vectors[:, col]
        if self.shells is None:
            return v
        idx, n_sh = self.shells.index, self.shells.frequencies.size
        scale = 1.0 / np.sqrt(self.shells.multiplicities)[idx]
        return np.concatenate([v[:2], scale * v[2 + idx],
                               scale * v[2 + n_sh + idx]])


def one_period_operator(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
) -> np.ndarray:
    """U_T = U(tau_d; f=1) U(tau_s; f=0) U(tau_c; f=1), in the full basis.

    Built from dense eigendecompositions of ``build_hamiltonian``, with no
    shell reduction, so it stays an independent check of the shell paths.
    """
    return _small_period_operator(
        lambda f: build_hamiltonian(params, env, f), schedule)


def _folded_schur(u, schedule):
    """Schur vectors of a one-period operator and their folded quasienergies."""
    t_mat, q_mat = sla.schur(u, output="complex")
    lam = np.diag(t_mat)
    eps = fold_quasienergy(-np.angle(lam) / schedule.period, schedule.omega_T)
    return eps, q_mat


def _folded_band(env, schedule):
    lo, hi = env.band_edges
    lo_f = fold_quasienergy(lo, schedule.omega_T)
    return BandSupport(lo=lo_f, hi=lo_f + (hi - lo), omega_T=schedule.omega_T)


def quasienergy_spectrum(
    u_t: np.ndarray, schedule: ProtocolSchedule, env: LatticeEnvironment
) -> QuasienergySpectrum:
    """Eigendecompose a one-period operator (any detuning)."""
    eps, vecs = _folded_schur(u_t, schedule)
    order = np.argsort(eps, kind="stable")
    vecs = vecs[:, order]
    weights = np.abs(vecs[0]) ** 2 + np.abs(vecs[1]) ** 2
    return QuasienergySpectrum(quasienergies=eps[order],
                               system_weights=weights,
                               omega_T=schedule.omega_T,
                               band=_folded_band(env, schedule),
                               vectors=vecs, columns=np.arange(eps.size))


def _small_period_operator(hamiltonian, schedule):
    """U_T from the eigendecompositions of hamiltonian(f), f = 1 and 0;
    each distinct (f, duration) step is formed once."""
    mats = {f: np.linalg.eigh(hamiltonian(f)) for f in (1.0, 0.0)}
    steps, u = {}, None
    for dur, f in schedule.segments():
        step = steps.get((f, dur))
        if step is None:
            w, v = mats[f]
            step = steps[(f, dur)] = (v * np.exp(-1j * w * dur)) @ v.T
        u = step if u is None else step @ u
    return u


def _full_basis_spectrum(eps, vecs, shells, schedule, env):
    """Full-basis spectrum from the bright-shell eigenpairs.

    ``vecs`` holds eigenvectors in the shell basis (battery, charger, the
    S battery-bath shells, the S charger-bath shells) and stays there.
    Each bath adds m_s - 1 dark modes per shell at fold(omega_s) with
    weight 0.  Modes come out sorted by quasienergy, as in
    ``quasienergy_spectrum``.
    """
    dark_eps = fold_quasienergy(
        np.repeat(shells.frequencies, shells.multiplicities - 1),
        schedule.omega_T)
    all_eps = np.concatenate([eps, dark_eps, dark_eps])
    order = np.argsort(all_eps, kind="stable")
    weights = np.zeros(all_eps.size)
    weights[:eps.size] = np.abs(vecs[0]) ** 2 + np.abs(vecs[1]) ** 2
    return QuasienergySpectrum(quasienergies=all_eps[order],
                               system_weights=weights[order],
                               omega_T=schedule.omega_T,
                               band=_folded_band(env, schedule),
                               vectors=vecs,
                               columns=np.where(order < eps.size, order, -1),
                               shells=shells)


def resonant_spectrum(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
) -> QuasienergySpectrum:
    """Spectrum from the two decoupled sectors at zero detuning.

    Each sector's U_T is diagonalized on the bright shells (1 + S
    dimensions); a sector-s eigenvector (a_0, a_shells) is the pair state
    (a_0, s a_0) / sqrt 2 with baths (a_shells, s a_shells) / sqrt 2.
    """
    if params.delta != 0.0:
        raise ValueError("resonant_spectrum requires zero detuning")
    shells = env.shells()
    bath = _bath_arrays(env, shells)
    eps_all, vec_blocks = [], []
    s = 1.0 / math.sqrt(2.0)
    for sector in (+1, -1):
        u = _small_period_operator(
            lambda f: _sector_hamiltonian(params, bath, f, sector), schedule)
        eps, q_mat = _folded_schur(u, schedule)
        eps_all.append(eps)
        vec_blocks.append(np.concatenate([s * q_mat[:1], sector * s * q_mat[:1],
                                          s * q_mat[1:], sector * s * q_mat[1:]]))
    return _full_basis_spectrum(np.concatenate(eps_all),
                                np.concatenate(vec_blocks, axis=1),
                                shells, schedule, env)


def _detuned_spectrum(params, env, schedule):
    """Spectrum at any detuning from U_T on the bright shells (2 + 2S)."""
    shells = env.shells()
    bath = _bath_arrays(env, shells)
    u = _small_period_operator(
        lambda f: _pair_hamiltonian(params, bath, f), schedule)
    eps, q_mat = _folded_schur(u, schedule)
    return _full_basis_spectrum(eps, q_mat, shells, schedule, env)


def compute_spectrum(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    weight_threshold: float = 0.05,
    gap_tolerance: float | None = None,
) -> QuasienergySpectrum:
    """Full-basis spectrum with FBS classification, built on the shells;
    MemoryCapError, before any matrix is built, if they would not fit."""
    check_memory(env, params.delta)
    if params.delta == 0.0:
        spec = resonant_spectrum(params, env, schedule)
    else:
        spec = _detuned_spectrum(params, env, schedule)
    idx = identify_fbs(spec, weight_threshold=weight_threshold,
                       gap_tolerance=gap_tolerance)
    return replace(spec, fbs_indices=idx)


def identify_fbs(
    spectrum: QuasienergySpectrum,
    weight_threshold: float = 0.05,
    gap_tolerance: float | None = None,
) -> np.ndarray:
    """Indices of Floquet bound states.

    A mode qualifies when its system weight reaches ``weight_threshold``
    and its quasienergy is separated from the folded bath band by more
    than ``gap_tolerance`` (default: three mean folded-band level spacings).
    A threshold outside (0, 1] or a negative tolerance would flag uncoupled
    or in-band modes and raises ValueError.
    """
    if not 0.0 < weight_threshold <= 1.0:
        raise ValueError(f"weight_threshold must lie in (0, 1], "
                         f"got {weight_threshold}")
    if gap_tolerance is not None and not gap_tolerance >= 0.0:
        raise ValueError(f"gap_tolerance must be >= 0, got {gap_tolerance}")
    band = spectrum.band
    if gap_tolerance is None:
        n_bath = max(spectrum.dimension - 2, 1)
        arc = min(band.width, spectrum.omega_T)
        gap_tolerance = 3.0 * arc / n_bath
    dist = band.distance(spectrum.quasienergies)
    mask = (spectrum.system_weights >= weight_threshold) & (dist > gap_tolerance)
    return np.flatnonzero(mask)


@dataclass
class FloquetMode:
    """Periodic part phi(t) = e^{+i eps t} U_t phi(0), sampled over one period.

    ``offsets`` holds n_samples times j*T/n_samples (T excluded) and
    ``pair`` the battery and charger amplitudes of phi at each of them;
    ``phi0`` is phi(0) on the bright shells (battery, charger, the S
    battery-bath shells, the S charger-bath shells).  The closure residual
    ||phi(T) - phi(0)|| is stored at construction.  ``omega_b`` is the
    battery splitting that prices a battery population as energy.
    """

    epsilon: float
    phi0: np.ndarray
    offsets: np.ndarray
    pair: np.ndarray  # (n_samples, 2): battery, charger
    period: float
    omega_b: float
    closure_error: float

    @property
    def battery_amplitudes(self) -> np.ndarray:
        return self.pair[:, 0]

    def offset_index(self, t) -> np.ndarray:
        """Grid index of t mod T on the sampled offsets (must align)."""
        n = self.offsets.size
        step = self.period / n
        k = np.rint(np.mod(np.asarray(t, dtype=float), self.period) / step)
        misfit = np.abs(np.mod(np.asarray(t, dtype=float), self.period) - k * step)
        if np.any(misfit > 1e-8 * self.period):
            raise ValueError("sample times do not align with the mode's "
                             "period sampling")
        return np.asarray(k, dtype=int) % n


def floquet_mode(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    phi0: np.ndarray,
    epsilon: float,
    n_samples: int = 96,
    props: SegmentPropagators | None = None,
) -> FloquetMode:
    """Sample the periodic Floquet mode built on an eigenvector of U_T.

    ``phi0`` is the eigenvector on the bright shells, of size 2 + 2S (a
    stored column of ``QuasienergySpectrum.vectors``); any other size
    raises ValueError.  The samples are the steps of the ``_build_grid``
    grid at T / n_samples, which must take exactly n_samples steps per
    period: every drive segment a multiple of T / n_samples, else
    ValueError.  One ``march`` over the period gives the battery and
    charger amplitudes at the offsets and phi(T) for the closure residual.
    """
    if props is None:
        props = SegmentPropagators(params, env)
    T = schedule.period
    n = props.evals[1.0].size
    phi0 = np.asarray(phi0, dtype=complex)
    if phi0.shape != (n,):
        raise ValueError(f"phi0 must be a shell vector of size 2 + 2S = {n}, "
                         f"got shape {phi0.shape}")
    h, n_steps, f_step = _build_grid(schedule, T, T / n_samples)
    if n_steps != n_samples:
        raise ValueError(f"{n_samples} samples per period do not fit the "
                         f"drive segments: the grid has {n_steps} steps")
    pair, end = props.march(phi0, h, f_step)
    lam = np.exp(-1j * epsilon * T)
    residual = float(np.linalg.norm(end - lam * phi0))
    if residual > _CLOSURE_TOL:
        raise NotAnEigenpairError(residual=residual, tol=_CLOSURE_TOL)
    offsets = np.arange(n_samples) * h
    pair = pair[:-1] * np.exp(1j * epsilon * offsets)[:, None]
    # ||phi(T) - phi(0)|| coincides with the eigenpair residual
    return FloquetMode(epsilon=float(epsilon), phi0=phi0, offsets=offsets,
                       pair=pair, period=T, omega_b=params.omega_b,
                       closure_error=residual)


def fbs_floquet_modes(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    spectrum: QuasienergySpectrum,
    n_samples: int = 96,
    props: SegmentPropagators | None = None,
) -> list[FloquetMode]:
    """FloquetMode objects for every classified bound state of a shell
    spectrum (``compute_spectrum``), sampled from its stored vectors."""
    if spectrum.fbs_indices is None:
        raise ValueError("spectrum has no FBS classification; "
                         "run identify_fbs/compute_spectrum first")
    if props is None:
        props = SegmentPropagators(params, env)
    return [
        floquet_mode(params, env, schedule,
                     spectrum.vectors[:, spectrum.columns[j]],
                     spectrum.quasienergies[j], n_samples=n_samples, props=props)
        for j in spectrum.fbs_indices
    ]


def _mode_battery_terms(modes, ts):
    """c_j and c_j e^{-i eps_j t} <battery|phi_j(t mod T)> for each mode.

    c_j = <phi_j(0)|charger> is the overlap with the charger-excited start.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    amps = np.empty((len(modes), ts.size), dtype=complex)
    coeffs = np.empty(len(modes), dtype=complex)
    for j, mode in enumerate(modes):
        c = np.conj(mode.phi0[1])
        coeffs[j] = c
        idx = mode.offset_index(ts)
        amps[j] = c * np.exp(-1j * mode.epsilon * ts) * mode.battery_amplitudes[idx]
    return coeffs, amps


def asymptotic_energy(modes: list[FloquetMode], ts):
    """Long-time battery energy carried by the bound states.

    E(t) = omega_b * |sum_j c_j e^{-i eps_j t} <battery|phi_j(t)>|^2 with
    c_j the overlaps with the charger-excited start; an empty mode list
    gives zero (complete discharge into the band).
    """
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if not modes:
        out = np.zeros(ts_arr.size)
        return float(out[0]) if np.ndim(ts) == 0 else out
    _, amps = _mode_battery_terms(modes, ts_arr)
    e = modes[0].omega_b * np.abs(amps.sum(axis=0)) ** 2
    return float(e[0]) if np.ndim(ts) == 0 else e


@dataclass
class EnergyDecomposition:
    """Bound-state energy split into diagonal and interference parts.

    ``diagonal``/``interference`` are the weighted contributions and sum to
    ``total`` (the asymptotic energy); ``elements`` are the unweighted
    periodic matrix elements <phi_j(t)|battery occupation|phi_j(t)>.
    """

    times: np.ndarray
    diagonal: np.ndarray       # (M, n_t)
    interference: np.ndarray   # (n_t,)
    total: np.ndarray
    elements: np.ndarray       # (M, n_t)
    coefficients: np.ndarray   # (M,)


def decompose_energy_terms(modes: list[FloquetMode], ts
                           ) -> EnergyDecomposition:
    """Split the asymptotic energy into j=j' and j!=j' contributions."""
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if not modes:
        z = np.zeros(ts_arr.size)
        return EnergyDecomposition(times=ts_arr, diagonal=np.zeros((0, ts_arr.size)),
                                   interference=z, total=z.copy(),
                                   elements=np.zeros((0, ts_arr.size)),
                                   coefficients=np.zeros(0, dtype=complex))
    coeffs, amps = _mode_battery_terms(modes, ts_arr)
    omega_b = modes[0].omega_b
    diagonal = omega_b * np.abs(amps) ** 2
    total = omega_b * np.abs(amps.sum(axis=0)) ** 2
    interference = total - diagonal.sum(axis=0)
    elements = np.empty((len(modes), ts_arr.size))
    for j, mode in enumerate(modes):
        idx = mode.offset_index(ts_arr)
        elements[j] = np.abs(mode.battery_amplitudes[idx]) ** 2
    return EnergyDecomposition(times=ts_arr, diagonal=diagonal,
                               interference=interference, total=total,
                               elements=elements, coefficients=coeffs)
