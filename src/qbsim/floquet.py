"""Stroboscopic analysis: quasienergies, bound states, asymptotic energy.

Quasienergies are folded into the zone (-omega_T/2, omega_T/2].

``compute_spectrum`` never forms the full-basis U_T.  Every bath mode
couples with the same g/N, so within a frequency shell (a set of
degenerate modes, ``LatticeEnvironment.shells``) only the uniform
superposition couples to the pair: U_T is diagonalized on these bright
shell modes, 2 + 2S dimensions for S shells (124 instead of 802 at
N = 20).  The spectrum lists all d quasienergies: the m_s - 1 dark
combinations of each shell and bath are uncoupled, with quasienergy
fold(omega_s) and system weight 0.  It stores an eigenvector, on the
shells, only for a coupled mode whose weight reaches its threshold, a
superset of the bound states; no runtime path expands one to the
lattice basis (a shell amplitude a_s would spread over the m_s members
of its shell as a_s / sqrt(m_s)).

The spectrum is built on the eigensystem that samples its modes: the
``dynamics.SegmentPropagators`` of the run, whose (1 + S) arrowhead
blocks diagonalize the shell Hamiltonian at f = 1 and f = 0, and whose
overlap V_0^T V_1 is assembled from those blocks.  One path serves every
detuning: U_T is diagonalized once per block of that overlap.  At zero
detuning the blocks are the symmetric/antisymmetric sectors, so every
bound state is exactly sector-pure, even when the two bound-state
quasienergies are degenerate; a detuned overlap is one 2 + 2S block.
``resonant_spectrum`` is the zero-detuning entry to the same path.

Each spectrum block is diagonalized through one real symmetric
eigenproblem (``_unitary_eigh``).  The 1-0-1 drive makes U_T similar to
the complex symmetric unitary U'' = P Q P, P = U_0(tau_s/2) and Q =
U_1(tau_c + tau_d), whose parts X = Re(U'') and Y = Im(U'') are commuting
real symmetric matrices.  The ``eigh`` of X gives orthonormal real
eigenvectors O; one product each of X and Y with O gives every eigenvalue
and residual, and takes apart on Y the modes that ``eigh`` mixed with
their mirror images.

``one_period_operator`` and ``quasienergy_spectrum`` work in the full
basis, through a complex Schur factorization of U_T; they are the
reference the shell path is checked against, and the only full-basis
code here.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (SegmentPropagators, _build_grid, _real_matmul,
                       build_hamiltonian, check_memory)
from .environment import LatticeEnvironment
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
    "decompose_energy_terms",
]

# largest ||phi(T) - e^{-i eps T} phi(0)|| accepted from an eigenpair of U_T
_CLOSURE_TOL = 1e-6
_SPLIT_FLAG = 2e-13  # residual that sends a mode to the split on Im(U'')


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
    """Folded image of the bath band [lo, hi] on the quasienergy circle.

    ``lo`` is the folded lower edge and ``width`` = hi - lo the band's own
    width; a band at least omega_T wide covers the whole circle, and
    ``distance`` is then 0 for every quasienergy.
    """

    lo: float
    hi: float
    omega_T: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def distance(self, eps):
        """Circle distance from eps to the folded band (0 inside)."""
        x = np.mod(np.asarray(eps, dtype=float) - self.lo, self.omega_T)
        out = np.where(x <= self.width, 0.0,
                       np.minimum(x - self.width, self.omega_T - x))
        return float(out) if np.ndim(eps) == 0 else out


@dataclass
class QuasienergySpectrum:
    """Eigensystem of one drive period, sorted by quasienergy.

    ``vectors`` holds the eigenvectors in the basis they were computed in:
    the shell basis (battery, charger, the S battery-bath shells, the S
    charger-bath shells) from ``compute_spectrum``, the full basis from
    the ``quasienergy_spectrum`` reference; either way rows 0 and 1 are
    the battery and charger amplitudes.  ``columns[j]`` is the column of
    sorted mode j, or -1 if it has no stored vector: a dark mode, or one
    below the spectrum's threshold.
    """

    quasienergies: np.ndarray  # (d,)
    system_weights: np.ndarray
    omega_T: float
    band: BandSupport
    vectors: np.ndarray        # (n, n_stored)
    columns: np.ndarray        # (d,) column of each mode in vectors, or -1
    fbs_indices: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.quasienergies.size


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
    # imported here: no shell path needs scipy.linalg, and loading it costs
    # every run about 6 MiB and 50 ms of start-up
    from scipy import linalg as sla
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
    """Eigendecompose a one-period operator (any detuning).

    A lattice mode on the zone edge comes out of the Schur form a few ulps
    to either side of it; quasienergies within 8 ulps of -omega_T/2 are
    folded to +omega_T/2, where ``compute_spectrum`` puts such modes.
    """
    eps, vecs = _folded_schur(u_t, schedule)
    edge = 0.5 * schedule.omega_T
    eps = np.where(eps < -edge + 8 * np.spacing(edge), edge, eps)
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


def _full_basis_spectrum(eps, weights, kept, vecs, shells, schedule, env):
    """Full-basis spectrum from the bright-shell eigenpairs.

    ``vecs`` holds the eigenvectors of the ``kept`` modes in the shell
    basis (battery, charger, the S battery-bath shells, the S charger-bath
    shells) and stays there.  Each bath adds m_s - 1 dark modes per shell
    at fold(omega_s) with weight 0.  Modes come out sorted by quasienergy,
    as in ``quasienergy_spectrum``.
    """
    dark_eps = fold_quasienergy(
        np.repeat(shells.frequencies, shells.multiplicities - 1),
        schedule.omega_T)
    all_eps = np.concatenate([eps, dark_eps, dark_eps])
    order = np.argsort(all_eps, kind="stable")
    all_weights = np.zeros(all_eps.size)
    all_weights[:eps.size] = weights
    columns = np.full(all_eps.size, -1)
    columns[np.flatnonzero(kept)] = np.arange(vecs.shape[1])
    return QuasienergySpectrum(quasienergies=all_eps[order],
                               system_weights=all_weights[order],
                               omega_T=schedule.omega_T,
                               band=_folded_band(env, schedule),
                               vectors=vecs, columns=columns[order])


def _rayleigh(o, xo, yo):
    """lambda_j = o_j^T U'' o_j and the residuals ||U'' o_j - lambda_j o_j||
    of the orthonormal real columns o_j, from X o and Y o, X + iY = U''
    (overwritten with the residuals' real and imaginary parts)."""
    lam = np.einsum("kj,kj->j", o, xo) + 1j * np.einsum("kj,kj->j", o, yo)
    xo -= lam.real * o
    yo -= lam.imag * o
    res = np.einsum("kj,kj->j", xo, xo) + np.einsum("kj,kj->j", yo, yo)
    return lam, np.sqrt(res)


def _unitary_eigh(w, d, h):
    """Eigenvalues, real orthonormal eigenvectors o_j and the largest
    eigenpair residual of the symmetric unitary U'' = H W D W^T H, for a
    real W and unitary diagonals H = diag(h), D = diag(d).

    X = Re(U'') and Y = Im(U'') are real symmetric and commute.  U'' is
    freed once split; one ``eigh`` of X gives the o_j, and X o and Y o (X
    and Y freed once multiplied) the lambda_j and residuals.  X's
    eigenvalues cos(phi_j), lambda_j = e^{i phi_j}, are 2-to-1, so ``eigh``
    can mix a mode with its mirror image conj(lambda_j).  Each run C of
    consecutive modes with residuals above ``_SPLIT_FLAG`` is rotated by
    the eigenvectors of o_C^T Y o_C, from its residuals, unless that fails
    to lower the run's largest residual.
    """
    u = _real_matmul(w, np.multiply(d[:, None], w.T, order="C"))
    u *= h[:, None]
    u *= h
    x, y = u.real.copy(), u.imag.copy()
    del u
    o = np.linalg.eigh(x)[1]  # reads the lower triangle
    yo = y @ o
    del y
    xo = x @ o
    del x
    lam, residual = _rayleigh(o, xo, yo)
    flagged = np.flatnonzero(residual > _SPLIT_FLAG)
    for run in np.split(flagged, np.flatnonzero(np.diff(flagged) > 1) + 1):
        if run.size > 1:
            oc = o[:, run]
            xc = xo[:, run] + lam[run].real * oc
            yc = yo[:, run] + lam[run].imag * oc
            v = np.linalg.eigh(oc.T @ yc)[1]  # reads the lower triangle
            oc, xc, yc = oc @ v, xc @ v, yc @ v
            lam_c, res_c = _rayleigh(oc, xc, yc)
            if res_c.max() < residual[run].max():
                o[:, run], lam[run], residual[run] = oc, lam_c, res_c
    return lam, o, float(residual.max())


def _block_spectrum(w1, w0, ovl, schedule, readout, keep):
    """Folded quasienergies, system weights and kept modes of a block's U_T.

    ``w1`` and ``w0`` are the eigenvalues of a real symmetric shell block
    at f = 1 and f = 0, and ``ovl`` = V_0^T V_1 the real overlap of their
    eigenvectors.  The drive is 1-0-1, so in the frame Y = U_0(tau_s/2)
    U_1(tau_c), Y U_T Y^-1 = U'' = P Q P with P = U_0(tau_s/2) and Q =
    U_1(tau_c + tau_d), which ``_unitary_eigh`` forms in the f = 0
    eigenbasis as D_0 W D_1 W^T D_0 (W = ovl) and diagonalizes.  The modes
    are phi_j(0) = Y^-1 V_0 o_j = V_1 c_j; their weights come from the
    pair rows ``readout`` c_j (the battery and charger rows of V_1), as
    (m x 2) products, and the c_j are returned, with their boolean mask,
    only for weights >= ``keep``.  An eigenpair residual above
    ``_CLOSURE_TOL`` raises NotAnEigenpairError.
    """
    half = np.exp(-0.5j * schedule.tau_s * w0)
    lam, o, residual = _unitary_eigh(
        ovl, np.exp(-1j * (schedule.tau_c + schedule.tau_d) * w1), half)
    if residual > _CLOSURE_TOL:
        raise NotAnEigenpairError(residual=residual, tol=_CLOSURE_TOL)
    eps = fold_quasienergy(-np.angle(lam) / schedule.period, schedule.omega_T)
    start = np.exp(1j * schedule.tau_c * w1)
    pair = _real_matmul(o.T, np.conj(half)[:, None]  # row j: mode j's pair
                        * _real_matmul(ovl, start[:, None] * readout.T))
    weights = np.abs(pair[:, 0]) ** 2 + np.abs(pair[:, 1]) ** 2
    kept = weights >= keep
    coeffs = _real_matmul(ovl.T, np.conj(half)[:, None] * o[:, kept])
    coeffs *= start[:, None]
    return eps, weights, kept, coeffs


def resonant_spectrum(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    props: SegmentPropagators | None = None,
) -> QuasienergySpectrum:
    """``_shell_spectrum`` at zero detuning, keeping the vectors of weight
    >= 0.05; ValueError at any other detuning."""
    if params.delta != 0.0:
        raise ValueError("resonant_spectrum requires zero detuning")
    return _shell_spectrum(params, env, schedule, props, keep=0.05)


def _shell_spectrum(params, env, schedule, props, keep):
    """Spectrum on the bright shells at any detuning: U_T diagonalized once
    per block of ``props.overlap()`` (``props`` built here if None), and
    the modes with system weight >= ``keep`` expanded in one ``expand``."""
    if props is None:
        props = SegmentPropagators(params, env)
    n = props.evals[1.0].size
    eps, weights, kept, parts = np.empty(n), np.empty(n), np.empty(n, bool), []
    for cols, ovl in props.overlap():
        w1, w0 = (props.evals[f][cols] for f in (1.0, 0.0))
        eps[cols], weights[cols], kept[cols], c = _block_spectrum(
            w1, w0, ovl, schedule, props.readout[1.0][:, cols], keep)
        parts.append(np.zeros((n, c.shape[1]), dtype=complex))
        parts[-1][cols] = c  # zero on the other blocks' rows
    vecs = props.expand(1.0, np.hstack(parts))
    return _full_basis_spectrum(eps, weights, kept, vecs, props.shells,
                                schedule, env)


def compute_spectrum(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    weight_threshold: float = 0.05,
    gap_tolerance: float | None = None,
    props: SegmentPropagators | None = None,
) -> QuasienergySpectrum:
    """Full-basis spectrum with FBS classification, built on the shells
    from the eigensystem of ``props`` (built here if not given), which
    ``fbs_floquet_modes`` can then reuse; MemoryCapError, before any
    matrix is built, if they would not fit.  Only modes of system weight
    >= ``weight_threshold`` keep their eigenvectors.  The arguments that
    ``identify_fbs`` rejects raise ValueError before any work."""
    _check_fbs_args(weight_threshold, gap_tolerance)
    check_memory(env, params.delta, spectrum=True)
    spec = _shell_spectrum(params, env, schedule, props, weight_threshold)
    idx = identify_fbs(spec, weight_threshold=weight_threshold,
                       gap_tolerance=gap_tolerance)
    return replace(spec, fbs_indices=idx)


def _check_fbs_args(weight_threshold, gap_tolerance):
    if not 0.0 < weight_threshold <= 1.0:
        raise ValueError(f"weight_threshold must lie in (0, 1], "
                         f"got {weight_threshold}")
    if gap_tolerance is not None and not gap_tolerance >= 0.0:
        raise ValueError(f"gap_tolerance must be >= 0, got {gap_tolerance}")


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
    _check_fbs_args(weight_threshold, gap_tolerance)
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
    grid at T / n_samples, which raises ValueError unless every drive
    segment is a whole number of them.  One ``march`` over the period
    gives the battery and charger amplitudes at the offsets and phi(T) for
    the closure residual.
    """
    if props is None:
        props = SegmentPropagators(params, env)
    T = schedule.period
    n = props.evals[1.0].size
    phi0 = np.asarray(phi0, dtype=complex)
    if phi0.shape != (n,):
        raise ValueError(f"phi0 must be a shell vector of size 2 + 2S = {n}, "
                         f"got shape {phi0.shape}")
    h, _, f_step = _build_grid(schedule, T, T / n_samples)
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
    spectrum (``compute_spectrum``), sampled from its stored vectors;
    ValueError for a bound state with none (flagged by ``identify_fbs``
    below the threshold the spectrum was built with)."""
    if spectrum.fbs_indices is None:
        raise ValueError("spectrum has no FBS classification; "
                         "run identify_fbs/compute_spectrum first")
    if np.any(spectrum.columns[spectrum.fbs_indices] < 0):
        raise ValueError("a bound state has no stored vector: build the "
                         "spectrum at a threshold no higher than identify_fbs")
    if props is None:
        props = SegmentPropagators(params, env)
    return [
        floquet_mode(params, env, schedule,
                     spectrum.vectors[:, spectrum.columns[j]],
                     spectrum.quasienergies[j], n_samples=n_samples, props=props)
        for j in spectrum.fbs_indices
    ]


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
    """Split the asymptotic energy into j=j' and j!=j' contributions.

    The energy carried by the bound states is E(t) = omega_b |sum_j
    c_j e^{-i eps_j t} <battery|phi_j(t)>|^2 (``total``), with c_j =
    <phi_j(0)|charger> the overlap with the charger-excited start; an
    empty mode list gives zero (complete discharge into the band).
    """
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    coeffs = np.empty(len(modes), dtype=complex)
    amps = np.empty((len(modes), ts_arr.size), dtype=complex)
    elements = np.empty((len(modes), ts_arr.size))
    for j, mode in enumerate(modes):
        battery = mode.battery_amplitudes[mode.offset_index(ts_arr)]
        coeffs[j] = np.conj(mode.phi0[1])
        amps[j] = coeffs[j] * np.exp(-1j * mode.epsilon * ts_arr) * battery
        elements[j] = np.abs(battery) ** 2
    omega_b = modes[0].omega_b if modes else 0.0  # no modes: all zero
    diagonal = omega_b * np.abs(amps) ** 2
    total = omega_b * np.abs(amps.sum(axis=0)) ** 2
    interference = total - diagonal.sum(axis=0)
    return EnergyDecomposition(times=ts_arr, diagonal=diagonal,
                               interference=interference, total=total,
                               elements=elements, coefficients=coeffs)
