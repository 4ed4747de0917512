"""Open-system dynamics in the single-excitation sector.

Two independent routes are provided and cross-validated:

* ``propagate_exact`` works on the bright frequency shells (2 + 2S
  dimensions for S shells, against 2 + 2N^2 for the full basis).  Per
  drive value the shell Hamiltonian splits, after a 2 x 2 rotation R_f of
  the battery/charger pair and of both baths, into two (1 + S) arrowhead
  blocks, each diagonalized once (``SegmentPropagators``).  The state is
  stepped in the eigenbasis of the current drive segment, a run of
  constant drive at a time: direct phase powers for its steps, one
  product for their pair amplitudes, and one real basis overlap per drive
  switch (numerically exact for the finite lattice).
  ``SegmentPropagators.march`` does the stepping on the ``_build_grid``
  grid; ``floquet.floquet_mode`` samples the Floquet modes with the same
  march over one period, and ``floquet.compute_spectrum`` builds U_T from
  the same block eigensystem.
* ``solve_volterra`` integrates the reduced pair of amplitude equations

      du_l/dt + i omega_l u_l + i kappa f(t) u_l' + int_0^t nu(t-s) u_l(s) ds = 0

  with a second-order predictor-corrector and trapezoidal memory sums.
  Step n costs one O(n) dot of the history against the kernel table and
  O(1) scalar work, so a run of m steps costs O(m^2).  With
  ``rotating=True`` it marches the same equations in the frame rotating
  at omega_0, at any detuning: kernel nu(x) exp(i omega_0 x), levels
  M(f) - omega_0 I.

Every route starts from the charger-excited state (u_c = 1, all else 0).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .environment import (LatticeEnvironment, memory_kernel_continuum,
                          memory_kernel_discrete)
from .errors import ConvergenceError, MemoryCapError
from .model import ProtocolSchedule, SystemParams

# bytes; the largest allocation a lattice propagation may request
MEMORY_CAP = 3e9
# check_memory's estimate in bytes per n^2, by (detuned, spectrum)
_BYTES_PER_N2 = {(False, False): 20, (True, False): 32,
                 (False, True): 28, (True, True): 80}
# steps per chunk of a constant-drive run in SegmentPropagators.march
_MARCH_CHUNK = 128

__all__ = [
    "EnergyTrace",
    "SegmentPropagators",
    "build_hamiltonian",
    "build_sector_hamiltonian",
    "default_time_step",
    "propagate_exact",
    "solve_volterra",
]


@dataclass
class EnergyTrace:
    """Sampled battery energy, with the pair amplitudes that produced it."""

    times: np.ndarray
    energies: np.ndarray
    metadata: dict = field(default_factory=dict)
    u_b: np.ndarray | None = None
    u_c: np.ndarray | None = None


def _bath_arrays(env: LatticeEnvironment, shells=None):
    """Bath frequencies and their couplings to the emitter.

    One entry per momentum mode (coupling g/N), or, given ``env.shells()``,
    one per frequency shell: the shell's uniform superposition, the only
    member combination that couples, with coupling (g/N) sqrt(m_s).
    """
    if shells is not None:
        return (shells.frequencies,
                env.coupling_per_mode * np.sqrt(shells.multiplicities))
    w = env.mode_frequencies()
    return w, np.full(w.size, env.coupling_per_mode)


def _pair_matrix(params: SystemParams, f_value: float) -> np.ndarray:
    """M(f): the battery and charger levels and their exchange kappa f."""
    return np.array([[params.omega_b, params.kappa * f_value],
                     [params.kappa * f_value, params.omega_c]])


def _arrowhead(apex: float, bath) -> np.ndarray:
    """(1 + S) block diag(apex, omega_s), the couplings g_s in its first row
    and column, for a bath given as (frequencies, couplings)."""
    w, gk = bath
    h = np.diag(np.concatenate(([apex], w)))
    h[0, 1:] = h[1:, 0] = gk
    return h


def _pair_hamiltonian(params: SystemParams, bath, f_value: float) -> np.ndarray:
    """Pair plus two baths given as (frequencies, couplings)."""
    w, gk = bath
    nb = w.size
    d = 2 + 2 * nb
    h = np.zeros((d, d))
    h[:2, :2] = _pair_matrix(params, f_value)
    idx_b = 2 + np.arange(nb)
    idx_c = 2 + nb + np.arange(nb)
    h[idx_b, idx_b] = w
    h[idx_c, idx_c] = w
    h[0, idx_b] = h[idx_b, 0] = gk
    h[1, idx_c] = h[idx_c, 1] = gk
    return h


def build_hamiltonian(
    params: SystemParams, env: LatticeEnvironment, f_value: float
) -> np.ndarray:
    """Dense single-excitation Hamiltonian for a frozen drive value.

    Real symmetric: all couplings (kappa f, g/N) are real.  The basis, of
    dimension d = 2 + 2 N^2, is battery (0), charger (1), the battery-bath
    modes (2 .. 1 + N^2) and the charger-bath modes (2 + N^2 .. 1 + 2 N^2),
    each bath in the row-major momentum order of ``mode_frequencies``.
    """
    return _pair_hamiltonian(params, _bath_arrays(env), f_value)


def build_sector_hamiltonian(
    params: SystemParams, env: LatticeEnvironment, f_value: float, sector: int
) -> np.ndarray:
    """(1 + N^2)-dimensional block of the resonant Hamiltonian.

    At delta = 0 the symmetric (+1) and antisymmetric (-1) combinations of
    battery/charger and of the two baths decouple; each is the arrowhead
    of its system level omega_0 + sector * kappa * f over the momentum
    modes.  A detuned ``params`` or a sector other than +/-1 raises
    ValueError.
    """
    if params.delta != 0.0:
        raise ValueError("sector decomposition requires zero detuning")
    if sector not in (+1, -1):
        raise ValueError("sector must be +1 or -1")
    return _arrowhead(params.omega_0 + sector * params.kappa * f_value,
                      _bath_arrays(env))


def default_time_step(
    params: SystemParams, env: LatticeEnvironment, schedule: ProtocolSchedule
) -> float:
    """Resolve the fastest phase and the shortest drive segment, /40, in
    whole steps of every segment (``_whole_step``)."""
    fastest = 2.0 * math.pi / (env.varpi + 4.0 * env.q + params.omega_0
                               + 2.0 * params.kappa)
    shortest = min(s for s, _ in schedule.segments())
    return _whole_step(schedule, min(shortest, fastest) / 40.0)


def _steps(length: float, dt: float) -> int:
    """round(length / dt), at least 1: the one rounding of a step count."""
    return max(1, round(length / dt))


def _whole_step(schedule: ProtocolSchedule, dt: float) -> float:
    """T / k for the fewest steps k >= T / dt - S / 2 per period, S drive
    segments, whose step divides every segment to ``_build_grid``'s 1e-9 T.

    No coarser than dt by more than half a step per segment, the bound of
    rounding each segment to _steps(s, dt); and that rounding's sum itself
    whenever its step divides, barring exact half-step ties (it is within
    S / 2 of T / dt, and valid counts are multiples of T / g >= S, g the
    segments' common step).  The sum if no k up to twice it divides:
    ``_build_grid`` rejects it.
    """
    period, segs = schedule.period, [s for s, _ in schedule.segments()]
    first = sum(_steps(s, dt) for s in segs)
    low = max(1, math.ceil(period / dt - len(segs) / 2.0))
    return period / next(
        (k for k in range(low, 2 * first + 1)
         if all(round(x) >= 1 and abs(x - round(x)) <= 1e-9 * k
                for x in (k * s / period for s in segs))),
        first)


def _build_grid(schedule: ProtocolSchedule, t_max: float, dt: float):
    """Uniform grid with drive segment boundaries on grid points.

    Raises ValueError unless dt divides every drive segment and t_max into
    whole steps to 1e-9 T.  Returns (h, n_steps, f_step): h = T / (steps
    per period), dt to rounding, and f_step[j] the drive value on step j.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    segs = schedule.segments()
    counts = [_steps(s, dt) for s, _ in segs]
    h = schedule.period / sum(counts)
    n_steps = _steps(t_max, h)
    tol = 1e-9 * schedule.period
    if any(abs(n * dt - s) > tol for (s, _), n in zip(segs, counts)) \
            or abs(n_steps * h - t_max) > tol:
        durations = ", ".join(f"{s:.6g}" for s, _ in segs)
        raise ValueError(f"the step {dt:.6g} is not aligned with the drive "
                         f"segments ({durations}) and t_max = {t_max:.6g}: "
                         "it must divide each into whole steps")
    f_cycle = np.concatenate([np.full(n, f) for n, (_, f) in zip(counts, segs)])
    reps = -(-n_steps // len(f_cycle))  # ceil
    f_step = np.tile(f_cycle, reps)[:n_steps]
    return h, n_steps, f_step


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix m and a complex vector or matrix z.

    One real product on the interleaved real and imaginary parts; numpy
    would otherwise promote m to complex on every call.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    out = m @ z.view(float).reshape(z.shape[0], -1)
    return out.view(complex).reshape((m.shape[0],) + z.shape[1:])


def check_memory(env: LatticeEnvironment, delta: float,
                 spectrum: bool = False) -> None:
    """Raise MemoryCapError if a lattice run on env would exceed MEMORY_CAP.

    n = 2 + 2S for S shells.  Propagation (``spectrum`` False) holds the
    block eigenbases and the overlap that ``SegmentPropagators`` builds, and
    the eigh workspace of one (1 + S) block: 2.5 n^2 floats at zero
    detuning, where one f = 0 block serves both sectors and the overlap is
    two diagonal blocks, and 4 when detuned, with four distinct blocks and
    one n x n overlap.  A spectrum also holds its propagators and the
    work of one eigen-step per overlap block: U'' as a complex matrix,
    freed once split into its real and imaginary parts X and Y, which
    share the step with the eigenvectors and work arrays of one real
    ``eigh`` of X and are each freed once multiplied by the eigenvectors:
    3.5 n^2 floats at zero detuning, with two blocks of n/2, and 10 when
    detuned, with one block of n.  It stores eigenvectors only for the
    few modes at or above its weight threshold.  Measured RSS peaks above
    the RSS before construction, in n^2 floats at n_side 60, 100 and 140:
    propagation 2.30, 1.88 and 1.79 at zero detuning, 3.84, 3.21 and 2.57
    detuned; resonant spectrum 3.55, 3.13 and 2.81; detuned spectrum
    9.03, 9.19 and 8.09 (kappa = 10).  The resonant 3.55 at n_side 60,
    above the estimate, is heap reuse: blocks of 1.5 MB stay below the
    allocator's mmap threshold, so the ``eigh`` workspace lands on pages
    already resident.
    """
    n = 2 + 2 * env.shells().frequencies.size
    estimate = _BYTES_PER_N2[delta != 0.0, spectrum] * n * n
    if estimate > MEMORY_CAP:
        raise MemoryCapError(required=estimate, cap=int(MEMORY_CAP))


class SegmentPropagators:
    """exp(-i H_f t), f = 1 and 0, on the bright frequency shells.

    Every bath mode couples with the same g/N, so within a frequency shell
    (``env.shells()``) only the uniform superposition couples to the pair;
    the charger-excited start and every Floquet mode stay in the span of
    these bright combinations for all time.  A state is therefore a shell
    vector b of size n = 2 + 2S: battery, charger, the S battery-bath
    shells and the S charger-bath shells, with shell amplitude
    b_s = sum_{k in s} x_k / sqrt(m_s) of the lattice amplitudes x_k.

    The two baths share the shell frequencies omega_s and couplings g_s, so
    rotating the battery/charger pair and both baths by the eigenbasis R_f
    of the pair matrix M(f) = [[omega_b, kappa f], [kappa f, omega_c]]
    splits the shell Hamiltonian H_f into two (1 + S) arrowhead blocks:
    block sigma is diag(x_sigma, omega_s) with the g_s in its first row and
    column, x_sigma the eigenvalues of M(f).  Hence H_f = V_f diag(w_f)
    V_f^T with V_f = (R_f x I) diag(Q_f0, Q_f1).  Only R_f (``rotation``)
    and the block eigenpairs (w_fsigma, Q_fsigma) (``blocks``) are stored,
    and ``coefficients`` (V_f^T b), ``expand`` (V_f c) and ``readout``
    (the battery and charger rows of V_f) apply V_f block by block.  At
    zero detuning M(0) = omega_0 I, so R_0 = R_1 is taken: the blocks are
    the symmetric/antisymmetric sectors at both drive values, they never
    mix, and the two f = 0 blocks coincide (one ``eigh`` serves both).

    ``overlap`` holds the real V_0^T V_1, which takes f = 1 coefficients
    to f = 0 ones, as (columns, block) pairs, two diagonal blocks at zero
    detuning and one n x n block otherwise; nothing else knows this layout.
    The spectrum (``floquet.compute_spectrum``) diagonalizes U_T once per
    block, on the same eigenpairs and overlap as the march that samples
    its modes; it weighs each mode through ``readout`` and expands only
    the modes it keeps.

    ``march`` steps a shell vector on a uniform grid (``_build_grid``) run
    by run: within a run of constant drive it multiplies the coefficients
    by the direct phase powers exp(-i w_f h k), k = 1 ... m, and reads the
    battery and charger amplitudes of all m steps off with one product;
    it applies the overlap (or its transpose) when the drive switches.
    Runs are cut into chunks of ``_MARCH_CHUNK`` steps, so a march holds
    O(n) numbers however many steps it takes.  ``apply`` is the direct step
    V_f exp(-i w_f dt) V_f^T b, kept as the reference for that path.
    ``dimension`` is the lattice dimension d = 2 + 2N^2 that the shell
    states reduce; nothing here uses it.
    """

    def __init__(self, params: SystemParams, env: LatticeEnvironment):
        check_memory(env, params.delta)
        self.dimension = 2 + 2 * env.n_modes
        self.shells = env.shells()
        bath = _bath_arrays(env, self.shells)
        self.rotation, self.blocks, self.evals = {}, {}, {}
        self.readout = {}
        by_apex = {}
        for f in (1.0, 0.0):
            x, r = np.linalg.eigh(_pair_matrix(params, f))
            if f == 0.0 and params.delta == 0.0:
                r = self.rotation[1.0]  # M(0) = omega_0 I: any basis will do
            for apex in x:
                if apex not in by_apex:
                    by_apex[apex] = np.linalg.eigh(_arrowhead(apex, bath))
            blocks = [by_apex[apex] for apex in x]
            self.rotation[f], self.blocks[f] = r, blocks
            self.evals[f] = np.concatenate([w for w, _ in blocks])
            self.readout[f] = np.concatenate(
                [np.outer(r[:, a], q[0]) for a, (_, q) in enumerate(blocks)],
                axis=1).astype(complex)
        self._overlap = None

    def coefficients(self, f: float, b: np.ndarray) -> np.ndarray:
        """V_f^T b for shell vector(s) b: block 0's coefficients, then
        block 1's."""
        r, n_sh = self.rotation[f], self.shells.frequencies.size
        battery = np.concatenate([b[:1], b[2:2 + n_sh]])
        charger = np.concatenate([b[1:2], b[2 + n_sh:]])
        return np.concatenate([_real_matmul(q.T, r[0, a] * battery
                                            + r[1, a] * charger)
                               for a, (_, q) in enumerate(self.blocks[f])])

    def expand(self, f: float, c: np.ndarray) -> np.ndarray:
        """V_f c: shell vector(s) from the coefficients c on the f
        eigenvectors, block 0's rows, then block 1's."""
        r, n_sh = self.rotation[f], self.shells.frequencies.size
        m = 1 + n_sh
        y0, y1 = (_real_matmul(q, c[a * m:(a + 1) * m])
                  for a, (_, q) in enumerate(self.blocks[f]))
        # battery and charger levels, then the battery and charger shells
        return np.concatenate([r[0, 0] * y0[:1] + r[0, 1] * y1[:1],
                               r[1, 0] * y0[:1] + r[1, 1] * y1[:1],
                               r[0, 0] * y0[1:] + r[0, 1] * y1[1:],
                               r[1, 0] * y0[1:] + r[1, 1] * y1[1:]])

    def overlap(self) -> list:
        """V_0^T V_1 as (columns, block) pairs, zero outside the blocks,
        each block's rows its columns; built on first use from the products
        Q_0a^T Q_1b weighted by (R_0^T R_1)_ab: the two diagonal blocks at
        zero detuning (R_0 = R_1), else one n x n block."""
        if self._overlap is None:
            r0, r1 = self.rotation[0.0], self.rotation[1.0]
            q0, q1 = ([q for _, q in self.blocks[f]] for f in (0.0, 1.0))
            m = q1[0].shape[0]
            part = (slice(0, m), slice(m, 2 * m))
            if r0 is r1:
                self._overlap = [(part[a], q0[a].T @ q1[a]) for a in (0, 1)]
            else:
                weight = r0.T @ r1
                ovl = np.empty((2 * m, 2 * m))
                for a in (0, 1):
                    for b in (0, 1):
                        ovl[part[a], part[b]] = weight[a, b] * (q0[a].T @ q1[b])
                self._overlap = [(slice(0, 2 * m), ovl)]
        return self._overlap

    def apply(self, state: np.ndarray, f: float, dt: float) -> np.ndarray:
        """exp(-i H_f dt) @ state, for a shell vector."""
        f = 1.0 if f else 0.0
        return self.expand(f, np.exp(-1j * self.evals[f] * dt)
                           * self.coefficients(f, state))

    def march(self, state: np.ndarray, h: float, f_step):
        """Step a shell vector through len(f_step) steps of width h.

        f_step[j] is the drive value on step j, as ``_build_grid`` returns
        it.  Returns the battery and charger amplitudes at the grid times,
        shape (len(f_step) + 1, 2) with the start in row 0, and the shell
        vector after the last step.  A chunk of m steps costs m n phase
        products and one (m x n) @ (n x 2) read-out, a drive switch one
        real O(n^2) product on the real and imaginary parts.
        """
        drive = np.asarray(f_step) != 0
        n_steps = drive.size
        edges = (np.flatnonzero(np.diff(drive)) + 1).tolist()
        starts = [j for a, b in zip([0] + edges, edges + [n_steps])
                  for j in range(a, b, _MARCH_CHUNK)]
        stops = starts[1:] + [n_steps]
        k = np.arange(1, max(b - a for a, b in zip(starts, stops)) + 1)
        powers = {f: np.exp(-1j * h * np.outer(k, self.evals[f]))
                  for f in {1.0 if drive[a] else 0.0 for a in starts}}
        pair = np.empty((n_steps + 1, 2), dtype=complex)
        pair[0] = state[:2]
        f_now = 1.0 if drive[0] else 0.0
        c = self.coefficients(f_now, state)
        for a, b in zip(starts, stops):
            f = 1.0 if drive[a] else 0.0
            if f != f_now:
                switched = np.empty_like(c)
                for cols, ovl in self.overlap():
                    switched[cols] = _real_matmul(ovl if f == 0.0 else ovl.T,
                                                  c[cols])
                c, f_now = switched, f
            p = powers[f][:b - a]
            pair[a + 1:b + 1] = p @ (self.readout[f].T * c[:, None])
            c = p[-1] * c
        return pair, self.expand(f_now, c)


def propagate_exact(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    t_max: float,
    sample_dt: float | None = None,
    props: SegmentPropagators | None = None,
) -> EnergyTrace:
    """Numerically exact lattice propagation, sampled on a uniform grid.

    Starts from the charger-excited state.  ``sample_dt`` (default: the
    shortest segment /8, in whole steps) must divide every drive segment
    and t_max (``_build_grid``), so every drive switch is a grid point.
    Returns an EnergyTrace carrying u_b and u_c at the samples
    (``SegmentPropagators.march``) and ``final_norm``, the norm of the last
    shell vector.
    """
    if sample_dt is None:
        sample_dt = _whole_step(
            schedule, min(s for s, _ in schedule.segments()) / 8.0)
    h, n_steps, f_step = _build_grid(schedule, t_max, sample_dt)
    if props is None:
        props = SegmentPropagators(params, env)
    state = np.zeros(props.evals[1.0].size, dtype=complex)
    state[1] = 1.0
    pair, end = props.march(state, h, f_step)
    u_b, u_c = pair.T
    times = np.arange(n_steps + 1) * h
    energies = params.omega_b * np.abs(u_b) ** 2
    meta = {
        "route": "exact",
        "dt": h,
        "t_max": times[-1],
        "final_norm": float(np.linalg.norm(end)),
    }
    return EnergyTrace(times=times, energies=energies, metadata=meta,
                       u_b=u_b, u_c=u_c)


def _kernel_table(env: LatticeEnvironment, kernel: str, lags: np.ndarray) -> np.ndarray:
    if kernel == "discrete":
        return memory_kernel_discrete(env, lags)
    if kernel == "continuum":
        return memory_kernel_continuum(env, lags)
    raise ValueError("kernel must be 'discrete' or 'continuum'")


def _volterra_march(h, f_step, kern, m_of_f, init):
    """Second-order predictor-corrector march of a 2-component memory system.

    du/dt = -i M(f) u - int_0^t nu(t-s) u(s) ds, trapezoidal memory sums.
    ``m_of_f`` maps a drive value to the 2x2 matrix M(f).  Once u_n is
    final, one dot against the reversed kernel gives the history sum
    G_{n+1} = sum_{j<=n} nu(t_{n+1} - t_j) u_j; the memory integral at
    t_{n+1} is then h (G_{n+1} + nu(0) u_{n+1} / 2 - nu(t_{n+1}) u_0 / 2)
    for the predicted, corrected and final u_{n+1} alike.  Everything else
    is O(1) arithmetic on Python complex scalars.
    """
    n_steps = len(f_step)
    krev = kern[:0:-1].astype(complex)  # nu(t_n), ..., nu(t_1)
    u_hist = np.zeros((n_steps + 1, 2), dtype=complex)
    u_hist[0] = init
    half_k = (0.5 * kern).tolist()
    half_k0 = half_k[0]
    drive = f_step.tolist()
    m_cache = {f: m_of_f(f).tolist() for f in set(drive)}
    a0, b0 = u_hist[0].tolist()
    a, b = a0, b0
    ca = cb = 0j  # memory integral at t_n with the final u_n
    for n, f in enumerate(drive):
        (m00, m01), (m10, m11) = m_cache[f]
        fa = -1j * (m00 * a + m01 * b) - ca
        fb = -1j * (m10 * a + m11 * b) - cb
        # G_{n+1} - nu(t_{n+1}) u_0 / 2, final once u_n is
        ga, gb = (krev[n_steps - 1 - n:] @ u_hist[:n + 1]).tolist()
        ga -= half_k[n + 1] * a0
        gb -= half_k[n + 1] * b0
        pa, pb = a + h * fa, b + h * fb
        ca, cb = h * (ga + half_k0 * pa), h * (gb + half_k0 * pb)
        qa = a + 0.5 * h * (fa - 1j * (m00 * pa + m01 * pb) - ca)
        qb = b + 0.5 * h * (fb - 1j * (m10 * pa + m11 * pb) - cb)
        # one more corrector sweep; only the endpoint memory term changes
        ca += h * half_k0 * (qa - pa)
        cb += h * half_k0 * (qb - pb)
        a = a + 0.5 * h * (fa - 1j * (m00 * qa + m01 * qb) - ca)
        b = b + 0.5 * h * (fb - 1j * (m10 * qa + m11 * qb) - cb)
        ca, cb = h * (ga + half_k0 * a), h * (gb + half_k0 * b)
        u_hist[n + 1] = a, b
    return u_hist


def solve_volterra(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    t_max: float,
    dt: float | None = None,
    kernel: str = "discrete",
    tol: float | None = None,
    rotating: bool = False,
) -> EnergyTrace:
    """Integrate the reduced battery/charger memory equations.

    With the 'discrete' kernel this is an independent route to the same
    finite-lattice dynamics as ``propagate_exact``; with 'continuum' it
    targets the infinite-lattice limit.  Step n costs one O(n) history dot
    plus O(1) scalar work (``_volterra_march``).  ``rotating`` marches
    w = u exp(i omega_0 t) instead, with the kernel nu(x) exp(i omega_0 x)
    and M(f) - omega_0 I, and rotates the amplitudes back: the same
    equations, with the fast carrier phase taken out of the march.  When
    ``tol`` is given the solver repeats at dt/2 in the same frame and
    raises ConvergenceError if the Richardson error estimate exceeds tol
    (the finer solution is returned otherwise).
    """
    if dt is None:
        dt = default_time_step(params, env, schedule)
    h, n_steps, f_step = _build_grid(schedule, t_max, dt)
    times = np.arange(n_steps + 1) * h
    kern = _kernel_table(env, kernel, times)
    shift = params.omega_0 if rotating else 0.0
    if rotating:
        phase = np.exp(1j * shift * times)
        kern = kern * phase

    def m_of_f(f):
        return (_pair_matrix(params, f) - shift * np.eye(2)).astype(complex)

    u = _volterra_march(h, f_step, kern, m_of_f, np.array([0.0, 1.0], dtype=complex))
    if rotating:
        u *= phase.conj()[:, None]

    if tol is not None:
        fine = solve_volterra(params, env, schedule, t_max, dt=h / 2.0,
                              kernel=kernel, tol=None, rotating=rotating)
        est = np.max(np.abs(fine.u_b[::2] - u[:, 0])) / 3.0
        if est > tol:
            raise ConvergenceError("Volterra step-halving estimate above tolerance",
                                   estimate=float(est))
        fine.metadata["richardson_estimate"] = float(est)
        return fine

    meta = {"route": "volterra", "kernel": kernel, "dt": h, "t_max": times[-1]}
    return EnergyTrace(times=times,
                       energies=params.omega_b * np.abs(u[:, 0]) ** 2,
                       metadata=meta, u_b=u[:, 0].copy(), u_c=u[:, 1].copy())
