"""Open-system dynamics in the single-excitation sector.

Two independent routes are provided and cross-validated:

* ``propagate_exact`` diagonalizes the Hamiltonian on the bright
  frequency shells (2 + 2S dimensions for S shells, against 2 + 2N^2 for
  the full basis) once per drive value and steps the state in the
  eigenbasis of the current drive segment: phases per step, one real basis
  overlap per drive switch (numerically exact for the finite lattice).
  ``SegmentPropagators.march`` does the stepping on the ``_build_grid``
  grid; ``floquet.floquet_mode`` samples the Floquet modes with the same
  march over one period.
* ``solve_volterra`` integrates the reduced pair of amplitude equations

      du_l/dt + i omega_l u_l + i kappa f(t) u_l' + int_0^t nu(t-s) u_l(s) ds = 0

  with a second-order predictor-corrector and trapezoidal memory sums.

``solve_volterra_pm`` integrates the decoupled symmetric/antisymmetric
combinations available at zero detuning.

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

__all__ = [
    "EnergyTrace",
    "SegmentPropagators",
    "build_hamiltonian",
    "build_sector_hamiltonian",
    "default_time_step",
    "propagate_exact",
    "solve_volterra",
    "solve_volterra_pm",
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


def _pair_hamiltonian(params: SystemParams, bath, f_value: float) -> np.ndarray:
    """Pair plus two baths given as (frequencies, couplings)."""
    w, gk = bath
    nb = w.size
    d = 2 + 2 * nb
    h = np.zeros((d, d))
    h[0, 0] = params.omega_b
    h[1, 1] = params.omega_c
    h[0, 1] = h[1, 0] = params.kappa * f_value
    idx_b = 2 + np.arange(nb)
    idx_c = 2 + nb + np.arange(nb)
    h[idx_b, idx_b] = w
    h[idx_c, idx_c] = w
    h[0, idx_b] = h[idx_b, 0] = gk
    h[1, idx_c] = h[idx_c, 1] = gk
    return h


def _sector_hamiltonian(params: SystemParams, bath, f_value: float,
                        sector: int) -> np.ndarray:
    """One +/- sector of the resonant pair plus a bath (frequencies, couplings)."""
    if params.delta != 0.0:
        raise ValueError("sector decomposition requires zero detuning")
    if sector not in (+1, -1):
        raise ValueError("sector must be +1 or -1")
    w, gk = bath
    idx = 1 + np.arange(w.size)
    h = np.zeros((1 + w.size, 1 + w.size))
    h[0, 0] = params.omega_0 + sector * params.kappa * f_value
    h[idx, idx] = w
    h[0, idx] = h[idx, 0] = gk
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
    battery/charger and of the two baths decouple; the system level sits at
    omega_0 + sector * kappa * f.
    """
    return _sector_hamiltonian(params, _bath_arrays(env), f_value, sector)


def default_time_step(
    params: SystemParams, env: LatticeEnvironment, schedule: ProtocolSchedule
) -> float:
    """Resolve the fastest phase and the shortest drive segment, /40."""
    fastest = 2.0 * math.pi / (env.varpi + 4.0 * env.q + params.omega_0
                               + 2.0 * params.kappa)
    segs = [s for s in (schedule.tau_c, schedule.tau_s, schedule.tau_d) if s > 0]
    return min(min(segs), fastest) / 40.0


def _build_grid(schedule: ProtocolSchedule, t_max: float, dt: float):
    """Uniform grid with drive segment boundaries on grid points.

    Per-segment step counts are snapped so that one step width h divides
    every segment; returns (h, n_steps, f_step) with f_step[j] the drive
    value on step j.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    segs = schedule.segments()
    counts = [max(1, round(s / dt)) for s, _ in segs]
    total = sum(counts)
    h = schedule.period / total
    for (s, _), n in zip(segs, counts):
        if abs(n * h - s) > 1e-9 * schedule.period:
            durations = ", ".join(f"{dur:.6g}" for dur, _ in segs)
            raise ValueError(f"the step {dt:.6g} cannot be aligned with the "
                             f"drive segments ({durations})")
    n_steps = max(1, round(t_max / h))
    f_cycle = np.concatenate([np.full(n, f) for n, (_, f) in zip(counts, segs)])
    reps = -(-n_steps // total)  # ceil
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


def check_memory(env: LatticeEnvironment, delta: float = 0.0) -> None:
    """Raise MemoryCapError if a lattice run on env would exceed MEMORY_CAP.

    n = 2 + 2S for S shells.  Propagation takes 6 n^2 floats for the shell
    eigenbases and the eigh workspace, as much as a spectrum at zero
    detuning (two sector blocks of n/2); a detuned spectrum takes 10, five
    complex n x n matrices (tracemalloc peaks: 4.6-4.9 and 8.0-9.1 n^2
    floats at n_side 20-60).
    """
    n = 2 + 2 * env.shells().frequencies.size
    estimate = (80 if delta else 48) * n * n
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
    b_s = sum_{k in s} x_k / sqrt(m_s) of the lattice amplitudes x_k.  It
    is stepped in the eigenbasis of the shell Hamiltonian
    H_f = V_f diag(w_f) V_f^T.

    ``march`` steps a shell vector on a uniform grid (``_build_grid``):
    it moves to the coefficients V_f^T b once, multiplies them by one phase
    vector per drive value at each step, applies the real overlap
    V_0^T V_1 (or its transpose) when the drive switches, and reads the
    battery and charger amplitudes off the two pair rows of V_f.
    ``apply`` is the direct step V_f exp(-i w_f dt) V_f^T b, kept as the
    reference for that path.  ``dimension`` is the lattice dimension
    d = 2 + 2N^2 that the shell states reduce; nothing here uses it.
    """

    def __init__(self, params: SystemParams, env: LatticeEnvironment):
        check_memory(env)
        self.dimension = 2 + 2 * env.n_modes
        self.evals = {}
        self.evecs = {}
        self._readout = {}
        bath = _bath_arrays(env, env.shells())
        for f in (1.0, 0.0):
            w, v = np.linalg.eigh(_pair_hamiltonian(params, bath, f))
            self.evals[f] = w
            self.evecs[f] = v
            self._readout[f] = v[:2].astype(complex)
        self._overlap = None

    def apply(self, state: np.ndarray, f: float, dt: float) -> np.ndarray:
        """exp(-i H_f dt) @ state, for a shell vector."""
        f = 1.0 if f else 0.0
        v = self.evecs[f]
        return v @ (np.exp(-1j * self.evals[f] * dt) * (v.T @ state))

    def march(self, state: np.ndarray, h: float, f_step):
        """Step a shell vector through len(f_step) steps of width h.

        f_step[j] is the drive value on step j, as ``_build_grid`` returns
        it.  Returns the battery and charger amplitudes at the grid times,
        shape (len(f_step) + 1, 2) with the start in row 0, and the shell
        vector after the last step.  A step costs O(n) phases, a drive
        switch one real O(n^2) product on the real and imaginary parts.
        """
        phases = {f: np.exp(-1j * h * w) for f, w in self.evals.items()}
        pair = np.empty((len(f_step) + 1, 2), dtype=complex)
        pair[0] = state[:2]
        f_now = 1.0 if f_step[0] else 0.0
        c = _real_matmul(self.evecs[f_now].T, state)
        for j, f in enumerate(f_step, 1):
            f = 1.0 if f else 0.0
            if f != f_now:
                if self._overlap is None:
                    # V_0^T V_1 takes f = 1 coefficients to f = 0 ones
                    self._overlap = self.evecs[0.0].T @ self.evecs[1.0]
                ovl = self._overlap
                c = _real_matmul(ovl if f == 0.0 else ovl.T, c)
                f_now = f
            c = phases[f] * c
            pair[j] = self._readout[f] @ c
        return pair, _real_matmul(self.evecs[f_now], c)


def propagate_exact(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    t_max: float,
    sample_dt: float | None = None,
    props: SegmentPropagators | None = None,
) -> EnergyTrace:
    """Numerically exact lattice propagation, sampled on a uniform grid.

    Starts from the charger-excited state.  The sampling grid is snapped so
    that every drive switching time is a grid point.  Returns an EnergyTrace
    carrying u_b and u_c at the samples (``SegmentPropagators.march``) and
    ``final_norm``, the norm of the last shell vector.
    """
    if sample_dt is None:
        sample_dt = min(s for s in (schedule.tau_c, schedule.tau_s,
                                    schedule.tau_d) if s > 0) / 8.0
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
    ``m_of_f`` maps a drive value to the 2x2 matrix M(f).
    """
    n_steps = len(f_step)
    big_l = n_steps
    krev = kern[::-1].copy()
    u_hist = np.zeros((n_steps + 1, 2), dtype=complex)
    u_hist[0] = init
    k0 = kern[0]
    m_cache = {f: m_of_f(f) for f in np.unique(f_step)}

    def conv(n):
        if n == 0:
            return np.zeros(2, dtype=complex)
        s = krev[big_l - n:big_l + 1] @ u_hist[: n + 1]
        s -= 0.5 * (kern[n] * u_hist[0] + k0 * u_hist[n])
        return h * s

    for n in range(n_steps):
        m = m_cache[f_step[n]]
        u_n = u_hist[n]
        f_n = -1j * (m @ u_n) - conv(n)
        u_pred = u_n + h * f_n
        u_hist[n + 1] = u_pred
        c_next = conv(n + 1)
        f_next = -1j * (m @ u_pred) - c_next
        u_corr = u_n + 0.5 * h * (f_n + f_next)
        # one more corrector sweep; only the endpoint memory term changes
        c_next = c_next + 0.5 * h * k0 * (u_corr - u_pred)
        f_next = -1j * (m @ u_corr) - c_next
        u_hist[n + 1] = u_n + 0.5 * h * (f_n + f_next)
    return u_hist


def solve_volterra(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    t_max: float,
    dt: float | None = None,
    kernel: str = "discrete",
    tol: float | None = None,
) -> EnergyTrace:
    """Integrate the reduced battery/charger memory equations.

    With the 'discrete' kernel this is an independent route to the same
    finite-lattice dynamics as ``propagate_exact``; with 'continuum' it
    targets the infinite-lattice limit.  When ``tol`` is given the solver
    repeats at dt/2 and raises ConvergenceError if the Richardson error
    estimate exceeds tol (the finer solution is returned otherwise).
    """
    if dt is None:
        dt = default_time_step(params, env, schedule)
    h, n_steps, f_step = _build_grid(schedule, t_max, dt)
    lags = np.arange(n_steps + 1) * h
    kern = _kernel_table(env, kernel, lags)

    def m_of_f(f):
        return np.array([[params.omega_b, params.kappa * f],
                         [params.kappa * f, params.omega_c]], dtype=complex)

    u = _volterra_march(h, f_step, kern, m_of_f, np.array([0.0, 1.0], dtype=complex))
    times = np.arange(n_steps + 1) * h

    if tol is not None:
        fine = solve_volterra(params, env, schedule, t_max, dt=h / 2.0,
                              kernel=kernel, tol=None)
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


def solve_volterra_pm(
    params: SystemParams,
    env: LatticeEnvironment,
    schedule: ProtocolSchedule,
    t_max: float,
    dt: float | None = None,
    kernel: str = "discrete",
) -> EnergyTrace:
    """Resonant-only route through the decoupled +/- combinations.

    v_pm = (u_c +/- u_b) exp(i omega_0 t) obey scalar memory equations with
    the rotated kernel nu(x) exp(i omega_0 x); u_b and u_c are reconstructed
    afterwards.  The returned trace carries v_plus / v_minus in metadata
    arrays for inspection.
    """
    if params.delta != 0.0:
        raise ValueError("the +/- decomposition requires zero detuning "
                         "(omega_b == omega_c)")
    if dt is None:
        dt = default_time_step(params, env, schedule)
    h, n_steps, f_step = _build_grid(schedule, t_max, dt)
    lags = np.arange(n_steps + 1) * h
    kern = _kernel_table(env, kernel, lags) * np.exp(1j * params.omega_0 * lags)

    def m_of_f(f):
        return np.array([[params.kappa * f, 0.0],
                         [0.0, -params.kappa * f]], dtype=complex)

    v = _volterra_march(h, f_step, kern, m_of_f, np.array([1.0, 1.0], dtype=complex))
    times = np.arange(n_steps + 1) * h
    rot = np.exp(-1j * params.omega_0 * times)
    u_b = 0.5 * (v[:, 0] - v[:, 1]) * rot
    u_c = 0.5 * (v[:, 0] + v[:, 1]) * rot
    meta = {"route": "volterra-pm", "kernel": kernel, "dt": h, "t_max": times[-1]}
    trace = EnergyTrace(times=times, energies=params.omega_b * np.abs(u_b) ** 2,
                        metadata=meta, u_b=u_b, u_c=u_c)
    trace.metadata["v_plus"] = v[:, 0].copy()
    trace.metadata["v_minus"] = v[:, 1].copy()
    return trace
