"""References that the fast paths are tested against: the full-basis
isometry for the shell-basis tests, the two-sum Volterra march, the
resonant +/- memory route, the pointwise drive value with its piecewise
walk over an interval, and the combined harmonic sum of the bound-state
splitting."""

import math

import numpy as np

from qbsim import dynamics, perturbation


def bright_isometry(env) -> np.ndarray:
    """Dense d x n isometry P from the shell basis to the lattice basis.

    Columns: battery, charger, the S battery-bath shells, the S
    charger-bath shells; a shell column spreads 1/sqrt(m_s) over the m_s
    modes of its shell, in the layout of ``build_hamiltonian``.  Built here
    from ``env.shells()`` alone, so the oracle side of a test does not use
    the program's own expansion.
    """
    shells = env.shells()
    n_sh, n_modes = shells.frequencies.size, env.n_modes
    p = np.zeros((2 + 2 * n_modes, 2 + 2 * n_sh))
    p[0, 0] = p[1, 1] = 1.0
    k = np.arange(n_modes)
    spread = 1.0 / np.sqrt(shells.multiplicities[shells.index])
    p[2 + k, 2 + shells.index] = spread
    p[2 + n_modes + k, 2 + n_sh + shells.index] = spread
    return p


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


def solve_volterra_pm(params, env, schedule, t_max, dt=None,
                      kernel="discrete"):
    """The resonant +/- memory route, the reference for the rotating frame.

    v_pm = (u_c +/- u_b) exp(i omega_0 t) obey decoupled scalar memory
    equations with the kernel nu(x) exp(i omega_0 x) and levels +/- kappa f
    at delta = 0; u_b and u_c are rebuilt from them.  Returns (times, u_b,
    u_c).
    """
    if params.delta != 0.0:
        raise ValueError("the +/- decomposition requires zero detuning")
    if dt is None:
        dt = dynamics.default_time_step(params, env, schedule)
    h, n_steps, f_step = dynamics._build_grid(schedule, t_max, dt)
    lags = np.arange(n_steps + 1) * h
    kern = dynamics._kernel_table(env, kernel, lags) \
        * np.exp(1j * params.omega_0 * lags)

    def m_of_f(f):
        return np.array([[params.kappa * f, 0.0],
                         [0.0, -params.kappa * f]], dtype=complex)

    v = dynamics._volterra_march(h, f_step, kern, m_of_f,
                                 np.array([1.0, 1.0], dtype=complex))
    rot = np.exp(-1j * params.omega_0 * lags)
    return (lags, 0.5 * (v[:, 0] - v[:, 1]) * rot,
            0.5 * (v[:, 0] + v[:, 1]) * rot)


def drive_value(schedule, t: float) -> int:
    """The drive f(t) of ``ProtocolSchedule``, one time at a time."""
    if t < 0:
        raise ValueError("protocol is defined for t >= 0")
    T = schedule.period
    s = math.fmod(t, T)
    if s <= 0.0:
        s = T  # t = nT maps to the discharging endpoint
    if s <= schedule.tau_c:
        return 1
    if s <= schedule.tau_c + schedule.tau_s:
        return 0
    return 1


def drive_pieces(schedule, t0: float, t1: float):
    """(duration, f) pieces covering [t0, t1], split at segment boundaries."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t0 < 0:
        raise ValueError("times must be nonnegative")
    T = schedule.period
    edges = [0.0, schedule.tau_c, schedule.tau_c + schedule.tau_s, T]
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
        out.append((nxt - t, drive_value(schedule, mid)))
        t = nxt
    return out


def splitting_main_sum(params, env, schedule, n_max: int = 64) -> float:
    """Quasienergy splitting of the resonant pair as the single combined
    harmonic sum, algebraically identical to eps2_plus - eps2_minus of
    ``perturbation.second_order_corrections``."""
    w_t = schedule.omega_T
    shells = env.shells()
    gs2 = env.coupling_per_mode**2 * shells.multiplicities
    ns, fn2 = perturbation._harmonic_weights(params.kappa, schedule, n_max)
    num = gs2[:, None] * ((1.0 - 2.0 * ns) * fn2)[None, :]
    den = ((0.5 - ns) ** 2 * w_t)[None, :] \
        - ((params.omega_0 - shells.frequencies) ** 2 / w_t)[:, None]
    return float(abs(np.sum(num / den)))
