"""References that the fast paths are tested against: the full-basis
isometry for the shell-basis tests, and the two-sum Volterra march."""

import numpy as np


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
