"""Full-basis references that the shell-basis tests compare against."""

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
