"""Dissipative quantum battery-charger simulation toolkit.

Models a two-level battery coupled to a two-level charger through a
cyclically switched exchange interaction, with each subsystem damped by
its own two-dimensional lattice bath.  Provides the closed lossless
solution, Markovian envelopes, exact single-excitation dynamics (direct
propagation and memory-kernel integro-differential routes), stroboscopic
spectral analysis with bound-state detection, and analytic perturbative
results for the equal-segment protocol.

The public names are those listed in each module's ``__all__``.
"""

from . import (dynamics, environment, errors, floquet, ideal, markovian,
               model, perturbation)
from .dynamics import *  # noqa: F401,F403
from .environment import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .floquet import *  # noqa: F401,F403
from .ideal import *  # noqa: F401,F403
from .markovian import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .perturbation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *model.__all__, *ideal.__all__,
           *environment.__all__, *markovian.__all__, *dynamics.__all__,
           *floquet.__all__, *perturbation.__all__]
