"""Two-level depolarization toolkit.

Closed-form and numerically integrated Bloch trajectories for a spin-1/2
driven toward a low-purity mixed state by a state-dependent non-Hermitian
generator, plus the NMR mapping and least-squares estimation of the decay
parameters from magnetization records.

Each module declares the public names it defines in its own ``__all__``;
this package re-exports all five lists.
"""

from . import analytic, core, dynamics, fit, nmr
from .analytic import *  # noqa: F403
from .core import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .fit import *  # noqa: F403
from .nmr import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(analytic.__all__ + core.__all__ + dynamics.__all__ + fit.__all__ + nmr.__all__)
