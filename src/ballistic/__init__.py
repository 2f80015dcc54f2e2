"""Ballistic diffusion toolkit: closed-form packet dispersion and two-slit
interference fields, a finite-difference solver with a time-growing
diffusion coefficient, and velocity-field trajectory integration."""

from . import analytic, core, fdm, interference, trajectories
from .core import *
from .analytic import *
from .interference import *
from .fdm import *
from .trajectories import *

__version__ = "0.1.0"

# each module's __all__ is the one statement of its public names
__all__ = [name for module in (core, analytic, interference, fdm, trajectories)
           for name in module.__all__] + ["__version__"]
