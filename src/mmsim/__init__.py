"""mmsim: a simulator for mobile membrane systems.

Membrane systems whose membranes can move (endocytosis and exocytosis)
under maximally parallel multiset rewriting, with a textual model format,
seed-reproducible runs, a brute-force verification oracle, a compiler that
turns two-scale model coupling into plain membrane rules, and a bone
remodelling case study built on it.
"""

from .core import *
from .engine import *
from .parser import *
from .coupling import *
from .bone import *
from .rng import *
from .tracefile import *

# The package exports each module's __all__; importing a submodule binds its
# name here.  The oracle and the CLI stay out, so the CLI does not load them.
__all__ = (core.__all__ + engine.__all__ + parser.__all__ + coupling.__all__
           + bone.__all__ + rng.__all__ + tracefile.__all__)

__version__ = "0.1.0"
