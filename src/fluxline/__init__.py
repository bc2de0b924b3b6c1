"""fluxline: exotic-spacetime light propagation on a SQUID-array line.

The package turns 1+1-D sections of curved spacetimes into external
magnetic-flux programs for a flux-tunable transmission line, checks every
feasibility constraint the inversion imposes, and verifies the synthesized
program dynamically against a null-characteristic oracle.
"""

from . import metrics, synthesis, wavelab
from .metrics import *
from .synthesis import *
from .wavelab import *

# each module states its public names once; the package republishes them
__all__ = metrics.__all__ + synthesis.__all__ + wavelab.__all__

__version__ = "0.1.0"
