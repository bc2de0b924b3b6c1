"""Dynamic verification of flux programs.

Three independent views of the same propagation problem:

  rays       null-characteristic integration, the oracle everything else is
             checked against
  continuum  leapfrog solver for the variable-speed wave equation
  ladder     discrete LC ladder with flux-tunable inductors

fronts extracts pulse-front trajectories from the Snapshots record either
simulator's run returns; verify ties the pieces together into a pass/fail
report.
"""

from . import continuum, fronts, ladder, rays, verify
from .fronts import *
from .rays import *
from .continuum import *
from .ladder import *
from .verify import *

# each module states its public names once; the package republishes them
__all__ = fronts.__all__ + rays.__all__ + continuum.__all__ + ladder.__all__ + verify.__all__
