"""Opinion-dynamics message passing on graphs and hypergraphs.

The engine covers averaging consensus, bounded-confidence opinion updates,
piecewise influence message passing (with optional repulsion and a confining
control term), hypergraph diffusion, Dirichlet-energy oversmoothing
diagnostics, and a network simplification / influencer labeling pipeline.
"""

__version__ = "0.1.0"

from . import diagnostics, dynamics, errors, graphs, influence, integrators, io, pipeline, presets
from .diagnostics import *
from .dynamics import *
from .errors import *
from .graphs import *
from .influence import *
from .integrators import *
from .io import *
from .pipeline import *
from .presets import *

# Each module's __all__ is its public list; odyn re-exports those names and no submodule,
# so that `from odyn import *` cannot rebind a name such as `io`.
__all__ = [name for module in (diagnostics, dynamics, errors, graphs, influence, integrators,
                               io, pipeline, presets) for name in module.__all__]
