"""Opinion-dynamics message passing on graphs and hypergraphs.

The engine covers averaging consensus, bounded-confidence opinion updates,
piecewise influence message passing (with optional repulsion and a confining
control term), hypergraph diffusion, Dirichlet-energy oversmoothing
diagnostics, and a network simplification / influencer labeling pipeline.
"""

__version__ = "0.1.0"

from .diagnostics import (
    EnergySeries,
    OversmoothingReport,
    cluster_count,
    consensus_predict,
    detect_oversmoothing,
    dirichlet_energy_graph,
    dirichlet_energy_hypergraph,
    spectral_gap,
)
from .dynamics import (
    DynamicSpec,
    fd_step,
    hk_step,
    make_hypergraph_diffusion_rhs,
    make_hypergraph_odnet_rhs,
    make_odnet_rhs,
)
from .errors import (
    CsvFormatError,
    EmptyGraph,
    EmptyMask,
    InsufficientData,
    InvalidProbability,
    KernelNotNormalized,
    NoConvergence,
    NonFiniteState,
    NotRowStochastic,
    NotSPD,
    NotStronglyConnected,
    NumericFailure,
    OdynError,
    OutOfRangeSimilarity,
    PreconditionFailed,
    StepLimitExceeded,
    TooLarge,
    ZeroDegree,
)
from .graphs import (
    Hypergraph,
    NodeLabels,
    WeightedGraph,
    generate_sbm,
    homophily_level,
    is_aperiodic,
    is_strongly_connected,
    normalize_rows,
    split_masks,
    validate_row_stochastic,
)
from .influence import (
    InfluenceConfig,
    SimilaritySpec,
    phi,
    similarity_dynamic,
    similarity_static,
)
from .integrators import (
    IntegratorConfig,
    Trajectory,
    dopri5_step,
    euler_step,
    integrate,
    iterate_map,
    rk4_step,
)
from .io import (
    read_graph_csv,
    read_hypergraph_csv,
    read_labels_csv,
    read_state_csv,
    write_energy_csv,
    write_graph_csv,
    write_hypergraph_csv,
    write_json,
    write_labels_csv,
    write_state_csv,
    write_trajectory_csv,
)
from .pipeline import (
    ClassifyResult,
    InfluencerLabeling,
    SimplifyConfig,
    SimplifyReport,
    label_by_degree,
    propagate_labels,
    pseudo_features,
    simplify_network,
)
from .presets import (
    INFLUENCE_PRESETS,
    cooccurrence_fixture,
    influence_preset,
    planted_two_block_fixture,
)

from types import ModuleType as _ModuleType

# The imported names; the submodules the imports bind stay out, so that
# `from odyn import *` cannot rebind a name such as `io`.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
