"""The public API: what `import odyn` exports, pinned name by name."""

import odyn
from odyn import Hypergraph, WeightedGraph

PUBLIC = [
    "ClassifyResult", "CsvFormatError", "DynamicSpec", "EmptyGraph", "EmptyMask",
    "EnergySeries", "Hypergraph", "INFLUENCE_PRESETS", "InfluenceConfig",
    "InfluencerLabeling", "InsufficientData", "IntegratorConfig", "InvalidProbability",
    "KernelNotNormalized", "NoConvergence", "NodeLabels", "NonFiniteState",
    "NotRowStochastic", "NotSPD", "NotStronglyConnected", "OdynError",
    "OutOfRangeSimilarity", "OversmoothingReport", "PreconditionFailed", "SimilaritySpec",
    "SimplifyConfig", "SimplifyReport", "StepLimitExceeded", "TooLarge", "Trajectory",
    "WeightedGraph", "ZeroDegree", "cluster_count", "consensus_predict",
    "cooccurrence_fixture", "detect_oversmoothing", "diagnostics", "dirichlet_energy_graph",
    "dirichlet_energy_hypergraph", "dopri5_step", "dynamics", "errors", "euler_step",
    "fd_step", "generate_sbm", "graphs", "hk_step", "homophily_level", "influence",
    "influence_preset", "integrate", "integrators", "io", "is_aperiodic",
    "is_strongly_connected", "iterate_map", "label_by_degree",
    "make_hypergraph_diffusion_rhs", "make_hypergraph_odnet_rhs", "make_odnet_rhs",
    "normalize_rows", "phi", "pipeline", "planted_two_block_fixture", "presets",
    "propagate_labels", "pseudo_features", "read_graph_csv", "read_hypergraph_csv",
    "read_labels_csv", "read_state_csv", "rk4_step", "similarity_dynamic",
    "similarity_static", "simplify_network", "spectral_gap", "split_masks",
    "validate_row_stochastic", "write_energy_csv", "write_graph_csv", "write_hypergraph_csv",
    "write_json", "write_labels_csv", "write_state_csv", "write_trajectory_csv",
]


def test_public_api_is_pinned():
    # A name added to or dropped from the API must be added or dropped here too.
    assert sorted(odyn.__all__) == PUBLIC


def test_structures_publish_no_dense_views():
    # Dense views live in the tests as oracles (conftest.py), not on the structures.
    for cls, names in ((WeightedGraph, ["dense_weights"]),
                       (Hypergraph, ["incidence", "membership_weight", "co_membership"])):
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
