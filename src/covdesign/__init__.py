"""Design and validation of cluster-level randomized network experiments.

The package covers the full pipeline: graph and cluster ingestion, the
cluster law, closed-form bias/variance analysis, optimization
of the treatment covariance through a unit-row correlation root, sampling
of the resulting correlated design, and Monte Carlo / exact-enumeration
comparison against baseline randomization schemes.
"""

from .manifest import VERSION as __version__
from .graph import (
    Graph,
    GraphFormatError,
    generate_sbm,
    load_edge_list,
    save_edge_list,
)
from .clustering import (
    Clustering,
    ClusterLaw,
    build_cluster_summary,
    cluster_law,
    louvain,
    read_clustering,
    write_clustering,
)
from .outcomes import AnalysisModelParams, SimModelParams, with_gamma
from .estimators import cluster_estimates
from .analysis import (
    ExactVariance,
    bias_closed_form,
    h_vector,
    objective_terms,
    omega_from_model,
    variance_bound,
    variance_exact,
)
from .designs import (
    BernoulliDesign,
    BlockDesign,
    CompleteDesign,
    Design,
    DesignEnumerationError,
    SignGaussianDesign,
    build_ibr_blocks,
    make_design,
)
from .optimizer import (
    OptimizationError,
    OptimizerConfig,
    OptTrace,
    evaluate_root,
    optimize,
)
from .simulation import (
    ReportCell,
    SimConfig,
    SimReport,
    run_exact,
    run_mc,
)

__all__ = [
    "__version__",
    "Graph", "GraphFormatError", "generate_sbm", "load_edge_list", "save_edge_list",
    "Clustering", "ClusterLaw", "build_cluster_summary", "cluster_law", "louvain",
    "read_clustering", "write_clustering",
    "AnalysisModelParams", "SimModelParams", "with_gamma",
    "cluster_estimates",
    "ExactVariance", "bias_closed_form", "h_vector", "objective_terms",
    "omega_from_model", "variance_bound", "variance_exact",
    "BernoulliDesign", "BlockDesign", "CompleteDesign", "Design",
    "DesignEnumerationError", "SignGaussianDesign", "build_ibr_blocks",
    "make_design",
    "OptimizationError", "OptimizerConfig", "OptTrace", "evaluate_root",
    "optimize",
    "ReportCell", "SimConfig", "SimReport", "run_exact", "run_mc",
]
