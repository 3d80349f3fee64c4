"""Frequency-domain distance analysis and topology recovery for networks of
interacting time series.

The package estimates spectral matrices from sample paths, turns them into
coherence-based and causal-modelling distances between the series, and
reconstructs tree-shaped interaction topologies (undirected and directed)
from those distances, with a simulator for generating ground-truth networks
and a sparse solver for per-target input selection.
"""

from .aln import (
    ALNSpec,
    IdentifiabilityReport,
    Link,
    RecoveryReport,
    SimResult,
    analytic_spectra,
    check_identifiability,
    generate_polytree_aln,
    run_recovery,
    simulate,
)
from .diagnostics import Event, collect, record
from .errors import (
    CombinatorialLimitError,
    DegenerateSeriesError,
    IllConditionedSpectrumError,
    InputFormatError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSpectrumError,
    PolyscopeError,
)
from .metric import (
    DirectionMatrix,
    DistanceMatrix,
    causal_distance,
    causal_distance_matrix,
    causal_edge_weights,
    coherence_distance,
    correlation_distance_matrix,
    distance_matrix,
    spearman_index,
    windowed_average_distance,
)
from .signals import (
    CoherenceCurve,
    Ensemble,
    FrequencyGrid,
    SpectralMatrix,
    Spectrum,
    TimeSeries,
    WelchConfig,
    coherence_function,
    spectral_matrix,
    welch_cross_spectrum,
)
from .sparse import (
    SparseModel,
    inner_product,
    matching_pursuit,
    orthogonal_least_squares,
    project,
    sparse_exhaustive,
)
from .topology import (
    Polytree,
    Tree,
    UndirectedGraph,
    build_polytree,
    edge_list_rows,
    export_dot,
    markov_blanket,
    minimum_spanning_tree,
    miso_blanket_topology,
)
from .wiener import (
    TransferFunction,
    WienerSolution,
    causal_wiener,
    noncausal_wiener,
    spectral_factorize,
)

__version__ = "0.1.0"

__all__ = [
    "ALNSpec",
    "CoherenceCurve",
    "CombinatorialLimitError",
    "DegenerateSeriesError",
    "DirectionMatrix",
    "DistanceMatrix",
    "Ensemble",
    "Event",
    "FrequencyGrid",
    "IdentifiabilityReport",
    "IllConditionedSpectrumError",
    "InputFormatError",
    "InsufficientDataError",
    "InvalidParameterError",
    "InvalidSpectrumError",
    "Link",
    "Polytree",
    "PolyscopeError",
    "RecoveryReport",
    "SimResult",
    "SparseModel",
    "SpectralMatrix",
    "Spectrum",
    "TimeSeries",
    "TransferFunction",
    "Tree",
    "UndirectedGraph",
    "WelchConfig",
    "WienerSolution",
    "analytic_spectra",
    "build_polytree",
    "causal_distance",
    "causal_distance_matrix",
    "causal_edge_weights",
    "causal_wiener",
    "check_identifiability",
    "coherence_distance",
    "coherence_function",
    "collect",
    "correlation_distance_matrix",
    "distance_matrix",
    "edge_list_rows",
    "export_dot",
    "generate_polytree_aln",
    "inner_product",
    "markov_blanket",
    "matching_pursuit",
    "minimum_spanning_tree",
    "miso_blanket_topology",
    "noncausal_wiener",
    "orthogonal_least_squares",
    "project",
    "record",
    "run_recovery",
    "simulate",
    "sparse_exhaustive",
    "spearman_index",
    "spectral_factorize",
    "spectral_matrix",
    "welch_cross_spectrum",
    "windowed_average_distance",
]
