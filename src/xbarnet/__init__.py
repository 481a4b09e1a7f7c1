"""Crossbar-aware network transformation toolkit.

Trains fully-connected networks while iteratively pruning and spectrally
clustering their connectivity into crossbar-sized blocks, maps the result
onto memristive crossbar arrays, and scores area and energy against
pruning-only and cluster-after-training baselines.
"""

from .connectivity import ClusterSet, ConnectivityMatrix
from .hardware import (
    TechConfig,
    cmos_energy,
    energy_document,
    map_to_mcas,
    mca_energy,
)
from .mlp import MlpModel, TrainConfig, evaluate, forward, init_model, magnitude_prune
from .sizecluster import SizeClusterConfig, size_constrained_cluster, split_oversized
from .spectral import (
    SimilarityMatrix,
    build_similarity,
    eig_smallest,
    kmeans,
    spectral_cluster,
)
from .transform import (
    TransformConfig,
    TransformState,
    cluster_prune,
    cluster_score,
    offline_cluster,
    run,
    transform_epoch,
)

__version__ = "0.1.0"
