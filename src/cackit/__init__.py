"""Clustering-aware classification toolkit.

Trains class-separated clusterings of binary data (a k-means objective
augmented with a reward for pushing the per-cluster class centroids apart),
fits one local classifier per cluster, and provides a neural counterpart
that learns the clustering in an autoencoder's latent space with a
margin-based class-separation head. Ships with baselines, synthetic
benchmarks, evaluation metrics and a config-driven experiment CLI.
"""

__version__ = "0.1.0"

from .dataset import (
    LabeledDataset,
    SplitSpec,
    SyntheticSpec,
    load_csv,
    save_csv,
    make_classification,
    make_classification_with_clusters,
    split,
    standardize,
    apply_standardization,
)
from .cluster_core import KmeansResult, kmeanspp_init, lloyd, silhouette
from .cac_engine import (
    CacModel,
    CacRun,
    ClusterState,
    apply_move,
    cac_fit,
    cac_predict,
    cac_predict_batch,
    cluster_cost,
    total_cost,
)
from .classifiers import (
    ClassifierSpec,
    TrainedClassifier,
    logloss_bounds,
    train_classifier,
    train_per_cluster,
)
from .metrics import EvalReport, auc, auprc, evaluate_binary, evaluate_multiclass, f1
from .neural import (
    AmsHead,
    DeepCacModel,
    LatentClusterState,
    NetParams,
    ams_bounds,
    deepcac_fit,
    deepcac_predict,
    deepcac_predict_batch,
    forward_backward,
    init_latent_clusters,
    kmz_fit,
    pretrain,
    update_assignments,
    update_centroids_online,
)
