"""Cross-camera tracklet clustering and unsupervised domain adaptation.

The pipeline: tracklets (per-frame feature vectors from one camera track)
are ranked against all other cameras, wired into a rank-weighted graph whose
thresholded components become unsupervised person clusters, and those
clusters serve as pseudo-labels for triplet fine-tuning of the embedder.
Repeating cluster/fine-tune rounds adapts a source-trained embedder to a new
camera network without labels.
"""

from .errors import (
    AdaptationError,
    BatchError,
    DomainError,
    EvaluationError,
    GenerationError,
    ManifestError,
    MergeError,
)
from .model import (
    AdaptConfig,
    ClusterAssignment,
    DomainManifest,
    SOURCE_ITERATIONS,
    Tracklet,
    TrainConfig,
    ValidationReport,
    Violation,
    default_kt,
    manifest_embeddings,
    tracklet_embedding,
    validate_manifest,
)
from .neighbors import NeighborIndex, build_neighbor_index, k_reciprocal_distance, top_k
from .graph import (
    ClusterSet,
    ReciprocalGraph,
    build_graph,
    cluster,
    cluster_set,
    connected_subgraphs,
    threshold_graph,
)
from .adapt import (
    AdaptationReport,
    Checkpoint,
    Embedder,
    IdentityEmbedder,
    LinearEmbedder,
    MlpEmbedder,
    RoundRecord,
    adapt,
    batch_hard_triplet_loss,
    checkpoint_id,
    identity_clusters,
    load_checkpoint,
    save_checkpoint,
    train_embedder,
)
from .synth import (
    DISTRACTOR_LABELS,
    MergePolicy,
    MergeReport,
    SourceSummary,
    SyntheticSpec,
    filter_cross_camera,
    generate_synthetic_domain,
    merge_domains,
)
from .evaluate import (
    ClusterQuality,
    QueryRanking,
    RankingResult,
    average_precision,
    build_ranking,
    classify_clusters,
    cmc,
    inter_intra_distances,
    mean_average_precision,
)
from .io import (
    read_assignments,
    read_feature_sidecar,
    read_manifest,
    write_assignments,
    write_feature_sidecar,
    write_manifest,
)

__version__ = "0.1.0"
