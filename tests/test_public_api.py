"""Snapshot of the public API: the names reidapt exports and their signatures.

A change to any exported name or signature fails here, so it shows up as a
test diff and can be listed in CHANGES.md.  Exceptions and constants are
pinned by name only.  To accept a change, update the line in SNAPSHOT.
"""

import inspect

import reidapt

SNAPSHOT = """
AdaptConfig(K: 'int' = 2, T: 'int' = 2, k1: 'int | None' = None, I: 'int' = 2, cluster_cap: 'int' = 850, train: 'TrainConfig' = <factory>, connectivity: 'str' = 'weak', normalize: 'bool' = False) -> None
AdaptationError
AdaptationReport(rounds: 'tuple[RoundRecord, ...]', early_stop: 'bool', reason: 'str', checkpoint_id: 'str') -> None
BatchError
Checkpoint(embedder: 'Embedder | None', seed: 'int', round_index: 'int') -> None
ClusterAssignment(cluster_id: 'int', members: 'frozenset[str]') -> None
ClusterQuality(labels: 'dict[int, str]', counts: 'dict[str, int]', purity: 'float') -> None
ClusterSet(clusters: 'tuple[ClusterAssignment, ...]', unclustered: 'frozenset[str]') -> None
DISTRACTOR_LABELS
DomainError
DomainManifest(name: 'str', tracklets: 'tuple[Tracklet, ...]') -> None
Embedder(*arrays)
EvaluationError
GenerationError
LinearEmbedder(weight: 'np.ndarray', bias: 'np.ndarray')
ManifestError
MergeError
MergePolicy(min_identities: 'int' = 201, require_cross_camera: 'bool' = True, exclusion_list: 'frozenset[str]' = <factory>, namespace_ids: 'bool' = True) -> None
MergeReport(sources: 'tuple[SourceSummary, ...]', identities: 'int', images: 'int', cameras: 'int', tracklets: 'int') -> None
MlpEmbedder(W1, b1, W2, b2)
NeighborIndex(ids: 'tuple[str, ...]', cameras: 'tuple[str, ...]', X: 'np.ndarray') -> None
QueryRanking(query_id: 'str', hits: 'np.ndarray') -> None
RankingResult(queries: 'tuple[QueryRanking, ...]') -> None
ReciprocalGraph(vertices: 'tuple[str, ...]', src: 'np.ndarray', dst: 'np.ndarray', weight: 'np.ndarray') -> None
RoundRecord(round_index: 'int', cluster_count: 'int', clustered_fraction: 'float', losses: 'tuple[float, ...]') -> None
SOURCE_ITERATIONS
SourceSummary(source: 'str', included: 'bool', reason: 'str | None', identities: 'int', images: 'int', cameras: 'int', tracklets: 'int') -> None
SyntheticSpec(identities: 'int', cameras: 'int', dim: 'int', frames_per_tracklet: 'tuple[int, int]' = (3, 6), tracklets_per_identity_per_camera: 'tuple[int, int]' = (1, 2), identity_separation: 'float' = 8.0, camera_shift: 'float' = 0.2, noise_sigma: 'float' = 0.5, seed: 'int' = 0) -> None
Tracklet(tracklet_id: 'str', camera_id: 'str', frames: 'np.ndarray', identity: 'str | None' = None) -> None
TrainConfig(iterations: 'int' = 25000, batch_p: 'int' = 8, batch_k: 'int' = 4, margin: 'float | str' = 'soft', learning_rate: 'float' = 0.05, lr_decay: 'float' = 0.9999, seed: 'int' = 0) -> None
ValidationReport(violations: 'tuple[Violation, ...]') -> None
Violation(kind: 'str', message: 'str') -> None
adapt(source_embedder: 'Embedder', target: 'DomainManifest', cfg: 'AdaptConfig') -> 'tuple[Embedder, AdaptationReport]'
average_precision(q: 'QueryRanking') -> 'float'
batch_hard_triplet_loss(embeddings: 'np.ndarray', labels: 'np.ndarray', margin: 'float | str' = 'soft') -> 'tuple[float, np.ndarray]'
build_graph(idx: 'NeighborIndex', k1: 'int', K: 'int | None' = None) -> 'ReciprocalGraph'
build_neighbor_index(m: 'DomainManifest', embedder=None, normalize: 'bool' = False) -> 'NeighborIndex'
build_ranking(idx: 'NeighborIndex', truth: 'DomainManifest', queries=None) -> 'RankingResult'
checkpoint_id(embedder: 'Embedder') -> 'str'
classify_clusters(clusters: 'ClusterSet', truth: 'DomainManifest') -> 'ClusterQuality'
cluster(idx: 'NeighborIndex', cfg: 'AdaptConfig') -> 'ClusterSet'
cluster_set(components: 'list[frozenset[str]]', T: 'int') -> 'ClusterSet'
cmc(r: 'RankingResult', ranks=(1, 5, 10, 20)) -> 'np.ndarray'
connected_subgraphs(g: 'ReciprocalGraph', connectivity: 'str' = 'weak') -> 'list[frozenset[str]]'
default_kt(n_cameras: 'int') -> 'tuple[int, int]'
filter_cross_camera(m: 'DomainManifest') -> 'DomainManifest'
generate_synthetic_domain(spec: 'SyntheticSpec') -> 'DomainManifest'
identity_clusters(m: 'DomainManifest') -> 'ClusterSet'
inter_intra_distances(clusters: 'ClusterSet', truth: 'DomainManifest', idx: 'NeighborIndex', method: 'str' = 'centroid') -> 'tuple[list[float], list[float]]'
k_reciprocal_distance(idx: 'NeighborIndex', s: 'str', t: 'str') -> 'int'
load_checkpoint(path) -> 'Checkpoint'
manifest_embeddings(m: 'DomainManifest', embedder=None, normalize: 'bool' = False) -> 'tuple[tuple[str, ...], np.ndarray]'
mean_average_precision(r: 'RankingResult') -> 'float'
merge_domains(sources: 'list[DomainManifest]', policy: 'MergePolicy') -> 'tuple[DomainManifest, MergeReport]'
read_assignments(path) -> 'ClusterSet'
read_feature_sidecar(path) -> 'np.ndarray'
read_manifest(path, sidecar=None, name=None) -> 'DomainManifest'
save_checkpoint(path, embedder: 'Embedder', seed: 'int' = 0, round_index: 'int' = 0) -> 'None'
threshold_graph(g: 'ReciprocalGraph', K: 'int') -> 'ReciprocalGraph'
top_k(idx: 'NeighborIndex', k: 'int', tracklet_id: 'str') -> 'tuple[str, ...]'
tracklet_embedding(t: 'Tracklet') -> 'np.ndarray'
train_embedder(embedder: 'Embedder', clusters: 'ClusterSet', m: 'DomainManifest', cfg: 'TrainConfig', progress=None) -> 'Embedder'
validate_manifest(m: 'DomainManifest') -> 'ValidationReport'
write_assignments(clusters: 'ClusterSet', path) -> 'None'
write_feature_sidecar(path, rows: 'np.ndarray') -> 'None'
write_manifest(m: 'DomainManifest', path, sidecar=None) -> 'None'
"""


def public_api() -> list[str]:
    lines = []
    for name, obj in sorted(vars(reidapt).items()):
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            lines.append(f"{name}{inspect.signature(obj)}")
        else:
            lines.append(name)
    return lines


def test_exported_names():
    want = [line.split("(")[0] for line in SNAPSHOT.strip().splitlines()]
    assert [line.split("(")[0] for line in public_api()] == want


def test_exported_signatures():
    assert public_api() == SNAPSHOT.strip().splitlines()
