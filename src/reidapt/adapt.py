"""Embedders, batch-hard triplet training, and the adaptation loop.

The adaptation loop alternates two steps on an unlabeled target domain:
cluster the tracklets with the current embedder, then fine-tune the embedder
with a batch-hard triplet loss using cluster ids as pseudo-labels.  Each
round warm-starts from the previous round's parameters.
"""

from __future__ import annotations

import abc
import copy
import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import AdaptationError, BatchError, ManifestError
from .graph import ClusterSet, cluster
from .io import atomic_write
from .model import AdaptConfig, ClusterAssignment, DomainManifest, TrainConfig
from .neighbors import build_neighbor_index, exact_sq_dists

__all__ = [
    "Embedder",
    "LinearEmbedder",
    "MlpEmbedder",
    "TrainConfig",
    "RoundRecord",
    "AdaptationReport",
    "Checkpoint",
    "batch_hard_triplet_loss",
    "identity_clusters",
    "train_embedder",
    "adapt",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_id",
]


class Embedder(abc.ABC):
    """Deterministic differentiable map from feature space to embedding space.

    Implementations carry a flat parameter vector so optimizers and
    checkpoints do not care about the architecture.
    """

    kind: str = "abstract"
    input_dim: int
    output_dim: int

    @abc.abstractmethod
    def embed(self, x: np.ndarray) -> np.ndarray:
        """Map (n, input_dim) -> (n, output_dim); a single vector maps to a vector."""

    @abc.abstractmethod
    def param_vector(self) -> np.ndarray:
        """Copy of all parameters as a flat float64 vector."""

    @abc.abstractmethod
    def set_param_vector(self, params: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of param_vector)."""

    @abc.abstractmethod
    def param_grad(self, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Flat gradient of sum(embed(x) * grad_out) w.r.t. the parameters."""

    def clone(self) -> "Embedder":
        return copy.deepcopy(self)

    @staticmethod
    def _batch(x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            return arr[None, :], True
        if arr.ndim != 2:
            raise ValueError(f"expected a vector or a batch of vectors, got shape {arr.shape}")
        return arr, False


def _check_dims(*dims: int) -> None:
    if min(dims) < 1:
        raise ValueError(f"embedder dims must be positive, got {dims}")


class LinearEmbedder(Embedder):
    """Affine map y = x @ W + b."""

    kind = "linear"

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        W = np.array(weight, dtype=np.float64)
        b = np.array(bias, dtype=np.float64)
        if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[1]:
            raise ValueError(f"inconsistent shapes: W {W.shape}, b {b.shape}")
        _check_dims(*W.shape)
        self.W = W
        self.b = b
        self.input_dim = W.shape[0]
        self.output_dim = W.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "LinearEmbedder":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def random(cls, input_dim: int, output_dim: int, rng: np.random.Generator) -> "LinearEmbedder":
        _check_dims(input_dim, output_dim)  # before 1/sqrt(0) can warn
        W = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, output_dim))
        return cls(W, np.zeros(output_dim))

    def embed(self, x):
        arr, single = self._batch(x)
        y = arr @ self.W + self.b
        return y[0] if single else y

    def param_vector(self):
        return np.concatenate([self.W.ravel(), self.b])

    def set_param_vector(self, params):
        params = np.asarray(params, dtype=np.float64)
        n_w = self.W.size
        if params.shape != (n_w + self.b.size,):
            raise ValueError(f"expected {n_w + self.b.size} parameters, got {params.shape}")
        self.W = params[:n_w].reshape(self.W.shape).copy()
        self.b = params[n_w:].copy()

    def param_grad(self, x, grad_out):
        arr, _ = self._batch(x)
        g = np.asarray(grad_out, dtype=np.float64)
        dW = arr.T @ g
        db = g.sum(axis=0)
        return np.concatenate([dW.ravel(), db])


class MlpEmbedder(Embedder):
    """Two-layer perceptron y = tanh(x @ W1 + b1) @ W2 + b2."""

    kind = "mlp"

    def __init__(self, W1, b1, W2, b2):
        self.W1 = np.array(W1, dtype=np.float64)
        self.b1 = np.array(b1, dtype=np.float64)
        self.W2 = np.array(W2, dtype=np.float64)
        self.b2 = np.array(b2, dtype=np.float64)
        if (
            self.W1.ndim != 2
            or self.W2.ndim != 2
            or self.W1.shape[1] != self.W2.shape[0]
            or self.b1.shape != (self.W1.shape[1],)
            or self.b2.shape != (self.W2.shape[1],)
        ):
            raise ValueError("inconsistent MLP shapes")
        _check_dims(*self.W1.shape, self.W2.shape[1])
        self.input_dim = self.W1.shape[0]
        self.hidden_dim = self.W1.shape[1]
        self.output_dim = self.W2.shape[1]

    @classmethod
    def random(
        cls, input_dim: int, hidden_dim: int, output_dim: int, rng: np.random.Generator
    ) -> "MlpEmbedder":
        _check_dims(input_dim, hidden_dim, output_dim)  # before 1/sqrt(0) can warn
        W1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, hidden_dim))
        W2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(hidden_dim, output_dim))
        return cls(W1, np.zeros(hidden_dim), W2, np.zeros(output_dim))

    def embed(self, x):
        arr, single = self._batch(x)
        y = np.tanh(arr @ self.W1 + self.b1) @ self.W2 + self.b2
        return y[0] if single else y

    def param_vector(self):
        return np.concatenate(
            [self.W1.ravel(), self.b1, self.W2.ravel(), self.b2]
        )

    def set_param_vector(self, params):
        params = np.asarray(params, dtype=np.float64)
        sizes = [self.W1.size, self.b1.size, self.W2.size, self.b2.size]
        if params.shape != (sum(sizes),):
            raise ValueError(f"expected {sum(sizes)} parameters, got {params.shape}")
        chunks = np.split(params, np.cumsum(sizes)[:-1])
        self.W1 = chunks[0].reshape(self.W1.shape).copy()
        self.b1 = chunks[1].copy()
        self.W2 = chunks[2].reshape(self.W2.shape).copy()
        self.b2 = chunks[3].copy()

    def param_grad(self, x, grad_out):
        arr, _ = self._batch(x)
        g = np.asarray(grad_out, dtype=np.float64)
        h = np.tanh(arr @ self.W1 + self.b1)
        dW2 = h.T @ g
        db2 = g.sum(axis=0)
        gh = (g @ self.W2.T) * (1.0 - h * h)
        dW1 = arr.T @ gh
        db1 = gh.sum(axis=0)
        return np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def batch_hard_triplet_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    margin: float | str = "soft",
) -> tuple[float, np.ndarray]:
    """Batch-hard triplet loss and its analytic gradient.

    For each anchor a the hardest positive distance d+ is the maximum
    Euclidean distance to a same-label sample and the hardest negative d-
    the minimum distance to an other-label sample.  Per-anchor terms are
    max(0, margin + d+ - d-) for a float margin, softplus(d+ - d-) for
    margin="soft"; the loss is their mean over the batch.

    Args:
        embeddings: (B, d) float batch.
        labels: (B,) integer labels; at least two distinct values, each with
            at least two members.
        margin: "soft" or a non-negative float.

    Returns:
        (loss, grad) with grad of shape (B, d), the exact gradient of the
        loss with respect to the embeddings.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2:
        raise BatchError(f"embeddings must be 2-D, got shape {X.shape}")
    y = np.asarray(labels)
    B = X.shape[0]
    if y.shape != (B,):
        raise BatchError(f"labels shape {y.shape} does not match batch size {B}")
    same = y[:, None] == y
    if same.all():
        raise BatchError("triplets require at least two distinct labels in the batch")
    counts = same.sum(axis=1)
    if counts.min() < 2:
        lonely = np.sort(y[counts < 2])[:1].item()  # sort: min() has no loop for str labels
        raise BatchError(f"label {lonely!r} has a single sample; need >= 2 per label")
    if isinstance(margin, str):
        if margin != "soft":
            raise BatchError(f"margin must be 'soft' or a non-negative float, got {margin!r}")
    elif not (float(margin) >= 0.0):
        raise BatchError("hard margin must be >= 0")

    D = np.sqrt(exact_sq_dists(X, X))

    # One masked copy of D per side.  d+ and d- are read from these copies,
    # not from D: a row whose negatives all overflowed to +inf has its
    # argmin on a masked entry, where D holds a same-label distance.
    far = np.where(same, D, -np.inf)
    np.fill_diagonal(far, -np.inf)
    near = np.where(same, np.inf, D)
    p_idx = far.argmax(axis=1)
    n_idx = near.argmin(axis=1)
    rows = np.arange(B)
    d_pos = far[rows, p_idx]
    d_neg = near[rows, n_idx]

    raw = d_pos - d_neg
    if margin == "soft":
        losses = np.logaddexp(0.0, raw)
        w = _sigmoid(raw)
    else:
        losses = np.maximum(0.0, float(margin) + raw)
        w = (losses > 0.0).astype(np.float64)
    loss = float(losses.mean())

    # d(||a-b||)/da is the unit vector (a-b)/||a-b||; define it as 0 for
    # coincident points (the loss is locally flat there).
    def _unit(idx):
        vec = X - X[idx]
        norm = D[rows, idx]
        safe = np.where(norm > 0.0, norm, 1.0)
        return np.where((norm > 0.0)[:, None], vec / safe[:, None], 0.0)

    u_pos = _unit(p_idx)
    u_neg = _unit(n_idx)
    scale = (w / B)[:, None]
    grad = scale * (u_pos - u_neg)
    np.add.at(grad, p_idx, -scale * u_pos)
    np.add.at(grad, n_idx, scale * u_neg)
    return loss, grad


def identity_clusters(m: DomainManifest) -> ClusterSet:
    """Group a labeled manifest by ground-truth identity.

    Lets the same training loop run supervised (source domains) and
    pseudo-labeled (adaptation rounds).  Identities get cluster ids 0..m-1
    in sorted identity order.
    """
    groups: dict[str, set[str]] = {}
    for t in m.tracklets:
        if t.identity is None:
            raise ManifestError(f"tracklet {t.tracklet_id!r} is unlabeled")
        groups.setdefault(t.identity, set()).add(t.tracklet_id)
    clusters = tuple(
        ClusterAssignment(cluster_id=i, members=frozenset(groups[ident]))
        for i, ident in enumerate(sorted(groups))
    )
    return ClusterSet(clusters=clusters, unclustered=frozenset())


def _frame_pools(clusters: ClusterSet, m: DomainManifest):
    """(frames, starts, sizes): every member frame in one array, cluster by cluster.

    Clusters come in cluster-id order and members in id order; cluster i's
    frames are rows starts[i] .. starts[i] + sizes[i] of frames.
    """
    rows, sizes = [], []
    for c in sorted(clusters.clusters, key=lambda c: c.cluster_id):
        if not c.members:
            raise AdaptationError(f"cluster {c.cluster_id} has no members")
        size = 0
        for tid in sorted(c.members):
            t = m.by_id.get(tid)
            if t is None:
                raise AdaptationError(f"cluster member {tid!r} not present in manifest {m.name!r}")
            if t.n_frames == 0:
                raise AdaptationError(f"cluster member {tid!r} has no frames")
            rows.append(t.frames)
            size += t.n_frames
        sizes.append(size)
    sizes = np.array(sizes, dtype=np.intp)
    return np.concatenate(rows, axis=0), np.cumsum(sizes) - sizes, sizes


def train_embedder(
    embedder: Embedder,
    clusters: ClusterSet,
    m: DomainManifest,
    cfg: TrainConfig,
    progress=None,
) -> Embedder:
    """Fine-tune a copy of the embedder on cluster-labeled frames.

    Every training sample is a single frame vector labeled by the cluster id
    of its tracklet; unclustered tracklets contribute nothing.  Batches are
    PK-style: min(batch_p, n_clusters) clusters, batch_k frame samples each
    (drawn with replacement when a cluster holds fewer frames).  Plain SGD
    with the exponentially decaying rate from cfg.  The incoming embedder is
    left untouched.

    The random stream is part of the contract: each step draws one
    rng.choice of P clusters, then for each chosen cluster, in chosen order,
    one rng.choice of batch_k frames without replacement, or one
    rng.integers call when the cluster holds fewer than batch_k frames.
    Results for a seed, criterion 6's among them, depend on this stream.

    progress, if given, is called as progress(step, loss) after each step.
    """
    if len(clusters.clusters) == 0:
        raise AdaptationError("no clusters to train on")
    if len(clusters.clusters) < 2:
        raise AdaptationError("need at least two clusters to form triplets")

    frames, starts, sizes = _frame_pools(clusters, m)
    rng = np.random.default_rng(cfg.seed)
    out = embedder.clone()
    params = out.param_vector()

    n_pools = len(sizes)
    P, K = min(cfg.batch_p, n_pools), cfg.batch_k
    # chosen holds distinct clusters, so these labels give the same masks
    # as the cluster ids themselves.
    labels = np.repeat(np.arange(P), K)
    sel = np.empty((P, K), dtype=np.intp)
    for step in range(cfg.iterations):
        chosen = rng.choice(n_pools, size=P, replace=False)
        for i, size in enumerate(sizes[chosen].tolist()):
            if size >= K:
                sel[i] = rng.choice(size, size=K, replace=False)
            else:
                sel[i] = rng.integers(0, size, size=K)
        x = frames[(starts[chosen][:, None] + sel).ravel()]

        yhat = out.embed(x)
        loss, gy = batch_hard_triplet_loss(yhat, labels, cfg.margin)
        grad = out.param_grad(x, gy)
        lr = cfg.learning_rate * cfg.lr_decay**step
        params = params - lr * grad
        out.set_param_vector(params)
        if progress is not None:
            progress(step, loss)
    return out


@dataclass(frozen=True)
class RoundRecord:
    """What one adaptation round saw and did."""

    round_index: int
    cluster_count: int
    clustered_fraction: float
    losses: tuple[float, ...]


@dataclass(frozen=True)
class AdaptationReport:
    rounds: tuple[RoundRecord, ...]
    early_stop: bool
    reason: str  # "completed" | "cluster-cap" | "no-clusters"
    checkpoint_id: str

    def to_dict(self) -> dict:
        return {
            "rounds": [
                {
                    "round_index": r.round_index,
                    "cluster_count": r.cluster_count,
                    "clustered_fraction": r.clustered_fraction,
                    "losses": list(r.losses),
                }
                for r in self.rounds
            ],
            "early_stop": self.early_stop,
            "reason": self.reason,
            "checkpoint_id": self.checkpoint_id,
        }


def checkpoint_id(embedder: Embedder) -> str:
    """Short content hash identifying an embedder's kind, shape and weights."""
    h = hashlib.sha256()
    h.update(embedder.kind.encode())
    hidden = getattr(embedder, "hidden_dim", 0)
    h.update(struct.pack("<III", embedder.input_dim, hidden, embedder.output_dim))
    h.update(np.ascontiguousarray(embedder.param_vector()).tobytes())
    return h.hexdigest()[:16]


def adapt(
    source_embedder: Embedder,
    target: DomainManifest,
    cfg: AdaptConfig,
) -> tuple[Embedder, AdaptationReport]:
    """Run I rounds of cluster-then-fine-tune on an unlabeled target domain.

    Each round clusters the target with the current embedder, then trains on
    the resulting pseudo-labels; round r+1 starts exactly from round r's
    parameters.  The loop stops early when a round yields more clusters than
    cfg.cluster_cap (reason "cluster-cap") or fewer than two clusters
    (reason "no-clusters"); otherwise the reason is "completed".  With I=0
    the source embedder is returned unchanged alongside an empty report.
    Raw features (no embedder) have nothing to fine-tune: AdaptationError.
    """
    if source_embedder is None:
        raise AdaptationError("adaptation needs an embedder with parameters, not raw features")
    rounds: list[RoundRecord] = []
    e = source_embedder
    early_stop = False
    reason = "completed"
    for r in range(cfg.I):
        cs = cluster(build_neighbor_index(target, e, cfg.normalize), cfg)
        count = len(cs.clusters)
        if count > cfg.cluster_cap:
            rounds.append(RoundRecord(r, count, cs.clustered_fraction, ()))
            early_stop, reason = True, "cluster-cap"
            break
        if count < 2:
            rounds.append(RoundRecord(r, count, cs.clustered_fraction, ()))
            early_stop, reason = True, "no-clusters"
            break
        losses: list[float] = []
        round_cfg = replace(cfg.train, seed=cfg.train.seed + r)
        e = train_embedder(e, cs, target, round_cfg, progress=lambda _s, l: losses.append(l))
        rounds.append(RoundRecord(r, count, cs.clustered_fraction, tuple(losses)))
    report = AdaptationReport(
        rounds=tuple(rounds),
        early_stop=early_stop,
        reason=reason,
        checkpoint_id=checkpoint_id(e),
    )
    return e, report


# ---------------------------------------------------------------------------
# Checkpoint file format
#
# magic "KTE1", then little-endian: u32 kind, u32 input_dim, u32 hidden_dim,
# u32 output_dim, u64 seed, u32 round_index, u64 n_params, f64 * n_params.
# Kind 0 ("identity", no parameters) is still read, as raw features.

_CKPT_MAGIC = b"KTE1"
_CKPT_HEADER = struct.Struct("<4sIIIIQIQ")
_CODE_KINDS = {0: "identity", 1: "linear", 2: "mlp"}
_KIND_CODES = {"linear": 1, "mlp": 2}


@dataclass(frozen=True)
class Checkpoint:
    """A loaded KTE1 file; embedder is None for kind 0, which means raw features."""

    embedder: Embedder | None
    seed: int
    round_index: int


def save_checkpoint(path, embedder: Embedder, seed: int = 0, round_index: int = 0) -> None:
    """Serialize an embedder (with provenance seed and round index) to disk."""
    try:
        code = _KIND_CODES[embedder.kind]
    except KeyError:
        raise ValueError(f"cannot checkpoint embedder kind {embedder.kind!r}") from None
    params = np.ascontiguousarray(embedder.param_vector(), dtype=np.float64)
    hidden = getattr(embedder, "hidden_dim", 0)
    header = _CKPT_HEADER.pack(
        _CKPT_MAGIC,
        code,
        embedder.input_dim,
        hidden,
        embedder.output_dim,
        seed,
        round_index,
        params.size,
    )
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        fh.write(params.astype("<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_HEADER.size or blob[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not an embedder checkpoint (bad magic)")
    magic, code, d_in, d_hid, d_out, seed, round_index, n_params = _CKPT_HEADER.unpack_from(blob)
    # The header is checked against its kind before any array exists, so a
    # small file cannot declare dims that allocate a large one.
    kind = _CODE_KINDS.get(code)
    if kind is None:
        raise ValueError(f"{path}: unknown embedder kind code {code}")
    if kind != "mlp" and d_hid != 0:
        raise ValueError(f"{path}: {kind} checkpoint declares hidden_dim {d_hid}, expected 0")
    if kind == "identity" and d_out != d_in:
        raise ValueError(f"{path}: identity checkpoint maps {d_in} to {d_out} dims")
    if 0 in (d_in, d_out) or (kind == "mlp" and d_hid == 0):
        raise ValueError(f"{path}: {kind} checkpoint declares a zero dim ({d_in}, {d_hid}, {d_out})")
    expected = {
        "identity": 0,
        "linear": d_in * d_out + d_out,
        "mlp": d_in * d_hid + d_hid + d_hid * d_out + d_out,
    }[kind]
    if n_params != expected:
        raise ValueError(f"{path}: {kind} dims imply {expected} parameters, header says {n_params}")
    n_bytes = len(blob) - _CKPT_HEADER.size
    if n_bytes != 8 * n_params:
        raise ValueError(f"{path}: expected {n_params} parameters, found {n_bytes} bytes")
    if kind == "identity":
        return Checkpoint(embedder=None, seed=seed, round_index=round_index)
    params = np.frombuffer(blob, dtype="<f8", offset=_CKPT_HEADER.size).astype(np.float64)

    if kind == "linear":
        emb: Embedder = LinearEmbedder(np.zeros((d_in, d_out)), np.zeros(d_out))
    else:
        emb = MlpEmbedder(
            np.zeros((d_in, d_hid)), np.zeros(d_hid), np.zeros((d_hid, d_out)), np.zeros(d_out)
        )
    emb.set_param_vector(params)
    return Checkpoint(embedder=emb, seed=seed, round_index=round_index)
