"""On-disk formats: manifest JSONL, feature sidecar, assignment TSV.

Manifest: UTF-8 JSON lines, one tracklet per line with keys tracklet_id,
camera_id, identity (string or null) and either "frames" (array of arrays)
or "frames_ref" ({"offset", "count"} rows in a binary sidecar).

Sidecar: magic "KTF1", u32 row count, u32 dim, then row-major little-endian
float32 rows.

Assignments: "<cluster_id>\t<tracklet_id>" lines, -1 for unclustered.

Queries: one tracklet id per line, blank lines ignored.

Every writer goes through atomic_write, so a failed write leaves the old file
(or none) in place, never a truncated one.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .graph import ClusterSet
from .model import ClusterAssignment, DomainManifest, Tracklet

_SIDECAR_MAGIC = b"KTF1"
_SIDECAR_HEADER = struct.Struct("<4sII")


@contextmanager
def atomic_write(path, binary: bool = False):
    """Open a new file beside `path`; it replaces `path` only if the block succeeds.

    On any error the partial file is removed and `path` is left as it was.
    Text files are UTF-8.  The file is created with open(), so it gets the
    usual permissions under the process umask.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_feature_sidecar(path, rows: np.ndarray) -> None:
    rows = np.ascontiguousarray(rows, dtype="<f4")
    if rows.ndim != 2:
        raise ValueError(f"sidecar rows must be 2-D, got shape {rows.shape}")
    with atomic_write(path, binary=True) as fh:
        fh.write(_SIDECAR_HEADER.pack(_SIDECAR_MAGIC, rows.shape[0], rows.shape[1]))
        fh.write(rows.tobytes())


def read_feature_sidecar(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _SIDECAR_HEADER.size or blob[:4] != _SIDECAR_MAGIC:
        raise ManifestError(f"{path}: not a feature sidecar (bad magic)")
    _magic, n_rows, dim = _SIDECAR_HEADER.unpack_from(blob)
    n_bytes = len(blob) - _SIDECAR_HEADER.size
    if n_bytes != 4 * n_rows * dim:
        raise ManifestError(f"{path}: expected {n_rows}x{dim} values, found {n_bytes} bytes")
    body = np.frombuffer(blob, dtype="<f4", offset=_SIDECAR_HEADER.size)
    return body.reshape(n_rows, dim).astype(np.float64)


def write_manifest(m: DomainManifest, path, sidecar=None) -> None:
    """Write a manifest as JSON lines; frames go to `sidecar` if given.

    Inline JSON frames round-trip float64 exactly.  The sidecar stores
    float32, so routing frames there is lossy unless the values are already
    float32-representable.
    """
    path = Path(path)
    if sidecar is not None:
        stacked = (
            np.concatenate([t.frames for t in m.tracklets], axis=0)
            if m.tracklets
            else np.empty((0, 0))
        )
        write_feature_sidecar(sidecar, stacked)

    with atomic_write(path) as fh:
        offset = 0
        for t in m.tracklets:
            rec: dict = {
                "tracklet_id": t.tracklet_id,
                "camera_id": t.camera_id,
                "identity": t.identity,
            }
            if sidecar is None:
                rec["frames"] = t.frames.tolist()
            else:
                rec["frames_ref"] = {"offset": offset, "count": t.n_frames}
                offset += t.n_frames
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _numbered_lines(fh, path, error):
    """(lineno, line) over a text file opened with errors="surrogateescape".

    A line holding bytes that are not UTF-8 raises error("<path>:<line>: ...").
    """
    for lineno, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        yield lineno, line


def read_manifest(path, sidecar=None, name=None) -> DomainManifest:
    """Load and validate a JSONL manifest; any violation is a hard error."""
    path = Path(path)
    features = read_feature_sidecar(sidecar) if sidecar is not None else None

    tracklets = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in _numbered_lines(fh, path, ManifestError):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except RecursionError as exc:
                raise ManifestError(f"{path}:{lineno}: JSON nested too deeply") from exc
            if not isinstance(rec, dict):
                raise ManifestError(f"{path}:{lineno}: record is not a JSON object")
            try:
                tid = rec["tracklet_id"]
                cam = rec["camera_id"]
            except KeyError as exc:
                raise ManifestError(f"{path}:{lineno}: missing field {exc}") from exc
            identity = rec.get("identity")
            if not (isinstance(tid, str) and isinstance(cam, str)):
                raise ManifestError(f"{path}:{lineno}: tracklet_id and camera_id must be strings")
            if not (identity is None or isinstance(identity, str)):
                raise ManifestError(f"{path}:{lineno}: identity must be a string or null")
            if "frames" in rec:
                frames = rec["frames"]
            elif "frames_ref" in rec:
                if features is None:
                    raise ManifestError(
                        f"{path}:{lineno}: frames_ref present but no sidecar was given"
                    )
                ref = rec["frames_ref"]
                # type() rather than isinstance: JSON true/false must not pass as 1/0.
                if not (isinstance(ref, dict) and type(ref.get("offset")) is int
                        and type(ref.get("count")) is int):
                    raise ManifestError(
                        f"{path}:{lineno}: frames_ref must be an object with integer "
                        "offset and count"
                    )
                lo, n = ref["offset"], ref["count"]
                if lo < 0 or n < 0 or lo + n > features.shape[0]:
                    raise ManifestError(
                        f"{path}:{lineno}: frames_ref [{lo}, {lo + n}) outside sidecar "
                        f"of {features.shape[0]} rows"
                    )
                frames = features[lo : lo + n]
            else:
                raise ManifestError(f"{path}:{lineno}: record has neither frames nor frames_ref")
            try:
                tracklets.append(
                    Tracklet(tracklet_id=tid, camera_id=cam, frames=frames, identity=identity)
                )
            except ManifestError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from exc

    m = DomainManifest(name=name if name is not None else path.stem, tracklets=tuple(tracklets))
    report = m.validation
    if not report.ok:
        lines = "; ".join(f"{v.kind}: {v.message}" for v in report.violations[:5])
        more = "" if len(report.violations) <= 5 else f" (+{len(report.violations) - 5} more)"
        raise ManifestError(f"{path}: invalid manifest: {lines}{more}")
    return m


def write_assignments(clusters: ClusterSet, path) -> None:
    """Write cluster assignments, clusters first (by id), then unclustered as -1.

    An id with a tab or line break could not be read back: ValueError, before any file opens.
    """
    ids = [*(t for c in clusters.clusters for t in c.members), *clusters.unclustered]
    bad = sorted(t for t in ids if "\t" in t or "\n" in t or "\r" in t)
    if bad:
        raise ValueError(f"tracklet id {bad[0]!r}: assignments cannot store a tab or line break")
    with atomic_write(path) as fh:
        for c in sorted(clusters.clusters, key=lambda c: c.cluster_id):
            for tid in sorted(c.members):
                fh.write(f"{c.cluster_id}\t{tid}\n")
        for tid in sorted(clusters.unclustered):
            fh.write(f"-1\t{tid}\n")


def read_assignments(path) -> ClusterSet:
    """Read write_assignments output; every tracklet id is non-empty and on one line only."""
    members: dict[int, set[str]] = {}
    unclustered: set[str] = set()
    line_of: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in _numbered_lines(fh, path, ValueError):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                cid_str, tid = line.split("\t")
                cid = int(cid_str)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad assignment line {line!r}") from exc
            if cid < -1:
                raise ValueError(f"{path}:{lineno}: cluster id must be -1 or non-negative")
            if not tid:
                raise ValueError(f"{path}:{lineno}: empty tracklet id")
            if tid in line_of:
                raise ValueError(
                    f"{path}:{lineno}: tracklet {tid!r} already assigned on line {line_of[tid]}"
                )
            line_of[tid] = lineno
            if cid == -1:
                unclustered.add(tid)
            else:
                members.setdefault(cid, set()).add(tid)
    clusters = tuple(
        ClusterAssignment(cluster_id=cid, members=frozenset(members[cid]))
        for cid in sorted(members)
    )
    return ClusterSet(clusters=clusters, unclustered=frozenset(unclustered))


def read_queries(path, known) -> list[str]:
    """Query ids in file order; a non-UTF-8 line or an id not in `known` names its line."""
    queries = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in _numbered_lines(fh, path, ValueError):
            tid = line.strip()
            if not tid:
                continue
            if tid not in known:
                raise ValueError(f"{path}:{lineno}: unknown query tracklet id {tid!r}")
            queries.append(tid)
    return queries


def write_json(obj: dict, path) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
