"""On-disk formats: manifest JSONL, feature sidecar, assignment TSV.

Manifest: UTF-8 JSON lines, one tracklet per line with keys tracklet_id,
camera_id, identity (string or null) and either "frames" (array of arrays
of JSON numbers) or "frames_ref" ({"offset", "count"} rows in a binary
sidecar).  read_manifest parses the file line by line, each record once,
and keeps no record past its tracklet.  A bad record fails as
"<path>:<line>: ...", a manifest-level violation as "<path> is invalid
(<count> violations; first: ...)".

Sidecar: magic "KTF1", u32 row count, u32 dim, then row-major little-endian
float32 rows.  read_manifest converts a sidecar to float64 once, as one
read-only matrix: the manifest's frame_layout, of which each tracklet's
frames are a row view.  write_manifest writes a manifest's frame_layout.

Assignments: "<cluster_id>\t<tracklet_id>" lines, -1 for unclustered.

Queries: one tracklet id per line, each id once, blank lines ignored.

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
from .model import ClusterAssignment, DomainManifest, Tracklet, gather_frames

_SIDECAR_MAGIC = b"KTF1"
_SIDECAR_HEADER = struct.Struct("<4sII")
_READ_VALUES = 1 << 16  # float32 values read from a sidecar at a time
_decode = json.JSONDecoder().raw_decode  # the scanner behind json.loads, without its checks


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
        fh.write(rows.data)  # the rows' own buffer, not a bytes copy


def read_feature_sidecar(path) -> np.ndarray:
    """The sidecar's rows as a new float64 matrix.

    The float32 rows are read and converted a block at a time, so the file
    is never held whole beside the matrix.
    """
    with open(path, "rb") as fh:
        head = fh.read(_SIDECAR_HEADER.size)
        if len(head) < _SIDECAR_HEADER.size or head[:4] != _SIDECAR_MAGIC:
            raise ManifestError(f"{path}: not a feature sidecar (bad magic)")
        _magic, n_rows, dim = _SIDECAR_HEADER.unpack(head)
        n_bytes = os.fstat(fh.fileno()).st_size - _SIDECAR_HEADER.size
        if n_bytes != 4 * n_rows * dim:
            raise ManifestError(f"{path}: expected {n_rows}x{dim} values, found {n_bytes} bytes")
        rows = np.empty((n_rows, dim))
        block = np.empty((max(1, _READ_VALUES // max(1, dim)), dim), dtype="<f4")
        for a in range(0, n_rows, len(block)):
            part = block[: n_rows - a]
            if fh.readinto(part) != part.nbytes:
                raise ManifestError(f"{path}: file ended before its {n_rows}x{dim} values")
            rows[a : a + len(part)] = part
    return rows


def write_manifest(m: DomainManifest, path, sidecar=None) -> None:
    """Write a valid manifest as JSON lines; frames go to `sidecar` if given.

    An invalid manifest raises ManifestError("manifest '<name>' is invalid
    (...)") before any file is opened.  Inline JSON frames round-trip float64
    exactly.  The sidecar holds the float32 rows of m.frame_layout, gathered
    into tracklet order unless its spans already tile it in order, and
    frames_ref is a tracklet's start row and count there.  It is lossy
    unless the values are already float32-representable.
    """
    m.validation.check(f"manifest {m.name!r}")
    path = Path(path)
    if sidecar is not None:
        F, offsets, n = gather_frames(*m.frame_layout)
        write_feature_sidecar(sidecar, F)

    with atomic_write(path) as fh:
        for i, t in enumerate(m.tracklets):
            rec: dict = {
                "tracklet_id": t.tracklet_id,
                "camera_id": t.camera_id,
                "identity": t.identity,
            }
            if sidecar is None:
                rec["frames"] = t.frames.tolist()
            else:
                rec["frames_ref"] = {"offset": int(offsets[i]), "count": int(n[i])}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _each_line(path, error, parse) -> None:
    """Call parse(lineno, line) on each line of a UTF-8 text file, in order.

    Read with errors="surrogateescape", so a line holding bytes that are not
    UTF-8 fails on its own, as error("not UTF-8: ...").  That error, and any
    `error` that parse raises with a bare message, ends the read as
    error("<path>:<line>: <message>").
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if not line.isascii():
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise error(f"not UTF-8: {exc}") from exc
                parse(lineno, line)
            except error as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc


def _json_record(line: str):
    """The JSON value of one stripped manifest line.

    A line that raw_decode does not read whole is read again by json.loads,
    which words the error (a UTF-8 BOM, extra data, ...).
    """
    try:
        rec, end = _decode(line)
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        end = -1
    if end != len(line):
        try:
            rec = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ManifestError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ManifestError("JSON nested too deeply") from exc
    return rec


def read_manifest(path, sidecar=None, name=None) -> DomainManifest:
    """Load and validate a JSONL manifest; any violation is a hard error.

    With a sidecar, the frames of frames_ref records are read-only views of
    the sidecar's one float64 matrix, and a manifest of such records only
    keeps that matrix as its frame_layout.
    """
    path = Path(path)
    features = None
    if sidecar is not None:
        features = read_feature_sidecar(sidecar)
        features.setflags(write=False)
    tracklets, starts, counts = [], [], []

    def parse(_lineno, line):
        line = line.strip()
        if not line:
            return
        rec = _json_record(line)
        if not isinstance(rec, dict):
            raise ManifestError("record is not a JSON object")
        try:
            tid, cam = rec["tracklet_id"], rec["camera_id"]
        except KeyError as exc:
            raise ManifestError(f"missing field {exc}") from exc
        identity = rec.get("identity")
        if not (isinstance(tid, str) and isinstance(cam, str)):
            raise ManifestError("tracklet_id and camera_id must be strings")
        if not (identity is None or isinstance(identity, str)):
            raise ManifestError("identity must be a string or null")
        if "frames" in rec:
            tracklets.append(Tracklet(tracklet_id=tid, camera_id=cam, frames=rec["frames"],
                                      identity=identity))
            return
        if "frames_ref" not in rec:
            raise ManifestError("record has neither frames nor frames_ref")
        if features is None:
            raise ManifestError("frames_ref present but no sidecar was given")
        ref = rec["frames_ref"]
        # type() rather than isinstance: JSON true/false must not pass as 1/0.
        if not (isinstance(ref, dict) and type(ref.get("offset")) is int
                and type(ref.get("count")) is int):
            raise ManifestError("frames_ref must be an object with integer offset and count")
        lo, count = ref["offset"], ref["count"]
        if lo < 0 or count < 0 or lo + count > features.shape[0]:
            raise ManifestError(
                f"frames_ref [{lo}, {lo + count}) outside sidecar of {features.shape[0]} rows"
            )
        frames = features[lo : lo + count]
        if frames.size == 0:  # as Tracklet normalises empty frames
            frames, count = features[:0, :0], 0
        tracklets.append(Tracklet._view(tid, cam, frames, identity))
        starts.append(lo)
        counts.append(count)

    _each_line(path, ManifestError, parse)
    name = name if name is not None else path.stem
    if counts and len(counts) == len(tracklets):  # all frames_ref: the sidecar is the layout
        layout = (features, np.array(starts, dtype=np.intp), np.array(counts, dtype=np.intp))
        m = DomainManifest._over(name, tracklets, layout)
    else:
        m = DomainManifest(name, tuple(tracklets))
    m.validation.check(str(path))
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
        for c in clusters.clusters:
            for tid in sorted(c.members):
                fh.write(f"{c.cluster_id}\t{tid}\n")
        for tid in sorted(clusters.unclustered):
            fh.write(f"-1\t{tid}\n")


def read_assignments(path) -> ClusterSet:
    """Read write_assignments output; every tracklet id is non-empty and on one line only."""
    members: dict[int, set[str]] = {}
    unclustered: set[str] = set()
    line_of: dict[str, int] = {}

    def parse(lineno, line):
        line = line.rstrip("\n")
        if not line:
            return
        try:
            cid_str, tid = line.split("\t")
            cid = int(cid_str)
        except ValueError as exc:
            raise ValueError(f"bad assignment line {line!r}") from exc
        if cid < -1:
            raise ValueError("cluster id must be -1 or non-negative")
        if not tid:
            raise ValueError("empty tracklet id")
        if tid in line_of:
            raise ValueError(f"tracklet {tid!r} already assigned on line {line_of[tid]}")
        line_of[tid] = lineno
        if cid == -1:
            unclustered.add(tid)
        else:
            members.setdefault(cid, set()).add(tid)

    _each_line(path, ValueError, parse)
    clusters = tuple(
        ClusterAssignment(cluster_id=cid, members=frozenset(members[cid]))
        for cid in sorted(members)
    )
    return ClusterSet(clusters=clusters, unclustered=frozenset(unclustered))


def read_queries(path, known) -> list[str]:
    """Query ids in file order; a non-UTF-8 line, an unknown or a repeated id names its line."""
    line_of: dict[str, int] = {}

    def parse(lineno, line):
        tid = line.strip()
        if not tid:
            return
        if tid not in known:
            raise ValueError(f"unknown query tracklet id {tid!r}")
        if tid in line_of:
            raise ValueError(f"query {tid!r} already listed on line {line_of[tid]}")
        line_of[tid] = lineno

    _each_line(path, ValueError, parse)
    return list(line_of)


def write_json(obj: dict, path) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
