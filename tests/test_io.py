import json

import numpy as np
import pytest

from reidapt import (
    ClusterSet,
    DomainManifest,
    LinearEmbedder,
    ManifestError,
    Tracklet,
    read_assignments,
    read_feature_sidecar,
    read_manifest,
    save_checkpoint,
    write_assignments,
    write_feature_sidecar,
    write_manifest,
)
from reidapt import io as io_mod
from reidapt.io import write_json
from reidapt.model import ClusterAssignment


def sample_manifest(name="sample"):
    rng = np.random.default_rng(0)
    tracklets = []
    for i in range(6):
        cam = "A" if i % 2 == 0 else "B"
        ident = None if i == 5 else f"p{i // 2}"
        frames = rng.normal(size=(int(rng.integers(1, 4)), 3))
        tracklets.append(Tracklet(f"t{i}", cam, frames, identity=ident))
    return DomainManifest(name, tuple(tracklets))


class TestManifestRoundTrip:
    def test_inline_frames_lossless(self, tmp_path):
        m = sample_manifest()
        path = tmp_path / "m.jsonl"
        write_manifest(m, path)
        back = read_manifest(path, name=m.name)
        assert back == m  # field-for-field, including float64 frames

    def test_name_defaults_to_stem(self, tmp_path):
        m = sample_manifest()
        path = tmp_path / "louvre.jsonl"
        write_manifest(m, path)
        assert read_manifest(path).name == "louvre"

    def test_write_is_byte_stable(self, tmp_path):
        m = sample_manifest()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifest(m, p1)
        write_manifest(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_roundtrip(self, tmp_path):
        # Sidecar stores float32, so feed float32-representable values.
        base = sample_manifest()
        m = DomainManifest(
            base.name,
            tuple(
                Tracklet(
                    t.tracklet_id,
                    t.camera_id,
                    t.frames.astype(np.float32).astype(np.float64),
                    t.identity,
                )
                for t in base.tracklets
            ),
        )
        path = tmp_path / "m.jsonl"
        sidecar = tmp_path / "m.ktf"
        write_manifest(m, path, sidecar=sidecar)
        assert b"frames_ref" in path.read_bytes()
        back = read_manifest(path, sidecar=sidecar, name=m.name)
        assert back == m

    def test_sidecar_header(self, tmp_path):
        rows = np.arange(12, dtype=np.float64).reshape(4, 3)
        path = tmp_path / "x.ktf"
        write_feature_sidecar(path, rows)
        blob = path.read_bytes()
        assert blob[:4] == b"KTF1"
        assert np.array_equal(read_feature_sidecar(path), rows)

    def test_frames_ref_without_sidecar_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(
                {
                    "tracklet_id": "t",
                    "camera_id": "c",
                    "identity": None,
                    "frames_ref": {"offset": 0, "count": 1},
                }
            )
            + "\n"
        )
        with pytest.raises(ManifestError, match="sidecar"):
            read_manifest(path)

    def test_out_of_range_ref_rejected(self, tmp_path):
        sidecar = tmp_path / "x.ktf"
        write_feature_sidecar(sidecar, np.zeros((2, 3)))
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(
                {
                    "tracklet_id": "t",
                    "camera_id": "c",
                    "identity": None,
                    "frames_ref": {"offset": 1, "count": 5},
                }
            )
            + "\n"
        )
        with pytest.raises(ManifestError, match="outside"):
            read_manifest(path, sidecar=sidecar)


class TestManifestLoadValidation:
    def test_bad_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"tracklet_id": "a", "camera_id": "c", "frames": [[1.0]]}\nnot json\n')
        with pytest.raises(ManifestError, match=":2"):
            read_manifest(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"camera_id": "c", "frames": [[1.0]]}\n')
        with pytest.raises(ManifestError, match="tracklet_id"):
            read_manifest(path)

    def test_mixed_dims_hard_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        lines = [
            {"tracklet_id": "a", "camera_id": "c1", "identity": None, "frames": [[1.0]]},
            {"tracklet_id": "b", "camera_id": "c2", "identity": None, "frames": [[1.0, 2.0]]},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        with pytest.raises(ManifestError, match="dim-mismatch"):
            read_manifest(path)

    def test_duplicate_ids_hard_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rec = {"tracklet_id": "a", "camera_id": "c1", "identity": None, "frames": [[1.0]]}
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ManifestError, match="duplicate-id"):
            read_manifest(path)

    def test_non_finite_hard_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rec = {"tracklet_id": "a", "camera_id": "c1", "identity": None, "frames": [[float("nan")]]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ManifestError, match="non-finite"):
            read_manifest(path)


class TestAssignments:
    def cluster_fixture(self):
        return ClusterSet(
            clusters=(
                ClusterAssignment(0, frozenset({"b", "a"})),
                ClusterAssignment(1, frozenset({"c"})),
            ),
            unclustered=frozenset({"z", "y"}),
        )

    def test_format_and_order(self, tmp_path):
        path = tmp_path / "a.tsv"
        write_assignments(self.cluster_fixture(), path)
        assert path.read_text() == "0\ta\n0\tb\n1\tc\n-1\ty\n-1\tz\n"

    def test_roundtrip(self, tmp_path):
        cs = self.cluster_fixture()
        path = tmp_path / "a.tsv"
        write_assignments(cs, path)
        assert read_assignments(path) == cs

    @pytest.mark.parametrize("ch", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    @pytest.mark.parametrize("where", ["clustered", "unclustered"])
    def test_id_that_cannot_read_back_rejected_before_writing(self, tmp_path, ch, where):
        bad = f"t{ch}0"
        members, unclustered = {"a"}, {"z"}
        (members if where == "clustered" else unclustered).add(bad)
        cs = ClusterSet((ClusterAssignment(0, frozenset(members)),), frozenset(unclustered))
        with pytest.raises(ValueError) as exc:
            write_assignments(cs, tmp_path / "a.tsv")
        assert str(exc.value) == (f"tracklet id {bad!r}: "
                                  "assignments cannot store a tab or line break")
        assert list(tmp_path.iterdir()) == []

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("zero\ta\n")
        with pytest.raises(ValueError):
            read_assignments(path)

    def test_cluster_id_below_minus_one_names_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("0\ta\n-4\tb\n")
        with pytest.raises(ValueError) as exc:
            read_assignments(path)
        assert str(exc.value) == f"{path}:2: cluster id must be -1 or non-negative"

    @pytest.mark.parametrize("text,message", [
        ("0\ta\n1\ta\n", "2: tracklet 'a' already assigned on line 1"),
        ("0\tb\n-1\ta\n\n0\ta\n", "4: tracklet 'a' already assigned on line 2"),
        ("0\ta\n2\t\n", "2: empty tracklet id"),
    ])
    def test_duplicate_or_empty_id_names_line(self, tmp_path, text, message):
        path = tmp_path / "a.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_assignments(path)
        assert str(exc.value) == f"{path}:{message}"

    def test_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"0\ta\n1\t\xffb\n")
        with pytest.raises(ValueError) as exc:
            read_assignments(path)
        assert str(exc.value).startswith(f"{path}:2: not UTF-8: ")


class FailingFile:
    """A file whose second write raises, as on a disk that fills mid-write."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    WRITERS = {
        "sidecar": lambda p: write_feature_sidecar(p, np.ones((4, 3))),
        "manifest": lambda p: write_manifest(sample_manifest(), p),
        "assignments": lambda p: write_assignments(TestAssignments().cluster_fixture(), p),
        "json": lambda p: write_json({"a": [1, 2, 3], "b": "x"}, p),
        "checkpoint": lambda p: save_checkpoint(p, LinearEmbedder.identity(3)),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return FailingFile(fh) if "x" in mode else fh

        monkeypatch.setattr(io_mod, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            self.WRITERS[writer](path)
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_serializer_error_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_json({"a": 1}, path)
        old = path.read_bytes()
        # json.dump has written '{\n  "a": 1,\n  "b": ' when the object fails.
        with pytest.raises(TypeError):
            write_json({"a": 1, "b": object()}, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_missing_directory_names_target(self, tmp_path):
        path = tmp_path / "missing" / "a.tsv"
        with pytest.raises(FileNotFoundError) as exc:
            write_assignments(TestAssignments().cluster_fixture(), path)
        assert exc.value.filename == str(path)
