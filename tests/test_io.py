import json
import sys

import numpy as np
import pytest

from reidapt import (
    ClusterSet,
    DomainManifest,
    LinearEmbedder,
    ManifestError,
    MergeError,
    MergePolicy,
    Tracklet,
    manifest_embeddings,
    merge_domains,
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

from oracles import loop_violations, mean_vector


def sample_manifest(name="sample"):
    rng = np.random.default_rng(0)
    tracklets = []
    for i in range(6):
        cam = "A" if i % 2 == 0 else "B"
        ident = None if i == 5 else f"p{i // 2}"
        frames = rng.normal(size=(int(rng.integers(1, 4)), 3))
        tracklets.append(Tracklet(f"t{i}", cam, frames, identity=ident))
    return DomainManifest(name, tuple(tracklets))


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda path: write_feature_sidecar(path, np.zeros(3)), ValueError,
                 "sidecar rows must be 2-D, got shape (3,)", id="sidecar_1d"),
])
def test_refusal_message(tmp_path, make, error, message):
    with pytest.raises(error) as exc:
        make(tmp_path / "out")
    assert type(exc.value) is error and str(exc.value) == message
    assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("rows", [
        np.arange(12, dtype=np.float64).reshape(4, 3) / 7,
        np.asfortranarray(np.arange(12, dtype=np.float64).reshape(4, 3) / 7),
        (np.arange(24, dtype=np.float64).reshape(8, 3) / 7)[::2],
        np.arange(12, dtype=">f4").reshape(4, 3),
        np.empty((0, 3)),
    ], ids=["float64", "fortran", "strided", "big_endian", "no_rows"])
    def test_sidecar_bytes_are_the_header_and_float32_rows(self, tmp_path, rows):
        path = tmp_path / "x.ktf"
        write_feature_sidecar(path, rows)
        want = np.ascontiguousarray(rows, dtype="<f4")
        assert path.read_bytes() == (b"KTF1" + np.array(rows.shape, "<u4").tobytes()
                                     + want.tobytes())

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

    @pytest.mark.parametrize("frames", [
        pytest.param('[["-13.12", "-6.65"]]', id="string"),
        pytest.param("[[true, false]]", id="bool"),
        pytest.param("[[1.5, true]]", id="bool_beside_number"),
        pytest.param("[[null, 1.0]]", id="null"),
    ])
    def test_non_number_frame_value_names_line(self, tmp_path, frames):
        path = tmp_path / "m.jsonl"
        path.write_text('{"tracklet_id": "a", "camera_id": "c1", "frames": ' + frames + "}\n")
        with pytest.raises(ManifestError, match=f"^{path}:1: frame values must be numbers"):
            read_manifest(path)

    def test_every_gate_gives_one_invalid_manifest_format(self, tmp_path):
        # Two valid sources of different dims merge into one invalid manifest.
        one = lambda tid, cam, frame: Tracklet(tid, cam, [frame], identity=tid[0])
        alpha = DomainManifest("alpha", (one("a0", "c1", [0.0]), one("a1", "c2", [1.0])))
        beta = DomainManifest("beta", (one("b0", "c1", [0.0, 1.0]), one("b1", "c2", [1.0, 2.0])))
        bad = DomainManifest("bad", alpha.tracklets + beta.tracklets)
        tail = (" is invalid (2 violations; first: dim-mismatch: "
                "tracklet 'b0' has dim 2, manifest dim 1)")
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(
            json.dumps({"tracklet_id": t.tracklet_id, "camera_id": t.camera_id,
                        "identity": t.identity, "frames": t.frames.tolist()}) + "\n"
            for t in bad.tracklets
        ))
        policy = MergePolicy(min_identities=1, namespace_ids=False)
        gates = [
            (ManifestError, f"{path}", lambda: read_manifest(path)),
            (ManifestError, "manifest 'bad'", lambda: write_manifest(bad, tmp_path / "out.jsonl")),
            (ManifestError, "manifest 'bad'", lambda: manifest_embeddings(bad)),
            (MergeError, "source 'bad'", lambda: merge_domains([bad], policy)),
            (MergeError, "merged manifest", lambda: merge_domains([alpha, beta], policy)),
        ]
        for error, what, gate in gates:
            with pytest.raises(error) as info:
                gate()
            assert str(info.value) == what + tail


def ref_line(tid, offset, count, cam="c"):
    return json.dumps({"tracklet_id": tid, "camera_id": cam, "identity": None,
                       "frames_ref": {"offset": offset, "count": count}}) + "\n"


class TestSidecarLayout:
    """read_manifest over a sidecar keeps one read-only matrix; tracklets view it."""

    # (offset, count): overlapping, out of order, leaving rows 7-8 unread.
    REFS = [(4, 3), (0, 2), (1, 3), (9, 1), (0, 1)]

    def write(self, tmp_path, refs):
        rows = np.arange(30, dtype=np.float64).reshape(10, 3) / 4
        sidecar, path = tmp_path / "x.ktf", tmp_path / "m.jsonl"
        write_feature_sidecar(sidecar, rows)
        path.write_text("".join(ref_line(f"t{i}", lo, n, "AB"[i % 2])
                                for i, (lo, n) in enumerate(refs)))
        return path, sidecar, rows

    def test_frames_are_read_only_views_of_one_read_only_matrix(self, tmp_path):
        path, sidecar, _ = self.write(tmp_path, self.REFS)
        m = read_manifest(path, sidecar=sidecar)
        F, start, n = m.frame_layout
        assert not F.flags.writeable
        assert start.tolist() == [lo for lo, _ in self.REFS]
        assert n.tolist() == [c for _, c in self.REFS]
        for t in m.tracklets:
            assert np.shares_memory(t.frames, F) and not t.frames.flags.writeable
            with pytest.raises(ValueError):
                t.frames[0, 0] = -1.0
            with pytest.raises(ValueError):
                t.frames.setflags(write=True)
        with pytest.raises(ValueError):
            F[0, 0] = -1.0
        assert read_feature_sidecar(sidecar)[0, 0] == F[0, 0] == 0.0

    def test_spans_read_back_as_the_per_tracklet_oracle(self, tmp_path):
        path, sidecar, rows = self.write(tmp_path, self.REFS)
        m = read_manifest(path, sidecar=sidecar)
        for t, (lo, n) in zip(m.tracklets, self.REFS):
            assert t == Tracklet(t.tracklet_id, t.camera_id, rows[lo : lo + n])
        ids, X = manifest_embeddings(m)
        assert [list(x) for x in X] == [mean_vector(m.by_id[tid]) for tid in ids]

    def test_embedded_spans_read_back_as_the_per_tracklet_oracle(self, tmp_path):
        path, sidecar, rows = self.write(tmp_path, self.REFS)
        m = read_manifest(path, sidecar=sidecar)
        e = LinearEmbedder.random(3, 2, np.random.default_rng(0))
        ids, X = manifest_embeddings(m, e)
        want = [Tracklet(tid, "c", e.embed(rows[lo : lo + n]))
                for tid, (lo, n) in sorted((f"t{i}", ref) for i, ref in enumerate(self.REFS))]
        assert [list(x) for x in X] == [mean_vector(t) for t in want]

    def test_non_finite_rows_found_in_any_span(self, tmp_path):
        # Spans that hold a bad row, end just before one or start just after one.
        rows = np.arange(30, dtype=np.float64).reshape(10, 3)
        rows[3, 1], rows[8, 0] = np.nan, -np.inf
        refs = [(0, 3), (4, 4), (2, 2), (8, 1), (3, 1), (9, 1), (1, 2), (5, 4)]
        sidecar, path = tmp_path / "x.ktf", tmp_path / "m.jsonl"
        write_feature_sidecar(sidecar, rows)
        path.write_text("".join(ref_line(f"t{i}", lo, n) for i, (lo, n) in enumerate(refs)))
        want = loop_violations(DomainManifest("m", tuple(
            Tracklet(f"t{i}", "c", rows[lo : lo + n]) for i, (lo, n) in enumerate(refs))))
        assert [kind for kind, _ in want] == ["non-finite"] * 4
        with pytest.raises(ManifestError) as exc:
            read_manifest(path, sidecar=sidecar)
        assert str(exc.value) == f"{path} is invalid (4 violations; first: {': '.join(want[0])})"

    def test_count_zero_reads_as_empty_frames(self, tmp_path):
        path, sidecar, _ = self.write(tmp_path, self.REFS + [(5, 0)])
        with pytest.raises(ManifestError) as exc:
            read_manifest(path, sidecar=sidecar)
        assert str(exc.value) == (f"{path} is invalid (1 violations; first: "
                                  "empty-frames: tracklet 't5' has no frames)")

    def test_dim_zero_sidecar_reads_as_empty_frames(self, tmp_path):
        sidecar, path = tmp_path / "x.ktf", tmp_path / "m.jsonl"
        write_feature_sidecar(sidecar, np.zeros((3, 0)))
        path.write_text(ref_line("a", 0, 2) + ref_line("b", 1, 2, "B"))
        with pytest.raises(ManifestError) as exc:
            read_manifest(path, sidecar=sidecar)
        assert str(exc.value) == (f"{path} is invalid (2 violations; first: "
                                  "empty-frames: tracklet 'a' has no frames)")

    def test_rewrite_writes_the_sidecar_of_tracklet_order(self, tmp_path):
        path, sidecar, rows = self.write(tmp_path, self.REFS)
        m = read_manifest(path, sidecar=sidecar)
        out, out_sidecar = tmp_path / "out.jsonl", tmp_path / "out.ktf"
        write_manifest(m, out, sidecar=out_sidecar)
        frames = np.concatenate([rows[lo : lo + n] for lo, n in self.REFS])
        assert out_sidecar.read_bytes() == (b"KTF1" + np.array([len(frames), 3], "<u4").tobytes()
                                            + frames.astype("<f4").tobytes())
        offsets = np.cumsum([n for _, n in self.REFS]) - [n for _, n in self.REFS]
        assert out.read_text() == "".join(
            ref_line(f"t{i}", int(o), n, "AB"[i % 2]).replace(" ", "")
            for i, (o, (_, n)) in enumerate(zip(offsets, self.REFS)))
        # Compact and in order already: the matrix is written as it is.
        again, again_sidecar = tmp_path / "again.jsonl", tmp_path / "again.ktf"
        write_manifest(read_manifest(out, sidecar=out_sidecar), again, sidecar=again_sidecar)
        assert again_sidecar.read_bytes() == out_sidecar.read_bytes()
        assert again.read_bytes() == out.read_bytes()

    def test_mixed_inline_and_sidecar_frames(self, tmp_path):
        path, sidecar, rows = self.write(tmp_path, self.REFS[:2])
        with path.open("a") as fh:
            fh.write('{"tracklet_id": "z", "camera_id": "A", "frames": [[0.5, 1.5, 2.5]]}\n')
        m = read_manifest(path, sidecar=sidecar)
        F, start, n = m.frame_layout
        assert F.tolist() == [*rows[4:7].tolist(), *rows[0:2].tolist(), [0.5, 1.5, 2.5]]
        assert start.tolist() == [0, 3, 5] and n.tolist() == [3, 2, 1]


class TestWriteManifestValidates:
    @pytest.mark.parametrize("to_sidecar", [False, True], ids=["inline", "sidecar"])
    def test_invalid_manifest_refused_before_any_file(self, tmp_path, to_sidecar):
        # An empty-frames tracklet beside 2-d ones: with a sidecar this once
        # failed inside numpy, and without one it was written.
        m = DomainManifest("m", (Tracklet("a", "A", [[1.0, 2.0]]), Tracklet("b", "B", [])))
        sidecar = tmp_path / "m.ktf" if to_sidecar else None
        with pytest.raises(ManifestError) as exc:
            write_manifest(m, tmp_path / "m.jsonl", sidecar=sidecar)
        assert str(exc.value) == ("manifest 'm' is invalid (1 violations; first: "
                                  "empty-frames: tracklet 'b' has no frames)")
        assert list(tmp_path.iterdir()) == []


GOOD = '{"tracklet_id": "a", "camera_id": "A", "frames": [[1.0]]}'
GOOD_B = '{"tracklet_id": "b", "camera_id": "B", "frames": [[2.0]]}'


class TestLineParse:
    """Each line is parsed on its own, and a bad line fails in json.loads' words."""

    @staticmethod
    def line_error(path, lineno, line):
        """The message of the line-by-line reader for a line json.loads refuses."""
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            return f"{path}:{lineno}: invalid JSON: {exc}"
        raise AssertionError("the line parses")

    def read_error(self, path, data: bytes):
        path.write_bytes(data)
        with pytest.raises(ManifestError) as exc:
            read_manifest(path)
        return str(exc.value)

    def test_two_records_on_one_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        line = GOOD + "," + GOOD_B
        assert self.read_error(path, (line + "\n").encode()) == self.line_error(path, 1, line)

    def test_one_record_over_two_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        first, second = '{"tracklet_id": "a", "frames": [[1.0,', '2.0]], "camera_id": "A"}'
        data = f"{GOOD_B}\n{first}\n{second}\n".encode()
        assert self.read_error(path, data) == self.line_error(path, 2, first)

    def test_both_at_once_still_name_the_first_bad_line(self, tmp_path):
        # Three records on line 1, and one over lines 2-3 whose parts parse
        # as one record once a value is put between them: the counts agree.
        path = tmp_path / "m.jsonl"
        line = ",".join([GOOD, GOOD_B, GOOD])
        data = f'{line}\n{{"tracklet_id": "c", "camera_id": "A", "frames": [[1.0\n2.0]]}}\n'
        assert self.read_error(path, data.encode()) == self.line_error(path, 1, line)

    def test_a_literal_nan_reads_as_nan(self, tmp_path):
        path = tmp_path / "m.jsonl"
        data = f'{GOOD}\n{{"tracklet_id": "n", "camera_id": "B", "frames": [[NaN]]}}\n'.encode()
        assert self.read_error(path, data).endswith("first: non-finite: tracklet 'n' contains NaN or Inf)")

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        data = f"{GOOD}\n".encode() + b'{"tracklet_id": "\xff"}\n'
        message = self.read_error(path, data)
        assert message.startswith(f"{path}:2: not UTF-8: ")

    def test_too_deep_names_its_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        data = f"{GOOD}\n{GOOD_B}\n{deep}\n".encode()
        assert self.read_error(path, data) == f"{path}:3: JSON nested too deeply"

    def test_an_earlier_record_error_comes_before_a_later_json_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        data = f'{GOOD}\n{{"camera_id": "A", "frames": [[1.0]]}}\nnot json\n'.encode()
        assert self.read_error(path, data) == f"{path}:2: missing field 'tracklet_id'"

    def test_blank_and_crlf_lines_keep_their_numbers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        data = f"\r\n{GOOD}\r\n  \n{GOOD_B}\r{{\"camera_id\": \"A\"}}\n".encode()
        assert self.read_error(path, data) == f"{path}:5: missing field 'tracklet_id'"

    def test_a_leading_utf8_bom_is_refused_in_json_loads_words(self, tmp_path):
        path = tmp_path / "m.jsonl"
        data = f"\ufeff{GOOD}\n{GOOD_B}\n".encode()
        message = self.read_error(path, data)
        assert message == self.line_error(path, 1, f"\ufeff{GOOD}")
        assert "Unexpected UTF-8 BOM" in message

    def test_text_after_a_record_is_extra_data(self, tmp_path):
        path = tmp_path / "m.jsonl"
        line = GOOD + " trailing"
        message = self.read_error(path, f"{GOOD_B}\n{line}\n".encode())
        assert message == self.line_error(path, 2, line)
        assert message.startswith(f"{path}:2: invalid JSON: Extra data: ")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    def test_an_integer_past_the_digit_limit_names_its_line(self, tmp_path):
        # json.loads raises a plain ValueError here, not JSONDecodeError.
        path = tmp_path / "m.jsonl"
        line = '{"tracklet_id": "a", "camera_id": "A", "frames": [[' + "7" * 5000 + "]]}"
        message = self.read_error(path, f"{GOOD_B}\n{line}\n".encode())
        assert message.startswith(f"{path}:2: invalid JSON: Exceeds the limit (")

    def test_non_ascii_ids_read_as_their_escaped_form(self, tmp_path):
        m = DomainManifest("m", (
            Tracklet("é-1", "カメラA", [[1.0, 2.0]], identity="人"),
            Tracklet("🚶", "B", [[3.0, 4.0], [5.0, 6.0]]),
            Tracklet("t", "カメラA", [[0.5, -0.5]], identity="人"),
        ))
        escaped, raw = tmp_path / "escaped.jsonl", tmp_path / "raw.jsonl"
        write_manifest(m, escaped)
        assert escaped.read_bytes().isascii()
        raw.write_text("".join(
            json.dumps(json.loads(line), ensure_ascii=False) + "\n"
            for line in escaped.read_text().splitlines()
        ), encoding="utf-8")
        assert not raw.read_bytes().isascii()
        assert read_manifest(raw, name="m") == read_manifest(escaped, name="m") == m


@pytest.mark.parametrize("read,text,error,message", [
    pytest.param(read_manifest,
                 f'{GOOD}\n{{"tracklet_id": "b", "camera_id": "B", "frames": [["1.5"]]}}\n',
                 ManifestError, "frame values must be numbers, found str", id="manifest"),
    pytest.param(read_assignments, "0\ta\n-4\tb\n", ValueError,
                 "cluster id must be -1 or non-negative", id="assignments"),
    pytest.param(lambda path: io_mod.read_queries(path, {"a"}), "a\nb\n", ValueError,
                 "unknown query tracklet id 'b'", id="queries"),
])
def test_each_reader_names_path_and_line(tmp_path, read, text, error, message):
    # One loop prefixes every reader's line errors, Tracklet's among them.
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(error) as exc:
        read(path)
    assert type(exc.value) is error and str(exc.value) == f"{path}:2: {message}"


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

    def test_reverse_listed_set_writes_the_same_bytes(self, tmp_path):
        cs = self.cluster_fixture()
        write_assignments(cs, tmp_path / "a.tsv")
        write_assignments(ClusterSet(cs.clusters[::-1], cs.unclustered), tmp_path / "b.tsv")
        assert (tmp_path / "b.tsv").read_bytes() == (tmp_path / "a.tsv").read_bytes()

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
