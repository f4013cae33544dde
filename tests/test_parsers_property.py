"""Property tests: the parsers fail only with a clean error.

Whatever bytes they are given, read_feature_sidecar, load_checkpoint and
read_assignments either return a well-formed object or raise ValueError
(ManifestError is one), and a valid sidecar or checkpoint cut short is
always rejected.  read_manifest returns a valid manifest or raises
ManifestError, never another ValueError.  Generated headers declare only
small sizes, so even a loader that allocated before checking its header
would stay small.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidapt import (
    DomainManifest,
    LinearEmbedder,
    ManifestError,
    MlpEmbedder,
    Tracklet,
    load_checkpoint,
    read_assignments,
    read_feature_sidecar,
    read_manifest,
    save_checkpoint,
    write_feature_sidecar,
    write_manifest,
)
from reidapt import io as io_mod

# Derandomized and without an example database: every run tries the same inputs.
bounded = settings(max_examples=150, deadline=None, derandomize=True, database=None)
small = st.integers(min_value=0, max_value=6)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers") / "input"


def parse_or_none(parser, path, data: bytes):
    """parser(path) on a file holding data; None when it raised ValueError."""
    path.write_bytes(data)
    try:
        return parser(path)
    except ValueError:
        return None


def cut_short(data: bytes, draw) -> bytes:
    return data[: draw(st.integers(min_value=0, max_value=len(data) - 1))]


sidecar_headers = st.builds(
    lambda n, d, body: struct.pack("<4sII", b"KTF1", n, d) + body,
    small, small, st.binary(max_size=200),
)


class TestSidecar:
    @bounded
    @given(st.one_of(st.binary(max_size=64), sidecar_headers))
    def test_arbitrary_bytes(self, path, data):
        rows = parse_or_none(read_feature_sidecar, path, data)
        if rows is not None:
            assert rows.dtype == np.float64 and 12 + 4 * rows.size == len(data)

    @bounded
    @given(small, small, st.data())
    def test_truncated_file_rejected(self, path, n, d, data):
        full = struct.pack("<4sII", b"KTF1", n, d) + np.ones(n * d, dtype="<f4").tobytes()
        assert parse_or_none(read_feature_sidecar, path, cut_short(full, data.draw)) is None


@st.composite
def checkpoint_headers(draw):
    code, d_in, d_hid, d_out = draw(st.integers(0, 3)), draw(small), draw(small), draw(small)
    # Often the count a linear or MLP of these dims has, and a body that fits.
    fits = [0, d_in * d_out + d_out, d_in * d_hid + d_hid + d_hid * d_out + d_out]
    n = draw(st.sampled_from(fits) | st.integers(0, 100))
    body = draw(st.just(bytes(8 * n)) | st.binary(max_size=400))
    return struct.pack("<4sIIIIQIQ", b"KTE1", code, d_in, d_hid, d_out, 0, 0, n) + body


dims = st.integers(1, 6)  # embedders reject a zero dim; headers still draw them (small)
embedders = st.one_of(
    st.builds(lambda i, o: LinearEmbedder(np.ones((i, o)), np.ones(o)), dims, dims),
    st.builds(
        lambda i, h, o: MlpEmbedder(np.ones((i, h)), np.ones(h), np.ones((h, o)), np.ones(o)),
        dims, dims, dims,
    ),
)


class TestCheckpoint:
    @bounded
    @given(st.one_of(
        st.binary(max_size=64).filter(lambda b: not b.startswith(b"KTE1")),
        checkpoint_headers(),
    ))
    def test_arbitrary_bytes(self, path, data):
        ckpt = parse_or_none(load_checkpoint, path, data)
        if ckpt is not None:
            _, code, d_in, d_hid, d_out, _, _, n_params = struct.unpack_from("<4sIIIIQIQ", data)
            e = ckpt.embedder
            if e is None:  # kind 0: raw features, no parameters
                assert (code, d_hid, len(data)) == (0, 0, 40) and d_in == d_out
                return
            dims = (e.input_dim, e.hidden_dim, e.output_dim)
            assert (e.kind, dims) == (("identity", "linear", "mlp")[code], (d_in, d_hid, d_out))
            assert 40 + 8 * e.param_vector().size == len(data)

    @bounded
    @given(embedders, st.data())
    def test_truncated_file_rejected(self, path, embedder, data):
        save_checkpoint(path, embedder)
        full = path.read_bytes()
        assert parse_or_none(load_checkpoint, path, cut_short(full, data.draw)) is None


assignment_files = st.lists(
    st.tuples(st.integers(-3, 5), st.text(max_size=6)).map(lambda r: f"{r[0]}\t{r[1]}\n"),
    max_size=6,
).map(lambda lines: "".join(lines).encode("utf-8"))


class TestAssignments:
    @bounded
    @given(st.one_of(st.binary(max_size=64), assignment_files))
    def test_arbitrary_bytes(self, path, data):
        cs = parse_or_none(read_assignments, path, data)
        if cs is not None:
            assert all(c.cluster_id >= 0 for c in cs.clusters)

    @bounded
    @given(assignment_files, st.data())
    def test_truncated_file(self, path, full, data):
        if full:
            parse_or_none(read_assignments, path, cut_short(full, data.draw))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)
# Mostly well-typed fields, so records get past the first checks; any JSON
# value in their place, and any field left out, tests the checks themselves.
record_fields = {
    "tracklet_id": st.text(max_size=3) | json_values,
    "camera_id": st.sampled_from(["A", "B"]) | json_values,
    "identity": st.none() | st.text(max_size=2) | json_values,
    "frames": st.lists(st.lists(st.floats() | st.integers(), max_size=3), max_size=3)
    | json_values,
    "frames_ref": st.fixed_dictionaries({"offset": st.integers(-1, 4), "count": st.integers(-1, 4)})
    | json_values,
}
record_lines = st.one_of(
    st.fixed_dictionaries({}, optional=record_fields),
    json_values,
).map(json.dumps)
manifest_files = st.lists(record_lines | st.just(""), max_size=5).map(
    lambda lines: "\n".join(lines).encode("utf-8")
)

joiners = st.sampled_from(["\n", "\n", "\n", ",", ", ", "\n\n", " \n", ",\n", "[", "]"])
nested_lines = st.sampled_from([
    '{"tracklet_id": "a", "camera_id": "A", "frames": [[1.0, 2.0], [3.0, 4.0]]}',
    '{"tracklet_id": "n", "camera_id": "B", "frames": [[NaN, -Infinity], [1, Infinity]]}',
])


@st.composite
def reshaped_manifests(draw) -> str:
    """Record lines, some joined on one line and some cut over two (a cut at
    a comma takes its place): lines of which raw_decode reads only a part,
    or that hold only a part of a value."""
    lines = draw(st.lists(record_lines | nested_lines, min_size=1, max_size=5))
    text = lines[0]
    for line in lines[1:]:
        text += draw(joiners) + line
    for cut in sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)), reverse=True):
        text = text[:cut] + "\n" + text[cut + (text[cut : cut + 1] == ",") :]
    return text


def records_by_json_loads(path, text):
    """The reference parse: (lineno, json.loads(line)) for each stripped non-blank line."""
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        yield lineno, rec


def parse_outcome(records) -> str:
    try:
        return json.dumps(list(records))
    except ManifestError as exc:
        return str(exc)


small_manifests = st.lists(
    st.tuples(st.text(min_size=1, max_size=4), st.sampled_from(["A", "B"]),
              st.none() | st.text(max_size=2), st.integers(1, 3)),
    min_size=1, max_size=4, unique_by=lambda t: t[0],
)


class TestManifest:
    @pytest.fixture(scope="class")
    def sidecar(self, tmp_path_factory):
        sidecar = tmp_path_factory.mktemp("manifest") / "rows.ktf"
        write_feature_sidecar(sidecar, np.arange(8.0).reshape(4, 2))
        return sidecar

    @staticmethod
    def manifest_or_none(path, data: bytes, sidecar):
        """read_manifest on a file holding data; None when it raised ManifestError."""
        path.write_bytes(data)
        try:
            return read_manifest(path, sidecar=sidecar)
        except ManifestError:
            return None

    @bounded
    @given(st.one_of(st.binary(max_size=200), manifest_files), st.booleans())
    def test_arbitrary_input(self, path, sidecar, data, with_sidecar):
        m = self.manifest_or_none(path, data, sidecar if with_sidecar else None)
        if m is not None:
            assert m.tracklets and m.validation.ok

    @staticmethod
    def records_by_each_line(path):
        """(lineno, record) as read_manifest parses them: _json_record of each
        stripped non-blank line, through _each_line."""
        records = []

        def parse(lineno, line):
            if line.strip():
                records.append((lineno, io_mod._json_record(line.strip())))

        io_mod._each_line(path, ManifestError, parse)
        yield from records

    @bounded
    @given(reshaped_manifests())
    def test_one_parse_of_all_lines_is_the_parse_of_each(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        records = self.records_by_each_line(path)
        assert parse_outcome(records) == parse_outcome(records_by_json_loads(path, text))

    @bounded
    @given(small_manifests, st.booleans(), st.data())
    def test_truncated_manifest(self, path, sidecar, rows, to_sidecar, data):
        m = DomainManifest("m", tuple(
            Tracklet(tid, cam, np.full((n, 2), 0.5), identity=ident)
            for tid, cam, ident, n in rows
        ))
        rows_file = path.with_suffix(".ktf")
        write_manifest(m, path, sidecar=rows_file if to_sidecar else None)
        full = path.read_bytes()
        cut = self.manifest_or_none(path, cut_short(full, data.draw),
                                    rows_file if to_sidecar else None)
        if cut is not None:
            assert [t.tracklet_id for t in cut.tracklets] == \
                [t.tracklet_id for t in m.tracklets[: len(cut.tracklets)]]
