import numpy as np
import pytest

import oracles
import reidapt.synth as synth_mod
from reidapt import (
    AdaptConfig,
    DomainManifest,
    GenerationError,
    ManifestError,
    MergeError,
    MergePolicy,
    SyntheticSpec,
    Tracklet,
    build_neighbor_index,
    classify_clusters,
    cluster,
    filter_cross_camera,
    generate_synthetic_domain,
    merge_domains,
    validate_manifest,
    write_manifest,
)

from oracles import loop_generate_synthetic_domain, loop_place_centroids


def labeled(tid, cam, ident, x=0.0):
    return Tracklet(tid, cam, [[x]], identity=ident)


def make_source(name, n_ids, cameras=("c1", "c2"), frames_per=1):
    tracklets = []
    for i in range(n_ids):
        for cam in cameras:
            tracklets.append(
                Tracklet(
                    f"{cam}_t{i}",
                    cam,
                    [[float(i)]] * frames_per,
                    identity=f"id{i:04d}",
                )
            )
    return DomainManifest(name, tuple(tracklets))


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: SyntheticSpec(identities=0, cameras=2, dim=2), ValueError,
                 "identities must be positive", id="identities"),
    pytest.param(lambda: SyntheticSpec(identities=2, cameras=2, dim=0), ValueError,
                 "dim must be positive", id="dim"),
    *(pytest.param(lambda r=r: SyntheticSpec(identities=2, cameras=2, dim=2,
                                             tracklets_per_identity_per_camera=r),
                   ValueError,
                   "tracklets_per_identity_per_camera must satisfy 0 <= lo <= hi, hi >= 1",
                   id=f"tracklets_{r[0]}_{r[1]}")
      for r in ((-1, 1), (2, 1), (0, 0))),
    pytest.param(lambda: MergePolicy(min_identities=0), ValueError,
                 "min_identities must be positive", id="min_identities"),
    pytest.param(lambda: merge_domains([], MergePolicy()), MergeError, "no source domains given",
                 id="no_sources"),
])
def test_refusal_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


class TestFilterCrossCamera:
    def test_drops_single_camera_identities(self):
        m = DomainManifest(
            "m",
            (
                labeled("t1", "c1", "p1"),
                labeled("t2", "c2", "p1"),
                labeled("t3", "c1", "p2"),  # p2 only ever in c1
                labeled("t4", "c1", "p2"),
            ),
        )
        out = filter_cross_camera(m)
        assert [t.tracklet_id for t in out.tracklets] == ["t1", "t2"]

    def test_idempotent(self):
        m = DomainManifest(
            "m",
            (
                labeled("t1", "c1", "p1"),
                labeled("t2", "c2", "p1"),
                labeled("t3", "c3", "p2"),
            ),
        )
        once = filter_cross_camera(m)
        twice = filter_cross_camera(once)
        assert once == twice

    def test_unlabeled_rejected(self):
        m = DomainManifest("m", (Tracklet("t1", "c1", [[0.0]]),))
        with pytest.raises(ManifestError):
            filter_cross_camera(m)


class TestMergeDomains:
    def test_namespacing(self):
        a = make_source("alpha", 3)
        b = make_source("beta", 3)
        policy = MergePolicy(min_identities=1)
        merged, report = merge_domains([a, b], policy)
        ids = {t.tracklet_id for t in merged.tracklets}
        assert "alpha/c1_t0" in ids and "beta/c1_t0" in ids
        cams = set(merged.cameras)
        assert cams == {"alpha/c1", "alpha/c2", "beta/c1", "beta/c2"}
        idents = {t.identity for t in merged.tracklets}
        assert "alpha/id0000" in idents and "beta/id0000" in idents
        assert merged.name == "alpha+beta"
        assert validate_manifest(merged).ok

    def test_small_source_dropped_at_boundary(self):
        # 200 usable identities is too few; 201 is enough.
        small = make_source("small", 200)
        big = make_source("big", 201)
        merged, report = merge_domains([small, big], MergePolicy())
        by_name = {s.source: s for s in report.sources}
        assert by_name["small"].included is False
        assert by_name["small"].reason == "too-few-identities"
        assert by_name["big"].included is True
        assert all(t.tracklet_id.startswith("big/") for t in merged.tracklets)

    def test_identity_count_measured_after_cross_camera_filter(self):
        # 201 identities but one never crosses cameras: drops to 200 -> excluded.
        tracklets = list(make_source("border", 200).tracklets)
        tracklets.append(labeled("solo", "c1", "id_solo"))
        border = DomainManifest("border", tuple(tracklets))
        keeper = make_source("keeper", 201)
        merged, report = merge_domains([border, keeper], MergePolicy())
        by_name = {s.source: s for s in report.sources}
        assert by_name["border"].included is False
        assert by_name["border"].identities == 200

    def test_exclusion_list(self):
        a = make_source("alpha", 5)
        b = make_source("beta", 5)
        merged, report = merge_domains(
            [a, b], MergePolicy(min_identities=1, exclusion_list=frozenset({"beta"}))
        )
        by_name = {s.source: s for s in report.sources}
        assert by_name["beta"].included is False
        assert by_name["beta"].reason == "exclusion-list"
        assert {t.tracklet_id.split("/")[0] for t in merged.tracklets} == {"alpha"}

    def test_excluded_source_counted_as_given(self):
        # An excluded source is neither validated nor checked for labels, and
        # its counts include its distractor and its single-camera identity;
        # its unlabeled tracklet counts toward tracklets and images only.
        given = list(make_source("held", 2).tracklets)
        given += [labeled("junk", "c1", "-1"), labeled("solo", "c3", "id_solo"),
                  Tracklet("anon", "c1", [[0.0], [1.0]])]
        held = DomainManifest("held", tuple(given))
        keep = make_source("keep", 3)  # exactly min_identities
        merged, report = merge_domains(
            [keep, held], MergePolicy(min_identities=3, exclusion_list=frozenset({"held"}))
        )
        assert merged.name == "keep"
        assert report.to_dict() == {
            "sources": [
                {"source": "held", "included": False, "reason": "exclusion-list",
                 "identities": 4, "images": 8, "cameras": 3, "tracklets": 7},
                {"source": "keep", "included": True, "reason": None,
                 "identities": 3, "images": 6, "cameras": 2, "tracklets": 6},
            ],
            "merged": {"identities": 3, "images": 6, "cameras": 2, "tracklets": 6},
        }

    def test_excluded_unlabeled_source_has_no_identities(self):
        held = DomainManifest("held", (Tracklet("a", "c1", [[0.0]]), Tracklet("b", "c2", [[1.0], [2.0]])))
        _, report = merge_domains(
            [make_source("keep", 1), held], MergePolicy(min_identities=1, exclusion_list=frozenset({"held"}))
        )
        assert report.to_dict()["sources"][0] == {
            "source": "held", "included": False, "reason": "exclusion-list",
            "identities": 0, "images": 3, "cameras": 2, "tracklets": 2,
        }

    def test_distractors_dropped(self):
        tracklets = list(make_source("src", 3).tracklets)
        tracklets.append(labeled("junk1", "c1", "-1"))
        tracklets.append(labeled("junk2", "c2", "-1"))
        tracklets.append(labeled("junk3", "c1", "distractor"))
        tracklets.append(labeled("junk4", "c2", "distractor"))
        src = DomainManifest("src", tuple(tracklets))
        merged, report = merge_domains([src], MergePolicy(min_identities=1))
        assert not any("junk" in t.tracklet_id for t in merged.tracklets)
        assert report.sources[0].identities == 3

    def test_single_camera_identities_removed(self):
        tracklets = list(make_source("src", 3).tracklets)
        tracklets.append(labeled("lonely", "c1", "id_solo"))
        src = DomainManifest("src", tuple(tracklets))
        merged, _ = merge_domains([src], MergePolicy(min_identities=1))
        assert not any(t.identity == "src/id_solo" for t in merged.tracklets)

    def test_allow_single_camera(self):
        tracklets = list(make_source("src", 3).tracklets)
        tracklets.append(labeled("lonely", "c1", "id_solo"))
        src = DomainManifest("src", tuple(tracklets))
        merged, _ = merge_domains(
            [src], MergePolicy(min_identities=1, require_cross_camera=False)
        )
        assert any(t.identity == "src/id_solo" for t in merged.tracklets)

    def test_report_counts_match_independent_recount(self):
        rng = np.random.default_rng(8)
        sources = []
        for name, n_ids in (("alpha", 6), ("beta", 9)):
            tracklets = []
            for i in range(n_ids):
                for cam in ("c1", "c2", "c3"):
                    n_frames = int(rng.integers(1, 5))
                    tracklets.append(
                        Tracklet(
                            f"{cam}_t{i}",
                            cam,
                            rng.normal(size=(n_frames, 3)),
                            identity=f"id{i}",
                        )
                    )
            sources.append(DomainManifest(name, tuple(tracklets)))
        merged, report = merge_domains(sources, MergePolicy(min_identities=1))

        for summary in report.sources:
            mine = [t for t in merged.tracklets if t.tracklet_id.startswith(summary.source + "/")]
            assert summary.tracklets == len(mine)
            assert summary.identities == len({t.identity for t in mine})
            assert summary.images == sum(t.n_frames for t in mine)
            assert summary.cameras == len({t.camera_id for t in mine})
        assert report.tracklets == len(merged.tracklets)
        assert report.identities == len({t.identity for t in merged.tracklets})
        assert report.images == sum(t.n_frames for t in merged.tracklets)

    def test_everything_excluded_is_an_error(self):
        a = make_source("alpha", 5)
        with pytest.raises(MergeError):
            merge_domains([a], MergePolicy(min_identities=100))

    def test_duplicate_source_names_rejected(self):
        a = make_source("alpha", 5)
        with pytest.raises(MergeError):
            merge_domains([a, a], MergePolicy(min_identities=1))

    def test_unlabeled_source_rejected(self):
        bad = DomainManifest("bad", (Tracklet("t", "c1", [[0.0]]),))
        with pytest.raises(MergeError):
            merge_domains([bad], MergePolicy(min_identities=1))

    def test_no_namespace_keeps_ids(self):
        a = make_source("alpha", 3)
        merged, _ = merge_domains(
            [a], MergePolicy(min_identities=1, namespace_ids=False)
        )
        assert {t.tracklet_id for t in merged.tracklets} == {
            t.tracklet_id for t in a.tracklets
        }


class TestSyntheticGenerator:
    def spec(self, **overrides):
        base = dict(
            identities=8,
            cameras=3,
            dim=4,
            frames_per_tracklet=(2, 4),
            tracklets_per_identity_per_camera=(1, 2),
            identity_separation=6.0,
            camera_shift=0.2,
            noise_sigma=0.3,
            seed=0,
        )
        base.update(overrides)
        return SyntheticSpec(**base)

    def test_deterministic_per_seed(self):
        a = generate_synthetic_domain(self.spec())
        b = generate_synthetic_domain(self.spec())
        assert a == b
        c = generate_synthetic_domain(self.spec(seed=1))
        assert a != c

    def test_output_is_valid_and_labeled(self):
        m = generate_synthetic_domain(self.spec())
        assert validate_manifest(m).ok
        assert all(t.identity is not None for t in m.tracklets)
        assert len(m.cameras) == 3

    def test_centroid_separation_respected(self):
        m = generate_synthetic_domain(self.spec(noise_sigma=0.0, camera_shift=0.0))
        # With no noise and no camera shift, each identity's frames sit
        # exactly on its centroid.
        centroids = {}
        for t in m.tracklets:
            centroids[t.identity] = t.frames[0]
        idents = sorted(centroids)
        for i, a in enumerate(idents):
            for b in idents[i + 1 :]:
                assert np.linalg.norm(centroids[a] - centroids[b]) >= 6.0 - 1e-9

    def test_zero_noise_zero_shift_frames_identical(self):
        m = generate_synthetic_domain(self.spec(noise_sigma=0.0, camera_shift=0.0))
        by_ident: dict[str, list[np.ndarray]] = {}
        for t in m.tracklets:
            assert np.all(t.frames == t.frames[0])
            by_ident.setdefault(t.identity, []).append(t.frames[0])
        for frames in by_ident.values():
            for f in frames[1:]:
                assert np.array_equal(f, frames[0])

    def test_frame_and_tracklet_counts_within_ranges(self):
        m = generate_synthetic_domain(self.spec())
        per_cam: dict[tuple[str, str], int] = {}
        for t in m.tracklets:
            assert 2 <= t.n_frames <= 4
            per_cam[(t.identity, t.camera_id)] = per_cam.get((t.identity, t.camera_id), 0) + 1
        assert per_cam and all(1 <= c <= 2 for c in per_cam.values())

    def test_two_identities_fully_recovered(self):
        m = generate_synthetic_domain(
            self.spec(
                identities=2,
                cameras=2,
                noise_sigma=0.05,
                camera_shift=0.02,
                tracklets_per_identity_per_camera=(1, 1),
            )
        )
        cs = cluster(build_neighbor_index(m), AdaptConfig(K=1, T=1))
        quality = classify_clusters(cs, m)
        assert len(cs.clusters) == 2
        assert quality.purity == 1.0
        assert quality.counts["GC"] == 2

    def test_infeasible_packing_raises(self, monkeypatch):
        monkeypatch.setattr(synth_mod, "_PLACEMENT_TRIES", 1)
        with pytest.raises(GenerationError):
            generate_synthetic_domain(
                self.spec(identities=60, dim=1, identity_separation=50.0)
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            self.spec(cameras=1)
        with pytest.raises(ValueError):
            self.spec(identity_separation=0.0)
        with pytest.raises(ValueError):
            self.spec(frames_per_tracklet=(0, 3))
        with pytest.raises(ValueError):
            self.spec(noise_sigma=-1.0)


# perfbench's set-up specs (seed 1; adapt-300 draws its two domains at seeds 2 and 3).
CLUSTER_9K = dict(identities=1500, cameras=4, dim=64, seed=1)
EVAL_3K = dict(identities=500, cameras=4, dim=64, seed=1)
ADAPT_300 = dict(identities=50, cameras=4, dim=16, identity_separation=3.5, camera_shift=0.1,
                 noise_sigma=0.65)
# Low-d specs whose first tries are not all accepted, so placement goes on one try at a time,
# except 2d-overflow, where every norm is inf.  The squares of the last two underflow and
# overflow, so they skip the bulk estimate.
REJECTING = {
    "1d": dict(identities=60, cameras=2, dim=1, seed=3),
    "2d": dict(identities=200, cameras=2, dim=2, seed=3),
    "2d-underflow": dict(identities=200, cameras=2, dim=2, seed=3, identity_separation=1e-160),
    "2d-overflow": dict(identities=200, cameras=2, dim=2, seed=3, identity_separation=1e160),
}


class Rows:
    """A generator stand-in: uniform() hands out these rows in order, whatever its bounds."""

    def __init__(self, rows):
        self.rows, self.state, self.bit_generator = np.array(rows, dtype=np.float64), 0, self

    def uniform(self, low, high, size):
        k = int(np.prod(size)) // self.rows.shape[1]
        self.state += k
        return self.rows[self.state - k : self.state].reshape(size).copy()


def both_placements(spec, rng=np.random.default_rng):
    """[(centroids, generator state after placement)] of the library, then of the oracle."""
    out = []
    for place in (synth_mod._place_centroids, loop_place_centroids):
        r = rng(spec.seed)
        out.append((place(r, spec), r.bit_generator.state))
    return out


def assert_same_placement(spec):
    (got, got_state), (want, want_state) = both_placements(spec)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got_state == want_state


def assert_same_domain(spec):
    got, want = generate_synthetic_domain(spec), loop_generate_synthetic_domain(spec)
    assert got.name == want.name
    labels = [[(t.tracklet_id, t.camera_id, t.identity) for t in m.tracklets] for m in (got, want)]
    assert labels[0] == labels[1]
    assert [t.frames.shape for t in got.tracklets] == [t.frames.shape for t in want.tracklets]
    assert all(a.frames.tobytes() == b.frames.tobytes()
               for a, b in zip(got.tracklets, want.tracklets))
    # One read-only frame matrix, of which every tracklet's frames are a row view.
    F, start, n = got.frame_layout
    assert F.tobytes() == want.frame_layout[0].tobytes() and not F.flags.writeable
    assert np.array_equal(start, want.frame_layout[1]) and np.array_equal(n, want.frame_layout[2])
    assert all(t.frames.base is F and not t.frames.flags.writeable for t in got.tracklets)


class TestGeneratorMatchesLoop:
    """The bulk placement and the one frame matrix keep the per-try loop's bytes and draws."""

    def test_cluster_9k_placement(self):
        assert_same_placement(SyntheticSpec(**CLUSTER_9K))

    def test_eval_3k_domain(self):
        assert_same_domain(SyntheticSpec(**EVAL_3K))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_adapt_300_domains(self, seed):
        assert_same_domain(SyntheticSpec(**ADAPT_300, seed=seed))

    @pytest.mark.parametrize("name", sorted(REJECTING))
    def test_rejecting_specs(self, name):
        spec = SyntheticSpec(**REJECTING[name])
        with np.errstate(over="ignore"):
            assert_same_placement(spec)
            assert_same_domain(spec)
            after = both_placements(spec)[1][1]
        first_tries = np.random.default_rng(spec.seed)
        first_tries.uniform(size=(spec.identities, spec.dim))
        rejected = after != first_tries.bit_generator.state
        assert rejected or name == "2d-overflow"  # there every norm is inf, so no try fails

    def test_overflowing_squares_warn_as_numpy_norm_does(self):
        spec = SyntheticSpec(**REJECTING["2d-overflow"])
        for place in (synth_mod._place_centroids, loop_place_centroids):
            with pytest.raises(RuntimeWarning, match="^overflow encountered in multiply$"):
                place(np.random.default_rng(spec.seed), spec)

    @pytest.mark.parametrize("identities, hi, seed, empty", [
        (6, 3, 0, False), (1, 1, 13, True), (1, 1, 17, True),
    ], ids=["some_zero", "empty_13", "empty_17"])
    def test_tracklet_counts_from_zero(self, identities, hi, seed, empty, tmp_path):
        spec = SyntheticSpec(identities=identities, cameras=2, dim=3,
                             tracklets_per_identity_per_camera=(0, hi), seed=seed)
        assert_same_domain(spec)
        assert (len(generate_synthetic_domain(spec)) == 0) == empty
        if empty:
            errors = []
            for m in (generate_synthetic_domain(spec), loop_generate_synthetic_domain(spec)):
                with pytest.raises(ManifestError) as exc:
                    write_manifest(m, tmp_path / "m.jsonl", sidecar=tmp_path / "m.ktf")
                errors.append(str(exc.value))
            assert errors[0] == errors[1] and "manifest has no tracklets" in errors[0]
            assert not (tmp_path / "m.jsonl").exists() and not (tmp_path / "m.ktf").exists()

    def test_exhausted_tries_fail_alike(self, monkeypatch):
        monkeypatch.setattr(synth_mod, "_PLACEMENT_TRIES", 2)
        monkeypatch.setattr(oracles, "LOOP_PLACEMENT_TRIES", 2)
        spec = SyntheticSpec(identities=60, cameras=2, dim=1, identity_separation=50.0)
        outcomes = []
        for place in (synth_mod._place_centroids, loop_place_centroids):
            rng = np.random.default_rng(spec.seed)
            with pytest.raises(GenerationError) as exc:
                place(rng, spec)
            outcomes.append((str(exc.value), rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "could not place 60 centroids with separation 50.0 in 1-d space"

    def test_written_files_match_the_loop(self, tmp_path):
        spec = SyntheticSpec(**ADAPT_300, seed=2)
        want = loop_generate_synthetic_domain(spec)
        for name, m in (("got", generate_synthetic_domain(spec)), ("want", want)):
            write_manifest(m, tmp_path / f"{name}.jsonl", sidecar=tmp_path / f"{name}.ktf")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        rows = np.concatenate([t.frames for t in want.tracklets]).astype("<f4")
        assert (tmp_path / "got.ktf").read_bytes() == (
            b"KTF1" + np.array(rows.shape, "<u4").tobytes() + rows.tobytes())

    def test_far_specs_never_reach_the_exact_check(self, monkeypatch):
        # eval-3k's 500 64-d first tries are all far apart: the bulk estimate clears every pair.
        calls = []
        clear = synth_mod._clear
        monkeypatch.setattr(synth_mod, "_clear", lambda *a: calls.append(1) or clear(*a))
        synth_mod._place_centroids(np.random.default_rng(1), SyntheticSpec(**EVAL_3K))
        assert calls == []


class TestPlacementBound:
    """The bulk estimate clears only pairs whose numpy norm is >= sep; the rest get numpy's norm."""

    @pytest.mark.parametrize("seed", range(12))
    def test_a_norm_of_exactly_sep_passes_and_one_ulp_more_fails(self, seed):
        r = np.random.default_rng(seed)
        a = 1e4 + r.uniform(size=3)  # a large common offset: the estimate cancels badly
        b = a + r.uniform(-1.0, 1.0, size=3)
        far = a + 100.0
        norm = np.linalg.norm(a[None, :] - b, axis=1)[0]
        for sep, want, draws in ((norm, [a, b], 2), (np.nextafter(norm, np.inf), [a, far], 3)):
            spec = SyntheticSpec(identities=2, cameras=2, dim=3, identity_separation=float(sep))
            (got, got_state), (loop, loop_state) = both_placements(spec, lambda _: Rows([a, b, far]))
            assert got.tobytes() == loop.tobytes() == np.array(want).tobytes()
            assert got_state == loop_state == draws

    def test_a_non_finite_estimate_is_checked_exactly(self):
        # |a|^2 and a.b overflow, so the estimate is inf - inf; the pair's own norm is 1 < sep.
        rows = [[1e200, 0.0], [1e200, 1.0], [0.0, 0.0]]
        spec = SyntheticSpec(identities=2, cameras=2, dim=2, identity_separation=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            (got, _), (loop, _) = both_placements(spec, lambda _: Rows(rows))
        assert got.tobytes() == loop.tobytes() == np.array([rows[0], rows[2]]).tobytes()
