import numpy as np
import pytest

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
)


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
