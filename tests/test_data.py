import itertools

import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import body, camera, data, losses
from meshmotion.container import ValidationError, write_container


@pytest.fixture(scope="module")
def small_dataset(toy_model):
    return data.gen_synthetic_dataset(toy_model, n_seqs=3, n_frames=12, fps=25.0,
                                      seed=5, feature_dim=24, vis_dropout=0.0,
                                      feature_noise=0.01)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_gen_deterministic(toy_model):
    a = data.gen_synthetic_dataset(toy_model, 2, 10, 25.0, seed=7, feature_dim=24)
    b = data.gen_synthetic_dataset(toy_model, 2, 10, 25.0, seed=7, feature_dim=24)
    for sa, sb in zip(a, b):
        assert sa.id == sb.id
        assert np.array_equal(sa.kp2d, sb.kp2d)
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.theta_gt, sb.theta_gt)
    c = data.gen_synthetic_dataset(toy_model, 2, 10, 25.0, seed=8, feature_dim=24)
    assert not np.array_equal(a.sequences[0].features, c.sequences[0].features)


def test_gen_rejects_too_short(toy_model):
    with pytest.raises(ValidationError):
        data.gen_synthetic_dataset(toy_model, 1, 2, 25.0, seed=0)


def test_gen_constant_motion_has_zero_acceleration(toy_model):
    ds = data.gen_synthetic_dataset(toy_model, 1, 10, 25.0, seed=1,
                                    motion_kind="constant", feature_dim=24)
    s = ds.sequences[0]
    thetas = s.theta_gt[:, 10:82]
    assert np.max(np.abs(np.diff(thetas, axis=0))) < 1e-12


def test_gen_gt_selfconsistency_2d_loss_zero(toy_model, small_dataset):
    s = small_dataset.sequences[0]
    full = s.theta_gt
    joints = body.keypoints_3d(toy_model, ad.constant(full[:, :10]),
                               ad.constant(full[:, 10:82])).data
    proj = full[:, 82:83, None] * joints[:, :, :2] + full[:, None, 83:85]
    vals, _ = losses.loss_2d_rows(ad.constant(proj), s.kp2d, s.vis)
    assert vals.shape == (s.n_frames,)
    assert np.all(vals.data < 1e-18)


def test_gen_optimal_camera_refit_zero_residual(toy_model, small_dataset):
    s = small_dataset.sequences[1]
    full = s.theta_gt
    joints = body.keypoints_3d(toy_model, ad.constant(full[:, :10]),
                               ad.constant(full[:, 10:82])).data
    ends = [0, s.n_frames - 1]
    fit = camera.optimal_camera_rows(joints[ends, :, :2], s.kp2d[ends], s.vis[ends])
    assert np.all(fit["residual"].data < 1e-16)
    assert fit["s"].data[:, 0] == pytest.approx(full[ends, 82], rel=1e-9)


def test_gen_feature_meta_tracks_camera_slots(toy_model, small_dataset):
    # adding delta_z through qcam must be equivalent to regenerating the
    # feature with a shifted camera encoding
    meta = small_dataset.feature_meta
    s = small_dataset.sequences[0]
    dz = np.array([0.05, -0.2, 0.3])
    shifted = s.features[0] + meta.qcam @ dz
    assert shifted.shape == s.features[0].shape
    # orthogonal encoding: the shift moves exactly the camera components
    recovered = meta.qcam.T @ (shifted - s.features[0])
    assert np.allclose(recovered, dz, atol=1e-12)


# ---------------------------------------------------------------------------
# frame filtering
# ---------------------------------------------------------------------------


def test_filter_frames_thresholds_at_six(toy_model):
    ds = data.gen_synthetic_dataset(toy_model, 1, 8, 25.0, seed=3, feature_dim=24,
                                    vis_dropout=0.0)
    s = ds.sequences[0]
    vis = s.vis.copy()
    vis[2, :] = False
    vis[2, :5] = True   # 5 visible: excluded
    vis[4, :] = False
    vis[4, :6] = True   # 6 visible: kept
    from dataclasses import replace
    s2 = data.filter_frames(replace(s, vis=vis))
    assert s2.excluded[2]
    assert not s2.excluded[4]
    assert not s2.excluded[0]
    assert s2.n_frames == s.n_frames  # indices preserved


# ---------------------------------------------------------------------------
# track linking
# ---------------------------------------------------------------------------


def kp_at(center, k=8, spread=10.0):
    pts = np.tile(np.asarray(center, dtype=float), (k, 1))
    pts += np.linspace(0, spread, k)[:, None]
    return data.Keypoints2D(points=pts, vis=np.ones(k, dtype=bool))


def test_single_smooth_track():
    frames = [data.DetectionFrame([data.Detection(kp_at((5.0 * t, 0.0)))]) for t in range(10)]
    tracks = data.link_tracks(frames, max_dist=30.0)
    assert len(tracks) == 1
    assert sorted(tracks[0].frames) == list(range(10))


def test_two_people_with_permuted_order_are_separated():
    rng = np.random.default_rng(0)
    frames = []
    truth = []
    for t in range(20):
        a = data.Detection(kp_at((3.0 * t, 0.0)))
        b = data.Detection(kp_at((3.0 * t, 500.0)))
        if rng.random() < 0.5:
            frames.append(data.DetectionFrame([a, b]))
            truth.append({0: "A", 1: "B"})
        else:
            frames.append(data.DetectionFrame([b, a]))
            truth.append({0: "B", 1: "A"})
    tracks = data.link_tracks(frames, max_dist=50.0)
    assert len(tracks) == 2
    for tr in tracks:
        labels = {truth[t][d] for t, d in tr.detection_ids.items()}
        assert len(labels) == 1, "a track mixed identities"
        assert sorted(tr.frames) == list(range(20))


def test_hungarian_beats_greedy_on_cross_case():
    # cost [[1, 10], [10, 1]]: optimal total is 2
    f0 = data.DetectionFrame([data.Detection(kp_at((0.0, 0.0))), data.Detection(kp_at((100.0, 0.0)))])
    f1 = data.DetectionFrame([data.Detection(kp_at((1.0, 0.0))), data.Detection(kp_at((101.0, 0.0)))])
    tracks = data.link_tracks([f0, f1], max_dist=50.0)
    assert len(tracks) == 2
    for tr in tracks:
        pts = [tr.frames[t].points[0, 0] for t in sorted(tr.frames)]
        assert abs(pts[1] - pts[0]) == pytest.approx(1.0)


def test_tracks_partition_detections():
    rng = np.random.default_rng(1)
    frames = []
    for t in range(12):
        dets = [data.Detection(kp_at((rng.uniform(0, 400), rng.uniform(0, 400))))
                for _ in range(rng.integers(0, 4))]
        frames.append(data.DetectionFrame(dets))
    tracks = data.link_tracks(frames, max_dist=40.0)
    seen = set()
    for tr in tracks:
        for t, d in tr.detection_ids.items():
            assert (t, d) not in seen
            seen.add((t, d))
    total = sum(len(f.detections) for f in frames)
    assert len(seen) == total


def test_gap_tolerance_reconnects_and_expires():
    def det(x):
        return data.Detection(kp_at((x, 0.0)))

    frames = [data.DetectionFrame([det(0.0)]), data.DetectionFrame([]),
              data.DetectionFrame([]), data.DetectionFrame([det(3.0)])]
    tracks = data.link_tracks(frames, max_dist=20.0, gap=5)
    assert len(tracks) == 1
    tracks = data.link_tracks(frames, max_dist=20.0, gap=1)
    assert len(tracks) == 2


def test_hungarian_assignment_is_optimal_up_to_6x6():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(2)
    for n in range(2, 7):
        for _ in range(20):
            cost = rng.random((n, n))
            rows, cols = linear_sum_assignment(cost)
            got = cost[rows, cols].sum()
            best = min(sum(cost[i, p[i]] for i in range(n))
                       for p in itertools.permutations(range(n)))
            assert got == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# detection import
# ---------------------------------------------------------------------------


def test_import_detections_roundtrip(tmp_path):
    path = tmp_path / "dets.txt"
    path.write_text(
        "# frame person x y c ...\n"
        "0 0 10 20 0.9 30 40 0.8\n"
        "0 1 100 200 0.7 300 400 0.0\n"
        "2 0 11 21 0.9 31 41 0.8\n")
    frames = data.import_detections(path, k=2)
    assert len(frames) == 3
    assert len(frames[0].detections) == 2
    assert len(frames[1].detections) == 0
    det = frames[0].detections[1]
    assert not det.kp2d.vis[1]  # zero confidence marks invisible
    assert det.score == pytest.approx(0.35)


def test_import_detections_rejects_bad_arity(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1 2 3\n")
    with pytest.raises(ValidationError):
        data.import_detections(path, k=2)


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------


def test_dataset_roundtrip_bit_exact(small_dataset, tmp_path):
    path = tmp_path / "data.bin"
    data.save_dataset(small_dataset, path)
    loaded = data.load_dataset(path)
    assert len(loaded) == len(small_dataset)
    for a, b in zip(small_dataset, loaded):
        assert a.id == b.id and a.fps == b.fps and a.tier == b.tier
        assert np.array_equal(a.kp2d, b.kp2d)
        assert np.array_equal(a.vis, b.vis)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.theta_gt, b.theta_gt)
    assert np.array_equal(loaded.feature_meta.qcam, small_dataset.feature_meta.qcam)


def test_failed_write_keeps_previous_file(small_dataset, tmp_path):
    path = tmp_path / "data.bin"
    data.save_dataset(small_dataset, path)
    before = path.read_bytes()
    # the second section cannot be encoded, so the write raises after the
    # magic and the first section are already out
    with pytest.raises(ValueError):
        write_container(path, data.DATA_MAGIC, [("ok", np.arange(3.0)), ("bad", ["not", "numbers"])])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin"]


def test_dataset_full3d_requires_theta(small_dataset, tmp_path):
    from dataclasses import replace

    s = replace(small_dataset.sequences[0], theta_gt=None)  # tier is full3d
    with pytest.raises(ValidationError):
        data.save_dataset(data.DatasetBundle([s]), tmp_path / "x.bin")


def test_dataset_rejects_bad_fps(small_dataset, tmp_path):
    from dataclasses import replace

    s = replace(small_dataset.sequences[0], fps=0.0)
    with pytest.raises(ValidationError):
        data.save_dataset(data.DatasetBundle([s]), tmp_path / "x.bin")
