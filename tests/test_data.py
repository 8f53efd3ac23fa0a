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
    vals = losses.loss_2d_rows(ad.constant(proj), s.kp2d, s.vis)
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


def test_excluded_frames_follow_visibility_and_threshold_at_six(toy_model):
    ds = data.gen_synthetic_dataset(toy_model, 1, 8, 25.0, seed=3, feature_dim=24,
                                    vis_dropout=0.0)
    s = ds.sequences[0]
    assert not s.excluded.any()
    vis = s.vis.copy()
    vis[2, :] = False
    vis[2, :5] = True   # 5 visible: excluded
    vis[4, :] = False
    vis[4, :6] = True   # 6 visible: kept
    from dataclasses import replace
    s2 = replace(s, vis=vis)
    assert s2.excluded.tolist() == [False, False, True] + [False] * 5  # indices preserved
    vis[0] = False      # a later change of the same array shows at once
    assert s2.excluded[0]


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
