import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import losses
from meshmotion.nets import EncoderConfig, DiscriminatorSet, drawing
from meshmotion.optim import Adam


class ConstDisc:
    """Stand-in critic set emitting a fixed score from every head."""

    def __init__(self, value, n_scores=25):
        self.value = value
        self.n_scores = n_scores

    def __call__(self, theta_pose, beta):
        m = ad.as_tensor(theta_pose).shape[0]
        return ad.constant(np.full((m, self.n_scores), self.value))


def loss_2d(pred, gt, vis=None):
    """loss_2d_rows on one (k,2) frame: (value, visible count)."""
    gt = np.asarray(gt, dtype=np.float64)
    vis = np.ones(len(gt), dtype=bool) if vis is None else np.asarray(vis, dtype=bool)
    val = losses.loss_2d_rows(ad.constant(np.asarray(pred, dtype=np.float64)[None]),
                              gt[None], vis[None])
    assert val.shape == (1,)
    return val.data[0], int(vis.sum())


def loss_3d(pred, gt):
    """loss_3d_rows on one 85-D prediction."""
    val = losses.loss_3d_rows(ad.constant(np.asarray(pred)[None]), np.asarray(gt)[None])
    assert val.shape == (1,)
    return val.data[0]


# ---------------------------------------------------------------------------
# loss_2d_rows
# ---------------------------------------------------------------------------


def test_loss_2d_zero_at_match():
    pts = np.random.default_rng(0).standard_normal((5, 2))
    val, n_vis = loss_2d(pts, pts)
    assert val == 0.0
    assert n_vis == 5


def test_loss_2d_single_point_arithmetic():
    val, _ = loss_2d([[3.0, 4.0]], [[0.0, 0.0]])
    assert val == pytest.approx(25.0, abs=1e-12)


def test_loss_2d_mean_over_visible():
    val, _ = loss_2d([[3.0, 4.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert val == pytest.approx(12.5, abs=1e-12)


def test_loss_2d_invisible_point_is_ignored():
    gt = [[0.0, 0.0], [1.0, 1.0]]
    a = loss_2d([[0.5, 0.0], [9.0, 9.0]], gt, vis=[True, False])[0]
    b = loss_2d([[0.5, 0.0], [-431.0, 17.0]], gt, vis=[True, False])[0]
    assert a == b


def test_loss_2d_no_visible_returns_zero_flagged():
    val, n_vis = loss_2d([[5.0, 5.0]], [[0.0, 0.0]], vis=[False])
    assert val == 0.0
    assert n_vis == 0


# ---------------------------------------------------------------------------
# loss_3d_rows
# ---------------------------------------------------------------------------


def test_loss_3d_zero_at_match():
    rng = np.random.default_rng(1)
    full = rng.standard_normal(85)
    assert loss_3d(full, full) == 0.0


def test_loss_3d_unit_beta_offset():
    gt = np.zeros(85)
    pred = gt.copy()
    pred[0] += 1.0
    assert loss_3d(pred, gt) == pytest.approx(1.0 / 82, abs=1e-12)  # mean over shape and pose


def test_loss_3d_masked_components_ignored():
    rng = np.random.default_rng(2)
    gt = rng.standard_normal(85)
    pred = gt.copy()
    pred[82:] += 100.0  # camera heavily perturbed
    assert loss_3d(pred, gt) == 0.0


# ---------------------------------------------------------------------------
# adversarial prior
# ---------------------------------------------------------------------------


def test_adv_generator_zero_when_scores_are_one():
    theta = ad.constant(np.zeros((3, 72)))
    beta = ad.constant(np.zeros((3, 10)))
    assert losses.adv_prior_generator_loss(ConstDisc(1.0), theta, beta).item() == 0.0


def test_adv_generator_25_when_scores_are_zero():
    theta = ad.constant(np.zeros((2, 72)))
    beta = ad.constant(np.zeros((2, 10)))
    assert losses.adv_prior_generator_loss(ConstDisc(0.0), theta, beta).item() == pytest.approx(25.0)


def test_adv_generator_gradient_wrt_pose():
    cfg = EncoderConfig(feature_dim=16, gn_groups=4, gn_group_size=4, ief_hidden=8, disc_hidden=8)
    disc = DiscriminatorSet(cfg, drawing(np.random.default_rng(3)))
    theta = ad.parameter(np.random.default_rng(4).normal(0, 0.4, (1, 72)), name="theta")
    beta = ad.constant(np.zeros((1, 10)))

    err = ad.finite_diff_check(lambda: losses.adv_prior_generator_loss(disc, theta, beta),
                               theta, max_coords=30, rng=np.random.default_rng(5))
    assert err < 1e-4


def test_adv_discriminator_perfect_split_is_zero():
    class SplitDisc:
        def __call__(self, theta_pose, beta):
            m = ad.as_tensor(theta_pose).shape[0]
            val = 1.0 if float(ad.as_tensor(theta_pose).data[0, 0]) > 0 else 0.0
            return ad.constant(np.full((m, 25), val))

    real = np.ones((2, 72))
    fake = -np.ones((2, 72))
    b = np.zeros((2, 10))
    val = losses.adv_prior_discriminator_loss(SplitDisc(), real, b, fake, b)
    assert val.item() == 0.0


def test_adv_discriminator_constant_half_gives_half_per_critic():
    real = np.zeros((3, 72))
    fake = np.zeros((3, 72))
    b = np.zeros((3, 10))
    val = losses.adv_prior_discriminator_loss(ConstDisc(0.5), real, b, fake, b)
    assert val.item() == pytest.approx(25 * 0.5, abs=1e-12)


def test_discriminator_training_separates_toy_clusters():
    cfg = EncoderConfig(feature_dim=16, gn_groups=4, gn_group_size=4, ief_hidden=8, disc_hidden=16)
    disc = DiscriminatorSet(cfg, drawing(np.random.default_rng(6)))
    opt = Adam(disc.params(), lr=5e-3)
    rng = np.random.default_rng(7)
    base_real = rng.normal(0, 0.3, 72)
    base_fake = base_real + rng.normal(0, 1.0, 72)
    beta_real = rng.normal(0, 0.2, 10)
    beta_fake = beta_real + 2.0

    final = None
    for step in range(2000):
        srng = np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(step,)))
        real = base_real + srng.normal(0, 0.05, (8, 72))
        fake = base_fake + srng.normal(0, 0.05, (8, 72))
        br = beta_real + srng.normal(0, 0.05, (8, 10))
        bf = beta_fake + srng.normal(0, 0.05, (8, 10))
        opt.zero_grad()
        loss = losses.adv_prior_discriminator_loss(disc, real, br, fake, bf)
        loss.backward()
        opt.step()
        final = loss.item()
        if final < 0.1:
            break
    assert final < 0.1, f"discriminator loss stuck at {final}"


# ---------------------------------------------------------------------------
# shape priors and constancy
# ---------------------------------------------------------------------------


def test_beta_prior_values_and_gradient():
    assert losses.beta_prior(ad.constant(np.zeros((1, 10)))).item() == 0.0
    e1 = np.zeros((1, 10))
    e1[0, 0] = 1.0
    assert losses.beta_prior(ad.constant(e1)).item() == 1.0
    p = ad.parameter(np.random.default_rng(8).standard_normal((1, 10)))
    losses.beta_prior(p).backward()
    assert np.allclose(p.grad, 2 * p.data, atol=1e-14)


def test_const_shape_zero_for_constant_sequence():
    betas = np.tile(np.random.default_rng(9).standard_normal(10), (20, 1))
    val = losses.const_shape_loss(ad.constant(betas))
    assert val.item() == 0.0


def test_const_shape_alternating_unit_steps():
    b = np.random.default_rng(10).standard_normal(10)
    e1 = np.zeros(10)
    e1[0] = 1.0
    seq = np.stack([b, b + e1, b])
    val = losses.const_shape_loss(ad.constant(seq))
    assert val.item() == pytest.approx(2.0, abs=1e-12)


def test_const_shape_short_sequence_flagged():
    val = losses.const_shape_loss(ad.constant(np.zeros((1, 10))))
    assert val.item() == 0.0
    assert losses.const_shape_loss(ad.constant(np.zeros((3, 1, 10)))).item() == 0.0


def test_const_shape_translation_invariant():
    rng = np.random.default_rng(11)
    seq = rng.standard_normal((6, 10))
    shift = rng.standard_normal(10)
    a = losses.const_shape_loss(ad.constant(seq))
    b = losses.const_shape_loss(ad.constant(seq + shift))
    assert a.item() == pytest.approx(b.item(), abs=1e-12)


def test_const_shape_gradient_zero_at_equal_betas():
    betas = ad.parameter(np.tile(np.arange(10.0), (4, 1)), name="betas")
    val = losses.const_shape_loss(betas)
    val.backward()
    assert np.all(betas.grad == 0.0)


def test_const_shape_gradient_at_generic_point():
    rng = np.random.default_rng(12)
    betas = ad.parameter(rng.standard_normal((5, 10)), name="betas")
    err = ad.finite_diff_check(lambda: losses.const_shape_loss(betas), betas,
                               max_coords=20, rng=np.random.default_rng(0))
    assert err < 1e-4


def test_const_shape_batch_sums_sequences_without_crossing_them():
    rng = np.random.default_rng(13)
    seqs = rng.normal(0, 0.1, (3, 7, 10))
    seqs[1] += 50.0      # a jump of about 158 between sequence 0's last frame and 1's first
    per_seq = sum(losses.const_shape_loss(ad.constant(s)).item() for s in seqs)
    batched = losses.const_shape_loss(ad.constant(seqs)).item()
    assert batched == pytest.approx(per_seq, rel=1e-14)


# ---------------------------------------------------------------------------
# the per-frame terms together, as the trainer sums them
# ---------------------------------------------------------------------------


def test_frame_loss_zero_on_perfect_prediction():
    gt_full = np.zeros((1, 85))
    gt_full[0, 82] = 1.0  # unit camera scale
    pts = np.zeros((1, 4, 2))
    pred = ad.constant(gt_full)
    l2d = losses.loss_2d_rows(ad.constant(pts), pts, np.ones((1, 4), dtype=bool))
    l3d = losses.loss_3d_rows(pred, gt_full)
    ladv = losses.adv_prior_generator_loss(ConstDisc(1.0), pred[:, 10:82], pred[:, 0:10])
    lbeta = losses.beta_prior(pred[:, 0:10])
    assert l2d.data[0] == 0.0 and l3d.data[0] == 0.0 and ladv.item() == 0.0
    assert lbeta.data[0] == 0.0


def test_frame_loss_full_composite_gradient(toy_model):
    from meshmotion import body, camera

    rng = np.random.default_rng(14)
    raw = ad.parameter(rng.normal(0, 0.2, (1, 85)), name="raw")
    gt_pts = rng.normal(0, 50, (1, toy_model.n_keypoints, 2))
    vis = np.ones((1, toy_model.n_keypoints), dtype=bool)
    cfg = EncoderConfig(feature_dim=16, gn_groups=4, gn_group_size=4, disc_hidden=8)
    disc = DiscriminatorSet(cfg, drawing(np.random.default_rng(15)))
    w = losses.LossWeights()

    def f():
        full = losses.raw_to_full(raw)
        beta, pose = full[:, 0:10], full[:, 10:82]
        x3d = body.keypoints_3d(toy_model, beta, pose)
        x2d = camera.project(x3d, full[:, 82:83], full[:, 83:85])
        l2d = losses.loss_2d_rows(x2d, gt_pts, vis)
        return (w.w_2d * ad.sum_(l2d)
                + w.w_adv * losses.adv_prior_generator_loss(disc, pose, beta)
                + w.w_beta * ad.sum_(losses.beta_prior(beta)))

    err = ad.finite_diff_check(f, raw, max_coords=30, rng=np.random.default_rng(16))
    assert err < 1e-4


def test_raw_to_full_exponentiates_scale():
    raw = np.zeros((1, 85))
    raw[0, 82] = np.log(2.5)
    full = losses.raw_to_full(ad.constant(raw))
    assert full.data[0, 82] == pytest.approx(2.5, abs=1e-12)
    assert np.all(full.data[:, :82] == raw[:, :82])
