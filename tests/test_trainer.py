import gc
import logging
import zlib

import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import body, camera, data, nets, training
from meshmotion.container import ValidationError
from meshmotion.losses import LossWeights
from meshmotion.optim import Adam


def tiny_cfg(**kw):
    base = dict(feature_dim=24, gn_groups=4, gn_group_size=6, ief_hidden=16, disc_hidden=8)
    base.update(kw)
    return nets.EncoderConfig(**base)


def tiny_tcfg(**kw):
    base = dict(seq_len=13, batch_size=2, steps=5, seed=0, delta_centers_per_seq=1,
                checkpoint_every=1000)
    base.update(kw)
    return training.TrainConfig(**base)


@pytest.fixture(scope="module")
def train_setup(toy_model):
    ds = data.gen_synthetic_dataset(toy_model, n_seqs=4, n_frames=16, fps=25.0,
                                    seed=21, feature_dim=24, vis_dropout=0.0,
                                    feature_noise=0.01)
    return toy_model, ds


def fresh_state(cfg=None, tcfg=None, seed=3):
    cfg = cfg or tiny_cfg()
    tcfg = tcfg or tiny_tcfg()
    model_nets = nets.ModelNets.create(cfg, seed=seed)
    return training.init_state(model_nets, tcfg), tcfg


# ---------------------------------------------------------------------------
# train_step basics
# ---------------------------------------------------------------------------


def test_training_step_makes_no_ones_matmul(toy_model, monkeypatch):
    """Bias rows and per-row camera scales broadcast; none is a product with
    a constant of ones (criterion-8 config, one step)."""
    full = data.gen_synthetic_dataset(toy_model, 16, 16, 25.0, seed=300, motion_kind="ballistic",
                                      feature_dim=32, vis_dropout=0.0, feature_noise=0.01)
    train_ds = data.DatasetBundle(full.sequences[:10], full.feature_meta)
    enc = nets.EncoderConfig(feature_dim=32, gn_groups=8, gn_group_size=4, ief_hidden=64,
                             disc_hidden=16)
    tcfg = training.TrainConfig(seq_len=16, batch_size=4, steps=1, lr=5e-4, seed=0,
                                use_jitter=False, delta_centers_per_seq=3)
    products, ones_operands = [], []

    def watch(op):
        def wrapped(a, b, *rest, **options):
            products.append(op.__name__)
            for x in (ad.as_tensor(a), ad.as_tensor(b)):
                if not x.requires_grad and np.all(x.data == 1.0):
                    ones_operands.append((op.__name__, x.shape))
            return op(a, b, *rest, **options)
        return wrapped

    monkeypatch.setattr(ad, "matmul", watch(ad.matmul))
    monkeypatch.setattr(ad, "matmul_add", watch(ad.matmul_add))
    state = training.init_state(nets.ModelNets.create(enc, seed=tcfg.seed), tcfg)
    training.train(toy_model, state, [(train_ds, 1)], tcfg)
    assert state.step == 1 and "matmul" in products and "matmul_add" in products
    assert ones_operands == []


def test_training_step_converts_each_pose_to_rotations_once(toy_model, monkeypatch):
    """The body model and the critics share one rotation block per step; the
    discriminator update reuses it and the run's real-pose pool (criterion-8
    config, one step)."""
    full = data.gen_synthetic_dataset(toy_model, 16, 16, 25.0, seed=300, motion_kind="ballistic",
                                      feature_dim=32, vis_dropout=0.0, feature_noise=0.01)
    datasets = [(data.DatasetBundle(full.sequences[:10], full.feature_meta), 1)]
    enc = nets.EncoderConfig(feature_dim=32, gn_groups=8, gn_group_size=4, ief_hidden=64,
                             disc_hidden=16)
    tcfg = training.TrainConfig(seq_len=16, batch_size=4, steps=1, lr=5e-4, seed=0,
                                use_jitter=False, delta_centers_per_seq=3)
    state = training.init_state(nets.ModelNets.create(enc, seed=tcfg.seed), tcfg)
    pool = training.build_real_pose_pool(datasets)
    batch = training.BatchMixer(datasets, tcfg.seq_len, tcfg.batch_size, tcfg.seed).batch(0)
    rotated_rows = []
    rodrigues = body.rodrigues

    def counting(axis_angle):
        rotated_rows.append(ad.as_tensor(axis_angle).shape[0])
        return rodrigues(axis_angle)

    keypoint_rows = []
    keypoints_3d = body.keypoints_3d

    def counting_kp3d(model, beta, pose):
        keypoint_rows.append(pose.shape[0])
        return keypoints_3d(model, beta, pose)

    monkeypatch.setattr(body, "rodrigues", counting)
    monkeypatch.setattr(body, "keypoints_3d", counting_kp3d)
    row = training.train_step(toy_model, state, batch, tcfg, feature_meta=full.feature_meta,
                              real_pool=pool)
    assert row["ldisc"] > 0.0 and len(keypoint_rows) == 1
    assert rotated_rows == [keypoint_rows[0] * body.N_JOINTS]


def test_training_step_encodes_the_whole_batch_in_one_call(toy_model, monkeypatch):
    """Criterion-8 config, one step: the four sequences share one encoder graph."""
    full = data.gen_synthetic_dataset(toy_model, 16, 16, 25.0, seed=300, motion_kind="ballistic",
                                      feature_dim=32, vis_dropout=0.0, feature_noise=0.01)
    train_ds = data.DatasetBundle(full.sequences[:10], full.feature_meta)
    enc = nets.EncoderConfig(feature_dim=32, gn_groups=8, gn_group_size=4, ief_hidden=64,
                             disc_hidden=16)
    tcfg = training.TrainConfig(seq_len=16, batch_size=4, steps=1, lr=5e-4, seed=0,
                                use_jitter=False, delta_centers_per_seq=3)
    shapes = []
    encode = nets.TemporalEncoder.__call__

    def counting(self, features):
        shapes.append(ad.as_tensor(features).shape)
        return encode(self, features)

    monkeypatch.setattr(nets.TemporalEncoder, "__call__", counting)
    state = training.init_state(nets.ModelNets.create(enc, seed=tcfg.seed), tcfg)
    training.train(toy_model, state, [(train_ds, 1)], tcfg)
    assert state.step == 1 and shapes == [(4, 16, 32)]


def _live_graph_nodes():
    return sum(1 for o in gc.get_objects() if type(o) is ad.Tensor and o._parents)


def test_generator_graph_is_released_before_the_critic_loss_is_built(train_setup, monkeypatch):
    """The generator backward consumes its graph: when the critic loss is
    built, the step's forward outputs keep their arrays but no parents, and
    no graph node made in the step is still alive."""
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=1))
    outs, seen = [], []
    forward = training.forward
    disc_loss = training.adv_prior_discriminator_loss

    def capturing(*args, **kwargs):
        outs.append(forward(*args, **kwargs))
        return outs[-1]

    def checking(*args):
        out = outs[0]
        tensors = list(out["full"]) + [out[k] for k in ("beta", "pose", "rots", "joints", "pred2d")]
        seen.append(([t._parents for t in tensors], [t.grad for t in tensors],
                     _live_graph_nodes()))
        return disc_loss(*args)

    monkeypatch.setattr(training, "forward", capturing)
    monkeypatch.setattr(training, "adv_prior_discriminator_loss", checking)
    before = _live_graph_nodes()
    training.train(model, state, [(ds, 1)], tcfg)
    assert len(outs) == len(seen) == 1
    parents, grads, live = seen[0]
    assert all(p == () for p in parents) and all(g is None for g in grads)
    assert live == before
    assert outs[0]["joints"].data.shape[0] > 0      # the arrays themselves are kept


def test_generator_backward_computes_no_critic_gradient(train_setup, monkeypatch):
    """The generator's adversarial term runs on constant critics, so its
    backward leaves every critic parameter's gradient unset; the critic
    backward then fills all of them."""
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=1))
    critics = state.nets.discriminator_params()
    unset = []
    backward = ad.Tensor.backward

    def recording(self):
        backward(self)
        unset.append([p.grad is None for p in critics])

    monkeypatch.setattr(ad.Tensor, "backward", recording)
    training.train(model, state, [(ds, 1)], tcfg)
    assert len(critics) == 14 and len(unset) == 2
    assert all(unset[0]) and not any(unset[1])


def test_training_steps_leave_no_reference_cycles(train_setup):
    """``_cyclic_gc_paused``'s premise: after each step the cyclic collector
    finds nothing to free."""
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3))
    mixer = training.BatchMixer([(ds, 1)], tcfg.seq_len, tcfg.batch_size, tcfg.seed)
    pool = training.build_real_pose_pool([(ds, 1)])
    found = []
    with training._cyclic_gc_paused():
        gc.collect()
        for step in range(tcfg.steps):
            training.train_step(model, state, mixer.batch(step), tcfg,
                                feature_meta=ds.feature_meta, real_pool=pool)
            found.append(gc.collect())
    assert state.step == 3 and found == [0, 0, 0]


def test_train_step_reports_the_objectives_breakdown(train_setup):
    """The update differentiates ``objective``: for the same parameters, batch
    and step, its row is the objective's breakdown plus the critic loss."""
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3))
    state.step = 2
    batch = training.BatchMixer([(ds, 1)], tcfg.seq_len, tcfg.batch_size, tcfg.seed).batch(2)
    _, expected, _ = training.objective(model, state.nets, batch, tcfg, 2, ds.feature_meta)
    row = training.train_step(model, state, batch, tcfg, feature_meta=ds.feature_meta,
                              real_pool=training.build_real_pose_pool([(ds, 1)]))
    assert expected["ldisc"] == 0.0 and row["ldisc"] > 0.0
    assert row == expected | {"ldisc": row["ldisc"], "skipped": 0.0, "step": 2.0}


def test_zero_learning_rate_leaves_parameters_unchanged(train_setup):
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(lr=0.0, lr_disc=0.0, steps=2))
    before = {p.name: p.data.copy() for p in state.nets.all_params()}
    training.train(model, state, [(ds, 1)], tcfg)
    assert state.step == 2
    for p in state.nets.all_params():
        assert np.array_equal(p.data, before[p.name]), p.name
    assert all(np.isfinite(row["total"]) for row in state.history)


def test_identical_seeds_identical_histories(train_setup):
    model, ds = train_setup

    def run():
        state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=6))
        training.train(model, state, [(ds, 1)], tcfg)
        return state

    s1, s2 = run(), run()
    for r1, r2 in zip(s1.history, s2.history):
        assert r1 == r2
    for p1, p2 in zip(s1.nets.all_params(), s2.nets.all_params()):
        assert np.array_equal(p1.data, p2.data)


def test_resume_is_bit_identical_to_straight_run(train_setup, tmp_path):
    model, ds = train_setup

    state_a, tcfg_a = fresh_state(tcfg=tiny_tcfg(steps=6))
    training.train(model, state_a, [(ds, 1)], tcfg_a)

    state_b, tcfg_b3 = fresh_state(tcfg=tiny_tcfg(steps=3))
    training.train(model, state_b, [(ds, 1)], tcfg_b3)
    ckpt = tmp_path / "mid.bin"
    nets.save_checkpoint(ckpt, state_b.nets, state_b.step,
                         adam_m=state_b.adam_gen.m | state_b.adam_disc.m,
                         adam_v=state_b.adam_gen.v | state_b.adam_disc.v,
                         adam_steps={"gen": state_b.adam_gen.t, "disc": state_b.adam_disc.t})

    loaded, step, m, v, adam_steps = nets.load_checkpoint(ckpt)
    tcfg_c = tiny_tcfg(steps=6)
    state_c = training.init_state(loaded, tcfg_c)
    state_c.step = step
    state_c.adam_gen.load_state(m, v, adam_steps["gen"])
    state_c.adam_disc.load_state(m, v, adam_steps["disc"])
    training.train(model, state_c, [(ds, 1)], tcfg_c)

    pa = state_a.nets.named_params()
    pc = state_c.nets.named_params()
    for name in pa:
        assert np.array_equal(pa[name].data, pc[name].data), name
    for ra, rc in zip(state_a.history[3:], state_c.history):
        assert ra == rc


def test_training_reduces_loss_on_small_overfit(train_setup):
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=120, lr=1e-3, lr_disc=1e-3,
                                             use_jitter=False, batch_size=2))
    training.train(model, state, [(ds, 1)], tcfg)
    first = np.mean([r["l2d"] for r in state.history[:10]])
    last = np.mean([r["l2d"] for r in state.history[-10:]])
    assert last < first * 0.7, f"2d loss did not drop: {first} -> {last}"


def test_smoothed_total_loss_nonincreasing_after_warmup(toy_model):
    # window-100 means over disjoint blocks must not increase after step 500
    # in at least 9 of 10 seeds on the fixed overfit suite
    ds = data.gen_synthetic_dataset(toy_model, 4, 16, 25.0, seed=77, feature_dim=24,
                                    vis_dropout=0.0, feature_noise=0.01)
    good = 0
    for seed in range(10):
        state, tcfg = fresh_state(cfg=tiny_cfg(use_hal=False),
                                  tcfg=tiny_tcfg(steps=800, lr=1e-3, use_jitter=False,
                                                 batch_size=1, seed=seed), seed=seed)
        training.train(toy_model, state, [(ds, 1)], tcfg)
        totals = np.array([r["total"] for r in state.history])
        blocks = [totals[i:i + 100].mean() for i in range(500, 800, 100)]
        good += all(b <= a for a, b in zip(blocks, blocks[1:]))
    assert good >= 9, f"smoothed loss increased after warmup in {10 - good} seeds"


# ---------------------------------------------------------------------------
# supervision gating
# ---------------------------------------------------------------------------


def test_tier2_batches_produce_no_3d_loss(train_setup):
    model, ds = train_setup
    from dataclasses import replace
    ds2 = data.DatasetBundle([replace(s, tier="gt2d") for s in ds], ds.feature_meta)
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3))
    # the full3d bundle at ratio 0 only feeds the critics' real pool
    training.train(model, state, [(ds2, 1), (ds, 0)], tcfg)
    assert all(row["l3d"] == 0.0 for row in state.history)


def test_real_pose_pool_reads_full3d_sequences_only(train_setup):
    model, ds = train_setup
    from dataclasses import replace
    gt2d = data.DatasetBundle([replace(s, tier="gt2d") for s in ds], ds.feature_meta)
    assert training.build_real_pose_pool([(gt2d, 1)]) is None
    beta, rots = training.build_real_pose_pool([(gt2d, 1), (ds, 0)])
    assert np.array_equal(beta, np.concatenate([s.theta_gt[:, :10] for s in ds]))
    assert rots.shape == (beta.shape[0], body.N_JOINTS, 3, 3)


def test_adversarial_prior_without_gt_poses_fails_before_any_update(train_setup):
    model, ds = train_setup
    from dataclasses import replace
    no_gt = data.DatasetBundle([replace(s, tier="gt2d", theta_gt=None) for s in ds],
                               ds.feature_meta)
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3))
    assert tcfg.weights.w_adv > 0
    before = {p.name: p.data.copy() for p in state.nets.all_params()}
    with pytest.raises(ValidationError, match="ground-truth poses"):
        training.train(model, state, [(no_gt, 1)], tcfg)
    assert state.step == 0 and state.history == []
    assert state.adam_gen.t == 0 and state.adam_disc.t == 0
    for p in state.nets.all_params():
        assert np.array_equal(p.data, before[p.name]), p.name


def _assert_untouched(state, before):
    assert state.step == 0 and state.history == []
    assert state.adam_gen.t == 0 and state.adam_disc.t == 0
    for p in state.nets.all_params():
        assert np.array_equal(p.data, before[p.name]), p.name
    for opt in (state.adam_gen, state.adam_disc):
        assert all(not np.any(m) for m in opt.m.values())
        assert all(not np.any(v) for v in opt.v.values())


def test_nan_feature_stops_before_any_update_naming_the_loss_terms(train_setup):
    model, ds = train_setup
    from dataclasses import replace
    seqs = []
    for s in ds:
        feats = s.features.copy()
        feats[8] = np.nan       # inside every 13-frame window of a 16-frame sequence
        seqs.append(replace(s, features=feats))
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3))
    before = {p.name: p.data.copy() for p in state.nets.all_params()}
    with pytest.raises(ad.NumericalError, match=r"step 0: non-finite loss terms l2d"):
        training.train(model, state, [(data.DatasetBundle(seqs, ds.feature_meta), 1)], tcfg)
    _assert_untouched(state, before)


@pytest.mark.parametrize("name", ["f_3d.fc2.w", "disc.all.fc1.w"])
def test_non_finite_gradient_stops_before_any_update_naming_the_parameter(train_setup,
                                                                         monkeypatch, name):
    """A generator gradient, and a critic gradient found after the generator's
    gradients passed, both stop the step before either optimizer moves."""
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3))
    before = {p.name: p.data.copy() for p in state.nets.all_params()}
    poisoned = state.nets.named_params()[name]
    backward = ad.Tensor.backward

    def poisoning_backward(self):
        backward(self)
        if poisoned.grad is not None:
            poisoned.grad[0, 0] = np.inf

    monkeypatch.setattr(ad.Tensor, "backward", poisoning_backward)
    with pytest.raises(ad.NumericalError, match=f"gradient of {name}"):
        training.train(model, state, [(ds, 1)], tcfg)
    _assert_untouched(state, before)


def test_delta_weight_zero_leaves_delta_parameters_untouched(train_setup):
    model, ds = train_setup
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3, weights=LossWeights(w_delta=0.0)))
    training.train(model, state, [(ds, 1)], tcfg)
    for step_size, dp in state.nets.deltas.items():
        for p in dp.params():
            assert np.all(state.adam_gen.m[p.name] == 0.0), p.name
            assert np.all(state.adam_gen.v[p.name] == 0.0), p.name
    # with the weight on, the same parameters do receive gradient
    state2, tcfg2 = fresh_state(tcfg=tiny_tcfg(steps=3))
    training.train(model, state2, [(ds, 1)], tcfg2)
    moved = any(np.any(state2.adam_gen.m[p.name] != 0.0)
                for dp in state2.nets.deltas.values() for p in dp.params())
    assert moved


def test_adam_skips_parameter_without_gradient():
    """A parameter that had a gradient and then has none keeps its value and moments."""
    p = ad.parameter(np.array([1.0, -2.0]), name="p")
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, 0.25])
    opt.step()
    value, m, v = p.data.copy(), opt.m["p"].copy(), opt.v["p"].copy()
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, value)
    assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v)


def test_all_filtered_batch_is_skipped_with_warning(train_setup, caplog):
    model, ds = train_setup
    from dataclasses import replace
    blind = data.DatasetBundle(
        [replace(s, vis=np.zeros_like(s.vis)) for s in ds],
        ds.feature_meta)
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=1))
    with caplog.at_level(logging.WARNING):
        training.train(model, state, [(blind, 1)], tcfg)
    assert state.history[0]["skipped"] == 1.0
    assert any("visibility floor" in rec.message for rec in caplog.records)


def test_visibility_floor_is_the_data_filters(train_setup, monkeypatch):
    """train_step flags frames by data.MIN_VISIBLE: with the floor above the
    keypoint count no frame carries signal and the step is skipped."""
    model, ds = train_setup
    monkeypatch.setattr(data, "MIN_VISIBLE", model.n_keypoints + 1)
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=1))
    batch = training.BatchMixer([(ds, 1)], tcfg.seq_len, tcfg.batch_size, tcfg.seed).batch(0)
    row = training.train_step(model, state, batch, tcfg,
                              real_pool=training.build_real_pose_pool([(ds, 1)]))
    assert row["skipped"] == 1.0 and state.step == 1


def test_excluded_frames_contribute_no_gradient(train_setup):
    model, ds = train_setup
    from dataclasses import replace

    def history_with(vis_mutator):
        seqs = []
        for s in ds:
            vis = s.vis.copy()
            kp = s.kp2d.copy()
            vis, kp = vis_mutator(vis, kp)
            seqs.append(replace(s, vis=vis, kp2d=kp))
        bundle = data.DatasetBundle(seqs, ds.feature_meta)
        state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=1, use_jitter=False))
        training.train(model, state, [(bundle, 1)], tcfg)
        return state.history[0]

    def drop_frame(vis, kp):
        vis[4, :] = False   # frame 4 excluded everywhere
        return vis, kp

    def drop_frame_and_wreck(vis, kp):
        vis[4, :] = False
        kp[4] += 1e6        # garbage targets on the excluded frame
        return vis, kp

    assert history_with(drop_frame) == history_with(drop_frame_and_wreck)


# ---------------------------------------------------------------------------
# batch mixing
# ---------------------------------------------------------------------------


def make_pool(tag, n, toy_model):
    ds = data.gen_synthetic_dataset(toy_model, n_seqs=n, n_frames=15, fps=25.0,
                                    seed=zlib.crc32(tag.encode()), feature_dim=24)
    return ds


def test_mixer_ratio_counts_exact(toy_model):
    d1 = make_pool("a", 3, toy_model)
    d2 = make_pool("b", 3, toy_model)
    d3 = make_pool("c", 3, toy_model)
    mixer = training.BatchMixer([(d1, 1), (d2, 1), (d3, 2)], seq_len=13, batch_size=1, seed=0)
    counts = {0: 0, 1: 0, 2: 0}
    n_steps = 4000
    for step in range(n_steps):
        counts[mixer.dataset_for_step(step)] += 1
    assert abs(counts[0] - n_steps / 4) <= 1
    assert abs(counts[1] - n_steps / 4) <= 1
    assert abs(counts[2] - n_steps / 2) <= 1


def test_mixer_skips_empty_dataset(toy_model):
    d1 = make_pool("d", 3, toy_model)
    empty = data.DatasetBundle([], None)
    mixer = training.BatchMixer([(empty, 5), (d1, 1)], seq_len=13, batch_size=1, seed=0)
    assert {mixer.dataset_for_step(s) for s in range(10)} == {0}  # only the usable pool


def test_mixer_single_dataset_epoch_covers_all_sequences(toy_model):
    d1 = make_pool("e", 5, toy_model)
    mixer = training.BatchMixer([(d1, 1)], seq_len=13, batch_size=1, seed=0)
    seen = [mixer.batch(s)[0][0].id for s in range(5)]
    assert sorted(seen) == sorted(s.id for s in d1)  # one full shuffled epoch


def test_mixer_rejects_all_empty(toy_model):
    with pytest.raises(ValidationError):
        training.BatchMixer([(data.DatasetBundle([], None), 1)], 13, 1, 0)


def test_each_batch_is_jittered_along_its_own_datasets_camera_directions(toy_model, monkeypatch):
    d1 = make_pool("meta-a", 2, toy_model)
    d2 = make_pool("meta-b", 2, toy_model)
    bare = data.DatasetBundle(make_pool("meta-c", 2, toy_model).sequences, None)
    assert not np.array_equal(d1.feature_meta.qcam, d2.feature_meta.qcam)
    owner_meta = {s.id: bundle.feature_meta for bundle in (d1, d2, bare) for s in bundle}
    seen = []
    train_step = training.train_step

    def recording(model, state, batch, cfg, feature_meta=None, real_pool=None):
        seen.append(([owner_meta[s.id] for s, _ in batch], feature_meta))
        return train_step(model, state, batch, cfg, feature_meta=feature_meta, real_pool=real_pool)

    monkeypatch.setattr(training, "train_step", recording)
    state, tcfg = fresh_state(tcfg=tiny_tcfg(steps=3, batch_size=1))
    assert tcfg.use_jitter
    training.train(toy_model, state, [(d1, 1), (d2, 1), (bare, 1)], tcfg)
    assert len(seen) == 3       # one batch from each dataset
    for owners, meta in seen:
        assert all(o is meta for o in owners)


# ---------------------------------------------------------------------------
# jitter
# ---------------------------------------------------------------------------


def test_jitter_zero_ranges_is_identity(train_setup):
    model, ds = train_setup
    s = ds.sequences[0]
    cfg = tiny_tcfg(jitter_scale=(1.0, 1.0), jitter_trans=0.0)
    rng = np.random.default_rng(0)
    kp2, feats2 = training.jitter_window(s.kp2d, s.theta_gt, s.features,
                                         ds.feature_meta, rng, cfg)
    assert np.allclose(kp2, s.kp2d, atol=0)
    assert np.allclose(feats2, s.features, atol=1e-12)


def test_jitter_absorbed_exactly_by_optimal_camera(train_setup):
    model, ds = train_setup
    s = ds.sequences[0]
    cfg = tiny_tcfg()
    rng = np.random.default_rng(1)
    kp2, _ = training.jitter_window(s.kp2d, s.theta_gt, s.features, ds.feature_meta, rng, cfg)
    joints = body.keypoints_3d(model, s.theta_gt[:, :10], s.theta_gt[:, 10:82]).data
    frames = [0, 5]
    fit = camera.optimal_camera_rows(joints[frames, :, :2], kp2[frames], s.vis[frames])
    assert np.all(fit["residual"].data < 1e-14)  # noiseless data: jitter is exactly affine


def test_jitter_consistent_feature_update(train_setup):
    # jittered features must equal what the generator would have produced for
    # the jittered camera: verified through the encoding directions
    model, ds = train_setup
    s = ds.sequences[0]
    meta = ds.feature_meta
    cfg = tiny_tcfg()
    rng = np.random.default_rng(2)
    kp2, feats2 = training.jitter_window(s.kp2d, s.theta_gt, s.features, meta, rng, cfg)
    delta = feats2 - s.features
    # the update lives entirely in the camera subspace
    proj = delta @ meta.qcam  # (T,3) components
    recon = proj @ meta.qcam.T
    assert np.allclose(recon, delta, atol=1e-12)


# ---------------------------------------------------------------------------
# loss history file
# ---------------------------------------------------------------------------


def test_failed_history_write_keeps_previous_losses_csv(tmp_path):
    path = tmp_path / "losses.csv"
    row = dict.fromkeys(training.LOSS_COLUMNS, 1.0) | {"step": 0.0}
    training.write_history_csv(path, [row, dict(row, step=1.0)])
    before = path.read_bytes()
    # the second row's value cannot be formatted, so the write raises after
    # the header and a first, different row are already out
    with pytest.raises(ValueError):
        training.write_history_csv(path, [dict(row, total=2.0), dict(row, total="not a number")])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["losses.csv"]
