from dataclasses import fields

import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import nets
from meshmotion.container import ValidationError, read_container, write_container


def small_cfg(**kw):
    base = dict(feature_dim=16, gn_groups=4, gn_group_size=4, ief_hidden=12, disc_hidden=8)
    base.update(kw)
    return nets.EncoderConfig(**base)


# ---------------------------------------------------------------------------
# temporal encoder
# ---------------------------------------------------------------------------


def test_config_receptive_field_formula():
    assert nets.EncoderConfig().receptive_field == 13
    assert small_cfg(n_blocks=2, kernel=5).receptive_field == 1 + 2 * 2 * 4


def test_config_validation():
    with pytest.raises(ValidationError):
        small_cfg(kernel=2).validate()
    with pytest.raises(ValidationError):
        small_cfg(gn_groups=3).validate()
    with pytest.raises(ValidationError):
        small_cfg(delta_steps=(5, 5)).validate()


def test_temporal_constant_input_constant_interior_output():
    cfg = small_cfg()
    enc = nets.TemporalEncoder(cfg, nets.drawing(np.random.default_rng(0)))
    t_len = 25
    feats = np.tile(np.random.default_rng(1).standard_normal(16), (t_len, 1))
    out = enc(ad.constant(feats)).data
    hf = cfg.half_field
    interior = out[hf:t_len - hf]
    assert np.max(np.abs(interior - interior[0])) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_temporal_receptive_field_is_13_frames(seed):
    cfg = small_cfg()
    enc = nets.TemporalEncoder(cfg, nets.drawing(np.random.default_rng(seed)))
    rng = np.random.default_rng(100 + seed)
    t_len, t_mid = 20, 9
    feats = rng.standard_normal((t_len, 16))
    base = enc(ad.constant(feats)).data[t_mid].copy()

    beyond = feats.copy()
    beyond[t_mid + 7] += rng.standard_normal(16)  # outside the 13-frame window
    assert np.array_equal(enc(ad.constant(beyond)).data[t_mid], base)

    edge = feats.copy()
    edge[t_mid + 6] += rng.standard_normal(16)  # still inside
    assert not np.array_equal(enc(ad.constant(edge)).data[t_mid], base)


def test_temporal_batch_equals_single_sequence_calls_and_keeps_sequences_apart():
    cfg = small_cfg()
    enc = nets.TemporalEncoder(cfg, nets.drawing(np.random.default_rng(4)))
    feats = np.random.default_rng(5).standard_normal((3, 24, 16))
    batch = enc(ad.constant(feats)).data
    assert batch.shape == (3, 24, 16)
    for b in range(3):
        assert np.array_equal(batch[b], enc(ad.constant(feats[b])).data)

    # the receptive field stops at the sequence boundary
    bumped = feats.copy()
    bumped[1] += np.random.default_rng(6).standard_normal((24, 16))
    out = enc(ad.constant(bumped)).data
    assert np.array_equal(out[0], batch[0]) and np.array_equal(out[2], batch[2])
    assert not np.array_equal(out[1], batch[1])


def test_temporal_zero_blocks_is_identity():
    cfg = small_cfg(n_blocks=0)
    enc = nets.TemporalEncoder(cfg, nets.drawing(np.random.default_rng(2)))
    feats = np.random.default_rng(3).standard_normal((7, 16))
    assert np.array_equal(enc(ad.constant(feats)).data, feats)
    assert cfg.receptive_field == 1


# ---------------------------------------------------------------------------
# IEF regressor
# ---------------------------------------------------------------------------


def test_ief_zero_final_layer_outputs_mean():
    cfg = small_cfg()
    reg = nets.IefRegressor(cfg, nets.drawing(np.random.default_rng(4)))
    reg.out.w.data = np.zeros_like(reg.out.w.data)
    reg.out.b.data = np.zeros_like(reg.out.b.data)
    mean = np.random.default_rng(5).standard_normal(85)
    reg.theta_mean.data = mean.copy()
    out = reg(ad.constant(np.random.default_rng(6).standard_normal((3, 16))))
    assert np.array_equal(out.data, np.tile(mean, (3, 1)))


def test_ief_single_iteration_adds_correction():
    cfg = small_cfg(ief_iters=1)
    reg = nets.IefRegressor(cfg, nets.drawing(np.random.default_rng(7)))
    c = np.random.default_rng(8).standard_normal(85)
    reg.out.w.data = np.zeros_like(reg.out.w.data)
    reg.out.b.data = c.copy()
    out = reg(ad.constant(np.zeros((2, 16))))
    assert np.allclose(out.data, np.tile(reg.theta_mean.data + c, (2, 1)), atol=1e-15)


def test_ief_output_contracts_to_mean_as_final_scale_shrinks():
    cfg = small_cfg()
    rng = np.random.default_rng(9)
    phi = ad.constant(rng.standard_normal((2, 16)))
    prev_gap = None
    for alpha in (1.0, 1e-2, 1e-4, 1e-6):
        reg = nets.IefRegressor(cfg, nets.drawing(np.random.default_rng(10)))
        reg.out.w.data = reg.out.w.data * alpha
        reg.out.b.data = reg.out.b.data * alpha
        gap = np.max(np.abs(reg(phi).data - reg.theta_mean.data))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-4


def test_ief_gradient_through_three_iterations():
    cfg = small_cfg()
    reg = nets.IefRegressor(cfg, nets.drawing(np.random.default_rng(11)))
    phi = ad.constant(np.random.default_rng(12).standard_normal((2, 16)))
    probe = ad.constant(np.random.default_rng(13).standard_normal((2, 85)))
    wrt = [reg.fc1.w, reg.out.w, reg.theta_mean]

    err = ad.finite_diff_check(lambda: ad.sum_(reg(phi) * probe), wrt,
                               max_coords=20, rng=np.random.default_rng(14))
    assert err < 1e-4


def test_ief_dropout_masks_change_output_deterministically():
    cfg = small_cfg(dropout_rate=0.5)
    reg = nets.IefRegressor(cfg, nets.drawing(np.random.default_rng(15)))
    phi = ad.constant(np.random.default_rng(16).standard_normal((2, 16)))
    a = reg(phi, np.random.default_rng(17)).data
    b = reg(phi, np.random.default_rng(17)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, reg(phi).data)
    assert not np.array_equal(a, reg(phi, np.random.default_rng(18)).data)


def _masks(cfg, rng, n_rows, count):
    """``count`` (n_rows, ief_hidden) masks drawn up front, as a caller would
    pre-sample them."""
    return [ad.dropout_mask(rng, (n_rows, cfg.ief_hidden), cfg.dropout_rate) for _ in range(count)]


def test_networks_draw_the_masks_a_caller_would_pre_sample():
    """A regressor and a delta predictor given ``drop_rng`` equal the same
    layers run on masks pre-drawn, all of them first, from an equally
    seeded generator: two per IEF iteration, then two per delta call."""
    cfg = small_cfg(dropout_rate=0.3)
    model = nets.ModelNets.create(cfg, seed=3)
    reg, dp = model.regressor, model.deltas[5]
    phi = ad.constant(np.random.default_rng(23).standard_normal((4, 16)))
    theta_pose = ad.constant(np.random.default_rng(24).standard_normal((4, 72)))

    drop_rng = np.random.default_rng(25)
    got_theta = reg(phi, drop_rng).data
    got_pose = dp(phi, theta_pose, drop_rng).data

    rng = np.random.default_rng(25)
    reg_masks = _masks(cfg, rng, 4, 2 * cfg.ief_iters)
    dp_masks = _masks(cfg, rng, 4, 2)
    theta = ad.broadcast_to(reg.theta_mean, (4, nets.THETA_DIM))
    for i in range(cfg.ief_iters):
        h1 = reg.fc1(ad.concat([phi, theta], axis=1), relu=True, mask=reg_masks[2 * i])
        theta = theta + reg.out(reg.fc2(h1, relu=True, mask=reg_masks[2 * i + 1]))
    h1 = dp.fc1(ad.concat([phi, theta_pose], axis=1), relu=True, mask=dp_masks[0])
    want_pose = theta_pose + dp.out(dp.fc2(h1, relu=True, mask=dp_masks[1]))
    assert np.array_equal(got_theta, theta.data)
    assert np.array_equal(got_pose, want_pose.data)


# ---------------------------------------------------------------------------
# delta predictors
# ---------------------------------------------------------------------------


def test_delta_zero_output_layer_is_identity():
    cfg = small_cfg()
    dp = nets.DeltaPredictor(cfg, 5, nets.drawing(np.random.default_rng(18)))
    dp.out.w.data = np.zeros_like(dp.out.w.data)
    dp.out.b.data = np.zeros_like(dp.out.b.data)
    theta = np.random.default_rng(19).standard_normal((3, 72))
    out = dp(ad.constant(np.random.default_rng(20).standard_normal((3, 16))), ad.constant(theta))
    assert np.array_equal(out.data, theta)


def test_delta_steps_have_separate_weights():
    model = nets.ModelNets.create(small_cfg(), seed=0)
    phi = ad.constant(np.random.default_rng(21).standard_normal((2, 16)))
    theta = ad.constant(np.random.default_rng(22).standard_normal((2, 72)))
    fwd = model.deltas[5](phi, theta).data
    bwd = model.deltas[-5](phi, theta).data
    assert not np.array_equal(fwd, bwd)


def test_delta_predictors_kept_in_step_order_and_drawn_in_config_order(tmp_path):
    cfg = small_cfg(delta_steps=(4, -2, -6))
    model = nets.ModelNets.create(cfg, seed=0)
    assert list(model.deltas) == [-6, -2, 4]
    assert [d.step for d in model.deltas.values()] == [-6, -2, 4]
    # the initial weights are drawn from the delta stream in the configured order
    param = nets.drawing(np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(2,))))
    for step in cfg.delta_steps:
        want = nets.DeltaPredictor(cfg, step, param)
        for got_p, want_p in zip(model.deltas[step].params(), want.params()):
            assert np.array_equal(got_p.data, want_p.data)
    # the checkpoint keeps the configured order
    nets.save_checkpoint(tmp_path / "c.bin", model, step=0)
    assert list(read_container(tmp_path / "c.bin", nets.CKPT_MAGIC)["config/delta_steps"]) == \
        [4, -2, -6]
    loaded = nets.load_checkpoint(tmp_path / "c.bin")[0]
    assert loaded.cfg.delta_steps == (4, -2, -6) and list(loaded.deltas) == [-6, -2, 4]


def test_delta_margin_is_the_half_field_or_the_largest_step():
    assert small_cfg().delta_margin == 6                         # half field 6 > |5|
    assert small_cfg(delta_steps=(-9, 2)).delta_margin == 9
    assert small_cfg(delta_steps=()).delta_margin == 6
    assert small_cfg(n_blocks=0, delta_steps=(3, -1)).delta_margin == 3


# ---------------------------------------------------------------------------
# hallucinator
# ---------------------------------------------------------------------------


def test_hallucinator_zero_mlp_is_skip_path():
    cfg = small_cfg()
    hal = nets.Hallucinator(cfg, nets.drawing(np.random.default_rng(23)))
    hal.fc2.w.data = np.zeros_like(hal.fc2.w.data)
    hal.fc2.b.data = np.zeros_like(hal.fc2.b.data)
    phi = np.random.default_rng(24).standard_normal((4, 16))
    assert np.array_equal(hal(ad.constant(phi)).data, phi)


def test_hallucinator_preserves_dimension():
    cfg = small_cfg()
    hal = nets.Hallucinator(cfg, nets.drawing(np.random.default_rng(25)))
    out = hal(ad.constant(np.zeros((3, 16))))
    assert out.shape == (3, 16)


def test_hallucination_loss_values():
    a = np.random.default_rng(26).standard_normal((1, 16))
    same = nets.hallucination_loss(ad.constant(a), ad.constant(a.copy()))
    assert same.item() == 0.0
    b = a.copy()
    b[0, 3] += 1.0
    assert nets.hallucination_loss(ad.constant(a), ad.constant(b)).item() == pytest.approx(1.0)


def test_hallucination_loss_gradient_and_target_detach():
    rng = np.random.default_rng(27)
    target = ad.parameter(rng.standard_normal((2, 16)), name="target")
    pred = ad.parameter(rng.standard_normal((2, 16)), name="pred")

    err = ad.finite_diff_check(lambda: nets.hallucination_loss(target, pred), pred,
                               max_coords=16, rng=np.random.default_rng(28))
    assert err < 1e-4

    target.grad, pred.grad = None, None
    nets.hallucination_loss(target, pred).backward()
    assert target.grad is None or np.all(target.grad == 0.0)
    assert pred.grad is not None and np.any(pred.grad != 0.0)


# ---------------------------------------------------------------------------
# discriminators
# ---------------------------------------------------------------------------


def test_discriminator_score_count_and_determinism():
    cfg = small_cfg()
    disc = nets.DiscriminatorSet(cfg, nets.drawing(np.random.default_rng(29)))
    rng = np.random.default_rng(30)
    theta = ad.constant(rng.normal(0, 0.5, (3, 72)))
    beta = ad.constant(rng.normal(0, 0.5, (3, 10)))
    s1 = disc(theta, beta)
    s2 = disc(theta, beta)
    assert s1.shape == (3, 25)
    assert np.array_equal(s1.data, s2.data)


def test_global_rotation_excluded_from_critics():
    cfg = small_cfg()
    disc = nets.DiscriminatorSet(cfg, nets.drawing(np.random.default_rng(31)))
    rng = np.random.default_rng(32)
    theta = rng.normal(0, 0.5, (2, 72))
    beta = rng.normal(0, 0.5, (2, 10))
    base = disc(ad.constant(theta), ad.constant(beta)).data
    spun = theta.copy()
    spun[:, :3] = rng.normal(0, 2.0, (2, 3))
    assert np.array_equal(disc(ad.constant(spun), ad.constant(beta)).data, base)


# ---------------------------------------------------------------------------
# parameter bookkeeping and checkpoints
# ---------------------------------------------------------------------------


def expected_param_count(cfg):
    d, k, h, hh = cfg.feature_dim, cfg.kernel, cfg.ief_hidden, cfg.disc_hidden
    n_temporal = cfg.n_blocks * 2 * (d * d * k + d + 2 * d)
    n_f3d = (d + 85) * h + h + h * h + h + h * 85 + 85 + 85
    n_delta = len(cfg.delta_steps) * ((d + 72) * h + h + h * h + h + h * 72 + 72)
    n_hal = 2 * (d * d + d) if cfg.use_hal else 0
    n_disc = 23 * (9 * hh + hh + hh + 1) \
        + (9 * 23) * hh + hh + hh * hh + hh + hh + 1 \
        + 10 * hh + hh + hh + 1
    return n_temporal + n_f3d + n_delta + n_hal + n_disc


@pytest.mark.parametrize("cfg_kwargs", [
    {},
    {"n_blocks": 2, "kernel": 5},
    {"use_hal": False},
    {"delta_steps": (-3, -5, 5)},
])
def test_parameter_counts_match_formula(cfg_kwargs):
    cfg = small_cfg(**cfg_kwargs)
    model = nets.ModelNets.create(cfg, seed=0)
    assert sum(p.size for p in model.all_params()) == expected_param_count(cfg)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg(delta_steps=(-5, 5))
    model = nets.ModelNets.create(cfg, seed=13)
    adam_m = {p.name: np.random.default_rng(33).standard_normal(p.data.shape) for p in model.all_params()}
    adam_v = {name: np.abs(m) for name, m in adam_m.items()}
    path = tmp_path / "ckpt.bin"
    nets.save_checkpoint(path, model, step=42, adam_m=adam_m, adam_v=adam_v,
                         adam_steps={"gen": 42, "disc": 41})
    loaded, step, m2, v2, adam_steps = nets.load_checkpoint(path)
    assert step == 42
    assert adam_steps == {"gen": 42, "disc": 41}
    assert loaded.cfg == cfg
    orig = model.named_params()
    for name, p in loaded.named_params().items():
        assert np.array_equal(p.data, orig[name].data), name
        assert np.array_equal(m2[name], adam_m[name]), name
        assert np.array_equal(v2[name], adam_v[name]), name


def test_checkpoint_config_round_trips_every_field(tmp_path):
    cfg = nets.EncoderConfig(feature_dim=12, n_blocks=2, kernel=5, gn_groups=3, gn_group_size=4,
                             ief_iters=2, ief_hidden=10, dropout_rate=0.25,
                             delta_steps=(4, -2, -6), use_hal=False, disc_hidden=6)
    default = nets.EncoderConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    path = tmp_path / "ckpt.bin"
    nets.save_checkpoint(path, nets.ModelNets.create(cfg, seed=2), step=7)
    assert nets.load_checkpoint(path)[0].cfg == cfg


def test_checkpoint_loads_sections_by_name(tmp_path):
    model = nets.ModelNets.create(small_cfg(), seed=3)
    rng = np.random.default_rng(4)
    adam_m = {p.name: rng.standard_normal(p.data.shape) for p in model.all_params()}
    adam_v = {name: np.abs(m) for name, m in adam_m.items()}
    path = tmp_path / "ckpt.bin"
    nets.save_checkpoint(path, model, step=9, adam_m=adam_m, adam_v=adam_v,
                         adam_steps={"gen": 9, "disc": 8})
    sections = list(read_container(path, nets.CKPT_MAGIC).items())
    write_container(path, nets.CKPT_MAGIC, sections[::-1])
    assert list(read_container(path, nets.CKPT_MAGIC))[0] == sections[-1][0]
    loaded, step, m2, v2, adam_steps = nets.load_checkpoint(path)
    assert (step, adam_steps, loaded.cfg) == (9, {"gen": 9, "disc": 8}, model.cfg)
    orig = model.named_params()
    for name, p in loaded.named_params().items():
        assert np.array_equal(p.data, orig[name].data), name
        assert np.array_equal(m2[name], adam_m[name]), name
        assert np.array_equal(v2[name], adam_v[name]), name


def _rewrite_checkpoint(path, edit):
    sections = read_container(path, nets.CKPT_MAGIC)
    edit(sections)
    write_container(path, nets.CKPT_MAGIC, list(sections.items()))


def test_checkpoint_rejects_transposed_parameter(tmp_path):
    # same element count, wrong layout: an (85,h) tensor for the (h,85) output layer
    cfg = small_cfg()
    path = tmp_path / "ckpt.bin"
    nets.save_checkpoint(path, nets.ModelNets.create(cfg, seed=0), step=0)

    def transpose(sec):
        w = sec["param/f_3d.out.w"].reshape(tuple(sec["shape/f_3d.out.w"]))
        sec["param/f_3d.out.w"] = w.T.reshape(-1)
        sec["shape/f_3d.out.w"] = np.array(w.T.shape, dtype=np.int64)

    _rewrite_checkpoint(path, transpose)
    with pytest.raises(ValidationError, match="f_3d.out.w"):
        nets.load_checkpoint(path)


def test_checkpoint_rejects_unknown_parameter_section(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ckpt.bin"
    nets.save_checkpoint(path, nets.ModelNets.create(cfg, seed=0), step=0)
    _rewrite_checkpoint(path, lambda sec: sec.update({"param/f_3d.extra.w": np.zeros(4)}))
    with pytest.raises(ValidationError, match="param/f_3d.extra.w"):
        nets.load_checkpoint(path)


def _drop_moment(sec, kind):
    for key in [key for key in sec if key.startswith(kind + "/")]:
        del sec[key]


@pytest.mark.parametrize("edit,missing", [
    (lambda sec: sec.pop("adam_steps"), "adam_steps"),                  # moments, no step counts
    (lambda sec: sec.pop("adam_m/f_3d.out.w"), "adam_m/f_3d.out.w"),    # adam_v without its adam_m
    (lambda sec: (_drop_moment(sec, "adam_m"), _drop_moment(sec, "adam_v")),
     "adam_m/"),                                                         # step counts, no moments
], ids=["moments_without_steps", "v_without_m", "steps_without_moments"])
def test_checkpoint_rejects_partial_adam_state(tmp_path, edit, missing):
    model = nets.ModelNets.create(small_cfg(), seed=0)
    moments = {p.name: np.ones(p.data.shape) for p in model.all_params()}
    path = tmp_path / "ckpt.bin"
    nets.save_checkpoint(path, model, step=5, adam_m=moments, adam_v=moments,
                         adam_steps={"gen": 5, "disc": 5})
    _rewrite_checkpoint(path, edit)
    with pytest.raises(ValidationError, match="partial Adam state") as ei:
        nets.load_checkpoint(path)
    assert str(path) in str(ei.value) and f"'{missing}" in str(ei.value), ei.value


def test_full_path_gradient_temporal_to_regressor():
    cfg = small_cfg(n_blocks=1)
    model = nets.ModelNets.create(cfg, seed=1)
    feats = ad.constant(np.random.default_rng(34).standard_normal((9, 16)))
    probe = ad.constant(np.random.default_rng(35).standard_normal((9, 85)))
    wrt = [model.temporal.blocks[0][1][0], model.regressor.fc1.w, model.regressor.theta_mean]

    def f():
        phi = model.temporal(feats)
        theta = model.regressor(phi)
        return ad.sum_(theta * probe)

    err = ad.finite_diff_check(f, wrt, max_coords=12, rng=np.random.default_rng(36))
    assert err < 1e-4
