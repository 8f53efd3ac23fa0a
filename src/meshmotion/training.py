"""End-to-end training: the temporal path, shifted-frame predictions with
closed-form cameras, the hallucinated path, priors, and the adversarial
alternation.

Determinism contract: every source of randomness in a step (batch choice,
frame windows, jitter, dropout masks, discriminator sampling) derives from
(config seed, step index) alone, so training resumed from a checkpoint is
bit-identical to an uninterrupted run.

One objective: ``objective`` assembles a step's windows, runs the shared
``forward`` chain and sums every generator loss term, each added by one
rule; ``train_step`` differentiates it and runs the critic update, and the
gradient check differentiates the same function.

One graph per step: the temporal encoder runs once over the whole (B, T)
batch, the shape-constancy term is one sum over the consecutive frames of
every sequence, and ``forward`` concatenates all frame evaluations from
every path (current frames, shifted frames, hallucinated variants) into one
batched mesh/projection graph. Graph size is therefore independent of batch
and sequence length. Without a dropout generator the same ``forward`` is the
inference pass behind evaluation and prediction.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import gc
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import body, camera
from .container import ValidationError, replacing_open
from .losses import (LossWeights, adv_prior_discriminator_loss, adv_prior_generator_loss,
                     beta_prior, const_shape_loss, loss_2d_rows, loss_3d_rows, raw_to_full)
from .nets import ModelNets, hallucination_loss
from .optim import Adam

log = logging.getLogger(__name__)

LOSS_COLUMNS = ("l2d", "l3d", "ladv", "lbeta", "lconst", "ldelta", "lhal",
                "lhal_frame", "ldisc", "total")


def rng_for(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


@dataclass
class TrainConfig:
    seq_len: int = 20
    batch_size: int = 8
    steps: int = 1000
    lr: float = 1e-4
    lr_disc: float = 1e-4
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    jitter_scale: tuple = (0.9, 1.1)
    jitter_trans: float = 11.2     # pixels: 0.05 of a 224-unit frame
    use_jitter: bool = True
    delta_centers_per_seq: int = 2
    checkpoint_every: int = 500

    def validate(self, enc_cfg):
        self.weights.validate()
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if len(self.jitter_scale) != 2:
            raise ValidationError(f"jitter_scale needs two values lo,hi, got {self.jitter_scale}")
        if self.seq_len < enc_cfg.receptive_field:
            raise ValidationError(
                f"seq_len {self.seq_len} shorter than the receptive field {enc_cfg.receptive_field}")
        if self.seq_len < 2 * enc_cfg.delta_margin + 1:
            raise ValidationError(f"seq_len {self.seq_len} cannot host delta centers "
                                  f"(need {2 * enc_cfg.delta_margin + 1})")
        return self


@dataclass
class TrainState:
    nets: ModelNets
    adam_gen: Adam
    adam_disc: Adam
    step: int = 0
    history: list = field(default_factory=list)


def init_state(nets_model: ModelNets, cfg: TrainConfig) -> TrainState:
    return TrainState(
        nets=nets_model,
        adam_gen=Adam(nets_model.generator_params(), lr=cfg.lr),
        adam_disc=Adam(nets_model.discriminator_params(), lr=cfg.lr_disc),
    )


# ---------------------------------------------------------------------------
# Batch mixing
# ---------------------------------------------------------------------------


class BatchMixer:
    """Deterministic ratio round-robin over datasets with shuffled epochs.

    Dataset choice for a step follows a fixed ratio pattern; sequences within
    a dataset are drawn from per-epoch permutations. Everything is a pure
    function of (seed, step), so resuming never desynchronizes the stream.
    ``metas[d]`` is pool d's FeatureMeta (or None), the camera directions
    that jitter moves that dataset's features along.
    """

    def __init__(self, datasets, seq_len: int, batch_size: int, seed: int):
        self.seq_len = seq_len
        self.batch_size = batch_size
        self.seed = seed
        self.pools = []
        self.metas = []
        pattern = []
        for d_idx, (bundle, ratio) in enumerate(datasets):
            usable = [s for s in bundle if s.n_frames >= seq_len]
            if ratio < 0:
                raise ValidationError(f"dataset ratio must be >= 0, got {ratio}")
            if usable and ratio > 0:
                pattern.extend([len(self.pools)] * int(ratio))
                self.pools.append(usable)
                self.metas.append(bundle.feature_meta)
            elif not usable:
                log.warning("dataset %d has no sequences of length >= %d; skipped", d_idx, seq_len)
        if not pattern:
            raise ValidationError("no usable datasets to mix")
        self.pattern = pattern

    def dataset_for_step(self, step: int) -> int:
        return self.pattern[step % len(self.pattern)]

    def _draws_before(self, step: int, d: int) -> int:
        full, rem = divmod(step, len(self.pattern))
        in_pattern = self.pattern.count(d)
        return (full * in_pattern + self.pattern[:rem].count(d)) * self.batch_size

    def batch(self, step: int):
        """Samples (sequence, window_start) pairs for one step."""
        d = self.dataset_for_step(step)
        pool = self.pools[d]
        n = len(pool)
        start = self._draws_before(step, d)
        out = []
        for j in range(self.batch_size):
            global_idx = start + j
            epoch, offset = divmod(global_idx, n)
            perm = rng_for(self.seed, 11, d, epoch).permutation(n)
            sample = pool[perm[offset]]
            wmax = sample.n_frames - self.seq_len
            w0 = int(rng_for(self.seed, 12, step, j).integers(0, wmax + 1)) if wmax > 0 else 0
            out.append((sample, w0))
        return out


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def jitter_window(kp, theta_gt, features, feature_meta, rng, cfg: TrainConfig):
    """Per-frame scale/translation noise on 2-D targets and feature encoding.

    Keypoints move as a detector's crop would: kp' = a * kp + b. For synthetic
    features the camera components of the encoding are updated through the
    stored feature-space directions (s' = a s, t' = a t + b); 3-D targets are
    untouched. Returns (kp', features').
    """
    t_len = kp.shape[0]
    lo, hi = cfg.jitter_scale
    scale = rng.uniform(lo, hi, t_len)
    trans = rng.uniform(-cfg.jitter_trans, cfg.jitter_trans, (t_len, 2))
    kp_out = kp * scale[:, None, None] + trans[:, None, :]
    feats_out = features
    if feature_meta is not None and theta_gt is not None:
        t_old = theta_gt[:, 83:85]
        dz = np.column_stack([
            np.log(scale),
            ((scale - 1.0) * t_old[:, 0] + trans[:, 0]) / feature_meta.t_norm,
            ((scale - 1.0) * t_old[:, 1] + trans[:, 1]) / feature_meta.t_norm,
        ])
        feats_out = features + dz @ feature_meta.qcam.T
    return kp_out, feats_out


# ---------------------------------------------------------------------------
# The training step
# ---------------------------------------------------------------------------


def build_real_pose_pool(datasets):
    """The discriminator's real rows from every full3d sequence of the
    datasets, ratio-0 ones included. Only that tier's 3-D truth may train
    anything, the rule ``objective``'s 3-D loss follows too.

    Returns (beta (N,10), rotations (N,24,3,3)), or None without full3d
    ground truth. The poses are converted to rotations here, once per
    training run, so a step only indexes them.
    """
    rows = []
    for bundle, _ratio in datasets:
        for s in bundle:
            if s.tier == "full3d" and s.theta_gt is not None:
                rows.append(s.theta_gt[:, :82])
    if not rows:
        return None
    theta = np.concatenate(rows, axis=0)
    return theta[:, 0:10], body.pose_rotations(ad.constant(theta[:, 10:82])).data


def _require_finite(step: int, what: str, values):
    """Raise NumericalError naming each (name, value) pair whose value is not all finite."""
    bad = [name for name, value in values if not np.all(np.isfinite(value))]
    if bad:
        raise ad.NumericalError(f"step {step}: non-finite {what} {', '.join(bad)}; "
                                "no parameter was updated")


def _require_finite_grads(step: int, params):
    _require_finite(step, "gradient of", ((p.name, p.grad) for p in params if p.grad is not None))


def _require_real_pool(cfg: TrainConfig, real_pool):
    if cfg.weights.w_adv > 0 and real_pool is None:
        raise ValidationError("adversarial prior enabled but no full3d ground-truth "
                              "poses are available for the discriminator")


def forward(model: body.BodyModel, nets_model: ModelNets, phis, delta_rows=(), drop_rng=None):
    """The regressor -> delta -> body-model chain that training and inference share.

    ``phis`` holds one (n, D) context-feature block per path (temporal,
    hallucinated). The regressor runs on every path in one call; then, path
    by path and step by step in increasing order, each delta predictor runs
    on the path's ``delta_rows``, keeping the shape of the row it starts
    from. ``drop_rng`` goes to each network call in that order, so each
    draws its own dropout masks from it, regressor first; without it the
    pass is dropout-free.

    Returns a dict: ``full``, the (n, 85) prediction rows of each path;
    ``beta`` (R, 10), ``pose`` (R, 72), ``rots`` (R, 24, 3, 3) and
    ``joints`` (R, k, 3), every path's rows followed by every delta
    prediction's, where ``rots`` holds the pose rows' rotations, converted
    once for the body model and the critics; and ``pred2d`` (P*n, k, 2),
    the path rows' keypoints projected with their own cameras.
    """
    full_rows = raw_to_full(nets_model.regressor(ad.concat(phis, axis=0), drop_rng))
    n = phis[0].shape[0]
    full = [full_rows[i * n:(i + 1) * n, :] for i in range(len(phis))]
    betas = [f[:, 0:10] for f in full]
    poses = [f[:, 10:82] for f in full]
    if len(delta_rows):
        for phi_p, full_p in zip(phis, full):
            phi_c = ad.gather_rows(phi_p, delta_rows)
            full_c = ad.gather_rows(full_p, delta_rows)
            for delta in nets_model.deltas.values():
                poses.append(delta(phi_c, full_c[:, 10:82], drop_rng))
                betas.append(full_c[:, 0:10])
    beta = ad.concat(betas, axis=0)
    pose = ad.concat(poses, axis=0)
    rots = body.pose_rotations(pose)
    joints = body.keypoints_3d(model, beta, rots)
    pred2d = camera.project(joints[0:len(phis) * n, :, :], full_rows[:, 82:83], full_rows[:, 83:85])
    return {"full": full, "beta": beta, "pose": pose, "rots": rots, "joints": joints,
            "pred2d": pred2d}


def objective(model: body.BodyModel, nets_model: ModelNets, batch, cfg: TrainConfig, step: int,
              feature_meta=None):
    """The generator objective of training step ``step``.

    ``batch`` is a list of (SequenceSample, window_start) drawn from one
    dataset and ``feature_meta`` is that dataset's FeatureMeta (or None).
    Jitter, dropout masks and delta centres are drawn from (cfg.seed, step),
    so the same arguments give the same function of the generator's
    parameters. Returns (total, breakdown, out): the scalar loss, a dict of
    plain floats holding each of ``LOSS_COLUMNS`` (``ldisc`` left 0) and
    ``frames_used``, and ``forward``'s outputs. Returns None when every frame
    is below the visibility floor.
    """
    enc = nets_model.cfg
    w = cfg.weights
    n_batch = len(batch)
    t_len = cfg.seq_len
    k = model.n_keypoints
    use_hal = nets_model.hallucinator is not None
    use_deltas = bool(nets_model.deltas) and w.w_delta > 0

    # -- deterministic per-step randomness ------------------------------------
    jit_rng = rng_for(cfg.seed, 20, step)
    drop_rng = rng_for(cfg.seed, 21, step)
    center_rng = rng_for(cfg.seed, 22, step)

    # -- assemble window arrays ----------------------------------------------
    kp_all = np.empty((n_batch, t_len, k, 2))
    vis_all = np.empty((n_batch, t_len, k), dtype=bool)
    excluded = np.empty((n_batch, t_len), dtype=bool)
    feats_all = np.empty((n_batch, t_len, enc.feature_dim))
    gt_full = np.full((n_batch, t_len, 85), np.nan)
    has_3d = np.zeros(n_batch, dtype=bool)
    for b, (sample, w0) in enumerate(batch):
        sl = slice(w0, w0 + t_len)
        kp_w = sample.kp2d[sl]
        vis_all[b] = sample.vis[sl]
        excluded[b] = sample.excluded[sl]
        feats_w = sample.features[sl]
        theta_w = sample.theta_gt[sl] if sample.theta_gt is not None else None
        if cfg.use_jitter:
            kp_w, feats_w = jitter_window(kp_w, theta_w, feats_w, feature_meta, jit_rng, cfg)
        kp_all[b] = kp_w
        feats_all[b] = feats_w
        if theta_w is not None:
            gt_full[b] = theta_w
        has_3d[b] = sample.tier == "full3d" and theta_w is not None
    frame_ok = ~excluded
    if not frame_ok.any():
        return None

    bt = n_batch * t_len
    frame_w = frame_ok.reshape(bt).astype(np.float64)

    # -- encoder paths and the shared forward chain ----------------------------
    # one encoder graph over the whole batch, its rows sequence-major
    phi_temporal = ad.reshape(nets_model.temporal(ad.constant(feats_all)), (bt, enc.feature_dim))
    phis = [phi_temporal]
    if use_hal:
        phis.append(nets_model.hallucinator(ad.constant(feats_all.reshape(bt, enc.feature_dim))))
    # delta centres as (sequence, frame) index arrays; one draw per sequence, as
    # the generator's stream depends on the draw sizes
    n_per_seq = cfg.delta_centers_per_seq if use_deltas else 0
    center_b = np.repeat(np.arange(n_batch), n_per_seq)
    center_t = np.concatenate([center_rng.integers(enc.delta_margin, t_len - enc.delta_margin,
                                                   n_per_seq) for _ in range(n_batch)])
    out = forward(model, nets_model, phis, center_b * t_len + center_t, drop_rng)

    kp_flat = kp_all.reshape(bt, k, 2)
    vis_flat = vis_all.reshape(bt, k)
    breakdown = dict.fromkeys(LOSS_COLUMNS, 0.0)
    terms = []

    def add_term(name, weight, value):
        terms.append((weight, value))
        breakdown[name] += value.item()

    # frame paths: predicted camera projection + 2d/3d losses
    for i, full_p in enumerate(out["full"]):
        l2d_vec = loss_2d_rows(out["pred2d"][i * bt:(i + 1) * bt, :, :], kp_flat, vis_flat)
        l2d = ad.sum_(l2d_vec * ad.constant(frame_w)) * (1.0 / n_batch)
        add_term("l2d" if i == 0 else "lhal_frame", w.w_2d, l2d)
        w3d = (frame_ok & has_3d[:, None]).reshape(bt).astype(np.float64)
        if w3d.any():
            gt_rows = np.nan_to_num(gt_full.reshape(bt, 85))
            l3d = ad.sum_(loss_3d_rows(full_p, gt_rows) * ad.constant(w3d)) * (1.0 / n_batch)
            add_term("l3d", w.w_3d, l3d)
        lbeta = ad.sum_(beta_prior(full_p[:, 0:10]) * ad.constant(frame_w)) * (1.0 / n_batch)
        add_term("lbeta", w.w_beta, lbeta)

    # delta paths: closed-form camera then reprojection at the shifted frame;
    # the target rows follow forward's order: path, then step, then centre
    if len(center_t):
        n_frame_rows = len(phis) * bt
        tgt_b = np.tile(center_b, len(phis) * len(nets_model.deltas))
        tgt_t = np.tile(np.concatenate([center_t + s for s in nets_model.deltas]), len(phis))
        kp_tgt = kp_all[tgt_b, tgt_t]
        vis_tgt = vis_all[tgt_b, tgt_t]
        row_ok = ~excluded[tgt_b, tgt_t]
        fits = camera.optimal_camera_rows(out["joints"][n_frame_rows:, :, 0:2], kp_tgt, vis_tgt)
        dweight = (row_ok & fits["valid"]).astype(np.float64)
        per_vis = dweight / np.maximum(fits["n_visible"], 1)
        ldelta = ad.sum_(fits["residual"] * ad.constant(per_vis)) * w.w_2d
        if has_3d.any():
            gt_pose = np.nan_to_num(gt_full[tgt_b, tgt_t, 10:82])
            w3d_rows = dweight * has_3d[tgt_b]
            diff = out["pose"][n_frame_rows:, :] - ad.constant(gt_pose)
            l3d_vec = ad.sum_(diff * diff, axis=1) * (1.0 / body.POSE_DIM)
            ldelta = ldelta + w.w_3d * ad.sum_(l3d_vec * ad.constant(w3d_rows))
        add_term("ldelta", w.w_delta, ldelta * (1.0 / n_batch))

    # adversarial prior over every predicted pose/shape row; the critics are
    # constants here, so the generator backward computes no critic gradient
    if w.w_adv > 0:
        critics = nets_model.frozen_discriminators()
        add_term("ladv", w.w_adv, adv_prior_generator_loss(critics, out["rots"], out["beta"]))

    # shape constancy within each sequence along the temporal path
    if w.w_const > 0:
        betas_t = ad.reshape(out["full"][0][:, 0:10], (n_batch, t_len, 10))
        add_term("lconst", w.w_const, const_shape_loss(betas_t) * (1.0 / n_batch))

    # feature matching for the hallucinator
    if use_hal and w.w_hal > 0:
        add_term("lhal", w.w_hal, hallucination_loss(phi_temporal, phis[1]))

    total = ad.constant(0.0)
    for weight, value in terms:
        total = total + weight * value
    breakdown["total"] = total.item()
    breakdown["frames_used"] = float(frame_w.sum())
    return total, breakdown, out


def train_step(model: body.BodyModel, state: TrainState, batch, cfg: TrainConfig,
               feature_meta=None, real_pool=None):
    """One generator update on ``objective`` followed by one discriminator update.

    ``batch`` and ``feature_meta`` are ``objective``'s and ``real_pool`` is
    ``build_real_pose_pool``'s. Returns the loss breakdown dict (plain
    floats); parameters and moments update in place. A non-finite loss term
    or gradient raises NumericalError naming it, before any parameter,
    moment or the step counter changes.
    """
    _require_real_pool(cfg, real_pool)
    nets_model = state.nets
    step = state.step
    result = objective(model, nets_model, batch, cfg, step, feature_meta)
    if result is None:
        log.warning("step %d: every frame in the batch is below the visibility floor; skipped",
                    step)
        state.step += 1
        row = dict.fromkeys(LOSS_COLUMNS, 0.0) | {"skipped": 1.0, "step": float(step)}
        state.history.append(row)
        return row
    total, breakdown, out = result
    _require_finite(step, "loss terms", breakdown.items())

    # -- gradients of both updates, all checked before any parameter moves -----
    state.adam_gen.zero_grad()
    state.adam_disc.zero_grad()
    total.backward()    # consumes the generator graph; ``out`` keeps only its arrays
    _require_finite_grads(step, state.adam_gen.params)
    if cfg.weights.w_adv > 0:
        # the fakes are this step's rotations
        real_beta, real_rots = real_pool
        idx = rng_for(cfg.seed, 23, step).integers(0, real_beta.shape[0], out["rots"].shape[0])
        dloss = adv_prior_discriminator_loss(nets_model.discriminators, real_rots[idx],
                                             real_beta[idx], out["rots"].data, out["beta"].data)
        breakdown["ldisc"] = dloss.item()
        _require_finite(step, "loss terms", [("ldisc", breakdown["ldisc"])])
        dloss.backward()
        _require_finite_grads(step, state.adam_disc.params)

    state.adam_gen.step()
    if cfg.weights.w_adv > 0:
        state.adam_disc.step()

    breakdown["skipped"] = 0.0
    breakdown["step"] = float(step)
    state.step += 1
    state.history.append(breakdown)
    return breakdown


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    A training step makes no reference cycles (the tape's closures point at
    parents, never at their own output), so the collector frees nothing
    here; left on, it rescans young objects every few hundred allocations
    and now and then the whole heap, about a tenth of a small step's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc's mallopt parameters (malloc.h)


@functools.cache
def _keep_freed_heap():
    """Let the memory a step frees stay in the heap for the next step.

    A step frees most of what it allocates while its backward sweep runs.
    glibc's adaptive thresholds then trim the top of the heap back to the
    OS inside the step, and the next forward faults those pages in again:
    1,000-1,900 minor faults per ``train_small`` step in a fresh process.
    Fixed thresholds, trimming only above 64 MiB of free top and mapping
    only blocks of 32 MiB or more on their own, keep the pages. The
    setting is process-wide and glibc's own, so it is made once per
    process; where the C library has no ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def train(model: body.BodyModel, state: TrainState, datasets, cfg: TrainConfig,
          checkpoint_fn=None):
    """Run training up to cfg.steps (absolute step count; resumable).

    ``datasets`` is a list of (DatasetBundle, ratio). ``checkpoint_fn`` is
    called as checkpoint_fn(state) every cfg.checkpoint_every steps and at
    the end.
    """
    cfg.validate(state.nets.cfg)
    real_pool = build_real_pose_pool(datasets)
    _require_real_pool(cfg, real_pool)
    mixer = BatchMixer(datasets, cfg.seq_len, cfg.batch_size, cfg.seed)
    _keep_freed_heap()
    with _cyclic_gc_paused():
        while state.step < cfg.steps:
            batch = mixer.batch(state.step)
            meta = mixer.metas[mixer.dataset_for_step(state.step)]
            train_step(model, state, batch, cfg, feature_meta=meta, real_pool=real_pool)
            if checkpoint_fn is not None and (state.step % cfg.checkpoint_every == 0
                                              or state.step >= cfg.steps):
                checkpoint_fn(state)
    return state


def write_history_csv(path, history):
    """Write the loss history as CSV; an interrupted write keeps the old file."""
    cols = ("step",) + LOSS_COLUMNS + ("skipped",)
    with replacing_open(path, "x", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(cols)
        for i, row in enumerate(history):
            step = int(row.get("step", i))
            wtr.writerow([step] + [f"{row.get(c, 0.0):.6f}" for c in cols[1:]])
