"""Learnable components: temporal encoder, parameter regressors, hallucinator,
and the pose/shape discriminator set.

Structural counts (three residual blocks, kernel 3, three feedback
iterations, delta steps of +/-5 frames) follow the reference architecture;
widths are scaled down so full gradient checks run in seconds. With kernel 3
and three blocks of two convolutions each, one output frame sees
1 + 3*2*(3-1) = 13 input frames.

Parameter counts per component (D = feature dim, H = hidden, K = kernel,
h = discriminator hidden, J = number of body joints minus the root):
  temporal encoder:  n_blocks * 2 * (D*D*K + D + 2D)
  pose regressor:    (D+85)*H + H + H*H + H + H*85 + 85   plus the 85-D mean
  delta predictor:   (D+72)*H + H + H*H + H + H*72 + 72   per step
  hallucinator:      2 * (D*D + D)
  discriminators:    J*(9h + 2h + 1) + (9J*h + h + h*h + h + h + 1) + (10h + 2h + 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import body
from .container import ValidationError, read_container, require, view, write_container

CKPT_MAGIC = "HMMRCKPT1"

THETA_DIM = body.THETA_DIM   # 85
POSE_DIM = body.POSE_DIM     # 72
SHAPE_DIM = body.SHAPE_DIM   # 10
N_BODY_JOINTS = body.N_JOINTS - 1  # discriminated joints, global rotation excluded

# raw regressor output layout: [beta | pose | camera(log s, tx, ty)]
CAM_SLICE = slice(SHAPE_DIM + POSE_DIM, THETA_DIM)


@dataclass
class EncoderConfig:
    """Architecture knobs; defaults are the desk-scale widths."""

    feature_dim: int = 64
    n_blocks: int = 3
    kernel: int = 3
    gn_groups: int = 8
    gn_group_size: int = 8
    ief_iters: int = 3
    ief_hidden: int = 128
    dropout_rate: float = 0.1
    delta_steps: tuple = (-5, 5)
    use_hal: bool = True
    disc_hidden: int = 32

    @property
    def receptive_field(self) -> int:
        return 1 + self.n_blocks * 2 * (self.kernel - 1)

    @property
    def half_field(self) -> int:
        return self.receptive_field // 2

    @property
    def delta_margin(self) -> int:
        """Frames a delta centre keeps from either end of its sequence: the
        encoder's half field and every delta step fit inside."""
        return max([self.half_field] + [abs(s) for s in self.delta_steps])

    def validate(self):
        if self.kernel % 2 != 1 or self.kernel < 1:
            raise ValidationError(f"kernel must be odd and positive, got {self.kernel}")
        if self.n_blocks > 0 and self.gn_groups * self.gn_group_size != self.feature_dim:
            raise ValidationError(
                f"group norm layout {self.gn_groups}x{self.gn_group_size} != feature dim {self.feature_dim}")
        if len(set(self.delta_steps)) != len(self.delta_steps):
            raise ValidationError(f"duplicate delta steps: {self.delta_steps}")
        if any(d == 0 for d in self.delta_steps):
            raise ValidationError("delta step 0 is the current frame")
        return self


# Every component declares each of its parameters once, as
# ``param(name, shape, init)``. ``param`` is a factory: ``drawing(rng)`` makes
# the value with ``init(rng, shape)`` (a new model), and ``load_checkpoint``'s
# factory reads it from the file, so a loaded model draws nothing.

def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _uniform(limit):
    return lambda rng, shape: rng.uniform(-limit, limit, size=shape)


def drawing(rng):
    """Parameter factory for a new model: each value drawn from ``rng`` by its initializer."""
    def param(name, shape, init):
        return ad.parameter(init(rng, shape), name=name)
    return param


class Linear:
    def __init__(self, param, n_in, n_out, name, out_scale=1.0):
        limit = np.sqrt(6.0 / (n_in + n_out)) * out_scale   # Glorot uniform
        self.w = param(f"{name}.w", (n_in, n_out), _uniform(limit))
        self.b = param(f"{name}.b", (n_out,), _zeros)
        self.name = name

    def __call__(self, x, relu=False, mask=None):
        """x @ w + b, through a relu and then scaled by a dropout mask when given."""
        return ad.matmul_add(x, self.w, self.b, relu=relu, mask=mask)

    def params(self):
        return [self.w, self.b]


class TemporalEncoder:
    """Residual 1-D conv stack mapping per-frame features to context features.

    Input and output are (..., T, D): leading dims are a batch of
    independent sequences, encoded in one graph. Each block is two kernel-K
    convolutions, each followed by group norm and a relu, added back onto
    the block input. With zero blocks the encoder is the identity
    (context-free ablation).
    """

    def __init__(self, cfg: EncoderConfig, param):
        self.cfg = cfg
        d, k = cfg.feature_dim, cfg.kernel
        scale = np.sqrt(6.0 / (2 * d * k))

        def conv_init(rng, shape):
            return rng.uniform(-1, 1, shape) * scale

        self.blocks = []
        for i in range(cfg.n_blocks):
            blk = {}
            for half in (1, 2):
                w = param(f"f_movie.block{i}.conv{half}.w", (d, d, k), conv_init)
                b = param(f"f_movie.block{i}.conv{half}.b", (d,), _zeros)
                gamma = param(f"f_movie.block{i}.gn{half}.gamma", (d,), _ones)
                beta = param(f"f_movie.block{i}.gn{half}.beta", (d,), _zeros)
                blk[half] = (w, b, gamma, beta)
            self.blocks.append(blk)

    def __call__(self, features):
        time_last = tuple(range(features.ndim - 2)) + (features.ndim - 1, features.ndim - 2)
        x = ad.transpose(features, time_last)  # (..., D, T)
        for blk in self.blocks:
            h = x
            for half in (1, 2):
                w, b, gamma, beta = blk[half]
                h = ad.conv1d(h, w, b)
                h = ad.group_norm(h, gamma, beta, self.cfg.gn_groups)
                h = ad.relu(h)
            x = x + h
        return ad.transpose(x, time_last)  # (..., T, D)

    def params(self):
        out = []
        for blk in self.blocks:
            for half in (1, 2):
                out.extend(blk[half])
        return out


class _HiddenMlp:
    """fc1 -> relu -> fc2 -> relu -> out, the layers of the IEF regressor and
    of each delta predictor. Given ``drop_rng``, each hidden layer draws its
    (rows, ief_hidden) dropout mask from it at ``cfg.dropout_rate`` as it
    runs; without it the pass is dropout-free."""

    def __init__(self, cfg: EncoderConfig, param, n_in, n_out, tag):
        self.cfg = cfg
        self.fc1 = Linear(param, n_in, cfg.ief_hidden, f"{tag}.fc1")
        self.fc2 = Linear(param, cfg.ief_hidden, cfg.ief_hidden, f"{tag}.fc2")
        self.out = Linear(param, cfg.ief_hidden, n_out, f"{tag}.out", out_scale=0.01)

    def mlp(self, x, drop_rng):
        for fc in (self.fc1, self.fc2):
            mask = None if drop_rng is None else ad.dropout_mask(
                drop_rng, (x.shape[0], self.cfg.ief_hidden), self.cfg.dropout_rate)
            x = fc(x, relu=True, mask=mask)
        return self.out(x)

    def params(self):
        return self.fc1.params() + self.fc2.params() + self.out.params()


class IefRegressor(_HiddenMlp):
    """Iterative-feedback regressor from context features to the 85-D vector.

    Starts every row at the learned mean and applies ``cfg.ief_iters``
    shared-weight correction steps: theta <- theta + mlp(concat(phi, theta)),
    two dropout masks per step with ``drop_rng``.
    """

    def __init__(self, cfg: EncoderConfig, param):
        super().__init__(cfg, param, cfg.feature_dim + THETA_DIM, THETA_DIM, "f_3d")
        self.theta_mean = param("f_3d.theta_mean", (THETA_DIM,), _zeros)

    def __call__(self, phi, drop_rng=None):
        theta = ad.broadcast_to(self.theta_mean, (phi.shape[0], THETA_DIM))
        for _ in range(self.cfg.ief_iters):
            theta = theta + self.mlp(ad.concat([phi, theta], axis=1), drop_rng)
        return theta

    def params(self):
        return super().params() + [self.theta_mean]


class DeltaPredictor(_HiddenMlp):
    """Predicts the pose at t + step from (context feature, current pose).

    One correction on top of the current pose: theta_out = theta + mlp(...).
    Only the 72 pose values move; shape is reused and the camera for the
    shifted frame is solved in closed form downstream.
    """

    def __init__(self, cfg: EncoderConfig, step: int, param):
        super().__init__(cfg, param, cfg.feature_dim + POSE_DIM, POSE_DIM, f"f_delta[{step:+d}]")
        self.step = step

    def __call__(self, phi, theta_pose, drop_rng=None):
        return theta_pose + self.mlp(ad.concat([phi, theta_pose], axis=1), drop_rng)


class Hallucinator:
    """Single-frame feature to context feature, as a residual correction."""

    def __init__(self, cfg: EncoderConfig, param):
        d = cfg.feature_dim
        self.fc1 = Linear(param, d, d, "hal.fc1")
        self.fc2 = Linear(param, d, d, "hal.fc2")

    def __call__(self, phi):
        return phi + self.fc2(self.fc1(phi, relu=True))

    def params(self):
        return self.fc1.params() + self.fc2.params()


def hallucination_loss(phi_context, phi_hal):
    """Euclidean distance per row between context and hallucinated features.

    Returns the mean over rows. The context side is detached so the
    hallucinator chases the encoder rather than dragging it around.
    """
    return ad.mean_(ad.l2_norm_rows(phi_context.detach() - phi_hal))


class DiscriminatorSet:
    """25 least-squares critics: one per joint rotation, one over all joint
    rotations jointly, one over the shape coefficients.

    The 23 per-joint critics have independent weights but are stored stacked
    along a leading joint axis so one batched matmul evaluates all of them.
    """

    def __init__(self, cfg: EncoderConfig, param):
        h = cfg.disc_hidden
        j = N_BODY_JOINTS
        lim1 = np.sqrt(6.0 / (9 + h))
        lim2 = np.sqrt(6.0 / (h + 1))
        self.joint_fc_w = param("disc.joints.fc.w", (j, 9, h), _uniform(lim1))
        self.joint_fc_b = param("disc.joints.fc.b", (j, 1, h), _zeros)
        self.joint_out_w = param("disc.joints.out.w", (j, h, 1), _uniform(lim2))
        self.joint_out_b = param("disc.joints.out.b", (j, 1, 1), _zeros)
        self.all_fc1 = Linear(param, 9 * j, h, "disc.all.fc1")
        self.all_fc2 = Linear(param, h, h, "disc.all.fc2")
        self.all_out = Linear(param, h, 1, "disc.all.out")
        self.shape_fc = Linear(param, SHAPE_DIM, h, "disc.shape.fc")
        self.shape_out = Linear(param, h, 1, "disc.shape.out")

    def __call__(self, theta_pose, beta):
        """Scores (M, 25) for poses and shape rows (M,10).

        The poses are (M,72) axis-angle rows or their (M,24,3,3) rotation
        block (``body.pose_rotations``); the critics see joints 1..23.
        """
        rots = body.pose_rotations(theta_pose)
        m = rots.shape[0]
        j = N_BODY_JOINTS
        feats = ad.reshape(rots[:, 1:], (m, j, 9))
        fj = ad.transpose(feats, (1, 0, 2))                      # (J, M, 9)
        h1 = ad.matmul_add(fj, self.joint_fc_w, self.joint_fc_b, relu=True)
        sj = ad.matmul_add(h1, self.joint_out_w, self.joint_out_b)
        joint_scores = ad.transpose(ad.reshape(sj, (j, m)))      # (M, J)
        flat = ad.reshape(feats, (m, 9 * j))
        all_score = self.all_out(self.all_fc2(self.all_fc1(flat, relu=True), relu=True))
        shape_score = self.shape_out(self.shape_fc(ad.as_tensor(beta), relu=True))
        return ad.concat([joint_scores, all_score, shape_score], axis=1)

    def params(self):
        out = [self.joint_fc_w, self.joint_fc_b, self.joint_out_w, self.joint_out_b]
        out.extend(self.all_fc1.params() + self.all_fc2.params() + self.all_out.params())
        out.extend(self.shape_fc.params() + self.shape_out.params())
        return out


@dataclass
class ModelNets:
    """All learnable components plus a named-parameter registry; ``deltas``
    maps each delta step to its predictor, in increasing step order."""

    cfg: EncoderConfig
    temporal: TemporalEncoder
    regressor: IefRegressor
    deltas: dict
    hallucinator: object
    discriminators: DiscriminatorSet
    _registry: dict = field(default_factory=dict)

    @classmethod
    def create(cls, cfg: EncoderConfig, seed: int = 0) -> "ModelNets":
        """A new model; each component draws from its own stream of ``seed``."""
        return cls._build(cfg, [
            drawing(np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(i,))))
            for i in range(5)])

    @classmethod
    def _build(cls, cfg: EncoderConfig, params) -> "ModelNets":
        """Components made with one parameter factory each, in the order temporal,
        regressor, delta predictors, hallucinator, discriminators."""
        cfg.validate()
        # drawn in the configured order, kept in step order
        deltas = [DeltaPredictor(cfg, int(s), params[2]) for s in cfg.delta_steps]
        nets = cls(
            cfg=cfg,
            temporal=TemporalEncoder(cfg, params[0]),
            regressor=IefRegressor(cfg, params[1]),
            deltas={d.step: d for d in sorted(deltas, key=lambda d: d.step)},
            hallucinator=Hallucinator(cfg, params[3]) if cfg.use_hal else None,
            discriminators=DiscriminatorSet(cfg, params[4]),
        )
        nets._build_registry()
        return nets

    def _build_registry(self):
        self._registry = {}
        for p in self.all_params():
            if p.name in self._registry:
                raise ValidationError(f"duplicate parameter name {p.name}")
            self._registry[p.name] = p

    def require_dynamics(self):
        """Raise ValidationError unless the delta predictors and the
        hallucinator behind single-frame dynamics (eval, predict) exist."""
        if not self.deltas or self.hallucinator is None:
            raise ValidationError("single-frame dynamics need a checkpoint with delta "
                                  "predictors and a hallucinator")

    def generator_params(self):
        out = self.temporal.params() + self.regressor.params()
        for delta in self.deltas.values():
            out.extend(delta.params())
        if self.hallucinator is not None:
            out.extend(self.hallucinator.params())
        return out

    def discriminator_params(self):
        return self.discriminators.params()

    def frozen_discriminators(self) -> DiscriminatorSet:
        """The critics on constants that share the live weights' arrays: the
        same scores, but a backward through them computes no critic gradient."""
        def param(name, shape, init):
            return ad.constant(self._registry[name].data, name=name)
        return DiscriminatorSet(self.cfg, param)

    def all_params(self):
        return self.generator_params() + self.discriminator_params()

    def named_params(self):
        return dict(self._registry)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, nets: ModelNets, step: int, adam_m=None, adam_v=None,
                    adam_steps=None):
    """Write the step counter, one ``config/<field>`` section per ``EncoderConfig``
    field (in its default's dtype), parameters and optimizer moments."""
    sections = [("step", np.array([int(step)]))]
    for f in fields(EncoderConfig):
        value = np.array(getattr(nets.cfg, f.name), dtype=np.asarray(f.default).dtype)
        sections.append((f"config/{f.name}", value.reshape(-1)))
    named = nets.named_params()
    for name in sorted(named):
        p = named[name]
        sections.append((f"param/{name}", p.data))
        sections.append((f"shape/{name}", np.array(p.data.shape, dtype=np.int64)))
        if adam_m is not None and name in adam_m:
            sections.append((f"adam_m/{name}", adam_m[name]))
            sections.append((f"adam_v/{name}", adam_v[name]))
    if adam_steps is not None:
        sections.append(("adam_steps", np.array([int(adam_steps["gen"]), int(adam_steps["disc"])])))
    write_container(path, CKPT_MAGIC, sections)


_PARAM_SECTIONS = ("param", "shape", "adam_m", "adam_v")   # per-parameter section prefixes
_MOMENTS = ("adam_m", "adam_v")


def _reading(sec, path):
    """Parameter factory for a saved model: each value is a copy of its ``param/``
    section, checked against the declared shape and the saved ``shape/``."""
    def param(name, shape, init):
        saved = tuple(int(x) for x in view(sec, f"shape/{name}", path, (len(shape),)))
        if saved != shape:
            raise ValidationError(f"{path}: parameter {name} has shape {saved}, the configured "
                                  f"architecture needs {shape}")
        return ad.parameter(view(sec, f"param/{name}", path, shape), name=name)
    return param


def load_checkpoint(path):
    """Rebuild nets (and optimizer moments, if present) from a checkpoint.

    Sections are looked up by name, so their order in the file does not
    matter. Returns (nets, step, adam_m, adam_v, adam_steps). Optimizer state
    is all or nothing: ``adam_steps`` and both moments of every parameter, or
    none of them (empty moment dicts and ``adam_steps`` None). Every moment is
    size-checked against its parameter but returned as a read-only view on
    the file's bytes; ``optim.Adam.load_state`` copies what it keeps.
    """
    sec = read_container(path, CKPT_MAGIC)
    cfg = {}
    for f in fields(EncoderConfig):   # each value typed by its field's default
        key = f"config/{f.name}"
        if isinstance(f.default, tuple):
            cfg[f.name] = tuple(type(f.default[0])(x) for x in require(sec, key, path))
        else:
            cfg[f.name] = type(f.default)(require(sec, key, path, ()))
    nets = ModelNets._build(EncoderConfig(**cfg), [_reading(sec, path)] * 5)
    named = nets.named_params()
    has_adam_state = "adam_steps" in sec
    for key in sec:
        prefix, _, name = key.partition("/")
        if prefix in _PARAM_SECTIONS and name not in named:
            raise ValidationError(f"{path}: section '{key}' names no parameter of the configured "
                                  "architecture")
        has_adam_state = has_adam_state or prefix in _MOMENTS
    step = int(require(sec, "step", path, ()))
    adam_m, adam_v, adam_steps = {}, {}, None
    if has_adam_state:
        for key in [f"{kind}/{name}" for name in named for kind in _MOMENTS] + ["adam_steps"]:
            if key not in sec:
                raise ValidationError(f"{path}: partial Adam state, section '{key}' is missing")
        for name, p in named.items():
            adam_m[name] = view(sec, f"adam_m/{name}", path, p.data.shape)
            adam_v[name] = view(sec, f"adam_v/{name}", path, p.data.shape)
        gen, disc = require(sec, "adam_steps", path, (2,))
        adam_steps = {"gen": int(gen), "disc": int(disc)}
    return nets, step, adam_m, adam_v, adam_steps
