"""Sequence datasets: synthetic motion generation, the visibility rule, and
the on-disk container format.

Synthetic sequences are produced by the body model itself: smooth pose
trajectories drive the mesh, keypoints are rendered through the weak
perspective camera, and per-frame features are a fixed orthogonal encoding
of the shape, a window of the motion state, and the camera, plus seeded
noise. Each single-frame feature therefore carries short-range motion cues,
so recovering temporal context from one frame is possible but not trivial.

``SequenceSample.excluded``, the frames below ``MIN_VISIBLE``, is derived
from ``vis`` on every read and never stored, so it cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import body, camera
from .container import ValidationError, read_container, require, write_container

DATA_MAGIC = "HMMRDATA1"
TIERS = ("full3d", "gt2d", "pseudo2d")
MIN_VISIBLE = 6          # frames with fewer visible keypoints carry no signal
MOTION_KINDS = ("mixed", "sinusoid", "ballistic", "constant", "ambiguous")

CAM_LOG_S_BASE = np.log(100.0)  # feature normalization for camera scale
CAM_T_NORM = 100.0              # feature normalization for camera translation


@dataclass
class SequenceSample:
    """One annotated sequence: features, 2-D keypoints, optional 3-D truth."""

    id: str
    fps: float
    tier: str
    kp2d: np.ndarray        # (T, k, 2)
    vis: np.ndarray         # (T, k) bool
    features: np.ndarray    # (T, D)
    theta_gt: np.ndarray | None = None  # (T, 85) [beta | pose | s tx ty]

    @property
    def excluded(self) -> np.ndarray:
        """(T,) bool: the frames with fewer than MIN_VISIBLE visible keypoints."""
        return self.vis.sum(axis=1) < MIN_VISIBLE

    @property
    def n_frames(self) -> int:
        return self.kp2d.shape[0]

    @property
    def n_keypoints(self) -> int:
        return self.kp2d.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def validate(self, source="sample"):
        t, k = self.kp2d.shape[:2]
        if self.fps <= 0:
            raise ValidationError(f"{source}: fps must be positive, got {self.fps}")
        if self.tier not in TIERS:
            raise ValidationError(f"{source}: unknown tier {self.tier!r}, expected one of {TIERS}")
        if self.kp2d.shape != (t, k, 2) or self.vis.shape != (t, k):
            raise ValidationError(f"{source}: keypoint/visibility shapes disagree")
        if self.features.shape[0] != t:
            raise ValidationError(f"{source}: {self.features.shape[0]} feature rows for {t} frames")
        if self.tier == "full3d" and self.theta_gt is None:
            raise ValidationError(f"{source}: tier full3d requires theta_gt on every frame")
        if self.theta_gt is not None and self.theta_gt.shape != (t, body.THETA_DIM):
            raise ValidationError(f"{source}: theta_gt shape {self.theta_gt.shape} != ({t}, 85)")
        return self


@dataclass
class FeatureMeta:
    """How camera state enters the feature encoding; used by jitter."""

    qcam: np.ndarray          # (D, 3) feature-space directions of the camera slots
    log_s_base: float = CAM_LOG_S_BASE
    t_norm: float = CAM_T_NORM


@dataclass
class DatasetBundle:
    sequences: list
    feature_meta: FeatureMeta | None = None

    def __iter__(self):
        return iter(self.sequences)

    def __len__(self):
        return len(self.sequences)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def _dof_count(feature_dim: int) -> int:
    m = min(8, (feature_dim - 13) // 5)
    if m < 1:
        raise ValidationError(f"feature_dim={feature_dim} too small; need at least 18")
    return m


def _motion_fn(kind, rng, m_dofs, n_frames, fps):
    """Analytic per-DOF trajectories q_m(t); t is in frames, real-valued."""
    t_mid = n_frames / 2.0
    if kind == "mixed":
        kinds = ["sinusoid" if m % 2 == 0 else "ballistic" for m in range(m_dofs)]
    else:
        kinds = [kind] * m_dofs
    params = []
    for km in kinds:
        if km == "sinusoid":
            params.append(("s", rng.uniform(0.4, 1.0), rng.uniform(0.25, 1.0), rng.uniform(0, 2 * np.pi)))
        elif km == "ballistic":
            vel = rng.uniform(0.3, 0.9) * rng.choice([-1.0, 1.0])
            params.append(("b", rng.uniform(-0.3, 0.3), vel, 0.0))
        elif km == "constant":
            params.append(("c", rng.uniform(-0.8, 0.8), 0.0, 0.0))
        elif km == "ambiguous":
            # flat window around the midpoint, then a steep ramp whose sign
            # cannot be read off the plateau
            vel = rng.uniform(2.0, 5.0) * rng.choice([-1.0, 1.0])
            params.append(("a", vel, 4.0, 0.0))
        else:
            raise ValidationError(f"unknown motion kind {km!r}")

    def q(ts):
        ts = np.asarray(ts, dtype=np.float64)
        out = np.empty(ts.shape + (m_dofs,))
        for m, (code, p0, p1, p2) in enumerate(params):
            if code == "s":
                out[..., m] = p0 * np.sin(2 * np.pi * p1 * ts / fps + p2)
            elif code == "b":
                out[..., m] = p0 + p1 * (ts - t_mid) / fps
            elif code == "c":
                out[..., m] = p0
            else:  # plateau, then a signed ramp outside the window
                d = np.abs(ts - t_mid)
                out[..., m] = np.where(d <= p1, 0.0, p0 * (d - p1) / fps)
        return out

    return q


def gen_synthetic_dataset(model: body.BodyModel, n_seqs: int, n_frames: int, fps: float,
                          seed: int, motion_kind: str = "mixed", feature_dim: int = 64,
                          tier: str = "full3d", vis_dropout: float = 0.05,
                          feature_noise: float = 0.02, kp_noise: float = 0.0) -> DatasetBundle:
    """Sample a deterministic synthetic dataset from the body model.

    Shape, drawn from N(0, 0.3^2) per coefficient, stays constant per
    sequence, pose follows smooth trajectories, and a smooth camera path
    projects the regressed keypoints. Features are Q @ [beta | q(t-2..t+2) |
    camera] (Q orthogonal, fixed per dataset) plus seeded Gaussian noise.
    """
    if n_frames < 3:
        raise ValidationError(f"n_frames={n_frames} too short, need at least 3")
    if motion_kind not in MOTION_KINDS:
        raise ValidationError(f"motion_kind {motion_kind!r} not one of {MOTION_KINDS}")
    if tier not in TIERS:
        raise ValidationError(f"tier {tier!r} not one of {TIERS}")
    m_dofs = _dof_count(feature_dim)
    k = model.n_keypoints

    ds_rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(199,)))
    q_mat, _ = np.linalg.qr(ds_rng.standard_normal((feature_dim, feature_dim)))
    q_mat = q_mat * np.sign(np.diag(q_mat))
    z_dim = 13 + 5 * m_dofs
    cam_cols = slice(10 + 5 * m_dofs, 13 + 5 * m_dofs)
    meta = FeatureMeta(qcam=q_mat[:, cam_cols].copy())
    # one pose basis and rest offset per dataset: the features encode the
    # motion state q, so the q -> pose map must be shared or the task would
    # not be learnable across sequences
    theta_base = ds_rng.normal(0.0, 0.12, body.POSE_DIM)
    basis = ds_rng.normal(0.0, 0.18, (body.POSE_DIM, m_dofs))
    basis[:3] *= 0.5  # keep the global rotation gentle

    sequences = []
    for s_idx in range(n_seqs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(200, s_idx)))
        beta = rng.normal(0.0, 0.3, body.SHAPE_DIM)
        q_fn = _motion_fn(motion_kind, rng, m_dofs, n_frames, fps)

        ts = np.arange(n_frames, dtype=np.float64)
        q_now = q_fn(ts)                                   # (T, M)
        thetas = theta_base[None, :] + q_now @ basis.T     # (T, 72)

        s0 = rng.uniform(90.0, 110.0)
        s_phase = rng.uniform(0, 2 * np.pi)
        scale = s0 * np.exp(0.04 * np.sin(2 * np.pi * 0.15 * ts / fps + s_phase))
        t0 = rng.uniform(-10.0, 10.0, 2)
        t_amp = rng.uniform(0.0, 5.0, 2)
        t_phase = rng.uniform(0, 2 * np.pi, 2)
        trans = t0[None, :] + t_amp[None, :] * np.sin(
            2 * np.pi * 0.1 * ts[:, None] / fps + t_phase[None, :])

        betas = np.tile(beta, (n_frames, 1))
        joints = body.keypoints_3d(model, ad.constant(betas), ad.constant(thetas)).data
        kp2d = camera.project(joints, scale[:, None], trans).data
        if kp_noise > 0:
            kp2d = kp2d + rng.normal(0.0, kp_noise, kp2d.shape)
        vis = rng.random((n_frames, k)) >= vis_dropout

        z = np.zeros((n_frames, z_dim))
        z[:, :10] = beta
        for o, off in enumerate((-2.0, -1.0, 0.0, 1.0, 2.0)):
            z[:, 10 + o * m_dofs:10 + (o + 1) * m_dofs] = q_fn(ts + off)
        z[:, cam_cols] = np.column_stack([
            np.log(scale) - CAM_LOG_S_BASE, trans[:, 0] / CAM_T_NORM, trans[:, 1] / CAM_T_NORM])
        z_pad = np.zeros((n_frames, feature_dim))
        z_pad[:, :z_dim] = z
        features = z_pad @ q_mat.T + feature_noise * rng.standard_normal((n_frames, feature_dim))

        theta_gt = np.concatenate(
            [betas, thetas, np.column_stack([scale, trans])], axis=1)
        sample = SequenceSample(
            id=f"{motion_kind}-{seed}-{s_idx:04d}", fps=float(fps), tier=tier,
            kp2d=kp2d, vis=vis, features=features, theta_gt=theta_gt)
        sequences.append(sample.validate("gen_synthetic_dataset"))
    return DatasetBundle(sequences=sequences, feature_meta=meta)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_dataset(bundle: DatasetBundle, path):
    seqs = bundle.sequences
    if not seqs:
        raise ValidationError("refusing to write an empty dataset")
    k = seqs[0].n_keypoints
    d = seqs[0].feature_dim
    for s in seqs:
        s.validate(s.id)
        if s.n_keypoints != k or s.feature_dim != d:
            raise ValidationError(f"{s.id}: keypoint/feature dims differ across sequences")
    sections = [
        ("n_sequences", np.array([len(seqs)])),
        ("k_keypoints", np.array([k])),
        ("feature_dim", np.array([d])),
    ]
    if bundle.feature_meta is not None:
        sections.append(("feature_meta/qcam", bundle.feature_meta.qcam))
        sections.append(("feature_meta/scalars",
                         np.array([bundle.feature_meta.log_s_base, bundle.feature_meta.t_norm])))
    for i, s in enumerate(seqs):
        pre = f"seq{i}"
        sections.extend([
            (f"{pre}/id", s.id),
            (f"{pre}/fps", np.array([s.fps])),
            (f"{pre}/tier", np.array([TIERS.index(s.tier)])),
            (f"{pre}/n_frames", np.array([s.n_frames])),
            (f"{pre}/kp2d", s.kp2d),
            (f"{pre}/vis", s.vis.astype(np.int64)),
            (f"{pre}/features", s.features),
            (f"{pre}/has_theta", np.array([int(s.theta_gt is not None)])),
        ])
        if s.theta_gt is not None:
            sections.append((f"{pre}/theta_gt", s.theta_gt))
    write_container(path, DATA_MAGIC, sections)


def load_dataset(path) -> DatasetBundle:
    sec = read_container(path, DATA_MAGIC)
    n = int(require(sec, "n_sequences", path, ()))
    k = int(require(sec, "k_keypoints", path, ()))
    d = int(require(sec, "feature_dim", path, ()))
    meta = None
    if "feature_meta/qcam" in sec:
        log_s_base, t_norm = require(sec, "feature_meta/scalars", path, (2,))
        meta = FeatureMeta(qcam=require(sec, "feature_meta/qcam", path, (d, 3)),
                           log_s_base=float(log_s_base), t_norm=float(t_norm))
    seqs = []
    for i in range(n):
        pre = f"seq{i}"
        t = int(require(sec, f"{pre}/n_frames", path, ()))
        tier_idx = int(require(sec, f"{pre}/tier", path, ()))
        if not 0 <= tier_idx < len(TIERS):
            raise ValidationError(f"{path}: {pre} has unknown tier code {tier_idx}")
        theta = None
        if int(require(sec, f"{pre}/has_theta", path, ())):
            theta = require(sec, f"{pre}/theta_gt", path, (t, body.THETA_DIM))
        sample = SequenceSample(
            id=str(require(sec, f"{pre}/id", path)),
            fps=float(require(sec, f"{pre}/fps", path, ())),
            tier=TIERS[tier_idx],
            kp2d=require(sec, f"{pre}/kp2d", path, (t, k, 2)),
            vis=require(sec, f"{pre}/vis", path, (t, k)).astype(bool),
            features=require(sec, f"{pre}/features", path, (t, d)),
            theta_gt=theta,
        )
        seqs.append(sample.validate(f"{path}:{pre}"))
    return DatasetBundle(sequences=seqs, feature_meta=meta)
