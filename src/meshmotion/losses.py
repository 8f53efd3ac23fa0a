"""Training objectives: reprojection, parameter supervision, adversarial and
shape priors, and sequence-constancy.

Conventions:
  * the 85-D prediction vector is laid out [shape(10) | pose(72) | camera(3)]
    with the camera slot holding (scale, tx, ty) after ``raw_to_full``,
  * the per-frame terms take (R,...) row stacks and return one value per
    row; weighting, masking and summing the rows into the objective happen
    in the trainer,
  * 2-D reprojection error is averaged over visible keypoints so its scale
    does not depend on the visibility pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .nets import CAM_SLICE, SHAPE_DIM, THETA_DIM


@dataclass
class LossWeights:
    """Relative term weights. Declared configuration defaults, freely tunable."""

    w_2d: float = 60.0
    w_3d: float = 60.0
    w_adv: float = 1.0
    w_beta: float = 1e-3
    w_const: float = 1.0
    w_hal: float = 1.0
    w_delta: float = 1.0  # master switch for the shifted-frame losses

    def validate(self):
        for name, val in self.__dict__.items():
            if val < 0:
                raise ValueError(f"loss weight {name} must be nonnegative, got {val}")
        return self


def raw_to_full(raw):
    """Map raw regressor rows (R,85) to prediction rows (R,85): the camera
    scale slot is exp'd so scale > 0. Rows only: an (85,) vector is a
    ShapeError."""
    r = ad.as_tensor(raw)
    if r.ndim != 2 or r.shape[1] != THETA_DIM:
        raise ad.ShapeError(f"raw_to_full expects (R,{THETA_DIM}) rows, got {tuple(r.shape)}")
    return ad.concat([r[:, 0:CAM_SLICE.start],
                      ad.exp(r[:, CAM_SLICE.start:CAM_SLICE.start + 1]),
                      r[:, CAM_SLICE.start + 1:]], axis=1)


# ---------------------------------------------------------------------------
# per-frame terms, one value per row
# ---------------------------------------------------------------------------


def loss_2d_rows(pred_x, gt_points, vis):
    """Per-row mean squared reprojection error on visible keypoints.

    pred_x: (R,k,2) tensor; gt_points: (R,k,2) array; vis: (R,k) bools.
    Rows with no visible keypoints yield 0 (their weight is up to the caller).
    Returns an (R,) tensor.
    """
    pred = ad.as_tensor(pred_x)
    r, k, _ = pred.shape
    v = np.asarray(vis, dtype=bool)
    mask = v[:, :, None].astype(np.float64)                         # (R,k,1)
    gt = np.where(mask > 0, np.asarray(gt_points, dtype=np.float64), 0.0)
    diff = pred * mask - gt * mask
    sq = ad.sum_(ad.reshape(diff * diff, (r, k * 2)), axis=1)
    denom = ad.constant(np.maximum(v.sum(axis=1), 1).astype(np.float64))
    return ad.div(sq, denom)


# 3-D supervision covers shape and pose; the camera slot is left to the 2-D loss
_SUPERVISED = (np.arange(THETA_DIM) < CAM_SLICE.start).astype(np.float64)


def loss_3d_rows(pred_full, gt_full):
    """Per-row mean squared error over the shape and pose components.

    Pose is compared directly in axis-angle. Returns an (R,) tensor.
    """
    pred = ad.as_tensor(pred_full)
    gt = np.asarray(gt_full, dtype=np.float64)
    diff = (pred - gt) * _SUPERVISED
    return ad.sum_(diff * diff, axis=1) * (1.0 / CAM_SLICE.start)


def beta_prior(beta):
    """Per-row squared norm of the shape coefficients (unit-Gaussian prior):
    (R,10) -> (R,)."""
    b = ad.as_tensor(beta)
    if b.ndim != 2 or b.shape[1] != SHAPE_DIM:
        raise ad.ShapeError(f"beta_prior expects (R,{SHAPE_DIM}) rows, got {tuple(b.shape)}")
    return ad.sum_(b * b, axis=1)


def adv_prior_generator_loss(disc_set, theta_pose, beta):
    """Sum over critics of batch-mean (score - 1)^2 on predicted rows.

    Poses are pose rows or their rotation block, as ``disc_set`` takes them.
    """
    scores = disc_set(ad.as_tensor(theta_pose), ad.as_tensor(beta))
    miss = scores - 1.0
    per_disc = ad.mean_(miss * miss, axis=0)
    return ad.sum_(per_disc)


def adv_prior_discriminator_loss(disc_set, real_pose, real_beta, fake_pose, fake_beta):
    """Least-squares critic objective: real scores to 1, fake scores to 0."""
    real_scores = disc_set(ad.as_tensor(real_pose), ad.as_tensor(real_beta))
    fake_scores = disc_set(ad.as_tensor(fake_pose), ad.as_tensor(fake_beta))
    real_miss = real_scores - 1.0
    real_term = ad.mean_(real_miss * real_miss, axis=0)
    fake_term = ad.mean_(fake_scores * fake_scores, axis=0)
    return ad.sum_(real_term + fake_term)


def const_shape_loss(betas):
    """Sum over consecutive frames of the unsquared shape-difference norm.

    ``betas`` is (T,10) or a batch (...,T,10) of sequences; one scalar tensor
    sums the pairs of every sequence, and no pair crosses from one sequence
    into the next. Fewer than two frames sum to 0; the derivative of the norm
    at zero difference is 0.
    """
    b = ad.as_tensor(betas)
    if b.ndim < 2 or b.shape[-1] != SHAPE_DIM:
        raise ad.ShapeError(f"const_shape_loss expects (...,T,{SHAPE_DIM}), got {tuple(b.shape)}")
    t = b.shape[-2]
    seqs = ad.reshape(b, (-1, t, SHAPE_DIM))
    diffs = seqs[:, 1:, :] - seqs[:, 0:t - 1, :]
    return ad.sum_(ad.l2_norm_rows(ad.reshape(diffs, (-1, SHAPE_DIM))))
