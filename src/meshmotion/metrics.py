"""Evaluation metrics and the dataset-level evaluation protocol.

3-D errors are reported in millimeters (model space is meters), acceleration
error in mm/s^2, and 2-D accuracy as the fraction of visible keypoints
within alpha times the ground-truth bounding-box size. Frames flagged by the
visibility filter are skipped everywhere except the acceleration metric,
which needs unbroken triples and uses the full predicted trajectory.

Sequence aggregation pools frames across sequences using compensated
summation, so results do not depend on evaluation order.

Alignments are array-shaped: ``pa_mpjpe`` aligns every frame of a sequence
with one stacked similarity solve. The dynamics protocol's nearest-neighbour
baseline holds the training pool as one (P,3,k,3) array of past/current/
future ground-truth joints and, per test centre, scores all P entries in one
batched alignment and takes the first minimum: centres x P frame alignments
in as many calls as there are centres, with memory O(P*k).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import body, camera
from .autodiff import NumericalError
from .training import forward

MM = 1000.0


# ---------------------------------------------------------------------------
# Core metric primitives
# ---------------------------------------------------------------------------


def mpjpe(pred_joints, gt_joints, root_index: int = 0) -> float:
    """Mean per-joint position error in mm after per-frame root centering."""
    p = np.asarray(pred_joints, dtype=np.float64)
    g = np.asarray(gt_joints, dtype=np.float64)
    if p.shape != g.shape or p.ndim != 3:
        raise ValueError(f"mpjpe expects matching (T,k,3), got {p.shape} vs {g.shape}")
    pc = p - p[:, root_index:root_index + 1]
    gc = g - g[:, root_index:root_index + 1]
    return float(np.linalg.norm(pc - gc, axis=2).mean() * MM)


@dataclass
class ProcrustesResult:
    """One alignment per item of the input stack; a single (k,3) input gives
    plain float/bool scalars."""

    aligned: np.ndarray     # (...,k,3) transformed prediction
    rotation: np.ndarray    # (...,3,3), det +1
    scale: float | np.ndarray         # (...)
    translation: np.ndarray           # (...,3)
    residual: float | np.ndarray      # (...) sum of squared distances after alignment
    degenerate: bool | np.ndarray     # (...) rank-deficient covariance: rotation not unique


def procrustes_align(pred, gt) -> ProcrustesResult:
    """Best similarity transform (scale, rotation, translation) of pred onto gt.

    Accepts matching (k,3) point sets or (...,k,3) stacks of them, aligned
    item by item. Closed form via the covariance SVD (one stacked SVD for
    the whole stack) with a per-item reflection guard keeping det(R) = +1.
    Degenerate (rank < 2) point sets are flagged: the returned rotation is
    then one of several equally good choices.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape or p.ndim < 2 or p.shape[-1] != 3 or p.shape[-2] < 3:
        raise ValueError(f"procrustes_align expects matching (...,k>=3,3), got {p.shape} vs {g.shape}")
    k = p.shape[-2]
    mu_p = p.mean(axis=-2, keepdims=True)
    mu_g = g.mean(axis=-2, keepdims=True)
    pc = p - mu_p
    gc = g - mu_g
    var_p = (pc ** 2).reshape(p.shape[:-2] + (3 * k,)).sum(axis=-1) / k
    if np.any(var_p <= 0.0):
        raise ValueError("procrustes_align: prediction points are all identical")
    cov = np.swapaxes(gc, -1, -2) @ pc / k
    u, s_vals, vt = np.linalg.svd(cov)
    sign_fix = np.ones_like(s_vals)
    sign_fix[..., 2] = np.where(np.linalg.det(u) * np.linalg.det(vt) < 0, -1.0, 1.0)
    rot = (u * sign_fix[..., None, :]) @ vt
    scale = (s_vals * sign_fix).sum(axis=-1) / var_p
    trans = mu_g[..., 0, :] - ((scale[..., None, None] * rot) @ np.swapaxes(mu_p, -1, -2))[..., 0]
    aligned = (scale[..., None, None] * p) @ np.swapaxes(rot, -1, -2) + trans[..., None, :]
    residual = ((aligned - g) ** 2).reshape(var_p.shape + (3 * k,)).sum(axis=-1)
    degenerate = s_vals[..., 1] <= 1e-12 * np.maximum(s_vals[..., 0], 1e-300)
    if p.ndim == 2:
        return ProcrustesResult(aligned=aligned, rotation=rot, scale=float(scale),
                                translation=trans, residual=float(residual),
                                degenerate=bool(degenerate))
    return ProcrustesResult(aligned=aligned, rotation=rot, scale=scale,
                            translation=trans, residual=residual, degenerate=degenerate)


def pa_mpjpe(pred_joints, gt_joints, root_index: int = 0, per_frame: bool = False):
    """MPJPE in mm after per-frame similarity alignment.

    The closed-form solve minimizes the squared error; the reported metric is
    the mean distance, for which the root-matching translation can (rarely,
    on badly wrong predictions) score better. Each frame keeps the better of
    the two candidate alignments under the reported metric, which guarantees
    pa_mpjpe <= mpjpe while coinciding with the standard alignment whenever
    predictions are sane.

    All frames of the (T,k,3) inputs are aligned in one stacked call. With
    ``per_frame`` the (T,) per-frame errors in mm are returned instead of
    their mean.
    """
    p = np.asarray(pred_joints, dtype=np.float64)
    g = np.asarray(gt_joints, dtype=np.float64)
    if p.ndim != 3:
        raise ValueError(f"pa_mpjpe expects matching (T,k,3), got {p.shape} vs {g.shape}")
    aligned = procrustes_align(p, g).aligned
    err_pa = np.linalg.norm(aligned - g, axis=-1).mean(axis=-1)
    rooted = p - p[:, root_index:root_index + 1] + g[:, root_index:root_index + 1]
    err_root = np.linalg.norm(rooted - g, axis=-1).mean(axis=-1)
    errs = np.minimum(err_pa, err_root)
    if per_frame:
        return errs * MM
    return float(np.mean(errs) * MM)


def pck(pred_2d, gt_2d, vis, alpha: float = 0.05, frame_mask=None):
    """Fraction of visible keypoints within alpha * max(bbox side) of truth.

    The bounding box is taken from the visible ground-truth keypoints of each
    frame. Returns (fraction, n_correct, n_total); frames with a degenerate
    box or fewer than two visible points contribute nothing.
    """
    p = np.asarray(pred_2d, dtype=np.float64)
    g = np.asarray(gt_2d, dtype=np.float64)
    v = np.asarray(vis, dtype=bool)
    n_correct = 0
    n_total = 0
    for t in range(p.shape[0]):
        if frame_mask is not None and not frame_mask[t]:
            continue
        vt = v[t]
        if vt.sum() < 2:
            continue
        box = g[t][vt]
        size = max(np.ptp(box[:, 0]), np.ptp(box[:, 1]))
        if size <= 0:
            continue
        dist = np.linalg.norm(p[t][vt] - g[t][vt], axis=1)
        n_correct += int((dist <= alpha * size).sum())
        n_total += int(vt.sum())
    frac = float(n_correct / n_total) if n_total else 0.0
    return frac, n_correct, n_total


def accel_error(pred_joints, gt_joints, fps: float) -> float:
    """Mean acceleration discrepancy in mm/s^2 via second finite differences.

    With ground truth: mean over interior frames and joints of the norm of
    the acceleration difference. Without: mean norm of the predicted
    acceleration alone.
    """
    p = np.asarray(pred_joints, dtype=np.float64)
    if p.shape[0] < 3:
        raise ValueError(f"acceleration undefined for T={p.shape[0]} < 3 frames")
    acc_p = (p[2:] - 2 * p[1:-1] + p[:-2]) * fps * fps
    if gt_joints is None:
        return float(np.linalg.norm(acc_p, axis=2).mean() * MM)
    g = np.asarray(gt_joints, dtype=np.float64)
    acc_g = (g[2:] - 2 * g[1:-1] + g[:-2]) * fps * fps
    return float(np.linalg.norm(acc_p - acc_g, axis=2).mean() * MM)


def mesh_errors(pred_full, gt_full, model: body.BodyModel, frame_mask=None):
    """(posed_mm, unposed_mm) mean vertex errors over a sequence.

    Posed meshes are compared after per-frame root (pelvis joint) centering.
    Unposed meshes are the zero-pose (shaped template) meshes, compared
    directly, so the number reflects pure shape error.
    """
    p = np.asarray(pred_full, dtype=np.float64)
    g = np.asarray(gt_full, dtype=np.float64)
    t_len = p.shape[0]
    mask = np.ones(t_len, dtype=bool) if frame_mask is None else np.asarray(frame_mask, dtype=bool)
    if not mask.any():
        return float("nan"), float("nan")

    # one skinning pass and one kinematic pass over [pred; gt], sharing one
    # rotation block; the unposed meshes are the shaped templates, which
    # skinning at zero pose reproduces
    betas = ad.constant(np.concatenate([p[:, :10], g[:, :10]]))
    rots = body.pose_rotations(ad.constant(np.concatenate([p[:, 10:82], g[:, 10:82]])))
    vp, vg = np.split(body.skin(model, betas, rots).data, 2)
    up, ug = np.split(body.shaped_template(model, betas).data, 2)
    _, joints = body.forward_kinematics(model, betas, rots)
    rp, rg = np.split(joints.data[:, 0:1, :], 2)
    posed = np.linalg.norm((vp - rp) - (vg - rg), axis=2)[mask].mean() * MM
    unposed = np.linalg.norm(up - ug, axis=2)[mask].mean() * MM
    return float(posed), float(unposed)


# ---------------------------------------------------------------------------
# Model-level evaluation
# ---------------------------------------------------------------------------


def predict_sequence(model: body.BodyModel, nets_model, features, mode: str = "temporal",
                     deltas: bool = False):
    """The dropout-free forward pass of the network stack, over (T,D) features.

    mode 'temporal' runs the context encoder over the rows as one sequence.
    'single-frame' runs the hallucinator on each row; a checkpoint without a
    hallucinator feeds the raw features to the regressor instead, which was
    never trained on them. The rest is ``training.forward``. Returns dict
    with full (T,85), joints_current (T,k,3) and pred2d (T,k,2). With
    ``deltas`` the delta predictors run on the same rows, adding the past
    (smallest step) and future (largest step) pose_past/pose_future (T,72)
    and joints_past/joints_future (T,k,3), posed with the current frame's
    shape.
    """
    feats = ad.constant(features)
    if mode == "temporal":
        phi = nets_model.temporal(feats)
    elif mode == "single-frame":
        phi = nets_model.hallucinator(feats) if nets_model.hallucinator is not None else feats
    else:
        raise ValueError(f"unknown prediction mode {mode!r}")
    t_len = phi.shape[0]
    fwd = forward(model, nets_model, [phi], np.arange(t_len) if deltas else ())
    joints, poses = fwd["joints"].data, fwd["pose"].data
    out = {"full": fwd["full"][0].data, "joints_current": joints[:t_len],
           "pred2d": fwd["pred2d"].data}
    if deltas:
        # delta rows follow the current rows in sorted step order
        for tag, i in (("past", 1), ("future", len(nets_model.deltas))):
            rows = slice(i * t_len, (i + 1) * t_len)
            out[f"pose_{tag}"] = poses[rows]
            out[f"joints_{tag}"] = joints[rows]
    return out


def _keypoints_of(model, theta_gt):
    return body.keypoints_3d(model, ad.constant(theta_gt[:, :10]),
                             ad.constant(theta_gt[:, 10:82])).data


def gt_joints_of(model, sample):
    if sample.theta_gt is None:
        return None
    return _keypoints_of(model, sample.theta_gt)


@dataclass
class SequenceMetrics:
    seq_id: str
    n_frames_used: int
    pck: float
    mpjpe_mm: float | None
    pa_mpjpe_mm: float | None
    accel_err_mm_s2: float | None
    mesh_posed_mm: float | None
    mesh_unposed_mm: float | None


@dataclass
class DynamicsMetrics:
    """Past/current/future PA-MPJPE (mm) for the single-image dynamics task."""

    n_centers: int
    ours: tuple        # (past, current, future)
    constant: tuple
    nearest: tuple | None


@dataclass
class MetricReport:
    per_sequence: list
    aggregate: dict
    dynamics: DynamicsMetrics | None = None

    def write_csv(self, path):
        cols = [f.name for f in fields(SequenceMetrics)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in self.per_sequence:
                w.writerow(_fmt_row([getattr(row, c) for c in cols]))
            agg = ["ALL", self.aggregate["n_frames_used"], self.aggregate["pck"],
                   self.aggregate["mpjpe_mm"], self.aggregate["pa_mpjpe_mm"],
                   self.aggregate["accel_err_mm_s2"], self.aggregate["mesh_posed_mm"],
                   self.aggregate["mesh_unposed_mm"]]
            w.writerow(_fmt_row(agg))

    def write_dynamics_csv(self, path):
        if self.dynamics is None:
            raise ValueError("report carries no dynamics evaluation")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "past_pa_mpjpe_mm", "current_pa_mpjpe_mm", "future_pa_mpjpe_mm"])
            d = self.dynamics
            w.writerow(_fmt_row(["ours", *d.ours]))
            w.writerow(_fmt_row(["constant", *d.constant]))
            if d.nearest is not None:
                w.writerow(_fmt_row(["nearest_neighbor", *d.nearest]))

    def to_text(self):
        lines = ["sequence metrics (aggregate):"]
        for key, val in self.aggregate.items():
            lines.append(f"  {key} = {val:.6f}" if isinstance(val, float) else f"  {key} = {val}")
        if self.dynamics is not None:
            d = self.dynamics
            lines.append(f"dynamics over {d.n_centers} centers (past/current/future PA-MPJPE mm):")
            lines.append("  ours     = %.6f / %.6f / %.6f" % d.ours)
            lines.append("  constant = %.6f / %.6f / %.6f" % d.constant)
            if d.nearest is not None:
                lines.append("  nearest  = %.6f / %.6f / %.6f" % d.nearest)
        return "\n".join(lines)


def _fmt_row(vals):
    out = []
    for v in vals:
        if v is None:
            out.append("")
        elif isinstance(v, float):
            out.append(f"{v:.6f}")
        else:
            out.append(v)
    return out


class _Pool:
    """Compensated accumulation of (value, count) pairs."""

    def __init__(self):
        self.values = []
        self.counts = []

    def add(self, value, count):
        if value is not None and count > 0 and not math.isnan(value):
            self.values.append(value * count)
            self.counts.append(count)

    def mean(self):
        if not self.counts:
            return None
        return math.fsum(self.values) / math.fsum(self.counts)


def evaluate(model: body.BodyModel, nets_model, dataset, mode: str = "temporal",
             alpha: float = 0.05, train_dataset=None, gt_as_prediction: bool = False,
             dynamics: bool = False) -> MetricReport:
    """Full metric sweep over a dataset.

    ``gt_as_prediction`` short-circuits the networks and scores the ground
    truth against itself (pipeline self-check). ``dynamics`` adds the
    past/current/future protocol with the constant baseline and, when a
    training set is supplied, the nearest-neighbor baseline; in single-frame
    mode it reuses this sweep's predictions, made with the delta predictors.
    """
    per_seq = []
    gt_by_seq = []
    preds = []
    hand_over = dynamics and mode == "single-frame" and not gt_as_prediction
    pools = {k: _Pool() for k in ("pck", "mpjpe_mm", "pa_mpjpe_mm", "accel_err_mm_s2",
                                  "mesh_posed_mm", "mesh_unposed_mm")}
    n_frames_total = 0
    for sample in dataset:
        excluded = sample.excluded if sample.excluded is not None else np.zeros(sample.n_frames, bool)
        mask = ~excluded
        gt_joints = gt_joints_of(model, sample)
        gt_by_seq.append(gt_joints)
        if gt_as_prediction:
            if sample.theta_gt is None:
                raise ValueError(f"{sample.id}: gt_as_prediction needs theta_gt")
            full, joints = sample.theta_gt.copy(), gt_joints
            pred2d = camera.project(joints, full[:, 82:83], full[:, 83:85]).data
        else:
            pred = predict_sequence(model, nets_model, sample.features, mode=mode, deltas=hand_over)
            preds.append(pred)
            full, joints, pred2d = pred["full"], pred["joints_current"], pred["pred2d"]

        pck_frac, _, pck_total = pck(pred2d, sample.kp2d, sample.vis, alpha, frame_mask=mask)
        row = SequenceMetrics(seq_id=sample.id, n_frames_used=int(mask.sum()), pck=pck_frac,
                              mpjpe_mm=None, pa_mpjpe_mm=None, accel_err_mm_s2=None,
                              mesh_posed_mm=None, mesh_unposed_mm=None)
        if gt_joints is not None and mask.any():
            row.mpjpe_mm = mpjpe(joints[mask], gt_joints[mask])
            row.pa_mpjpe_mm = pa_mpjpe(joints[mask], gt_joints[mask])
            if row.pa_mpjpe_mm > row.mpjpe_mm + 1e-9:
                raise NumericalError(
                    f"{sample.id}: PA-MPJPE {row.pa_mpjpe_mm} exceeds MPJPE {row.mpjpe_mm}")
            if sample.n_frames >= 3:
                row.accel_err_mm_s2 = accel_error(joints, gt_joints, sample.fps)
            row.mesh_posed_mm, row.mesh_unposed_mm = mesh_errors(
                full, sample.theta_gt, model, frame_mask=mask)
        per_seq.append(row)
        n_frames = int(mask.sum())
        n_frames_total += n_frames
        pools["pck"].add(pck_frac, pck_total)
        pools["mpjpe_mm"].add(row.mpjpe_mm, n_frames)
        pools["pa_mpjpe_mm"].add(row.pa_mpjpe_mm, n_frames)
        pools["accel_err_mm_s2"].add(row.accel_err_mm_s2, max(sample.n_frames - 2, 0))
        pools["mesh_posed_mm"].add(row.mesh_posed_mm, n_frames)
        pools["mesh_unposed_mm"].add(row.mesh_unposed_mm, n_frames)

    aggregate = {"n_frames_used": n_frames_total}
    for key, pool in pools.items():
        aggregate[key] = pool.mean()
    dyn = None
    if dynamics:
        dyn = evaluate_dynamics(model, nets_model, dataset, train_dataset=train_dataset,
                                gt_joints=gt_by_seq, predictions=preds if hand_over else None)
    return MetricReport(per_sequence=per_seq, aggregate=aggregate, dynamics=dyn)


def _dynamics_centers(sample, step_mag, half_field):
    lo = max(half_field, step_mag)
    hi = sample.n_frames - 1 - max(half_field, step_mag)
    excluded = sample.excluded if sample.excluded is not None else np.zeros(sample.n_frames, bool)
    out = []
    for t in range(lo, hi + 1):
        if not (excluded[t] or excluded[t - step_mag] or excluded[t + step_mag]):
            out.append(t)
    return out


def _gt_triplets(g_joints, centers, back, fwd):
    """(n_centers, 3, k, 3) ground-truth joints at past/current/future."""
    c = np.asarray(centers)
    return np.stack([g_joints[c + back], g_joints[c], g_joints[c + fwd]], axis=1)


def evaluate_dynamics(model: body.BodyModel, nets_model, dataset, train_dataset=None,
                      gt_joints=None, predictions=None):
    """Past/current/future PA-MPJPE from single-frame input.

    'ours': ``predict_sequence`` in single-frame mode with the delta
    predictors for the shifted frames (shape reused from the current frame),
    taken at the centre frames.
    'constant': the current prediction reused for past and future. 'nearest':
    the training pose whose joints best align with the current ground truth,
    carried over with its own past/future (needs ``train_dataset``).

    ``gt_joints`` and ``predictions``, when given, hold each sequence's
    ``gt_joints_of`` and single-frame ``predict_sequence(..., deltas=True)``
    output, as ``evaluate`` has already computed them.
    """
    steps = sorted(nets_model.deltas)
    if not steps or nets_model.hallucinator is None:
        raise ValueError("dynamics evaluation needs delta predictors and a hallucinator")
    back = min(steps)
    fwd = max(steps)
    step_mag = max(abs(back), abs(fwd))
    hf = nets_model.cfg.half_field

    pool = None     # (P, 3, k, 3) past/current/future ground truth of every training centre
    train_gt = [s for s in train_dataset or () if s.theta_gt is not None]
    if train_gt:
        # every training frame's ground-truth joints in one body-model call
        joints = _keypoints_of(model, np.concatenate([s.theta_gt for s in train_gt]))
        splits = np.cumsum([s.n_frames for s in train_gt])[:-1]
        trips = []
        for s, g_joints in zip(train_gt, np.split(joints, splits)):
            centers = _dynamics_centers(s, step_mag, hf)
            if centers:
                trips.append(_gt_triplets(g_joints, centers, back, fwd))
        if trips:
            pool = np.concatenate(trips)

    sums = {"ours": np.zeros(3), "constant": np.zeros(3), "nearest": np.zeros(3)}
    n_centers = 0
    for i, sample in enumerate(dataset):
        if sample.theta_gt is None:
            continue
        centers = _dynamics_centers(sample, step_mag, hf)
        if not centers:
            continue
        g_joints = gt_joints_of(model, sample) if gt_joints is None else gt_joints[i]
        gt = _gt_triplets(g_joints, centers, back, fwd)
        out = (predict_sequence(model, nets_model, sample.features, "single-frame", deltas=True)
               if predictions is None else predictions[i])
        j_cur = out["joints_current"][centers]
        preds = {"ours": np.stack([out["joints_past"][centers], j_cur,
                                   out["joints_future"][centers]], axis=1),
                 "constant": np.stack([j_cur, j_cur, j_cur], axis=1)}
        if pool is not None:
            # the whole pool against each centre in one batched alignment;
            # argmin keeps the first of equal scores
            pool_cur = pool[:, 1]
            best = [int(np.argmin(pa_mpjpe(pool_cur, np.broadcast_to(g_cur, pool_cur.shape),
                                           per_frame=True)))
                    for g_cur in gt[:, 1]]
            preds["nearest"] = pool[best]
        k = gt.shape[2]
        for name, pred in preds.items():
            errs = pa_mpjpe(pred.reshape(-1, k, 3), gt.reshape(-1, k, 3), per_frame=True)
            # added centre by centre, in the same order whatever the batching
            for row in errs.reshape(-1, 3):
                sums[name] += row
        n_centers += len(centers)
    if n_centers == 0:
        raise ValueError("no valid dynamics centers in the dataset")
    ours = tuple(sums["ours"] / n_centers)
    const = tuple(sums["constant"] / n_centers)
    nearest = tuple(sums["nearest"] / n_centers) if pool is not None else None
    return DynamicsMetrics(n_centers=n_centers, ours=ours, constant=const, nearest=nearest)
