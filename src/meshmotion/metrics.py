"""Evaluation metrics and the dataset-level evaluation protocol.

3-D errors are reported in millimeters (model space is meters), acceleration
error in mm/s^2, and 2-D accuracy as the fraction of visible keypoints
within alpha times the ground-truth bounding-box size. Frames flagged by the
visibility filter are skipped everywhere except the acceleration metric,
which needs unbroken triples and uses the full predicted trajectory.

Sequence aggregation pools frames across sequences using compensated
summation, so results do not depend on evaluation order.

Evaluation is batched across sequences: ``evaluate`` stacks every
sequence's frames into one block of rows and makes one prediction pass,
one ground-truth body-model call, one mesh skinning pass and one PCK pass
over it. In temporal mode the context encoder runs once per distinct
sequence length, on a (B, T, D) block of the sequences of that length, as
the convolutions must not reach across sequences; single-frame mode needs
no grouping. Each sequence's row of ``metrics.csv`` is then cut from the
batched arrays with that sequence's frame mask, so cost grows with the
number of frames, not of sequences.

Alignments are array-shaped: ``pa_mpjpe`` aligns every frame of a sequence
with one stacked similarity solve. The dynamics protocol scores every test
centre of every method in one stacked alignment. Its nearest-neighbour
baseline holds the training pool as one (P,3,k,3) array of past/current/
future ground-truth joints and, per test centre, scores all P entries in
one batched alignment and takes the first minimum: centres x P frame
alignments in as many calls as there are centres, with memory O(P*k).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import body, camera
from .autodiff import NumericalError
from .container import replacing_open
from .training import forward

MM = 1000.0


# ---------------------------------------------------------------------------
# Core metric primitives
# ---------------------------------------------------------------------------


def mpjpe(pred_joints, gt_joints) -> float:
    """Mean per-joint position error in mm after per-frame root (joint 0) centering."""
    p = np.asarray(pred_joints, dtype=np.float64)
    g = np.asarray(gt_joints, dtype=np.float64)
    if p.shape != g.shape or p.ndim != 3:
        raise ValueError(f"mpjpe expects matching (T,k,3), got {p.shape} vs {g.shape}")
    pc = p - p[:, 0:1]
    gc = g - g[:, 0:1]
    return float(np.linalg.norm(pc - gc, axis=2).mean() * MM)


@dataclass
class ProcrustesResult:
    """One alignment per item of the (...,k,3) input stack; every field is
    an array over the stack's leading dims, also for a one-item stack."""

    aligned: np.ndarray      # (...,k,3) transformed prediction
    rotation: np.ndarray     # (...,3,3), det +1
    scale: np.ndarray        # (...)
    translation: np.ndarray  # (...,3)
    residual: np.ndarray     # (...) sum of squared distances after alignment
    degenerate: np.ndarray   # (...) rank-deficient covariance: rotation not unique


def procrustes_align(pred, gt) -> ProcrustesResult:
    """Best similarity transform (scale, rotation, translation) of pred onto gt.

    Takes matching (...,k,3) stacks of point sets, aligned item by item; a
    single (k,3) set is a ShapeError, pass it as a (1,k,3) stack. Closed
    form via the covariance SVD (one stacked SVD for the whole stack) with
    a per-item reflection guard keeping det(R) = +1.
    Degenerate (rank < 2) point sets are flagged: the returned rotation is
    then one of several equally good choices.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape or p.ndim < 3 or p.shape[-1] != 3 or p.shape[-2] < 3:
        raise ad.ShapeError(f"procrustes_align expects matching (...,k>=3,3) stacks, "
                            f"got {p.shape} vs {g.shape}")
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
    return ProcrustesResult(aligned=aligned, rotation=rot, scale=scale,
                            translation=trans, residual=residual, degenerate=degenerate)


def pa_mpjpe(pred_joints, gt_joints, per_frame: bool = False):
    """MPJPE in mm after per-frame similarity alignment.

    The closed-form solve minimizes the squared error; the reported metric is
    the mean distance, for which matching the root joints (joint 0) can
    (rarely, on badly wrong predictions) score better. Each frame keeps the
    better of the two candidate alignments under the reported metric, which
    guarantees pa_mpjpe <= mpjpe while coinciding with the standard
    alignment whenever predictions are sane.

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
    rooted = p - p[:, 0:1] + g[:, 0:1]
    err_root = np.linalg.norm(rooted - g, axis=-1).mean(axis=-1)
    errs = np.minimum(err_pa, err_root)
    if per_frame:
        return errs * MM
    return float(np.mean(errs) * MM)


def _segments(lengths):
    """(start, stop) row bounds of consecutive sequences of ``lengths``."""
    bounds = np.cumsum([0, *lengths])
    return list(zip(bounds[:-1], bounds[1:]))


def pck(pred_2d, gt_2d, vis, alpha: float = 0.05, frame_mask=None, lengths=None):
    """Fraction of visible keypoints within alpha * max(bbox side) of truth.

    The bounding box is taken from the visible ground-truth keypoints of each
    frame. Returns (fraction, n_correct, n_total); frames with a degenerate
    box or fewer than two visible points contribute nothing. Every frame's
    box and hits come from array ops over the whole (T,k,2) input. With
    ``lengths`` the rows are consecutive sequences of those lengths and one
    such triple per sequence is returned.
    """
    p = np.asarray(pred_2d, dtype=np.float64)
    g = np.asarray(gt_2d, dtype=np.float64)
    v = np.asarray(vis, dtype=bool)
    n_vis = v.sum(axis=1)
    lo = np.where(v[..., None], g, np.inf).min(axis=1)             # (T,2) box corners
    hi = np.where(v[..., None], g, -np.inf).max(axis=1)
    size = (hi - lo).max(axis=1)
    used = (n_vis >= 2) & (size > 0)
    if frame_mask is not None:
        used &= np.asarray(frame_mask, dtype=bool)
    dist = np.linalg.norm(p - g, axis=2)
    hits = (v & (dist <= alpha * size[:, None]) & used[:, None]).sum(axis=1)
    totals = np.where(used, n_vis, 0)
    out = []
    for lo_row, hi_row in _segments(lengths if lengths is not None else [len(p)]):
        n_correct = int(hits[lo_row:hi_row].sum())
        n_total = int(totals[lo_row:hi_row].sum())
        out.append((float(n_correct / n_total) if n_total else 0.0, n_correct, n_total))
    return out if lengths is not None else out[0]


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


def mesh_errors(pred_full, gt_full, model: body.BodyModel, frame_mask=None, lengths=None):
    """(posed_mm, unposed_mm) mean vertex errors over a sequence.

    Posed meshes are compared after per-frame root (pelvis joint) centering.
    Unposed meshes are the zero-pose (shaped template) meshes, compared
    directly, so the number reflects pure shape error. With ``lengths`` the
    rows are consecutive sequences of those lengths and one pair per
    sequence is returned; a sequence whose mask keeps no frame scores nan.
    """
    p = np.asarray(pred_full, dtype=np.float64)
    g = np.asarray(gt_full, dtype=np.float64)
    mask = np.ones(p.shape[0], dtype=bool) if frame_mask is None else np.asarray(frame_mask, dtype=bool)
    segments = _segments(lengths if lengths is not None else [len(p)])
    out = [(float("nan"), float("nan"))] * len(segments)
    if mask.any():
        # one skinning pass over [pred; gt] gives the posed meshes, the
        # unposed (shaped template) meshes and the root joints
        parts = body.skin(model, np.concatenate([p[:, :10], g[:, :10]]),
                          np.concatenate([p[:, 10:82], g[:, 10:82]]), parts=True)
        (vp, vg), (up, ug), (jp, jg) = (np.split(t.data, 2) for t in parts)
        posed = np.linalg.norm((vp - jp[:, 0:1]) - (vg - jg[:, 0:1]), axis=2)
        unposed = np.linalg.norm(up - ug, axis=2)
        for i, (lo, hi) in enumerate(segments):
            m = mask[lo:hi]
            if m.any():
                out[i] = (float(posed[lo:hi][m].mean() * MM), float(unposed[lo:hi][m].mean() * MM))
    return out if lengths is not None else out[0]


# ---------------------------------------------------------------------------
# Model-level evaluation
# ---------------------------------------------------------------------------


@ad.no_grad()
def predict_sequence(model: body.BodyModel, nets_model, features, mode: str = "temporal",
                     deltas: bool = False):
    """The dropout-free forward pass of the network stack over every
    sequence's (T_i, D) features, without a tape.

    mode 'temporal' runs the context encoder over each sequence, once per
    distinct length on the (B, T, D) block of the sequences of that length.
    'single-frame' runs the hallucinator on every row; a checkpoint without
    a hallucinator feeds the raw features to the regressor instead, which
    was never trained on them. All rows then go through one
    ``training.forward`` call. Returns a dict whose arrays hold every
    sequence's rows, in order: full (R,85), joints_current (R,k,3) and
    pred2d (R,k,2). With ``deltas`` the delta predictors run on the same
    rows, adding the past (smallest step) and future (largest step)
    pose_past/pose_future (R,72) and joints_past/joints_future (R,k,3),
    posed with the current frame's shape.
    """
    feats = [np.asarray(f, dtype=np.float64) for f in features]
    if mode == "temporal":
        lengths = [f.shape[0] for f in feats]
        blocks = [None] * len(feats)
        for t_len in sorted(set(lengths)):
            group = [i for i, n in enumerate(lengths) if n == t_len]
            encoded = nets_model.temporal(ad.constant(np.stack([feats[i] for i in group]))).data
            for i, block in zip(group, encoded):
                blocks[i] = block
        phi = ad.constant(np.concatenate(blocks))
    elif mode == "single-frame":
        phi = ad.constant(np.concatenate(feats))
        if nets_model.hallucinator is not None:
            phi = nets_model.hallucinator(phi)
    else:
        raise ValueError(f"unknown prediction mode {mode!r}")
    n_rows = phi.shape[0]
    fwd = forward(model, nets_model, [phi], np.arange(n_rows) if deltas else ())
    joints, poses = fwd["joints"].data, fwd["pose"].data
    out = {"full": fwd["full"][0].data, "joints_current": joints[:n_rows],
           "pred2d": fwd["pred2d"].data}
    if deltas:
        # delta rows follow the current rows in sorted step order
        for tag, i in (("past", 1), ("future", len(nets_model.deltas))):
            rows = slice(i * n_rows, (i + 1) * n_rows)
            out[f"pose_{tag}"] = poses[rows]
            out[f"joints_{tag}"] = joints[rows]
    return out


def gt_joints_of(model, samples):
    """Each sample's ground-truth keypoints (T,k,3), or None without
    ``theta_gt``, from one body-model call over every annotated frame."""
    samples = list(samples)
    thetas = [s.theta_gt for s in samples if s.theta_gt is not None]
    if not thetas:
        return [None] * len(samples)
    theta = np.concatenate(thetas)
    joints = body.keypoints_3d(model, ad.constant(theta[:, :10]), ad.constant(theta[:, 10:82])).data
    split = iter(np.split(joints, np.cumsum([len(t) for t in thetas])[:-1]))
    return [next(split) if s.theta_gt is not None else None for s in samples]


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
        with replacing_open(path, "x", newline="") as fh:
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
        with replacing_open(path, "x", newline="") as fh:
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


@ad.no_grad()
def evaluate(model: body.BodyModel, nets_model, dataset, mode: str = "temporal",
             alpha: float = 0.05, train_dataset=None, gt_as_prediction: bool = False,
             dynamics: bool = False) -> MetricReport:
    """Full metric sweep over a dataset, batched across its sequences.

    ``gt_as_prediction`` short-circuits the networks and scores the ground
    truth against itself (pipeline self-check). ``dynamics`` adds the
    past/current/future protocol with the constant baseline and, when a
    training set is supplied, the nearest-neighbor baseline; in single-frame
    mode it reuses this sweep's predictions, made with the delta predictors.
    """
    samples = list(dataset)
    lengths = [s.n_frames for s in samples]
    segments = _segments(lengths)
    mask = ~np.concatenate([s.excluded if s.excluded is not None else np.zeros(s.n_frames, bool)
                            for s in samples])
    gt_by_seq = gt_joints_of(model, samples)
    hand_over = dynamics and mode == "single-frame" and not gt_as_prediction
    pred = None
    if gt_as_prediction:
        for sample in samples:
            if sample.theta_gt is None:
                raise ValueError(f"{sample.id}: gt_as_prediction needs theta_gt")
        full, joints = np.concatenate([s.theta_gt for s in samples]), np.concatenate(gt_by_seq)
        pred2d = camera.project(joints, full[:, 82:83], full[:, 83:85]).data
    else:
        pred = predict_sequence(model, nets_model, [s.features for s in samples], mode=mode,
                                deltas=hand_over)
        full, joints, pred2d = pred["full"], pred["joints_current"], pred["pred2d"]

    pck_by_seq = pck(pred2d, np.concatenate([s.kp2d for s in samples]),
                     np.concatenate([s.vis for s in samples]), alpha, frame_mask=mask,
                     lengths=lengths)
    # the sequences with 3-D metrics, and their mesh errors from one pass
    scored = [i for i, (lo, hi) in enumerate(segments)
              if gt_by_seq[i] is not None and mask[lo:hi].any()]
    mesh_by_seq = {}
    if scored:
        rows = np.concatenate([np.arange(*segments[i]) for i in scored])
        mesh_by_seq = dict(zip(scored, mesh_errors(
            full[rows], np.concatenate([samples[i].theta_gt for i in scored]), model,
            frame_mask=mask[rows], lengths=[lengths[i] for i in scored])))

    per_seq = []
    pools = {k: _Pool() for k in ("pck", "mpjpe_mm", "pa_mpjpe_mm", "accel_err_mm_s2",
                                  "mesh_posed_mm", "mesh_unposed_mm")}
    n_frames_total = 0
    for i, (sample, (lo, hi)) in enumerate(zip(samples, segments)):
        m = mask[lo:hi]
        n_frames = int(m.sum())
        pck_frac, _, pck_total = pck_by_seq[i]
        row = SequenceMetrics(seq_id=sample.id, n_frames_used=n_frames, pck=pck_frac,
                              mpjpe_mm=None, pa_mpjpe_mm=None, accel_err_mm_s2=None,
                              mesh_posed_mm=None, mesh_unposed_mm=None)
        if i in mesh_by_seq:
            j, g = joints[lo:hi], gt_by_seq[i]
            row.mpjpe_mm = mpjpe(j[m], g[m])
            row.pa_mpjpe_mm = pa_mpjpe(j[m], g[m])
            if row.pa_mpjpe_mm > row.mpjpe_mm + 1e-9:
                raise NumericalError(
                    f"{sample.id}: PA-MPJPE {row.pa_mpjpe_mm} exceeds MPJPE {row.mpjpe_mm}")
            if sample.n_frames >= 3:
                row.accel_err_mm_s2 = accel_error(j, g, sample.fps)
            row.mesh_posed_mm, row.mesh_unposed_mm = mesh_by_seq[i]
        per_seq.append(row)
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
        dyn = evaluate_dynamics(model, nets_model, samples, train_dataset=train_dataset,
                                gt_joints=gt_by_seq, predictions=pred if hand_over else None)
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

    ``gt_joints`` and ``predictions``, when given, hold ``gt_joints_of`` and
    single-frame ``predict_sequence(..., deltas=True)`` over the dataset's
    sequences, as ``evaluate`` has already computed them. Every method's
    centres are scored in one stacked alignment.
    """
    steps = sorted(nets_model.deltas)
    if not steps or nets_model.hallucinator is None:
        raise ValueError("dynamics evaluation needs delta predictors and a hallucinator")
    back = min(steps)
    fwd = max(steps)
    step_mag = max(abs(back), abs(fwd))
    hf = nets_model.cfg.half_field

    pool = None     # (P, 3, k, 3) past/current/future ground truth of every training centre
    if train_dataset is not None:
        train = list(train_dataset)
        trips = []
        for s, g_joints in zip(train, gt_joints_of(model, train)):
            centers = _dynamics_centers(s, step_mag, hf) if g_joints is not None else []
            if centers:
                trips.append(_gt_triplets(g_joints, centers, back, fwd))
        if trips:
            pool = np.concatenate(trips)

    samples = list(dataset)
    if gt_joints is None:
        gt_joints = gt_joints_of(model, samples)
    if predictions is None:
        predictions = predict_sequence(model, nets_model, [s.features for s in samples],
                                       "single-frame", deltas=True)
    # every test centre's row in the batched predictions, in dataset order
    rows, gts = [], []
    for s, (lo, _), g_joints in zip(samples, _segments([s.n_frames for s in samples]), gt_joints):
        centers = _dynamics_centers(s, step_mag, hf) if g_joints is not None else []
        if centers:
            rows.append(lo + np.asarray(centers))
            gts.append(_gt_triplets(g_joints, centers, back, fwd))
    if not rows:
        raise ValueError("no valid dynamics centers in the dataset")
    rows, gt = np.concatenate(rows), np.concatenate(gts)
    n_centers, k = gt.shape[0], gt.shape[2]
    j_cur = predictions["joints_current"][rows]
    preds = {"ours": np.stack([predictions["joints_past"][rows], j_cur,
                               predictions["joints_future"][rows]], axis=1),
             "constant": np.stack([j_cur, j_cur, j_cur], axis=1)}
    if pool is not None:
        # the whole pool against each centre in one batched alignment;
        # argmin keeps the first of equal scores
        pool_cur = pool[:, 1]
        best = [int(np.argmin(pa_mpjpe(pool_cur, np.broadcast_to(g_cur, pool_cur.shape),
                                       per_frame=True)))
                for g_cur in gt[:, 1]]
        preds["nearest"] = pool[best]
    errs = pa_mpjpe(np.concatenate(list(preds.values())).reshape(-1, k, 3),
                    np.concatenate([gt] * len(preds)).reshape(-1, k, 3), per_frame=True)
    means = {}
    for name, method_errs in zip(preds, errs.reshape(len(preds), n_centers, 3)):
        total = np.zeros(3)
        for row in method_errs:     # added centre by centre, in dataset order
            total += row
        means[name] = tuple(total / n_centers)
    return DynamicsMetrics(n_centers=n_centers, ours=means["ours"], constant=means["constant"],
                           nearest=means.get("nearest"))
