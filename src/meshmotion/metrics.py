"""Evaluation metrics and the dataset-level evaluation protocol.

3-D errors are reported in millimeters (model space is meters), acceleration
error in mm/s^2, and 2-D accuracy as the fraction of visible keypoints
within alpha times the ground-truth bounding-box size. The frames a sample
excludes (``SequenceSample.excluded``, derived from its visibility) are
skipped everywhere except the acceleration metric, which needs unbroken
triples and uses the full predicted trajectory.

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
number of frames, not of sequences. Each metric has this one form: ``pck``
and ``mesh_errors`` take the rows of consecutive sequences with their
lengths and frame mask and return one entry per sequence, and
``procrustes_align`` returns only the aligned stack. The ``ALL`` row of
``metrics.csv`` pools every column of ``SequenceMetrics``.

Alignments are array-shaped: ``pa_mpjpe`` aligns every frame of a sequence
with one stacked similarity solve. The dynamics protocol scores every test
centre of every method in one stacked alignment. Its nearest-neighbour
baseline holds the training pool as one (P,3,k,3) array of past/current/
future ground-truth joints and takes, per test centre, the first pool entry
with the smallest ``pa_mpjpe``. ``_nearest_rows`` finds it in blocks of
centres: an elementwise quaternion solve screens all centres x P pairs
(nine small GEMMs for the covariances, no per-pair SVD), and ``pa_mpjpe``
rescores only the pairs within a 1e-6 margin of each centre's minimum and
those whose rotation is not unique, about one alignment per centre. The
screen agrees with ``pa_mpjpe`` far inside that margin, so the choice is
the brute-force argmin. Each array of a block holds one value per (pool
entry, centre) pair, about 117 KB at most.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from itertools import combinations

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


def procrustes_align(pred, gt) -> np.ndarray:
    """pred moved onto gt by its best similarity transform (scale, rotation,
    translation): the aligned (...,k,3) stack.

    Takes matching (...,k,3) stacks of point sets, aligned item by item; a
    single (k,3) set is a ShapeError, pass it as a (1,k,3) stack. Closed
    form via the covariance SVD (one stacked SVD for the whole stack) with
    a per-item reflection guard keeping det(R) = +1. For a degenerate
    (rank < 2) point set the rotation is one of several equally good ones.
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
    return (scale[..., None, None] * p) @ np.swapaxes(rot, -1, -2) + trans[..., None, :]


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
    aligned = procrustes_align(p, g)
    err_pa = np.linalg.norm(aligned - g, axis=-1).mean(axis=-1)
    rooted = p - p[:, 0:1] + g[:, 0:1]
    err_root = np.linalg.norm(rooted - g, axis=-1).mean(axis=-1)
    errs = np.minimum(err_pa, err_root)
    if per_frame:
        return errs * MM
    return float(np.mean(errs) * MM)


# Float64 values in each (pool, centres) array of a block of the nearest-
# neighbour search, about 117 KB, so the search's memory does not grow
# with the number of centres.
_SEARCH_BLOCK_VALUES = 15_000
# Screen scores (metres) within this relative margin of a centre's minimum,
# or this absolute floor for a zero minimum, are rescored by ``pa_mpjpe``.
# The screen agrees with ``pa_mpjpe`` to ~1e-14 relative on sure pairs.
_RERANK_REL, _RERANK_ABS = 1e-6, 1e-9
# A pair is unsure, and always rescored, when its largest adjugate column
# is below this fraction of lambda^3: the rotation is then not unique, or
# too ill-conditioned for the screen to resolve it to the margin.
_UNSURE_ADJ = 1e-3
# Newton's method stops once no step exceeds this fraction of lambda; its
# quadratic convergence then leaves sure pairs far inside the margin. The
# cap only binds on double roots, which are unsure.
_NEWTON_TOL, _NEWTON_MAX = 1e-11, 64


def _adjugate4(a):
    """Adjugate and determinant of 4x4 matrices given as nested lists of
    equal-shape arrays, from the 2x2 minors of the top and bottom row pairs."""
    top = {(i, j): a[0][i] * a[1][j] - a[0][j] * a[1][i] for i, j in combinations(range(4), 2)}
    bottom = {(i, j): a[2][i] * a[3][j] - a[2][j] * a[3][i] for i, j in combinations(range(4), 2)}
    adj = [[None] * 4 for _ in range(4)]
    # deleting row i leaves one row of the other pair, expanded against
    # the 2x2 minors of the remaining pair (in row order)
    for i, (row, minors) in enumerate(((a[1], bottom), (a[0], bottom), (a[3], top), (a[2], top))):
        for j in range(4):
            o0, o1, o2 = (m for m in range(4) if m != j)
            minor = row[o0] * minors[o1, o2] - row[o1] * minors[o0, o2] + row[o2] * minors[o0, o1]
            adj[j][i] = minor if (i + j) % 2 == 0 else -minor
    return adj, sum(a[0][j] * adj[j][0] for j in range(4))


def _horn_rotations(cov):
    """Best rotations R with R p ~ g, and the summed singular values with the
    reflection guard (the alignment's largest eigenvalue), for 3x3
    cross-covariances sum_i p_i g_i^T given as nested lists of equal-shape
    arrays (or a single 3x3 matrix); all elementwise.

    Horn's quaternion matrix N of each covariance has the characteristic
    polynomial l^4 - 2|S|^2 l^2 - 8 det(S) l + det(N); Newton's method from
    the upper bound sqrt(3)|S| finds its largest root, and the rotation's
    quaternion is the largest column of adj(N - l I). Returns (rotations as
    nested 3x3 lists, lambda, unsure), unsure where that column is too small
    to trust.
    """
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = cov
    n = [[sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
         [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
         [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
         [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy]]
    sq = sum(v * v for row in cov for v in row)
    c2 = -2.0 * sq
    c1 = -8.0 * (sxx * (syy * szz - syz * szy) - sxy * (syx * szz - syz * szx)
                 + sxz * (syx * szy - syy * szx))
    c0 = _adjugate4(n)[1]
    lam = np.sqrt(3.0 * sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX):
            l2 = lam * lam
            step = (((l2 + c2) * l2 + c1 * lam + c0)
                    / ((4.0 * l2 + 2.0 * c2) * lam + c1))
            lam = lam - step
            if not np.any(np.abs(step) > _NEWTON_TOL * lam):
                break
    adj = _adjugate4([[v - lam if i == j else v for j, v in enumerate(row)]
                      for i, row in enumerate(n)])[0]
    norms = [sum(adj[i][j] ** 2 for i in range(4)) for j in range(4)]    # column norms^2
    pick = np.argmax(norms, axis=0)
    q_sq = np.choose(pick, norms)
    unsure = ~(q_sq > (_UNSURE_ADJ * lam ** 3) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        w, x, y, z = (np.choose(pick, row) / np.sqrt(q_sq) for row in adj)
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    rot = [[ww + xx - yy - zz, 2 * (x * y - w * z), 2 * (x * z + w * y)],
           [2 * (x * y + w * z), ww - xx + yy - zz, 2 * (y * z - w * x)],
           [2 * (x * z - w * y), 2 * (y * z + w * x), ww - xx - yy + zz]]
    return rot, lam, unsure


def _nearest_rows(pool_cur, queries):
    """For each (k,3) query, the index of the first pool entry with the
    smallest ``pa_mpjpe`` against it: the per-query argmin over the whole
    (P,k,3) pool, in far fewer alignments.

    Centres are taken in blocks, and every array of the screen holds one
    value per (pool entry, centre) pair. The screen scores every pair by
    ``pa_mpjpe``'s rule, joint by joint, with the rotation from
    ``_horn_rotations``: elementwise, with no per-pair LAPACK call. Then the
    pairs within the re-rank margin of each centre's minimum, and every
    unsure pair, are rescored by ``pa_mpjpe`` in one stacked call per block.
    """
    n_pool, k = pool_cur.shape[:2]
    pc = pool_cur - pool_cur.mean(axis=1, keepdims=True)
    pc_sq = (pc ** 2).sum(axis=(1, 2))[:, None]
    pc_cols = [np.ascontiguousarray(pc[:, :, a]) for a in range(3)]     # (P,k) each
    rooted = pool_cur - pool_cur[:, :1]
    block = max(1, _SEARCH_BLOCK_VALUES // n_pool)
    best = []
    for lo in range(0, len(queries), block):
        g = queries[lo:lo + block]
        gc = g - g.mean(axis=1, keepdims=True)
        g_rooted = g - g[:, :1]
        rot, lam, unsure = _horn_rotations([[pc_cols[a] @ gc[:, :, b].T for b in range(3)]
                                            for a in range(3)])
        scale = lam / pc_sq
        s_rot = [[r * scale for r in row] for row in rot]
        err_pa = err_root = 0.0
        for i in range(k):
            d2 = r2 = 0.0
            for a in range(3):
                d = (s_rot[a][0] * pc[:, i, 0, None] + s_rot[a][1] * pc[:, i, 1, None]
                     + s_rot[a][2] * pc[:, i, 2, None] - gc[:, i, a])
                r = rooted[:, i, a, None] - g_rooted[:, i, a]
                d2 = d2 + d * d
                r2 = r2 + r * r
            err_pa = err_pa + np.sqrt(d2)
            err_root = err_root + np.sqrt(r2)
        score = np.minimum(err_pa, err_root) / k
        score[unsure] = np.inf
        cut = score.min(axis=0) * (1.0 + _RERANK_REL) + _RERANK_ABS
        pi, ci = np.nonzero(unsure | (score <= cut))
        exact = np.full(score.shape, np.inf)
        exact[pi, ci] = pa_mpjpe(pool_cur[pi], g[ci], per_frame=True)
        best.append(exact.argmin(axis=0))
    return np.concatenate(best)


def _segments(lengths):
    """(start, stop) row bounds of consecutive sequences of ``lengths``."""
    bounds = np.cumsum([0, *lengths])
    return list(zip(bounds[:-1], bounds[1:]))


def pck(pred_2d, gt_2d, vis, frame_mask, lengths, alpha: float = 0.05):
    """Fraction of visible keypoints within alpha * max(bbox side) of truth.

    The rows are consecutive sequences of ``lengths``, and the frames
    ``frame_mask`` keeps are scored. The bounding box is taken from the
    visible ground-truth keypoints of each frame. Returns one (fraction,
    n_correct, n_total) per sequence; frames with a degenerate box or fewer
    than two visible points contribute nothing. Every frame's box and hits
    come from array ops over the whole (R,k,2) input.
    """
    p = np.asarray(pred_2d, dtype=np.float64)
    g = np.asarray(gt_2d, dtype=np.float64)
    v = np.asarray(vis, dtype=bool)
    n_vis = v.sum(axis=1)
    lo = np.where(v[..., None], g, np.inf).min(axis=1)             # (T,2) box corners
    hi = np.where(v[..., None], g, -np.inf).max(axis=1)
    size = (hi - lo).max(axis=1)
    used = (n_vis >= 2) & (size > 0) & np.asarray(frame_mask, dtype=bool)
    dist = np.linalg.norm(p - g, axis=2)
    hits = (v & (dist <= alpha * size[:, None]) & used[:, None]).sum(axis=1)
    totals = np.where(used, n_vis, 0)
    out = []
    for lo_row, hi_row in _segments(lengths):
        n_correct = int(hits[lo_row:hi_row].sum())
        n_total = int(totals[lo_row:hi_row].sum())
        out.append((float(n_correct / n_total) if n_total else 0.0, n_correct, n_total))
    return out


def accel_error(pred_joints, gt_joints, fps: float) -> float:
    """Mean acceleration discrepancy in mm/s^2 via second finite differences:
    the mean over interior frames and joints of the norm of the difference
    between predicted and ground-truth acceleration.
    """
    p = np.asarray(pred_joints, dtype=np.float64)
    if p.shape[0] < 3:
        raise ValueError(f"acceleration undefined for T={p.shape[0]} < 3 frames")
    acc_p = (p[2:] - 2 * p[1:-1] + p[:-2]) * fps * fps
    g = np.asarray(gt_joints, dtype=np.float64)
    acc_g = (g[2:] - 2 * g[1:-1] + g[:-2]) * fps * fps
    return float(np.linalg.norm(acc_p - acc_g, axis=2).mean() * MM)


def mesh_errors(pred_full, gt_full, model: body.BodyModel, frame_mask, lengths):
    """(posed_mm, unposed_mm) mean vertex errors, one pair per sequence.

    The rows are consecutive sequences of ``lengths``, and the frames
    ``frame_mask`` keeps are scored; a sequence with no kept frame scores
    nan. Posed meshes are compared after per-frame root (pelvis joint)
    centering. Unposed meshes are the zero-pose (shaped template) meshes,
    compared directly, so the number reflects pure shape error.
    """
    p = np.asarray(pred_full, dtype=np.float64)
    g = np.asarray(gt_full, dtype=np.float64)
    mask = np.asarray(frame_mask, dtype=bool)
    # one skinning pass over [pred; gt] gives the posed meshes, the unposed
    # (shaped template) meshes and the root joints
    parts = body.skin(model, np.concatenate([p[:, :10], g[:, :10]]),
                      np.concatenate([p[:, 10:82], g[:, 10:82]]), parts=True)
    (vp, vg), (up, ug), (jp, jg) = (np.split(t.data, 2) for t in parts)
    posed = np.linalg.norm((vp - jp[:, 0:1]) - (vg - jg[:, 0:1]), axis=2)
    unposed = np.linalg.norm(up - ug, axis=2)
    out = []
    for lo, hi in _segments(lengths):
        m = mask[lo:hi]
        out.append((float(posed[lo:hi][m].mean() * MM), float(unposed[lo:hi][m].mean() * MM))
                   if m.any() else (float("nan"), float("nan")))
    return out


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
    a hallucinator runs the encoder on a static clip instead, each frame
    repeated over the receptive field, and takes the clip's centre row: the
    same network with no motion context. All rows then go through one
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
    elif mode == "single-frame" and nets_model.hallucinator is not None:
        phi = nets_model.hallucinator(ad.constant(np.concatenate(feats)))
    elif mode == "single-frame":
        cfg = nets_model.cfg
        clips = np.repeat(np.concatenate(feats)[:, None, :], cfg.receptive_field, axis=1)
        phi = nets_model.temporal(ad.constant(clips))[:, cfg.half_field]
    else:
        raise ValueError(f"unknown prediction mode {mode!r}")
    n_rows = phi.shape[0]
    fwd = forward(model, nets_model, [phi], np.arange(n_rows) if deltas else ())
    joints, poses = fwd["joints"].data, fwd["pose"].data
    out = {"full": fwd["full"][0].data, "joints_current": joints[:n_rows],
           "pred2d": fwd["pred2d"].data}
    if deltas:
        # delta rows follow the current rows in increasing step order
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
    mpjpe_mm: float | None = None
    pa_mpjpe_mm: float | None = None
    accel_err_mm_s2: float | None = None
    mesh_posed_mm: float | None = None
    mesh_unposed_mm: float | None = None


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
            w.writerow(_fmt_row(["ALL", *(self.aggregate[c] for c in cols[1:])]))

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


EVAL_MODES = ("temporal", "single-frame", "hallucinated-dynamics")


@ad.no_grad()
def evaluate(model: body.BodyModel, nets_model, dataset, mode: str = "temporal",
             alpha: float = 0.05, train_dataset=None,
             gt_as_prediction: bool = False) -> MetricReport:
    """Full metric sweep over a dataset, batched across its sequences.

    ``mode`` is one of ``EVAL_MODES``, the ``eval`` command's modes.
    'hallucinated-dynamics' scores the single-frame predictions, made with
    the delta predictors, and adds the past/current/future protocol of
    ``evaluate_dynamics`` on the same predictions: the constant baseline
    and, when a training set is supplied, the nearest-neighbor baseline.
    ``gt_as_prediction`` short-circuits the networks in the sequence
    metrics and scores the ground truth against itself (pipeline
    self-check); the dynamics protocol still scores the networks.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    dynamics = mode == "hallucinated-dynamics"
    if dynamics:
        nets_model.require_dynamics()
    samples = list(dataset)
    lengths = [s.n_frames for s in samples]
    segments = _segments(lengths)
    mask = ~np.concatenate([s.excluded for s in samples])
    gt_by_seq = gt_joints_of(model, samples)
    if gt_as_prediction:
        for sample in samples:
            if sample.theta_gt is None:
                raise ValueError(f"{sample.id}: gt_as_prediction needs theta_gt")
    if dynamics or not gt_as_prediction:
        pred = predict_sequence(model, nets_model, [s.features for s in samples],
                                "single-frame" if dynamics else mode, deltas=dynamics)
    if gt_as_prediction:
        full, joints = np.concatenate([s.theta_gt for s in samples]), np.concatenate(gt_by_seq)
        pred2d = camera.project(joints, full[:, 82:83], full[:, 83:85]).data
    else:
        full, joints, pred2d = pred["full"], pred["joints_current"], pred["pred2d"]

    pck_by_seq = pck(pred2d, np.concatenate([s.kp2d for s in samples]),
                     np.concatenate([s.vis for s in samples]), mask, lengths, alpha)
    # the sequences with 3-D metrics, and their mesh errors from one pass
    scored = [i for i, (lo, hi) in enumerate(segments)
              if gt_by_seq[i] is not None and mask[lo:hi].any()]
    mesh_by_seq = {}
    if scored:
        rows = np.concatenate([np.arange(*segments[i]) for i in scored])
        mesh_by_seq = dict(zip(scored, mesh_errors(
            full[rows], np.concatenate([samples[i].theta_gt for i in scored]), model,
            mask[rows], [lengths[i] for i in scored])))

    per_seq = []
    pools = {f.name: _Pool() for f in fields(SequenceMetrics)[2:]}
    n_frames_total = 0
    for i, (sample, (lo, hi)) in enumerate(zip(samples, segments)):
        m = mask[lo:hi]
        n_frames = int(m.sum())
        pck_frac, _, pck_total = pck_by_seq[i]
        row = SequenceMetrics(seq_id=sample.id, n_frames_used=n_frames, pck=pck_frac)
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
        # a metric is pooled over the frames it scored
        weights = {"pck": pck_total, "accel_err_mm_s2": max(sample.n_frames - 2, 0)}
        for name, pool in pools.items():
            pool.add(getattr(row, name), weights.get(name, n_frames))

    aggregate = {"n_frames_used": n_frames_total} | {
        name: pool.mean() for name, pool in pools.items()}
    dyn = None
    if dynamics:
        dyn = evaluate_dynamics(model, nets_model, samples, gt_by_seq, pred,
                                train_dataset=train_dataset)
    return MetricReport(per_sequence=per_seq, aggregate=aggregate, dynamics=dyn)


def _dynamics_centers(sample, margin, back, fwd):
    """The centre frames t the dynamics protocol scores: at least ``margin``
    frames (``EncoderConfig.delta_margin``) from either end, with t and the
    scored frames t + back and t + fwd kept by the visibility filter."""
    excluded = sample.excluded
    return [t for t in range(margin, sample.n_frames - margin)
            if not (excluded[t] or excluded[t + back] or excluded[t + fwd])]


def _gt_triplets(g_joints, centers, back, fwd):
    """(n_centers, 3, k, 3) ground-truth joints at past/current/future."""
    c = np.asarray(centers)
    return np.stack([g_joints[c + back], g_joints[c], g_joints[c + fwd]], axis=1)


def evaluate_dynamics(model: body.BodyModel, nets_model, dataset, gt_joints, predictions,
                      train_dataset=None):
    """Past/current/future PA-MPJPE from single-frame input; ``evaluate``'s
    'hallucinated-dynamics' mode runs it.

    ``gt_joints`` and ``predictions`` hold ``gt_joints_of`` and single-frame
    ``predict_sequence(..., deltas=True)`` over the dataset's sequences.
    'ours': those predictions, with the delta predictors' shifted frames
    (shape reused from the current frame), taken at the centre frames.
    'constant': the current prediction reused for past and future. 'nearest':
    the first training centre whose current joints have the smallest
    ``pa_mpjpe`` to the current ground truth, carried over with its own
    past/future (needs ``train_dataset``, of which only full3d sequences
    serve). ``_nearest_rows`` searches the pool; it aligns about one pool
    entry per centre exactly and screens the rest.

    A centre t scores frames t + min(deltas) and t + max(deltas); it is used
    when those and t itself are kept by the visibility filter. Every
    method's centres are scored in one stacked alignment.
    """
    back, fwd = min(nets_model.deltas), max(nets_model.deltas)
    margin = nets_model.cfg.delta_margin

    pool = None     # (P, 3, k, 3) past/current/future ground truth of every training centre
    if train_dataset is not None:
        # only the full3d tier's 3-D truth may serve, as for the adversarial prior
        train = [s for s in train_dataset if s.tier == "full3d"]
        trips = []
        for s, g_joints in zip(train, gt_joints_of(model, train)):
            centers = _dynamics_centers(s, margin, back, fwd)
            if centers:
                trips.append(_gt_triplets(g_joints, centers, back, fwd))
        if trips:
            pool = np.concatenate(trips)

    samples = list(dataset)
    # every test centre's row in the batched predictions, in dataset order
    rows, gts = [], []
    for s, (lo, _), g_joints in zip(samples, _segments([s.n_frames for s in samples]), gt_joints):
        centers = _dynamics_centers(s, margin, back, fwd) if g_joints is not None else []
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
        preds["nearest"] = pool[_nearest_rows(pool[:, 1], gt[:, 1])]
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
