"""Independent brute-force / analytic oracles used by unit and acceptance tests.

These deliberately avoid the library's own closed-form code paths: the grid
searches evaluate raw objectives on dense grids, and the analytic values are
hand-derived. The composite_* functions are the references for the
library's fused tape nodes: the same computation built node by node from
autodiff primitives. ``regress_joints`` (skinned vertices through the joint
regressor) is the reference for the keypoint fold. ``parse_prediction_dump``
reads the ``predict`` command's text dump back for the tests that check it.
"""

import itertools
import math
from pathlib import Path

import numpy as np

from meshmotion import autodiff as ad
from meshmotion import body, metrics, training
from meshmotion.container import ValidationError


def camera_grid_search(x, y, vis, s_range=(0.1, 3.0), t_range=(-3.0, 3.0), n=81):
    """Best reprojection objective over a dense (s, tx, ty) grid."""
    xv, yv = x[vis], y[vis]
    s_grid = np.linspace(*s_range, n)
    t_grid = np.linspace(*t_range, n)
    best = np.inf
    for s in s_grid:
        r = s * xv - yv
        d0 = ((r[:, 0][:, None] + t_grid[None, :]) ** 2).sum(axis=0)
        d1 = ((r[:, 1][:, None] + t_grid[None, :]) ** 2).sum(axis=0)
        best = min(best, float((d0[:, None] + d1[None, :]).min()))
    return best


def reprojection_objective(x_orth, x_gt, vis, s, t) -> float:
    """Plain-number weak-perspective objective sum_i vis_i ||s x_i + t - y_i||^2."""
    x = np.asarray(x_orth, dtype=np.float64)
    y = np.asarray(x_gt, dtype=np.float64)
    v = np.asarray(vis, dtype=bool)
    d = (s * x + np.asarray(t)[None, :] - y)[v]
    return float(np.sum(d * d))


def procrustes_grid_search(pred, gt, step_deg=2.0):
    """Best similarity-alignment residual over a ZYZ Euler grid of rotations.

    For each grid rotation the optimal scale and translation are attained on
    centered data, leaving residual = Sgg - t(R)^2 / Spp with
    t(R) = sum_i <R p_i, g_i>. Returns (best residual, Sgg) so callers can
    express the grid tolerance as Sgg * step^2.
    """
    p = pred - pred.mean(axis=0)
    g = gt - gt.mean(axis=0)
    c = np.einsum("ia,ib->ab", g, p)
    spp = float((p ** 2).sum())
    sgg = float((g ** 2).sum())
    aa = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    bb = np.deg2rad(np.arange(0.0, 180.0 + step_deg, step_deg))
    gg = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    ca, sa = np.cos(aa), np.sin(aa)
    cg, sg = np.cos(gg), np.sin(gg)
    ones_g = np.ones_like(cg)
    best_t = 0.0
    for b in bb:
        cb, sb = np.cos(b), np.sin(b)
        t = (np.outer(ca * cb, cg) - np.outer(sa, sg)) * c[0, 0] \
            + (np.outer(-ca * cb, sg) - np.outer(sa, cg)) * c[0, 1] \
            + np.outer(ca * sb, ones_g) * c[0, 2] \
            + (np.outer(sa * cb, cg) + np.outer(ca, sg)) * c[1, 0] \
            + (np.outer(-sa * cb, sg) + np.outer(ca, cg)) * c[1, 1] \
            + np.outer(sa * sb, ones_g) * c[1, 2] \
            + np.outer(np.full_like(ca, -sb), cg) * c[2, 0] \
            + np.outer(np.full_like(ca, sb), sg) * c[2, 1] \
            + cb * c[2, 2]
        best_t = max(best_t, float(t.max()), float(-t.min()))
    return sgg - best_t * best_t / spp, sgg


def procrustes_residual(pred, gt):
    """Sum of squared distances left after ``metrics.procrustes_align`` moves
    the (k,3) point set ``pred`` onto ``gt``."""
    aligned = metrics.procrustes_align(pred[None], gt[None])
    return ((aligned - gt[None]) ** 2).reshape(1, -1).sum(axis=-1)[0]


def pa_error_one_frame(pred, gt):
    """PA-MPJPE of one (k,3) frame in the input's units, by its own Umeyama solve.

    Like the library metric, the root-matched alignment is kept when it
    scores lower under the mean distance.
    """
    pc, gc = pred - pred.mean(axis=0), gt - gt.mean(axis=0)
    u, s, vt = np.linalg.svd(gc.T @ pc)
    d = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    rot = u @ d @ vt
    scale = np.trace(np.diag(s) @ d) / (pc ** 2).sum()
    aligned = scale * pc @ rot.T + gt.mean(axis=0)
    rooted = pred - pred[0] + gt[0]
    return min(np.linalg.norm(aligned - gt, axis=1).mean(),
               np.linalg.norm(rooted - gt, axis=1).mean())


def nearest_neighbor_dynamics(test_triplets, train_triplets):
    """Past/current/future PA-MPJPE of the nearest-neighbour dynamics baseline.

    Both arguments are lists of (past, current, future) ground-truth joint
    frames. Each test centre takes, pair by pair, the first training triplet
    whose current frame aligns best with its own current frame, and scores
    that triplet's three frames against its own.
    """
    sums = np.zeros(3)
    for gt in test_triplets:
        best, best_err = None, np.inf
        for cand in train_triplets:
            err = pa_error_one_frame(cand[1], gt[1])
            if err < best_err:
                best, best_err = cand, err
        sums += [pa_error_one_frame(best[d], gt[d]) for d in range(3)]
    return sums / len(test_triplets)


def nearest_rows_brute_force(pool_cur, queries):
    """Per query, the first pool index of the smallest ``pa_mpjpe`` over the
    whole (P,k,3) pool, one stacked alignment of every entry per query."""
    return [int(np.argmin(metrics.pa_mpjpe(pool_cur, np.broadcast_to(q, pool_cur.shape),
                                           per_frame=True)))
            for q in queries]


def pck_loop(pred_2d, gt_2d, vis, alpha=0.05, frame_mask=None):
    """PCK frame by frame: (fraction, n_correct, n_total), skipping masked
    frames, frames with fewer than two visible points and degenerate boxes."""
    n_correct = n_total = 0
    for t in range(len(pred_2d)):
        vt = np.asarray(vis[t], dtype=bool)
        if (frame_mask is not None and not frame_mask[t]) or vt.sum() < 2:
            continue
        box = gt_2d[t][vt]
        size = max(np.ptp(box[:, 0]), np.ptp(box[:, 1]))
        if size <= 0:
            continue
        dist = np.linalg.norm(pred_2d[t][vt] - gt_2d[t][vt], axis=1)
        n_correct += int((dist <= alpha * size).sum())
        n_total += int(vt.sum())
    return (n_correct / n_total if n_total else 0.0), n_correct, n_total


# ---------------------------------------------------------------------------
# Evaluation one sequence at a time
# ---------------------------------------------------------------------------


def predict_one_sequence(model, nets_model, features, mode, deltas=False):
    """The inference pass over one (T,D) sequence: its context features
    (encoder, hallucinator, or without one the encoder's centre row on each
    frame's static clip, clip by clip), then ``training.forward``. Returns
    full, joints_current and pred2d, plus joints_past/joints_future with
    ``deltas``."""
    t_len = len(features)
    cfg = nets_model.cfg
    with ad.no_grad():
        x = ad.constant(features)
        if mode == "temporal":
            phi = nets_model.temporal(x)
        elif nets_model.hallucinator is not None:
            phi = nets_model.hallucinator(x)
        else:
            phi = ad.constant(np.stack([
                nets_model.temporal(ad.constant(np.tile(f, (cfg.receptive_field, 1)))).data[
                    cfg.half_field] for f in features]))
        fwd = training.forward(model, nets_model, [phi], np.arange(t_len) if deltas else ())
    joints = fwd["joints"].data
    out = {"full": fwd["full"][0].data, "joints_current": joints[:t_len],
           "pred2d": fwd["pred2d"].data}
    if deltas:     # delta blocks follow in increasing step order
        out["joints_past"], out["joints_future"] = joints[t_len:2 * t_len], joints[-t_len:]
    return out


def mesh_errors_three_passes(model, pred_full, gt_full, mask):
    """(posed_mm, unposed_mm) from separate skin, forward_kinematics (root
    joint) and shaped_template calls on each side."""
    def centred_and_unposed(full):
        beta, pose = full[:, :10], full[:, 10:82]
        root = body.forward_kinematics(model, beta, pose)[1].data[:, 0:1]
        return (body.skin(model, beta, pose).data - root,
                body.shaped_template(model, ad.constant(beta)).data)
    (pp, up), (pg, ug) = centred_and_unposed(pred_full), centred_and_unposed(gt_full)
    return (float(np.linalg.norm(pp - pg, axis=2)[mask].mean() * 1000.0),
            float(np.linalg.norm(up - ug, axis=2)[mask].mean() * 1000.0))


def _frame_pa(pred, gt):
    return float(metrics.pa_mpjpe(pred[None], gt[None]))


def _dynamics_triplets(model, nets_model, bundle, with_predictions):
    """Ground-truth (and predicted) past/current/future joints at every valid
    centre, sequence by sequence."""
    back, fwd = min(nets_model.deltas), max(nets_model.deltas)
    margin = nets_model.cfg.delta_margin
    gts, preds = [], []
    for s in bundle:
        if s.theta_gt is None:
            continue
        g = body.keypoints_3d(model, s.theta_gt[:, :10], s.theta_gt[:, 10:82]).data
        p = (predict_one_sequence(model, nets_model, s.features, "single-frame", deltas=True)
             if with_predictions else None)
        excluded = s.excluded
        for t in range(margin, s.n_frames - margin):
            if excluded[t] or excluded[t + back] or excluded[t + fwd]:
                continue
            gts.append((g[t + back], g[t], g[t + fwd]))
            if p is not None:
                preds.append((p["joints_past"][t], p["joints_current"][t], p["joints_future"][t]))
    return gts, preds


def evaluate_per_sequence(model, nets_model, dataset, mode="temporal", alpha=0.05,
                          train_dataset=None, dynamics=False):
    """Reference for ``metrics.evaluate``: each sequence predicted, skinned
    and scored on its own, with PCK by ``pck_loop``, and dynamics errors
    summed centre by centre from one ``pa_mpjpe`` call per frame. Returns
    (rows as dicts of the SequenceMetrics fields, aggregate dict, dynamics as
    (n_centers, ours, constant, nearest) or None)."""
    names = ("pck", "mpjpe_mm", "pa_mpjpe_mm", "accel_err_mm_s2", "mesh_posed_mm",
             "mesh_unposed_mm")
    pooled = {name: ([], []) for name in names}

    def pool(name, value, count):
        if value is not None and count > 0 and not math.isnan(value):
            pooled[name][0].append(value * count)
            pooled[name][1].append(count)

    rows = []
    for s in dataset:
        mask = ~s.excluded
        pred = predict_one_sequence(model, nets_model, s.features, mode)
        frac, _, n_kp = pck_loop(pred["pred2d"], s.kp2d, s.vis, alpha, mask)
        row = dict(seq_id=s.id, n_frames_used=int(mask.sum()), pck=frac, mpjpe_mm=None,
                   pa_mpjpe_mm=None, accel_err_mm_s2=None, mesh_posed_mm=None,
                   mesh_unposed_mm=None)
        if s.theta_gt is not None and mask.any():
            g = body.keypoints_3d(model, s.theta_gt[:, :10], s.theta_gt[:, 10:82]).data
            j = pred["joints_current"]
            row["mpjpe_mm"] = metrics.mpjpe(j[mask], g[mask])
            row["pa_mpjpe_mm"] = metrics.pa_mpjpe(j[mask], g[mask])
            if s.n_frames >= 3:
                row["accel_err_mm_s2"] = metrics.accel_error(j, g, s.fps)
            row["mesh_posed_mm"], row["mesh_unposed_mm"] = mesh_errors_three_passes(
                model, pred["full"], s.theta_gt, mask)
        rows.append(row)
        pool("pck", frac, n_kp)
        for name in names[1:]:
            count = max(s.n_frames - 2, 0) if name == "accel_err_mm_s2" else row["n_frames_used"]
            pool(name, row[name], count)
    aggregate = {"n_frames_used": sum(r["n_frames_used"] for r in rows)}
    for name, (values, counts) in pooled.items():
        aggregate[name] = math.fsum(values) / math.fsum(counts) if counts else None

    dyn = None
    if dynamics:
        gts, ours = _dynamics_triplets(model, nets_model, dataset, with_predictions=True)
        methods = {"ours": ours, "constant": [(o[1], o[1], o[1]) for o in ours]}
        if train_dataset is not None:
            full3d = [s for s in train_dataset if s.tier == "full3d"]
            pool_trips, _ = _dynamics_triplets(model, nets_model, full3d, False)
            nearest = []
            for gt in gts:
                errs = [_frame_pa(cand[1], gt[1]) for cand in pool_trips]
                nearest.append(pool_trips[errs.index(min(errs))])
            methods["nearest"] = nearest
        means = {}
        for name, trips in methods.items():
            total = np.zeros(3)
            for pred, gt in zip(trips, gts):
                total += [_frame_pa(pred[d], gt[d]) for d in range(3)]
            means[name] = tuple(total / len(gts))
        dyn = (len(gts), means["ours"], means["constant"], means.get("nearest"))
    return rows, aggregate, dyn


def hungarian_brute_force(cost):
    """Exact minimum assignment cost by enumerating permutations (n <= 8)."""
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def sinusoid_mean_abs_accel(amplitude, freq_hz):
    """Analytic mean |a(t)| of x(t) = A sin(2 pi f t): A w^2 * 2/pi."""
    w = 2.0 * np.pi * freq_hz
    return amplitude * w * w * 2.0 / np.pi


# ---------------------------------------------------------------------------
# The reverse sweep without consuming the graph
# ---------------------------------------------------------------------------


def retained_backward(loss):
    """``Tensor.backward``'s sweep in the same order, leaving every node's
    gradient, parents and closure in place: the leaf gradients a consuming
    backward must reproduce bit for bit."""
    order, visited = [], set()
    # depth-first post-order over the nodes, a node placed where its latest
    # push puts it; None marks a finished node
    stack = [loss.node]
    while stack:
        node = stack.pop()
        if node is None:
            order.append(stack.pop())
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.extend((node, None))
        stack.extend(p for p in node._parents if type(p) is ad.Node and p not in visited)
    loss.node.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# Primitive-op graphs that fused tape nodes must reproduce bit for bit
# ---------------------------------------------------------------------------


def sin(a):
    """Elementwise sine as a tape node, for the composite graphs below."""
    a = ad.as_tensor(a)
    na, a_val = a.node, a.data

    def backward_fn(g):
        na._accum_fresh(g * np.cos(a_val))

    return ad.custom_op(np.sin(a_val), (a,), backward_fn)


def sqrt(a):
    """Elementwise square root as a tape node, for the composite graphs below."""
    a = ad.as_tensor(a)
    out_data = np.sqrt(a.data)
    na = a.node

    def backward_fn(g):
        na._accum_fresh(g * 0.5 / out_data)

    return ad.custom_op(out_data, (a,), backward_fn)


def composite_group_norm(x, gamma, beta, n_groups, eps=1e-5):
    """Per-group, per-time-step normalization of a (C, T) map, one node per step."""
    c, t_len = x.shape
    gsize = c // n_groups
    xg = ad.reshape(x, (n_groups, gsize, t_len))
    m = ad.mul(ad.sum_(xg, axis=1, keepdims=True), 1.0 / gsize)
    centered = ad.add(xg, ad.neg(m))
    var = ad.mul(ad.sum_(ad.mul(centered, centered), axis=1, keepdims=True), 1.0 / gsize)
    denom = sqrt(ad.add(var, eps))
    normed = ad.reshape(ad.div(centered, denom), (c, t_len))
    return ad.add(ad.mul(normed, ad.reshape(gamma, (c, 1))), ad.reshape(beta, (c, 1)))


def composite_rodrigues(v):
    """(M,3) axis-angle rows to (M,3,3) rotations, one node per step."""
    m = v.shape[0]
    s = ad.sum_(ad.mul(v, v), axis=1, keepdims=True)
    small = ad.constant((s.data < body.SMALL_ANGLE ** 2).astype(float))
    big = ad.constant(1.0 - small.data)
    a = sqrt(ad.add(s, small))
    half = ad.mul(a, 0.5)
    c1_big = ad.div(sin(a), a)
    half_sinc = ad.div(sin(half), half)
    c2_big = ad.mul(ad.mul(half_sinc, half_sinc), 0.5)
    c1_small = ad.add(1.0, ad.neg(ad.mul(s, 1.0 / 6.0)))
    c2_small = ad.add(0.5, ad.neg(ad.mul(s, 1.0 / 24.0)))
    c1 = ad.add(ad.mul(small, c1_small), ad.mul(big, c1_big))
    c2 = ad.add(ad.mul(small, c2_small), ad.mul(big, c2_big))
    x, y, z = v[:, 0:1], v[:, 1:2], v[:, 2:3]
    zero = ad.constant(np.zeros((m, 1)))
    k_flat = ad.concat([zero, ad.neg(z), y, z, zero, ad.neg(x), ad.neg(y), x, zero], axis=1)
    k = ad.reshape(k_flat, (m, 3, 3))
    k2 = ad.matmul(k, k)
    c1e = ad.reshape(c1, (m, 1, 1))
    c2e = ad.reshape(c2, (m, 1, 1))
    return ad.add(ad.add(ad.constant(np.eye(3)), ad.mul(c1e, k)), ad.mul(c2e, k2))


def composite_rest_relative_transforms(model, shaped, theta):
    """Joint transforms built joint by joint: (G, joints_rest, joints_posed)."""
    n = body.N_JOINTS
    b = shaped.shape[0]
    joints_rest = ad.matmul(model.rest_regressor, shaped)
    rots = ad.reshape(body.rodrigues(ad.reshape(theta, (b * n, 3))), (b, n, 3, 3))
    bottom = ad.constant(np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), (b, 1, 4)))
    g_parts = []
    for j in range(n):
        r_j = rots[:, j]
        j_j = ad.reshape(joints_rest[:, j:j + 1, :], (b, 3, 1))
        t_j = ad.add(j_j, ad.neg(ad.matmul(r_j, j_j)))
        local = ad.concat([ad.concat([r_j, t_j], axis=2), bottom], axis=1)
        parent = int(model.parents[j])
        g_parts.append(local if parent < 0 else ad.matmul(g_parts[parent], local))
    g = ad.concat([ad.reshape(p, (b, 1, 4, 4)) for p in g_parts], axis=1)
    jh = ad.concat([ad.reshape(joints_rest, (b * n, 3, 1)),
                    ad.constant(np.ones((b * n, 1, 1)))], axis=1)
    posed = ad.matmul(ad.reshape(g, (b * n, 4, 4)), jh)
    return g, joints_rest, ad.reshape(posed[:, 0:3, :], (b, n, 3))


def regress_joints(model, vertices):
    """Keypoint locations X = W @ vertices, (B,N,3) -> (B,k,3): the unfolded
    regression that ``body.keypoints_3d``'s folded constants must reproduce."""
    v = ad.as_tensor(vertices)
    if v.ndim != 3 or v.shape[1:] != (model.n_vertices, 3):
        raise ad.ShapeError(f"regress_joints expects (B,{model.n_vertices},3) vertex rows, "
                            f"got {tuple(v.shape)}")
    return ad.matmul(model.joint_regressor, v)


def parse_prediction_dump(path):
    """Read a cmd_predict dump back into {section: array} (flat arrays)."""
    out = {}
    name, want, buf = None, 0, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if line.startswith("section "):
            if name is not None and sum(len(b) for b in buf) != want:
                raise ValidationError(f"{path}: section {name} is incomplete")
            if name is not None:
                out[name] = np.concatenate(buf) if buf else np.empty(0)
            _, name, count = line.split()
            want, buf = int(count), []
        else:
            buf.append(np.array([float(x) for x in line.split()]))
    if name is not None:
        arr = np.concatenate(buf) if buf else np.empty(0)
        if arr.size != want:
            raise ValidationError(f"{path}: section {name} is incomplete")
        out[name] = arr
    return out
