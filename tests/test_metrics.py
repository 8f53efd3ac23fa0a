import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import body, data, metrics, nets, training
from oracles import (evaluate_per_sequence, nearest_neighbor_dynamics, nearest_rows_brute_force,
                     pa_error_one_frame, pck_loop, procrustes_grid_search, procrustes_residual,
                     sinusoid_mean_abs_accel)


def random_rotation(rng):
    a = rng.standard_normal(3)
    return body.rodrigues(ad.constant(a[None])).data[0]


# ---------------------------------------------------------------------------
# mpjpe
# ---------------------------------------------------------------------------


def test_mpjpe_zero_on_match():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6, 3))
    assert metrics.mpjpe(x, x) == 0.0


def test_mpjpe_uniform_offset_removed_by_root_centering():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 6, 3))
    shifted = x + 0.010  # 10 mm on every joint
    assert metrics.mpjpe(shifted, x) == pytest.approx(0.0, abs=1e-9)


def test_mpjpe_hand_computed_two_joint_case():
    # root at origin in both; second joint off by (3,4,0) mm -> 5 mm error,
    # averaged over 2 joints = 2.5 mm
    gt = np.zeros((1, 2, 3))
    gt[0, 1] = [0.1, 0.0, 0.0]
    pred = gt.copy()
    pred[0, 1] += [0.003, 0.004, 0.0]
    assert metrics.mpjpe(pred, gt) == pytest.approx(2.5, abs=1e-9)


# ---------------------------------------------------------------------------
# procrustes
# ---------------------------------------------------------------------------


def test_procrustes_recovers_similarity_transform():
    rng = np.random.default_rng(2)
    p = rng.standard_normal((8, 3))
    rot = random_rotation(rng)
    c, tau = 1.7, rng.standard_normal(3)
    g = c * p @ rot.T + tau
    # p spans 3-D, so only the exact transform leaves no residual
    assert procrustes_residual(p, g) < 1e-18


def test_procrustes_reflection_guard():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((6, 3))
    mirrored = p.copy()
    mirrored[:, 0] *= -1.0
    aligned = metrics.procrustes_align(p[None], mirrored[None])[0]
    # the linear map taking p's centred points to the aligned ones is s R, det(R) = +1
    lin = np.linalg.lstsq(p - p.mean(0), aligned - aligned.mean(0), rcond=None)[0]
    assert np.linalg.det(lin) > 0.0
    assert procrustes_residual(p, mirrored) > 1e-3  # reflections cannot be absorbed


def test_procrustes_matches_so3_grid_oracle():
    rng = np.random.default_rng(4)
    for trial in range(10):
        p = rng.standard_normal((6, 3))
        rot = random_rotation(rng)
        g = 1.5 * p @ rot.T + rng.standard_normal(3) + 0.3 * rng.standard_normal((6, 3))
        closed = procrustes_residual(p, g)
        grid, sgg = procrustes_grid_search(p, g, step_deg=2.0)
        tol = sgg * np.deg2rad(2.0) ** 2
        assert closed <= grid + 1e-9, f"trial {trial}: closed-form worse than grid"
        assert grid - closed <= tol, f"trial {trial}: gap {grid - closed} above grid tolerance {tol}"


def test_procrustes_residual_invariant_to_presimilarity():
    rng = np.random.default_rng(5)
    p = rng.standard_normal((7, 3))
    g = rng.standard_normal((7, 3))
    base = procrustes_residual(p, g)
    rot = random_rotation(rng)
    p2 = 0.4 * p @ rot.T + rng.standard_normal(3)
    again = procrustes_residual(p2, g)
    assert again == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_pa_mpjpe_never_above_mpjpe():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = rng.standard_normal((5, 8, 3))
        g = rng.standard_normal((5, 8, 3))
        assert metrics.pa_mpjpe(p, g) <= metrics.mpjpe(p, g) + 1e-9


def _mixed_frames(rng, n=12, k=8):
    """Random, mirrored and rank-deficient (pred, gt) frame pairs."""
    p = rng.standard_normal((n, k, 3))
    g = rng.standard_normal((n, k, 3))
    g[3:6] = p[3:6] * np.array([-1.0, 1.0, 1.0])          # mirrored: reflection guard active
    p[6:8, :, 1:] = 0.0                                   # collinear predictions: rank 1
    p[8:10, :, 2] = 0.0                                   # planar predictions: rank 2
    g[10] = p[10]                                         # exact match
    return p, g


def test_stacked_procrustes_matches_per_frame_calls():
    p, g = _mixed_frames(np.random.default_rng(40))
    stacked = metrics.procrustes_align(p, g)
    assert stacked.shape == p.shape
    for t in range(p.shape[0]):
        one = metrics.procrustes_align(p[t:t + 1], g[t:t + 1])
        assert np.allclose(stacked[t:t + 1], one, rtol=0, atol=1e-12), t


def test_stacked_pa_mpjpe_matches_per_frame_calls():
    p, g = _mixed_frames(np.random.default_rng(41))
    per_frame = metrics.pa_mpjpe(p, g, per_frame=True)
    singles = np.array([metrics.pa_mpjpe(p[t:t + 1], g[t:t + 1]) for t in range(p.shape[0])])
    assert per_frame.shape == (p.shape[0],)
    assert np.allclose(per_frame, singles, rtol=0, atol=1e-12)
    oracle = [pa_error_one_frame(p[t], g[t]) * 1000.0 for t in range(p.shape[0])]
    assert np.allclose(per_frame, oracle, rtol=0, atol=1e-9)
    assert metrics.pa_mpjpe(p, g) == pytest.approx(per_frame.mean(), rel=0, abs=1e-12)
    assert per_frame[10] == pytest.approx(0.0, abs=1e-9)


def test_pa_mpjpe_rejects_identical_prediction_points():
    p = np.random.default_rng(42).standard_normal((3, 6, 3))
    p[1] = 0.25
    with pytest.raises(ValueError, match="identical"):
        metrics.pa_mpjpe(p, np.ones_like(p))


# ---------------------------------------------------------------------------
# pck
# ---------------------------------------------------------------------------


def test_pck_perfect_and_hopeless():
    rng = np.random.default_rng(8)
    gt = rng.uniform(0, 100, (3, 5, 2))
    vis = np.ones((3, 5), dtype=bool)
    assert metrics.pck(gt, gt, vis, np.ones(3, bool), [3])[0][0] == 1.0
    far = gt + 1000.0
    assert metrics.pck(far, gt, vis, np.ones(3, bool), [3])[0][0] == 0.0


def test_pck_hand_case_half_inside():
    gt = np.array([[[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]]])
    pred = gt.copy()
    pred[0, 0] += [3.0, 0.0]    # 3 <= 5: inside
    pred[0, 1] += [0.0, 4.0]    # 4 <= 5: inside
    pred[0, 2] += [6.0, 0.0]    # outside
    pred[0, 3] += [10.0, 10.0]  # outside
    [(frac, n_ok, n_all)] = metrics.pck(pred, gt, np.ones((1, 4), dtype=bool), [True], [1],
                                        alpha=0.05)
    assert (frac, n_ok, n_all) == (0.5, 2, 4)


def test_pck_monotone_in_alpha():
    rng = np.random.default_rng(9)
    gt = rng.uniform(0, 200, (6, 8, 2))
    pred = gt + rng.normal(0, 8, gt.shape)
    vis = rng.random((6, 8)) > 0.2
    fracs = [metrics.pck(pred, gt, vis, np.ones(6, bool), [6], alpha=a)[0][0]
             for a in (0.02, 0.05, 0.1, 0.2)]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_pck_ignores_invisible_and_masked_frames():
    gt = np.zeros((2, 4, 2))
    gt[:, :, 0] = [0, 10, 20, 30]
    pred = gt.copy()
    pred[1] += 1000.0
    vis = np.ones((2, 4), dtype=bool)
    frac_all = metrics.pck(pred, gt, vis, [True, True], [2])[0][0]
    frac_masked = metrics.pck(pred, gt, vis, [True, False], [2])[0][0]
    assert frac_all == 0.5 and frac_masked == 1.0


def test_pck_array_form_equals_per_frame_loop():
    rng = np.random.default_rng(10)
    gt = rng.uniform(0, 200, (12, 6, 2))
    pred = gt + rng.normal(0, 8, gt.shape)
    vis = rng.random((12, 6)) > 0.3
    vis[0] = False                          # no visible point
    vis[1] = [True] + [False] * 5           # one visible point
    gt[2] = gt[2, 0]                        # every point identical: zero-size box
    gt[3, :, 0] = 50.0                      # a vertical line: the box is its height
    vis[2:4] = True
    mask = rng.random(12) > 0.2
    for frame_mask in (np.ones(12, bool), mask):
        assert metrics.pck(pred, gt, vis, frame_mask, [12]) == [pck_loop(
            pred, gt, vis, frame_mask=frame_mask)]
    lengths = [5, 4, 3]
    bounds = np.cumsum([0] + lengths)
    want = [pck_loop(pred[lo:hi], gt[lo:hi], vis[lo:hi], frame_mask=mask[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert metrics.pck(pred, gt, vis, mask, lengths) == want


# ---------------------------------------------------------------------------
# acceleration error
# ---------------------------------------------------------------------------


def test_accel_zero_on_match_and_linear_motion():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 4, 3))
    assert metrics.accel_error(x, x, fps=25.0) == 0.0
    t = np.arange(10.0)[:, None, None]
    pred = 0.3 * t * np.ones((10, 2, 3))
    gt = -0.8 * t * np.ones((10, 2, 3)) + 5.0
    assert metrics.accel_error(pred, gt, fps=25.0) == pytest.approx(0.0, abs=1e-9)


def test_accel_sinusoid_matches_analytic_oracle():
    amplitude, freq, fps, t_len = 0.1, 1.0, 25.0, 201
    ts = np.arange(t_len)
    gt = np.zeros((t_len, 1, 3))
    gt[:, 0, 0] = amplitude * np.sin(2 * np.pi * freq * ts / fps)
    pred = np.zeros_like(gt)
    got = metrics.accel_error(pred, gt, fps=fps)
    want = sinusoid_mean_abs_accel(amplitude, freq) * 1000.0
    assert abs(got - want) / want < 0.02


def test_accel_invariant_to_shared_drift():
    rng = np.random.default_rng(11)
    pred = rng.standard_normal((8, 3, 3))
    gt = rng.standard_normal((8, 3, 3))
    drift = 0.25 * np.arange(8.0)[:, None, None] * np.ones((8, 3, 3))
    base = metrics.accel_error(pred, gt, fps=30.0)
    moved = metrics.accel_error(pred + drift, gt + drift, fps=30.0)
    assert moved == pytest.approx(base, rel=1e-9)


def test_accel_requires_three_frames():
    with pytest.raises(ValueError):
        metrics.accel_error(np.zeros((2, 1, 3)), np.zeros((2, 1, 3)), fps=25.0)


# ---------------------------------------------------------------------------
# mesh errors
# ---------------------------------------------------------------------------


def test_mesh_errors_zero_on_identical(toy_model):
    rng = np.random.default_rng(12)
    full = np.zeros((3, 85))
    full[:, :10] = rng.normal(0, 0.5, (3, 10))
    full[:, 10:82] = rng.normal(0, 0.3, (3, 72))
    full[:, 82] = 100.0
    [(posed, unposed)] = metrics.mesh_errors(full, full, toy_model, np.ones(3, bool), [3])
    assert posed == 0.0 and unposed == 0.0


def test_mesh_errors_pose_only_difference(toy_model):
    rng = np.random.default_rng(13)
    gt = np.zeros((2, 85))
    gt[:, :10] = rng.normal(0, 0.5, 10)
    gt[:, 10:82] = rng.normal(0, 0.3, (2, 72))
    pred = gt.copy()
    pred[:, 10:82] += rng.normal(0, 0.2, (2, 72))
    [(posed, unposed)] = metrics.mesh_errors(pred, gt, toy_model, np.ones(2, bool), [2])
    assert unposed == 0.0
    assert posed > 0.1


def test_mesh_errors_unit_beta_offset_analytic(toy_model):
    gt = np.zeros((1, 85))
    pred = gt.copy()
    pred[0, 0] = 1.0
    [(_, unposed)] = metrics.mesh_errors(pred, gt, toy_model, [True], [1])
    want = np.linalg.norm(toy_model.shape_dirs[:, :, 0], axis=1).mean() * 1000.0
    assert unposed == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_setup(toy_model):
    cfg = nets.EncoderConfig(feature_dim=24, gn_groups=4, gn_group_size=6,
                             ief_hidden=16, disc_hidden=8)
    model_nets = nets.ModelNets.create(cfg, seed=0)
    ds = data.gen_synthetic_dataset(toy_model, n_seqs=2, n_frames=16, fps=25.0,
                                    seed=11, feature_dim=24, vis_dropout=0.0,
                                    feature_noise=0.01)
    return toy_model, model_nets, ds


def test_evaluate_gt_as_prediction_is_all_zero(eval_setup):
    model, model_nets, ds = eval_setup
    report = metrics.evaluate(model, model_nets, ds, gt_as_prediction=True)
    agg = report.aggregate
    assert agg["pck"] == 1.0
    assert agg["mpjpe_mm"] == pytest.approx(0.0, abs=1e-6)
    assert agg["pa_mpjpe_mm"] == pytest.approx(0.0, abs=1e-6)
    assert agg["accel_err_mm_s2"] == pytest.approx(0.0, abs=1e-6)
    assert agg["mesh_posed_mm"] == pytest.approx(0.0, abs=1e-6)
    assert agg["mesh_unposed_mm"] == pytest.approx(0.0, abs=1e-6)


def test_evaluate_deterministic_and_pa_bound(eval_setup):
    model, model_nets, ds = eval_setup
    r1 = metrics.evaluate(model, model_nets, ds, mode="temporal")
    r2 = metrics.evaluate(model, model_nets, ds, mode="temporal")
    assert r1.aggregate == r2.aggregate
    for row in r1.per_sequence:
        assert row.pa_mpjpe_mm <= row.mpjpe_mm + 1e-9


def test_evaluate_single_frame_mode_runs(eval_setup):
    model, model_nets, ds = eval_setup
    report = metrics.evaluate(model, model_nets, ds, mode="single-frame")
    assert len(report.per_sequence) == 2


def test_evaluate_excludes_the_frames_a_changed_visibility_hides(eval_setup):
    """The excluded frames follow ``vis``: a sample copied with no visible
    keypoint scores no frame, as training would skip them all."""
    from dataclasses import replace
    model, model_nets, ds = eval_setup
    blind = [replace(s, vis=np.zeros_like(s.vis)) for s in ds]
    report = metrics.evaluate(model, model_nets, blind)
    assert report.aggregate["n_frames_used"] == 0
    for row in report.per_sequence:
        assert row.n_frames_used == 0
        assert row.mpjpe_mm is row.pa_mpjpe_mm is row.accel_err_mm_s2 is None
        assert row.mesh_posed_mm is row.mesh_unposed_mm is None
    assert report.aggregate["mpjpe_mm"] is report.aggregate["mesh_posed_mm"] is None


def test_evaluate_csv_is_byte_stable(eval_setup, tmp_path):
    model, model_nets, ds = eval_setup
    r = metrics.evaluate(model, model_nets, ds)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r.write_csv(p1)
    metrics.evaluate(model, model_nets, ds).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_metrics_write_keeps_previous_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    row = metrics.SequenceMetrics("s0", 3, 1.0, 2.0, 1.5, 10.0, 3.0, 2.5)
    aggregate = {"n_frames_used": 3, "pck": 1.0, "mpjpe_mm": 2.0, "pa_mpjpe_mm": 1.5,
                 "accel_err_mm_s2": 10.0, "mesh_posed_mm": 3.0, "mesh_unposed_mm": 2.5}
    metrics.MetricReport([row], aggregate).write_csv(path)
    before = path.read_bytes()
    # the aggregate row is written last, after the header and a different
    # per-sequence row, and lacks a key
    partial = {k: v for k, v in aggregate.items() if k != "mesh_unposed_mm"}
    with pytest.raises(KeyError):
        metrics.MetricReport([metrics.SequenceMetrics("s1", 2, 0.5, 4.0, 3.0, 20.0, 5.0, 4.0)],
                             partial).write_csv(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]


def test_dynamics_protocol_structure(eval_setup):
    model, model_nets, ds = eval_setup
    report = metrics.evaluate(model, model_nets, ds, mode="hallucinated-dynamics",
                              train_dataset=ds)
    d = report.dynamics
    assert d.n_centers > 0
    # the constant baseline shares its current-frame prediction with ours
    assert d.constant[1] == pytest.approx(d.ours[1], abs=1e-12)
    # past/future of the constant baseline are the same prediction too
    assert d.constant[0] != d.constant[1] or d.constant[2] != d.constant[1]
    # nearest-neighbor matched against its own training pool is near-perfect
    assert d.nearest[0] == pytest.approx(0.0, abs=1e-6)
    assert d.nearest[1] == pytest.approx(0.0, abs=1e-6)
    assert d.nearest[2] == pytest.approx(0.0, abs=1e-6)


def test_dynamics_nearest_matches_brute_force_oracle(eval_setup, toy_model):
    model, model_nets, ds = eval_setup
    train = data.gen_synthetic_dataset(toy_model, n_seqs=3, n_frames=20, fps=25.0, seed=12,
                                       feature_dim=24, vis_dropout=0.0, feature_noise=0.01)
    d = metrics.evaluate(model, model_nets, ds, mode="hallucinated-dynamics",
                         train_dataset=train).dynamics
    back, fwd = min(model_nets.deltas), max(model_nets.deltas)

    def triplets(bundle):
        out = []
        for s, g in zip(bundle, metrics.gt_joints_of(model, bundle)):
            for t in metrics._dynamics_centers(s, model_nets.cfg.delta_margin, back, fwd):
                out.append((g[t + back], g[t], g[t + fwd]))
        return out

    test_trips, train_trips = triplets(ds), triplets(train)
    assert d.n_centers == len(test_trips) > 0 and len(train_trips) > 0
    want = nearest_neighbor_dynamics(test_trips, train_trips) * 1000.0
    assert np.allclose(d.nearest, want, rtol=0, atol=1e-9)
    assert d.nearest[1] > 0.0   # a foreign pool: the search is not trivially exact


def test_nearest_rows_equals_brute_force_on_adversarial_pools(monkeypatch):
    rng = np.random.default_rng(21)
    base = 0.3 * rng.standard_normal((6, 14, 3))
    mirrored = base[1] * [-1.0, 1.0, 1.0]                  # det(S) < 0 against base[1]
    line = np.linspace(-0.4, 0.4, 14)[:, None] * [1.0, 2.0, -0.5]
    plane = base[2] * [1.0, 1.0, 0.0]
    outlier = base[3].copy()
    outlier[5] += [2.0, 0.0, 0.0]                          # root alignment beats PA on it
    similar = 1.3 * line @ random_rotation(rng).T + 0.1    # collinear: rotation not unique
    # similarity copies of base[4]: zero error up to rounding, in either path
    moved = [c * base[4] @ random_rotation(rng).T + c - 1.0 for c in (0.8, 1.2, 1.0, 0.9)]
    pool = np.stack([base[0], base[1], base[0], mirrored, line, plane, base[3], outlier,
                     base[1], similar, *moved])
    queries = np.stack([base[0], base[1] + 1e-3 * rng.standard_normal((14, 3)), mirrored,
                        line + 1e-3 * rng.standard_normal((14, 3)), base[2], base[3], base[5],
                        plane * [1.0, -1.0, 1.0], outlier + 1e-4, base[4]])
    res = metrics.procrustes_align(outlier[None], base[3][None])[0]
    assert (np.linalg.norm(outlier - outlier[0] + base[3][0] - base[3], axis=1).mean()
            < np.linalg.norm(res - base[3], axis=1).mean())
    # three centres per block, so the ten centres end in a partial block
    monkeypatch.setattr(metrics, "_SEARCH_BLOCK_VALUES", 3 * len(pool))
    got = metrics._nearest_rows(pool, queries).tolist()
    assert got == nearest_rows_brute_force(pool, queries)
    assert got[0] == 0              # exact duplicates: the first index wins
    assert got[2] == 3              # a query in the pool: zero minimum
    assert got[3] in (4, 9)         # won by an unsure (collinear) entry
    for q in (queries[:1], queries[4:6]):
        assert metrics._nearest_rows(pool[6:7], q).tolist() == [0] * len(q)   # a pool of one
    _, _, unsure = metrics._horn_rotations((line - line.mean(0)).T @ (similar - similar.mean(0)))
    assert unsure


@pytest.fixture(scope="module")
def foreign_train(toy_model):
    """A training set that shares no sequence with ``eval_setup``'s."""
    return data.gen_synthetic_dataset(toy_model, n_seqs=3, n_frames=20, fps=25.0, seed=12,
                                      feature_dim=24, vis_dropout=0.0, feature_noise=0.01)


def test_nearest_search_aligns_few_rows_per_centre(eval_setup, foreign_train, monkeypatch):
    model, model_nets, ds = eval_setup
    rows = []
    procrustes_align = metrics.procrustes_align

    def counting(pred, gt):
        rows.append(len(pred))
        return procrustes_align(pred, gt)

    samples = list(ds)
    gt_joints = metrics.gt_joints_of(model, samples)
    preds = metrics.predict_sequence(model, model_nets, [s.features for s in samples],
                                     "single-frame", deltas=True)
    monkeypatch.setattr(metrics, "procrustes_align", counting)
    d = metrics.evaluate_dynamics(model, model_nets, samples, gt_joints, preds,
                                  train_dataset=foreign_train)
    # the final scoring aligns past/current/future of three methods per centre
    search_rows = sum(rows) - 9 * d.n_centers
    assert 0 < search_rows <= 2 * d.n_centers


def test_dynamics_pool_takes_full3d_sequences_only(eval_setup, foreign_train):
    from dataclasses import replace
    model, model_nets, ds = eval_setup
    # the test set's own truth under a 2-D tier would be a perfect neighbour
    leaked = data.DatasetBundle([*foreign_train.sequences, *(replace(s, tier=tier) for s, tier in
                                                             zip(ds, ("gt2d", "pseudo2d")))],
                                foreign_train.feature_meta)
    got, clean = (metrics.evaluate(model, model_nets, ds, mode="hallucinated-dynamics",
                                   train_dataset=train).dynamics
                  for train in (leaked, foreign_train))
    assert got == clean
    assert got.nearest[1] > 1.0
    _, _, dyn = evaluate_per_sequence(model, model_nets, ds, mode="single-frame",
                                      train_dataset=leaked, dynamics=True)
    assert all(_close(g, w) for g, w in zip(got.nearest, dyn[3]))


def test_dynamics_centres_skip_the_excluded_frames_they_score(toy_model):
    from dataclasses import replace
    cfg = nets.EncoderConfig(feature_dim=24, gn_groups=4, gn_group_size=6, ief_hidden=16,
                             disc_hidden=8, delta_steps=(-2, 4))
    model_nets = nets.ModelNets.create(cfg, seed=0)
    seq = data.gen_synthetic_dataset(toy_model, n_seqs=1, n_frames=24, fps=25.0, seed=13,
                                     feature_dim=24, vis_dropout=0.0,
                                     feature_noise=0.01).sequences[0]
    margin = max(cfg.half_field, 4)
    vis = seq.vis.copy()
    vis[margin - 2] = False         # the past frame of the first centre only
    seq = replace(seq, vis=vis)
    d = metrics.evaluate(toy_model, model_nets, [seq], mode="hallucinated-dynamics").dynamics
    _, _, dyn = evaluate_per_sequence(toy_model, model_nets, [seq], mode="single-frame",
                                      dynamics=True)
    assert d.n_centers == dyn[0] == 24 - 2 * margin - 1
    for got, want in zip((d.ours, d.constant), dyn[1:3]):
        assert all(_close(g, w) for g, w in zip(got, want))
    assert metrics._dynamics_centers(seq, cfg.delta_margin, -2, 4) == \
        list(range(margin + 1, 24 - margin))


# ---------------------------------------------------------------------------
# batched evaluation against the per-sequence oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_dataset(toy_model):
    """Lengths 16, 20, 16 with 3-D truth and a 20-frame gt2d sequence
    without it; visibility dropout excludes frames."""
    from dataclasses import replace
    short = data.gen_synthetic_dataset(toy_model, n_seqs=2, n_frames=16, fps=25.0, seed=31,
                                       feature_dim=24, vis_dropout=0.45, feature_noise=0.01)
    long_ = data.gen_synthetic_dataset(toy_model, n_seqs=2, n_frames=20, fps=25.0, seed=32,
                                       feature_dim=24, vis_dropout=0.3, feature_noise=0.01)
    seqs = [short.sequences[0], long_.sequences[0], short.sequences[1],
            replace(long_.sequences[1], theta_gt=None, tier="gt2d")]
    assert sum(int(s.excluded.sum()) for s in seqs[:3]) > 0
    return data.DatasetBundle(seqs, short.feature_meta)


def _close(got, want):
    # the keypoint fold's GEMM over more rows may move the last bit
    if want is None or isinstance(want, (str, int)):
        return got == want
    return got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("mode", ["temporal", "single-frame",
                                  pytest.param("hallucinated-dynamics", id="dynamics")])
def test_batched_evaluate_equals_per_sequence_oracle(eval_setup, mixed_dataset, mode):
    model, model_nets, train = eval_setup
    report = metrics.evaluate(model, model_nets, mixed_dataset, mode=mode, train_dataset=train)
    dynamics = mode == "hallucinated-dynamics"
    rows, aggregate, dyn = evaluate_per_sequence(
        model, model_nets, mixed_dataset, mode="single-frame" if dynamics else mode,
        train_dataset=train, dynamics=dynamics)
    assert len(report.per_sequence) == len(rows) == 4
    for got, want in zip(report.per_sequence, rows):
        for name, value in want.items():
            assert _close(getattr(got, name), value), (got.seq_id, name)
    assert rows[3]["mpjpe_mm"] is None and rows[3]["pck"] > 0.0
    assert report.aggregate.keys() == aggregate.keys()
    for name, value in aggregate.items():
        assert _close(report.aggregate[name], value), name
    if dynamics:
        d = report.dynamics
        assert d.n_centers == dyn[0] > 0
        for got, want in zip((d.ours, d.constant, d.nearest), dyn[1:]):
            assert all(_close(g, w) for g, w in zip(got, want))
    else:
        assert report.dynamics is None


def test_single_frame_without_hallucinator_equals_per_sequence_oracle(eval_setup, mixed_dataset):
    model, _, _ = eval_setup
    bare = nets.ModelNets.create(nets.EncoderConfig(feature_dim=24, gn_groups=4, gn_group_size=6,
                                                    ief_hidden=16, disc_hidden=8, use_hal=False),
                                 seed=2)
    report = metrics.evaluate(model, bare, mixed_dataset, mode="single-frame")
    rows, aggregate, _ = evaluate_per_sequence(model, bare, mixed_dataset, mode="single-frame")
    for got, want in zip(report.per_sequence, rows):
        for name, value in want.items():
            assert _close(getattr(got, name), value), (got.seq_id, name)
    for name, value in aggregate.items():
        assert _close(report.aggregate[name], value), name


def test_single_frame_without_hallucinator_is_the_encoder_on_a_static_clip(eval_setup):
    model, _, ds = eval_setup
    cfg = nets.EncoderConfig(feature_dim=24, gn_groups=4, gn_group_size=6, ief_hidden=16,
                             disc_hidden=8, use_hal=False)
    bare = nets.ModelNets.create(cfg, seed=2)
    feats = [s.features for s in ds]
    got = metrics.predict_sequence(model, bare, feats, "single-frame", deltas=True)
    frames = np.concatenate(feats)
    clips = np.repeat(frames[:, None, :], cfg.receptive_field, axis=1)
    with ad.no_grad():
        phi = ad.constant(bare.temporal(ad.constant(clips)).data[:, cfg.half_field])
        want = training.forward(model, bare, [phi], np.arange(len(frames)))
    n = len(frames)
    assert np.array_equal(got["full"], want["full"][0].data)
    assert np.array_equal(got["joints_current"], want["joints"].data[:n])
    assert np.array_equal(got["joints_future"], want["joints"].data[-n:])
    # not the raw features through the regressor, which never saw them
    with ad.no_grad():
        raw = training.forward(model, bare, [ad.constant(frames)])["full"][0].data
    assert not np.allclose(got["full"], raw)


def test_single_frame_of_the_identity_encoder_is_temporal_mode(eval_setup, mixed_dataset):
    model, _, _ = eval_setup
    per_frame = nets.ModelNets.create(nets.EncoderConfig(feature_dim=24, n_blocks=0, ief_hidden=16,
                                                         disc_hidden=8, use_hal=False), seed=4)
    feats = [s.features for s in mixed_dataset]
    single = metrics.predict_sequence(model, per_frame, feats, "single-frame", deltas=True)
    temporal = metrics.predict_sequence(model, per_frame, feats, "temporal", deltas=True)
    assert single.keys() == temporal.keys()
    for key in single:
        assert np.array_equal(single[key], temporal[key]), key


def test_temporal_evaluate_encodes_each_length_once(eval_setup, mixed_dataset, monkeypatch):
    model, model_nets, _ = eval_setup
    shapes = []
    temporal = model_nets.temporal

    def counting(features):
        shapes.append(features.shape)
        return temporal(features)

    monkeypatch.setattr(model_nets, "temporal", counting)
    metrics.evaluate(model, model_nets, mixed_dataset, mode="temporal")
    assert shapes == [(2, 16, 24), (2, 20, 24)]


def test_inference_records_no_graph(eval_setup, mixed_dataset, monkeypatch):
    model, model_nets, _ = eval_setup
    outputs = []
    forward = metrics.forward

    def keeping(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(metrics, "forward", keeping)
    metrics.evaluate(model, model_nets, mixed_dataset, mode="hallucinated-dynamics",
                     train_dataset=mixed_dataset)
    metrics.predict_sequence(model, model_nets, [s.features for s in mixed_dataset])
    assert len(outputs) == 2
    for out in outputs:
        for t in (out["joints"], out["pred2d"], out["full"][0]):
            assert not t.requires_grad and t.node is t and t._parents == ()


def test_dynamics_mode_checks_the_networks_before_predicting(eval_setup, monkeypatch):
    model, model_nets, ds = eval_setup
    monkeypatch.setattr(metrics, "predict_sequence", lambda *a, **k: pytest.fail("predicted"))
    for cfg in (dict(use_hal=False), dict(delta_steps=())):
        bare = nets.ModelNets.create(nets.EncoderConfig(feature_dim=24, gn_groups=4,
                                                        gn_group_size=6, **cfg), seed=0)
        for oracle in (False, True):
            with pytest.raises(ValueError, match="delta predictors and a hallucinator"):
                metrics.evaluate(model, bare, ds, mode="hallucinated-dynamics",
                                 gt_as_prediction=oracle)
    with pytest.raises(ValueError, match="unknown evaluation mode"):
        metrics.evaluate(model, model_nets, ds, mode="dynamics")
