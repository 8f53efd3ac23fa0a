import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import camera
from oracles import reprojection_objective


def grid_search_camera(x, y, vis, s_range, t_range, n=81):
    """Independent dense-grid oracle over (s, tx, ty)."""
    xv, yv = x[vis], y[vis]
    s_grid = np.linspace(*s_range, n)
    t_grid = np.linspace(*t_range, n)
    best = np.inf
    for s in s_grid:
        r = s * xv - yv                                   # (k,2)
        d0 = ((r[:, 0][:, None] + t_grid[None, :]) ** 2).sum(axis=0)  # over tx
        d1 = ((r[:, 1][:, None] + t_grid[None, :]) ** 2).sum(axis=0)  # over ty
        best = min(best, float((d0[:, None] + d1[None, :]).min()))
    return best


def fit(x, y, vis):
    """optimal_camera_rows on one (k,2) frame: (s, t (2,), residual, valid)."""
    x = x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(x, dtype=np.float64)[None])
    out = camera.optimal_camera_rows(x, np.asarray(y)[None], np.asarray(vis)[None])
    return out["s"][0, 0], out["t"][0], out["residual"][0], bool(out["valid"][0])


def project_one(x, s, t):
    """project on one (k,3) frame."""
    return camera.project(ad.constant(np.asarray(x, dtype=np.float64)[None]),
                          np.array([[s]]), np.asarray(t, dtype=np.float64)[None]).data[0]


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_identity_camera():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    assert np.array_equal(project_one(x, 1.0, np.zeros(2)), x[:, :2])


def test_project_scale_translate_arithmetic():
    out = project_one([[1.0, 1.0, 5.0]], 2.0, np.array([3.0, 4.0]))
    assert np.allclose(out, [[5.0, 6.0]], atol=0)


def test_project_then_fit_roundtrip():
    rng = np.random.default_rng(1)
    x3d = rng.standard_normal((8, 3))
    s_true, t_true = 2.5, np.array([-1.0, 4.0])
    proj = project_one(x3d, s_true, t_true)
    s, t, residual, _ = fit(x3d[:, :2], proj, np.ones(8, dtype=bool))
    assert s.item() == pytest.approx(s_true, abs=1e-12)
    assert np.allclose(t.data, t_true, atol=1e-12)
    assert residual.item() < 1e-20


def test_project_batched_matches_per_row():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 6, 3))
    s = rng.uniform(0.5, 2.0, (3, 1))
    t = rng.standard_normal((3, 2))
    out = camera.project(ad.constant(x), ad.constant(s), ad.constant(t)).data
    for i in range(3):
        assert np.allclose(out[i], s[i, 0] * x[i, :, :2] + t[i], atol=1e-15)


def test_project_rejects_unbatched_points():
    with pytest.raises(ad.ShapeError):
        camera.project(ad.constant(np.zeros((5, 3))), 1.0, np.zeros(2))


# ---------------------------------------------------------------------------
# closed-form fit
# ---------------------------------------------------------------------------


def test_exact_similarity_recovered():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 2))
    y = 2.0 * x + np.array([3.0, 4.0])
    s, t, residual, valid = fit(x, y, np.ones(7, dtype=bool))
    assert s.item() == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(t.data, [3.0, 4.0], atol=1e-12)
    assert residual.item() < 1e-10
    assert valid and s.item() > 0


def test_masked_outlier_ignored():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 2))
    y = x.copy()
    y[2] += 100.0  # wrecked point, masked out
    vis = np.ones(6, dtype=bool)
    vis[2] = False
    s, t, residual, _ = fit(x, y, vis)
    assert s.item() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(t.data, [0.0, 0.0], atol=1e-12)
    assert residual.item() < 1e-20


def test_closed_form_beats_grid_oracle():
    rng = np.random.default_rng(5)
    for trial in range(10):
        x = rng.standard_normal((8, 2))
        y = rng.uniform(0.5, 2.0) * x + rng.standard_normal(2) + 0.3 * rng.standard_normal((8, 2))
        vis = rng.random(8) > 0.2
        if vis.sum() < 3:
            vis[:] = True
        residual = fit(x, y, vis)[2]
        grid_best = grid_search_camera(x, y, vis, s_range=(0.1, 3.0), t_range=(-3.0, 3.0))
        assert residual.item() <= grid_best + 1e-9, f"trial {trial}"


def test_first_order_stationarity_100_trials():
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal((6, 2))
        y = 1.5 * x + np.array([0.5, -0.25]) + 0.1 * rng.standard_normal((6, 2))
        vis = np.ones(6, dtype=bool)
        s, t, _, _ = fit(x, y, vis)
        s0, t0 = s.item(), t.data
        base = reprojection_objective(x, y, vis, s0, t0)
        ds, dt = rng.standard_normal() * 1e-3, rng.standard_normal(2) * 1e-3
        perturbed = reprojection_objective(x, y, vis, s0 + ds, t0 + dt)
        assert perturbed >= base - 1e-12


def test_invisible_points_do_not_affect_fit_bitwise():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 2))
    y = 2.0 * x + 1.0
    vis = np.array([True, True, False, True, False, True])
    s_a, t_a, r_a, _ = fit(x, y, vis)
    x2, y2 = x.copy(), y.copy()
    x2[2], x2[4] = 999.0, -55.0
    y2[2], y2[4] = -123.0, 7.5
    s_b, t_b, r_b, _ = fit(x2, y2, vis)
    assert s_a.item() == s_b.item()
    assert np.array_equal(t_a.data, t_b.data)
    assert r_a.item() == r_b.item()


def test_unobservable_rows_flagged_invalid():
    # one visible point, then coincident visible points: neither fixes (s, t)
    same = np.tile([1.0, 2.0], (5, 1))
    cases = [(np.zeros((4, 2)), np.zeros((4, 2)), np.array([True, False, False, False])),
             (same, np.random.default_rng(0).standard_normal((5, 2)), np.ones(5, dtype=bool))]
    for x, y, vis in cases:
        _, _, residual, valid = fit(x, y, vis)
        assert not valid
        assert residual.item() == 0.0


def test_negative_scale_flagged_not_clamped():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 2))
    y = -1.5 * x  # adversarial: optimum has negative scale
    s, _, _, valid = fit(x, y, np.ones(6, dtype=bool))
    assert valid
    assert s.item() < 0
    assert s.item() == pytest.approx(-1.5, abs=1e-12)


def test_residual_gradient_wrt_points():
    rng = np.random.default_rng(9)
    x = ad.parameter(rng.standard_normal((1, 6, 2)), name="x_orth")
    y = 1.2 * x.data[0] + np.array([0.3, -0.7]) + 0.2 * rng.standard_normal((6, 2))
    vis = np.ones(6, dtype=bool)

    def loss():
        return fit(x, y, vis)[2]

    err = ad.finite_diff_check(loss, x)
    assert err < 1e-4


def test_camera_fit_gradient_flows_to_points():
    rng = np.random.default_rng(10)
    xv = rng.standard_normal((1, 6, 2))
    y = 1.2 * xv[0] + 0.1 * rng.standard_normal((6, 2))
    vis = np.ones(6, dtype=bool)
    x = ad.parameter(xv.copy(), name="x")
    s, t, _, _ = fit(x, y, vis)
    loss = s * s + ad.sum_(t * t)
    loss.backward()
    assert x.grad is not None and np.any(x.grad != 0.0)
