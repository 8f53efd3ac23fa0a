"""Weak-perspective camera: projection and closed-form least-squares fitting.

Both work on stacks of R frames. Projection drops z orthographically, then
applies each row's uniform scale and 2-D translation in image units. The fit
solves, row by row,

    min_{s,t} sum_i vis_i || s * x_i + t - y_i ||^2

in closed form over centered coordinates. A row with fewer than two visible
points, or with coincident ones, has no unique solution: it is marked in
the ``valid`` mask and its residual is zero, instead of raising. The scale
is never clamped, so a negative optimum is returned as it is. Both
directions participate in autodiff graphs, and the fit's gradient flows
into the input points.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def project(points, s, t) -> ad.Tensor:
    """Project (B,k,3) joints with per-row scale s (B,1) and translation t (B,2).

    x = s * X[:, :, :2] + t.
    """
    x = ad.as_tensor(points)
    if x.ndim != 3:
        raise ad.ShapeError(f"project: expected (B,k,3), got {tuple(x.shape)}")
    b = x.shape[0]
    s_t = ad.as_tensor(s)
    t_t = ad.as_tensor(t)
    if s_t.shape != (b, 1) or t_t.shape != (b, 2):
        raise ad.ShapeError(f"project: need s (B,1), t (B,2); got {tuple(s_t.shape)}, "
                            f"{tuple(t_t.shape)} for B={b}")
    return x[:, :, 0:2] * ad.reshape(s_t, (b, 1, 1)) + ad.reshape(t_t, (b, 1, 2))


def optimal_camera_rows(x_orth, x_gt, vis):
    """Vectorized closed-form solve over a batch of frames.

    x_orth: (R,k,2) tensor; x_gt: (R,k,2) array; vis: (R,k) bools. Rows with
    fewer than 2 visible points or coincident visible points are not
    solvable; their outputs are zeroed and reported in the `valid` mask
    instead of raising. Returns dict with s (R,1), t (R,2), residual (R,),
    n_visible (R,), valid (R,) — residual rows for invalid fits are 0.
    """
    x = ad.as_tensor(x_orth)
    y = np.asarray(x_gt, dtype=np.float64)
    v = np.asarray(vis, dtype=bool)
    r, k, _ = x.shape
    if y.shape != (r, k, 2) or v.shape != (r, k):
        raise ad.ShapeError(f"optimal_camera_rows: shapes x{tuple(x.shape)} y{y.shape} vis{v.shape}")
    n_vis = v.sum(axis=1)
    mask = v[:, :, None].astype(np.float64)                         # (R,k,1)
    n_safe = np.maximum(n_vis, 1).astype(np.float64)[:, None]       # (R,1)

    y_clean = np.where(mask > 0, y, 0.0)                            # NaN-safe targets
    x_mean = ad.sum_(x * mask, axis=1) * (1.0 / n_safe)             # (R,2)
    y_mean = y_clean.sum(axis=1) / n_safe                           # (R,2) constant
    xc = (x - ad.reshape(x_mean, (r, 1, 2))) * mask
    yc = ad.constant((y_clean - y_mean[:, None, :]) * mask)

    denom = ad.sum_(ad.reshape(xc * xc, (r, k * 2)), axis=1)        # (R,)
    valid = (n_vis >= 2) & (denom.data > 1e-24)
    denom_safe = denom + ad.constant((~valid).astype(np.float64))   # >= 1 where invalid
    s_col = ad.reshape(ad.div(ad.sum_(ad.reshape(xc * yc, (r, k * 2)), axis=1), denom_safe),
                       (r, 1))
    t_row = ad.constant(y_mean) - x_mean * s_col

    diff = (x * ad.reshape(s_col, (r, 1, 1)) + ad.reshape(t_row, (r, 1, 2)) - y_clean) * mask
    residual = ad.sum_(ad.reshape(diff * diff, (r, k * 2)), axis=1)
    residual = residual * ad.constant(valid.astype(np.float64))
    return {"s": s_col, "t": t_row, "residual": residual, "n_visible": n_vis, "valid": valid}
