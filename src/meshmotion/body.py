"""Differentiable articulated body: shape blendshapes, kinematics, skinning.

The mesh function takes rows of 10 shape coefficients and 72 pose values (24
joints in axis-angle) and produces vertex positions in meters; every entry
point takes row stacks, one row per frame, and nothing else. Keypoints are a
linear regression of the mesh. All operations build autodiff graphs, so
gradients flow from any downstream loss back into shape and pose.

Conventions:
  * joint 0 is the pelvis and carries the global rotation; rotations act
    about the shaped rest joint locations,
  * per-joint transforms are accumulated relative to the rest skeleton, so a
    zero pose yields exact identity transforms and skinning reproduces the
    shaped template bit for bit,
  * skinning uses the residual form v + sum_j w_ij (G_j - I) [v;1], which is
    ordinary linear blend skinning up to the (tiny) deviation of each weight
    row's sum from 1,
  * the keypoint path never builds the mesh: skinning and regression are
    both linear, so ``keypoints_3d`` skins the model's ``keypoint_fold``,
    per-model constants folded from the template, blendshapes, skin
    weights and regressors, in place of its vertices. Only evaluation and
    prediction skin the mesh itself; both geometries share one fused
    kinematic chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .container import ValidationError, read_container, require, write_container

N_JOINTS = 24
SHAPE_DIM = 10
POSE_DIM = 3 * N_JOINTS
THETA_DIM = SHAPE_DIM + POSE_DIM + 3  # shape + pose + camera = 85

SMALL_ANGLE = 1e-8  # below this rotation angle, use the series branch

_EYE_3X4 = np.eye(4)[0:3]

MODEL_MAGIC = "HMMRMDL1"

# Kinematic tree: pelvis root, three-segment spine with neck and head,
# collar/shoulder/elbow/wrist/hand arms, hip/knee/ankle/foot legs.
PARENTS = np.array([-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8,
                    9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21], dtype=np.int64)

JOINT_NAMES = [
    "pelvis", "l_hip", "r_hip", "spine1", "l_knee", "r_knee", "spine2",
    "l_ankle", "r_ankle", "spine3", "l_foot", "r_foot", "neck", "l_collar",
    "r_collar", "head", "l_shoulder", "r_shoulder", "l_elbow", "r_elbow",
    "l_wrist", "r_wrist", "l_hand", "r_hand",
]

# T-pose scaffold used to lay out toy geometry (meters, pelvis at origin,
# +x left, +y up, +z forward).
REST_SCAFFOLD = np.array([
    [0.00, 0.00, 0.00],    # pelvis
    [0.09, -0.06, 0.00],   # l_hip
    [-0.09, -0.06, 0.00],  # r_hip
    [0.00, 0.11, 0.00],    # spine1
    [0.10, -0.50, 0.00],   # l_knee
    [-0.10, -0.50, 0.00],  # r_knee
    [0.00, 0.24, 0.00],    # spine2
    [0.11, -0.92, 0.00],   # l_ankle
    [-0.11, -0.92, 0.00],  # r_ankle
    [0.00, 0.37, 0.00],    # spine3
    [0.13, -0.98, 0.12],   # l_foot
    [-0.13, -0.98, 0.12],  # r_foot
    [0.00, 0.50, 0.00],    # neck
    [0.07, 0.45, 0.00],    # l_collar
    [-0.07, 0.45, 0.00],   # r_collar
    [0.00, 0.62, 0.00],    # head
    [0.17, 0.44, 0.00],    # l_shoulder
    [-0.17, 0.44, 0.00],   # r_shoulder
    [0.43, 0.44, 0.00],    # l_elbow
    [-0.43, 0.44, 0.00],   # r_elbow
    [0.68, 0.44, 0.00],    # l_wrist
    [-0.68, 0.44, 0.00],   # r_wrist
    [0.77, 0.44, 0.00],    # l_hand
    [-0.77, 0.44, 0.00],   # r_hand
])

# Preferred joints for keypoint rows, most informative first; a model with k
# keypoints uses the first k entries. Datasets with fewer annotated points
# map onto these via an index list.
KEYPOINT_JOINTS = [0, 1, 2, 4, 5, 7, 8, 12, 16, 17, 18, 19, 20, 21,
                   15, 3, 6, 9, 13, 14, 10, 11, 22, 23]


@dataclass
class BodyModel:
    """Toy articulated body with the same parameter dimensions as the full-size one."""

    template: np.ndarray        # (N, 3) rest vertices
    shape_dirs: np.ndarray      # (N, 3, 10) blendshape basis, orthonormal columns
    joint_regressor: np.ndarray  # (k, N), nonnegative rows summing to 1
    parents: np.ndarray         # (24,), parents[0] == -1
    skin_weights: np.ndarray    # (N, 24), nonnegative rows summing to 1
    rest_regressor: np.ndarray  # (24, N), regresses skeleton joints from vertices

    @cached_property
    def keypoint_fold(self) -> "KeypointFold":
        """The folded keypoint constants, computed on first use (the model's
        arrays are treated as immutable from then on)."""
        return KeypointFold.of(self)

    @property
    def n_vertices(self) -> int:
        return self.template.shape[0]

    @property
    def n_keypoints(self) -> int:
        return self.joint_regressor.shape[0]

    def validate(self, source="model"):
        n = self.template.shape[0]
        k = self.joint_regressor.shape[0]
        checks = [
            (self.template.shape == (n, 3), f"template shape {self.template.shape}"),
            (self.shape_dirs.shape == (n, 3, SHAPE_DIM), f"shape_dirs shape {self.shape_dirs.shape}"),
            (self.joint_regressor.shape == (k, n), f"joint_regressor shape {self.joint_regressor.shape}"),
            (self.parents.shape == (N_JOINTS,), f"parents shape {self.parents.shape}"),
            (self.skin_weights.shape == (n, N_JOINTS), f"skin_weights shape {self.skin_weights.shape}"),
            (self.rest_regressor.shape == (N_JOINTS, n), f"rest_regressor shape {self.rest_regressor.shape}"),
        ]
        for ok, what in checks:
            if not ok:
                raise ValidationError(f"{source}: inconsistent field, {what}")
        for name, arr in (("template", self.template), ("shape_dirs", self.shape_dirs),
                          ("joint_regressor", self.joint_regressor),
                          ("skin_weights", self.skin_weights), ("rest_regressor", self.rest_regressor)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{source}: non-finite values in {name}")
        if self.parents[0] != -1:
            raise ValidationError(f"{source}: parents[0] must be -1, got {self.parents[0]}")
        for j in range(1, N_JOINTS):
            if not 0 <= self.parents[j] < j:
                raise ValidationError(f"{source}: parents[{j}]={self.parents[j]} does not define "
                                      "a tree rooted at joint 0")
        for name, mat in (("joint_regressor", self.joint_regressor), ("skin_weights", self.skin_weights)):
            if np.any(mat < -1e-12):
                raise ValidationError(f"{source}: negative entries in {name}")
            sums = mat.sum(axis=1)
            worst = np.argmax(np.abs(sums - 1.0))
            if abs(sums[worst] - 1.0) > 1e-9:
                raise ValidationError(f"{source}: {name} row {worst} sums to {sums[worst]:.12f}, "
                                      "expected 1 within 1e-9")
        return self


@dataclass(frozen=True)
class KeypointFold:
    """The model's keypoints as a geometry that ``skin`` poses directly.

    Skinning a vertex in residual form is v + sum_j (G_j - I)[:3] w_j [v;1].
    Regressing keypoints from the skinned mesh is linear too, so with
    [v;1] = [T;1] + sum_c beta_c [S_c;0] the homogeneous shaped vertex,
    keypoints are X_k = A_k(beta) + sum_j (G_j - I)[:3] M_kj(beta), where
    A(beta) = W (T + S beta) and M_kj(beta) = sum_n W_kn w_nj [v_n;1] is
    affine in beta: M = M_0 + sum_c beta_c M_c. Rest joints fold the same
    way, J(beta) = J_0 + J_dirs beta.
    """

    blend: np.ndarray      # (24*4, 11*k): rows (joint, homogeneous coord), columns (c, keypoint)
    offset: np.ndarray     # (3, 11, k): A_0, then A's blendshape columns, per axis
    rest: np.ndarray       # (24, 3) rest joints J_0
    rest_dirs: np.ndarray  # (10, 24*3) rest-joint blendshape map J_dirs
    parents: np.ndarray    # (24,) the model's kinematic tree

    @classmethod
    def of(cls, model: "BodyModel") -> "KeypointFold":
        n, k = model.n_vertices, model.n_keypoints
        # column c of the basis: the template for c = 0, blendshape c after it
        basis = np.concatenate([model.template[:, :, None], model.shape_dirs], axis=2)  # (N,3,11)
        hom = np.zeros((n, 4, SHAPE_DIM + 1))
        hom[:, 0:3] = basis
        hom[:, 3, 0] = 1.0
        # (W_kn w_nj) per keypoint, then one product with [v;1]'s basis per keypoint
        reg_skin = model.joint_regressor[:, :, None] * model.skin_weights        # (k,N,24)
        blend = np.matmul(reg_skin.transpose(0, 2, 1), hom.reshape(n, -1))       # (k,24,44)
        blend = blend.reshape(k, N_JOINTS * 4, -1)
        offset = (model.joint_regressor @ basis.reshape(n, -1)).reshape(k, 3, -1)
        rest = (model.rest_regressor @ basis.reshape(n, -1)).reshape(N_JOINTS, 3, -1)
        rest_dirs = rest[:, :, 1:].transpose(2, 0, 1).reshape(SHAPE_DIM, -1)
        return cls(blend=np.ascontiguousarray(blend.transpose(1, 2, 0).reshape(N_JOINTS * 4, -1)),
                   offset=np.ascontiguousarray(offset.transpose(1, 2, 0)),
                   rest=np.ascontiguousarray(rest[:, :, 0]),
                   rest_dirs=np.ascontiguousarray(rest_dirs),
                   parents=model.parents)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def rodrigues(axis_angle) -> ad.Tensor:
    """Axis-angle rows to rotation matrices: (M,3) -> (M,3,3), as one tape node.

    Rows only: a single (3,) vector is a ShapeError; pass it as a (1,3)
    stack. Differentiable everywhere including the zero vector: below an
    angle of 1e-8 the sinc coefficients switch to their series, and the
    large-angle branch uses the half-angle identity so (1-cos a)/a^2 never
    cancels.

    The forward pass is the formula R = I + c1 K + c2 K^2 with K the cross
    product matrix of v, c1 = sin(a)/a and c2 = (1 - cos(a))/a^2, written as
    the elementwise primitives it used to be built from; the backward pass
    is those primitives' backward steps, in the order and with the
    accumulations the tape would perform, so gradients are bit-identical
    to the composite graph's.
    """
    v = ad.as_tensor(axis_angle)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ad.ShapeError(f"rodrigues expects (M,3) rows, got {tuple(v.shape)}")
    m = v.shape[0]
    vd = v.data
    s = np.sum(vd * vd, axis=1, keepdims=True)                 # (M,1) angle^2
    small = (s < SMALL_ANGLE ** 2).astype(float)
    big = 1.0 - small
    a = np.sqrt(s + small)                                      # >= 1 on the small branch
    half = a * 0.5
    sin_a = np.sin(a)
    sin_half = np.sin(half)
    half_sinc = sin_half / half
    c1 = small * (1.0 - s * (1.0 / 6.0)) + big * (sin_a / a)
    c2 = small * (0.5 - s * (1.0 / 24.0)) + big * (half_sinc * half_sinc * 0.5)
    x, y, z = vd[:, 0:1], vd[:, 1:2], vd[:, 2:3]
    zero = np.zeros((m, 1))
    k = np.concatenate([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(m, 3, 3)
    k2 = np.matmul(k, k)
    c1e = c1.reshape(m, 1, 1)
    c2e = c2.reshape(m, 1, 1)
    out = np.eye(3) + c1e * k + c2e * k2
    nv = v.node

    def backward_fn(g):
        # c1 K term, then the c1 coefficient down to the squared angle
        g_c1 = ad._unbroadcast(g * k, c1e.shape).reshape(m, 1)
        g_k = g * c1e
        g_s = -(g_c1 * small) * (1.0 / 6.0)
        g_c1_big = g_c1 * big
        g_a = -g_c1_big * sin_a / (a * a)
        g_a += g_c1_big / a * np.cos(a)
        # c2 K^2 term, then the c2 coefficient
        g_c2 = ad._unbroadcast(g * k2, c2e.shape).reshape(m, 1)
        g_k2 = g * c2e
        g_s += -(g_c2 * small) * (1.0 / 24.0)
        g_hs2 = g_c2 * big * 0.5
        g_half_sinc = g_hs2 * half_sinc
        g_half_sinc += g_hs2 * half_sinc
        g_half = -g_half_sinc * sin_half / (half * half)
        g_half += g_half_sinc / half * np.cos(half)
        g_a += g_half * 0.5
        g_s += g_a * 0.5 / a
        # the squared angle's two factors of v, then K and K^2 back to v
        g_v = g_s * vd
        g_v += g_s * vd
        g_k += np.matmul(g_k2, np.swapaxes(k, -1, -2))
        g_k += np.matmul(np.swapaxes(k, -1, -2), g_k2)
        g_kf = g_k.reshape(m, 9)
        g_v[:, 2:3] += g_kf[:, 3:4] + -g_kf[:, 1:2]
        g_v[:, 1:2] += g_kf[:, 2:3] + -g_kf[:, 6:7]
        g_v[:, 0:1] += g_kf[:, 7:8] + -g_kf[:, 5:6]
        nv._accum_fresh(g_v)

    return ad.custom_op(out, (v,), backward_fn)


# ---------------------------------------------------------------------------
# Kinematics, the keypoint fold and skinning
# ---------------------------------------------------------------------------


def _as_batch(t, width):
    t = ad.as_tensor(t)
    if t.ndim != 2 or t.shape[1] != width:
        raise ad.ShapeError(f"expected (B,{width}) rows, got {tuple(t.shape)}")
    return t


def pose_rotations(theta) -> ad.Tensor:
    """Pose rows to their joint rotation block: (B,72) -> (B,24,3,3).

    A (B,24,3,3) block is returned as it is, so callers that need the
    rotations of the same rows more than once convert them once and pass
    the block on.
    """
    t = ad.as_tensor(theta)
    if t.ndim == 4 and t.shape[1:] == (N_JOINTS, 3, 3):
        return t
    if t.ndim != 2 or t.shape[1] != POSE_DIM:
        raise ad.ShapeError(f"expected (B,{POSE_DIM}) pose rows or a (B,{N_JOINTS},3,3) "
                            f"rotation block, got {tuple(t.shape)}")
    b = t.shape[0]
    return ad.reshape(rodrigues(ad.reshape(t, (b * N_JOINTS, 3))), (b, N_JOINTS, 3, 3))


def _joint_transforms(parents, rots, joints_rest) -> ad.Tensor:
    """Rest-relative joint transforms G (B,24,4,4) as one tape node.

    parents: the kinematic tree; rots: (B,24,3,3) local rotations;
    joints_rest: (B,24,3) shaped rest joints. Joint j's local transform
    rotates about its rest joint, and G_j = G_parent(j) @ local_j, so G is
    exact identity at zero pose. The forward pass runs the chain's 4x4
    numpy products joint by joint; the backward pass runs over the joints
    in reverse, adding each joint's own gradient and then its children's in
    increasing joint order. That is the order in which a graph of one tape
    matmul per joint accumulates them, so values and gradients are
    bit-identical to such a graph's (the test oracle builds one).
    """
    rd, jd = rots.data, joints_rest.data
    b = rd.shape[0]
    if jd.shape != (b, N_JOINTS, 3):
        raise ad.ShapeError(f"{b} rotation rows need (B,{N_JOINTS},3) rest joints, "
                            f"got {tuple(jd.shape)}")
    j_col = jd.reshape(b, N_JOINTS, 3, 1)
    local = np.empty((b, N_JOINTS, 4, 4))
    local[:, :, 0:3, 0:3] = rd
    local[:, :, 0:3, 3:4] = j_col - np.matmul(rd, j_col)
    local[:, :, 3, :] = (0.0, 0.0, 0.0, 1.0)
    parents = [int(p) for p in parents]
    children = [[] for _ in range(N_JOINTS)]
    for c in range(1, N_JOINTS):
        children[parents[c]].append(c)         # in increasing order
    # joint-major copies, so each joint's (B,4,4) stack is contiguous
    local_j = np.ascontiguousarray(local.transpose(1, 0, 2, 3))
    g_j = np.empty_like(local_j)
    g_j[0] = local_j[0]
    for j in range(1, N_JOINTS):
        np.matmul(g_j[parents[j]], local_j[j], out=g_j[j])
    g = np.ascontiguousarray(g_j.transpose(1, 0, 2, 3))
    n_rots, n_joints = ad._grad_node(rots), ad._grad_node(joints_rest)
    if n_joints is None:     # each is read only for the other operand's gradient
        rd = None
    if n_rots is None:
        j_col = None

    def backward_fn(grad):
        # a joint's gradient is final once its children (higher indices) have
        # added theirs, and is then replaced by its local transform's
        d_gj = np.ascontiguousarray(np.transpose(grad, (1, 0, 2, 3)), dtype=np.float64)
        to_parent = np.empty_like(d_gj)
        for j in range(N_JOINTS - 1, -1, -1):
            for c in children[j]:
                d_gj[j] += to_parent[c]
            if j:
                np.matmul(d_gj[j], np.swapaxes(local_j[j], -1, -2), out=to_parent[j])
                d_gj[j] = np.matmul(np.swapaxes(g_j[parents[j]], -1, -2), d_gj[j])
        d_g = d_gj.transpose(1, 0, 2, 3)
        d_t = d_g[:, :, 0:3, 3:4]       # the root's local transform is its G
        neg_d_t = -d_t
        if n_rots is not None:
            n_rots._accum_fresh(d_g[:, :, 0:3, 0:3] + neg_d_t * np.swapaxes(j_col, -1, -2))
        if n_joints is not None:
            d_j = d_t + np.matmul(np.swapaxes(rd, -1, -2), neg_d_t)
            n_joints._accum_fresh(d_j.reshape(b, N_JOINTS, 3))

    return ad.custom_op(g, (rots, joints_rest), backward_fn)


def _fold_keypoints(fold: KeypointFold, g, beta) -> ad.Tensor:
    """Keypoints (B,k,3) from joint transforms (B,24,4,4) and shape (B,10), one tape node.

    X_k = A_k(beta) + sum_j (G_j - I)[:3] M_kj(beta): the joint regressor
    applied to skinned vertices, with both linear maps folded into the
    constants of ``fold``. One GEMM contracts (G - I) with the 11 blocks of
    M(beta) = M_0 + sum_c beta_c M_c; a per-row sum weights the blocks by
    [1, beta].
    """
    b = g.shape[0]
    k = fold.offset.shape[2]
    weights = np.concatenate([np.ones((b, 1)), beta.data], axis=1)            # (B,11)
    h = np.empty((b, 3, N_JOINTS, 4))                                          # (G - I)[:3]
    np.subtract(g.data[:, :, 0:3, :].transpose(0, 2, 1, 3), _EYE_3X4[:, None, :], out=h)
    blocks = (h.reshape(b * 3, N_JOINTS * 4) @ fold.blend).reshape(b, 3, SHAPE_DIM + 1, k)
    blocks += fold.offset                                                      # (B,3,11,k)
    out = np.einsum("rack,rc->rka", blocks, weights)
    n_g, n_beta = ad._grad_node(g), ad._grad_node(beta)
    if n_beta is None:      # each is read only for one operand's gradient
        blocks = None
    if n_g is None:
        weights = None

    def backward_fn(grad):
        if n_beta is not None:
            n_beta._accum_fresh(np.einsum("rka,rack->rc", grad, blocks)[:, 1:])
        if n_g is not None:
            d_blocks = np.einsum("rka,rc->rack", grad, weights).reshape(b * 3, -1)
            d_h = (d_blocks @ fold.blend.T).reshape(b, 3, N_JOINTS, 4)
            d_g = np.zeros((b, N_JOINTS, 4, 4))
            d_g[:, :, 0:3, :] = d_h.transpose(0, 2, 1, 3)
            n_g._accum_fresh(d_g)

    return ad.custom_op(out, (g, beta), backward_fn)


def shaped_template(model: BodyModel, beta) -> ad.Tensor:
    """Template plus blendshape offsets: (B,10) -> (B,N,3)."""
    beta = _as_batch(beta, SHAPE_DIM)
    b = beta.shape[0]
    n = model.n_vertices
    dirs_flat = ad.constant(np.transpose(model.shape_dirs, (2, 0, 1)).reshape(SHAPE_DIM, n * 3))
    offs = ad.reshape(ad.matmul(beta, dirs_flat), (b, n, 3))
    return ad.add(model.template, offs)


def _posed_joints(g, joints_rest) -> ad.Tensor:
    """Posed joints (B,24,3): each rest joint moved by its own transform."""
    b = g.shape[0]
    jh = ad.concat([ad.reshape(joints_rest, (b * N_JOINTS, 3, 1)),
                    ad.constant(np.ones((b * N_JOINTS, 1, 1)))], axis=1)
    posed = ad.matmul(ad.reshape(g, (b * N_JOINTS, 4, 4)), jh)
    return ad.reshape(posed[:, 0:3, :], (b, N_JOINTS, 3))


def _shape_and_pose(beta, theta):
    """(beta (B,10), rotation block (B,24,3,3)) for shape rows (B,10) and
    pose rows (B,72) or their rotation block (B,24,3,3)."""
    beta = _as_batch(beta, SHAPE_DIM)
    rots = pose_rotations(theta)
    if beta.shape[0] != rots.shape[0]:
        raise ad.ShapeError(f"{beta.shape[0]} shape rows for {rots.shape[0]} pose rows")
    return beta, rots


def forward_kinematics(model: BodyModel, beta, theta):
    """World transforms (B,24,4,4) and posed joints (B,24,3).

    Joint j's transform composes its parent's with the local rotation about
    the shaped rest joint; joint 0 carries the global rotation. ``theta`` is
    pose rows or their rotation block, as for ``keypoints_3d``.
    """
    beta, rots = _shape_and_pose(beta, theta)
    shaped = shaped_template(model, beta)
    joints_rest = ad.matmul(model.rest_regressor, shaped)       # (B,24,3)
    g = _joint_transforms(model.parents, rots, joints_rest)
    joints_posed = _posed_joints(g, joints_rest)
    b = shaped.shape[0]
    rot_world = g[:, :, 0:3, 0:3]
    trans = ad.reshape(joints_posed, (b, N_JOINTS, 3, 1))
    bottom = ad.constant(np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), (b, N_JOINTS, 1, 4)))
    world = ad.concat([ad.concat([rot_world, trans], axis=3), bottom], axis=2)
    return world, joints_posed


def skin(model, beta, theta, parts: bool = False):
    """Linear blend skinning under shape and pose.

    ``model`` is a BodyModel, whose mesh vertices (B,N,3) come out, or its
    ``keypoint_fold``, whose keypoints (B,k,3) come out without the mesh
    being built. ``beta`` is shape rows (B,10) and ``theta`` pose rows or
    their rotation block, as for ``keypoints_3d``. With ``parts`` (mesh
    only) the same pass returns (vertices, shaped templates (B,N,3), posed
    joints (B,24,3)): the zero-pose meshes and ``forward_kinematics``'s
    joints, bit for bit.
    """
    beta, rots = _shape_and_pose(beta, theta)
    b = beta.shape[0]
    if isinstance(model, KeypointFold):
        # rest joints J_0 + J_dirs beta, as shaped_template adds its offsets
        offs = ad.reshape(ad.matmul(beta, model.rest_dirs), (b, N_JOINTS, 3))
        g = _joint_transforms(model.parents, rots, ad.add(model.rest, offs))
        return _fold_keypoints(model, g, beta)
    shaped = shaped_template(model, beta)
    joints_rest = ad.matmul(model.rest_regressor, shaped)
    g = _joint_transforms(model.parents, rots, joints_rest)
    n = model.n_vertices
    h_flat = ad.reshape(g, (b, N_JOINTS, 16)) - np.eye(4).reshape(16)
    per_vertex = ad.matmul(model.skin_weights, h_flat)                       # (B,N,16)
    vh = ad.concat([shaped, ad.constant(np.ones((b, n, 1)))], axis=2)
    moved = ad.matmul(ad.reshape(per_vertex, (b * n, 4, 4)), ad.reshape(vh, (b * n, 4, 1)))
    verts = shaped + ad.reshape(moved[:, 0:3, :], (b, n, 3))
    if not parts:
        return verts
    return verts, shaped, _posed_joints(g, joints_rest)


def keypoints_3d(model: BodyModel, beta, theta) -> ad.Tensor:
    """Keypoints under shape and pose: (B,k,3), equal to the joint regressor
    applied to ``skin(model, ...)`` up to roundoff but without the mesh.

    ``beta`` is shape rows (B,10) and ``theta`` pose rows (B,72) or their
    rotation block (B,24,3,3), which a caller that also needs the rotations
    elsewhere converts once with ``pose_rotations``. The graph is the folded
    rest joints, one node for the kinematic chain and one for the folded
    skinning and regression (plus the conversion, for pose rows).

    One single-frame form is left: a (10,) shape vector with a (72,) pose
    vector gives that frame's (k,3) keypoints, because the benchmark's
    self-test (perfbench/test_perfbench.py) still calls it. Any other input
    that is not a row stack is a ShapeError.
    """
    beta, theta = ad.as_tensor(beta), ad.as_tensor(theta)
    if beta.ndim == 1 and theta.ndim == 1:
        one_row = (ad.reshape(beta, (1,) + beta.shape), ad.reshape(theta, (1,) + theta.shape))
        return skin(model.keypoint_fold, *one_row)[0]
    return skin(model.keypoint_fold, beta, theta)


# ---------------------------------------------------------------------------
# Toy model construction and serialization
# ---------------------------------------------------------------------------


def _soft_rows(points, anchors, sigma, top=None):
    """Rows of normalized exp(-d^2/sigma^2) weights from anchors to points."""
    d2 = ((anchors[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    w = np.exp(-d2 / (sigma * sigma))
    if top is not None:
        cut = np.sort(w, axis=1)[:, -top][:, None]
        w = np.where(w >= cut, w, 0.0)
    return w / w.sum(axis=1, keepdims=True)


def make_toy_model(seed: int = 0, n_vertices: int = 120, k_keypoints: int = 14) -> BodyModel:
    """Procedural stand-in for a full-size body asset.

    Vertices are scattered around the bone segments of a fixed humanoid
    scaffold; skin weights and both regressors are soft assignments to
    nearby joints. Deterministic in the seed.
    """
    if n_vertices < N_JOINTS:
        raise ValidationError(f"n_vertices={n_vertices} is too small, need at least {N_JOINTS}")
    if not 6 <= k_keypoints <= N_JOINTS:
        raise ValidationError(f"k_keypoints={k_keypoints} out of range [6, {N_JOINTS}]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(77,)))

    verts = np.empty((n_vertices, 3))
    for i in range(n_vertices):
        j = i % N_JOINTS
        parent = PARENTS[j]
        if parent < 0:
            base = REST_SCAFFOLD[j]
        else:
            alpha = rng.uniform(0.35, 1.0)
            base = alpha * REST_SCAFFOLD[j] + (1 - alpha) * REST_SCAFFOLD[parent]
        verts[i] = base + rng.normal(0.0, 0.035, size=3)

    skin_w = _soft_rows(REST_SCAFFOLD, verts, sigma=0.10, top=3)  # (N,24)
    rest_reg = _soft_rows(verts, REST_SCAFFOLD, sigma=0.07)        # (24,N)

    # center the rest pelvis at the origin so global rotation acts about it
    pelvis = rest_reg[0] @ verts
    verts = verts - pelvis

    kp_anchor = REST_SCAFFOLD[KEYPOINT_JOINTS[:k_keypoints]] - pelvis
    joint_reg = _soft_rows(verts, kp_anchor, sigma=0.07)

    dirs = rng.standard_normal((n_vertices * 3, SHAPE_DIM))
    q, _ = np.linalg.qr(dirs)
    q = q * np.sign(q[0])  # fix QR sign ambiguity for cross-run determinism
    shape_dirs = q.reshape(n_vertices, 3, SHAPE_DIM)

    model = BodyModel(
        template=verts,
        shape_dirs=shape_dirs,
        joint_regressor=joint_reg,
        parents=PARENTS.copy(),
        skin_weights=skin_w,
        rest_regressor=rest_reg,
    )
    return model.validate("make_toy_model")


def save_model(model: BodyModel, path):
    model.validate("save_model")
    write_container(path, MODEL_MAGIC, [
        ("n_vertices", np.array([model.n_vertices])),
        ("n_joints", np.array([N_JOINTS])),
        ("k_keypoints", np.array([model.n_keypoints])),
        ("template", model.template),
        ("shape_dirs", model.shape_dirs),
        ("joint_regressor", model.joint_regressor),
        ("parents", model.parents),
        ("skin_weights", model.skin_weights),
        ("rest_regressor", model.rest_regressor),
    ])


def load_model(path) -> BodyModel:
    sec = read_container(path, MODEL_MAGIC)
    n = int(require(sec, "n_vertices", path, ()))
    k = int(require(sec, "k_keypoints", path, ()))
    model = BodyModel(
        template=require(sec, "template", path, (n, 3)),
        shape_dirs=require(sec, "shape_dirs", path, (n, 3, SHAPE_DIM)),
        joint_regressor=require(sec, "joint_regressor", path, (k, n)),
        parents=require(sec, "parents", path, (N_JOINTS,)).astype(np.int64),
        skin_weights=require(sec, "skin_weights", path, (n, N_JOINTS)),
        rest_regressor=require(sec, "rest_regressor", path, (N_JOINTS, n)),
    )
    return model.validate(str(path))
