import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion import body, losses, metrics
from meshmotion.container import ValidationError
from oracles import composite_rest_relative_transforms, composite_rodrigues, regress_joints


def np_rod(v):
    """Independent Rodrigues oracle (plain numpy, no shared code path)."""
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return np.eye(3)
    axis = v / angle
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# ---------------------------------------------------------------------------
# rodrigues
# ---------------------------------------------------------------------------


def test_rodrigues_zero_is_exact_identity():
    r = body.rodrigues(ad.constant(np.zeros((1, 3))))
    assert np.array_equal(r.data[0], np.eye(3))


def test_rodrigues_quarter_turn_about_z():
    r = body.rodrigues(ad.constant([[0.0, 0.0, np.pi / 2]]))
    rotated = r.data[0] @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(rotated, [0.0, 1.0, 0.0], atol=1e-12)


def test_rodrigues_inverse_property_1000_samples():
    rng = np.random.default_rng(0)
    vs = rng.normal(0, 1.5, size=(1000, 3))
    r_fwd = body.rodrigues(ad.constant(vs)).data
    r_bwd = body.rodrigues(ad.constant(-vs)).data
    prod = np.matmul(r_fwd, r_bwd)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-10


@pytest.mark.parametrize("norm", [0.0, 1e-8, np.pi, 10.0])
def test_rodrigues_orthonormal_with_unit_det(norm):
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        r = body.rodrigues(ad.constant(d[None] * norm)).data[0]
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_rodrigues_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = rng.normal(0, 2.0, 3)
        assert np.allclose(body.rodrigues(ad.constant(v[None])).data[0], np_rod(v), atol=1e-12)


def test_fused_rodrigues_matches_composite_graph_bit_for_bit():
    rng = np.random.default_rng(21)
    rows = rng.normal(0, 1.5, (40, 3))
    rows[:4] *= 1e-9                    # series branch
    rows[4] = 0.0
    v = ad.parameter(rows, name="v")
    probe = ad.constant(rng.standard_normal((40, 3, 3)))
    results = []
    for rot_fn in (body.rodrigues, composite_rodrigues):
        v.grad = None
        rot = rot_fn(v)
        ad.sum_(ad.mul(rot, probe)).backward()
        results.append((rot.data.copy(), v.grad.copy()))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_rodrigues_gradient_including_near_zero():
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-3, 1e-7, 0.0):
        v = ad.parameter(rng.standard_normal((1, 3)) * scale, name="v")
        probe = ad.constant(rng.standard_normal((1, 3, 3)))
        err = ad.finite_diff_check(lambda: ad.sum_(ad.mul(body.rodrigues(v), probe)), v)
        assert err < 1e-4, f"scale {scale}: {err}"


# ---------------------------------------------------------------------------
# forward kinematics
# ---------------------------------------------------------------------------


def test_fk_zero_pose_reproduces_rest_joints_exactly(toy_model):
    shaped = body.shaped_template(toy_model, ad.constant(np.zeros((1, 10))))
    rest = toy_model.rest_regressor @ shaped.data
    _, posed = body.forward_kinematics(toy_model, np.zeros((1, 10)), np.zeros((1, 72)))
    assert np.array_equal(posed.data, rest)


def test_fk_root_rotation_rotates_all_joints(scaffold_model):
    aa = np.array([0.3, -0.2, 0.9])
    theta = np.zeros((1, 72))
    theta[0, :3] = aa
    _, posed = body.forward_kinematics(scaffold_model, np.zeros((1, 10)), theta)
    expected = body.REST_SCAFFOLD @ np_rod(aa).T  # pelvis is at the origin
    assert np.allclose(posed.data[0], expected, atol=1e-12)


def test_fk_two_link_arm_hand_case(scaffold_model):
    # 90 degree z-rotation at the left elbow: the wrist offset (+x from the
    # elbow in rest) must come out along +y relative to the posed elbow.
    theta = np.zeros((1, 72))
    theta[0, 18 * 3 + 2] = np.pi / 2
    _, posed = body.forward_kinematics(scaffold_model, np.zeros((1, 10)), theta)
    posed = posed[0]
    elbow = body.REST_SCAFFOLD[18]
    wrist_rest = body.REST_SCAFFOLD[20]
    offset = wrist_rest - elbow
    expected_wrist = elbow + np_rod([0, 0, np.pi / 2]) @ offset
    assert np.allclose(posed.data[18], elbow, atol=1e-12)
    assert np.allclose(posed.data[20], expected_wrist, atol=1e-12)
    assert np.allclose(expected_wrist - elbow, [0.0, np.linalg.norm(offset), 0.0], atol=1e-12)
    # hand continues the chain
    hand_rest = body.REST_SCAFFOLD[22]
    expected_hand = elbow + np_rod([0, 0, np.pi / 2]) @ (hand_rest - elbow)
    assert np.allclose(posed.data[22], expected_hand, atol=1e-12)


def test_fk_world_transforms_carry_posed_joints(toy_model):
    rng = np.random.default_rng(6)
    theta = rng.normal(0, 0.4, (1, 72))
    world, posed = body.forward_kinematics(toy_model, np.zeros((1, 10)), theta)
    assert world.shape == (1, 24, 4, 4)
    assert np.allclose(world.data[:, :, :3, 3], posed.data, atol=1e-12)
    assert np.allclose(world.data[0, :, 3], np.tile([0, 0, 0, 1], (24, 1)), atol=0)


# ---------------------------------------------------------------------------
# skinning
# ---------------------------------------------------------------------------


def test_skin_zero_pose_zero_shape_is_template_bitexact(toy_model):
    verts = body.skin(toy_model, np.zeros((1, 10)), np.zeros((1, 72)))
    assert np.array_equal(verts.data[0], toy_model.template)
    # at zero pose any shape gives its shaped template, bit for bit, in
    # stacks of any size (metrics.mesh_errors relies on it)
    rng = np.random.default_rng(11)
    for rows in (1, 2, 7, 40):
        betas = rng.standard_normal((rows, 10))
        zero_pose = body.skin(toy_model, betas, np.zeros((rows, 72))).data
        assert np.array_equal(zero_pose, body.shaped_template(toy_model, betas).data)


def test_skin_unit_beta_adds_blendshape_column_exactly(toy_model):
    beta = np.zeros((1, 10))
    beta[0, 0] = 1.0
    verts = body.skin(toy_model, beta, np.zeros((1, 72)))
    assert np.array_equal(verts.data[0], toy_model.template + toy_model.shape_dirs[:, :, 0])


def test_skin_single_weight_vertex_follows_joint_rigidly(scaffold_model):
    rng = np.random.default_rng(7)
    theta = rng.normal(0, 0.5, (1, 72))
    verts = body.skin(scaffold_model, np.zeros((1, 10)), theta).data
    _, posed = body.forward_kinematics(scaffold_model, np.zeros((1, 10)), theta)
    # every scaffold vertex has weight 1.0 on its own joint and sits at it
    assert np.allclose(verts, posed.data, atol=1e-12)


def test_skin_affine_in_beta(toy_model):
    rng = np.random.default_rng(8)
    b1, b2 = rng.normal(0, 1, (1, 10)), rng.normal(0, 1, (1, 10))
    zero_pose = np.zeros((1, 72))
    base = body.skin(toy_model, np.zeros((1, 10)), zero_pose).data
    s1 = body.skin(toy_model, b1, zero_pose).data - base
    s2 = body.skin(toy_model, b2, zero_pose).data - base
    s12 = body.skin(toy_model, b1 + b2, zero_pose).data - base
    assert np.max(np.abs(s12 - (s1 + s2))) < 1e-9


def test_skin_global_rotation_equivariance_pelvis_centered(toy_model):
    rng = np.random.default_rng(9)
    theta = rng.normal(0, 0.4, (1, 72))
    theta_rot = theta.copy()
    aa = rng.normal(0, 1, 3)
    theta[0, :3] = 0.0
    theta_rot[0, :3] = aa
    beta = rng.normal(0, 0.5, (1, 10))
    v0 = body.skin(toy_model, beta, theta).data[0]
    v1 = body.skin(toy_model, beta, theta_rot).data[0]
    _, j0 = body.forward_kinematics(toy_model, beta, theta)
    _, j1 = body.forward_kinematics(toy_model, beta, theta_rot)
    centered0 = v0 - j0.data[0, 0]
    centered1 = v1 - j1.data[0, 0]
    assert np.max(np.abs(centered1 - centered0 @ np_rod(aa).T)) < 1e-9


def test_skin_batched_matches_per_frame(toy_model):
    rng = np.random.default_rng(10)
    betas = rng.normal(0, 0.5, (3, 10))
    thetas = rng.normal(0, 0.4, (3, 72))
    batched = body.skin(toy_model, ad.constant(betas), ad.constant(thetas)).data
    for i in range(3):
        one_row = body.skin(toy_model, betas[i:i + 1], thetas[i:i + 1]).data
        # batched BLAS calls may sum in a different order; agreement is to roundoff
        assert np.allclose(batched[i:i + 1], one_row, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# joint regression
# ---------------------------------------------------------------------------


def test_regress_one_hot_rows_select_vertices(toy_model):
    n = toy_model.n_vertices
    w = np.zeros((4, n))
    for i, vidx in enumerate((0, 5, 17, n - 1)):
        w[i, vidx] = 1.0
    picker = body.BodyModel(
        template=toy_model.template, shape_dirs=toy_model.shape_dirs,
        joint_regressor=w, parents=toy_model.parents,
        skin_weights=toy_model.skin_weights, rest_regressor=toy_model.rest_regressor)
    x = regress_joints(picker, ad.constant(toy_model.template[None]))
    assert np.array_equal(x.data[0], toy_model.template[[0, 5, 17, n - 1]])


def test_regress_uniform_row_is_centroid(toy_model):
    n = toy_model.n_vertices
    w = np.full((1, n), 1.0 / n)
    m = body.BodyModel(
        template=toy_model.template, shape_dirs=toy_model.shape_dirs,
        joint_regressor=w, parents=toy_model.parents,
        skin_weights=toy_model.skin_weights, rest_regressor=toy_model.rest_regressor)
    x = regress_joints(m, ad.constant(toy_model.template[None]))
    assert np.allclose(x.data[0, 0], toy_model.template.mean(axis=0), atol=1e-12)


def test_regress_rejects_wrong_vertex_count(toy_model):
    with pytest.raises(ad.ShapeError):
        regress_joints(toy_model, ad.constant(np.zeros((1, 10, 3))))


def test_regress_rows_built_from_rest_geometry_recover_rest(toy_model):
    # with W rows equal to the rest regressor's keypoint-joint rows, zero-pose
    # keypoints coincide with the rest joints
    rows = toy_model.rest_regressor[body.KEYPOINT_JOINTS[:14]]
    m = body.BodyModel(
        template=toy_model.template, shape_dirs=toy_model.shape_dirs,
        joint_regressor=rows, parents=toy_model.parents,
        skin_weights=toy_model.skin_weights, rest_regressor=toy_model.rest_regressor)
    verts = body.skin(m, np.zeros((1, 10)), np.zeros((1, 72)))
    x = regress_joints(m, verts).data[0]
    rest = toy_model.rest_regressor @ toy_model.template
    assert np.allclose(x, rest[body.KEYPOINT_JOINTS[:14]], atol=1e-12)


# ---------------------------------------------------------------------------
# toy model generator
# ---------------------------------------------------------------------------


def test_toy_model_deterministic():
    a = body.make_toy_model(seed=3)
    b = body.make_toy_model(seed=3)
    for field in ("template", "shape_dirs", "joint_regressor", "skin_weights", "rest_regressor"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = body.make_toy_model(seed=4)
    assert not np.array_equal(a.template, c.template)


def test_toy_model_rejects_too_few_vertices():
    with pytest.raises(ValidationError):
        body.make_toy_model(seed=0, n_vertices=10)


@pytest.mark.parametrize("seed", range(10))
def test_toy_model_invariants_over_seeds(seed):
    m = body.make_toy_model(seed=seed)
    assert np.max(np.abs(m.skin_weights.sum(axis=1) - 1)) < 1e-9
    assert np.max(np.abs(m.joint_regressor.sum(axis=1) - 1)) < 1e-9
    assert np.max(np.abs(m.rest_regressor.sum(axis=1) - 1)) < 1e-9
    # kinematic identities hold on every seed
    verts = body.skin(m, np.zeros((1, 10)), np.zeros((1, 72)))
    assert np.array_equal(verts.data[0], m.template)
    dirs_flat = m.shape_dirs.reshape(-1, 10)
    assert np.max(np.abs(dirs_flat.T @ dirs_flat - np.eye(10))) < 1e-9
    # pelvis rest joint sits at the origin (within roundoff)
    rest = m.rest_regressor @ m.template
    assert np.linalg.norm(rest[0]) < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_model_save_load_roundtrip(toy_model, tmp_path):
    path = tmp_path / "model.bin"
    body.save_model(toy_model, path)
    loaded = body.load_model(path)
    for field in ("template", "shape_dirs", "joint_regressor", "parents",
                  "skin_weights", "rest_regressor"):
        assert np.array_equal(getattr(toy_model, field), getattr(loaded, field))


def test_model_load_truncated_names_missing_part(toy_model, tmp_path):
    path = tmp_path / "model.bin"
    body.save_model(toy_model, path)
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValidationError) as ei:
        body.load_model(tmp_path / "cut.bin")
    assert "truncated" in str(ei.value) or "missing" in str(ei.value)


def test_model_load_rejects_bad_regressor_row(toy_model, tmp_path):
    bad = body.BodyModel(
        template=toy_model.template, shape_dirs=toy_model.shape_dirs,
        joint_regressor=toy_model.joint_regressor * 0.9, parents=toy_model.parents,
        skin_weights=toy_model.skin_weights, rest_regressor=toy_model.rest_regressor)
    path = tmp_path / "bad.bin"
    write_sections = [
        ("n_vertices", np.array([bad.template.shape[0]])),
        ("n_joints", np.array([24])),
        ("k_keypoints", np.array([bad.joint_regressor.shape[0]])),
        ("template", bad.template),
        ("shape_dirs", bad.shape_dirs),
        ("joint_regressor", bad.joint_regressor),
        ("parents", bad.parents),
        ("skin_weights", bad.skin_weights),
        ("rest_regressor", bad.rest_regressor),
    ]
    from meshmotion.container import write_container
    write_container(path, body.MODEL_MAGIC, write_sections)
    with pytest.raises(ValidationError) as ei:
        body.load_model(path)
    assert "joint_regressor" in str(ei.value)


# ---------------------------------------------------------------------------
# differentiability through the full mesh function
# ---------------------------------------------------------------------------


def test_skin_gradients_wrt_beta_and_theta(toy_model):
    rng = np.random.default_rng(11)
    beta = ad.parameter(rng.normal(0, 0.5, (1, 10)), name="beta")
    theta = ad.parameter(rng.normal(0, 0.4, (1, 72)), name="theta")
    probe = ad.constant(rng.standard_normal((1, toy_model.n_vertices, 3)))

    def loss():
        return ad.sum_(ad.mul(body.skin(toy_model, beta, theta), probe))

    err = ad.finite_diff_check(loss, [beta, theta], max_coords=24, rng=np.random.default_rng(1))
    assert err < 1e-4


def test_batched_joint_transforms_match_per_joint_chain_bit_for_bit(toy_model):
    rng = np.random.default_rng(22)
    beta = ad.parameter(rng.normal(0, 0.5, (6, 10)), name="beta")
    theta = ad.parameter(rng.normal(0, 0.4, (6, 72)), name="theta")
    w_g = ad.constant(rng.standard_normal((6, body.N_JOINTS, 4, 4)))
    w_j = ad.constant(rng.standard_normal((6, body.N_JOINTS, 3)))
    results = []

    def library_transforms(model, shaped, theta):
        joints_rest = ad.matmul(model.rest_regressor, shaped)
        g = body._joint_transforms(model.parents, body.pose_rotations(theta), joints_rest)
        return g, joints_rest, body._posed_joints(g, joints_rest)

    for transforms in (library_transforms, composite_rest_relative_transforms):
        beta.grad, theta.grad = None, None
        g, _, posed = transforms(toy_model, body.shaped_template(toy_model, beta), theta)
        ad.add(ad.sum_(ad.mul(g, w_g)), ad.sum_(ad.mul(posed, w_j))).backward()
        results.append((g.data.copy(), posed.data.copy(), beta.grad.copy(), theta.grad.copy()))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_skin_builds_no_posed_joints(toy_model, monkeypatch):
    """Mesh skinning makes four products: blendshapes, rest joints, per-vertex
    transforms and their action on the vertices; posed joints are
    forward_kinematics' work."""
    products = []
    matmul = ad.matmul

    def counting(a, b):
        products.append((tuple(ad.as_tensor(a).shape), tuple(ad.as_tensor(b).shape)))
        return matmul(a, b)

    monkeypatch.setattr(ad, "matmul", counting)
    rng = np.random.default_rng(23)
    body.skin(toy_model, rng.normal(0, 0.5, (3, 10)), rng.normal(0, 0.4, (3, 72)))
    assert len(products) == 4, products


def test_skin_gradients_near_zero_pose(toy_model):
    rng = np.random.default_rng(12)
    theta = ad.parameter(np.zeros((1, 72)), name="theta")
    probe = ad.constant(rng.standard_normal((1, toy_model.n_vertices, 3)))

    def loss():
        return ad.sum_(ad.mul(body.skin(toy_model, ad.constant(np.zeros((1, 10))), theta), probe))

    err = ad.finite_diff_check(loss, theta, max_coords=24, rng=np.random.default_rng(2))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# the folded keypoint path
# ---------------------------------------------------------------------------

# relative tolerance of the fold against skinning then regressing: both sum
# the same linear maps in a different order, so they agree to roundoff
# (about 1.5e-15 measured); 1e-12 leaves room for other BLAS builds
FOLD_RTOL = 1e-12


@pytest.mark.parametrize("rows", [1, 7, 384])
@pytest.mark.parametrize("pose_scale", [0.0, 1e-9, 0.6])
def test_folded_keypoints_match_skin_then_regress(toy_model, rows, pose_scale):
    rng = np.random.default_rng(rows)
    beta = ad.parameter(rng.normal(0, 0.7, (rows, 10)), name="beta")
    theta = ad.parameter(rng.standard_normal((rows, 72)) * pose_scale, name="theta")
    probe = ad.constant(rng.standard_normal((rows, toy_model.n_keypoints, 3)))
    results = []
    for keypoints in (lambda: body.keypoints_3d(toy_model, beta, theta),
                      lambda: regress_joints(toy_model, body.skin(toy_model, beta, theta))):
        beta.grad, theta.grad = None, None
        x = keypoints()
        ad.sum_(ad.mul(x, probe)).backward()
        results.append((x.data, beta.grad, theta.grad))
    for got, want in zip(*results):
        assert np.max(np.abs(got - want)) <= FOLD_RTOL * np.max(np.abs(want))
    # the rotation block of the same rows gives the same keypoints, bit for bit
    rots = body.pose_rotations(ad.constant(theta.data))
    assert np.array_equal(body.keypoints_3d(toy_model, beta, rots).data, results[0][0])


# ---------------------------------------------------------------------------
# rows only
# ---------------------------------------------------------------------------

ROWS_ONLY = {
    "rodrigues": lambda m: body.rodrigues(np.zeros(3)),
    "shaped_template": lambda m: body.shaped_template(m, np.zeros(10)),
    "forward_kinematics": lambda m: body.forward_kinematics(m, np.zeros(10), np.zeros(72)),
    "skin_single_shape": lambda m: body.skin(m, np.zeros(10), np.zeros((1, 72))),
    "skin_single_pose": lambda m: body.skin(m, np.zeros((1, 10)), np.zeros(72)),
    "skin_single_rotations": lambda m: body.skin(m, np.zeros((1, 10)), np.tile(np.eye(3), (24, 1, 1))),
    "keypoints_3d_single_shape": lambda m: body.keypoints_3d(m, np.zeros(10), np.zeros((1, 72))),
    "keypoints_3d_single_pose": lambda m: body.keypoints_3d(m, np.zeros((1, 10)), np.zeros(72)),
    "raw_to_full": lambda m: losses.raw_to_full(np.zeros(85)),
    "beta_prior": lambda m: losses.beta_prior(np.zeros(10)),
    "procrustes_align": lambda m: metrics.procrustes_align(m.template[:6], m.template[:6]),
}


def test_keypoints_3d_single_frame_form_is_its_one_row_batch(toy_model):
    rng = np.random.default_rng(24)
    beta, pose = rng.normal(0, 0.5, 10), rng.normal(0, 0.4, 72)
    one_row = body.keypoints_3d(toy_model, beta[None], pose[None]).data
    assert np.array_equal(body.keypoints_3d(toy_model, beta, pose).data, one_row[0])


@pytest.mark.parametrize("name", sorted(ROWS_ONLY))
def test_single_item_input_is_a_shape_error(toy_model, name):
    with pytest.raises(ad.ShapeError):
        ROWS_ONLY[name](toy_model)
