import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import meshmotion
from meshmotion import autodiff as ad
from meshmotion import body, cli, data, losses, metrics, nets, training
from meshmotion.container import ValidationError, read_container, write_container
from oracles import parse_prediction_dump

TINY_ARCH = ["--set", "feature_dim=24", "--set", "gn_groups=4", "--set", "gn_group_size=6",
             "--set", "ief_hidden=16", "--set", "disc_hidden=8"]
TINY_TRAIN = ["--set", "seq_len=13", "--set", "batch_size=2",
              "--set", "delta_centers_per_seq=1", "--set", "checkpoint_every=100000"]
TINY_NET = TINY_ARCH + TINY_TRAIN


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.run(["gen-model", "--out", str(root / "model.bin"), "--seed", "0"]) == 0
    assert cli.run(["gen-data", "--model", str(root / "model.bin"),
                    "--out", str(root / "data.bin"), "--seqs", "3", "--frames", "16",
                    "--seed", "4", "--feature-dim", "24", "--vis-dropout", "0.0",
                    "--feature-noise", "0.01"]) == 0
    return root


# ---------------------------------------------------------------------------
# generation commands
# ---------------------------------------------------------------------------


def test_gen_model_outputs_loadable_and_seed_stable(tmp_path):
    a, b, c = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
    assert cli.run(["gen-model", "--out", str(a), "--seed", "7"]) == 0
    assert cli.run(["gen-model", "--out", str(b), "--seed", "7"]) == 0
    assert cli.run(["gen-model", "--out", str(c), "--seed", "8"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    body.load_model(a)


def test_gen_data_outputs_loadable_and_seed_stable(workdir, tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["gen-data", "--model", str(workdir / "model.bin"), "--seqs", "2",
            "--frames", "12", "--seed", "9", "--feature-dim", "24"]
    assert cli.run(args + ["--out", str(a)]) == 0
    assert cli.run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(data.load_dataset(a)) == 2


def test_gen_data_rejects_bad_split_sizes_before_writing(workdir, tmp_path, capsys):
    out, held = tmp_path / "d.bin", tmp_path / "h.bin"
    base = ["gen-data", "--model", str(workdir / "model.bin"), "--out", str(out),
            "--holdout-out", str(held), "--frames", "12", "--feature-dim", "24"]
    for sizes in (["--seqs", "5", "--holdout", "-2"], ["--seqs", "0"], ["--seqs", "-1"]):
        assert cli.run(base + sizes) == 2
        assert "--seqs must be at least 1" in capsys.readouterr().err
        assert not out.exists() and not held.exists()


def test_invalid_flag_usage_error():
    assert cli.run(["gen-model", "--no-such-flag", "x"]) == 1
    assert cli.run(["frobnicate"]) == 1


def test_parser_is_built_once_and_carries_no_values_between_calls(monkeypatch):
    """One parser serves every call: repeated options start empty on each
    call, a usage error still exits 1, and the command runs by its name."""
    seen = []
    monkeypatch.setattr(cli, "cmd_train", lambda args: seen.append(args) or 0)
    train = ["train", "--model", "m.bin", "--out", "run"]
    assert cli.run(train + ["--data", "a.bin", "--data", "b.bin::2", "--set", "lr=0.5",
                            "--set", "steps=3"]) == 0
    assert cli.run(["train", "--model", "m.bin", "--data", "a.bin", "--no-such-flag"]) == 1
    assert cli.run(train + ["--data", "c.bin"]) == 0
    assert cli.run(train + ["--data", "d.bin", "--set", "seed=4"]) == 0
    assert [(a.data, a.set) for a in seen] == [(["a.bin", "b.bin::2"], ["lr=0.5", "steps=3"]),
                                              (["c.bin"], None), (["d.bin"], ["seed=4"])]
    assert cli.build_parser() is cli.build_parser()
    assert cli.run(["train", "--model", "m.bin", "--out", "run"]) == 1   # --data is required


def test_missing_file_validation_error(tmp_path):
    code = cli.run(["gen-data", "--model", str(tmp_path / "missing.bin"),
                    "--out", str(tmp_path / "d.bin")])
    assert code == 2


def subprocess_env(drop=()):
    """This environment without ``drop``, with the package's source on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(meshmotion.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entrypoint_runs():
    out = subprocess.run([sys.executable, "-m", "meshmotion.cli", "--help"],
                         capture_output=True, text=True, env=subprocess_env())
    assert out.returncode == 0
    assert "gradcheck" in out.stdout


@pytest.mark.parametrize("first,pinned", [("numpy", False), ("numpy", True),
                                          ("meshmotion", False)])
def test_blas_pin_warns_only_when_it_cannot_work(first, pinned):
    """Importing numpy first without OPENBLAS_NUM_THREADS leaves the host's
    thread count in place; that one order, and only it, must warn."""
    env = subprocess_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    out = subprocess.run([sys.executable, "-W", "always", "-c",
                          f"import {first}, numpy, meshmotion"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert ("RuntimeWarning" in out.stderr) == (first == "numpy" and not pinned), out.stderr


def test_package_does_not_import_scipy():
    """scipy is a test-suite dependency only; the suite itself imports it, so
    the check runs in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c",
                          "import sys, meshmotion.cli; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_file_parsing_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment\nfeature_dim=24\ngn_groups=4\ngn_group_size=6\n"
                   "w_2d=10\nlr=0.001\ndelta_steps=-3,3\njitter_scale=0.95,1.05\n")
    enc, tcfg = cli.build_configs(cli.parse_config_file(cfg))
    assert enc.feature_dim == 24 and enc.delta_steps == (-3, 3)
    assert tcfg.weights.w_2d == 10.0 and tcfg.lr == 0.001
    assert tcfg.jitter_scale == (0.95, 1.05)


def test_every_config_field_round_trips():
    """Each field of the three config dataclasses is a key; a non-default
    value written as text comes back with its value and type."""
    def other(v):
        if isinstance(v, bool):
            return not v
        if isinstance(v, tuple):
            return tuple(other(x) for x in v)
        return v + 2 if isinstance(v, int) else v + 0.25

    expect = {f.name: other(f.default)
              for cls in (nets.EncoderConfig, training.TrainConfig, losses.LossWeights)
              for f in fields(cls) if f.name != "weights"}
    expect["feature_dim"] = expect["gn_groups"] * expect["gn_group_size"]  # the group-norm layout
    text = {key: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for key, v in expect.items()}
    enc, tcfg = cli.build_configs(text)
    got = vars(enc) | vars(tcfg) | vars(tcfg.weights)
    for key, val in expect.items():
        assert repr(got[key]) == repr(val), key      # value and type, tuples element-wise


def test_config_rejects_unknown_key():
    with pytest.raises(ValidationError):
        cli.build_configs({"definitely_not_a_key": "1"})


# ---------------------------------------------------------------------------
# train / resume / determinism
# ---------------------------------------------------------------------------


def test_train_zero_steps_writes_initial_checkpoint(workdir, tmp_path):
    out = tmp_path / "run0"
    code = cli.run(["train", "--model", str(workdir / "model.bin"),
                    "--data", str(workdir / "data.bin"), "--out", str(out),
                    "--steps", "0", "--seed", "5"] + TINY_NET)
    assert code == 0
    loaded, step, _, _, _ = nets.load_checkpoint(out / "checkpoint.bin")
    assert step == 0
    fresh = nets.ModelNets.create(loaded.cfg, seed=5)
    for name, p in loaded.named_params().items():
        assert np.array_equal(p.data, fresh.named_params()[name].data), name


def test_train_resume_bit_identical(workdir, tmp_path):
    base = ["train", "--model", str(workdir / "model.bin"),
            "--data", str(workdir / "data.bin"), "--seed", "5"] + TINY_NET
    straight = tmp_path / "straight"
    assert cli.run(base + ["--out", str(straight), "--steps", "6"]) == 0
    half = tmp_path / "half"
    assert cli.run(base + ["--out", str(half), "--steps", "3"]) == 0
    resumed = tmp_path / "resumed"
    assert cli.run(base + ["--out", str(resumed), "--steps", "6",
                           "--resume", str(half / "checkpoint.bin")]) == 0
    assert (straight / "checkpoint.bin").read_bytes() == (resumed / "checkpoint.bin").read_bytes()
    # overlapping rows of the loss history agree
    s_rows = (straight / "losses.csv").read_text().splitlines()
    r_rows = (resumed / "losses.csv").read_text().splitlines()
    assert s_rows[4:] == r_rows[1:]


@pytest.mark.parametrize("flag,key,value", [("--set", "ief_hidden", "64"),
                                            ("--set", "use_hal", "false"),
                                            ("--set", "delta_steps", "-3,3"),
                                            ("--config", "kernel", "5")])
def test_train_resume_rejects_conflicting_architecture(workdir, tmp_path, capsys, flag, key, value):
    base = ["train", "--model", str(workdir / "model.bin"),
            "--data", str(workdir / "data.bin"), "--steps", "1", "--seed", "5"]
    first = tmp_path / "first"
    assert cli.run(base + ["--out", str(first)] + TINY_NET) == 0
    ckpt = first / "checkpoint.bin"
    given = {"--set": ["--set", f"{key}={value}"],
             "--config": ["--config", str(tmp_path / "arch.cfg")]}[flag]
    (tmp_path / "arch.cfg").write_text(f"{key}={value}\n")
    resumed = tmp_path / "resumed"
    capsys.readouterr()
    assert cli.run(base + ["--out", str(resumed), "--resume", str(ckpt)] + TINY_NET + given) == 2
    err = capsys.readouterr().err
    saved = nets.load_checkpoint(ckpt)[0].cfg
    assert str(ckpt) in err and f"{key}={getattr(saved, key)!r}" in err, err
    assert not resumed.exists()
    # keys that are not given take the checkpoint's values
    assert cli.run(base + ["--out", str(resumed), "--resume", str(ckpt)] + TINY_TRAIN) == 0
    assert nets.load_checkpoint(resumed / "checkpoint.bin")[0].cfg == saved


def test_train_losses_csv_byte_stable(workdir, tmp_path):
    base = ["train", "--model", str(workdir / "model.bin"),
            "--data", str(workdir / "data.bin"), "--steps", "3", "--seed", "5"] + TINY_NET
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.run(base + ["--out", str(out1)]) == 0
    assert cli.run(base + ["--out", str(out2)]) == 0
    assert (out1 / "losses.csv").read_bytes() == (out2 / "losses.csv").read_bytes()


def test_train_nan_feature_exits_numerical_and_writes_nothing(workdir, tmp_path, capsys):
    from dataclasses import replace
    bundle = data.load_dataset(workdir / "data.bin")
    seqs = []
    for s in bundle:
        feats = s.features.copy()
        feats[8] = np.nan       # inside every 13-frame window
        seqs.append(replace(s, features=feats))
    data.save_dataset(data.DatasetBundle(seqs, bundle.feature_meta), tmp_path / "nan.bin")
    out = tmp_path / "run"
    code = cli.run(["train", "--model", str(workdir / "model.bin"),
                    "--data", str(tmp_path / "nan.bin"), "--out", str(out),
                    "--steps", "3", "--seed", "5"] + TINY_NET + ["--set", "checkpoint_every=1"])
    assert code == cli.NUMERICAL_EXIT == 3
    assert "non-finite loss terms l2d" in capsys.readouterr().err
    assert not out.exists()


def test_train_nan_after_two_steps_keeps_their_losses(workdir, tmp_path, monkeypatch, capsys):
    from dataclasses import replace
    base = ["train", "--model", str(workdir / "model.bin"), "--data", str(workdir / "data.bin"),
            "--steps", "4", "--seed", "5"] + TINY_NET + ["--set", "checkpoint_every=1"]
    clean = tmp_path / "clean"
    assert cli.run(base + ["--out", str(clean)]) == 0
    real_step = training.train_step

    def step_nan_from_step_2(model, state, batch, cfg, **kwargs):
        if state.step >= 2:
            batch = [(replace(s, features=np.full_like(s.features, np.nan)), w0) for s, w0 in batch]
        return real_step(model, state, batch, cfg, **kwargs)

    monkeypatch.setattr(training, "train_step", step_nan_from_step_2)
    out = tmp_path / "run"
    assert cli.run(base + ["--out", str(out)]) == cli.NUMERICAL_EXIT
    assert "step 2: non-finite loss terms" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["ckpt_000001.bin", "ckpt_000002.bin",
                                                     "losses.csv"]
    # the header and the two finished steps, as the clean run wrote them
    assert (out / "losses.csv").read_text().splitlines() == \
        (clean / "losses.csv").read_text().splitlines()[:3]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(workdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = cli.run(["train", "--model", str(workdir / "model.bin"),
                    "--data", str(workdir / "data.bin"), "--out", str(out),
                    "--steps", "5", "--seed", "1"] + TINY_NET)
    assert code == 0
    return out / "checkpoint.bin"


@pytest.mark.parametrize("kind,section,cut", [
    ("ckpt", "step", 1), ("ckpt", "adam_steps", 1), ("ckpt", "adam_m/f_3d.out.w", 1),
    ("data", "seq0/fps", 1),
    ("data", "seq1/kp2d", 2), ("data", "feature_meta/qcam", 1), ("model", "template", 1)])
def test_malformed_section_exits_validation(workdir, trained, tmp_path, capsys, kind, section, cut):
    files = {"model": (workdir / "model.bin", body.MODEL_MAGIC),
             "data": (workdir / "data.bin", data.DATA_MAGIC),
             "ckpt": (trained, nets.CKPT_MAGIC)}
    src, magic = files[kind]
    bad = tmp_path / src.name
    sections = read_container(src, magic)
    sections[section] = sections[section][:-cut]
    write_container(bad, magic, list(sections.items()))
    paths = {name: str(bad if name == kind else path) for name, (path, _) in files.items()}
    if section == "adam_steps":
        argv = ["train", "--model", paths["model"], "--data", paths["data"],
                "--out", str(tmp_path / "run"), "--steps", "1", "--resume", paths["ckpt"]] + TINY_NET
    else:
        argv = ["eval", "--model", paths["model"], "--ckpt", paths["ckpt"],
                "--data", paths["data"], "--out", str(tmp_path / "eval")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"'{section}'" in err, err


def test_loaded_arrays_own_aligned_writable_memory(workdir, trained):
    """No loaded array is a view into a file's bytes."""
    model = body.load_model(workdir / "model.bin")
    bundle = data.load_dataset(workdir / "data.bin")
    arrays = {f"model.{name}": getattr(model, name)
              for name in ("template", "shape_dirs", "joint_regressor", "parents",
                           "skin_weights", "rest_regressor")}
    for seq in bundle.sequences:
        for name in ("kp2d", "vis", "features", "theta_gt"):
            arrays[f"{seq.id}.{name}"] = getattr(seq, name)
    arrays["feature_meta.qcam"] = bundle.feature_meta.qcam
    arrays |= {f"param/{name}": p.data
               for name, p in nets.load_checkpoint(trained)[0].named_params().items()}
    for name, arr in arrays.items():
        flags = arr.flags
        assert flags.c_contiguous and flags.aligned and flags.writeable and flags.owndata, name


def test_eval_oracle_gt_reports_zero(workdir, trained, tmp_path):
    out = tmp_path / "eval"
    code = cli.run(["eval", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                    "--data", str(workdir / "data.bin"), "--out", str(out), "--oracle-gt"])
    assert code == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    header = rows[0].split(",")
    all_row = dict(zip(header, rows[-1].split(",")))
    assert float(all_row["pck"]) == 1.0
    assert abs(float(all_row["mpjpe_mm"])) < 1e-5
    assert abs(float(all_row["accel_err_mm_s2"])) < 1e-5


def test_eval_csv_stable_across_reruns(workdir, trained, tmp_path):
    outs = []
    for tag in ("e1", "e2"):
        out = tmp_path / tag
        assert cli.run(["eval", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                        "--data", str(workdir / "data.bin"), "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_eval_dynamics_mode_writes_both_reports(workdir, trained, tmp_path):
    out = tmp_path / "dyn"
    code = cli.run(["eval", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                    "--data", str(workdir / "data.bin"), "--out", str(out),
                    "--mode", "hallucinated-dynamics",
                    "--train-data", str(workdir / "data.bin")])
    assert code == 0
    assert (out / "metrics.csv").exists()
    dyn = (out / "dynamics.csv").read_text().splitlines()
    assert dyn[0].startswith("method")
    assert {r.split(",")[0] for r in dyn[1:]} == {"ours", "constant", "nearest_neighbor"}


def test_eval_dynamics_skins_each_ground_truth_once(workdir, trained, tmp_path, monkeypatch):
    calls = []
    gt_joints_of = metrics.gt_joints_of

    def counting(model, samples):
        samples = list(samples)
        calls.append([s.id for s in samples])
        return gt_joints_of(model, samples)

    kp3d_rows = []
    keypoints_3d = body.keypoints_3d

    def counting_kp3d(model, beta, pose):
        kp3d_rows.append(pose.shape[0])
        return keypoints_3d(model, beta, pose)

    monkeypatch.setattr(metrics, "gt_joints_of", counting)
    monkeypatch.setattr(body, "keypoints_3d", counting_kp3d)
    assert cli.run(["eval", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                    "--data", str(workdir / "data.bin"), "--out", str(tmp_path / "dyn"),
                    "--mode", "hallucinated-dynamics",
                    "--train-data", str(workdir / "data.bin")]) == 0
    ids = [s.id for s in data.load_dataset(workdir / "data.bin")]
    n_frames = sum(len(s.theta_gt) for s in data.load_dataset(workdir / "data.bin"))
    n_steps = len(nets.load_checkpoint(trained)[0].deltas)
    # one ground-truth call for the whole test set and one for the training pool
    assert calls == [ids, ids]
    # the test set's ground truth, evaluate's one prediction pass (current and
    # delta rows), whose rows the dynamics protocol reuses, and the training pool
    assert kp3d_rows == [n_frames, n_frames * (1 + n_steps), n_frames]


def test_eval_scores_mixed_lengths_as_each_sequence_alone(workdir, trained, tmp_path):
    model = body.load_model(workdir / "model.bin")
    short = data.gen_synthetic_dataset(model, 2, 16, 25.0, seed=41, feature_dim=24,
                                       vis_dropout=0.3, feature_noise=0.01)
    long_ = data.gen_synthetic_dataset(model, 1, 20, 25.0, seed=42, feature_dim=24,
                                       vis_dropout=0.3, feature_noise=0.01)
    seqs = [short.sequences[0], long_.sequences[0], short.sequences[1]]

    def metrics_rows(sequences, name):
        path = tmp_path / f"{name}.bin"
        data.save_dataset(data.DatasetBundle(sequences, short.feature_meta), path)
        assert cli.run(["eval", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                        "--data", str(path), "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "metrics.csv").read_text().splitlines()

    rows = metrics_rows(seqs, "mixed")
    assert len(rows) == 1 + len(seqs) + 1
    for i, s in enumerate(seqs):
        assert metrics_rows([s], f"alone{i}")[1] == rows[1 + i]


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_dump_parses_and_matches_recomputation(workdir, trained, tmp_path):
    model = body.load_model(workdir / "model.bin")
    dump = tmp_path / "pred.txt"
    code = cli.run(["predict", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                    "--data", str(workdir / "data.bin"), "--seq", "0", "--frame", "7",
                    "--out", str(dump)])
    assert code == 0
    sections = parse_prediction_dump(dump)
    for tag in ("past", "current", "future"):
        theta = sections[f"theta_{tag}"]
        assert theta.shape == (85,)
        verts = sections[f"vertices_{tag}"].reshape(model.n_vertices, 3)
        recomputed = body.skin(model, theta[None, :10], theta[None, 10:82]).data[0]
        assert np.allclose(verts, recomputed, atol=1e-5)  # dump is 6-decimal text
    # hallucinated current prediction equals regressor(hallucinator(phi))
    bundle = data.load_dataset(workdir / "data.bin")
    nets_model, _, _, _, _ = nets.load_checkpoint(trained)
    phi = nets_model.hallucinator(ad.constant(bundle.sequences[0].features[7][None, :]))
    expect = losses.raw_to_full(nets_model.regressor(phi)).data[0]
    assert np.allclose(sections["theta_current"], expect, atol=1e-6)


def test_predict_dump_matches_inference_rows(workdir, trained, tmp_path):
    dump = tmp_path / "pred.txt"
    assert cli.run(["predict", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                    "--data", str(workdir / "data.bin"), "--seq", "0", "--frame", "7",
                    "--out", str(dump)]) == 0
    sections = parse_prediction_dump(dump)
    # the whole sequence through the inference function; row 7 is the frame
    model = body.load_model(workdir / "model.bin")
    nets_model, _, _, _, _ = nets.load_checkpoint(trained)
    features = data.load_dataset(workdir / "data.bin").sequences[0].features
    pred = metrics.predict_sequence(model, nets_model, [features], "single-frame", deltas=True)
    full = pred["full"][7]
    half_digit = 5e-7 + 1e-12        # the dump rounds to 6 decimals
    for tag, pose in (("past", pred["pose_past"][7]), ("current", full[10:82]),
                      ("future", pred["pose_future"][7])):
        expect = np.concatenate([full[:10], pose, full[82:]])
        assert np.allclose(sections[f"theta_{tag}"], expect, rtol=0, atol=half_digit), tag
        assert np.allclose(sections[f"joints_{tag}"].reshape(-1, 3), pred[f"joints_{tag}"][7],
                           rtol=0, atol=half_digit), tag


def test_predict_untrained_net_outputs_mean_pose(workdir, tmp_path):
    out = tmp_path / "zero"
    assert cli.run(["train", "--model", str(workdir / "model.bin"),
                    "--data", str(workdir / "data.bin"), "--out", str(out),
                    "--steps", "0", "--seed", "2"] + TINY_NET) == 0
    dump = tmp_path / "p.txt"
    assert cli.run(["predict", "--model", str(workdir / "model.bin"),
                    "--ckpt", str(out / "checkpoint.bin"),
                    "--data", str(workdir / "data.bin"), "--seq", "0", "--frame", "7",
                    "--out", str(dump)]) == 0
    sections = parse_prediction_dump(dump)
    nets_model, _, _, _, _ = nets.load_checkpoint(out / "checkpoint.bin")
    mean_pose = nets_model.regressor.theta_mean.data[10:82]
    # small-initialized output layers keep an untrained net near the mean
    for tag in ("past", "current", "future"):
        assert np.max(np.abs(sections[f"theta_{tag}"][10:82] - mean_pose)) < 0.2


def test_predict_frame_out_of_range(workdir, trained, tmp_path):
    code = cli.run(["predict", "--model", str(workdir / "model.bin"), "--ckpt", str(trained),
                    "--data", str(workdir / "data.bin"), "--seq", "0", "--frame", "99",
                    "--out", str(tmp_path / "x.txt")])
    assert code == 2


@pytest.fixture(scope="module")
def no_hallucinator(workdir, tmp_path_factory):
    """An untrained checkpoint without a hallucinator."""
    out = tmp_path_factory.mktemp("no_hal")
    assert cli.run(["train", "--model", str(workdir / "model.bin"),
                    "--data", str(workdir / "data.bin"), "--out", str(out), "--steps", "0",
                    "--seed", "2", "--set", "use_hal=false"] + TINY_NET) == 0
    return out / "checkpoint.bin"


def test_refused_train_leaves_no_output_directory(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.run(["train", "--model", str(workdir / "model.bin"),
                    "--data", str(workdir / "data.bin"), "--out", str(out), "--steps", "1",
                    "--seed", "5"] + TINY_NET + ["--set", "seq_len=40"]) == 2
    assert "no usable datasets to mix" in capsys.readouterr().err
    assert not out.exists()


def test_refused_eval_leaves_no_output_directory(workdir, no_hallucinator, tmp_path):
    out = tmp_path / "eval"
    assert cli.run(["eval", "--model", str(workdir / "model.bin"),
                    "--ckpt", str(no_hallucinator), "--data", str(workdir / "data.bin"),
                    "--out", str(out), "--mode", "hallucinated-dynamics"]) == 2
    assert not out.exists()


def test_eval_and_predict_refuse_a_checkpoint_without_dynamics_alike(
        workdir, no_hallucinator, tmp_path, capsys):
    inputs = ["--model", str(workdir / "model.bin"), "--ckpt", str(no_hallucinator),
              "--data", str(workdir / "data.bin")]
    errors = []
    for argv in (["eval", *inputs, "--out", str(tmp_path / "e"), "--mode", "hallucinated-dynamics"],
                 ["predict", *inputs, "--frame", "7", "--out", str(tmp_path / "p.txt")]):
        capsys.readouterr()
        assert cli.run(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "delta predictors and a hallucinator" in errors[0], errors[0]


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_command_passes(tmp_path):
    report = tmp_path / "grad.csv"
    assert cli.run(["gradcheck", "--seed", "0", "--out", str(report)]) == 0
    rows = report.read_text().splitlines()
    assert rows[0] == "check,max_rel_err,pass"
    assert all(r.endswith(",1") for r in rows[1:])


def test_gradcheck_op_cases_cover_every_differentiable_op(monkeypatch):
    """Each public autodiff function that records a tape node is called by an
    ``op:`` case, and a case whose op is gone would fail to build."""
    not_ops = {"as_tensor", "constant", "parameter", "no_grad", "custom_op", "zero_grads",
               "finite_diff_check"}
    ops = sorted(name for name, fn in vars(ad).items()
                 if callable(fn) and getattr(fn, "__module__", None) == ad.__name__
                 and not name.startswith("_") and name not in not_ops
                 and not isinstance(fn, type))
    called = set()
    for name in ops:
        fn = getattr(ad, name)
        monkeypatch.setattr(ad, name, lambda *a, _n=name, _f=fn, **k: called.add(_n) or _f(*a, **k))
    for case, build in cli._gradcheck_cases(0):
        if case.startswith("op:"):
            f, _ = build()
            f()
    assert {"neg", "matmul_add", "reshape"} <= set(ops)
    assert called == set(ops), sorted(set(ops) - called)


def test_gradcheck_checks_the_training_objective(monkeypatch):
    """A ``path:`` case differentiates ``training.objective`` itself, not a
    copy of the terms it sums."""
    calls = []
    objective = training.objective
    monkeypatch.setattr(training, "objective",
                        lambda *a, **k: calls.append(a) or objective(*a, **k))
    callers = []
    for case, build in cli._gradcheck_cases(0):
        if case.startswith("path:"):
            f, _ = build()
            before = len(calls)
            f()
            if len(calls) > before:
                callers.append(case)
    assert callers == ["path:objective"]


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    real_relu = ad.relu

    def bad_relu(a):
        a = ad.as_tensor(a)
        mask = a.data > 0.0

        def backward_fn(g):
            if a.requires_grad:
                a._accum(g * mask * 1.5)  # wrong slope

        return ad._node(a.data * mask, (a,), backward_fn)

    monkeypatch.setattr(ad, "relu", bad_relu)
    code = cli.run(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "op:relu" in out and "FAIL" in out
    monkeypatch.setattr(ad, "relu", real_relu)
