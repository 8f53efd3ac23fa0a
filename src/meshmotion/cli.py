"""Command-line entry point: data generation, training, evaluation, dynamics
prediction, and the gradient verification harness.

Exit codes: 0 success, 1 usage error, 2 validation error (bad files, bad
config, unmet preconditions), 3 numerical failure (gradient check above
tolerance, non-finite values).

Configuration is a flat key=value text file ('#' comments allowed); any key
can be overridden on the command line with --set key=value. The keys are
the fields of ``nets.EncoderConfig`` (architecture), ``training.TrainConfig``
(trainer) and ``losses.LossWeights`` (loss weights), each parsed as its
default's type: booleans as 1/0, true/false, yes/no or on/off, and tuples
as comma lists (``delta_steps=-5,5``, ``jitter_scale=0.9,1.1``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import body, camera, data, losses, metrics, nets, training
from .container import ValidationError, replacing_open

USAGE_EXIT, VALIDATION_EXIT, NUMERICAL_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def _parse_bool(raw):
    lower = raw.strip().lower()
    if lower in ("1", "true", "yes", "on"):
        return True
    if lower in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parser(default):
    """Text parser for a config value of ``default``'s type."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        elem = type(default[0])
        return lambda raw: tuple(elem(x) for x in raw.split(",") if x.strip() != "")
    return type(default)


_CONFIG_CLASSES = (nets.EncoderConfig, training.TrainConfig, losses.LossWeights)
# key -> (config class, parser); TrainConfig.weights is set through LossWeights' keys
_CONFIG_KEYS = {f.name: (cls, _parser(f.default))
                for cls in _CONFIG_CLASSES for f in fields(cls) if f.name != "weights"}


def parse_config_file(path) -> dict:
    out = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def build_configs(raw: dict):
    """Flat key/value dict -> (EncoderConfig, TrainConfig)."""
    kwargs = {cls: {} for cls in _CONFIG_CLASSES}
    for key, val in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        cls, parse = _CONFIG_KEYS[key]
        try:
            kwargs[cls][key] = parse(val)
        except ValueError as exc:
            raise ValidationError(f"config key {key}={val!r}: cannot parse") from exc
    tcfg = training.TrainConfig(**kwargs[training.TrainConfig],
                                weights=losses.LossWeights(**kwargs[losses.LossWeights]))
    enc = nets.EncoderConfig(**kwargs[nets.EncoderConfig]).validate()
    return enc, tcfg


def _gather_config(args) -> dict:
    raw = {}
    if getattr(args, "config", None):
        raw.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        raw[key.strip()] = val.strip()
    if getattr(args, "steps", None) is not None:
        raw["steps"] = str(args.steps)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = str(args.seed)
    return raw


def _load_datasets(specs):
    out = []
    for spec in specs:
        path, _, ratio = spec.partition("::")
        out.append((data.load_dataset(path), int(ratio) if ratio else 1))
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_model(args) -> int:
    model = body.make_toy_model(seed=args.seed, n_vertices=args.vertices,
                                k_keypoints=args.keypoints)
    body.save_model(model, args.out)
    print(f"model: {model.n_vertices} vertices, {body.N_JOINTS} joints, "
          f"{model.n_keypoints} keypoints -> {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    if args.seqs < 1 or args.holdout < 0:
        raise ValidationError(f"--seqs must be at least 1 and --holdout at least 0, got "
                              f"{args.seqs} and {args.holdout}")
    model = body.load_model(args.model)
    if args.holdout and not args.holdout_out:
        raise ValidationError("--holdout needs --holdout-out")
    bundle = data.gen_synthetic_dataset(
        model, n_seqs=args.seqs + args.holdout, n_frames=args.frames, fps=args.fps,
        seed=args.seed, motion_kind=args.motion, feature_dim=args.feature_dim,
        tier=args.tier, vis_dropout=args.vis_dropout, feature_noise=args.feature_noise,
        kp_noise=args.kp_noise)
    main_bundle = data.DatasetBundle(bundle.sequences[:args.seqs], bundle.feature_meta)
    data.save_dataset(main_bundle, args.out)
    t = bundle.sequences[0].n_frames
    print(f"dataset: {args.seqs} sequences x {t} frames, k={model.n_keypoints}, "
          f"D={args.feature_dim}, tier={args.tier} -> {args.out}")
    if args.holdout:
        held = data.DatasetBundle(bundle.sequences[args.seqs:], bundle.feature_meta)
        data.save_dataset(held, args.holdout_out)
        print(f"held-out split: {args.holdout} sequences from the same generative family "
              f"-> {args.holdout_out}")
    return 0


def cmd_train(args) -> int:
    model = body.load_model(args.model)
    datasets = _load_datasets(args.data)
    raw = _gather_config(args)
    enc, tcfg = build_configs(raw)
    if args.resume:
        nets_model, step, adam_m, adam_v, adam_steps = nets.load_checkpoint(args.resume)
        for f in fields(nets.EncoderConfig):   # keys not given take the checkpoint's values
            given, saved = getattr(enc, f.name), getattr(nets_model.cfg, f.name)
            if f.name in raw and given != saved:
                raise ValidationError(f"{args.resume}: {f.name}={given!r} was given, but the "
                                      f"checkpoint was trained with {f.name}={saved!r}")
        state = training.init_state(nets_model, tcfg)
        state.step = step
        if adam_steps is not None:
            state.adam_gen.load_state(adam_m, adam_v, adam_steps["gen"])
            state.adam_disc.load_state(adam_m, adam_v, adam_steps["disc"])
    else:
        state = training.init_state(nets.ModelNets.create(enc, seed=tcfg.seed), tcfg)
    # --out is made just before its first file, so a run refused before its
    # first checkpoint or losses.csv leaves nothing behind
    out_dir = Path(args.out)

    def save(state_now, tag=None):
        name = f"ckpt_{state_now.step:06d}.bin" if tag is None else tag
        out_dir.mkdir(parents=True, exist_ok=True)
        nets.save_checkpoint(
            out_dir / name, state_now.nets, state_now.step,
            adam_m=state_now.adam_gen.m | state_now.adam_disc.m,
            adam_v=state_now.adam_gen.v | state_now.adam_disc.v,
            adam_steps={"gen": state_now.adam_gen.t, "disc": state_now.adam_disc.t})

    try:
        training.train(model, state, datasets, tcfg, checkpoint_fn=save)
    except ad.NumericalError:
        # keep the losses of the steps that finished; the failed step wrote nothing
        if state.history:
            out_dir.mkdir(parents=True, exist_ok=True)
            training.write_history_csv(out_dir / "losses.csv", state.history)
        raise
    save(state, tag="checkpoint.bin")
    training.write_history_csv(out_dir / "losses.csv", state.history)
    if state.history:
        last = state.history[-1]
        print(f"trained to step {state.step}: total={last['total']:.6f} "
              f"l2d={last['l2d']:.6f} -> {out_dir / 'checkpoint.bin'}")
    else:
        print(f"checkpoint written at step {state.step} (no steps run)")
    return 0


def cmd_eval(args) -> int:
    model = body.load_model(args.model)
    bundle = data.load_dataset(args.data)
    nets_model, step, _, _, _ = nets.load_checkpoint(args.ckpt)
    train_bundle = data.load_dataset(args.train_data) if args.train_data else None
    report = metrics.evaluate(model, nets_model, bundle, mode=args.mode, alpha=args.alpha,
                              train_dataset=train_bundle, gt_as_prediction=args.oracle_gt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(out_dir / "metrics.csv")
    if report.dynamics is not None:
        report.write_dynamics_csv(out_dir / "dynamics.csv")
    print(f"checkpoint step {step}, mode {args.mode}")
    print(report.to_text())
    return 0


def cmd_predict(args) -> int:
    model = body.load_model(args.model)
    bundle = data.load_dataset(args.data)
    nets_model, _, _, _, _ = nets.load_checkpoint(args.ckpt)
    nets_model.require_dynamics()
    if not 0 <= args.seq < len(bundle.sequences):
        raise ValidationError(f"sequence index {args.seq} out of range")
    sample = bundle.sequences[args.seq]
    if not 0 <= args.frame < sample.n_frames:
        raise ValidationError(f"frame {args.frame} out of range for {sample.n_frames} frames")

    pred = metrics.predict_sequence(model, nets_model, [sample.features[args.frame][None, :]],
                                    "single-frame", deltas=True)
    full = pred["full"]                                      # (1, 85)
    back, fwd = min(nets_model.deltas), max(nets_model.deltas)
    poses = np.concatenate([pred["pose_past"], full[:, 10:82], pred["pose_future"]])
    verts = body.skin(model, np.repeat(full[:, :10], 3, axis=0), poses).data
    sections = []
    for i, tag in enumerate(("past", "current", "future")):
        theta_full = np.concatenate([full[0, :10], poses[i], full[0, 82:]])
        sections.extend([(f"theta_{tag}", theta_full), (f"joints_{tag}", pred[f"joints_{tag}"][0]),
                         (f"vertices_{tag}", verts[i])])

    with replacing_open(args.out, "x", newline="") as fh:
        fh.write(f"# dynamics dump: sequence {args.seq} frame {args.frame} "
                 f"steps {back:+d}/{fwd:+d}\n")
        for name, arr in sections:
            arr = np.asarray(arr)
            fh.write(f"section {name} {arr.size}\n")
            for row in arr.reshape(-1, arr.shape[-1] if arr.ndim > 1 else 1):
                fh.write(" ".join(f"{v:.6f}" for v in row) + "\n")
    print(f"wrote past/current/future dump -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Gradient verification harness
# ---------------------------------------------------------------------------


def _gradcheck_cases(seed):
    """Named gradient checks: one ``op:`` case or more for each differentiable
    autodiff op, then full network paths."""
    rng = np.random.default_rng(seed)
    model = body.make_toy_model(seed=seed, n_vertices=48, k_keypoints=8)
    enc = nets.EncoderConfig(feature_dim=16, n_blocks=1, gn_groups=4, gn_group_size=4,
                             ief_hidden=12, disc_hidden=8, dropout_rate=0.0)
    nm = nets.ModelNets.create(enc, seed=seed)
    k = model.n_keypoints

    def p(shape, shift=0.0):
        return ad.parameter(rng.standard_normal(shape) + shift, name="p")

    op_exprs = {
        "add_mul": (lambda t, u: ad.sum_((t + u) * (t - u) * (t * u)), [(3, 4), (3, 4)], 0.0),
        "div": (lambda t, u: ad.sum_(t / u), [(5,), (5,)], 3.0),
        "matmul": (lambda t, u: ad.sum_(ad.matmul(t, u) * ad.matmul(t, u)), [(3, 4), (4, 2)], 0.0),
        "batched_matmul": (lambda t, u: ad.sum_(ad.matmul(t, u)), [(3, 2, 4), (3, 4, 2)], 0.0),
        "matmul_add": (lambda t, u, v: ad.sum_(ad.matmul_add(t, u, v) * ad.matmul_add(t, u, v)),
                       [(3, 4), (4, 2), (2,)], 0.0),
        "matmul_add_relu": (lambda t, u, v: ad.sum_(ad.matmul_add(t, u, v, relu=True) *
                                                    ad.matmul_add(t, u, v, relu=True)),
                            [(3, 4), (4, 2), (2,)], 0.0),
        "matmul_add_relu_mask": (lambda t, u, v: ad.sum_(ad.matmul_add(
            t, u, v, relu=True, mask=ad.dropout_mask(np.random.default_rng(seed + 5), (3, 2), 0.4))
            * t[:, :2]), [(3, 4), (4, 2), (2,)], 0.0),
        "broadcast_to": (lambda t: ad.sum_(ad.broadcast_to(t, (3, 4)) * ad.broadcast_to(t, (3, 4))),
                         [(1, 4)], 0.0),
        "reshape_transpose": (lambda t: ad.sum_(ad.transpose(ad.reshape(t, (3, 4))) *
                                                ad.transpose(ad.reshape(t, (3, 4)))), [(12,)], 0.0),
        "concat_slice": (lambda t, u: ad.sum_(ad.concat([t, u], axis=1)[:, 2:5] *
                                              ad.concat([t, u], axis=1)[:, 2:5]), [(2, 4), (2, 3)], 0.0),
        "gather_rows": (lambda t: ad.sum_(ad.gather_rows(t, [0, 2, 2, 5]) * 1.5), [(6, 3)], 0.0),
        "relu": (lambda t: ad.sum_(ad.relu(t)), [(4, 4)], 0.2),
        "exp": (lambda t: ad.sum_(ad.exp(t) * t), [(4,)], 0.0),
        "neg": (lambda t: ad.sum_(-t * t), [(5,)], 0.0),
        "reduce_mean": (lambda t: ad.sum_(ad.mean_(t, axis=1, keepdims=True) *
                                          ad.mean_(t, axis=1, keepdims=True)), [(3, 5)], 0.0),
        "conv1d": (lambda x, w, b: ad.sum_(ad.conv1d(x, w, b) * ad.conv1d(x, w, b)),
                   [(3, 9), (2, 3, 3), (2,)], 0.0),
        "group_norm": (lambda x, g, b: ad.sum_(ad.group_norm(x, g, b, 2) *
                                               ad.group_norm(x, g, b, 2)), [(4, 6), (4,), (4,)], 0.5),
        "l2_norm_rows": (lambda t: ad.sum_(ad.l2_norm_rows(t)), [(4, 3)], 1.5),
        "dropout_apply": (lambda t: ad.sum_(t * ad.dropout_mask(
            np.random.default_rng(seed + 3), (4, 4), 0.4)), [(4, 4)], 0.0),
    }

    cases = []
    for op_name, (expr, shapes, shift) in op_exprs.items():
        def build(expr=expr, shapes=shapes, shift=shift):
            params = [p(s, shift) for s in shapes]
            return (lambda: expr(*params)), params

        cases.append((f"op:{op_name}", build))

    # full paths through the body model, camera, and every network
    def case_rodrigues():
        v = ad.parameter(rng.normal(0, 0.7, (4, 3)), name="aa")
        probe = ad.constant(rng.standard_normal((4, 3, 3)))
        return (lambda: ad.sum_(body.rodrigues(v) * probe)), [v]

    def case_skin():
        beta = ad.parameter(rng.normal(0, 0.4, (1, 10)), name="beta")
        theta = ad.parameter(rng.normal(0, 0.3, (1, 72)), name="theta")
        probe = ad.constant(rng.standard_normal((1, model.n_vertices, 3)))
        return (lambda: ad.sum_(body.skin(model, beta, theta) * probe)), [beta, theta]

    def case_keypoints():
        beta = ad.parameter(rng.normal(0, 0.4, (3, 10)), name="beta")
        theta = ad.parameter(rng.normal(0, 0.3, (3, 72)), name="theta")
        probe = ad.constant(rng.standard_normal((3, k, 3)))
        return (lambda: ad.sum_(body.keypoints_3d(model, beta, theta) * probe)), [beta, theta]

    def case_camera():
        x = ad.parameter(rng.standard_normal((1, k, 2)), name="x_orth")
        y = 1.3 * x.data + np.array([0.4, -0.2]) + 0.1 * rng.standard_normal((1, k, 2))
        vis = np.ones((1, k), dtype=bool)
        vis[0, 0] = False
        return (lambda: ad.sum_(camera.optimal_camera_rows(x, y, vis)["residual"])), [x]

    def case_objective():
        # training's own objective on one full3d sequence; keypoints at scale 0.2
        # keep the loss near 600, where rounding noise stays small, and w_hal=0
        # because the hallucinator loss detaches its target, a dependence that
        # central differences see but the gradient rightly drops
        t_len = 2 * enc.delta_margin + 1
        sample = data.SequenceSample(
            id="gradcheck", fps=25.0, tier="full3d", kp2d=rng.normal(0, 0.2, (t_len, k, 2)),
            vis=np.ones((t_len, k), dtype=bool),
            features=rng.standard_normal((t_len, enc.feature_dim)),
            theta_gt=rng.normal(0, 0.3, (t_len, 85)))
        tcfg = training.TrainConfig(seq_len=t_len, batch_size=1, seed=seed, use_jitter=False,
                                    delta_centers_per_seq=1,
                                    weights=losses.LossWeights(w_hal=0.0))
        # a drawn mean shape keeps the shape critic's relus off their kinks: an
        # untrained regressor's zero mean puts every row's pre-activations near 0
        net = nets.ModelNets.create(enc, seed=seed)
        net.regressor.theta_mean.data[0:10] = rng.normal(0, 0.3, 10)
        dp = net.deltas[max(net.deltas)]
        wrt = [net.temporal.blocks[0][1][0], net.temporal.blocks[0][2][2],
               net.regressor.fc1.w, net.regressor.out.b, net.regressor.theta_mean,
               dp.fc1.w, dp.out.b, net.hallucinator.fc1.w]
        return (lambda: training.objective(model, net, [(sample, 0)], tcfg, 0)[0]), wrt

    def case_hallucinator_path():
        feats = ad.constant(rng.standard_normal((4, enc.feature_dim)))
        target = ad.constant(rng.standard_normal((4, enc.feature_dim)))
        wrt = [nm.hallucinator.fc1.w, nm.hallucinator.fc2.b]

        def f():
            phi = nm.hallucinator(feats)
            full = training.forward(model, nm, [phi])["full"][0]
            return nets.hallucination_loss(target, phi) + ad.mean_(losses.beta_prior(full[:, 0:10]))

        return f, wrt

    def case_discriminators():
        real = body.pose_rotations(ad.constant(rng.normal(0, 0.3, (3, 72))))
        fake_pose = ad.parameter(rng.normal(0, 0.4, (3, 72)), name="fake_pose")
        rb = rng.normal(0, 0.3, (3, 10))
        fb = rng.normal(0, 0.4, (3, 10))
        wrt = [nm.discriminators.joint_fc_w, nm.discriminators.all_fc1.w,
               nm.discriminators.shape_fc.w, fake_pose]

        def f():
            # the critics take rotation blocks, as in training; the fakes' is
            # built from a pose parameter so the check covers rodrigues too
            return losses.adv_prior_discriminator_loss(
                nm.discriminators, real, rb, body.pose_rotations(fake_pose), fb)

        return f, wrt

    for name, builder in (("path:rodrigues", case_rodrigues),
                          ("path:body_skin", case_skin),
                          ("path:camera_fit_residual", case_camera),
                          ("path:objective", case_objective),
                          ("path:hallucinator+losses", case_hallucinator_path),
                          ("path:discriminators", case_discriminators),
                          ("path:keypoints_3d", case_keypoints)):
        cases.append((name, builder))
    return cases


def run_gradcheck(seed: int = 0, tol: float = 1e-4, out_path=None):
    """Run every named check; returns (all_passed, rows)."""
    rows = []
    ok_all = True
    for name, builder in _gradcheck_cases(seed):
        f, wrt = builder()
        err = ad.finite_diff_check(f, wrt, max_coords=24, rng=np.random.default_rng(seed + 1))
        passed = err < tol
        ok_all &= passed
        rows.append((name, err, passed))
    if out_path is not None:
        with replacing_open(out_path, "x", newline="") as fh:
            fh.write("check,max_rel_err,pass\n")
            for name, err, passed in rows:
                fh.write(f"{name},{err:.3e},{int(passed)}\n")
    return ok_all, rows


def cmd_gradcheck(args) -> int:
    ok, rows = run_gradcheck(seed=args.seed, out_path=args.out)
    width = max(len(name) for name, _, _ in rows)
    for name, err, passed in rows:
        print(f"{name:<{width}}  max_rel_err={err:.3e}  {'PASS' if passed else 'FAIL'}")
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return NUMERICAL_EXIT
    print(f"all {len(rows)} gradient checks passed")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves no state
    in it. Each subcommand NAME runs the module's ``cmd_NAME`` function."""
    p = _Parser(prog="meshmotion",
                description="desk-scale 3D body mesh and motion recovery")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-model", help="write a procedural body model")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--vertices", type=int, default=120)
    g.add_argument("--keypoints", type=int, default=14)

    d = sub.add_parser("gen-data", help="write a synthetic sequence dataset")
    d.add_argument("--model", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--seqs", type=int, default=8)
    d.add_argument("--frames", type=int, default=40)
    d.add_argument("--fps", type=float, default=25.0)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--motion", default="mixed", choices=data.MOTION_KINDS)
    d.add_argument("--tier", default="full3d", choices=data.TIERS)
    d.add_argument("--feature-dim", type=int, default=64)
    d.add_argument("--vis-dropout", type=float, default=0.05)
    d.add_argument("--feature-noise", type=float, default=0.02)
    d.add_argument("--kp-noise", type=float, default=0.0)
    d.add_argument("--holdout", type=int, default=0,
                   help="extra sequences written to --holdout-out; same encoding family")
    d.add_argument("--holdout-out")

    t = sub.add_parser("train", help="train networks on datasets")
    t.add_argument("--model", required=True)
    t.add_argument("--data", required=True, action="append",
                   help="dataset path, optionally with ::ratio suffix; repeatable")
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.add_argument("--set", action="append", metavar="KEY=VALUE")
    t.add_argument("--steps", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--resume")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--mode", default="temporal", choices=metrics.EVAL_MODES)
    e.add_argument("--alpha", type=float, default=0.05)
    e.add_argument("--train-data", help="training dataset for the nearest-neighbor baseline")
    e.add_argument("--oracle-gt", action="store_true",
                   help="score the ground truth against itself (pipeline self-check)")

    r = sub.add_parser("predict", help="dump past/current/future prediction for one frame")
    r.add_argument("--model", required=True)
    r.add_argument("--ckpt", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--seq", type=int, default=0)
    r.add_argument("--frame", type=int, required=True)
    r.add_argument("--out", required=True)

    c = sub.add_parser("gradcheck", help="finite-difference verification of every path")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="optional CSV report path")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except ad.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
