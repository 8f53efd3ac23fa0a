"""The traced functions of meshmotion and the per-layer metrics built from them.

Layers are the package's modules. Each traced function is wrapped wherever
its callers look it up (see ``spans.Patches``). The tracer's operation kind
is set by the benchmark before each ``cli.run`` call: "train" for a training
call, "eval" for a temporal evaluation and "dyn" for a hallucinated-dynamics
evaluation. Time metrics are summed self times divided by the number of
operations of the kind named in ``TIME_METRICS``; count metrics are medians
over operations, so they repeat exactly when the program does the same work.
"""

from __future__ import annotations

import os
import statistics

from spans import BOOKKEEPING, Tracer, self_times

PACKAGE = "meshmotion"
STEP = "training.train_step"
CLI = "cli.run"
KP3D = "body.keypoints_3d"
OP_SPANS = (STEP, CLI)

LOSS_FUNCTIONS = ("raw_to_full", "loss_2d_rows", "loss_3d_rows", "beta_prior",
                  "adv_prior_generator_loss", "const_shape_loss")

# (target relative to the package, span name); targets whose spans carry
# info are added in install().
PLAIN_TARGETS = (
    ("cli.run", CLI),
    ("training.train", "training.train"),
    ("training.BatchMixer.batch", "training.batch"),
    ("training.jitter_window", "training.jitter"),
    ("training.write_history_csv", "training.write_history"),
    ("nets.TemporalEncoder.__call__", "nets.temporal"),
    ("nets.IefRegressor.__call__", "nets.regressor"),
    ("nets.DeltaPredictor.__call__", "nets.delta"),
    ("nets.Hallucinator.__call__", "nets.hallucinator"),
    ("nets.save_checkpoint", "nets.save_checkpoint"),
    ("nets.load_checkpoint", "nets.load_checkpoint"),
    ("nets.hallucination_loss", "losses.hallucination_loss"),
    ("body.skin", "body.skin"),
    ("body.forward_kinematics", "body.fk"),
    ("body.load_model", "body.load_model"),
    ("camera.project", "camera.project"),
    ("camera.optimal_camera_rows", "camera.fit"),
    ("optim.Adam.step", "optim.adam"),
    ("optim.Adam.zero_grad", "optim.adam"),
    ("data.load_dataset", "data.load"),
    ("metrics.evaluate", "metrics.evaluate"),
    ("metrics.evaluate_dynamics", "metrics.dynamics"),
    ("metrics.predict_sequence", "metrics.predict"),
    ("metrics.gt_joints_of", "metrics.gt_joints"),
    ("metrics.pck", "metrics.pck"),
    ("metrics.mpjpe", "metrics.mpjpe"),
    ("metrics.pa_mpjpe", "metrics.pa_mpjpe"),
    ("metrics.accel_error", "metrics.accel_error"),
    ("metrics.mesh_errors", "metrics.mesh_errors"),
    ("metrics.MetricReport.write_csv", "metrics.write_csv"),
    ("metrics.MetricReport.write_dynamics_csv", "metrics.write_csv"),
) + tuple((f"losses.{fn}", "losses." + fn) for fn in LOSS_FUNCTIONS)


def graph_nodes(loss) -> int:
    """Tape nodes reachable from ``loss``: the nodes ``Tensor.backward`` visits."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def tracer() -> Tracer:
    """A tracer of the (already imported) package, not yet installed."""
    t = Tracer(PACKAGE)
    for target, name in PLAIN_TARGETS:
        t.span(target, name)
    disc_loss = []   # the last discriminator loss, so its backward is told apart

    def remember_disc_loss(args, out, info):
        disc_loss[:] = [out]

    def backward_info(args):
        return graph_nodes(args[0]), bool(disc_loss) and args[0] is disc_loss[0]

    def step_info(args, out, info):
        batch, cfg = args[2], args[3]
        return out.get("frames_used", 0.0), len(batch) * cfg.seq_len

    def file_size(args, out, info):
        return os.path.getsize(args[0])

    t.span("losses.adv_prior_discriminator_loss", "losses.adv_prior_discriminator_loss",
           post=remember_disc_loss)
    t.span("autodiff.Tensor.backward", "autodiff.backward", pre=backward_info)
    t.span("training.train_step", STEP, post=step_info)
    t.span("body.keypoints_3d", KP3D, post=lambda args, out, info: out.shape[0])
    t.span("nets.DiscriminatorSet.__call__", "nets.disc", post=lambda args, out, info: out.shape[0])
    t.span("container.write_container", "container.write", post=file_size)
    t.span("container.read_container", "container.read", post=file_size)
    t.count("autodiff.matmul")
    return t


# name -> (span names, operation kinds the spans belong to, denominator)
# A denominator is an operation kind, or "cli" for every cli.run call.
TIME_METRICS = {
    "cli.self_ms": ((CLI,), ("train", "eval", "dyn"), "cli"),
    "training.step_self_ms": ((STEP,), ("train",), "train"),
    "training.batch_ms": (("training.batch", "training.jitter"), ("train",), "train"),
    "nets.temporal_ms": (("nets.temporal",), ("train",), "train"),
    "nets.regressor_ms": (("nets.regressor",), ("train",), "train"),
    "nets.delta_ms": (("nets.delta",), ("train",), "train"),
    "nets.hallucinator_ms": (("nets.hallucinator",), ("train",), "train"),
    "nets.disc_ms": (("nets.disc",), ("train",), "train"),
    "nets.eval_ms": (("nets.temporal", "nets.regressor", "nets.delta", "nets.hallucinator"),
                     ("eval",), "eval"),
    "camera.project_ms": (("camera.project",), ("train",), "train"),
    "camera.fit_ms": (("camera.fit",), ("train",), "train"),
    "losses.ms": (tuple("losses." + fn for fn in LOSS_FUNCTIONS)
                  + ("losses.adv_prior_discriminator_loss", "losses.hallucination_loss"),
                  ("train",), "train"),
    "optim.adam_ms": (("optim.adam",), ("train",), "train"),
    "container.write_ms": (("container.write",), ("train",), "train"),
    "container.read_ms": (("container.read",), ("eval",), "eval"),
    "data.load_ms": (("data.load",), ("eval",), "eval"),
    "metrics.predict_ms": (("metrics.predict",), ("eval",), "eval"),
    "metrics.pck_ms": (("metrics.pck",), ("eval",), "eval"),
    "metrics.mesh_errors_ms": (("metrics.mesh_errors",), ("eval",), "eval"),
    "metrics.pa_mpjpe_ms": (("metrics.pa_mpjpe",), ("dyn",), "dyn"),
    "metrics.dynamics_self_ms": (("metrics.dynamics",), ("dyn",), "dyn"),
}

UNITS = dict.fromkeys(TIME_METRICS, "ms") | {
    "body.keypoints_3d_ms": "ms", "body.keypoints_3d_eval_ms": "ms",
    "body.skin_ms": "ms", "body.fk_ms": "ms",
    "autodiff.backward_ms": "ms", "autodiff.disc_backward_ms": "ms",
    "training.frames_used_ratio": "ratio",
    "nets.temporal_calls": "count", "nets.disc_rows": "count", "body.keypoints_3d_rows": "count",
    "autodiff.graph_nodes": "count", "autodiff.disc_graph_nodes": "count",
    "autodiff.matmul_calls": "count", "metrics.pa_mpjpe_calls": "count",
    "container.write_bytes": "bytes", "container.read_bytes": "bytes",
    "trace.overhead_pct": "%",
}


def _median_per_op(ops, per_op):
    return float(statistics.median(per_op.get(i, 0) for i in ops)) if ops else 0.0


def per_layer(spans, overhead_pct: float) -> dict:
    """Every per-layer metric as {name: (value, unit)} from a traced run's spans."""
    self_s = self_times(spans)
    # nearest enclosing train step or cli call, and whether a span runs
    # inside body.keypoints_3d
    op = [-1] * len(spans)
    in_kp3d = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        op[i] = i if s.name in OP_SPANS else (op[p] if p >= 0 else -1)
        in_kp3d[i] = p >= 0 and (in_kp3d[p] or spans[p].name == KP3D)

    steps = [i for i, s in enumerate(spans) if s.name == STEP]
    calls = {kind: [i for i, s in enumerate(spans) if s.name == CLI and s.kind == kind]
             for kind in ("train", "eval", "dyn")}
    ops = {"train": len(steps), "eval": len(calls["eval"]), "dyn": len(calls["dyn"]),
           "cli": sum(len(c) for c in calls.values())}

    def per_op_ms(total_s, kind):
        return 1e3 * total_s / ops[kind] if ops[kind] else 0.0

    self_by = {}
    for s, t in zip(spans, self_s):
        if s.name != BOOKKEEPING:
            self_by[s.name, s.kind] = self_by.get((s.name, s.kind), 0.0) + t

    out = {}
    for name, (names, kinds, denom) in TIME_METRICS.items():
        total = sum(self_by.get((n, k), 0.0) for n in names for k in kinds)
        out[name] = per_op_ms(total, denom)

    body_kp3d = {"train": 0.0, "eval": 0.0}
    body_outside = {"body.skin": 0.0, "body.fk": 0.0}
    backward = {False: 0.0, True: 0.0}
    per_step = {key: {} for key in ("temporal", "disc_rows", "kp3d_rows", "nodes", "disc_nodes")}
    per_dyn_pa = {}
    frames = window = write_bytes = read_bytes = 0.0
    for i, (s, t) in enumerate(zip(spans, self_s)):
        name, kind = s.name, s.kind
        if name.startswith("body.") and (name == KP3D or in_kp3d[i]) and kind in body_kp3d:
            body_kp3d[kind] += t
        elif name in body_outside and kind == "eval":
            body_outside[name] += t
        if kind == "train":
            step = op[i]
            if name == "nets.temporal":
                per_step["temporal"][step] = per_step["temporal"].get(step, 0) + 1
            elif name == "nets.disc":
                per_step["disc_rows"][step] = per_step["disc_rows"].get(step, 0) + s.info
            elif name == KP3D:
                per_step["kp3d_rows"][step] = per_step["kp3d_rows"].get(step, 0) + s.info
            elif name == "autodiff.backward":
                nodes, is_disc = s.info
                backward[is_disc] += t
                key = "disc_nodes" if is_disc else "nodes"
                per_step[key][step] = per_step[key].get(step, 0) + nodes
            elif name == STEP:
                frames += s.info[0]
                window += s.info[1]
            elif name == "container.write":
                write_bytes += s.info
        elif kind == "eval" and name == "container.read":
            read_bytes += s.info
        elif kind == "dyn" and name == "metrics.pa_mpjpe":
            per_dyn_pa[op[i]] = per_dyn_pa.get(op[i], 0) + 1

    out["body.keypoints_3d_ms"] = per_op_ms(body_kp3d["train"], "train")
    out["body.keypoints_3d_eval_ms"] = per_op_ms(body_kp3d["eval"], "eval")
    out["body.skin_ms"] = per_op_ms(body_outside["body.skin"], "eval")
    out["body.fk_ms"] = per_op_ms(body_outside["body.fk"], "eval")
    out["autodiff.backward_ms"] = per_op_ms(backward[False], "train")
    out["autodiff.disc_backward_ms"] = per_op_ms(backward[True], "train")
    out["training.frames_used_ratio"] = frames / window if window else 0.0
    out["nets.temporal_calls"] = _median_per_op(steps, per_step["temporal"])
    out["nets.disc_rows"] = _median_per_op(steps, per_step["disc_rows"])
    out["body.keypoints_3d_rows"] = _median_per_op(steps, per_step["kp3d_rows"])
    out["autodiff.graph_nodes"] = _median_per_op(steps, per_step["nodes"])
    out["autodiff.disc_graph_nodes"] = _median_per_op(steps, per_step["disc_nodes"])
    out["autodiff.matmul_calls"] = _median_per_op(
        steps, {i: spans[i].count1 - spans[i].count0 for i in steps})
    out["metrics.pa_mpjpe_calls"] = _median_per_op(calls["dyn"], per_dyn_pa)
    out["container.write_bytes"] = write_bytes / ops["train"] if ops["train"] else 0.0
    out["container.read_bytes"] = read_bytes / ops["eval"] if ops["eval"] else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return {name: (value, UNITS[name]) for name, value in out.items()}


def span_table(spans) -> dict:
    """Total self time in ms and call count per (kind, span name)."""
    table = {}
    for s, t in zip(spans, self_times(spans)):
        key = f"{s.kind}:{s.name}"
        ms, n = table.get(key, (0.0, 0))
        table[key] = (ms + 1e3 * t, n + 1)
    return {key: {"self_ms": round(ms, 3), "calls": n} for key, (ms, n) in sorted(table.items())}
