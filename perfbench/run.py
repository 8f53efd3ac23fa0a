"""meshmotion benchmark: one workload per process, driven through ``cli.run``.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 36 --trace 0

A run sets up its inputs from ``--seed`` (model, data with a held-out split,
and a seeded checkpoint), warms up, then spends ``--seconds`` in a closed loop
with one caller. The loop interleaves training calls, evaluation rounds
(temporal and hallucinated-dynamics eval calls) and further set-ups, with
the time share of training set per workload (see README.md).

``--trace 0`` reports the end-to-end metrics; besides whole calls only the
start and end of each training step are timed. ``--trace 1`` runs every
operation twice, untraced and with the traced functions of the package
wrapped (layers.py), and reports the per-layer metrics and the tracing
overhead. Each run checks the program's outputs, prints a record of the
machine and the checks, and ends with one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
from spans import Patches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
TRAIN_SHARE = 0.7        # share of the measured time spent in training calls
EVALS_PER_DYNAMICS = 4   # temporal eval calls per dynamics call in an evaluation round
WARMUP_STEPS = 2


@dataclass(frozen=True)
class Workload:
    data: tuple            # gen-data arguments besides --model/--out/--seed
    train: tuple           # train arguments besides --model/--data/--out/--steps/--seed
    steps_per_call: int


def _sets(**kv):
    return tuple(arg for key, val in kv.items() for arg in ("--set", f"{key}={val}"))


WORKLOADS = {
    "train_default": Workload(data=("--seqs", "12", "--frames", "40", "--holdout", "1"),
                              train=(), steps_per_call=25),
    "train_small": Workload(
        data=("--seqs", "10", "--frames", "16", "--holdout", "6", "--motion", "ballistic",
              "--feature-dim", "32", "--vis-dropout", "0.0", "--feature-noise", "0.01"),
        train=_sets(feature_dim=32, gn_groups=8, gn_group_size=4, ief_hidden=64,
                    disc_hidden=16, seq_len=16, batch_size=4, lr=5e-4, use_jitter="false",
                    delta_centers_per_seq=3),
        steps_per_call=50),
}


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_losses(path, steps) -> int:
    """Steps of a training call whose losses are missing or non-finite."""
    rows = read_rows(path)
    bad = sum(1 for row in rows if not all(math.isfinite(float(v)) for v in row.values()))
    return bad + max(steps - len(rows), 0)


def check_eval(out_dir, dynamics) -> list:
    """Problems with an eval call's CSV outputs (empty when they are sound)."""
    problems = []
    for row in read_rows(out_dir / "metrics.csv"):
        try:
            vals = {k: float(v) for k, v in row.items() if k != "seq_id"}
        except ValueError:
            problems.append(f"metrics.csv {row['seq_id']}: missing value")
            continue
        if not all(math.isfinite(v) for v in vals.values()):
            problems.append(f"metrics.csv {row['seq_id']}: non-finite value")
        elif vals["pa_mpjpe_mm"] > vals["mpjpe_mm"]:
            problems.append(f"metrics.csv {row['seq_id']}: PA-MPJPE above MPJPE")
    if dynamics:
        rows = read_rows(out_dir / "dynamics.csv")
        if {r["method"] for r in rows} != {"ours", "constant", "nearest_neighbor"}:
            problems.append("dynamics.csv: missing method rows")
        for row in rows:
            if not all(math.isfinite(float(v)) for k, v in row.items() if k != "method"):
                problems.append(f"dynamics.csv {row['method']}: non-finite value")
    return problems


def git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "git_rev": git_rev(ROOT), "loadavg_start": os.getloadavg()}


@dataclass
class Tally:
    """Operations attempted and failed, output digests and call times."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)     # output file -> digest seen first
    walls: dict = field(default_factory=lambda: {"setup": [], "train": [], "eval": [], "dyn": []})
    steps: int = 0

    def fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def same_digest(self, key, value) -> bool:
        return self.digests.setdefault(key, value) == value


class Runner:
    """Runs the CLI calls of one workload inside a work directory."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli = cli
        self.wl = workload
        self.seed = str(seed)
        self.work = work
        self.n_calls = 0

    def call(self, argv):
        """cli.run with its output captured: (exit code, captured text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = self.cli.run([str(a) for a in argv])
            except Exception:
                traceback.print_exc()
                rc = -1
        return rc, buf.getvalue()

    def setup(self, where: Path):
        """Model, data and a seeded checkpoint; returns the inputs' paths."""
        where.mkdir(parents=True)
        files = {name: where / f"{name}.bin" for name in ("model", "train", "test")}
        steps = (
            ["gen-model", "--out", files["model"], "--seed", self.seed],
            ["gen-data", "--model", files["model"], "--out", files["train"], "--seed", self.seed,
             "--holdout-out", files["test"], *self.wl.data],
            self.train_argv(files, where / "seeded", steps=0),
        )
        for argv in steps:
            rc, text = self.call(argv)
            if rc != 0:
                raise RuntimeError(f"set-up call {argv[0]} exited {rc}:\n{text}")
        files["ckpt"] = where / "seeded" / "checkpoint.bin"
        return files

    def train_argv(self, files, out, steps):
        return ["train", "--model", files["model"], "--data", files["train"], "--out", out,
                "--steps", steps, "--seed", self.seed, *self.wl.train]

    def eval_argv(self, files, out, kind):
        argv = ["eval", "--model", files["model"], "--ckpt", files["ckpt"],
                "--data", files["test"], "--out", out]
        if kind == "dyn":
            argv += ["--mode", "hallucinated-dynamics", "--train-data", files["train"]]
        return argv

    def op(self, kind, files, tally: Tally):
        """One set-up, training call or eval call, timed and checked."""
        self.n_calls += 1
        out = self.work / f"op{self.n_calls:05d}"
        if kind == "setup":
            start = time.perf_counter()
            self.setup(out)
            tally.walls[kind].append(time.perf_counter() - start)
            shutil.rmtree(out, ignore_errors=True)
            return
        steps = self.wl.steps_per_call
        argv = (self.train_argv(files, out, steps) if kind == "train"
                else self.eval_argv(files, out, kind))
        start = time.perf_counter()
        rc, text = self.call(argv)
        tally.walls[kind].append(time.perf_counter() - start)
        count = steps if kind == "train" else 1
        tally.attempted += count
        if kind == "train":
            tally.steps += steps
        try:
            if rc != 0:
                tally.fail(count, f"{kind} call exited {rc}: {text[-400:]}")
            elif kind == "train":
                bad = check_losses(out / "losses.csv", steps)
                if bad:
                    tally.fail(bad, f"train call: {bad} steps with missing or non-finite losses")
                elif not tally.same_digest("losses.csv", digest(out / "losses.csv")):
                    tally.fail(steps, "train call: losses.csv differs from the first call's")
            else:
                problems = check_eval(out, dynamics=kind == "dyn")
                names = ("metrics.csv", "dynamics.csv") if kind == "dyn" else ("metrics.csv",)
                if not problems and not all(tally.same_digest(f"{kind}:{n}", digest(out / n))
                                            for n in names):
                    problems = [f"{kind} call: output differs from the first call's"]
                if problems:
                    tally.fail(1, "; ".join(problems))
        except (OSError, ValueError, KeyError) as exc:
            tally.fail(count, f"{kind} call: unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)

    def schedule(self, seconds):
        """Yield operation kinds for ``seconds`` of closed-loop work.

        The next operation is a training call while training is below its
        share of the time spent so far, else an evaluation round; a set-up
        follows each. Interleaving spreads every metric's samples over the
        whole run. The caller runs each operation before asking for the next.
        """
        spent = {"train": 0.0, "eval": 0.0}
        start = time.perf_counter()
        while not (time.perf_counter() - start >= seconds and all(spent.values())):
            phase = ("train" if spent["train"] <= TRAIN_SHARE * sum(spent.values())
                     else "eval")
            began = time.perf_counter()
            yield from (["train"] if phase == "train"
                        else ["eval"] * EVALS_PER_DYNAMICS + ["dyn"])
            spent[phase] += time.perf_counter() - began
            yield "setup"


def step_timer(durations) -> Patches:
    """Patches that time every training step into ``durations``."""
    patches = Patches(layers.PACKAGE)

    def make(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)
        return timed

    patches.add("training.train_step", make)
    return patches


def traced_run(runner, files, seconds, tally: Tally, record) -> dict:
    """Run every operation twice, untraced and traced, alternating which goes
    first, so both passes see the same machine; returns per-layer metrics."""
    tracer = layers.tracer()
    traced = Tally(digests=tally.digests)    # shared: a traced output must match
    left = []
    pairs = 0
    for kind in runner.schedule(seconds):
        if kind == "setup":
            continue
        for trace_on in ((False, True) if pairs % 2 == 0 else (True, False)):
            if not trace_on:
                runner.op(kind, files, tally)
                continue
            tracer.kind = kind
            tracer.install()
            try:
                runner.op(kind, files, traced)
            finally:
                left += tracer.remove()
        pairs += 1
    if left:
        tally.fail(1, f"wrappers left installed: {sorted(set(left))}")
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.problems += traced.problems
    untraced_s = sum(sum(w) for w in tally.walls.values()) - tally.walls["setup"][0]
    traced_s = sum(sum(w) for w in traced.walls.values())
    record["walls_s"] = {name: {kind: sum(w) for kind, w in t.walls.items()}
                         for name, t in (("untraced", tally), ("traced", traced))}
    record["spans"] = layers.span_table(tracer.spans)
    return layers.per_layer(tracer.spans, 100.0 * (traced_s - untraced_s) / untraced_s)


def end_to_end(np, tally: Tally, step_s) -> dict:
    """Timings are upper percentiles of the run's samples (see README.md)."""
    walls = {kind: np.array(w) for kind, w in tally.walls.items()}
    step_ms = np.array(step_s) * 1e3
    return {
        "setup_s": (float(np.percentile(walls["setup"], 75)), "s"),
        "train_steps_per_s": (tally.steps / walls["train"].sum(), "1/s"),
        "step_ms_p75": (float(np.percentile(step_ms, 75)), "ms"),
        "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "eval_s": (float(np.percentile(walls["eval"], 90)), "s"),
        "dynamics_s": (float(np.percentile(walls["dyn"], 90)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meshmotion" / "cli.py").is_file():
        print(f"error: {SRC / 'meshmotion'} not found; run from a meshmotion checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:           # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    from meshmotion import cli

    wl = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(np)}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, wl, args.seed, work)
    tally = Tally()
    try:
        start = time.perf_counter()
        files = runner.setup(work / "inputs")
        tally.walls["setup"].append(time.perf_counter() - start)
        warm = work / "warmup"
        runner.call(runner.train_argv(files, warm / "train", WARMUP_STEPS))
        runner.call(runner.eval_argv(files, warm / "eval", "eval"))

        if args.trace:
            metrics = traced_run(runner, files, args.seconds, tally, record)
        else:
            step_s = []
            timer = step_timer(step_s)
            timer.install()
            try:
                for kind in runner.schedule(args.seconds):
                    runner.op(kind, files, tally)
            finally:
                left = timer.remove()
            if left:
                tally.fail(1, f"wrappers left installed: {left}")
            metrics = end_to_end(np, tally, step_s)
            record["medians"] = {"step_ms": 1e3 * statistics.median(step_s)} | {
                f"{kind}_s": statistics.median(walls) for kind, walls in tally.walls.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    record.update(
        calls={kind: len(walls) for kind, walls in tally.walls.items()},
        digests=tally.digests, problems=tally.problems,
        error_rate=tally.failed / tally.attempted, loadavg_end=os.getloadavg())
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
