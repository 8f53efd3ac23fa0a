"""Memory and time of one training step on each benchmark workload, in process.

    python3 tools/step_memory.py [CHECKOUT] [--workload NAME]

CHECKOUT is a source tree holding ``src/meshmotion`` (default: this one).
For each workload of ``perfbench/run.py`` (imported, so the configs are the
benchmark's own) a fresh process with one BLAS thread makes the body model
and the training data with seed 1 and the workload's gen-data arguments,
builds the workload's training config with seed 1, and then, with the
cyclic collector paused and the allocator set as in ``training.train``
(where the checkout sets it), runs:

- WARMUP steps, not measured;
- TIMED steps with tracemalloc off: minor page faults per step
  (``ru_minflt``) and the median step time; ``ru_maxrss`` is read after them;
- TRACED steps under tracemalloc, each with its peak reset at its start: the
  median peak above the traced size at the step's start (``peak_mb``), and
  the median traced size when the generator backward starts, above the
  same (``graph_mb``): what the graph's nodes keep, apart from the sweep's
  own peak.

It prints one line per workload with those five numbers. With
``--workload`` it measures that workload only, in this process (the BLAS
thread count is then whatever the environment sets).

A fresh process overstates page faults against the benchmark's: there,
set-up and eval calls have already grown the heap and raised glibc's
adaptive thresholds before training starts. Without the allocator setting,
the 1,000-3,900 faults per step seen here were a median of 0 per step in
the benchmark process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (perfbench/ is not a package)

SEED = "1"
WARMUP, TIMED, TRACED = 10, 40, 10


def measure(checkout: Path, workload) -> str:
    """One workload's line, measured in this process on ``checkout``'s package."""
    sys.path.insert(0, str(checkout / "src"))
    from meshmotion import autodiff as ad
    from meshmotion import body, cli, data, nets, training

    wl = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="step-memory-") as tmp:
        tmp = Path(tmp)
        for argv in (["gen-model", "--out", str(tmp / "model.bin"), "--seed", SEED],
                     ["gen-data", "--model", str(tmp / "model.bin"), "--out", str(tmp / "train.bin"),
                      "--seed", SEED, "--holdout-out", str(tmp / "test.bin"), *wl.data]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
            if code != 0:
                sys.exit(f"{workload}: {argv[0]} exited {code}")
        model = body.load_model(tmp / "model.bin")
        datasets = [(data.load_dataset(tmp / "train.bin"), 1)]
    sets = dict(arg.split("=", 1) for arg in wl.train if arg != "--set")
    sets.update(seed=SEED, steps=str(WARMUP + TIMED + TRACED))
    enc, tcfg = cli.build_configs(sets)
    state = training.init_state(nets.ModelNets.create(enc, seed=tcfg.seed), tcfg)
    pool = training.build_real_pose_pool(datasets)
    mixer = training.BatchMixer(datasets, tcfg.seq_len, tcfg.batch_size, tcfg.seed)

    def step():
        batch = mixer.batch(state.step)
        meta = mixer.metas[mixer.dataset_for_step(state.step)]
        training.train_step(model, state, batch, tcfg, feature_meta=meta, real_pool=pool)

    keep_heap = getattr(training, "_keep_freed_heap", None)
    if keep_heap is not None:
        keep_heap()
    with training._cyclic_gc_paused():
        for _ in range(WARMUP):
            step()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times = []
        for _ in range(TIMED):
            t0 = time.perf_counter()
            step()
            times.append(time.perf_counter() - t0)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        backward = ad.Tensor.backward
        at_backward = []    # traced size at the start of each backward of the step

        def marking(loss):
            at_backward.append(tracemalloc.get_traced_memory()[0])
            return backward(loss)

        ad.Tensor.backward = marking
        tracemalloc.start()
        peaks, graphs = [], []
        for _ in range(TRACED):
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            at_backward.clear()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            graphs.append(at_backward[0] - start)      # the generator's comes first
        tracemalloc.stop()
        ad.Tensor.backward = backward
    return (f"{workload:<14} peak_mb={statistics.median(peaks) / 2**20:.2f} "
            f"graph_mb={statistics.median(graphs) / 2**20:.2f} "
            f"minflt_per_step={(usage.ru_minflt - faults0) / TIMED:.1f} "
            f"step_ms={1e3 * statistics.median(times):.2f} "
            f"maxrss_mb={usage.ru_maxrss / 1024:.1f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="?", default=str(ROOT))
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="measure this workload only, in this process")
    args = p.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    if not (checkout / "src" / "meshmotion").is_dir():
        p.error(f"{checkout} holds no src/meshmotion")
    if args.workload:
        print(measure(checkout, args.workload), flush=True)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for workload in sorted(WORKLOADS):
        proc = subprocess.run([sys.executable, __file__, str(checkout), "--workload", workload],
                              env=env)
        if proc.returncode != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
