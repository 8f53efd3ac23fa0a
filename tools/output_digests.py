"""One sha256 per output file of the benchmark configs, to show that a change
leaves every output of the program byte-identical.

    python3 tools/output_digests.py [CHECKOUT]

CHECKOUT is a source tree holding ``src/meshmotion`` (default: this one).
For each workload of ``perfbench/run.py`` (imported, so the configs are the
benchmark's own) the script runs, with seed 1 in a fresh directory and each
in its own process with one BLAS thread:

- gen-model, gen-data with the held-out split, and train for 20 steps;
- eval in every mode, each also with --oracle-gt (the dynamics mode with
  --train-data, for the nearest-neighbour baseline);
- predict on the first held-out sequence.

It prints one ``<sha256>  <workload>/<file>`` line per file the commands
wrote and per command's console output (``<workload>/<command>.out``).
Paths are relative to the run directory, so two checkouts give comparable
listings: run it on both and ``diff`` the outputs. A command that exits
non-zero stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (perfbench/ is not a package)

# the eval command's modes (metrics.EVAL_MODES), named here because the script
# imports neither checkout's package
EVAL_MODES = ("temporal", "single-frame", "hallucinated-dynamics")
SEED, STEPS = "1", "20"
PREDICT_FRAME = "8"     # inside every workload's held-out sequences
CLI = "import sys; from meshmotion import cli; sys.exit(cli.run(sys.argv[1:]))"


def commands(workload):
    """(tag, argv) of every command of one workload, in run order."""
    wl = WORKLOADS[workload]
    inputs = ["--model", "model.bin", "--ckpt", "run/checkpoint.bin", "--data", "test.bin"]
    out = [("gen-model", ["gen-model", "--out", "model.bin", "--seed", SEED]),
           ("gen-data", ["gen-data", "--model", "model.bin", "--out", "train.bin", "--seed", SEED,
                         "--holdout-out", "test.bin", *wl.data]),
           ("train", ["train", "--model", "model.bin", "--data", "train.bin", "--out", "run",
                      "--steps", STEPS, "--seed", SEED, *wl.train])]
    for mode in EVAL_MODES:
        extra = ["--train-data", "train.bin"] if mode == "hallucinated-dynamics" else []
        for oracle in ([], ["--oracle-gt"]):
            tag = f"eval-{mode}" + ("-oracle-gt" if oracle else "")
            out.append((tag, ["eval", *inputs, "--out", tag, "--mode", mode, *extra, *oracle]))
    out.append(("predict", ["predict", *inputs, "--seq", "0", "--frame", PREDICT_FRAME,
                            "--out", "predict.txt"]))
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(checkout: Path, workload, where: Path):
    """[(digest, name)] of one workload's files and console outputs."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    where.mkdir()
    rows = []
    for tag, argv in commands(workload):
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=where, env=env,
                              capture_output=True)
        if proc.returncode != 0:
            sys.exit(f"{workload}: {tag} exited {proc.returncode}:\n"
                     f"{proc.stderr.decode(errors='replace')}")
        rows.append((sha256(proc.stdout + proc.stderr), f"{workload}/{tag}.out"))
    for path in sorted(p for p in where.rglob("*") if p.is_file()):
        rows.append((sha256(path.read_bytes()), f"{workload}/{path.relative_to(where)}"))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="?", default=str(ROOT))
    args = p.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    if not (checkout / "src" / "meshmotion").is_dir():
        p.error(f"{checkout} holds no src/meshmotion")
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        for workload in sorted(WORKLOADS):
            for digest, name in digests(checkout, workload, Path(tmp) / workload):
                print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
