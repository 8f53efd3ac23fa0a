"""Self-tests for the benchmark: span arithmetic, wrapper removal, and a smoke
run of each mode that checks the result line against BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import BOOKKEEPING, Span, leftover_wrappers, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", -1, "train", 0.0, 10.0),
        Span("b", 0, "train", 1.0, 4.0),
        Span("c", 1, "train", 2.0, 3.0),          # grandchild of a: charged to b only
        Span("d", 0, "train", 5.0, 9.0),
        Span(BOOKKEEPING, 0, "train", 9.0, 9.5),
        Span("e", -1, "eval", 11.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5, 1.0])


def test_tracer_spans_nest_and_every_wrapper_is_removed():
    import numpy as np

    import layers
    from meshmotion import autodiff as ad
    from meshmotion import body, training

    model = body.make_toy_model(seed=0, n_vertices=40, k_keypoints=8)
    original_step = training.train_step
    tracer = layers.tracer()
    tracer.kind = "train"
    for _ in range(2):          # installs and removes cleanly more than once
        tracer.install()
        try:
            beta = ad.parameter(np.zeros((3, 10)))
            joints = body.keypoints_3d(model, beta, ad.constant(np.zeros((3, 72))))
            ad.sum_(joints).backward()
        finally:
            left = tracer.remove()
        assert left == [] and leftover_wrappers("meshmotion") == []
        assert training.train_step is original_step
    body.keypoints_3d(model, np.zeros(10), np.zeros(72))     # untraced
    names = [s.name for s in tracer.spans]
    assert names.count(layers.KP3D) == 2 and names.count("body.skin") == 2
    skin = tracer.spans[names.index("body.skin")]
    assert tracer.spans[skin.parent].name == layers.KP3D
    backward = tracer.spans[names.index("autodiff.backward")]
    assert backward.info[0] > 1 and backward.info[1] is False
    kp3d = tracer.spans[names.index(layers.KP3D)]
    assert kp3d.info == 3 and kp3d.count1 > kp3d.count0


def _run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, section):
    rc, lines = _run(["--workload", "train_small", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace)], ROOT)
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = json.loads(lines[-2])["record"]
    assert record["machine"]["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                                 "OMP_NUM_THREADS": "1"}
    assert "losses.csv" in record["digests"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = _run(["--workload", "evaluate", "--seed", "1", "--seconds", "1"], tmp_path)
    assert rc != 0 and lines == []
