"""Self-tests of the benchmark: tracer attribution and restore, numerics
untouched by tracing, and the output contract of ``run.py``.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.setdefault("LDL_THREADS", "1")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ldlnet  # noqa: E402,F401  (before numpy: it caps the BLAS threads)
import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ldlnet import autodiff, checkpoint, data, distributions, imageio, imaging, network, synth, training  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = dict(block_counts=(1, 1, 1, 1), stage_widths=(2, 2, 2, 2), input_size=16)


def _traced_step(spec):
    net = network.Network(spec)
    network.init_weights(net, 0)
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, spec.input_size, spec.input_size), dtype=np.float32)
    targets = rng.dirichlet(np.ones(spec.num_labels), size=2)
    with Tracer() as tracer:
        out = net.forward(x, mode="train")
        distributions.batch_loss_graph("euclidean", out.distribution, targets).backward()
    return tracer.totals


def _calls(totals, name):
    return totals.get(name + ".calls", 0)


def test_op_and_stage_call_counts_on_a_tiny_network():
    t = _traced_step(network.NetworkSpec(**TINY))
    # 8 basic blocks (two per stage): 16 main convs + stem + 3 strided projections
    expected_fwd = {"conv2d": 20, "batch_norm": 20, "relu": 17, "add": 8, "pad2d": 1,
                    "max_pool": 1, "avg_pool": 1, "reshape": 1, "dense": 1, "softmax": 1,
                    "loss_ops": 6}
    for op, n in expected_fwd.items():
        assert _calls(t, f"autodiff.{op}.fwd") == n, op
        # pad2d(x, 0) returns x: its backward is relu's and must not be charged twice
        assert _calls(t, f"autodiff.{op}.bwd") == (0 if op == "pad2d" else n), op
    stage_ops = {"stem": 4, "stage1": 14, "stage2": 16, "stage3": 16, "stage4": 16, "head": 4}
    for stage, n in stage_ops.items():
        assert _calls(t, f"network.{stage}.fwd") == n + (stage == "stem"), stage
        assert _calls(t, f"network.{stage}.bwd") == n, stage
    assert _calls(t, "autodiff.tape") == 1
    fwd_ms = sum(t[f"autodiff.{op}.fwd.ms"] for op in expected_fwd if op != "loss_ops")
    stage_ms = sum(t[f"network.{s}.fwd.ms"] for s in stage_ops)
    assert stage_ms == pytest.approx(fwd_ms)


def test_conv_flops_follow_the_shapes():
    spec = network.NetworkSpec(**TINY)
    t = _traced_step(spec)
    net = network.Network(spec)
    sided = [(net.stem_conv, spec.input_size)]
    for blocks, size in zip(net.stages, net.stage_sizes):
        for b in blocks:
            sided += [(c, size) for c in b.main_convs() + ([b.proj_conv] if b.proj_conv else [])]

    def gflop(conv, side):
        f, c, kh, kw = conv.weight.shape
        return 2.0 * 2 * side * side * f * c * kh * kw / 1e9

    # forward, weight gradient and input gradient; the stem input needs no gradient
    expected = sum(3 * gflop(c, side) for c, side in sided) - gflop(*sided[0])
    assert t["autodiff.conv2d.gflop"] == pytest.approx(expected)


def test_padded_pool_backward_is_timed_once():
    spec = network.NetworkSpec(**TINY, stem_pool_window=3, stem_pool_pad=1)
    t = _traced_step(spec)
    assert _calls(t, "autodiff.pad2d.fwd") == 1
    assert _calls(t, "autodiff.pad2d.bwd") == 1
    assert _calls(t, "network.stem.bwd") == 5


def test_restore_puts_every_attribute_back():
    owners = (autodiff, autodiff.Tensor, checkpoint, data, imageio, imaging, network,
              network.Network, network.ResidualBlock, synth, training)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer().install()
    assert autodiff.conv2d is not before[0]["conv2d"]
    tracer.restore()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        for name, value in saved.items():
            assert now[name] is value, (owner, name)


def test_traced_and_untraced_training_give_identical_results(tmp_path):
    out = workloads.desk_train(seed=3, seconds=0, trace=True, work_dir=str(tmp_path),
                               faces=200, iters=60)
    # one untraced and one traced unit (train, ldl eval, five ldl predict), then the gradient check
    assert out.attempted == 2 * (2 + workloads.TRAIN_PREDICTS) + 1 and out.traced_units == 60
    # desk_train fails a call whose test_pc differs from the first call's
    assert out.failed == 0, out.problems
    assert out.tracer.totals["cli.main.calls"] == 1 + workloads.TRAIN_PREDICTS
    # ldl eval runs the network at least once per image it scores
    assert out.extra["training.forward_passes_per_image"][0] >= 1


def test_gradient_check_catches_a_wrong_backward(monkeypatch):
    spec = network.NetworkSpec(**TINY)
    net = network.Network(spec)
    network.init_weights(net, 0)
    ckpt = checkpoint.Checkpoint.from_network(net)
    rng = np.random.default_rng(0)
    x = rng.random((4, 3, spec.input_size, spec.input_size), dtype=np.float32)
    targets = rng.dirichlet(np.ones(spec.num_labels), size=4)
    tol = workloads.GRAD_CHECK_TOL
    errors = workloads.gradient_errors(ckpt, x, targets)
    assert all(errors[k] <= tol[k] for k in tol), errors

    relu = autodiff.relu

    def relu_with_scaled_backward(t):
        out = relu(t)
        backward = out._backward
        if backward is not None:
            out._backward = lambda g: backward(1.05 * g)
        return out

    monkeypatch.setattr(autodiff, "relu", relu_with_scaled_backward)
    errors = workloads.gradient_errors(ckpt, x, targets)
    assert errors["float32_loss"] <= tol["float32_loss"]
    assert errors["float64_gradient"] > tol["float64_gradient"], errors


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_last_line_has_the_metrics_benchmark_json_names(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "desk_train", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
