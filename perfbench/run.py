"""Benchmark entry point.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines above it give the environment fingerprint, every measured figure with
its unit and, in a traced run, the whole per-layer table. A copy of the
result goes to ``.perfbench_work/results/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

OPS_ALL_WORKLOADS = ("conv2d", "batch_norm", "max_pool", "avg_pool", "relu", "add", "pad2d",
                     "dense", "softmax", "reshape")
STAGES = ("stem", "stage1", "stage2", "stage3", "stage4", "head")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _import_package():
    """Import ldlnet from this checkout, before numpy, with one BLAS thread."""
    if not os.path.isfile(os.path.join(SRC, "ldlnet", "__init__.py")):
        sys.exit(f"perfbench: no ldlnet sources under {SRC}")
    os.environ["LDL_THREADS"] = "1"
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy was imported before ldlnet, the thread cap would not apply")
    sys.path.insert(0, SRC)
    import ldlnet
    if os.path.dirname(os.path.abspath(ldlnet.__file__)) != os.path.join(SRC, "ldlnet"):
        sys.exit(f"perfbench: imported ldlnet from {ldlnet.__file__}, not from {SRC}")


def per_layer(tracer, units, setup_tracer):
    """The per-layer table of one traced run, times per unit of the workload."""
    t = tracer.totals

    def per(key):
        return t.get(key, 0.0) / units

    rows = {}
    for op in OPS_ALL_WORKLOADS + ("loss_ops",):
        fwd, bwd = per(f"autodiff.{op}.fwd.ms"), per(f"autodiff.{op}.bwd.ms")
        rows[f"autodiff.{op}.fwd_ms"] = (fwd, "ms")
        rows[f"autodiff.{op}.bwd_ms"] = (bwd, "ms")
        rows[f"autodiff.{op}.ms"] = (fwd + bwd, "ms")
        rows[f"autodiff.{op}.calls"] = (per(f"autodiff.{op}.fwd.calls"), "count")
    conv_s = (t.get("autodiff.conv2d.fwd.ms", 0.0) + t.get("autodiff.conv2d.bwd.ms", 0.0)) / 1e3
    rows["autodiff.conv2d.gflop"] = (per("autodiff.conv2d.gflop"), "GFLOP")
    rows["autodiff.conv2d.gflop_per_s"] = (
        t.get("autodiff.conv2d.gflop", 0.0) / conv_s if conv_s else 0.0, "GFLOP/s")
    rows["autodiff.conv2d.out_mb"] = (per("autodiff.conv2d.out_mb"), "MB")
    rows["autodiff.tape_ms"] = (per("autodiff.tape.self_ms"), "ms")
    for stage in STAGES:
        fwd, bwd = per(f"network.{stage}.fwd.ms"), per(f"network.{stage}.bwd.ms")
        rows[f"network.{stage}.fwd_ms"] = (fwd, "ms")
        rows[f"network.{stage}.bwd_ms"] = (bwd, "ms")
        rows[f"network.{stage}.ms"] = (fwd + bwd, "ms")
    rows["network.build_ms"] = (per("network.build.ms"), "ms")
    rows["training.batch_ms"] = (per("training.batch.ms"), "ms")
    rows["training.sgd_step_ms"] = (per("training.sgd_step.ms"), "ms")
    rows["training.evaluate_ms"] = (per("training.evaluate.ms"), "ms")
    rows["training.train.self_ms"] = (per("training.train.self_ms"), "ms")
    rows["distributions.loss_ms"] = (per("distributions.loss.ms"), "ms")
    rows["distributions.eval_metrics_ms"] = (per("distributions.eval_metrics.ms"), "ms")
    rows["distributions.kl_loss.calls"] = (per("distributions.kl_loss.calls"), "count")
    rows["distributions.chebyshev.calls"] = (per("distributions.chebyshev.calls"), "count")
    rows["data.load_index_ms"] = (per("data.load_index.ms"), "ms")
    rows["imageio.read_ppm.ms"] = (per("imageio.read_ppm.ms"), "ms")
    rows["imageio.read_ppm.calls"] = (per("imageio.read_ppm.calls"), "count")
    rows["imageio.read_ppm.mb"] = (per("imageio.read_ppm.mb"), "MB")
    rows["imaging.normalize_image_ms"] = (per("imaging.normalize_image.ms"), "ms")
    rows["checkpoint.load_ms"] = (per("checkpoint.load.ms"), "ms")
    rows["checkpoint.save_ms"] = (per("checkpoint.save.ms"), "ms")
    rows["checkpoint.mb"] = (per("checkpoint.mb"), "MB")
    rows["cli.self_ms"] = (per("cli.main.self_ms"), "ms")
    rows["bench.step.self_ms"] = (per("bench.step.self_ms"), "ms")
    s = setup_tracer.totals
    rows["synth.synth_dataset_ms"] = (s.get("synth.synth_dataset.ms", 0.0), "ms")
    rows["setup.network.build_ms"] = (s.get("network.build.ms", 0.0), "ms")
    rows["trace.ops_ms"] = (sum(rows[f"autodiff.{op}.ms"][0]
                                for op in OPS_ALL_WORKLOADS + ("loss_ops",)), "ms")
    rows["trace.stages_ms"] = (sum(rows[f"network.{stage}.ms"][0] for stage in STAGES), "ms")
    rows["trace.wall_ms"] = (t.get("root.ms", 0.0) / units, "ms")
    wall = rows["trace.wall_ms"][0]
    rows["trace.coverage"] = (rows["trace.ops_ms"][0] / wall if wall else 0.0, "ratio")
    return rows


def reported_per_layer_names():
    """Per-layer metric names on the JSON line of a traced run: those that
    both workloads (desk_train, fullscale_step) measure."""
    names = ["env.calib_ms", "trace.coverage", "trace.overhead"]
    for op in OPS_ALL_WORKLOADS + ("loss_ops",):
        names += [f"autodiff.{op}.fwd_ms", f"autodiff.{op}.calls"]
        if op != "pad2d":    # pad2d(x, 0) at desk scale has no backward
            names.append(f"autodiff.{op}.bwd_ms")
    names += ["autodiff.conv2d.gflop", "autodiff.conv2d.gflop_per_s", "autodiff.conv2d.out_mb",
              "autodiff.tape_ms", "training.sgd_step_ms"]
    for stage in STAGES:
        names += [f"network.{stage}.fwd_ms", f"network.{stage}.bwd_ms"]
    return names


def _tail_percentile(samples_s):
    """(q, ms) for p95, or the highest whole percentile with ten samples beyond it."""
    import numpy as np
    n = len(samples_s)
    if n <= 10:
        return None, None
    q = 95 if n >= 200 else (100 * (n - 10)) // n
    return q, float(np.percentile(samples_s, q)) * 1e3


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_package()
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    env = envinfo.fingerprint()
    if env["blas_threads"] != env["ldl_threads"]:
        sys.exit(f"perfbench: effective BLAS threads {env['blas_threads']} != "
                 f"LDL_THREADS {env['ldl_threads']}")
    calib_start = envinfo.calib_ms()
    run = workloads.WORKLOADS[args.workload]
    out = run(args.seed, args.seconds, bool(args.trace), os.path.join(WORK, args.workload))
    calib_end = envinfo.calib_ms()
    env["calib_ms_start"], env["calib_ms_end"] = calib_start, calib_end

    med = workloads.median
    shown = {
        "setup_s": (med(out.setup_s), "s"),
        "peak_rss_mb": (envinfo.peak_rss_mb(), "MB"),
        "env.calib_ms": ((calib_start + calib_end) / 2, "ms"),
        "error_rate": (out.failed / out.attempted if out.attempted else 1.0, "ratio"),
    }
    if args.trace:
        table = per_layer(out.tracer, out.traced_units, out.setup_tracer)
        table["trace.overhead"] = (med(out.traced_unit_s) / med(out.plain_unit_s), "ratio")
        table["env.calib_ms"] = shown["env.calib_ms"]
        shown.update(table)
        reported = {k: shown[k] for k in reported_per_layer_names()}
    else:
        if not out.step_s or not out.img_per_s:
            sys.exit(f"perfbench: no successful operation; problems: {out.problems}")
        shown["step_ms.p50"] = (med(out.step_s) * 1e3, "ms")
        shown["img_per_s"] = (med(out.img_per_s), "1/s")
        q, value = _tail_percentile(out.step_s)
        if q is not None:
            shown[f"step_ms.p{q}"] = (value, "ms")
        shown["step.samples"] = (len(out.step_s), "count")
        reported = {k: shown[k] for k in ("setup_s", "step_ms.p50", "img_per_s", "peak_rss_mb")}
    shown.update(out.extra)

    for key, value in env.items():
        print(f"env {key} = {value}")
    for problem in out.problems:
        print(f"problem: {problem}")
    for name in sorted(shown):
        value, unit = shown[name]
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                   "problems": out.problems, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
