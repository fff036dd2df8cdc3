"""The two benchmark workloads.

Each workload builds its inputs from the seed (set-up, repeated and timed),
then runs its unit of work in a closed loop from one thread until the time
budget is spent: the next unit starts only when the previous one returned.
In a traced run, untraced and traced units alternate; untraced units give
the tracing overhead and the traced ones the per-layer table.

desk_train      ``training.train`` on the desk-scale network; unit = one
                ``train`` call of TRAIN_ITERS iterations, evaluated once at the
                end, then the trained checkpoint through ``ldl eval --out`` and
                ``ldl predict`` (timed apart from the training metrics).
                Per-layer figures are per training iteration. After the
                loop, untimed, the initial network's loss and gradient
                are checked against a float64 reference.
fullscale_step  train steps of ``full_scale_spec(50)`` at batch 2 on 224x224
                inputs; unit = one step.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import statistics
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ldlnet import autodiff, checkpoint, cli, data, distributions, network, synth, training
from ldlnet.errors import LdlError, NumericalError

from tracer import Tracer

SETUP_REPEATS = 9

TRAIN_FACES = 1000
TRAIN_ITERS = 300
TRAIN_BATCH = 32
TRAIN_PREDICTS = 5
GRAD_CHECK_IMAGES = 8
GRAD_CHECK_STEPS = (1e-6, 1e-7, 1e-8)    # central differences along the unit gradient
GRAD_CHECK_TOL = {"float32_loss": 1e-4, "float64_gradient": 1e-5, "float32_gradient": 2e-2}

FULL_BATCH = 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)      # latency samples of the unit step
    img_per_s: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)       # printed, not on the JSON line
    plain_unit_s: list = field(default_factory=list)    # wall per per-layer unit, untraced
    tracer: Tracer | None = None
    traced_unit_s: list = field(default_factory=list)   # wall per per-layer unit, traced
    traced_units: int = 0
    setup_tracer: Tracer | None = None
    eval_forward_images: float = 0.0    # traced: images through the network in ldl eval calls
    eval_images: int = 0                # traced: images those calls scored

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _set_up(out, trace, build):
    """Run ``build`` SETUP_REPEATS times, timing each; the last result is kept.

    In a traced run the last repetition runs under its own tracer, which
    gives the set-up layers (synthesis, checkpoint save, network build).
    """
    result = None
    for rep in range(SETUP_REPEATS):
        result = None
        tracer = Tracer() if trace and rep == SETUP_REPEATS - 1 else None
        t0 = perf_counter()
        if tracer is not None:
            with tracer:
                result = build()
            out.setup_tracer = tracer
        else:
            result = build()
        out.setup_s.append(perf_counter() - t0)
    return result


def _closed_loop(out, seconds, trace, unit):
    """Run ``unit(call)`` back to back within ``seconds``.

    ``unit`` returns (wall seconds of its timed calls, per-layer units done).
    A unit is not started when, at the pace of the last one, it would end
    after the budget, so a run does the same work whatever the machine's
    speed as long as a unit takes more than half the budget. At least one
    unit runs; in a traced run units alternate untraced/traced and at least
    one of each runs.
    """
    tracer = Tracer() if trace else None
    out.tracer = tracer
    start = last = perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        if traced:
            with tracer:
                wall, units = unit(tracer.root)
            out.traced_unit_s.append(wall / units)
            out.traced_units += units
        else:
            wall, units = unit(_plain)
            out.plain_unit_s.append(wall / units)
        i += 1
        now = perf_counter()
        if 2 * now - last - start > seconds and (not trace or i >= 2):
            return
        last = now


# ---------------------------------------------------------------------------
# desk_train
# ---------------------------------------------------------------------------

@contextmanager
def _wrapped(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def desk_train(seed, seconds, trace, work_dir, faces=TRAIN_FACES, iters=TRAIN_ITERS):
    out = Outcome()
    index = os.path.join(work_dir, "test.idx")
    ckpt_path = os.path.join(work_dir, "trained.ckpt")
    csv_path = os.path.join(work_dir, "eval.csv")

    def build():
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        ds = data.split(synth.synth_dataset(faces, seed=seed), train_fraction=0.8, seed=seed)
        held_out = data.Dataset(samples=[ds.samples[i] for i in ds.test_idx],
                                train_idx=list(range(len(ds.test_idx))), test_idx=[])
        data.save_index(held_out, index)
        return ds

    ds = _set_up(out, trace, build)
    images = _fixed_images(index, work_dir, TRAIN_PREDICTS, seed)
    spec = network.NetworkSpec()
    config = training.TrainConfig(batch_size=TRAIN_BATCH, max_iter=iters, eval_every=iters,
                                  loss="euclidean", seed=seed)
    pcs, eval_rates, predict_s = [], [], []

    def unit(call):
        stamps = []

        def stamp(sgd_step):
            # each train iteration ends with its sgd_step
            def stamped(*args, **kwargs):
                sgd_step(*args, **kwargs)
                stamps.append(perf_counter())
            return stamped

        plain = call is _plain
        out.attempted += 1
        t0 = perf_counter()
        try:
            with _wrapped(training, "sgd_step", stamp if plain else lambda fn: fn):
                ckpt, log = call("training.train", training.train, ds, spec, config)
        except LdlError as exc:
            out.fail(f"train raised {type(exc).__name__}: {exc}")
            return perf_counter() - t0, iters
        wall = perf_counter() - t0
        point = log.points[-1]
        pcs.append(point.test_pc)
        if not all(math.isfinite(v) for v in (point.train_loss, point.test_loss, point.test_pc)):
            out.fail(f"non-finite final metrics {point}")
        elif point.test_pc != pcs[0]:
            out.fail(f"test_pc {point.test_pc!r} differs from the first call's {pcs[0]!r}")
        if plain:
            # the first iteration also builds the network; the final
            # evaluation runs after the last stamp
            out.step_s.extend(np.diff(stamps).tolist())
            out.img_per_s.append(iters * TRAIN_BATCH / wall)
        # the trained checkpoint through the scoring path: save, ldl eval, ldl predict
        checkpoint.save(ckpt, ckpt_path)
        eval_s, pred_s = _eval_and_predict(call, out, index, ckpt_path, csv_path,
                                           len(ds.test_idx), images)
        if plain and eval_s:
            eval_rates.append(len(ds.test_idx) / eval_s)
            predict_s.extend(pred_s)
        return wall + (eval_s or 0.0) + sum(pred_s), iters

    _closed_loop(out, seconds, trace, unit)
    # untimed: the network train() starts from, against a float64 reference
    net = network.Network(spec)
    network.init_weights(net, seed)
    chosen = [ds.samples[i] for i in ds.test_idx[:GRAD_CHECK_IMAGES]]
    out.attempted += 1
    errors = gradient_errors(checkpoint.Checkpoint.from_network(net),
                             np.stack([s.image for s in chosen]),
                             np.stack([s.distribution for s in chosen]))
    for name, err in errors.items():
        out.extra[f"gradcheck.{name}"] = (err, "ratio")
    bad = [f"{name} off by {err:.3g}" for name, err in errors.items()
           if not err <= GRAD_CHECK_TOL[name]]
    if bad:
        out.fail(f"gradient check: {'; '.join(bad)}")
    if pcs:
        out.extra["test_pc"] = (pcs[0], "PC")
    if eval_rates:
        out.extra["eval_img_per_s"] = (median(eval_rates), "1/s")
        out.extra["predict_ms.p50"] = (median(predict_s) * 1e3, "ms")
    if out.eval_images:
        out.extra["training.forward_passes_per_image"] = (
            out.eval_forward_images / out.eval_images, "ratio")
    return out


def _loss_and_grads(ckpt, dtype, images, targets):
    net = network.Network(ckpt.spec, dtype=dtype)
    net.load_state_dict(ckpt.state)
    loss = distributions.batch_loss_graph(
        "euclidean", net.forward(images, mode="train").distribution, targets)
    loss.backward()
    grads = [np.zeros(r.tensor.shape) if r.tensor.grad is None else r.tensor.grad.astype(np.float64)
             for r in net.param_records()]
    return net, float(loss.data), grads


def gradient_errors(ckpt, images, targets):
    """Relative errors of the train-mode Euclidean batch loss of ``ckpt``
    and of its gradient, keyed as GRAD_CHECK_TOL.

    float64_gradient: the float64 network's gradient g against its own loss,
    |g| = g.u against central differences along u = g/|g|; of the
    GRAD_CHECK_STEPS the closest counts, as a step that crosses a ReLU kink
    or a max-pool switch may be off. float32_loss and float32_gradient: the
    float32 network that training runs against the float64 one, its loss and
    its gradient along u. float32 and float64 may resolve a kink on opposite
    sides, so the last one has the loosest tolerance.
    """
    ref, loss64, g64 = _loss_and_grads(ckpt, np.float64, images, targets)
    _, loss32, g32 = _loss_and_grads(ckpt, np.float32, images, targets)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in g64))
    if not (math.isfinite(norm) and norm > 0.0):
        return dict.fromkeys(GRAD_CHECK_TOL, math.inf)
    base = [r.tensor.data.copy() for r in ref.param_records()]

    def ref_loss(step):
        for r, w, g in zip(ref.param_records(), base, g64):
            r.tensor.data = w + (step / norm) * g
        with autodiff.no_grad():
            dist = ref.forward(images, mode="train").distribution
            return float(distributions.batch_loss_graph("euclidean", dist, targets).data)

    slope = min(((ref_loss(h) - ref_loss(-h)) / (2 * h) for h in GRAD_CHECK_STEPS),
                key=lambda d: abs(d - norm))
    along = sum(float(np.sum(a * b)) for a, b in zip(g32, g64)) / norm
    return {
        "float32_loss": abs(loss32 - loss64) / abs(loss64),
        "float64_gradient": abs(slope - norm) / norm,
        "float32_gradient": abs(along - norm) / norm,
    }


# ---------------------------------------------------------------------------
# scoring: ldl eval and ldl predict on a stored index
# ---------------------------------------------------------------------------

def _run_cli(call, argv):
    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf):
        code = call("cli.main", cli.main, argv)
    return code, perf_counter() - t0, buf.getvalue()


def _check_eval(printed, csv_path, n_faces):
    """Problems with one ``ldl eval --out`` result; returns (problems, rows by path)."""
    problems = []
    summary = [ln for ln in printed.splitlines() if ln.startswith("n ")]
    if not summary:
        return ["eval printed no summary line"], {}
    fields = summary[-1].split()
    pc = float(fields[fields.index("pc") + 1])
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_faces:
        problems.append(f"eval csv has {len(rows)} rows, expected {n_faces}")
    true_mean = np.array([float(r["true_mean"]) for r in rows])
    pred_mean = np.array([float(r["pred_mean"]) for r in rows])
    recomputed = float(np.corrcoef(pred_mean, true_mean)[0, 1])
    if not abs(recomputed - pc) <= 1e-9:
        problems.append(f"printed pc {pc!r} != pc {recomputed!r} recomputed from the csv")
    by_path = {}
    for r in rows:
        dist = np.array([float(r[k]) for k in r if k.startswith("pred_d")])
        if abs(dist.sum() - 1.0) > 1e-5:
            problems.append(f"csv distribution of {r['path']} sums to {dist.sum()!r}")
        by_path[r["path"]] = dist
    return problems, by_path


def _fixed_images(index, work_dir, count, seed):
    """``count`` image paths of the index, drawn from the seed."""
    with open(index, encoding="utf-8") as fh:
        rel_paths = [ln.split(",", 1)[0] for ln in fh if ln.strip()]
    chosen = np.random.default_rng(seed).choice(len(rel_paths), count, replace=False)
    return [os.path.join(work_dir, rel_paths[i]) for i in sorted(chosen)]


def _eval_and_predict(call, out, index, ckpt_path, csv_path, n_faces, images):
    """``ldl eval --out`` over the index, then ``ldl predict`` per image, all checked.

    Returns the eval call's wall seconds (None when it failed) and the
    predict calls' wall seconds.
    """
    tracer = None if call is _plain else out.tracer
    before = tracer.totals["network.forward_images"] if tracer else 0.0
    out.attempted += 1
    code, eval_s, printed = _run_cli(call, ["eval", "--data", index, "--ckpt", ckpt_path,
                                            "--out", csv_path])
    if tracer:
        out.eval_forward_images += tracer.totals["network.forward_images"] - before
        out.eval_images += n_faces
    rows = {}
    if code != 0:
        out.fail(f"ldl eval exited {code}")
        eval_s = None
    else:
        problems, rows = _check_eval(printed, csv_path, n_faces)
        if problems:
            out.fail("; ".join(problems[:3]))
    predict_s = []
    for path in images:
        out.attempted += 1
        code, dt, printed = _run_cli(call, ["predict", "--ckpt", ckpt_path, "--image", path])
        predict_s.append(dt)
        degrees = [ln for ln in printed.splitlines() if ln.startswith("degrees:")]
        if code != 0 or not degrees:
            out.fail(f"ldl predict {path} exited {code}")
            continue
        dist = np.array([float(v) for v in degrees[-1].split()[1:]])
        if abs(dist.sum() - 1.0) > 1e-5:
            out.fail(f"predicted distribution of {path} sums to {dist.sum()!r}")
        elif path in rows and not np.allclose(dist, rows[path], rtol=0.0, atol=1e-5):
            out.fail(f"predicted distribution of {path} differs from its csv row")
        elif rows and path not in rows:
            out.fail(f"{path} missing from the eval csv")
    return eval_s, predict_s


# ---------------------------------------------------------------------------
# fullscale_step
# ---------------------------------------------------------------------------

def fullscale_step(seed, seconds, trace, work_dir):
    """Train steps on in-memory inputs; nothing is written to ``work_dir``."""
    out = Outcome()
    spec = network.full_scale_spec(50)
    batch = FULL_BATCH
    side = spec.input_size
    state = {}

    def build():
        state.clear()      # drop the previous repetition's network first
        rng = np.random.default_rng(seed)
        net = network.Network(spec)
        network.init_weights(net, seed)
        state["net"] = net
        state["x"] = rng.random((batch, 3, side, side), dtype=np.float32)
        state["targets"] = rng.dirichlet(np.ones(spec.num_labels), size=batch).astype(np.float32)

    _set_up(out, trace, build)
    net, x, targets = state["net"], state["x"], state["targets"]
    records = net.param_records()
    watched = [r.tensor for r in records if r.name in ("stem.conv.weight", "fc.weight")]
    config = training.TrainConfig(batch_size=batch, loss="euclidean", seed=seed)
    velocities = {}
    iteration = [0]

    def step():
        res = net.forward(x, mode="train")
        loss = distributions.batch_loss_graph("euclidean", res.distribution, targets)
        if not np.isfinite(loss.data):
            raise NumericalError(f"non-finite loss at step {iteration[0]}")
        for rec in records:
            rec.tensor.grad = None
        loss.backward()
        training.sgd_step(records, velocities, config, iteration[0])

    def unit(call):
        before = [t.data.copy() for t in watched]
        out.attempted += 1
        t0 = perf_counter()
        try:
            call("bench.step", step)
        except LdlError as exc:
            out.fail(f"step raised {type(exc).__name__}: {exc}")
            return perf_counter() - t0, 1
        wall = perf_counter() - t0
        iteration[0] += 1
        if call is _plain:
            out.step_s.append(wall)
            out.img_per_s.append(batch / wall)
        if any(np.array_equal(b, t.data) for b, t in zip(before, watched)):
            out.fail(f"step {iteration[0]} left a parameter unchanged")
        return wall, 1

    _closed_loop(out, seconds, trace, unit)
    return out


WORKLOADS = {
    "desk_train": desk_train,
    "fullscale_step": fullscale_step,
}


def median(values):
    return statistics.median(values) if values else float("nan")
