"""Command-line front end.

Verbs: synth, train, eval, predict, gradcheck, export. Options resolve as
defaults < config file (--config, key=value lines, # comments) < flags, and
every run prints the resolved configuration before acting.

Exit codes:
    0  success
    1  usage or configuration error
    2  file not found / unreadable referenced file
    3  invalid data or checkpoint format
    4  numerical failure (non-finite values)
    5  undefined correlation (constant score vector)
    6  gradient check failure

The LDL_THREADS environment variable (default 1) caps the numeric library's
internal parallelism; the package applies it when it is imported.
"""

from __future__ import annotations

import argparse
import os
import sys


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_SPEC_OPTS = {
    "blocks": (str, "1,1,1,1", "block counts n1,n2,n3,n4"),
    "widths": (str, "8,16,32,64", "stage widths w1,w2,w3,w4"),
    "block_kind": (("basic", "bottleneck"), "basic", "residual block kind"),
    "no_skip": (bool, False, "disable the shortcut connections (plain network)"),
    "input_size": (int, 32, "square network input side"),
}

_TRAIN_OPTS = {
    "batch": (int, 32, "mini-batch size"),
    "lr": (float, 0.001, "base learning rate"),
    "lr_step": (int, 4000, "iterations per learning-rate step"),
    "lr_factor": (float, 0.1, "learning-rate decay factor per step"),
    "iters": (int, 17000, "total training iterations"),
    "weight_decay": (float, 0.0005, "L2 weight decay"),
    "momentum": (float, 0.9, "SGD momentum"),
    "last_lr_mult": (float, 10.0, "learning-rate multiplier for the final layer"),
    "last_decay_mult": (float, 100.0, "weight-decay multiplier for the final layer"),
    "loss": (("euclidean", "euclidean_sq", "kl"), "euclidean", "training loss"),
    "augment_factor": (int, 1, "train-split expansion factor"),
    "eval_every": (int, 500, "iterations between metric evaluations"),
    "train_frac": (float, 0.8, "train fraction when counts are not given"),
    "train_count": (int, None, "explicit train split size"),
    "test_count": (int, None, "explicit test split size"),
}

_VERB_OPTS = {
    "synth": {
        "n": (int, 500, "number of faces"),
        "raters": (int, 70, "raters per face"),
        "noise_sd": (float, 0.4, "rater noise standard deviation"),
        "bimodal_fraction": (float, 0.1, "fraction of controversial faces"),
        "image_size": (int, 32, "rendered image side"),
        "out": (str, None, "output index path (required)"),
        "seed": (int, 0, "random seed"),
    },
    "train": {
        "data": (str, None, "dataset index path (required)"),
        "out": (str, None, "output checkpoint path (required)"),
        "metrics": (str, None, "metrics CSV path (default <out>.metrics.csv)"),
        "seed": (int, 0, "random seed"),
        **_TRAIN_OPTS,
        **_SPEC_OPTS,
    },
    "eval": {
        "data": (str, None, "dataset index path (required)"),
        "ckpt": (str, None, "checkpoint path (required)"),
        "out": (str, None, "optional per-sample CSV path"),
        "loss": (("euclidean", "euclidean_sq", "kl"), "euclidean", "loss column to report"),
        "seed": (int, 0, "random seed"),
    },
    "predict": {
        "ckpt": (str, None, "checkpoint path (required)"),
        "image": (str, None, "image path, PPM or PNG (required)"),
        "crop": (str, None, "face crop box x0,y0,x1,y1"),
        "seed": (int, 0, "random seed"),
    },
    "gradcheck": {
        "seeds": (int, 50, "random draws per op"),
        "tol": (float, 1e-5, "per-op relative-error tolerance"),
        "e2e_tol": (float, 1e-4, "end-to-end relative-error tolerance"),
        "seed": (int, 0, "random seed"),
    },
    "export": {
        "kind": (("checkpoint", "dataset"), None, "what to convert (required)"),
        "src": (str, None, "input path (required)"),
        "out": (str, None, "output path (required)"),
        "labels_as": (("auto", "ratings", "dist"), "auto", "dataset label representation"),
        "seed": (int, 0, "random seed"),
    },
}

_REQUIRED = {
    "synth": ("out",),
    "train": ("data", "out"),
    "eval": ("data", "ckpt"),
    "predict": ("ckpt", "image"),
    "gradcheck": (),
    "export": ("kind", "src", "out"),
}


_VERB_HELP = {
    "synth": "generate a synthetic rated-face dataset (index + PPM images)",
    "train": "train a network on a dataset index, writing checkpoint + metrics CSV",
    "eval": "evaluate a checkpoint: PC, mean KL, mean Chebyshev, per-sample CSV",
    "predict": "predict the score distribution and weighted mean for one image",
    "gradcheck": "run the finite-difference gradient suite (nonzero exit on failure)",
    "export": "rewrite a checkpoint or dataset in the current format",
}


def _build_parser():
    parser = _Parser(prog="ldl", description="label-distribution attractiveness engine")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    for verb, opts in _VERB_OPTS.items():
        p = sub.add_parser(verb, prog=f"ldl {verb}", help=_VERB_HELP[verb])
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key=value config file; flags override it")
        for name, (kind, default, help_text) in opts.items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_true",
                               default=argparse.SUPPRESS, help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=name, choices=kind,
                               default=argparse.SUPPRESS, help=help_text)
            else:
                p.add_argument(flag, dest=name, type=kind,
                               default=argparse.SUPPRESS, help=help_text)
    return parser


def _read_config_file(path, schema):
    values = {}
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in schema:
                raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
            kind = schema[key][0]
            try:
                if kind is bool:
                    values[key] = value.lower() in ("1", "true", "yes", "on")
                elif isinstance(kind, tuple):
                    if value not in kind:
                        raise ValueError(f"must be one of {kind}")
                    values[key] = value
                else:
                    values[key] = kind(value)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value {value!r} for {key}: {exc}")
    return values


class Command:
    """A parsed verb plus its fully merged option map."""

    def __init__(self, verb, options):
        self.verb = verb
        self.options = options

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name)


def parse(argv):
    """argv -> Command, resolving defaults < config file < explicit flags."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.verb is None:
        raise UsageError("a verb is required (synth|train|eval|predict|gradcheck|export)")
    schema = _VERB_OPTS[ns.verb]
    merged = {name: default for name, (_, default, _h) in schema.items()}
    given = vars(ns)
    if "config" in given:
        merged.update(_read_config_file(given["config"], schema))
    for key, value in given.items():
        if key not in ("verb", "config"):
            merged[key] = value
    for key in _REQUIRED[ns.verb]:
        if merged.get(key) is None:
            raise UsageError(f"ldl {ns.verb}: --{key.replace('_', '-')} is required")
    return Command(ns.verb, merged)


def _print_config(cmd):
    print(f"verb = {cmd.verb}")
    for key in sorted(cmd.options):
        print(f"{key} = {cmd.options[key]}")


def _parse_int_tuple(text, what, n=4):
    parts = [p for p in str(text).replace(";", ",").split(",") if p]
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"{what}: unparseable integer in {text!r}")


def _spec_from(cmd):
    from .network import NetworkSpec
    return NetworkSpec(
        block_counts=_parse_int_tuple(cmd.blocks, "--blocks"),
        stage_widths=_parse_int_tuple(cmd.widths, "--widths"),
        block_kind=cmd.block_kind,
        skip_connections=not cmd.no_skip,
        input_size=cmd.input_size,
    )


def _train_config(cmd):
    from .training import TrainConfig
    return TrainConfig(
        batch_size=cmd.batch,
        base_lr=cmd.lr,
        lr_step=cmd.lr_step,
        lr_factor=cmd.lr_factor,
        max_iter=cmd.iters,
        weight_decay=cmd.weight_decay,
        last_layer_lr_mult=cmd.last_lr_mult,
        last_layer_decay_mult=cmd.last_decay_mult,
        momentum=cmd.momentum,
        loss=cmd.loss,
        augment_factor=cmd.augment_factor,
        seed=cmd.seed,
        eval_every=cmd.eval_every,
    )


def _network_from_checkpoint(path):
    from . import checkpoint as ckpt_io
    from .network import Network
    ckpt = ckpt_io.load(path)
    net = Network(ckpt.spec)
    net.load_state_dict(ckpt.state)
    return net, ckpt


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _run_synth(cmd):
    from .data import save_index
    from .synth import synth_dataset
    ds = synth_dataset(cmd.n, raters=cmd.raters, noise_sd=cmd.noise_sd,
                       bimodal_fraction=cmd.bimodal_fraction, seed=cmd.seed,
                       image_size=cmd.image_size)
    path = save_index(ds, cmd.out)
    print(f"wrote {ds.n} samples to {path}")
    return 0


def _run_train(cmd):
    from . import checkpoint as ckpt_io
    from .data import load_index, split
    config = _train_config(cmd)
    spec = _spec_from(cmd)
    ds = load_index(cmd.data, image_size=spec.input_size)
    if (cmd.train_count is None) != (cmd.test_count is None):
        raise UsageError("--train-count and --test-count must be given together")
    if cmd.train_count is not None:
        ds = split(ds, counts=(cmd.train_count, cmd.test_count), seed=cmd.seed)
    else:
        ds = split(ds, train_fraction=cmd.train_frac, seed=cmd.seed)
    from .training import train
    ckpt, log = train(ds, spec, config)
    ckpt_io.save(ckpt, cmd.out)
    metrics_path = cmd.metrics or (cmd.out + ".metrics.csv")
    log.save_csv(metrics_path)
    last = log.points[-1]
    print(f"final: iter {last.iteration} train_loss {last.train_loss:.6f} "
          f"test_loss {last.test_loss:.6f} test_pc {last.test_pc:.6f}")
    print(f"wrote checkpoint {cmd.out} and metrics {metrics_path}")
    return 0


def _run_eval(cmd):
    from .data import load_index
    from .distributions import weighted_mean
    from .errors import UndefinedCorrelationError
    from .training import evaluate
    net, _ = _network_from_checkpoint(cmd.ckpt)
    ds = load_index(cmd.data, image_size=net.spec.input_size)
    indices = list(range(ds.n))
    record = evaluate(net, ds, indices, loss_kind=cmd.loss)
    print(f"n {record.n} pc {record.pc!r} kl {record.mean_kl:.6f} "
          f"chebyshev {record.mean_chebyshev:.6f} {record.loss_kind} {record.mean_loss:.6f}")
    if cmd.out:
        c = len(ds.scale)
        header = "path,true_mean,pred_mean," + ",".join(f"pred_d{j+1}" for j in range(c))
        rows = [header]
        for i, dist in zip(indices, record.predictions):
            s = ds.samples[i]
            pred_mean = weighted_mean(dist, ds.scale)
            rows.append(f"{s.path},{s.mean_score!r},{pred_mean!r},"
                        + ",".join(repr(float(v)) for v in dist))
        with open(cmd.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote per-sample results to {cmd.out}")
    if record.pc_error:
        raise UndefinedCorrelationError(record.pc_error)
    return 0


def _run_predict(cmd):
    import numpy as np

    from . import autodiff as ad
    from .imageio import read_image
    from .imaging import normalize_image
    net, _ = _network_from_checkpoint(cmd.ckpt)
    crop = _parse_int_tuple(cmd.crop, "--crop") if cmd.crop else None
    image = normalize_image(read_image(cmd.image), crop=crop, target=net.spec.input_size)
    with ad.no_grad():
        out = net.forward(image[None], mode="eval")
    dist = out.distribution.data[0].astype(np.float64)
    labels = np.arange(1, len(dist) + 1, dtype=np.float64)   # the 1..c scale
    print("degrees: " + " ".join(f"{v:.6f}" for v in dist))
    print(f"weighted_mean: {float(dist @ labels):.6f}")
    return 0


def _run_gradcheck(cmd):
    from .gradcheck import end_to_end_check, gradient_suite

    worst, ok = gradient_suite(num_seeds=cmd.seeds, tol=cmd.tol)
    for name in sorted(worst):
        status = "ok" if worst[name] <= cmd.tol else "FAIL"
        print(f"op {name}: max rel err {worst[name]:.3e} [{status}]")
    report, n_params = end_to_end_check(seed=cmd.seed, tol=cmd.e2e_tol)
    print(f"end-to-end ({n_params} params): max rel err "
          f"{report.max_rel_err:.3e} [{'ok' if report.passed else 'FAIL'}]")
    if ok and report.passed:
        print("gradient suite PASS")
        return 0
    print("gradient suite FAIL")
    return 6


def _run_export(cmd):
    if cmd.kind == "checkpoint":
        from . import checkpoint as ckpt_io
        ckpt = ckpt_io.load(cmd.src)
        ckpt_io.save(ckpt, cmd.out)
        print(f"rewrote checkpoint ({len(ckpt.state)} records, iteration {ckpt.iteration}) "
              f"to {cmd.out}")
    else:
        from .data import load_index, save_index
        ds = load_index(cmd.src)
        save_index(ds, cmd.out, labels=cmd.labels_as)
        print(f"rewrote dataset ({ds.n} samples) to {cmd.out}")
    return 0


_RUNNERS = {
    "synth": _run_synth,
    "train": _run_train,
    "eval": _run_eval,
    "predict": _run_predict,
    "gradcheck": _run_gradcheck,
    "export": _run_export,
}


def run(cmd):
    """Execute a parsed command; returns the process exit code."""
    from .errors import (
        CheckpointError,
        ConfigurationError,
        DatasetError,
        DimensionError,
        EmptyInputError,
        NumericalError,
        RangeError,
        UndefinedCorrelationError,
        ValidationError,
    )
    _print_config(cmd)
    try:
        return _RUNNERS[cmd.verb](cmd)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except UndefinedCorrelationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ConfigurationError, RangeError, EmptyInputError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    try:
        cmd = parse(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
