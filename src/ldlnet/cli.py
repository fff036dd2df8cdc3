"""Command-line front end.

Verbs: synth, train, eval, predict, gradcheck, export; each is one row of
``_VERBS``: its help line, its runner and its options. Options resolve as
defaults < config file < flags, and every run prints the resolved
configuration before acting. A config file (--config) holds key=value lines;
a # at a line's start or after whitespace starts a comment. The parser
converts each value as its flag's (a list flag's too, so a malformed
--blocks, --widths or --crop stops the run before any file is read, naming
path:line in a config file); a switch takes 1/0, true/false, yes/no or on/off.

Exit codes:
    0  success
    1  usage or configuration error, any other LdlError, or too large to allocate
    2  file not found / unreadable referenced file (a directory, no permission)
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
import re
import sys

import numpy as np

from . import autodiff as ad
from . import checkpoint, data, gradcheck, imageio, imaging, synth, training
from .distributions import LOSS_KINDS, weighted_mean
from .errors import (
    CheckpointError,
    ConfigurationError,
    DatasetError,
    DimensionError,
    LdlError,
    NumericalError,
    UndefinedCorrelationError,
    ValidationError,
    _integer,
    _real,
    four_ints,
)
from .network import BLOCK_LAYOUTS, Network, NetworkSpec
from .training import TrainConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


REQUIRED = object()   # the default of an option that must be given
_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}

# option -> (kind, default, help); a kind is a type, a tuple of choices, or
# bool for a switch
_SPEC_OPTS = {
    "blocks": (four_ints, NetworkSpec.block_counts, "block counts n1,n2,n3,n4"),
    "widths": (four_ints, NetworkSpec.stage_widths, "stage widths w1,w2,w3,w4"),
    "block_kind": (tuple(BLOCK_LAYOUTS), NetworkSpec.block_kind, "residual block kind"),
    "no_skip": (bool, False, "disable the shortcut connections (plain network)"),
    "input_size": (int, NetworkSpec.input_size, "square network input side"),
}

# train flag -> (TrainConfig field, kind, help); the field's default is the flag's
_TRAIN_FLAGS = {
    "seed": ("seed", int, "random seed"),
    "batch": ("batch_size", int, "mini-batch size"),
    "lr": ("base_lr", float, "base learning rate"),
    "lr_step": ("lr_step", int, "iterations per learning-rate step"),
    "lr_factor": ("lr_factor", float, "learning-rate decay factor per step"),
    "iters": ("max_iter", int, "total training iterations"),
    "weight_decay": ("weight_decay", float, "L2 weight decay"),
    "momentum": ("momentum", float, "SGD momentum"),
    "last_lr_mult": ("last_layer_lr_mult", float, "learning-rate multiplier for the final layer"),
    "last_decay_mult": ("last_layer_decay_mult", float,
                        "weight-decay multiplier for the final layer"),
    "loss": ("loss", LOSS_KINDS, "training loss"),
    "augment_factor": ("augment_factor", int, "train-split expansion factor"),
    "eval_every": ("eval_every", int, "iterations between metric evaluations"),
}

_TRAIN_OPTS = {flag: (kind, getattr(TrainConfig, name), help_text)
               for flag, (name, kind, help_text) in _TRAIN_FLAGS.items()}


def _flag(name):
    return "--" + name.replace("_", "-")


def _build_parser():
    """The ``ldl`` parser and its verb subparsers by name."""
    parser = _Parser(prog="ldl", description="label-distribution attractiveness engine")
    verbs = parser.add_subparsers(dest="verb", metavar="verb")
    for verb, (help_line, _, options) in _VERBS.items():
        p = verbs.add_parser(verb, prog=f"ldl {verb}", help=help_line)
        p.add_argument("--config", help="key=value config file; flags override it")
        for name, (kind, default, help_text) in options.items():
            if default is REQUIRED:
                help_text += " (required)"
            how = ({"action": "store_true"} if kind is bool else
                   {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p.add_argument(_flag(name), dest=name, default=default, help=help_text, **how)
    return parser, verbs.choices


def _read_config_file(path, verb, parser):
    """The options of a key=value config file, each converted by ``parser``
    (the verb's own) exactly as the flag with that value would be."""
    options = _VERBS[verb][2]
    values = {}
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, "rb") as fh:
        for lineno, row in enumerate(fh.read().splitlines(), start=1):
            try:
                line = row.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UsageError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in options:
                raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
            if options[key][0] is bool:
                if value.lower() not in _SWITCH_WORDS:
                    raise UsageError(f"{path}:{lineno}: bad value: {key} takes one of "
                                     f"{'/'.join(_SWITCH_WORDS)}, got {value!r}")
                argv = [_flag(key)] if _SWITCH_WORDS[value.lower()] else []
            else:
                argv = [f"{_flag(key)}={value}"]   # '=' keeps a leading '-' a value
            try:
                values[key] = getattr(parser.parse_args(argv), key)
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: bad value: {exc}")
    return values


def parse(argv):
    """argv -> the verb's Namespace, resolving defaults < config file < flags."""
    parser, verbs = _build_parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        raise UsageError(f"a verb is required ({'|'.join(_VERBS)})")
    if args.config is not None:
        sub = verbs[args.verb]
        sub.set_defaults(**_read_config_file(args.config, args.verb, sub))
        args = parser.parse_args(argv)
    del args.config
    for key, value in vars(args).items():
        if value is REQUIRED:
            raise UsageError(f"ldl {args.verb}: {_flag(key)} is required")
    return args


def _print_config(args):
    print(f"verb = {args.verb}")
    for key, value in sorted(vars(args).items()):
        if key != "verb":
            print(f"{key} = {value}")


def _spec_from(cmd):
    return NetworkSpec(
        block_counts=cmd.blocks,
        stage_widths=cmd.widths,
        block_kind=cmd.block_kind,
        skip_connections=not cmd.no_skip,
        input_size=cmd.input_size,
    )


def _train_config(cmd):
    return TrainConfig(**{name: getattr(cmd, flag) for flag, (name, _, _) in _TRAIN_FLAGS.items()})


def _check_outputs(outputs, inputs=None):
    """Refuse, before any work, an output path in a missing directory, one
    that is a directory, or one that names the same file as an input or
    another output; both map a flag to its path."""
    taken = {os.path.realpath(path): flag for flag, path in (inputs or {}).items()}
    for flag, path in outputs.items():
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"output directory not found: {parent}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")
        other = taken.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise UsageError(f"{flag} and {other} name the same file: {path}")


def _network_from_checkpoint(path):
    """The network of a distribution-head checkpoint (eval and predict).

    A header spec whose network does not fit the records (other names or
    shapes, or too large to allocate: the records of a matching spec are
    already in memory) is a checkpoint error.
    """
    ckpt = checkpoint.load(path)
    if ckpt.spec.num_labels < 2:
        raise ConfigurationError(
            f"{path}: a scalar-head (num_labels=1) checkpoint predicts no score distribution")
    try:
        net = Network(ckpt.spec)
        net.load_state_dict(ckpt.state)
    except (ConfigurationError, DimensionError, MemoryError) as exc:
        raise CheckpointError(f"{path}: header spec does not match the records: {exc}") from exc
    return net, ckpt


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _run_synth(cmd):
    _check_outputs({"--out": cmd.out})
    ds = synth.synth_dataset(cmd.n, raters=cmd.raters, noise_sd=cmd.noise_sd,
                             bimodal_fraction=cmd.bimodal_fraction, seed=cmd.seed,
                             image_size=cmd.image_size)
    path = data.save_index(ds, cmd.out)
    print(f"wrote {ds.n} samples to {path}")
    return 0


def _run_train(cmd):
    config = _train_config(cmd)
    spec = _spec_from(cmd)
    if (cmd.train_count is None) != (cmd.test_count is None):
        raise UsageError("--train-count and --test-count must be given together")
    metrics_path = cmd.metrics or (cmd.out + ".metrics.csv")
    _check_outputs({"--out": cmd.out, "--metrics": metrics_path}, {"--data": cmd.data})
    ds = data.load_index(cmd.data, image_size=spec.input_size)
    if cmd.train_count is not None:
        ds = data.split(ds, counts=(cmd.train_count, cmd.test_count), seed=cmd.seed)
    else:
        ds = data.split(ds, train_fraction=cmd.train_frac, seed=cmd.seed)
    ckpt, log = training.train(ds, spec, config)
    checkpoint.save(ckpt, cmd.out)
    log.save_csv(metrics_path)
    last = log.points[-1]
    print(f"final: iter {last.iteration} train_loss {last.train_loss:.6f} "
          f"test_loss {last.test_loss:.6f} test_pc {last.test_pc:.6f}")
    print(f"wrote checkpoint {cmd.out} and metrics {metrics_path}")
    return 0


def _run_eval(cmd):
    _check_outputs({"--out": cmd.out}, {"--data": cmd.data, "--ckpt": cmd.ckpt})
    net, ckpt = _network_from_checkpoint(cmd.ckpt)
    ds = data.load_index(cmd.data, image_size=net.spec.input_size)
    if ds.scale != ckpt.scale:
        raise ConfigurationError(f"{cmd.data} has the score scale {ds.scale.labels}, the "
                                 f"checkpoint {cmd.ckpt} {ckpt.scale.labels}")
    indices = list(range(ds.n))
    record = training.evaluate(net, ds, indices, loss_kind=cmd.loss)
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
    net, ckpt = _network_from_checkpoint(cmd.ckpt)
    image = imaging.normalize_image(imageio.read_image(cmd.image), crop=cmd.crop,
                                    target=net.spec.input_size)
    with ad.no_grad():
        out = net.forward(image[None], mode="eval")
    dist = out.distribution.data[0].astype(np.float64)
    print("degrees: " + " ".join(f"{v:.6f}" for v in dist))
    print(f"weighted_mean: {float(dist @ ckpt.scale.values):.6f}")
    return 0


def _run_gradcheck(cmd):
    # a bad seed or tolerance is refused before the suite's draws
    _integer("end_to_end_check", "seed", cmd.seed, 0)
    _real("gradient_suite", "tol", cmd.tol, 0)
    _real("end_to_end_check", "tol", cmd.e2e_tol, 0)
    worst, ok = gradcheck.gradient_suite(num_seeds=cmd.seeds, tol=cmd.tol)
    for name in sorted(worst):
        status = "ok" if worst[name] <= cmd.tol else "FAIL"
        print(f"op {name}: max rel err {worst[name]:.3e} [{status}]")
    report, n_params = gradcheck.end_to_end_check(seed=cmd.seed, tol=cmd.e2e_tol)
    print(f"end-to-end ({n_params} params): max rel err "
          f"{report.max_rel_err:.3e} [{'ok' if report.passed else 'FAIL'}]")
    if ok and report.passed:
        print("gradient suite PASS")
        return 0
    print("gradient suite FAIL")
    return 6


def _run_export(cmd):
    _check_outputs({"--out": cmd.out})   # --src may be --out: an in-place rewrite
    if cmd.kind == "checkpoint":
        ckpt = checkpoint.load(cmd.src)
        checkpoint.save(ckpt, cmd.out)
        print(f"rewrote checkpoint ({len(ckpt.state)} records, iteration {ckpt.iteration}) "
              f"to {cmd.out}")
    else:
        ds = data.load_index(cmd.src)
        data.save_index(ds, cmd.out, labels=cmd.labels_as)
        print(f"rewrote dataset ({ds.n} samples) to {cmd.out}")
    return 0


# verb -> (help line, runner, options)
_VERBS = {
    "synth": ("generate a synthetic rated-face dataset (index + PPM images)", _run_synth, {
        "n": (int, 500, "number of faces"),
        "raters": (int, 70, "raters per face"),
        "noise_sd": (float, 0.4, "rater noise standard deviation"),
        "bimodal_fraction": (float, 0.1, "fraction of controversial faces"),
        "image_size": (int, 32, "rendered image side"),
        "out": (str, REQUIRED, "output index path"),
        "seed": (int, 0, "random seed"),
    }),
    "train": ("train a network on a dataset index, writing checkpoint + metrics CSV",
              _run_train, {
        "data": (str, REQUIRED, "dataset index path"),
        "out": (str, REQUIRED, "output checkpoint path"),
        "metrics": (str, None, "metrics CSV path (default <out>.metrics.csv)"),
        **_TRAIN_OPTS,
        "train_frac": (float, 0.8, "train fraction when counts are not given"),
        "train_count": (int, None, "explicit train split size"),
        "test_count": (int, None, "explicit test split size"),
        **_SPEC_OPTS,
    }),
    "eval": ("evaluate a checkpoint: PC, mean KL, mean Chebyshev, per-sample CSV", _run_eval, {
        "data": (str, REQUIRED, "dataset index path"),
        "ckpt": (str, REQUIRED, "checkpoint path"),
        "out": (str, None, "optional per-sample CSV path"),
        "loss": (LOSS_KINDS, "euclidean", "loss column to report"),
    }),
    "predict": ("predict the score distribution and weighted mean for one image", _run_predict, {
        "ckpt": (str, REQUIRED, "checkpoint path"),
        "image": (str, REQUIRED, "image path, PPM or PNG"),
        "crop": (four_ints, None, "face crop box x0,y0,x1,y1"),
    }),
    "gradcheck": ("run the finite-difference gradient suite (nonzero exit on failure)",
                  _run_gradcheck, {
        "seeds": (int, 50, "random draws per op"),
        "tol": (float, 1e-5, "per-op relative-error tolerance"),
        "e2e_tol": (float, 1e-4, "end-to-end relative-error tolerance"),
        "seed": (int, 0, "random seed"),
    }),
    "export": ("rewrite a checkpoint or dataset in the current format", _run_export, {
        "kind": (("checkpoint", "dataset"), REQUIRED, "what to convert"),
        "src": (str, REQUIRED, "input path"),
        "out": (str, REQUIRED, "output path"),
        "labels_as": (data.LABEL_FORMS, "auto", "dataset label representation"),
    }),
}


# first matching row wins, so subclasses precede their bases
_EXIT_CODES = {
    UsageError: 1,
    MemoryError: 1,   # numpy refuses the allocation at once
    OSError: 2,   # absent, a directory, unreadable
    DatasetError: 2,
    ValidationError: 3,
    CheckpointError: 3,
    NumericalError: 4,
    UndefinedCorrelationError: 5,
    LdlError: 1,
}


def main(argv=None):
    """Parse argv, print the resolved configuration and run the verb; returns
    the process exit code."""
    try:
        cmd = parse(sys.argv[1:] if argv is None else list(argv))
        _print_config(cmd)
        return _VERBS[cmd.verb][1](cmd)
    except tuple(_EXIT_CODES) as exc:
        label = ("usage error" if isinstance(exc, UsageError) else
                 "error: too large to allocate" if isinstance(exc, MemoryError) else "error")
        print(f"{label}: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
