"""CLI tests: parsing, config files, exit codes, and the verb round trip."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from ldlnet.cli import UsageError, main, parse


class TestParse:
    def test_train_flags(self):
        cmd = parse(["train", "--data", "d.idx", "--out", "m.ckpt",
                     "--loss", "kl", "--seed", "7"])
        assert cmd.verb == "train"
        assert cmd.loss == "kl"
        assert cmd.seed == 7
        assert cmd.data == "d.idx"

    def test_bad_loss_names_token(self):
        with pytest.raises(UsageError) as exc:
            parse(["train", "--data", "d", "--out", "m", "--loss", "bogus"])
        assert "bogus" in str(exc.value)

    def test_synth_defaults_match_the_protocol_size(self):
        cmd = parse(["synth", "--out", "s.idx"])
        assert cmd.n == 500
        assert cmd.raters == 70

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse(["synth", "--out", "s.idx", "--bogus-flag", "1"])

    def test_missing_required_flag(self):
        with pytest.raises(UsageError) as exc:
            parse(["train", "--data", "d.idx"])
        assert "--out" in str(exc.value)

    def test_unknown_verb(self):
        with pytest.raises(UsageError):
            parse(["dance"])

    def test_defaults_applied(self):
        cmd = parse(["train", "--data", "d", "--out", "m"])
        assert cmd.batch == 32
        assert cmd.lr == 0.001
        assert cmd.lr_step == 4000
        assert cmd.iters == 17000
        assert cmd.weight_decay == 0.0005
        assert cmd.last_lr_mult == 10.0
        assert cmd.last_decay_mult == 100.0

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment defaults\nloss = kl\nseed = 11\nbatch = 8\n")
        cmd = parse(["train", "--data", "d", "--out", "m",
                     "--config", str(cfg), "--seed", "3"])
        assert cmd.loss == "kl"     # from file
        assert cmd.batch == 8       # from file
        assert cmd.seed == 3        # flag wins

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        with pytest.raises(UsageError) as exc:
            parse(["train", "--data", "d", "--out", "m", "--config", str(cfg)])
        assert "wibble" in str(exc.value)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["--help"])
        assert exc.value.code == 0
        assert "synth" in capsys.readouterr().out


class TestOptionTable:
    def test_defaults_are_the_library_defaults(self):
        # the option table takes its defaults from TrainConfig and NetworkSpec,
        # and _train_config and _spec_from map each option back to its field
        from ldlnet.cli import _spec_from, _train_config
        from ldlnet.network import NetworkSpec
        from ldlnet.training import TrainConfig
        cmd = parse(["train", "--data", "d", "--out", "m"])
        assert _train_config(cmd) == TrainConfig()
        assert _spec_from(cmd) == NetworkSpec()

    def test_required_options_say_so_in_help(self, capsys):
        with pytest.raises(SystemExit):
            parse(["export", "--help"])
        out = capsys.readouterr().out
        assert "what to convert (required)" in out
        assert "dataset label representation\n" in out

    def test_config_value_is_read_as_its_flag_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = -0.5\nlast-lr-mult = 1e1\nout = -dash=ok\n")
        cmd = parse(["train", "--data", "d", "--config", str(cfg)])
        assert (cmd.lr, cmd.last_lr_mult, cmd.out) == (-0.5, 10.0, "-dash=ok")
        assert not hasattr(cmd, "config")

    @pytest.mark.parametrize("line", ["batch = 1.5", "loss = bogus"])
    def test_config_conversion_error_names_the_line(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 3\n{line}\n")
        with pytest.raises(UsageError) as exc:
            parse(["train", "--data", "d", "--out", "m", "--config", str(cfg)])
        assert f"{cfg}:2: bad value" in str(exc.value)

    @pytest.mark.parametrize("word,value", [("yes", True), ("ON", True), ("1", True),
                                            ("True", True), ("off", False), ("0", False),
                                            ("no", False), ("FALSE", False)])
    def test_config_switch_words(self, tmp_path, word, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_skip = {word}\n")
        assert parse(["train", "--data", "d", "--out", "m", "--config", str(cfg)]).no_skip is value

    def test_config_switch_refuses_other_words(self, tmp_path, capsys):
        # 'maybe' used to read as False and the run went on to load its data
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nno_skip = maybe\n")
        assert main(["train", "--data", str(tmp_path / "absent.idx"), "--out", "m",
                     "--config", str(cfg)]) == 1
        assert f"{cfg}:2: bad value" in capsys.readouterr().err

    def test_missing_config_file_is_two(self, tmp_path, capsys):
        assert main(["train", "--data", "d", "--out", "m",
                     "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("blocks", ["1,,1,1,1", "1,1,1,1,", ",1,1,1"])
    def test_empty_block_field_rejected(self, blocks):
        from ldlnet.cli import _spec_from
        with pytest.raises(UsageError) as exc:
            _spec_from(parse(["train", "--data", "d", "--out", "m", "--blocks", blocks]))
        assert "--blocks" in str(exc.value)

    def test_non_finite_learning_rate_fails_before_loading_data(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "absent.idx"), "--out", "m",
                     "--lr", "nan"]) == 1
        assert "base_lr must be a finite number" in capsys.readouterr().err


_RLIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from ldlnet.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _toy_checkpoint_with_widths(path, widths):
    """A toy network's checkpoint whose header claims ``stage_widths`` instead."""
    import json

    from ldlnet import checkpoint as ckpt_io
    from ldlnet.network import Network, NetworkSpec, init_weights
    net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                              input_size=16))
    init_weights(net, 0)
    ckpt_io.save(ckpt_io.Checkpoint.from_network(net), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    header["spec"]["stage_widths"] = widths
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
    return path


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train", "--loss", "bogus"]) == 1

    def test_missing_checkpoint_is_two(self, tmp_path, capsys):
        from ldlnet.data import save_index
        from ldlnet.synth import synth_dataset
        idx = save_index(synth_dataset(4, raters=3, seed=0, image_size=16),
                         tmp_path / "d.idx")
        code = main(["eval", "--data", str(idx), "--ckpt", str(tmp_path / "no.ckpt")])
        assert code == 2

    def test_missing_index_is_two(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "s.idx"), "--n", "4",
                     "--raters", "3", "--image-size", "16"])
        assert code == 0
        code = main(["train", "--data", str(tmp_path / "absent.idx"),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    def test_bad_checkpoint_format_is_three(self, tmp_path, capsys):
        from ldlnet.data import save_index
        from ldlnet.synth import synth_dataset
        idx = save_index(synth_dataset(4, raters=3, seed=0, image_size=16),
                         tmp_path / "d.idx")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\0" * 32)
        assert main(["eval", "--data", str(idx), "--ckpt", str(bad)]) == 3

    def test_bad_ppm_header_is_two(self, tmp_path, capsys):
        from ldlnet import checkpoint as ckpt_io
        from ldlnet.network import Network, NetworkSpec, init_weights
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16))
        init_weights(net, 0)
        ckpt_io.save(ckpt_io.Checkpoint.from_network(net), tmp_path / "m.ckpt")
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\nab 3")
        assert main(["predict", "--ckpt", str(tmp_path / "m.ckpt"), "--image", str(bad)]) == 2
        assert "ab" in capsys.readouterr().err

    def test_checkpoint_with_huge_rank_is_three(self, tmp_path, capsys):
        import json
        from dataclasses import asdict

        from ldlnet import checkpoint as ckpt_io
        from ldlnet.network import NetworkSpec
        header = json.dumps({"spec": asdict(NetworkSpec()), "iteration": 0,
                             "records": 1}).encode("utf-8")
        bad = tmp_path / "rank.ckpt"
        bad.write_bytes(ckpt_io.MAGIC + struct.pack("<II", ckpt_io.VERSION, len(header))
                        + header + struct.pack("<I", 1) + b"w" + struct.pack("<I", 2**31))
        assert main(["predict", "--ckpt", str(bad), "--image", "unread.ppm"]) == 3

    @pytest.mark.parametrize("key,value", [("stem_stride", 0), ("num_labels", 5.5),
                                           ("skip_connections", "no"), ("stem_pool_pad", -1)])
    def test_checkpoint_with_a_bad_spec_value_is_three(self, tmp_path, capsys, key, value):
        from ldlnet import checkpoint as ckpt_io
        from ldlnet.network import Network, NetworkSpec, init_weights
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16))
        init_weights(net, 0)
        ckpt = ckpt_io.Checkpoint.from_network(net)
        object.__setattr__(ckpt.spec, key, value)   # past the spec's own check
        ckpt_io.save(ckpt, tmp_path / "m.ckpt")
        assert main(["predict", "--ckpt", str(tmp_path / "m.ckpt"), "--image", "unread.ppm"]) == 3
        assert key in capsys.readouterr().err

    def test_header_spec_that_does_not_fit_the_records_is_three(self, tmp_path, capsys):
        path = _toy_checkpoint_with_widths(tmp_path / "m.ckpt", [4, 6, 8, 12])
        assert main(["predict", "--ckpt", str(path), "--image", "unread.ppm"]) == 3
        assert "does not match the records" in capsys.readouterr().err

    def test_header_spec_too_large_to_build_is_three(self, tmp_path):
        # its stage-4 kernel alone is 32.7 TiB; the child's own address-space
        # limit makes the allocation fail whatever the host's overcommit policy
        import ldlnet
        path = _toy_checkpoint_with_widths(tmp_path / "m.ckpt", [4, 6, 8, 1000000])
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ldlnet.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", _RLIMITED_MAIN, "predict", "--ckpt", str(path),
             "--image", "unread.ppm"], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3, done.stderr
        assert "does not match the records" in done.stderr

    def test_train_network_too_large_to_build_is_one(self, tmp_path):
        # a 100000-wide stage 4 needs a 335 GiB kernel; as above, the child's
        # address-space limit refuses it whatever the host's overcommit policy
        import ldlnet
        index = tmp_path / "d.idx"
        assert main(["synth", "--out", str(index), "--n", "24", "--image-size", "16",
                     "--seed", "5"]) == 0
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ldlnet.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", _RLIMITED_MAIN, "train", "--data", str(index),
             "--out", str(tmp_path / "m.ckpt"), "--iters", "1", "--batch", "4",
             "--input-size", "16", "--widths", "1,1,1,100000"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "too large to allocate" in done.stderr and "Traceback" not in done.stderr
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("num_labels", [1, 3])
    def test_head_that_does_not_fit_the_scale_is_one(self, tmp_path, capsys, num_labels):
        # a scalar head predicts no distribution; three levels are not the
        # five of the index. ldl predict reads any c >= 2 as levels 1..c
        from ldlnet import checkpoint as ckpt_io
        from ldlnet.data import save_index
        from ldlnet.network import Network, NetworkSpec, init_weights
        from ldlnet.synth import synth_dataset
        idx = save_index(synth_dataset(4, raters=3, seed=0, image_size=16), tmp_path / "d.idx")
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16, num_labels=num_labels))
        init_weights(net, 0)
        ckpt = tmp_path / "m.ckpt"
        ckpt_io.save(ckpt_io.Checkpoint.from_network(net), ckpt)
        assert main(["eval", "--data", str(idx), "--ckpt", str(ckpt)]) == 1
        image = str(tmp_path / "d_images" / "img_00000.ppm")
        assert main(["predict", "--ckpt", str(ckpt), "--image", image]) == (
            1 if num_labels == 1 else 0)

    def test_predict_decodes_on_the_stored_scale(self, tmp_path, capsys):
        from ldlnet import checkpoint as ckpt_io
        from ldlnet.data import save_index
        from ldlnet.network import Network, NetworkSpec, init_weights
        from ldlnet.synth import synth_dataset
        idx = save_index(synth_dataset(4, raters=3, seed=0, image_size=16), tmp_path / "d.idx")
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16))
        init_weights(net, 0)
        labels = (0.0, 2.5, 5.0, 7.5, 10.0)
        ckpt = tmp_path / "m.ckpt"
        ckpt_io.save(ckpt_io.Checkpoint.from_network(net, labels=labels), ckpt)
        image = str(tmp_path / "d_images" / "img_00000.ppm")
        capsys.readouterr()
        assert main(["predict", "--ckpt", str(ckpt), "--image", image]) == 0
        lines = capsys.readouterr().out.splitlines()
        degrees = [float(v) for v in lines[-2].split()[1:]]
        mean = float(lines[-1].split()[1])
        assert abs(mean - float(np.dot(degrees, labels))) < 1e-4
        assert abs(mean - float(np.dot(degrees, [1, 2, 3, 4, 5]))) > 1e-2
        # the index's scale is 1..5, the checkpoint's another
        assert main(["eval", "--data", str(idx), "--ckpt", str(ckpt)]) == 1
        assert "score scale" in capsys.readouterr().err

    def test_checkpoint_with_malformed_labels_is_three(self, tmp_path, capsys):
        # save refuses these labels, so the header is written by hand
        import json
        from dataclasses import asdict

        from ldlnet import checkpoint as ckpt_io
        from ldlnet.network import NetworkSpec
        header = json.dumps({"spec": asdict(NetworkSpec()), "iteration": 0, "records": 0,
                             "labels": [5, 4, 3, 2, 1]}).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_io.MAGIC + struct.pack("<II", ckpt_io.VERSION, len(header))
                         + header)
        assert main(["predict", "--ckpt", str(path), "--image", "unread.ppm"]) == 3
        assert "labels" in capsys.readouterr().err

    def test_index_row_off_the_scale_is_three(self, workspace, tmp_path, capsys):
        # an off-scale rating exited 1 and named no row
        from ldlnet.imageio import write_ppm
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 16, 16), dtype=np.float32))
        (tmp_path / "d.idx").write_text("a.ppm,ratings:3\na.ppm,ratings:7;3\n")
        assert main(["eval", "--data", str(tmp_path / "d.idx"),
                     "--ckpt", str(workspace / "m.ckpt")]) == 3
        assert "row 2: rating 7.0" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 3\nloss = k\xffl\n")
        assert main(["train", "--data", "d", "--out", "m", "--config", str(cfg)]) == 1
        assert "2: not UTF-8" in capsys.readouterr().err

    def test_directory_in_place_of_a_file_is_two(self, tmp_path, capsys):
        assert main(["eval", "--data", str(tmp_path), "--ckpt", str(tmp_path)]) == 2
        assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m")]) == 2

    def test_undefined_correlation_is_five(self, tmp_path, capsys):
        # a zero final layer predicts the uniform distribution for every
        # image, so the decoded scores are constant and PC is undefined
        from ldlnet import checkpoint as ckpt_io
        from ldlnet.data import save_index
        from ldlnet.network import Network, NetworkSpec, init_weights
        from ldlnet.synth import synth_dataset
        idx = save_index(synth_dataset(6, raters=5, seed=1, image_size=16),
                         tmp_path / "d.idx")
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16))
        init_weights(net, 0)
        net.fc.weight.data[:] = 0.0
        net.fc.bias.data[:] = 0.0
        ckpt_io.save(ckpt_io.Checkpoint.from_network(net), tmp_path / "uniform.ckpt")
        code = main(["eval", "--data", str(idx), "--ckpt", str(tmp_path / "uniform.ckpt")])
        assert code == 5
        assert "constant" in capsys.readouterr().err

    def test_non_finite_loss_is_four(self, tmp_path, capsys):
        from ldlnet.data import save_index
        from ldlnet.synth import synth_dataset
        idx = save_index(synth_dataset(8, raters=3, seed=0, image_size=16), tmp_path / "d.idx")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--data", str(idx), "--out", str(tmp_path / "m.ckpt"),
                         "--lr", "1e30", "--iters", "2", "--batch", "4", "--eval-every", "1",
                         "--blocks", "1,1,1,1", "--widths", "4,6,8,10", "--input-size", "16"])
        assert code == 4
        assert "non-finite loss at iteration 1" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_wrong_backward_is_six(self, capsys, monkeypatch):
        from ldlnet import autodiff
        relu = autodiff.relu

        def relu_with_scaled_backward(t):
            out = relu(t)
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: backward(1.05 * g)
            return out

        monkeypatch.setattr(autodiff, "relu", relu_with_scaled_backward)
        assert main(["gradcheck", "--seeds", "1"]) == 6
        out = capsys.readouterr().out
        assert "op relu: max rel err" in out and "[FAIL]" in out
        assert out.rstrip().endswith("gradient suite FAIL")

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_gradcheck_without_draws_is_one(self, capsys, seeds):
        # a suite of no draws would check no op and still pass
        assert main(["gradcheck", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert "num_seeds must be >= 1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("args", [
        ["synth", "--out", "{tmp}/s.idx", "--n", "4"],
        ["train", "--data", "{tmp}/absent.idx", "--out", "{tmp}/m.ckpt"],
        ["gradcheck", "--seeds", "1"],
    ])
    def test_negative_seed_is_one(self, tmp_path, capsys, args):
        # refused before it reaches numpy, which raises a raw ValueError
        argv = [a.format(tmp=tmp_path) for a in args] + ["--seed", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err
        assert "op " not in captured.out   # refused before any gradient check runs
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
                                            ("--tol", "inf"), ("--e2e-tol", "0")])
    def test_bad_tolerance_is_one_before_the_suite(self, capsys, monkeypatch, flag, value):
        # each ran the whole suite and exited 6, "gradient suite FAIL"
        from ldlnet import gradcheck
        for name in ("gradient_suite", "end_to_end_check"):
            monkeypatch.setattr(gradcheck, name, lambda *a, **k: pytest.fail("the suite ran"))
        assert main(["gradcheck", flag, value]) == 1
        assert "tol must be a finite number > 0" in capsys.readouterr().err

    def test_index_name_with_a_comma_is_one(self, tmp_path, capsys):
        # the rows read back as 'a', 'b_images/img_00000.ppm' and the labels
        assert main(["synth", "--out", str(tmp_path / "a,b.idx"), "--n", "2", "--raters", "3",
                     "--image-size", "16"]) == 1
        assert "save_index image path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad,message", [("absent/x", "output directory not found"),
                                             ("taken", "output path is a directory")])
    @pytest.mark.parametrize("verb,flag", [("train", "--out"), ("train", "--metrics"),
                                           ("eval", "--out"), ("synth", "--out"),
                                           ("export --kind checkpoint", "--out"),
                                           ("export --kind dataset", "--out")])
    def test_output_that_cannot_be_written_is_two_before_any_work(
            self, tmp_path, capsys, monkeypatch, verb, flag, bad, message):
        # train trained every iteration (and wrote the checkpoint before a bad
        # --metrics), and eval printed its whole evaluation, then each exited 2;
        # a checkpoint export loaded its source first; synth and a dataset
        # export created the missing directory and exited 0
        from ldlnet import checkpoint, data, synth, training
        for owner, name in ((data, "load_index"), (training, "train"), (checkpoint, "load"),
                            (synth, "synth_dataset")):
            monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("worked first"))
        (tmp_path / "taken").mkdir()
        paths = {"train": {"--data": "d.idx", "--out": "m.ckpt", "--metrics": "m.csv"},
                 "eval": {"--data": "d.idx", "--ckpt": "m.ckpt", "--out": "e.csv"},
                 "synth": {"--out": "s.idx"},
                 "export --kind checkpoint": {"--src": "m.ckpt", "--out": "x.ckpt"},
                 "export --kind dataset": {"--src": "d.idx", "--out": "e.idx"}}[verb]
        paths[flag] = bad
        argv = verb.split()
        for key, name in paths.items():
            argv += [key, str(tmp_path / name)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    assert main(["synth", "--out", str(root / "d.idx"), "--n", "24",
                 "--raters", "9", "--image-size", "16", "--seed", "5"]) == 0
    args = ["train", "--data", str(root / "d.idx"), "--out", str(root / "m.ckpt"),
            "--metrics", str(root / "m.csv"), "--iters", "8", "--batch", "8",
            "--eval-every", "4", "--train-frac", "0.75", "--seed", "5",
            "--blocks", "1,1,1,1", "--widths", "4,6,8,10", "--input-size", "16"]
    assert main(args) == 0
    return root


class TestVerbRoundTrip:
    def test_train_outputs_exist(self, workspace):
        assert (workspace / "m.ckpt").exists()
        assert (workspace / "m.csv").read_text().startswith("iter,train_loss")

    def test_eval_writes_per_sample_csv(self, workspace, capsys):
        code = main(["eval", "--data", str(workspace / "d.idx"),
                     "--ckpt", str(workspace / "m.ckpt"),
                     "--out", str(workspace / "per.csv")])
        out = capsys.readouterr().out
        assert code in (0, 5)  # tiny runs may predict near-constant scores
        header = (workspace / "per.csv").read_text().splitlines()[0]
        assert header == "path,true_mean,pred_mean,pred_d1,pred_d2,pred_d3,pred_d4,pred_d5"
        assert "kl" in out and "chebyshev" in out

    def test_eval_out_runs_the_network_once_per_image(self, workspace, capsys, monkeypatch):
        from ldlnet import checkpoint as ckpt_io
        from ldlnet.data import load_index
        from ldlnet.distributions import weighted_mean
        from ldlnet.network import Network
        from ldlnet.training import evaluate, predict_distributions
        forwarded = []
        forward = Network.forward

        def counting(net, batch, mode="train"):
            forwarded.append(len(batch))
            return forward(net, batch, mode)

        monkeypatch.setattr(Network, "forward", counting)
        main(["eval", "--data", str(workspace / "d.idx"), "--ckpt", str(workspace / "m.ckpt"),
              "--out", str(workspace / "once.csv")])
        monkeypatch.undo()
        printed = capsys.readouterr().out
        ds = load_index(workspace / "d.idx", image_size=16)
        assert sum(forwarded) == ds.n
        # what the two separate passes gave: the PC of evaluate, the rows of
        # predict_distributions
        net = Network(ckpt_io.load(workspace / "m.ckpt").spec)
        net.load_state_dict(ckpt_io.load(workspace / "m.ckpt").state)
        indices = list(range(ds.n))
        assert f" pc {evaluate(net, ds, indices).pc!r} " in printed
        expected = [f"{s.path},{s.mean_score!r},{weighted_mean(d, ds.scale)!r},"
                    + ",".join(repr(float(v)) for v in d)
                    for s, d in zip(ds.samples, predict_distributions(net, ds, indices))]
        assert (workspace / "once.csv").read_text().splitlines()[1:] == expected

    def test_predict_prints_degrees_and_mean(self, workspace, capsys):
        img = str(workspace / "d_images" / "img_00000.ppm")
        assert main(["predict", "--ckpt", str(workspace / "m.ckpt"),
                     "--image", img]) == 0
        out = capsys.readouterr().out
        assert "degrees:" in out and "weighted_mean:" in out
        degrees = [float(v) for v in
                   out.split("degrees:")[1].splitlines()[0].split()]
        assert len(degrees) == 5
        assert abs(sum(degrees) - 1.0) < 1e-5

    def test_predict_accepts_crop(self, workspace, capsys):
        img = str(workspace / "d_images" / "img_00000.ppm")
        assert main(["predict", "--ckpt", str(workspace / "m.ckpt"),
                     "--image", img, "--crop", "2,2,14,14"]) == 0
        assert "weighted_mean:" in capsys.readouterr().out

    def test_resolved_config_printed_before_acting(self, workspace, capsys):
        main(["predict", "--ckpt", str(workspace / "m.ckpt"),
              "--image", str(workspace / "d_images" / "img_00001.ppm")])
        out = capsys.readouterr().out
        assert out.index("verb = predict") < out.index("degrees:")
        assert "ckpt = " in out and "image = " in out

    def test_export_checkpoint_round_trip(self, workspace, capsys):
        from ldlnet import checkpoint as ckpt_io
        out_path = workspace / "m2.ckpt"
        assert main(["export", "--kind", "checkpoint",
                     "--src", str(workspace / "m.ckpt"), "--out", str(out_path)]) == 0
        a = ckpt_io.load(workspace / "m.ckpt")
        b = ckpt_io.load(out_path)
        assert a.spec == b.spec and a.iteration == b.iteration
        assert all(np.array_equal(a.state[k], b.state[k]) for k in a.state)

    def test_export_dataset_to_dist_rows(self, workspace, capsys):
        out_idx = workspace / "d2.idx"
        assert main(["export", "--kind", "dataset", "--src", str(workspace / "d.idx"),
                     "--out", str(out_idx), "--labels-as", "dist"]) == 0
        text = out_idx.read_text()
        assert "dist:" in text and "ratings:" not in text
        from ldlnet.data import load_index
        a = load_index(workspace / "d.idx")
        b = load_index(out_idx)
        for sa, sb in zip(a.samples, b.samples):
            assert np.max(np.abs(sa.distribution - sb.distribution)) < 1e-6


class TestSplitCounts:
    def test_train_count_needs_test_count(self, workspace, capsys):
        assert main(["train", "--data", str(workspace / "d.idx"), "--out",
                     str(workspace / "c.ckpt"), "--train-count", "16"]) == 1
        assert "--train-count and --test-count" in capsys.readouterr().err

    def test_count_flags_checked_before_the_data_is_read(self, tmp_path, capsys):
        # a flag error is a usage error (1) even when --data does not exist (2)
        assert main(["train", "--data", str(tmp_path / "absent.idx"), "--out",
                     str(tmp_path / "m"), "--train-count", "16"]) == 1
        assert "--train-count and --test-count" in capsys.readouterr().err

    def test_explicit_counts_train(self, workspace, capsys):
        assert main(["train", "--data", str(workspace / "d.idx"),
                     "--out", str(workspace / "c.ckpt"), "--iters", "2", "--batch", "8",
                     "--eval-every", "2", "--train-count", "16", "--test-count", "8",
                     "--blocks", "1,1,1,1", "--widths", "4,6,8,10", "--input-size", "16"]) == 0
        assert (workspace / "c.ckpt").exists()


class TestGradcheckVerb:
    def test_passes_with_few_seeds(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "gradient suite PASS" in out
        assert "end-to-end" in out


_THREAD_PROBE = """
import ctypes, glob, os
import numpy
import ldlnet
libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*")))
getter = getattr(ctypes.CDLL(paths[0]), "scipy_openblas_get_num_threads64_", None) if paths else None
if getter is None:
    print("absent")
else:
    getter.restype = ctypes.c_int
    getter.argtypes = []
    print(getter())
"""


class TestThreadCap:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cap_holds_when_numpy_is_imported_first(self, threads):
        import ldlnet
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["LDL_THREADS"] = threads
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ldlnet.__file__))
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.strip()
        if out == "absent":
            pytest.skip("numpy does not bundle scipy-openblas here")
        assert out == threads
