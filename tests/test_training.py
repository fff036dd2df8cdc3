"""Tests for the schedule, the SGD update, the training loop, and evaluation."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ldlnet.autodiff as ad
from ldlnet.checkpoint import Checkpoint
from ldlnet.data import split
from ldlnet.distributions import kl_loss_graph
from ldlnet.errors import ConfigurationError, NumericalError
from ldlnet.network import Network, NetworkSpec, ParamRecord, init_weights
from ldlnet.synth import synth_dataset
from ldlnet.training import (
    EvalPoint,
    MetricsLog,
    TrainConfig,
    evaluate,
    lr_at,
    PREDICT_BATCH,
    predict_distributions,
    predict_scalar_scores,
    recompute_bn_stats,
    sgd_step,
    train,
    train_mean_regression,
)

TOY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10), input_size=16)


def toy_dataset(n=64, seed=0, train=48):
    ds = synth_dataset(n, raters=15, noise_sd=0.4, bimodal_fraction=0.1,
                       seed=seed, image_size=16)
    return split(ds, counts=(train, n - train), seed=seed)


class TestSchedule:
    def test_published_schedule_values(self):
        cfg = TrainConfig()
        assert lr_at(cfg, 0) == pytest.approx(0.001)
        assert lr_at(cfg, 3999) == pytest.approx(0.001)
        assert lr_at(cfg, 4000) == pytest.approx(0.0001)
        assert lr_at(cfg, 16999) == pytest.approx(1e-7)

    def test_out_of_range(self):
        cfg = TrainConfig()
        with pytest.raises(ConfigurationError):
            lr_at(cfg, -1)
        with pytest.raises(ConfigurationError):
            lr_at(cfg, 17000)

    def test_plateau_count(self):
        cfg = TrainConfig()
        values = {lr_at(cfg, i) for i in range(cfg.max_iter)}
        assert len(values) == math.ceil(cfg.max_iter / cfg.lr_step)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(loss="huber")
        with pytest.raises(ConfigurationError):
            TrainConfig(lr_factor=1.5)
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=1)

    @pytest.mark.parametrize("name,value", [
        ("batch_size", 2.5), ("max_iter", 3.5), ("augment_factor", 1.5), ("seed", 1.5),
        ("lr_step", 4000.0), ("eval_every", True), ("batch_size", "32"), ("seed", None),
    ])
    def test_integer_fields_refuse_other_types(self, name, value):
        # a float passes every range check, then fails deep inside training
        with pytest.raises(ConfigurationError, match=f"TrainConfig {name} must be an integer"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value,message", [
        ("seed", -1, "TrainConfig seed must be >= 0, got -1"),
        ("batch_size", 1, "TrainConfig batch_size must be >= 2, got 1"),
        ("max_iter", 0, "TrainConfig max_iter must be >= 1, got 0"),
        ("augment_factor", 0, "TrainConfig augment_factor must be >= 1, got 0"),
    ])
    def test_integer_fields_refuse_out_of_range_values(self, name, value, message):
        with pytest.raises(ConfigurationError) as exc:
            TrainConfig(**{name: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("name,value", [("base_lr", math.nan), ("momentum", math.nan),
                                            ("weight_decay", math.inf),
                                            ("last_layer_lr_mult", math.nan)])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigurationError) as exc:
            TrainConfig(**{name: value})
        assert name in str(exc.value)

    @pytest.mark.parametrize("name,value", [
        ("base_lr", "x"), ("momentum", None), ("lr_factor", "0.5"), ("weight_decay", [1]),
        ("base_lr", True), ("momentum", True),
        pytest.param("last_layer_decay_mult", 10**400, id="last_layer_decay_mult-10**400"),
    ])
    def test_real_fields_refuse_other_types(self, name, value):
        # the strings, None and the list were raw TypeErrors; the bools passed
        with pytest.raises(ConfigurationError, match=f"TrainConfig {name} must be a finite number"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value,message", [
        ("base_lr", 0, "TrainConfig base_lr must be a finite number > 0, got 0"),
        ("lr_factor", 1.0, "TrainConfig lr_factor must be a finite number in (0, 1), got 1.0"),
        ("momentum", -0.5, "TrainConfig momentum must be a finite number >= 0, got -0.5"),
    ])
    def test_real_fields_refuse_out_of_range_values(self, name, value, message):
        with pytest.raises(ConfigurationError) as exc:
            TrainConfig(**{name: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("name,value,message", [
        pytest.param("seed", -10**5000, "TrainConfig seed must be >= 0, got -<16610-bit int>",
                     id="seed--10**5000"),
        pytest.param("base_lr", -10**5000,
                     "TrainConfig base_lr must be a finite number > 0, got -<16610-bit int>",
                     id="base_lr--10**5000"),
        pytest.param("seed", [10**5000], "TrainConfig seed must be an integer, got <unprintable list>",
                     id="seed-[10**5000]"),
        pytest.param("base_lr", (-10**5000,),
                     "TrainConfig base_lr must be a finite number > 0, got <unprintable tuple>",
                     id="base_lr-(-10**5000,)"),
    ])
    def test_an_integer_too_long_to_print_is_named_by_its_size(self, name, value, message):
        # the message printed the value, and Python refuses to print an int of 4300+ digits
        with pytest.raises(ConfigurationError) as exc:
            TrainConfig(**{name: value})
        assert str(exc.value) == message

    def test_fields_are_stored_as_their_checked_numbers(self):
        cfg = TrainConfig(base_lr=1, momentum=np.float32(0.5), weight_decay=0,
                          batch_size=np.int64(4))
        assert (type(cfg.base_lr), type(cfg.momentum), type(cfg.batch_size)) == (float, float, int)
        assert (cfg.base_lr, cfg.momentum, cfg.weight_decay) == (1.0, 0.5, 0.0)


class TestSgdStep:
    def _record(self, value, kind="weight", last=False, name="w"):
        t = ad.Tensor(np.array([value], dtype=np.float32), requires_grad=True)
        return ParamRecord(name, t, kind, last_layer=last)

    def test_plain_sgd_example(self):
        rec = self._record(1.0)
        rec.tensor.grad = np.array([0.5], dtype=np.float32)
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0, base_lr=0.1, max_iter=10,
                          lr_step=10)
        sgd_step([rec], {}, cfg, 0)
        assert rec.tensor.data[0] == pytest.approx(0.95)

    def test_a_record_without_a_gradient_still_decays(self):
        # a parameter the loss does not reach moves by its weight decay alone
        rec = self._record(1.0)
        cfg = TrainConfig(momentum=0.0, weight_decay=0.5, base_lr=0.1, max_iter=10,
                          lr_step=10)
        velocities = {}
        sgd_step([rec], velocities, cfg, 0)
        assert rec.tensor.data[0] == pytest.approx(0.95)
        assert velocities["w"][0] == pytest.approx(-0.05) and rec.tensor.grad is None

    def test_zero_gradient_zero_decay_is_fixed_point(self):
        rec = self._record(2.0)
        rec.tensor.grad = np.zeros(1, dtype=np.float32)
        cfg = TrainConfig(momentum=0.9, weight_decay=0.0, max_iter=10, lr_step=10)
        sgd_step([rec], {}, cfg, 0)
        assert rec.tensor.data[0] == 2.0

    def test_last_layer_rate_is_ten_times_stem_rate(self):
        stem = self._record(1.0, name="stem.conv.weight")
        last = self._record(1.0, last=True, name="fc.weight")
        for rec in (stem, last):
            rec.tensor.grad = np.ones(1, dtype=np.float32)
        cfg = TrainConfig(momentum=0.0, weight_decay=0.0, max_iter=10, lr_step=10)
        sgd_step([stem, last], {}, cfg, 0)
        stem_delta = 1.0 - stem.tensor.data[0]
        last_delta = 1.0 - last.tensor.data[0]
        assert stem_delta == pytest.approx(0.001, rel=1e-4)   # float32 params
        assert last_delta == pytest.approx(0.01, rel=1e-4)

    def test_bn_parameters_exempt_from_decay(self):
        gamma = self._record(1.0, kind="bn_gamma", name="bn.gamma")
        weight = self._record(1.0, kind="weight", name="conv.weight")
        for rec in (gamma, weight):
            rec.tensor.grad = np.zeros(1, dtype=np.float32)
        cfg = TrainConfig(momentum=0.0, weight_decay=0.01, max_iter=10, lr_step=10)
        sgd_step([gamma, weight], {}, cfg, 0)
        assert gamma.tensor.data[0] == 1.0
        assert weight.tensor.data[0] < 1.0

    def test_nan_gradient_aborts_with_name_and_iteration(self):
        rec = self._record(1.0, name="stage2.block0.conv1.weight")
        rec.tensor.grad = np.array([np.nan], dtype=np.float32)
        cfg = TrainConfig(max_iter=100, lr_step=10)
        with pytest.raises(NumericalError) as exc:
            sgd_step([rec], {}, cfg, 42)
        msg = str(exc.value)
        assert "42" in msg and "stage2.block0.conv1.weight" in msg

    def test_nan_gradient_changes_no_record(self):
        # every gradient is checked before the first update
        first = self._record(1.0, name="a")
        second = self._record(1.0, name="b")
        first.tensor.grad = np.array([0.5], dtype=np.float32)
        second.tensor.grad = np.array([np.nan], dtype=np.float32)
        velocities = {"a": np.array([0.25], dtype=np.float32)}
        cfg = TrainConfig(max_iter=10, lr_step=10)
        with pytest.raises(NumericalError, match="parameter b"):
            sgd_step([first, second], velocities, cfg, 0)
        assert first.tensor.data[0] == 1.0
        assert velocities["a"][0] == 0.25 and "b" not in velocities
        assert first.tensor.grad is not None and first.tensor.grad[0] == 0.5

    def test_step_releases_every_gradient(self):
        net = Network(TOY)
        init_weights(net, 0)
        ds = toy_dataset(8, seed=0, train=6)
        images = np.stack([ds.samples[i].image for i in ds.train_idx[:4]])
        targets = np.stack([ds.samples[i].distribution for i in ds.train_idx[:4]])
        kl_loss_graph(net.forward(images, mode="train").distribution, targets).backward()
        records = net.param_records()
        assert all(rec.tensor.grad is not None for rec in records)
        sgd_step(records, {}, TrainConfig(max_iter=10, lr_step=10), 0)
        assert all(rec.tensor.grad is None for rec in records)

    def test_single_step_decreases_smooth_loss(self):
        # momentum 0, decay 0, tiny lr: one step must descend
        for seed in range(20):
            ds = toy_dataset(16, seed=seed, train=12)
            net = Network(TOY)
            init_weights(net, seed)
            images = np.stack([ds.samples[i].image for i in ds.train_idx[:8]])
            targets = np.stack([ds.samples[i].distribution for i in ds.train_idx[:8]])

            def batch_loss():
                out = net.forward(images, mode="train")
                return kl_loss_graph(out.distribution, targets)

            cfg = TrainConfig(momentum=0.0, weight_decay=0.0, base_lr=1e-5,
                              max_iter=10, lr_step=10)
            before = float(batch_loss().data)
            loss = batch_loss()
            for rec in net.param_records():
                rec.tensor.grad = None
            loss.backward()
            sgd_step(net.param_records(), {}, cfg, 0)
            after = float(batch_loss().data)
            assert after < before, f"seed {seed}: {after} !< {before}"


class TestMetricsLog:
    def test_iterations_strictly_increasing(self):
        log = MetricsLog()
        log.append(EvalPoint(10, 1.0, 1.0, 0.5, 0.1, 0.1))
        with pytest.raises(ConfigurationError):
            log.append(EvalPoint(10, 1.0, 1.0, 0.5, 0.1, 0.1))

    def test_csv_header(self):
        log = MetricsLog()
        log.append(EvalPoint(5, 0.25, 0.5, 0.9, 0.125, 0.0625))
        text = log.to_csv()
        assert text.splitlines()[0] == "iter,train_loss,test_loss,test_pc,test_kl,test_chebyshev"
        assert text.splitlines()[1] == "5,0.25,0.5,0.9,0.125,0.0625"


class TestTrainLoop:
    def test_smoke_run_loss_decreases(self):
        ds = toy_dataset(64, seed=1)
        cfg = TrainConfig(max_iter=50, batch_size=16, eval_every=10, seed=1,
                          loss="euclidean_sq")
        # initial train loss: the untrained network train() starts from
        fresh = Network(TOY)
        init_weights(fresh, cfg.seed)
        initial = evaluate(fresh, ds, ds.train_idx, loss_kind=cfg.loss).mean_loss
        ckpt, log = train(ds, TOY, cfg)
        assert ckpt.iteration == 50
        assert log.points[-1].iteration == 50
        assert log.points[-1].train_loss < initial

    def test_determinism_bitwise_identical_csv(self):
        ds = toy_dataset(32, seed=2, train=24)
        cfg = TrainConfig(max_iter=8, batch_size=8, eval_every=4, seed=3)
        _, log_a = train(ds, TOY, cfg)
        _, log_b = train(ds, TOY, cfg)
        assert log_a.to_csv() == log_b.to_csv()

    def test_kl_on_uniform_targets_starts_at_zero(self):
        rng = np.random.default_rng(4)
        net = Network(TOY)
        init_weights(net, 4)
        net.fc.weight.data[:] = 0.0
        net.fc.bias.data[:] = 0.0
        images = rng.uniform(size=(8, 3, 16, 16)).astype(np.float32)
        targets = np.full((8, 5), 0.2, dtype=np.float32)
        out = net.forward(images, mode="train")
        loss = kl_loss_graph(out.distribution, targets)
        assert abs(float(loss.data)) < 1e-6

    def test_checkpoint_carries_the_score_scale(self):
        import dataclasses

        from ldlnet.distributions import ScoreScale
        scale = ScoreScale((2, 4, 6, 8, 10))
        ds = dataclasses.replace(toy_dataset(16, seed=6, train=12), scale=scale)
        cfg = TrainConfig(max_iter=2, batch_size=4, eval_every=1)
        assert train(ds, TOY, cfg)[0].scale == scale
        spec = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                           input_size=16, num_labels=1)
        assert train_mean_regression(ds, spec, cfg)[0].labels == scale.labels

    def test_requires_both_splits(self):
        ds = synth_dataset(8, raters=5, seed=5, image_size=16)  # all-train
        with pytest.raises(ConfigurationError):
            train(ds, TOY, TrainConfig(max_iter=2, batch_size=4, eval_every=1))

    @pytest.mark.parametrize("num_labels", [1, 3])
    def test_head_must_match_the_score_scale(self, num_labels, monkeypatch):
        import ldlnet.training as training

        def no_network(spec):
            raise AssertionError("built a network for a mismatched spec")

        monkeypatch.setattr(training, "Network", no_network)
        ds = toy_dataset(16, seed=6, train=12)
        spec = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                           input_size=16, num_labels=num_labels)
        with pytest.raises(ConfigurationError) as exc:
            train(ds, spec, TrainConfig(max_iter=2, batch_size=4, eval_every=1))
        assert "num_labels" in str(exc.value)

    def test_single_train_sample_is_a_configuration_error(self):
        # one sample makes no batch train-mode batch norm accepts
        ds = toy_dataset(4, seed=6, train=1)
        with pytest.raises(ConfigurationError):
            train(ds, TOY, TrainConfig(max_iter=2, batch_size=4, eval_every=1))

    def test_kl_loss_column_is_the_kl_metric(self):
        # with loss="kl" the reported loss and the KL metric are one computation
        for seed in (1, 2, 3):
            ds = toy_dataset(32, seed=seed, train=24)
            cfg = TrainConfig(max_iter=6, batch_size=8, eval_every=2, seed=seed, loss="kl")
            _, log = train(ds, TOY, cfg)
            assert [p.test_loss for p in log.points] == [p.test_kl for p in log.points]

    def test_dimension_mismatch_fails_before_training(self):
        ds = toy_dataset(16, seed=6, train=12)
        spec32 = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                             input_size=32)
        with pytest.raises(ConfigurationError):
            train(ds, spec32, TrainConfig(max_iter=2, batch_size=4, eval_every=1))

    def test_wrong_image_size_is_refused_before_augmenting(self, monkeypatch):
        # an augmented copy has its base's shape, so the base samples decide
        import ldlnet.training as training

        def no_expand(*args, **kwargs):
            raise AssertionError("augmented a dataset the network cannot take")

        monkeypatch.setattr(training, "expand", no_expand)
        ds = toy_dataset(16, seed=6, train=12)
        spec32 = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                             input_size=32)
        cfg = TrainConfig(max_iter=2, batch_size=4, eval_every=1, augment_factor=3)
        for run, spec in ((train, spec32), (train_mean_regression, replace(spec32, num_labels=1))):
            with pytest.raises(ConfigurationError, match="does not match network input"):
                run(ds, spec, cfg)


class TestEvaluationLeavesTrainingAlone:
    """Eval points set batch-norm statistics and read the network, and train
    mode reads no statistics, so how often a run evaluates changes neither
    its weights nor its final checkpoint."""

    MAX_ITER = 6

    def _runs(self, run, spec, ds):
        return {every: run(ds, spec, TrainConfig(max_iter=self.MAX_ITER, batch_size=8,
                                                 eval_every=every, seed=7, augment_factor=2))
                for every in (1, 4, self.MAX_ITER)}

    @staticmethod
    def _same_checkpoint(a, b):
        assert (a.spec, a.iteration, a.labels) == (b.spec, b.iteration, b.labels)
        assert list(a.state) == list(b.state)
        assert all(a.state[k].tobytes() == b.state[k].tobytes() for k in a.state)

    def test_train(self):
        runs = self._runs(train, TOY, toy_dataset(32, seed=7, train=24))
        every_step = set(runs[1][1].to_csv().splitlines())
        for ckpt, log in runs.values():
            self._same_checkpoint(ckpt, runs[1][0])
            assert set(log.to_csv().splitlines()) <= every_step
        assert [p.iteration for p in runs[4][1].points] == [4, self.MAX_ITER]

    def test_mean_regression(self):
        spec = replace(TOY, num_labels=1)
        runs = self._runs(train_mean_regression, spec, toy_dataset(32, seed=7, train=24))
        every_step = dict(runs[1][1])
        for ckpt, history in runs.values():
            self._same_checkpoint(ckpt, runs[1][0])
            assert history == [(it, every_step[it]) for it, _ in history]
        assert [it for it, _ in runs[self.MAX_ITER][1]] == [self.MAX_ITER]


class TestEvaluate:
    class _OracleNet:
        """Stub predictor that returns exactly the targets it is fed."""

        def __init__(self, dataset, indices):
            self.queue = [dataset.samples[i].distribution for i in indices]
            self.pos = 0

        def forward(self, batch, mode="eval"):
            from ldlnet.network import NetworkOutput
            n = batch.shape[0]
            dist = np.stack(self.queue[self.pos:self.pos + n]).astype(np.float64)
            self.pos += n
            t = ad.Tensor(dist)
            return NetworkOutput(logits=t, distribution=t, features=t)

    def test_oracle_predictor_is_perfect(self):
        ds = toy_dataset(24, seed=7, train=16)
        oracle = self._OracleNet(ds, ds.test_idx)
        rec = evaluate(oracle, ds, ds.test_idx)
        assert rec.pc == pytest.approx(1.0)
        assert rec.mean_kl == pytest.approx(0.0, abs=1e-9)
        assert rec.mean_chebyshev == pytest.approx(0.0, abs=1e-12)
        assert rec.mean_loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_predictor_has_undefined_correlation(self):
        ds = toy_dataset(24, seed=8, train=16)
        net = Network(TOY)
        init_weights(net, 8)
        net.fc.weight.data[:] = 0.0
        net.fc.bias.data[:] = 0.0
        rec = evaluate(net, ds, ds.test_idx)
        assert math.isnan(rec.pc)
        assert rec.pc_error is not None and "constant" in rec.pc_error

    def test_offset_predictions_keep_pc_one(self):
        from ldlnet.distributions import pearson
        ds = toy_dataset(24, seed=9, train=16)
        true = np.array([ds.samples[i].mean_score for i in ds.test_idx])
        assert pearson(true + 0.5, true) == pytest.approx(1.0)

    def test_split_longer_than_a_batch_is_predicted_in_order(self):
        ds = toy_dataset(24, seed=7, train=16)
        indices = list(range(ds.n)) * 3
        assert len(indices) > PREDICT_BATCH
        preds = predict_distributions(self._OracleNet(ds, indices), ds, indices)
        assert np.array_equal(preds, np.stack([ds.samples[i].distribution for i in indices]))

    def test_levels_that_do_not_match_the_scale_are_refused(self):
        ds = toy_dataset(16, seed=10, train=12)
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16, num_labels=3))
        init_weights(net, 0)
        with pytest.raises(ConfigurationError, match="predicts 3 levels, score scale has 5"):
            evaluate(net, ds, ds.test_idx)

    def test_empty_split_rejected(self):
        ds = toy_dataset(16, seed=10, train=12)
        net = Network(TOY)
        with pytest.raises(ConfigurationError):
            evaluate(net, ds, [])

    @pytest.mark.parametrize("predict", [predict_distributions, predict_scalar_scores])
    def test_empty_split_is_refused_by_the_predictors(self, predict):
        # a raw ValueError from np.concatenate of no batches
        ds = toy_dataset(16, seed=10, train=12)
        with pytest.raises(ConfigurationError, match="non-empty split"):
            predict(Network(TOY), ds, [])


class TestPopulationBnStats:
    """The returned checkpoint carries batch-norm statistics recomputed over
    the train split, not the momentum average of the last training batches."""

    def _expected_stem_stats(self, ckpt, ds, batch_size):
        net = Network(ckpt.spec)
        net.load_state_dict(ckpt.state)
        idx = ds.train_idx
        mean = np.zeros(ckpt.spec.stage_widths[0])
        var = np.zeros_like(mean)
        for start in range(0, len(idx), batch_size):
            chunk = idx[start:start + batch_size]
            images = np.stack([ds.samples[i].image for i in chunk]).astype(np.float32)
            with ad.no_grad():
                out = net.stem_conv.forward(ad.Tensor(images)).data.astype(np.float64)
            mean += len(chunk) * out.mean(axis=(0, 2, 3))
            var += len(chunk) * out.var(axis=(0, 2, 3))
        return mean / len(idx), var / len(idx)

    def _check(self, ckpt, ds, batch_size):
        mean, var = self._expected_stem_stats(ckpt, ds, batch_size)
        got_mean = ckpt.state["stem.bn.running_mean"]
        got_var = ckpt.state["stem.bn.running_var"]
        scale = np.sqrt(var)
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-5 * scale.max())
        np.testing.assert_allclose(got_var, var, rtol=1e-5)

    def test_train_checkpoint_has_population_stats(self):
        # 48 train samples in batches of 20, 20 and 8
        ds = toy_dataset(64, seed=13, train=48)
        cfg = TrainConfig(max_iter=12, batch_size=20, eval_every=5, seed=13)
        ckpt, _ = train(ds, TOY, cfg)
        self._check(ckpt, ds, cfg.batch_size)

    def test_lone_trailing_sample_joins_the_batch_before(self):
        # 21 samples in batches of 10 leave a batch of 1, which train-mode
        # batch norm refuses; the pass must still run and count every sample
        ds = toy_dataset(24, seed=15, train=21)
        net = Network(TOY)
        init_weights(net, 15)
        recompute_bn_stats(net, ds, ds.train_idx, 10)
        self._check(Checkpoint.from_network(net), ds, 10)

    @pytest.mark.parametrize("indices,batch_size", [([], 2), (None, 0), (None, 1),
                                                    (None, 1.5), (None, True)])
    def test_refusal_leaves_the_statistics_unchanged(self, indices, batch_size):
        # [] set every statistic to NaN; 0 and 1.5 raised a raw ValueError and TypeError
        ds = toy_dataset(24, seed=16, train=20)
        net = Network(TOY)
        init_weights(net, 16)
        recompute_bn_stats(net, ds, ds.train_idx, 10)
        before = {k: v.copy() for k, v in net.state_dict().items()}
        with pytest.raises(ConfigurationError):
            recompute_bn_stats(net, ds, ds.train_idx if indices is None else indices,
                               batch_size)
        after = net.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_mean_regression_checkpoint_has_population_stats(self):
        ds = toy_dataset(64, seed=14, train=48)
        spec = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                           input_size=16, num_labels=1)
        cfg = TrainConfig(max_iter=12, batch_size=20, eval_every=5, seed=14)
        ckpt, _ = train_mean_regression(ds, spec, cfg)
        self._check(ckpt, ds, cfg.batch_size)


class TestRegressionBaseline:
    def test_scalar_head_trains(self):
        ds = toy_dataset(32, seed=11, train=24)
        spec = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                           input_size=16, num_labels=1)
        cfg = TrainConfig(max_iter=10, batch_size=8, eval_every=5, seed=11)
        ckpt, history = train_mean_regression(ds, spec, cfg)
        assert ckpt.iteration == 10
        assert len(history) == 2
        net = Network(spec)
        net.load_state_dict(ckpt.state)
        scores = predict_scalar_scores(net, ds, ds.test_idx)
        assert scores.shape == (len(ds.test_idx),) and scores.dtype == np.float64

    def test_rejects_distribution_head(self):
        ds = toy_dataset(16, seed=12, train=12)
        with pytest.raises(ConfigurationError):
            train_mean_regression(ds, TOY, TrainConfig(max_iter=2, batch_size=4,
                                                       eval_every=1))


# the criterion-8 toy run, writing its checkpoint and metrics CSV into out_dir;
# it prints the OpenBLAS thread count in effect, or "absent"
_TOY_RUN = """
import ctypes, glob, os
import numpy
from ldlnet import checkpoint
from ldlnet.data import split
from ldlnet.network import NetworkSpec
from ldlnet.synth import synth_dataset
from ldlnet.training import TrainConfig, train

toy = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10), input_size=16)
ds = split(synth_dataset(n=32, raters=9, seed=808, image_size=16), counts=(24, 8), seed=808)
ckpt, log = train(ds, toy, TrainConfig(max_iter=8, batch_size=8, eval_every=4, seed=9))
checkpoint.save(ckpt, os.path.join(out_dir, "toy.ckpt"))
log.save_csv(os.path.join(out_dir, "toy.metrics.csv"))
libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*")))
getter = getattr(ctypes.CDLL(paths[0]), "scipy_openblas_get_num_threads64_", None) if paths else None
print("absent" if getter is None else getter())
"""


class TestDeterminism:
    def test_one_and_two_blas_threads_write_the_same_bytes(self, tmp_path):
        # both runs are child processes, so neither inherits this process's thread count
        import ldlnet
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ldlnet.__file__))
        threads = []
        for count in ("1", "2"):
            (tmp_path / count).mkdir()
            env["LDL_THREADS"] = count
            threads.append(subprocess.run(
                [sys.executable, "-c", f"out_dir = {str(tmp_path / count)!r}\n" + _TOY_RUN],
                env=env, check=True, capture_output=True, text=True,
                timeout=300).stdout.split()[-1])
        assert threads in (["absent", "absent"], ["1", "2"])
        for name in ("toy.ckpt", "toy.metrics.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
