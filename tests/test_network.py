"""Tests for the residual network builder, initialization, and forward pass."""

import itertools

import numpy as np
import pytest

import ldlnet.autodiff as ad
from ldlnet.errors import ConfigurationError, DimensionError
from ldlnet.network import (
    BLOCK_LAYOUTS,
    BRANCH_END_GAMMA,
    Network,
    NetworkSpec,
    ResidualBlock,
    init_weights,
    full_scale_spec,
    stage_spatial_sizes,
)

TOY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10), input_size=16)


class TestSpec:
    def test_fifty_layer_configuration(self):
        assert Network(full_scale_spec(50)).weighted_layer_count() == 50

    def test_hundred_one_layer_configuration(self):
        assert Network(full_scale_spec(101)).weighted_layer_count() == 101

    def test_desk_default(self):
        spec = NetworkSpec()
        assert spec.block_counts == (1, 1, 1, 1)
        assert spec.stage_widths == (8, 16, 32, 64)
        assert spec.block_kind == "basic"
        assert spec.input_size == 32

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(block_counts=(0, 1, 1, 1))

    @pytest.mark.parametrize("field,value", [
        ("stem_stride", 0), ("num_labels", 5.5), ("skip_connections", "no"),
        ("stem_pool_pad", -1), ("input_size", True), ("stem_kernel", "3"),
        ("stem_pool_window", None), ("stem_pool_stride", 0), ("block_counts", "1111"),
        ("stage_widths", (8, 16, 32, 64.0)), ("block_counts", 1), ("block_kind", ["basic"])])
    def test_every_field_is_validated(self, field, value):
        with pytest.raises(ConfigurationError) as exc:
            NetworkSpec(**{field: value})
        assert field in str(exc.value)

    def test_stem_pool_pad_may_be_zero(self):
        assert NetworkSpec(stem_pool_pad=0).stem_pool_pad == 0

    def test_spatial_collapse_reports_the_failing_stage(self):
        # with kernel//2 padding the block convs bottom out at 1x1, so the
        # reachable collapse is the stem pool outgrowing its feature map
        with pytest.raises(ConfigurationError) as exc:
            stage_spatial_sizes(NetworkSpec(input_size=1))
        assert "stem pool" in str(exc.value)

    @pytest.mark.parametrize("depth", [34, 152, "50"])
    def test_full_scale_spec_refuses_other_depths(self, depth):
        with pytest.raises(ConfigurationError, match="depths 50 and 101"):
            full_scale_spec(depth)

    def test_full_scale_spec_spatial_sizes(self):
        assert stage_spatial_sizes(full_scale_spec(50)) == [56, 28, 14, 7]

    def test_only_the_stem_pool_can_collapse_a_map(self):
        # the stem conv pads by kernel // 2 and each later stage takes
        # ceil(size / 2), so every valid spec whose stem pool fits keeps
        # every map at least one pixel wide; the stem side is checked
        # against the ops themselves. A collapsing spec is refused when made
        grid = itertools.product(range(1, 8), range(1, 8), (1, 2, 3), (1, 2, 3), (1, 2), (0, 1))
        for size, kernel, stride, window, pool_stride, pad in grid:
            fields = dict(input_size=size, stem_kernel=kernel, stem_stride=stride,
                          stem_pool_window=window, stem_pool_stride=pool_stride,
                          stem_pool_pad=pad)
            x = ad.conv2d(ad.Tensor(np.zeros((1, 1, size, size))),
                          ad.Tensor(np.zeros((1, 1, kernel, kernel))),
                          stride=stride, pad=kernel // 2)
            x = ad.pad2d(x, pad)
            if window > x.shape[2]:
                with pytest.raises(ConfigurationError, match="stem pool"):
                    stage_spatial_sizes(NetworkSpec(**fields))
                continue
            sizes = stage_spatial_sizes(NetworkSpec(**fields))
            assert sizes[0] == ad.pool(x, "max", window, pool_stride).shape[2]
            assert min(sizes) >= 1


class TestBuildAndForward:
    def test_toy_build_forward_valid_output(self):
        net = Network(TOY)
        init_weights(net, 0)
        out = net.forward(np.random.default_rng(0).uniform(size=(3, 3, 16, 16)), mode="train")
        assert out.logits.shape == (3, 5)
        assert out.distribution.shape == (3, 5)
        assert np.allclose(out.distribution.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.distribution.data >= 0)
        assert out.features.shape == (3, 10)

    def test_zero_final_layer_gives_uniform(self):
        net = Network(TOY)
        init_weights(net, 1)
        net.fc.weight.data[:] = 0.0
        net.fc.bias.data[:] = 0.0
        out = net.forward(np.random.default_rng(1).uniform(size=(4, 3, 16, 16)), mode="eval")
        assert np.allclose(out.distribution.data, 0.2, atol=1e-7)

    def test_duplicate_samples_get_identical_rows(self):
        net = Network(TOY)
        init_weights(net, 2)
        one = np.random.default_rng(2).uniform(size=(1, 3, 16, 16)).astype(np.float32)
        batch = np.concatenate([one, one, one], axis=0)
        out = net.forward(batch, mode="eval")
        assert np.array_equal(out.distribution.data[0], out.distribution.data[1])
        assert np.array_equal(out.distribution.data[0], out.distribution.data[2])

    def test_eval_output_independent_of_batch_members(self):
        net = Network(TOY, dtype=np.float64)
        init_weights(net, 3)
        rng = np.random.default_rng(3)
        batch = rng.uniform(size=(8, 3, 16, 16))
        with ad.no_grad():
            full = net.forward(batch, mode="eval").distribution.data
            solo = net.forward(batch[:1], mode="eval").distribution.data
        assert np.max(np.abs(full[0] - solo[0])) < 1e-6

    def test_batch_shape_mismatch(self):
        net = Network(TOY)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 3, 8, 8)), mode="eval")

    @pytest.mark.parametrize("mode", ["bogus", "TRAIN", None])
    def test_unknown_mode_is_refused(self, mode):
        with pytest.raises(ConfigurationError, match="mode must be 'train' or 'eval'"):
            Network(TOY).forward(np.zeros((2, 3, 16, 16)), mode=mode)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_batch_takes_the_network_dtype(self, dtype):
        net = Network(TOY, dtype=np.float64)
        init_weights(net, 4)
        batch = np.random.default_rng(4).uniform(size=(2, 3, 16, 16)).astype(dtype)
        assert net.forward(batch, mode="eval").logits.dtype == np.float64

    def test_scalar_head_skips_softmax(self):
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16, num_labels=1))
        init_weights(net, 0)
        out = net.forward(np.random.default_rng(0).uniform(size=(2, 3, 16, 16)), mode="eval")
        assert out.logits.shape == (2, 1)
        assert out.distribution is None


class TestStateDict:
    def test_missing_key_rejected(self):
        state = Network(TOY).state_dict()
        del state["fc.weight"]
        with pytest.raises(ConfigurationError) as exc:
            Network(TOY).load_state_dict(state)
        assert "missing ['fc.weight']" in str(exc.value)

    def test_unexpected_key_rejected(self):
        state = Network(TOY).state_dict()
        state["fc.extra"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ConfigurationError) as exc:
            Network(TOY).load_state_dict(state)
        assert "unexpected ['fc.extra']" in str(exc.value)


class TestInitWeights:
    def test_same_seed_bitwise_identical(self):
        a, b = Network(TOY), Network(TOY)
        init_weights(a, 42)
        init_weights(b, 42)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a, b = Network(TOY), Network(TOY)
        init_weights(a, 1)
        init_weights(b, 2)
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_refused(self, seed):
        with pytest.raises(ConfigurationError, match="init_weights seed"):
            init_weights(Network(TOY), seed)

    def test_he_std_on_dense_weight(self):
        from ldlnet.network import DenseUnit, ParamRecord

        class _Holder:
            dtype = np.float32

            def __init__(self):
                self.unit = DenseUnit(64, 64)

            def param_records(self):
                return [ParamRecord("fc.weight", self.unit.weight, "weight")]

            def running_stats(self):
                return []

        holder = _Holder()
        init_weights(holder, 7)
        std = holder.unit.weight.data.std()
        expected = np.sqrt(2.0 / 64.0)
        assert abs(std - expected) / expected < 0.10

    def test_bn_init_identity(self):
        net = Network(TOY)
        init_weights(net, 5)
        assert np.array_equal(net.stem_bn.gamma.data, np.ones(4, dtype=np.float32))
        assert np.array_equal(net.stem_bn.beta.data, np.zeros(4, dtype=np.float32))


class TestBranchEndGamma:
    def _gammas(self, kind, skip):
        spec = NetworkSpec(block_counts=(1, 2, 1, 1), stage_widths=(4, 6, 8, 10),
                           input_size=16, block_kind=kind, skip_connections=skip)
        net = Network(spec)
        init_weights(net, 0)
        n_blocks = sum(n + 1 for n in spec.block_counts)
        return {n: t.data for n, t in net.named_parameters() if n.endswith(".gamma")}, n_blocks

    @pytest.mark.parametrize("kind,last", [("basic", "bn2"), ("bottleneck", "bn3")])
    def test_skip_net_branch_ends_start_small(self, kind, last):
        gammas, n_blocks = self._gammas(kind, skip=True)
        small = [n for n in gammas if n.endswith(f".{last}.gamma")]
        assert len(small) == n_blocks
        assert any(".proj.bn." in n for n in gammas)
        for name, g in gammas.items():
            want = BRANCH_END_GAMMA if name in small else 1.0
            assert np.array_equal(g, np.full_like(g, want)), name

    @pytest.mark.parametrize("kind", ["basic", "bottleneck"])
    def test_plain_net_gammas_stay_one(self, kind):
        gammas, _ = self._gammas(kind, skip=False)
        for name, g in gammas.items():
            assert np.array_equal(g, np.ones_like(g)), name


class TestResidualStructure:
    def test_zeroed_residual_branch_is_identity(self):
        # identity-shortcut block, zero convs, eval mode with identity stats
        blk = ResidualBlock("basic", 8, 8, stride=1, skip=True, dtype=np.float64)
        x = np.abs(np.random.default_rng(4).standard_normal((2, 8, 6, 6)))
        out = blk.forward(ad.Tensor(x, dtype=np.float64), mode="eval")
        assert np.allclose(out.data, x, atol=1e-12)

    def test_zeroed_bottleneck_branch_is_identity(self):
        blk = ResidualBlock("bottleneck", 16, 4, stride=1, skip=True, dtype=np.float64)
        x = np.abs(np.random.default_rng(5).standard_normal((2, 16, 6, 6)))
        out = blk.forward(ad.Tensor(x, dtype=np.float64), mode="eval")
        assert np.allclose(out.data, x, atol=1e-12)

    def test_plain_variant_has_no_shortcut_parameters(self):
        skip = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(8, 16, 32, 64),
                                   skip_connections=True))
        plain = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(8, 16, 32, 64),
                                    skip_connections=False))
        skip_names = {n for n, _ in skip.named_parameters()}
        plain_names = {n for n, _ in plain.named_parameters()}
        assert any(".proj." in n for n in skip_names)
        assert not any(".proj." in n for n in plain_names)
        assert plain.weighted_layer_count() == skip.weighted_layer_count()

    @pytest.mark.parametrize("kind", list(BLOCK_LAYOUTS))
    def test_main_convs_are_the_branch_convs_in_order(self, kind):
        # the benchmark counts conv FLOPs through main_convs and proj_conv
        net = Network(NetworkSpec(block_counts=(1, 2, 1, 1), stage_widths=(4, 6, 8, 10),
                                  block_kind=kind, input_size=16))
        for block in (b for stage in net.stages for b in stage):
            convs = block.main_convs()
            assert [c.weight.shape[2] for c in convs] == [k for k, _, _ in BLOCK_LAYOUTS[kind]]
            assert block.proj_conv not in convs

    def test_plain_forward_works(self):
        net = Network(NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                                  input_size=16, skip_connections=False))
        init_weights(net, 6)
        out = net.forward(np.random.default_rng(6).uniform(size=(2, 3, 16, 16)), mode="train")
        assert np.allclose(out.distribution.data.sum(axis=1), 1.0, atol=1e-6)


class TestStateLivesInTheBuiltArrays:
    """Every write to a network's state goes into the arrays its build made."""

    @staticmethod
    def _arrays(net):
        return ([r.tensor.data for r in net.param_records()]
                + [a for s in net.running_stats() for a in (s.mean, s.var)])

    def test_init_load_stats_and_sgd_keep_every_array(self):
        from ldlnet.data import split
        from ldlnet.distributions import euclidean_loss_graph
        from ldlnet.synth import synth_dataset
        from ldlnet.training import TrainConfig, recompute_bn_stats, sgd_step
        net, donor = Network(TOY), Network(TOY)
        init_weights(donor, 3)
        built = self._arrays(net)
        init_weights(net, 1)
        state = donor.state_dict()
        net.load_state_dict(state)
        assert all(np.array_equal(net.state_dict()[k], v) for k, v in state.items())
        ds = split(synth_dataset(6, raters=5, seed=2, image_size=16), train_fraction=0.5, seed=0)
        recompute_bn_stats(net, ds, ds.train_idx, 2)
        images = np.stack([ds.samples[i].image for i in ds.train_idx])
        targets = np.stack([ds.samples[i].distribution for i in ds.train_idx])
        euclidean_loss_graph(net.forward(images).distribution, targets).backward()
        sgd_step(net.param_records(), {}, TrainConfig(), 0)
        assert not np.array_equal(net.state_dict()["fc.weight"], state["fc.weight"])
        assert all(now is then for now, then in zip(self._arrays(net), built, strict=True))

    @pytest.mark.parametrize("spec", [
        NetworkSpec(),
        NetworkSpec(skip_connections=False),
        NetworkSpec(block_counts=(1, 2, 1, 1), stage_widths=(4, 6, 8, 10), input_size=16,
                    block_kind="bottleneck")], ids=["desk", "plain", "bottleneck"])
    def test_the_registry_follows_the_forward(self, spec, monkeypatch):
        used, stats_used = [], []
        conv2d, batch_norm, dense = ad.conv2d, ad.batch_norm, ad.dense

        def conv(x, k, **kw):
            used.append(k)
            return conv2d(x, k, **kw)

        def norm(x, gamma, beta, mode="train", stats=None):
            used.extend((gamma, beta))
            stats_used.append(stats)
            return batch_norm(x, gamma, beta, mode=mode, stats=stats)

        def head(x, w, b):
            used.extend((w, b))
            return dense(x, w, b)

        for name, fn in (("conv2d", conv), ("batch_norm", norm), ("dense", head)):
            monkeypatch.setattr(ad, name, fn)
        net = Network(spec)
        net.forward(np.zeros((2, 3, spec.input_size, spec.input_size)))
        assert len({id(t) for t in used}) == len(used)
        assert all(r.tensor is t for r, t in zip(net.param_records(), used, strict=True))
        assert all(s is t for s, t in zip(net.running_stats(), stats_used, strict=True))

    def test_a_loaded_state_shares_no_memory_with_the_network(self):
        source = Network(TOY)
        init_weights(source, 4)
        state = source.state_dict()
        net = Network(TOY)
        net.load_state_dict(state)
        for value in state.values():
            value += 1
        assert all(np.array_equal(v, source.state_dict()[k])
                   for k, v in net.state_dict().items())
