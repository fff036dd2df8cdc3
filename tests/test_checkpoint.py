"""Checkpoint format tests: round trips and corruption handling."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from ldlnet import checkpoint as ckpt_io
from ldlnet.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    LdlError,
)
from ldlnet.network import Network, NetworkSpec, init_weights

TOY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10), input_size=16)


def _toy_checkpoint(seed=0, iteration=123):
    net = Network(TOY)
    init_weights(net, seed)
    return net, ckpt_io.Checkpoint.from_network(net, iteration=iteration)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt, path)
        loaded = ckpt_io.load(path)
        assert loaded.spec == ckpt.spec
        assert loaded.iteration == 123
        assert set(loaded.state) == set(ckpt.state)
        for name in ckpt.state:
            assert loaded.state[name].dtype == np.float32
            assert np.array_equal(loaded.state[name], ckpt.state[name])

    def test_load_into_network_reproduces_forward(self, tmp_path):
        net, ckpt = _toy_checkpoint(seed=9)
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt, path)
        other = Network(TOY)
        other.load_state_dict(ckpt_io.load(path).state)
        batch = np.random.default_rng(9).uniform(size=(2, 3, 16, 16)).astype(np.float32)
        a = net.forward(batch, mode="eval").distribution.data
        b = other.forward(batch, mode="eval").distribution.data
        assert np.array_equal(a, b)

    def test_header_is_every_spec_field_in_declaration_order(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt, path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        assert blob[12:12 + hlen] == (
            b'{"spec": {"block_counts": [1, 1, 1, 1], "stage_widths": [4, 6, 8, 10], '
            b'"block_kind": "basic", "skip_connections": true, "input_size": 16, '
            b'"num_labels": 5, "stem_kernel": 3, "stem_stride": 1, "stem_pool_window": 2, '
            b'"stem_pool_stride": 2, "stem_pool_pad": 0}, "iteration": 123, "records": '
            + str(len(ckpt.state)).encode() + b"}")

    def test_double_round_trip_identical_bytes(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt_io.save(ckpt, p1)
        ckpt_io.save(ckpt_io.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointTruncatedError):
            ckpt_io.load(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError) as exc:
            ckpt_io.load(path)
        assert "2" in str(exc.value) and "1" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(CheckpointMagicError):
            ckpt_io.load(path)

    def test_trailing_garbage(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt, path)
        path.write_bytes(path.read_bytes() + b"\x07")
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ckpt_io.load(tmp_path / "absent.ckpt")


def _with_header(path, **fields):
    """A valid toy checkpoint whose header carries ``fields`` instead."""
    _, ckpt = _toy_checkpoint()
    ckpt_io.save(ckpt, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = {**json.loads(blob[12:12 + hlen]), **fields}
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
    return path


class TestHeaderSpec:
    def test_unchanged_header_loads(self, tmp_path):
        path = _with_header(tmp_path / "same.ckpt", spec=asdict(TOY))
        assert ckpt_io.load(path).spec == TOY

    @pytest.mark.parametrize("key", ["stem_pool_pad", "block_counts", "num_labels"])
    def test_missing_key_is_refused(self, tmp_path, key):
        spec = asdict(TOY)
        del spec[key]
        with pytest.raises(CheckpointError) as exc:
            ckpt_io.load(_with_header(tmp_path / "missing.ckpt", spec=spec))
        assert key in str(exc.value)

    def test_unknown_key_is_refused(self, tmp_path):
        spec = {**asdict(TOY), "dropout": 0.5}
        with pytest.raises(CheckpointError) as exc:
            ckpt_io.load(_with_header(tmp_path / "extra.ckpt", spec=spec))
        assert "dropout" in str(exc.value)

    @pytest.mark.parametrize("key,value", [("stem_stride", 0), ("num_labels", 5.5),
                                           ("skip_connections", "no"), ("stem_pool_pad", -1)])
    def test_bad_value_is_refused(self, tmp_path, key, value):
        spec = {**asdict(TOY), key: value}
        with pytest.raises(CheckpointError) as exc:
            ckpt_io.load(_with_header(tmp_path / "bad.ckpt", spec=spec))
        assert key in str(exc.value)

    def test_spec_whose_stem_pool_collapses_its_map_is_refused(self, tmp_path):
        # every field is valid alone; a 1-pixel input leaves the 2-wide pool
        # nothing to cover, so no network of this spec can be built
        spec = {**asdict(TOY), "input_size": 1}
        with pytest.raises(CheckpointError, match="stem pool"):
            ckpt_io.load(_with_header(tmp_path / "collapse.ckpt", spec=spec))


BAD_COUNTS = [5.9, 7.0, "7", True, False, -1, None, [1]]
BAD_LABELS = [
    None, "1,2,3,4,5", 5, {"a": 1}, [], [1.0], [1, 2, 3, 4, "5"], [1, 2, 3, 4, True],
    [1, 2, 3, 4, None], [1, 2, 3, 4, float("nan")], [1, 2, 3, 4, float("inf")],
    [1, 2, 3, 3, 5], [5, 4, 3, 2, 1], [1, 2, 3], [1, 2, 3, 4, 5, 6], [[1], 2, 3, 4, 5]]


class TestHeaderCounters:
    @pytest.mark.parametrize("key", ["iteration", "records"])
    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_non_integer_or_negative_is_refused(self, tmp_path, key, value):
        with pytest.raises(CheckpointError) as exc:
            ckpt_io.load(_with_header(tmp_path / "count.ckpt", **{key: value}))
        assert key in str(exc.value)

    def test_integer_iteration_loads(self, tmp_path):
        assert ckpt_io.load(_with_header(tmp_path / "zero.ckpt", iteration=0)).iteration == 0


class TestHeaderLabels:
    def test_labels_round_trip(self, tmp_path):
        net, _ = _toy_checkpoint()
        path = tmp_path / "net.ckpt"
        ckpt_io.save(ckpt_io.Checkpoint.from_network(net, labels=(0, 2.5, 5, 7.5, 10)), path)
        loaded = ckpt_io.load(path)
        assert loaded.labels == (0.0, 2.5, 5.0, 7.5, 10.0)
        assert loaded.scale.labels == loaded.labels

    def test_absent_labels_mean_one_to_c(self, tmp_path):
        _, ckpt = _toy_checkpoint()
        ckpt_io.save(ckpt, tmp_path / "net.ckpt")
        loaded = ckpt_io.load(tmp_path / "net.ckpt")
        assert loaded.labels is None
        assert loaded.scale.labels == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_integer_labels_load(self, tmp_path):
        path = _with_header(tmp_path / "int.ckpt", labels=[2, 4, 6, 8, 10])
        assert ckpt_io.load(path).labels == (2.0, 4.0, 6.0, 8.0, 10.0)

    @pytest.mark.parametrize("value", BAD_LABELS)
    def test_malformed_labels_are_refused(self, tmp_path, value):
        with pytest.raises(CheckpointError) as exc:
            ckpt_io.load(_with_header(tmp_path / "labels.ckpt", labels=value))
        assert "labels" in str(exc.value)

    def test_a_scalar_head_keeps_the_dataset_scale(self, tmp_path):
        # mean regression stores the scale its targets were decoded on
        spec = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                           input_size=16, num_labels=1)
        ckpt_io.save(ckpt_io.Checkpoint(spec, labels=(1, 2, 3)), tmp_path / "scalar.ckpt")
        assert ckpt_io.load(tmp_path / "scalar.ckpt").labels == (1.0, 2.0, 3.0)


class TestSaveRefusesWhatLoadRefuses:
    """The header rules live in Checkpoint, so no such file is ever written.
    A Python None is the absent scale, which load reads as 1..num_labels."""

    @staticmethod
    def _refused(path, key, **fields):
        with pytest.raises(LdlError) as exc:
            ckpt_io.save(ckpt_io.Checkpoint(TOY, **fields), path)
        assert key in str(exc.value)
        assert not path.exists()

    @pytest.mark.parametrize("value", BAD_COUNTS + [2.5])
    def test_iteration(self, tmp_path, value):
        self._refused(tmp_path / "m.ckpt", "iteration", iteration=value)

    @pytest.mark.parametrize("value", [v for v in BAD_LABELS if v is not None] + ["12345"])
    def test_labels(self, tmp_path, value):
        self._refused(tmp_path / "m.ckpt", "labels", labels=value)

    @pytest.mark.parametrize("state", [
        {1: np.zeros(1)}, {"a": np.zeros(1), 2: np.zeros(1)}, {"a": "x"}, {"a": None},
        {"a": [[1.0], [1.0, 2.0]]}, {"a": np.array([True])}])
    def test_state(self, tmp_path, state):
        # a raw AttributeError, a raw TypeError, a raw ValueError after a
        # 326-byte file, a silent NaN record, a raw ValueError, a 1.0 record
        self._refused(tmp_path / "m.ckpt", "state", state=state)

    def test_a_name_utf8_cannot_encode_writes_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            ckpt_io.save(ckpt_io.Checkpoint(TOY, {"\ud800": np.zeros(1)}), tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()

    def test_numbers_are_normalized_as_load_returns_them(self):
        ckpt = ckpt_io.Checkpoint(TOY, iteration=np.int64(3), labels=np.arange(1, 6))
        assert type(ckpt.iteration) is int and ckpt.labels == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_values_are_stored_as_float32_arrays(self):
        state = ckpt_io.Checkpoint(TOY, {"a": [1, 2], "b": np.float64(0.5)}).state
        assert {k: (v.dtype, v.shape) for k, v in state.items()} == {
            "a": (np.float32, (2,)), "b": (np.float32, ())}


def _one_record_file(path, record, name=b"w"):
    """A checkpoint with a valid header declaring one record named ``name``,
    whose bytes after the name are ``record``."""
    header = json.dumps({"spec": asdict(TOY), "iteration": 0,
                         "records": 1}).encode("utf-8")
    path.write_bytes(ckpt_io.MAGIC + struct.pack("<II", ckpt_io.VERSION, len(header))
                     + header + struct.pack("<I", len(name)) + name + record)
    return path


class TestSizeFieldsBoundedByTheFile:
    def test_huge_rank_refused_before_reading(self, tmp_path):
        # rank 2^31 declares 16 GiB of dims
        path = _one_record_file(tmp_path / "rank.ckpt", struct.pack("<I", 2**31) + b"\0" * 16)
        with pytest.raises(CheckpointTruncatedError) as exc:
            ckpt_io.load(path)
        assert "dims" in str(exc.value)

    def test_huge_dims_refused_before_reading(self, tmp_path):
        path = _one_record_file(tmp_path / "dims.ckpt",
                                struct.pack("<I2Q", 2, 2**40, 2**40) + b"\0" * 16)
        with pytest.raises(CheckpointTruncatedError) as exc:
            ckpt_io.load(path)
        assert "values" in str(exc.value)

    def test_huge_header_length_refused(self, tmp_path):
        path = tmp_path / "hlen.ckpt"
        path.write_bytes(ckpt_io.MAGIC + struct.pack("<II", ckpt_io.VERSION, 2**32 - 1) + b"{}")
        with pytest.raises(CheckpointTruncatedError):
            ckpt_io.load(path)

    def test_zero_dim_beside_an_unrepresentable_one(self, tmp_path):
        path = _one_record_file(tmp_path / "zero.ckpt", struct.pack("<I2Q", 2, 0, 2**63))
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)

    def test_name_that_is_not_utf8(self, tmp_path):
        path = _one_record_file(tmp_path / "name.ckpt", struct.pack("<I", 0) + b"\0" * 4,
                                name=b"\xff")
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)
