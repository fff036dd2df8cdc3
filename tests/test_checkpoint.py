"""Checkpoint format tests: round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from ldlnet import checkpoint as ckpt_io
from ldlnet.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
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


def _one_record_file(path, record, name=b"w"):
    """A checkpoint with a valid header declaring one record named ``name``,
    whose bytes after the name are ``record``."""
    header = json.dumps({"spec": ckpt_io._spec_to_dict(TOY), "iteration": 0,
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
