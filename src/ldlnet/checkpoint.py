"""Binary checkpoint files.

Layout (all integers little-endian):

    bytes 0-3   magic "LDLN"
    u32         format version (currently 1)
    u32         header length
    bytes       header: UTF-8 JSON {"spec": {...}, "iteration": int, "records": int,
                "labels": [float, ...]}, "spec" holding exactly the NetworkSpec
                fields and "labels" the score scale (optional: without it the
                scale is 1..num_labels)
    records     one per named tensor:
                    u32 name length, name bytes (UTF-8),
                    u32 rank, rank x u64 dims,
                    prod(dims) x f32 raw values

Values are stored as 32-bit floats, the training precision, so a save/load
round trip is bit-exact. Running batch-norm statistics are stored as records
alongside the parameters under their ``*.running_mean`` / ``*.running_var``
names.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .distributions import ScoreScale
from .errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ValidationError,
)
from .network import NetworkSpec

MAGIC = b"LDLN"
VERSION = 1


@dataclass
class Checkpoint:
    spec: NetworkSpec
    state: dict = field(default_factory=dict)   # name -> float32 ndarray
    iteration: int = 0
    labels: tuple | None = None   # the score scale's labels; None means 1..num_labels

    @classmethod
    def from_network(cls, network, iteration=0, labels=None):
        state = {k: np.asarray(v, dtype=np.float32) for k, v in network.state_dict().items()}
        return cls(spec=network.spec, state=state, iteration=iteration, labels=labels)

    @property
    def scale(self):
        """The ScoreScale a distribution head predicts over."""
        return ScoreScale(self.labels or range(1, self.spec.num_labels + 1))


def save(ckpt, path):
    header = {
        "spec": asdict(ckpt.spec),
        "iteration": int(ckpt.iteration),
        "records": len(ckpt.state),
    }
    if ckpt.labels is not None:
        header["labels"] = [float(v) for v in ckpt.labels]
    header = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in sorted(ckpt.state):
            arr = np.ascontiguousarray(ckpt.state[name], dtype=np.float32)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes(order="C"))


def _read_exact(fh, n, what):
    """Read ``n`` bytes, refusing before the read when fewer are left in the
    file, so that a corrupt size field cannot ask for an unbounded read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointTruncatedError(
            f"file ended while reading {what} ({left} of {n} bytes)")
    return fh.read(n)


def _count(header, key):
    """The header's ``key``, which must be a JSON integer >= 0 (not a bool)."""
    value = header[key]
    if type(value) is not int or value < 0:
        raise CheckpointError(f"header {key} must be an integer >= 0, got {value!r}")
    return value


def _labels(header, spec):
    """The header's optional ``labels``: a JSON list of numbers (not bools)
    that makes a ScoreScale, one label per output of a distribution head."""
    if "labels" not in header:
        return None
    value = header["labels"]
    if type(value) is not list or any(type(v) not in (int, float) for v in value):
        raise CheckpointError(f"header labels must be a list of numbers, got {value!r}")
    try:
        labels = ScoreScale(value).labels
    except ValidationError as exc:
        raise CheckpointError(f"header labels: {exc}") from exc
    if spec.num_labels > 1 and len(labels) != spec.num_labels:
        raise CheckpointError(
            f"header labels has {len(labels)} levels, the spec's head {spec.num_labels}")
    return labels


def load(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
        if version != VERSION:
            raise CheckpointVersionError(
                f"file version {version} is not the supported version {VERSION}")
        hlen = struct.unpack("<I", _read_exact(fh, 4, "header length"))[0]
        try:
            header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
            spec = header["spec"]
            names = {f.name for f in fields(NetworkSpec)}
            if set(spec) != names:
                raise CheckpointError(f"header spec keys: missing {sorted(names - set(spec))}, "
                                      f"unknown {sorted(set(spec) - names)}")
            spec = NetworkSpec(**spec)
            iteration = _count(header, "iteration")
            n_records = _count(header, "records")
            labels = _labels(header, spec)
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc

        state = {}
        for i in range(n_records):
            nlen = struct.unpack("<I", _read_exact(fh, 4, f"record {i} name length"))[0]
            try:
                name = _read_exact(fh, nlen, f"record {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"record {i} name is not UTF-8: {exc}") from exc
            rank = struct.unpack("<I", _read_exact(fh, 4, f"record {i} rank"))[0]
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, f"record {i} dims"))
            count = 1
            for d in dims:
                count *= d
            raw = _read_exact(fh, 4 * count, f"record {i} values ({name})")
            try:
                state[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
            except ValueError as exc:   # a zero dim beside one numpy cannot hold
                raise CheckpointError(f"record {i} ({name}) has dims {dims}: {exc}") from exc
        if fh.read(1):
            raise CheckpointError("trailing bytes after the declared records")
    return Checkpoint(spec=spec, state=state, iteration=iteration, labels=labels)
