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

The rules of the header and the records live in :class:`Checkpoint`, which
checks them when it is built, so ``save`` refuses what ``load`` refuses
before it opens the file; ``load`` itself checks only the file's structure.
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
    ConfigurationError,
    _integer,
)
from .network import NetworkSpec

MAGIC = b"LDLN"
VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A network's spec and named tensors, its iteration and its score scale,
    checked when built against every header rule :func:`load` checks."""

    spec: NetworkSpec
    state: dict = field(default_factory=dict)   # name -> float32 ndarray
    iteration: int = 0
    labels: tuple | None = None   # the score scale's labels; None means 1..num_labels

    def __post_init__(self):
        state = {}
        for name, value in self.state.items():
            try:
                value = np.asarray(value)
            except ValueError:   # a ragged nesting
                value = None
            if not isinstance(name, str) or value is None or value.dtype.kind not in "iuf":
                raise ConfigurationError(
                    f"Checkpoint state needs str names and numeric arrays, got {name!r}")
            state[name] = value.astype(np.float32, copy=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "iteration", _integer("Checkpoint", "iteration", self.iteration, 0))
        if self.labels is not None:
            labels = ScoreScale(self.labels).labels
            if self.spec.num_labels > 1 and len(labels) != self.spec.num_labels:
                raise ConfigurationError(f"Checkpoint labels has {len(labels)} levels, "
                                         f"the spec's head {self.spec.num_labels}")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_network(cls, network, iteration=0, labels=None):
        return cls(network.spec, network.state_dict(), iteration, labels)

    @property
    def scale(self):
        """The ScoreScale a distribution head predicts over."""
        return ScoreScale(self.labels or range(1, self.spec.num_labels + 1))


def save(ckpt, path):
    header = {"spec": asdict(ckpt.spec), "iteration": ckpt.iteration, "records": len(ckpt.state)}
    if ckpt.labels is not None:
        header["labels"] = list(ckpt.labels)
    header = json.dumps(header).encode("utf-8")
    names = [(name, name.encode("utf-8")) for name in sorted(ckpt.state)]   # before the open
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, nb in names:
            arr = np.ascontiguousarray(ckpt.state[name])
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
            n_records = _integer("header", "records", header["records"], 0)
            if "labels" in header and header["labels"] is None:   # null is not an absent key
                raise CheckpointError("header labels must be a list of numbers, got null")
            spec = NetworkSpec(**spec)
        except CheckpointError:
            raise
        except Exception as exc:   # not JSON, or a rule of NetworkSpec
            raise CheckpointError(f"bad checkpoint header: {exc}") from exc

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
    try:
        return Checkpoint(spec, state, header["iteration"], header.get("labels"))
    except Exception as exc:   # a header rule of Checkpoint
        raise CheckpointError(f"bad checkpoint header: {exc}") from exc
