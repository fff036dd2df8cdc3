"""Property tests: random and mutated bytes into every file reader.

A reader may refuse its input only with an ``LdlError`` subclass, and
``ldl train --config`` and ``ldl predict`` may end only in a documented exit
code; anything else escaping is a failure. Each byte property draws either
arbitrary bytes or a valid file with a few bytes flipped, inserted, deleted
or cut off; the checkpoint header property draws spec dicts with fields
dropped, added or set to odd values, odd iteration and record counts, and
odd score-scale labels. The conv2d property draws shapes, strides and pads
in and just outside the op's contract and checks every accepted call
against the direct-loop reference of ``test_autodiff``.
Example counts are bounded and the draws derandomized, so the suite grows
by seconds and fails the same way on every run.
"""

import contextlib
import io
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_autodiff import _conv_reference

import ldlnet.autodiff as ad
from ldlnet import checkpoint as ckpt_io
from ldlnet.cli import main
from ldlnet.data import load_index
from ldlnet.errors import LdlError
from ldlnet.imageio import read_ppm, write_ppm
from ldlnet.network import Network, NetworkSpec, init_weights

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _mutated(draw, valid):
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        op = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if op == "set" and data:
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)


def _blobs(valid):
    return st.one_of(st.binary(max_size=300), _mutated(valid))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory with one valid file of each kind, plus their bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    ckpt = ckpt_io.Checkpoint(spec=NetworkSpec(), iteration=7, state={
        "fc.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "stem.bn.gamma": np.ones(4, dtype=np.float32)})
    ckpt_io.save(ckpt, root / "valid.ckpt")
    write_ppm(root / "a.ppm", np.linspace(0, 1, 3 * 4 * 5).reshape(3, 4, 5))
    (root / "valid.idx").write_text(
        "a.ppm,ratings:3;4;4;5\n"
        "a.ppm,crop=0;0;4;3,dist:0.1;0.2;0.3;0.2;0.2\n"
        "# a comment\n")
    (root / "valid.cfg").write_text(
        "# run\nloss = kl\nseed = 11\nbatch = 8\niters = 20\nlr = 0.01\n"
        "blocks = 1,1,1,1\nwidths = 4,6,8,10\nno_skip = yes\ninput_size = 16\n")
    blobs = {name: (root / name).read_bytes()
             for name in ("valid.ckpt", "a.ppm", "valid.idx", "valid.cfg")}
    return root, blobs


def _write(root, name, blob):
    path = root / name
    path.write_bytes(blob)
    return path


def test_checkpoint_load_raises_only_ldl_errors(valid_files):
    root, blobs = valid_files

    @FUZZ
    @given(_blobs(blobs["valid.ckpt"]))
    def check(blob):
        path = _write(root, "fuzz.ckpt", blob)
        try:
            ckpt = ckpt_io.load(path)
        except LdlError:
            return
        assert all(v.dtype == np.float32 for v in ckpt.state.values())

    check()


def test_read_ppm_raises_only_ldl_errors(valid_files):
    root, blobs = valid_files

    @FUZZ
    @given(_blobs(blobs["a.ppm"]))
    def check(blob):
        path = _write(root, "fuzz.ppm", blob)
        try:
            image = read_ppm(path)
        except LdlError:
            return
        assert image.ndim == 3 and image.shape[0] == 3
        assert image.min() >= 0.0 and image.max() <= 1.0

    check()


def test_load_index_raises_only_ldl_errors(valid_files):
    root, blobs = valid_files

    @FUZZ
    @given(_blobs(blobs["valid.idx"]), st.sampled_from([None, 8]))
    def check(blob, image_size):
        path = _write(root, "fuzz.idx", blob)
        try:
            ds = load_index(path, image_size=image_size)
        except LdlError:
            return
        for s in ds.samples:
            # every accepted row carries a real distribution
            assert np.all(s.distribution >= 0) and abs(s.distribution.sum() - 1.0) < 1e-6
            assert np.isfinite(s.mean_score)

    check()


def test_train_config_file_ends_in_a_documented_exit_code(valid_files):
    # --data names an absent file, so no run trains; a config that parses
    # and validates gets as far as that (exit 2), any other ends in exit 1
    root, blobs = valid_files
    args = ["train", "--data", str(root / "absent.idx"), "--out", str(root / "m.ckpt"),
            "--config", str(root / "fuzz.cfg")]

    @FUZZ
    @given(_blobs(blobs["valid.cfg"]))
    def check(blob):
        _write(root, "fuzz.cfg", blob)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(args) in (1, 2)

    check()


TOY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10), input_size=16)
_ODD_VALUES = st.one_of(st.just(0), st.integers(-5, -1), st.floats(), st.text(max_size=4),
                        st.booleans(), st.none(), st.lists(st.integers(-2, 3), max_size=5))


@st.composite
def _headers(draw, header):
    """``header`` with its toy spec dict's fields dropped, added or set to 0,
    negatives, floats, strings, bools, null or short lists, its
    ``iteration`` and ``records`` each kept or set to such a value, and a
    ``labels`` key left out, set to a valid scale, to such a value, or to a
    short list of floats (NaN and infinities included), integers and bools."""
    spec = asdict(TOY)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("drop", "add", "set")))
        key = draw(st.sampled_from(sorted(spec) or ["block_counts"]))
        if op == "drop":
            spec.pop(key, None)
        elif op == "add":
            spec[draw(st.text(min_size=1, max_size=8))] = draw(_ODD_VALUES)
        else:
            spec[key] = draw(_ODD_VALUES)
    counts = {key: draw(st.one_of(st.just(header[key]), _ODD_VALUES))
              for key in ("iteration", "records")}
    mutated = {**header, "spec": spec, **counts}
    labels = draw(st.one_of(
        st.none(), st.just([0.0, 2.5, 5.0, 7.5, 10.0]), _ODD_VALUES,
        st.lists(st.one_of(st.floats(), st.integers(-3, 9), st.booleans()), max_size=7)))
    if labels is not None:
        mutated["labels"] = labels
    return mutated


def test_checkpoint_header_spec_ends_in_ldl_errors_or_exit_codes(tmp_path):
    # the records are those of a real toy network, so an untouched header
    # predicts (exit 0), a scalar head is exit 1, and a header that does not
    # load or does not fit the records is exit 3
    net = Network(TOY)
    init_weights(net, 0)
    ckpt_io.save(ckpt_io.Checkpoint.from_network(net), tmp_path / "toy.ckpt")
    blob = (tmp_path / "toy.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    write_ppm(tmp_path / "face.ppm", np.linspace(0, 1, 3 * 16 * 16).reshape(3, 16, 16))
    args = ["predict", "--ckpt", str(tmp_path / "fuzz.ckpt"), "--image", str(tmp_path / "face.ppm")]

    @FUZZ
    @given(_headers(header))
    def check(mutated):
        raw = json.dumps(mutated).encode("utf-8")
        (tmp_path / "fuzz.ckpt").write_bytes(
            blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
        try:
            ckpt_io.load(tmp_path / "fuzz.ckpt")
        except LdlError:
            pass
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(args) in (0, 1, 3)

    check()


def test_valid_files_are_accepted(valid_files):
    # the seeds of the mutations are themselves valid
    root, _ = valid_files
    assert ckpt_io.load(root / "valid.ckpt").iteration == 7
    assert read_ppm(root / "a.ppm").shape == (3, 4, 5)
    assert load_index(root / "valid.idx", image_size=8).n == 2
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", "--data", str(root / "absent.idx"), "--out", "m",
                     "--config", str(root / "valid.cfg")]) == 2


@FUZZ
@given(n=st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
       h=st.integers(1, 9), w=st.integers(1, 9), kh=st.integers(1, 4), kw=st.integers(1, 4),
       stride=st.integers(0, 3), pad=st.integers(-1, 3), x_grad=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_conv2d_matches_direct_loops_on_drawn_shapes(n, c, f, h, w, kh, kw, stride, pad,
                                                     x_grad, dtype):
    # a zero stride, a negative pad or a kernel larger than the padded input is
    # refused with an LdlError; anything else matches at 64 epsilons
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((n, c, h, w)).astype(dtype), requires_grad=x_grad)
    k = ad.Tensor(rng.standard_normal((f, c, kh, kw)).astype(dtype), requires_grad=True)
    if stride < 1 or pad < 0 or kh > h + 2 * pad or kw > w + 2 * pad:
        with pytest.raises(LdlError):
            ad.conv2d(x, k, stride=stride, pad=pad)
        return
    out = ad.conv2d(x, k, stride=stride, pad=pad)
    g = rng.standard_normal(out.shape).astype(dtype)
    ad.tsum(ad.mul_const(out, g)).backward()
    refs = _conv_reference(x.data, k.data, stride, pad, g)
    assert (x.grad is not None) == x_grad
    tol = 64 * np.finfo(dtype).eps
    for name, got, ref in zip(("out", "dX", "dK"), (out.data, x.grad, k.grad), refs):
        if got is None:   # x needs no gradient
            continue
        assert got.shape == ref.shape and got.dtype == dtype, name
        # windows that see only padding leave every reference value 0
        err = np.max(np.abs(got - ref)) / (np.max(np.abs(ref)) or 1.0)
        assert err <= tol, f"{name}: relative error {err:.2e} > {tol:.2e}"
