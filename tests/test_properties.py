"""Property tests: random and mutated bytes into every file reader.

A reader may refuse its input only with an ``LdlError`` subclass, and
``ldl train --config`` and ``ldl predict`` may end only in a documented exit
code; anything else escaping is a failure. Each byte property draws either
arbitrary bytes or a valid file with a few bytes flipped, inserted, deleted
or cut off; the checkpoint header property draws spec dicts with fields
dropped, added or set to odd values, odd iteration and record counts, and
odd score-scale labels. The flag property sets one numeric or list flag of
an ``ldl`` verb to an odd value, and the run must end in a documented exit
code. The conv2d, max-pool and batch-norm properties draw shapes (and
windows, strides and pads) in and just outside each op's contract and check
every accepted call against the direct-loop references of
``test_autodiff``; a refused call must raise an ``LdlError``.
Example counts are bounded and the draws derandomized, so the suite grows
by seconds and fails the same way on every run.
"""

import contextlib
import io
import json
import resource
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_autodiff import _batch_norm_reference, _conv_reference, _max_pool_grad_reference

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


# one entry of each list flag stands for the drawn value; n, iters, blocks,
# augment_factor and seeds start long loops or many small allocations when
# large, so they draw no long integer and no huge size
_LIST_FLAGS = {"blocks": "1,1,1,{}", "widths": "2,2,2,{}", "crop": "0,0,16,{}"}
_DRAWN_SMALL = {"n", "iters", "blocks", "augment_factor", "seeds"}
_ODD_FLAG_VALUES = ("", "-1", "0", "nan", "inf", "1e400", " 1", "1 2", "1,", ",1")
_LONG_INTEGER = "9" * 5000
_HUGE_SIDE = "1000000"   # a side whose arrays need terabytes: refused at once
_HUGE_FLAGS = {"input_size", "image_size", "widths"}
# the other count of a pair that must be given together
_PARTNERS = {"train_count": ["--test-count=6"], "test_count": ["--train-count=18"]}


@st.composite
def _odd_flags(draw, verbs):
    """One verb, one of its numeric or list flags and an odd value for it; a
    list flag gets the value as its last entry, the same with a space for a
    comma, or a valid list an entry short or with a comma too many."""
    verb = draw(st.sampled_from(sorted(verbs)))
    flag = draw(st.sampled_from(verbs[verb]))
    values = list(_ODD_FLAG_VALUES)
    if flag not in _DRAWN_SMALL:
        values.append(_LONG_INTEGER)
    if flag in _HUGE_FLAGS:
        values.append(_HUGE_SIDE)
    value = draw(st.sampled_from(values))
    if flag in _LIST_FLAGS:
        odd, valid = (_LIST_FLAGS[flag].format(entry) for entry in (value, "2"))
        value = draw(st.sampled_from([odd, odd.replace(",", " ", 1), valid[:-2], valid + ","]))
    return verb, ["--" + flag.replace("_", "-") + "=" + value, *_PARTNERS.get(flag, [])]


@contextlib.contextmanager
def _address_space_capped():
    """Cap this process's address space at its size plus 1 GiB, so an
    allocation that needs terabytes fails at once whatever the host's
    overcommit policy; the old limit is restored on exit."""
    old = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 30), old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)


def test_odd_flag_values_end_in_a_documented_exit_code(tmp_path):
    """Each verb with numeric or list flags (synth, train, predict,
    gradcheck; eval and export have none) runs on 24 faces at 16 px,
    widths 2,2,2,2 and two iterations, with one flag set to an odd value:
    empty, signed, zero, non-finite, beyond the float range, 5000 digits, a
    space, a comma too many or too few, or a side of 1000000 pixels. It must
    end in an exit code of 0-6 and raise nothing. Still unbounded, and so
    drawn small only: large --n, --iters, --blocks, --augment-factor and
    --seeds start long loops or many small allocations."""
    from ldlnet.cli import _VERBS
    index = tmp_path / "d.idx"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(index), "--n", "24", "--image-size", "16"]) == 0
    net = Network(NetworkSpec(stage_widths=(2, 2, 2, 2), input_size=16))
    init_weights(net, 0)
    ckpt_io.save(ckpt_io.Checkpoint.from_network(net), tmp_path / "m.ckpt")
    base = {
        "synth": ["--out", str(tmp_path / "s.idx"), "--n", "24", "--image-size", "16"],
        "train": ["--data", str(index), "--out", str(tmp_path / "t.ckpt"), "--iters", "2",
                  "--batch", "4", "--input-size", "16", "--widths", "2,2,2,2"],
        "predict": ["--ckpt", str(tmp_path / "m.ckpt"),
                    "--image", str(tmp_path / "d_images" / "img_00000.ppm")],
        "gradcheck": ["--seeds", "1"],
    }
    verbs = {verb: flags for verb, (_, _, options) in _VERBS.items()
             if (flags := [name for name, (kind, _, _) in options.items()
                           if kind in (int, float) or name in _LIST_FLAGS])}
    assert set(verbs) == set(base)   # eval and export have no numeric or list flag

    @settings(FUZZ, max_examples=80)
    @given(_odd_flags(verbs))
    @example(("train", ["--input-size=" + _HUGE_SIDE]))
    @example(("train", ["--widths=2,2,2," + _HUGE_SIDE]))
    @example(("synth", ["--image-size=" + _HUGE_SIDE]))
    def check(drawn):
        verb, flags = drawn
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([verb, *base[verb], *flags]) in range(7)

    with _address_space_capped():
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


@FUZZ
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
       window=st.integers(0, 4), stride=st.integers(0, 3), pad=st.integers(-1, 2),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_max_pool_matches_direct_loops_on_drawn_shapes(n, c, h, w, window, stride, pad, dtype):
    # pad2d then pool, as the stem runs them, on integer inputs with many ties
    # (the padding's 0 among them): output and dX are exact. A zero window or
    # stride, a negative pad or a window larger than the padded input is refused
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.integers(-2, 3, size=(n, c, h, w)).astype(dtype), requires_grad=True)
    if window < 1 or stride < 1 or pad < 0 or window > min(h, w) + 2 * pad:
        with pytest.raises(LdlError):
            ad.pool(ad.pad2d(x, pad), "max", window, stride)
        return
    xp = ad.pad2d(x, pad)
    out = ad.pool(xp, "max", window, stride)
    g = rng.integers(1, 100, size=out.shape).astype(dtype)
    ad.tsum(ad.mul_const(out, g)).backward()
    ref_out = np.array([[[[xp.data[a, b, i * stride:i * stride + window,
                                   j * stride:j * stride + window].max()
                           for j in range(out.shape[3])] for i in range(out.shape[2])]
                         for b in range(c)] for a in range(n)])
    ref_dx = _max_pool_grad_reference(xp.data, window, stride, g)
    assert out.data.dtype == x.grad.dtype == dtype
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(x.grad, ref_dx[:, :, pad:pad + h, pad:pad + w])


@FUZZ
@given(n=st.integers(1, 4), c=st.integers(1, 4), h=st.integers(1, 5), w=st.integers(1, 5),
       mean=st.floats(-20, 20), gamma_extra=st.sampled_from([0, 0, 0, 1]),
       mode=st.sampled_from(["train", "eval"]), dtype=st.sampled_from([np.float32, np.float64]))
def test_batch_norm_matches_direct_loops_on_drawn_shapes(n, c, h, w, mean, gamma_extra, mode,
                                                         dtype):
    # inputs at sd 2 around the drawn mean; a gamma/beta of the wrong length
    # or a train-mode batch of one is refused, anything else matches at 64
    # epsilons
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(mean, 2.0, (n, c, h, w)).astype(dtype), requires_grad=True)
    gamma = ad.Tensor(rng.uniform(0.5, 1.5, c + gamma_extra).astype(dtype), requires_grad=True)
    beta = ad.Tensor(rng.standard_normal(c + gamma_extra).astype(dtype), requires_grad=True)
    stats = ad.RunningStats(c, dtype=dtype)
    stats.mean = rng.standard_normal(c).astype(dtype)
    stats.var = rng.uniform(0.5, 2.0, c).astype(dtype)
    if gamma_extra or (mode == "train" and n < 2):
        with pytest.raises(LdlError):
            ad.batch_norm(x, gamma, beta, mode=mode, stats=stats)
        return
    out = ad.batch_norm(x, gamma, beta, mode=mode, stats=stats)
    g = rng.standard_normal(out.shape).astype(dtype)
    ad.tsum(ad.mul_const(out, g)).backward()
    fixed = {} if mode == "train" else {"mean": stats.mean, "var": stats.var}
    refs = _batch_norm_reference(x.data, gamma.data, beta.data, g, **fixed)
    tol = 64 * np.finfo(dtype).eps
    for name, got, ref in zip(("out", "dX", "dgamma", "dbeta"),
                              (out.data, x.grad, gamma.grad, beta.grad), refs):
        assert got.shape == ref.shape and got.dtype == dtype, name
        err = np.max(np.abs(got - ref)) / (np.max(np.abs(ref)) or 1.0)
        assert err <= tol, f"{name}: relative error {err:.2e} > {tol:.2e}"


@pytest.mark.parametrize("op", [lambda x: ad.pad2d(x, 1), lambda x: ad.pool(x, "max", 1),
                                lambda x: ad.batch_norm(x, ad.Tensor(np.ones(2)),
                                                        ad.Tensor(np.zeros(2)))])
def test_pool_pad_and_batch_norm_refuse_other_ranks(op):
    for shape in [(2, 2, 3), (2, 2, 3, 3, 1)]:
        with pytest.raises(LdlError):
            op(ad.Tensor(np.zeros(shape)))
