"""Central finite-difference verification of the analytic gradients.

The checker perturbs parameter elements one at a time, so it never trusts
the backward pass it is checking. 64-bit mode is mandatory: float32 noise
would drown the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import distributions as ldl
from .errors import ConfigurationError, _integer, _real

REL_ERR_FLOOR = 1e-8   # denominator floor when the numeric gradient is tiny
ABS_SKIP = 1e-10       # treat |analytic - numeric| below this as exact
E2E_PER_PARAM = 8      # entries end_to_end_check probes in each parameter tensor


@dataclass
class ParamCheck:
    name: str
    checked: int
    max_rel_err: float


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    params: list = field(default_factory=list)
    failure: str = ""

    @property
    def max_rel_err(self):
        return max((p.max_rel_err for p in self.params), default=0.0)

    @property
    def passed(self):
        return not self.failure and self.max_rel_err <= self.tol

    def summary(self):
        lines = [f"gradcheck eps={self.eps} tol={self.tol}"]
        for p in self.params:
            lines.append(f"  {p.name}: checked {p.checked} elements, max rel err {p.max_rel_err:.3e}")
        if self.failure:
            lines.append(f"  FAILURE: {self.failure}")
        lines.append(f"  overall max rel err {self.max_rel_err:.3e} -> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _first_nonfinite_op(loss_fn):
    """The first op whose output is not finite in a fresh run of
    ``loss_fn``. The tape keeps no values, so the forward runs once more,
    without a tape, with ``autodiff._node`` watching each op's output."""
    found = []
    real = ad._node

    def watch(value, op, parents, vjp):
        if not found and not np.all(np.isfinite(value)):
            found.append(op)
        return real(value, op, parents, vjp)

    ad._node = watch
    try:
        with ad.no_grad():
            loss_fn()
    finally:
        ad._node = real
    return found[0] if found else "unknown"


def _rel_err(analytic, numeric):
    diff = abs(analytic - numeric)
    if diff < ABS_SKIP:
        return 0.0
    return diff / max(abs(numeric), REL_ERR_FLOOR)


def grad_check(named_params, loss_fn, eps=1e-5, tol=1e-5, max_per_param=None, seed=0):
    """Compare the backward pass of ``loss_fn()`` against central differences.

    ``named_params`` is an iterable of (name, Tensor); every tensor must be
    float64 and have requires_grad set. ``loss_fn`` rebuilds the scalar loss
    from the current parameter values on each call. Above ``max_per_param``
    elements, a deterministic random subset of each tensor is probed.
    """
    report = GradCheckReport(_real("grad_check", "eps", eps, 0), _real("grad_check", "tol", tol, 0))
    params = list(named_params)
    for name, t in params:
        if t.dtype != np.float64:
            raise ConfigurationError(
                f"grad_check requires 64-bit parameters, {name} is {t.dtype}")
        if not t.requires_grad:
            raise ConfigurationError(f"grad_check parameter {name} does not require grad")
        if not t.data.flags["C_CONTIGUOUS"]:
            # the flat perturbation view below must alias the tensor's storage
            t.data = np.ascontiguousarray(t.data)
    if not params:
        return report

    for _, t in params:
        t.grad = None
    loss = loss_fn()
    if not np.all(np.isfinite(loss.data)):
        report.failure = f"non-finite loss in forward pass (op {_first_nonfinite_op(loss_fn)})"
        return report
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params}

    rng = np.random.default_rng(seed)
    for name, t in params:
        flat = t.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        if max_per_param is not None and flat.size > max_per_param:
            idxs = np.sort(rng.choice(flat.size, size=max_per_param, replace=False))
        else:
            idxs = np.arange(flat.size)
        worst = 0.0
        with ad.no_grad():
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                lp = float(loss_fn().data)
                flat[i] = orig - eps
                lm = float(loss_fn().data)
                flat[i] = orig
                if not (np.isfinite(lp) and np.isfinite(lm)):
                    report.failure = f"non-finite loss while perturbing {name}[{i}]"
                    return report
                worst = max(worst, _rel_err(a_flat[i], (lp - lm) / (2.0 * eps)))
        report.params.append(ParamCheck(name, len(idxs), worst))
    return report


# ---------------------------------------------------------------------------
# the op-by-op suite behind the CLI gradcheck verb and the acceptance gate
# ---------------------------------------------------------------------------

def _param(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _case(rng, op, **params):
    """``(named params, loss_fn)`` for ``op`` over ``params``, in order. A
    scalar output is the loss; any other is projected to one by random weights,
    fixed and drawn after the params, so upstream gradients are non-uniform."""
    args = tuple(params.values())
    with ad.no_grad():
        shape = op(*args).shape
    if shape == ():
        return list(params.items()), lambda: op(*args)
    w = rng.standard_normal(shape)
    return list(params.items()), lambda: ad.tsum(ad.mul_const(op(*args), w))


def _op_cases(rng):
    """One loss_fn per op, each over fresh random small shapes. Ops are looked
    up on every call, so a patched op is the one checked."""
    def gamma():
        return ad.Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True, dtype=np.float64)

    def conv(stride, pad):
        return lambda x, k: ad.conv2d(x, k, stride=stride, pad=pad)

    cases = {}
    cases["dense"] = _case(rng, ad.dense, x=_param(rng, 3, 4), w=_param(rng, 4, 2),
                           b=_param(rng, 2))
    cases["conv2d"] = _case(rng, conv(1, 0), x=_param(rng, 1, 2, 5, 5),
                            k=_param(rng, 3, 2, 3, 3))
    cases["conv2d_strided"] = _case(rng, conv(2, 1), x=_param(rng, 2, 2, 6, 6),
                                    k=_param(rng, 2, 2, 3, 3))
    cases["batch_norm_train"] = _case(
        rng, lambda x, g, b: ad.batch_norm(x, g, b, mode="train", stats=None),
        x=_param(rng, 4, 3, 3, 3), gamma=gamma(), beta=_param(rng, 3))
    xe, game, bete = _param(rng, 2, 3, 3, 3), gamma(), _param(rng, 3)
    stats = ad.RunningStats(3, dtype=np.float64)
    stats.mean = rng.standard_normal(3)
    stats.var = rng.uniform(0.5, 2.0, 3)
    cases["batch_norm_eval"] = _case(
        rng, lambda x, g, b: ad.batch_norm(x, g, b, mode="eval", stats=stats),
        x=xe, gamma=game, beta=bete)
    xr = _param(rng, 4, 7)
    xr.data += np.where(xr.data >= 0, 0.05, -0.05)   # away from the kink
    cases["relu"] = _case(rng, ad.relu, x=xr)
    cases["max_pool"] = _case(rng, lambda x: ad.pool(x, "max", window=2, stride=2),
                              x=_param(rng, 2, 2, 6, 6))
    cases["global_avg_pool"] = _case(rng, lambda x: ad.pool(x, "avg", window=4),
                                     x=_param(rng, 2, 3, 4, 4))
    cases["add"] = _case(rng, ad.add, a=_param(rng, 3, 5), b=_param(rng, 3, 5))
    cases["softmax"] = _case(rng, ad.softmax, z=_param(rng, 4, 5))
    cases["pad2d"] = _case(rng, lambda x: ad.pad2d(x, 2), x=_param(rng, 1, 2, 3, 3))

    ze, te = _param(rng, 3, 5), rng.dirichlet(np.ones(5), size=3)
    cases["euclidean_graph"] = _case(
        rng, lambda z: ldl.euclidean_loss_graph(ad.softmax(z), te), z=ze)
    zq, tq = _param(rng, 3, 5), rng.dirichlet(np.ones(5), size=3)
    cases["euclidean_sq_graph"] = _case(
        rng, lambda z: ldl.euclidean_loss_graph(ad.softmax(z), tq, squared=True), z=zq)
    zk, tk = _param(rng, 3, 5), rng.dirichlet(np.ones(5), size=3)
    cases["kl_graph"] = _case(rng, lambda z: ldl.kl_loss_graph(ad.softmax(z), tk), z=zk)

    # last, so the cases above keep their random draws
    cases["conv2d_pointwise"] = _case(rng, conv(2, 0), x=_param(rng, 2, 3, 6, 6),
                                      k=_param(rng, 4, 3, 1, 1))
    # the network's commonest conv: its dK and dX come from the padded gradient's rows
    cases["conv2d_padded"] = _case(rng, conv(1, 1), x=_param(rng, 1, 2, 5, 5),
                                   k=_param(rng, 3, 2, 3, 3))
    # values the tape rebuilds: the strided conv's dK reads the ReLU over batch norm
    # through its recipe. beta puts each channel's kink mid-way in the widest gap
    # between its scaled, normalized inputs (over the suite's 50 draws, 0.09 or
    # more from every one). x is fixed: batch_norm_train checks dx, which at this
    # size reads relative errors up to 2e-5
    xn = ad.Tensor(rng.standard_normal((2, 3, 5, 5)), dtype=np.float64)
    gn, kn = gamma(), _param(rng, 2, 3, 3, 3)
    z = np.moveaxis(xn.data, 1, 0).reshape(3, -1)
    z = z - z.mean(axis=1, keepdims=True)
    z = np.sort(gn.data[:, None] * z / np.sqrt((z * z).mean(axis=1, keepdims=True) + ad.BN_EPS))
    lo = np.argmax(np.diff(z), axis=1)
    mid = (z[np.arange(3), lo] + z[np.arange(3), lo + 1]) / 2
    cases["conv2d_over_bn_relu"] = _case(
        rng, lambda g, b, k: conv(2, 1)(ad.relu(ad.batch_norm(xn, g, b, mode="train")), k),
        gamma=gn, beta=ad.Tensor(-mid, requires_grad=True, dtype=np.float64), k=kn)
    return cases


def gradient_suite(num_seeds=50, tol=1e-5):
    """Run every op case over ``num_seeds`` random draws, each with
    :func:`grad_check`'s default step eps = 1e-5.

    Returns (per-op max rel err dict, passed flag).
    """
    _integer("gradient_suite", "num_seeds", num_seeds, 1)
    tol = _real("gradient_suite", "tol", tol, 0)
    worst = {}
    for s in range(num_seeds):
        rng = np.random.default_rng(1000 + s)
        for name, (params, loss_fn) in _op_cases(rng).items():
            rep = grad_check(params, loss_fn, tol=tol)
            if rep.failure:
                worst[name] = float("inf")
                continue
            worst[name] = max(worst.get(name, 0.0), rep.max_rel_err)
    passed = all(v <= tol for v in worst.values())
    return worst, passed


def end_to_end_check(seed=0, tol=1e-4):
    """Finite-difference check of a full toy network (< 10k parameters).

    Builds a float64 four-stage residual net, runs a train-mode forward into
    the unsquared distribution loss, and probes E2E_PER_PARAM sampled
    entries of every parameter tensor with :func:`grad_check`'s default step
    eps = 1e-5. A smaller step is counterproductive here: deep-layer
    elements carry tiny gradients, and secant roundoff swamps them.
    """
    from .network import Network, NetworkSpec, init_weights

    _integer("end_to_end_check", "seed", seed, 0)
    tol = _real("end_to_end_check", "tol", tol, 0)
    spec = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 6, 8, 10),
                       input_size=16)
    net = Network(spec, dtype=np.float64)
    init_weights(net, seed)
    rng = np.random.default_rng(seed)
    batch = rng.uniform(size=(2, 3, 16, 16))
    targets = rng.dirichlet(np.ones(5), size=2)

    def loss_fn():
        out = net.forward(ad.Tensor(batch, dtype=np.float64), mode="train")
        return ldl.euclidean_loss_graph(out.distribution, targets)

    report = grad_check(net.named_parameters(), loss_fn, tol=tol,
                        max_per_param=E2E_PER_PARAM, seed=seed)
    return report, net.parameter_count()
