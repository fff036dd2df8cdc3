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
from .errors import ConfigurationError

REL_ERR_FLOOR = 1e-8   # denominator floor when the numeric gradient is tiny
ABS_SKIP = 1e-10       # treat |analytic - numeric| below this as exact


@dataclass
class ParamCheck:
    name: str
    checked: int
    max_rel_err: float
    worst_index: int


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


def _first_nonfinite_op(loss):
    for node in ad._topo_order(loss):
        if not np.all(np.isfinite(node.data)):
            return node.op
    return "unknown"


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
    params = list(named_params)
    report = GradCheckReport(eps=eps, tol=tol)
    for name, t in params:
        if t.dtype != np.float64:
            raise ConfigurationError(
                f"grad_check requires 64-bit parameters, {name} is {t.dtype}")
        if not t.data.flags["C_CONTIGUOUS"]:
            # the flat perturbation view below must alias the tensor's storage
            t.data = np.ascontiguousarray(t.data)
    if not params:
        return report

    for _, t in params:
        t.grad = None
    loss = loss_fn()
    if not np.all(np.isfinite(loss.data)):
        report.failure = f"non-finite loss in forward pass (op {_first_nonfinite_op(loss)})"
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
        worst_i = -1
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
                err = _rel_err(a_flat[i], (lp - lm) / (2.0 * eps))
                if err > worst:
                    worst, worst_i = err, int(i)
        report.params.append(ParamCheck(name, len(idxs), worst, worst_i))
    return report


# ---------------------------------------------------------------------------
# the op-by-op suite behind the CLI gradcheck verb and the acceptance gate
# ---------------------------------------------------------------------------

def _param(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _away_from_kink(t, margin=0.05):
    t.data = t.data + np.where(t.data >= 0, margin, -margin)
    return t


def _project(rng, shape):
    """A fixed random projection to a scalar so upstream gradients are non-uniform."""
    w = rng.standard_normal(shape)
    return lambda out: ad.tsum(ad.mul_const(out, w))


def _op_cases(rng):
    """One loss_fn per op, each over fresh random small shapes."""
    cases = {}

    x = _param(rng, 3, 4)
    w = _param(rng, 4, 2)
    b = _param(rng, 2)
    pd = _project(rng, (3, 2))
    cases["dense"] = ([("x", x), ("w", w), ("b", b)],
                      lambda: pd(ad.dense(x, w, b)))

    xc = _param(rng, 1, 2, 5, 5)
    k = _param(rng, 3, 2, 3, 3)
    pc = _project(rng, (1, 3, 3, 3))
    cases["conv2d"] = ([("x", xc), ("k", k)],
                       lambda: pc(ad.conv2d(xc, k, stride=1, pad=0)))

    xs = _param(rng, 2, 2, 6, 6)
    ks = _param(rng, 2, 2, 3, 3)
    ps = _project(rng, (2, 2, 3, 3))
    cases["conv2d_strided"] = ([("x", xs), ("k", ks)],
                               lambda: ps(ad.conv2d(xs, ks, stride=2, pad=1)))

    xb = _param(rng, 4, 3, 3, 3)
    gam = ad.Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True, dtype=np.float64)
    bet = _param(rng, 3)
    pb = _project(rng, (4, 3, 3, 3))
    cases["batch_norm_train"] = (
        [("x", xb), ("gamma", gam), ("beta", bet)],
        lambda: pb(ad.batch_norm(xb, gam, bet, mode="train", stats=None)))

    xe = _param(rng, 2, 3, 3, 3)
    game = ad.Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True, dtype=np.float64)
    bete = _param(rng, 3)
    stats = ad.RunningStats(3, dtype=np.float64)
    stats.mean = rng.standard_normal(3)
    stats.var = rng.uniform(0.5, 2.0, 3)
    pe = _project(rng, (2, 3, 3, 3))
    cases["batch_norm_eval"] = (
        [("x", xe), ("gamma", game), ("beta", bete)],
        lambda: pe(ad.batch_norm(xe, game, bete, mode="eval", stats=stats)))

    xr = _away_from_kink(_param(rng, 4, 7))
    pr = _project(rng, (4, 7))
    cases["relu"] = ([("x", xr)], lambda: pr(ad.relu(xr)))

    xm = _param(rng, 2, 2, 6, 6)
    pm = _project(rng, (2, 2, 3, 3))
    cases["max_pool"] = ([("x", xm)],
                         lambda: pm(ad.pool(xm, "max", window=2, stride=2)))

    xg = _param(rng, 2, 3, 4, 4)
    pg = _project(rng, (2, 3, 1, 1))
    cases["global_avg_pool"] = ([("x", xg)],
                                lambda: pg(ad.pool(xg, "avg", window=4)))

    aa = _param(rng, 3, 5)
    bb = _param(rng, 3, 5)
    pad_add = _project(rng, (3, 5))
    cases["add"] = ([("a", aa), ("b", bb)], lambda: pad_add(ad.add(aa, bb)))

    zz = _param(rng, 4, 5)
    pz = _project(rng, (4, 5))
    cases["softmax"] = ([("z", zz)], lambda: pz(ad.softmax(zz)))

    xp = _param(rng, 1, 2, 3, 3)
    pp = _project(rng, (1, 2, 7, 7))
    cases["pad2d"] = ([("x", xp)], lambda: pp(ad.pad2d(xp, 2)))

    ze = _param(rng, 3, 5)
    te = rng.dirichlet(np.ones(5), size=3)
    cases["euclidean_graph"] = ([("z", ze)],
                                lambda: ldl.euclidean_loss_graph(ad.softmax(ze), te))

    zq = _param(rng, 3, 5)
    tq = rng.dirichlet(np.ones(5), size=3)
    cases["euclidean_sq_graph"] = ([("z", zq)],
                                   lambda: ldl.euclidean_loss_graph(ad.softmax(zq), tq, squared=True))

    zk = _param(rng, 3, 5)
    tk = rng.dirichlet(np.ones(5), size=3)
    cases["kl_graph"] = ([("z", zk)], lambda: ldl.kl_loss_graph(ad.softmax(zk), tk))

    # last, so the cases above keep their random draws
    xq = _param(rng, 2, 3, 6, 6)
    kq = _param(rng, 4, 3, 1, 1)
    pq = _project(rng, (2, 4, 3, 3))
    cases["conv2d_pointwise"] = ([("x", xq), ("k", kq)],
                                 lambda: pq(ad.conv2d(xq, kq, stride=2, pad=0)))

    # the network's commonest conv: its dK and dX come from the padded gradient's rows
    xd = _param(rng, 1, 2, 5, 5)
    kd = _param(rng, 3, 2, 3, 3)
    pdd = _project(rng, (1, 3, 5, 5))
    cases["conv2d_padded"] = ([("x", xd), ("k", kd)],
                              lambda: pdd(ad.conv2d(xd, kd, stride=1, pad=1)))

    return cases


def gradient_suite(num_seeds=50, eps=1e-5, tol=1e-5):
    """Run every op case over ``num_seeds`` random draws.

    Returns (per-op max rel err dict, passed flag).
    """
    ad._integer("gradient_suite", "num_seeds", num_seeds, 1)
    worst = {}
    for s in range(num_seeds):
        rng = np.random.default_rng(1000 + s)
        for name, (params, loss_fn) in _op_cases(rng).items():
            rep = grad_check(params, loss_fn, eps=eps, tol=tol)
            if rep.failure:
                worst[name] = float("inf")
                continue
            worst[name] = max(worst.get(name, 0.0), rep.max_rel_err)
    passed = all(v <= tol for v in worst.values())
    return worst, passed


def end_to_end_check(seed=0, eps=1e-5, tol=1e-4, max_per_param=8):
    """Finite-difference check of a full toy network (< 10k parameters).

    Builds a float64 four-stage residual net, runs a train-mode forward into
    the unsquared distribution loss, and probes a sampled subset of every
    parameter tensor. Smaller eps is counterproductive here: deep-layer
    elements carry tiny gradients, and secant roundoff swamps them.
    """
    from .network import Network, NetworkSpec, init_weights

    ad._integer("end_to_end_check", "seed", seed, 0)
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

    report = grad_check(net.named_parameters(), loss_fn, eps=eps, tol=tol,
                        max_per_param=max_per_param, seed=seed)
    return report, net.parameter_count()
