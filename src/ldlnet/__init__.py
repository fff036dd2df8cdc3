"""Label-distribution learning of facial attractiveness scores.

The package trains residual convolutional networks to predict the full
distribution of rater scores for a face, decodes scalar scores as the
distribution's weighted mean, and evaluates with Pearson correlation.
Everything runs on a self-contained numpy autodiff tape.

The LDL_THREADS environment variable (default 1, the reference mode) caps
the numeric library's internal thread pools, applied here at import time.
The environment variables set below act only when numpy loads after this
package, so the OpenBLAS pool numpy bundles is also capped at runtime,
which holds whichever was imported first.
"""

import os as _os

_threads = _os.environ.setdefault("LDL_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)


def _cap_openblas_threads(threads):
    """Set the thread count of the OpenBLAS numpy bundles, when it has one
    and ``threads`` is a positive integer; otherwise do nothing."""
    import ctypes
    import glob

    import numpy

    try:
        count = int(threads)
    except ValueError:
        return
    libdir = _os.path.join(_os.path.dirname(_os.path.dirname(numpy.__file__)), "numpy.libs")
    paths = sorted(glob.glob(_os.path.join(libdir, "libscipy_openblas*")))
    if count < 1 or not paths:
        return
    lib = ctypes.CDLL(paths[0])
    for suffix in ("64_", ""):
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(count)
            return


_cap_openblas_threads(_threads)
del _os, _threads, _var, _cap_openblas_threads

from .autodiff import Tensor, no_grad
from .distributions import (
    ScoreScale,
    chebyshev,
    distribution_from_ratings,
    euclidean_loss,
    kl_logit_gradient,
    kl_loss,
    pearson,
    weighted_mean,
)
from .network import Network, NetworkSpec, init_weights, full_scale_spec

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "no_grad",
    "ScoreScale",
    "chebyshev",
    "distribution_from_ratings",
    "euclidean_loss",
    "kl_logit_gradient",
    "kl_loss",
    "pearson",
    "weighted_mean",
    "Network",
    "NetworkSpec",
    "init_weights",
    "full_scale_spec",
    "__version__",
]
