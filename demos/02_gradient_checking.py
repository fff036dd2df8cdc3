"""Verifying every analytic gradient against central finite differences.

The tape's backward pass is only trusted because an independent oracle
(forward evaluations at w +/- eps) reproduces it. This demo runs the per-op
suite at a few seeds, then probes a complete toy network end to end, and
finally shows what a deliberately corrupted gradient looks like.

Run:  python demos/02_gradient_checking.py
"""

import numpy as np

import ldlnet.autodiff as ad
from ldlnet.gradcheck import end_to_end_check, grad_check, gradient_suite

print("per-op suite (5 seeds):")
worst, ok = gradient_suite(num_seeds=5)
for name in sorted(worst):
    print(f"  {name:<20} max rel err {worst[name]:.2e}")
print(f"  -> {'PASS' if ok else 'FAIL'} at tol 1e-5")

print("\nend-to-end toy network (sampled elements of every parameter):")
report, n_params = end_to_end_check(seed=0)
print(f"  {n_params} parameters, max rel err {report.max_rel_err:.2e} "
      f"-> {'PASS' if report.passed else 'FAIL'} at tol 1e-4")

print("\nwhat a wrong gradient looks like (backward doubled on purpose):")
w = ad.Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)


def doubled(x):
    # an op records its value and a vector-Jacobian product, here a wrong one
    return ad._node(x.data.copy(), "doubled", (x,), lambda g: (2.0 * g,))


bad = grad_check([("w", w)], lambda: ad.tsum(doubled(w)), eps=1e-6, tol=1e-6)
print(f"  max rel err {bad.max_rel_err:.3f} (the analytic value is exactly 2x the truth)")
print(bad.summary())
