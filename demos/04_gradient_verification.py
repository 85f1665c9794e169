"""
Checking every hand-written gradient
====================================

All backward passes in this package are hand-derived, so each one is
verified two ways: central finite differences per component, and a
complex-step derivative through the whole model-plus-loss pipeline, which
has no differencing error at all.
"""

import numpy as np

from pointseg import finite_diff_grad
from pointseg.gradcheck import COMPLEX_STEP, fd_noise_floor, run_all

# A reduced run for demo purposes; the shipped defaults use 50 instances
# per component. Every component reports its worst relative error across
# random instances.
report = run_all(seed=0, trials=10, end_to_end_trials=2)
print(report.format_table())

# Finite differences round: around a value of size v the difference
# quotient cannot resolve gradient entries below this floor, which is why
# the checker masks them and the complex-step suite covers the rest.
for value in (1.0, 100.0):
    print(f"fd noise floor around objective size {value:g}: "
          f"{fd_noise_floor(value):.2e}")

# The finite-difference oracle hands its function a stack of probes, two per
# coordinate (moved up by the step, then down by twice it), and takes one
# value per probe. The suites' value steps evaluate a whole stack in one
# call, each probe to the bits of its own call. Here a log-sum-exp, whose
# gradient is the softmax of all its entries.
x = np.random.default_rng(0).normal(size=(3, 4, 4))
numeric = finite_diff_grad(lambda probes: np.log(np.exp(probes).sum(axis=(1, 2, 3))), x)
analytic = np.exp(x) / np.exp(x).sum()
print(f"log-sum-exp: {x.size} coordinates, {2 * x.size} probes, "
      f"max |analytic - numeric| = {np.abs(analytic - numeric).max():.1e}")

# The complex-step oracle moves a coordinate by an imaginary step instead and
# reads the derivative off the imaginary part of the value: no difference of
# nearby values, so no rounding floor. It too evaluates a stack of probes at
# once, probe j moving coordinate j, and takes one complex value per probe.
probes = np.repeat(x[None].astype(complex), x.size, axis=0)
probes.reshape(x.size, -1)[range(x.size), range(x.size)] += 1j * COMPLEX_STEP
values = np.log(np.exp(probes).sum(axis=(1, 2, 3)))
complex_step = (values.imag / COMPLEX_STEP).reshape(x.shape)
print(f"log-sum-exp: {x.size} complex probes, "
      f"max |analytic - complex step| = {np.abs(analytic - complex_step).max():.1e}")
