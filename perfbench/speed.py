"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the speed of one vCPU changes for seconds to
tens of seconds at a time, as other tenants load the physical cores. A pass
of a workload then takes longer for reasons outside the program, and no
number of repeats within a run averages that away. The benchmark therefore
runs this kernel just before and just after every timed interval and
rescales the interval's time to the speed at which the kernel takes
``REFERENCE_S``. ``baseline.json`` records how far the kernel's time moved
(``reference_kernel``) and the unscaled times beside the rescaled ones
(``unscaled``), which is the evidence that rescaling is needed.

The kernel mixes interpreted integer arithmetic with small complex
eigenproblems, the same two kinds of work eptriad's hot paths do, and uses
no eptriad code, so a change to eptriad cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

#: a round figure near the kernel's fastest time (0.043 s) on a 2.1 GHz Xeon
#: (Sapphire Rapids) KVM vCPU; it only sets the unit of the rescaled times
REFERENCE_S = 0.040

_M = np.array([[0.3 + 1j, 1, 0], [1, 0.2j, 1], [0, 1, -0.3 - 1j]])


def reference_time() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(350_000):
        acc += (i * i) % 7
    for k in range(1400):
        np.linalg.eig(_M + 0.01 * k)
    return time.perf_counter() - t0


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel times, at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
