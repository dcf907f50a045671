"""Reference kernel that measures how fast this host is running right now.

On a shared virtual machine the same season op takes anywhere from 1.4 s to
3.0 s within minutes, because the host's cores are shared. The benchmark
times this fixed kernel, which does not touch agrisim, between every two
ops, and scales each op's host time by ``REFERENCE_S`` over the mean of the
kernel times just before and just after it: the result is the op's time on
a host where the kernel takes ``REFERENCE_S``. The kernel mixes the work a
season op does: scalar numpy calls, float arithmetic, hashing, many small
objects, and one pass over an array.

``REFERENCE_S`` and the kernel fix the scale of every reference-scaled
metric; changing either moves all of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# a round figure inside the 0.18-0.35 s the kernel took on the host where
# the benchmark was defined (2-vCPU KVM guest, Xeon Sapphire Rapids,
# Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.25


@dataclass(frozen=True)
class _Sample:
    timestamp_s: float
    value: float


def _kernel() -> str:
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    kept = []
    for _ in range(3):
        for i in range(8000):
            z = float(rng.standard_normal())
            h.update(np.float64(z).tobytes())
            value = float(np.clip(20.0 + 3.0 * z, 0.0, 100.0))
            kept.append(_Sample(i * 300.0, round(value, 1)))
        a = rng.random(100_000)
        for _ in range(5):
            a = np.sqrt(a * a + 1.0) - 0.5
        h.update(a.tobytes())
    return h.hexdigest() + str(len(kept))


def kernel_seconds() -> float:
    """Host seconds of one run of the reference kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def to_reference(host_s, kernel_before_s: float, kernel_after_s: float):
    """Host seconds of an op scaled to the reference host; None stays None."""
    if host_s is None:
        return None
    return host_s * REFERENCE_S * 2.0 / (kernel_before_s + kernel_after_s)
