"""A fixed pure-numpy workload that reads the host's current speed.

The benchmark runs on a few CPUs of a shared host whose speed moves with
other tenants' load: a training step's 10th-percentile time went from
210 ms to 305-370 ms between runs half an hour apart, with no change to
the program.  No statistic taken within one run removes a slowdown that
lasts the whole run, so every gated time is paired with a reading of this
probe taken right after it and scaled to the speed at which the probe
takes :data:`REFERENCE_S`:

    normalised = measured * REFERENCE_S / probe

In two runs minutes apart the raw 10th-percentile step time moved from
261 to 325 ms (+24%) while the median of step time over probe time moved
from 123 to 128 (+4%).

The probe imitates the program's mix of Python dispatch and small numpy
operations (a depthwise-separable stack on a 2x16x16x16 input) but shares
no code with it, so a change to the program never changes the probe.  It
imports nothing from ``repro``.
"""
from __future__ import annotations

import time

import numpy as np

#: Probe time, in seconds, of the host speed the normalised figures are
#: expressed at: about the probe's 10th-percentile pass on a 2-vCPU host,
#: so normalised figures read close to raw ones on a quiet host.
REFERENCE_S = 0.002

_LAYERS = 8
_CHANNELS = 16


class HostProbe:
    """A seeded, fixed depthwise-separable stack timed pass by pass."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((2, _CHANNELS, 16, 16)).astype(np.float32)
        self._layers = []
        c = _CHANNELS
        for i in range(_LAYERS):
            co = _CHANNELS if i % 2 else 2 * _CHANNELS
            self._layers.append((
                rng.standard_normal((9, c, 1, 1)).astype(np.float32),
                (rng.standard_normal((co, c)) / np.sqrt(c)).astype(np.float32),
                rng.standard_normal((co, 1, 1)).astype(np.float32),
                rng.standard_normal((co, 1, 1)).astype(np.float32),
            ))
            c = co
        for _ in range(3):  # first passes pay numpy's one-time costs
            self.run()

    def run(self) -> float:
        """One pass; returns a value so the work cannot be skipped."""
        x = self._x
        for dw, pw, scale, shift in self._layers:
            n, c, h, w = x.shape
            padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            y = np.zeros_like(x)
            for k in range(9):
                i, j = divmod(k, 3)
                y += padded[:, :, i:i + h, j:j + w] * dw[k]
            y = np.maximum(y, 0.0)
            z = np.matmul(pw, y.reshape(n, c, h * w)).reshape(n, -1, h, w)
            x = np.maximum(z * scale + shift, 0.0)
            x = x / (np.abs(x).max() + 1.0)
        return float(x.mean())

    def sample(self, passes: int = 1) -> float:
        """Seconds per pass, averaged over ``passes`` back-to-back passes."""
        start = time.perf_counter()
        for _ in range(passes):
            self.run()
        return (time.perf_counter() - start) / passes
