"""Machine-speed sampling, so that timings hold still on a shared VM.

On a shared 2-vCPU VM the same work runs up to 1.5x slower for seconds to
minutes at a time, and CPU time slows with wall time, so a slow spell covers
whole runs and medians across runs do not remove it. The two vCPUs do not
slow together, so a probe on the other vCPU does not track the measured one.

So the process that does the work also measures its own speed: a timer
signal interrupts it every INTERVAL_S seconds, and the handler times a fixed
probe on the same vCPU. The probe has four parts, each like a kind of work
the program does: plain interpreter work, numpy calls on small arrays, a
numpy pass over a few thousand elements, and small-object churn. A slow
spell slows them by different amounts, and the mix tracks both workloads
better than any one part. A sample's speed is the geometric mean over the
parts of the reference time over the measured time.

A timed section then gives

- `wall_s`: its wall time minus the probe time inside it, and
- `ref_s`: `wall_s` times the mean speed of the samples inside it. This is
  the section's time on a machine that runs every probe part in its
  reference time (REF_S).

The probe is fixed benchmark code, so a faster program lowers `ref_s` as it
lowers `wall_s`, while a slow spell of the machine moves `wall_s` only.
The handler runs between bytecodes of the main thread, so a long C call
delays a sample but does not lose it. BLAS threads are not sampled.
"""

from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((2, 64))
_LARGE = _rng.standard_normal(4000)
_KEYS = _rng.integers(0, 64, 4000)


def _interp():
    d, s = {}, 0
    for i in range(2500):
        k = i % 97
        d[k] = d.get(k, 0) + i
        s += k * 3
    return s


def _small_arrays():
    a, b = _SMALL
    for _ in range(60):
        c = a * 2.0 + b
        np.cumsum(c)
        c.sum()


def _array_pass():
    order = np.argsort(_LARGE)
    np.bincount(_KEYS, weights=_LARGE[order])
    np.cumsum(_LARGE * 2.0 + 1.0)


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b):
        self.a, self.b, self.c = a, b, None


def _objects():
    nodes = []
    for i in range(600):
        n = _Node(i, (i, i + 1))
        n.c = [n.a, n.b]
        nodes.append(n)
    return nodes


_PARTS = (_interp, _small_arrays, _array_pass, _objects)
REF_S = (0.5e-3, 0.5e-3, 0.2e-3, 0.7e-3)   # about this VM's usual times

_samples = []     # (start, duration, speed) of every probe in this process


def _on_timer(signum, frame):
    # no collection inside the probe: it would scan the program's objects
    # and charge that to the probe; the probe's garbage is gone by the end
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = t = time.perf_counter()
    log_speed = 0.0
    for part, ref in zip(_PARTS, REF_S):
        part()
        t1 = time.perf_counter()
        log_speed += math.log(ref / (t1 - t))
        t = t1
    if gc_was_on:
        gc.enable()
    _samples.append((t0, t - t0, math.exp(log_speed / len(_PARTS))))


def start():
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def section(t0, t1):
    """`wall_s`, `ref_s` and the probe count of the section [t0, t1] of
    perf_counter time. A section too short to hold a probe takes the speed
    of the probes nearest to it."""
    inside = [x for x in _samples if t0 <= x[0] < t1]
    wall = (t1 - t0) - sum(x[1] for x in inside)
    near = inside or sorted(_samples, key=lambda x: abs(x[0] - t0))[:3]
    if not near:
        raise RuntimeError("no speed samples: start() was not called")
    speed = sum(x[2] for x in near) / len(near)
    return {"wall_s": wall, "ref_s": wall * speed, "probes": len(inside)}
