"""Host-speed calibration for the timed passes.

The benchmark runs on a few cores of a shared host, whose single-thread
speed drifts by 10-30 % within a minute as neighbours load it, with little
steal time to show for it (CPU time drifts with wall time).  The drift is
largely common to all code in the process, so a fixed calibration loop that
does not touch fraclap slows down with the workload.  The harness therefore
pauses the clock about once a second, between library calls, runs the loop
(the probe), and scales each timed segment by how much slower or faster
than on the reference host the probes on either side of it ran.  A change
to fraclap cannot move the probe, so it moves the scaled time as it moves
the raw time; the probe's own time is never counted.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy import special

#: median time of one ``calibration_loop`` on the reference host: Intel Xeon
#: (2 vCPU, shared), Python 3.11.7, NumPy 2.4.6, one BLAS thread
REFERENCE_LOOP_S = 0.0101
#: loops per probe; the probe reports their median, which drops single slow loops
PROBE_LOOPS = 5
#: shortest segment after which ``lap()`` probes; bounds the probes' share of a run
MIN_SEGMENT_S = 1.0

# preallocated, so that the loop's speed does not depend on the allocator's state
_SMALL = np.linspace(0.0, 1.0, 10_000)
_SMALL_OUT = (np.empty_like(_SMALL), np.empty_like(_SMALL))
_UNIT = np.linspace(0.001, 0.999, 2_000)
_UNIT_OUT = np.empty_like(_UNIT)
_LARGE = np.linspace(0.0, 1.0, 1_000_000)
_LARGE_OUT = np.empty_like(_LARGE)
_TINY = np.linspace(0.1, 0.9, 16)
_TINY_W = np.linspace(1.0, 2.0, 16)
#: bytes the process holds for the loop's arrays
BUFFER_BYTES = sum(x.nbytes for x in (_SMALL, *_SMALL_OUT, _UNIT, _UNIT_OUT, _LARGE, _LARGE_OUT))


def calibration_loop():
    """A fixed mix of interpreted Python, NumPy on tiny and in-cache arrays,
    special functions and memory streaming.

    It mirrors the workloads' mix (interpreted quadrature loops over 8-16
    node arrays, small vectorised kernels, the incomplete beta and
    hypergeometric functions behind the kernel integral, large kernel
    batches) and does not touch fraclap.  Each part was kept because it made
    the probe track a fixed pass better on the reference host: across 24
    ``PicardOperator`` builds the special functions took the scaled times'
    coefficient of variation from 5.8 % to 4.9 % (raw 8.3 %), and across 20
    solves of the 11x11 ball grid the tiny-array calls took it from 4.3 % to
    3.5 % (raw 9.3 %).
    """
    a, b = _SMALL_OUT
    total = 0.0
    for _ in range(5):
        np.sqrt(_SMALL, out=a)
        np.log1p(_SMALL, out=b)
        np.multiply(a, b, out=a)
        total += float(a.sum())
    acc = 0
    for i in range(25_000):
        acc += i * i
    for _ in range(2):
        special.betainc(0.5, 0.75, _UNIT, out=_UNIT_OUT)
        special.hyp2f1(0.25, 0.75, 1.25, _UNIT, out=_UNIT_OUT)
        total += float(_UNIT_OUT[-1])
    for _ in range(2):
        np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)
        np.add(_LARGE_OUT, _LARGE, out=_LARGE_OUT)
    for k in range(150):
        v = np.sqrt(_TINY) * _TINY_W
        total += float(np.dot(v, _TINY_W)) + float(np.exp(-1e-3 * k * _TINY).sum())
    return total + acc


def probe(loops=PROBE_LOOPS):
    """Median time of ``loops`` calibration loops, in seconds."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds, probe_before, probe_after, reference=REFERENCE_LOOP_S):
    """``seconds`` at the reference host speed, from the probes on either side."""
    return seconds * reference / (0.5 * (probe_before + probe_after))


def scaled_total(segments, probes, reference=REFERENCE_LOOP_S):
    """Sum of segment times, each scaled to the reference host speed.

    ``probes`` has one more entry than ``segments``: the probe before the
    first segment and the one after each.
    """
    if len(probes) != len(segments) + 1:
        raise ValueError("need one probe before and one after every segment")
    return sum(scaled(seg, before, after, reference) for seg, before, after in zip(segments, probes, probes[1:]))


def lap_sites(fraclap_pkg):
    """(module, name) of the calls inside long library calls after which a pass may lap.

    ``PicardOperator`` and ``solve_ball_dirichlet`` run for 10-15 s each and
    ``lambda0_estimate`` for about 5 s; they make these calls through the
    ``solver`` module's names, about every 0.1 s.
    """
    solver = fraclap_pkg.solver
    return [(solver, "box_green_mass"), (solver, "exterior_poisson_integral"),
            (solver, "ball_green_integral"), (solver, "strip_mass")]


class Stopwatch:
    """Times one pass as segments between probes of the host speed.

    ``start()`` probes and starts the clock.  ``lap()`` is called between
    library calls; once the current segment has run ``min_segment_s``, it
    stops the clock, probes and restarts it.  ``stop()`` closes the last
    segment with a final probe.
    """

    def __init__(self, probe_fn=probe, min_segment_s=MIN_SEGMENT_S, clock=time.perf_counter):
        self._probe = probe_fn
        self._min_segment_s = min_segment_s
        self._clock = clock
        self.segments: list[float] = []
        self.probes: list[float] = []
        self._t0 = 0.0

    def start(self):
        self.probes.append(self._probe())
        self._t0 = self._clock()

    def lap(self):
        if self._clock() - self._t0 >= self._min_segment_s:
            self.stop()
            self._t0 = self._clock()

    def stop(self):
        self.segments.append(self._clock() - self._t0)
        self.probes.append(self._probe())

    @property
    def raw_s(self):
        return sum(self.segments)

    @property
    def scaled_s(self):
        return scaled_total(self.segments, self.probes)

    @contextmanager
    def lapping_after(self, sites):
        """Call ``lap()`` after every call through each (module, name) site; restore on exit."""
        saved = [(owner, name, getattr(owner, name)) for owner, name in sites]
        try:
            for owner, name, func in saved:
                setattr(owner, name, self._lapping(func))
            yield self
        finally:
            for owner, name, func in reversed(saved):
                setattr(owner, name, func)

    def _lapping(self, func):
        def call(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            finally:
                self.lap()

        call.__wrapped__ = func
        return call


def no_lap():
    """The ``lap`` of a pass that is not scaled."""
