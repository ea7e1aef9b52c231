"""The library names the benchmark under ``bench/`` reaches.

Its tracer and lap sites patch module attributes by name, and its
``halfspace-picard`` workload builds a ``GridFunction`` over a
``HalfSpace``.  A deletion that would break the benchmark run fails here.
"""
import sys
from pathlib import Path

import numpy as np

import fraclap
import fraclap.solver
import fraclap.verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from fraclap_bench import hostspeed, tracing  # noqa: E402


def test_traced_and_lapped_names_resolve():
    sites = [(owner, name) for owner, name, *_ in tracing.boundaries(fraclap)]
    sites += hostspeed.lap_sites(fraclap)
    missing = [f"{owner.__name__}.{name}" for owner, name in sites if not callable(getattr(owner, name, None))]
    assert missing == []


def test_workload_grid_function_over_a_halfspace():
    axes = fraclap.verify.default_halfspace_axes(fraclap.FracParams(2, 0.5))
    shape = tuple(len(a) for a in axes)
    u0 = fraclap.solver.GridFunction(domain=fraclap.kernels.HalfSpace(), axes=axes, values=np.full(shape, 0.01))
    assert u0.eval(u0.nodes()[:3]).tolist() == [0.01] * 3
