"""The library names the benchmark under ``bench/`` reaches.

Its tracer and lap sites patch module attributes by name, its
``halfspace-picard`` workload builds a ``GridFunction`` over a
``HalfSpace``, and its ``ball-dirichlet`` workload passes
``constant_field(1.0)`` to the ball calls.  A deletion or an API change
that would break the benchmark run fails here.
"""
import math
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


def test_green_evals_count_one_kernel_value_per_entry(monkeypatch):
    # the tracer counts kernels.green_from_psi evals as np.size of the third
    # positional argument of the _green_from_psi names it patches
    calls = []

    def wrapped(owner):
        inner = owner._green_from_psi

        def green(*args, **kwargs):
            out = inner(*args, **kwargs)
            calls.append((owner.__name__, np.size(args[2]), np.size(out)))
            return out

        return green

    for owner in (fraclap.quadrature, fraclap.solver):
        monkeypatch.setattr(owner, "_green_from_psi", wrapped(owner))
    P2 = fraclap.FracParams(2, 0.5)
    runs = {
        "strip_mass": lambda: fraclap.quadrature.strip_mass(P2, 1.0, np.array([0.3, 0.0])),
        "ball_green_integral": lambda: fraclap.quadrature.ball_green_integral(
            P2, 1.0, fraclap.quadrature.constant_field(1.0), np.array([0.2, 0.1])
        ),
        "box_green_mass": lambda: fraclap.quadrature.box_green_mass(P2, np.array([0.5, 0.0]), [0.0, -1.0], [1.0, 1.0]),
        "PicardOperator": lambda: fraclap.solver.PicardOperator(
            P2, (np.linspace(0.25, 1.75, 4), np.linspace(-1.0, 1.0, 5))
        ),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, name
        assert all(arg == out for _, arg, out in calls), name
    assert {owner for owner, *_ in calls} == {"fraclap.quadrature", "fraclap.solver"}


def test_ball_dirichlet_workload_calls_take_constant_fields():
    # the ball-dirichlet workload passes quadrature.constant_field(1.0) as f and g to
    # these three calls; at N = 1, s = 1/2 the solution is 1 + sqrt(1 - x^2)
    quad = fraclap.quadrature
    params, one = fraclap.FracParams(1, 0.5), quad.constant_field(1.0)
    spec = quad.QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    axes = (np.linspace(-0.9, 0.9, 5),)
    node_errors = {}
    gf = fraclap.solver.solve_ball_dirichlet(params, 1.0, one, one, axes, spec, node_errors=node_errors)
    assert node_errors == {}
    np.testing.assert_allclose(gf.values, 1.0 + np.sqrt(1.0 - axes[0] ** 2), rtol=1e-7)
    x = np.array([0.3])
    assert abs(quad.exterior_poisson_integral(params, 1.0, one, x, spec) - 1.0) <= 1e-7
    assert abs(quad.ball_green_integral(params, 1.0, one, x, spec) - math.sqrt(0.91)) <= 1e-7 * math.sqrt(0.91)
