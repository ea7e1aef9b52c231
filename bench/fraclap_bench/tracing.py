"""Span tracing at fraclap's layer boundaries, installed from the benchmark.

The library is not instrumented.  ``Tracer.installed`` replaces, for the
duration of a ``with`` block, the names through which one layer calls the
next (for example ``fraclap.solver.box_green_mass``, the name the solver
resolves at call time) with timing wrappers, and restores them afterwards.

Each call records a span: layer name, start, end, parent span and the id of
the top-level call it belongs to (the operation), plus the number of points
it was handed (``evals``) and whether it raised.  Spans stay in memory and
are written out once, after the traced pass.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _size_of_arg(index):
    def size(args, kwargs):
        return int(np.size(args[index])) if len(args) > index else 0

    return size


def _pair_count(args, kwargs):
    # green_halfspace(params, x, y): one kernel value per broadcast point pair
    x, y = np.shape(args[1])[:-1], np.shape(args[2])[:-1]
    return int(np.prod(np.broadcast_shapes(x, y), dtype=np.int64))


def boundaries(fraclap_pkg):
    """(owner, attribute, layer, size function) for every traced call site.

    Owners are the modules (or the class) whose global name the caller
    resolves at call time, so patching the owner reroutes exactly the calls
    that cross into the layer.
    """
    kernels, quad, solver = fraclap_pkg.kernels, fraclap_pkg.quadrature, fraclap_pkg.solver
    return [
        (kernels, "incomplete_kernel_integral", "core.incomplete_kernel_integral", _size_of_arg(1)),
        (quad, "_green_from_psi", "kernels.green_from_psi", _size_of_arg(2)),
        (solver, "_green_from_psi", "kernels.green_from_psi", _size_of_arg(2)),
        (kernels, "green_halfspace", "kernels.green_halfspace", _pair_count),
        (kernels, "h_function_partials", "kernels.h_function_partials", None),
        (quad, "ball_green_integral", "quadrature.ball_green_integral", None),
        (solver, "ball_green_integral", "quadrature.ball_green_integral", None),
        (quad, "exterior_poisson_integral", "quadrature.exterior_poisson_integral", None),
        (solver, "exterior_poisson_integral", "quadrature.exterior_poisson_integral", None),
        (solver, "box_green_mass", "quadrature.box_green_mass", None),
        (quad, "strip_mass", "quadrature.strip_mass", None),
        (solver, "strip_mass", "quadrature.strip_mass", None),
        (solver, "solve_ball_dirichlet", "solver.solve_ball_dirichlet", None),
        (solver.PicardOperator, "_build_matrix", "solver.picard.build_matrix", None),
        (solver.PicardOperator, "_build_diagonal", "solver.picard.build_diagonal", None),
        (solver.PicardOperator, "apply", "solver.picard.apply", None),
        (solver, "picard_semilinear", "solver.picard_semilinear", None),
        (solver, "lambda0_estimate", "solver.lambda0_estimate", None),
        (solver, "moving_plane_check", "solver.moving_plane_check", None),
    ]


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        # one tuple per span: (layer id, start, end, parent, operation, evals, raised)
        self.spans: list = []
        self._stack: list[int] = []
        self._operations = 0

    def _layer_id(self, layer):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, layer, func, size=None):
        """Return ``func`` wrapped so every call records a span under ``layer``."""
        layer_id = self._layer_id(layer)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                operation = spans[parent][4]
            else:
                parent = -1
                operation = self._operations
                self._operations += 1
            evals = size(args, kwargs) if size is not None else 0
            index = len(spans)
            spans.append((layer_id, 0.0, 0.0, parent, operation, evals, False))
            stack.append(index)
            raised = False
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer_id, start, end, parent, operation, evals, raised)

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self, sites):
        """Patch every (owner, attribute, layer, size) site; restore on exit."""
        saved = []
        try:
            for owner, attr, layer, size in sites:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Spans as a dict of NumPy columns."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        return {
            "layer": np.asarray(cols[0], dtype=np.int64),
            "start": np.asarray(cols[1], dtype=float),
            "end": np.asarray(cols[2], dtype=float),
            "parent": np.asarray(cols[3], dtype=np.int64),
            "operation": np.asarray(cols[4], dtype=np.int64),
            "evals": np.asarray(cols[5], dtype=np.int64),
            "raised": np.asarray(cols[6], dtype=bool),
        }

    def write(self, path: Path, meta: dict):
        """Write the spans (``.npz``) and the layer names plus ``meta`` (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), **self.arrays())
        path.with_suffix(".json").write_text(
            json.dumps({"layers": self.layers, "spans": len(self.spans), **meta}, indent=1)
        )


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    children = np.nonzero(parent >= 0)[0]
    if len(children) == 0:
        return out
    order = children[np.lexsort((start[children], parent[children]))]
    cur, cover_end, covered = -1, 0.0, 0.0
    for i in order:
        p = parent[i]
        if p != cur:
            if cur >= 0:
                out[cur] -= covered
            cur, cover_end, covered = p, start[p], 0.0
        lo = max(start[i], cover_end)
        hi = min(end[i], end[p])
        if hi > lo:
            covered += hi - lo
            cover_end = hi
    out[cur] -= covered
    return out


def descendant_totals(parent, values):
    """For every span, the sum of ``values`` over its strict descendants.

    Relies on a child being recorded after its parent (index order).
    """
    parent = np.asarray(parent, dtype=np.int64)
    below = np.zeros(len(parent), dtype=float)
    carry = np.asarray(values, dtype=float) + below
    for i in range(len(parent) - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            carry_i = carry[i]
            below[p] += carry_i
            carry[p] += carry_i
    return below


def layer_summary(tracer: Tracer, nodes: int = 0):
    """Per-layer counts and times from the recorded spans.

    Returns {metric name: value}; every layer named in the benchmark is
    present, with zeros where the workload did not reach it.  ``nodes`` is
    the Picard grid size, for the self-cell cache's hit ratio.
    """
    cols = tracer.arrays()
    layer_ids = {name: i for i, name in enumerate(tracer.layers)}
    dur = cols["end"] - cols["start"]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    idx = {name: np.nonzero(cols["layer"] == i)[0] for name, i in layer_ids.items()}
    empty = np.zeros(0, dtype=np.int64)

    def sel(name):
        return idx.get(name, empty)

    def is_layer(name):
        return cols["layer"] == layer_ids.get(name, -1)

    green_below = descendant_totals(cols["parent"], np.where(is_layer("kernels.green_from_psi"), cols["evals"], 0))
    strip_below = descendant_totals(cols["parent"], is_layer("quadrature.strip_mass").astype(float))
    cells_below = descendant_totals(cols["parent"], is_layer("quadrature.box_green_mass").astype(float))

    def calls(name):
        return int(len(sel(name)))

    def evals(name):
        return int(np.sum(cols["evals"][sel(name)]))

    def self_s(name):
        return float(np.sum(own[sel(name)]))

    def total_s(name):
        return float(np.sum(dur[sel(name)]))

    def pct_ms(name, q):
        d = dur[sel(name)]
        return float(np.percentile(d, q) * 1e3) if len(d) else 0.0

    def per_call(name, below):
        n = calls(name)
        return float(np.sum(below[sel(name)]) / n) if n else 0.0

    core = "core.incomplete_kernel_integral"
    core_self = self_s(core)
    diag_cells = int(np.sum(cells_below[sel("solver.picard.build_diagonal")]))
    out = {
        f"{core}.calls": calls(core),
        f"{core}.evals": evals(core),
        f"{core}.self_s": core_self,
        f"{core}.evals_per_s": evals(core) / core_self if core_self > 0 else 0.0,
        "kernels.green_from_psi.calls": calls("kernels.green_from_psi"),
        "kernels.green_from_psi.evals": evals("kernels.green_from_psi"),
        "kernels.green_from_psi.self_s": self_s("kernels.green_from_psi"),
        "kernels.green_halfspace.evals": evals("kernels.green_halfspace"),
        "kernels.green_halfspace.self_s": self_s("kernels.green_halfspace"),
        "kernels.h_function_partials.calls": calls("kernels.h_function_partials"),
        "kernels.h_function_partials.self_s": self_s("kernels.h_function_partials"),
    }
    for name in ("quadrature.ball_green_integral", "quadrature.exterior_poisson_integral",
                 "quadrature.box_green_mass"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.p50_ms"] = pct_ms(name, 50)
        out[f"{name}.p90_ms"] = pct_ms(name, 90)
    out["quadrature.ball_green_integral.evals_per_call"] = per_call("quadrature.ball_green_integral", green_below)
    out["quadrature.box_green_mass.evals_per_call"] = per_call("quadrature.box_green_mass", green_below)
    out["quadrature.exterior_poisson_integral.raised"] = int(
        np.sum(cols["raised"][sel("quadrature.exterior_poisson_integral")])
    )
    out["quadrature.strip_mass.calls"] = calls("quadrature.strip_mass")
    out["quadrature.strip_mass.self_s"] = self_s("quadrature.strip_mass")
    out["quadrature.strip_mass.p50_ms"] = pct_ms("quadrature.strip_mass", 50)
    out["solver.solve_ball_dirichlet.s"] = total_s("solver.solve_ball_dirichlet")
    out["solver.picard.build_matrix_s"] = total_s("solver.picard.build_matrix")
    out["solver.picard.build_diagonal_s"] = total_s("solver.picard.build_diagonal")
    out["solver.picard.diag_cells_computed"] = diag_cells
    out["solver.picard.diag_hit_ratio"] = 1.0 - diag_cells / nodes if nodes else 0.0
    out["solver.picard.apply_ms"] = pct_ms("solver.picard.apply", 50)
    out["solver.lambda0_estimate.s"] = total_s("solver.lambda0_estimate")
    out["solver.lambda0_estimate.strip_mass_calls"] = int(
        np.sum(strip_below[sel("solver.lambda0_estimate")])
    )
    out["solver.moving_plane_check.s"] = total_s("solver.moving_plane_check")
    return out
