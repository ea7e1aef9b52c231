"""The three benchmark workloads.

Each workload has four stages, of which only ``run`` is timed:

* ``make_inputs(lib, seed)`` builds every input from the seed;
* ``run(lib, inputs, lap)`` calls the library, one closed-loop caller, and
  returns its raw outputs; it calls ``lap()`` between library calls, where
  the harness may pause the clock to probe host speed;
* ``measure(lib, inputs, outputs)`` reduces the outputs to plain numbers and
  computes the independent references;
* ``score(inputs, facts)`` is pure: it counts attempted and failed
  operations and the worst relative error against the references.

Library calls go through module attributes (``lib.solver.X``) so that the
tracer's wrappers see them.  ``lib`` is the imported ``fraclap`` package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import references as ref
from .hostspeed import no_lap

#: relative error below which a checked value counts as exact; caps min_digits at 17
REL_ERR_FLOOR = 1e-17
#: stands in for a non-finite relative error, so min_digits stays a finite number
REL_ERR_CAP = 1e300
#: failure descriptions kept for the report
MAX_LISTED = 12


@dataclass
class Score:
    """Operation accounting for one pass of a workload.

    ``failed`` counts operations that raised, reported their own error
    (``ToleranceNotMet``, ``node_errors``), broke a property the paper
    proves (a sign, a verdict, a monotone decrease) or missed their
    reference.  ``unreported`` counts the subset of results the library
    returned as valid that miss their independent reference, or that
    could not be checked at all: a run with any is not correct.  An
    unchecked result is scored with an infinite relative error, so it
    also lowers ``min_digits``.
    """

    attempted: int = 0
    failed: int = 0
    unreported: int = 0
    worst_rel_err: float = 0.0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, label: str, rel_err: float | None = None, unreported: bool = False):
        self.attempted += 1
        if rel_err is not None:
            self.worst_rel_err = max(self.worst_rel_err, rel_err if math.isfinite(rel_err) else REL_ERR_CAP)
        if unreported:
            self.unreported += 1
        if not ok or unreported:
            self.failed += 1
            if len(self.failures) < MAX_LISTED:
                self.failures.append(label)

    @property
    def correct(self) -> bool:
        return self.unreported == 0

    @property
    def min_digits(self) -> float:
        return -math.log10(max(self.worst_rel_err, REL_ERR_FLOOR))


def worst(errors):
    """Largest relative error, counting NaN as infinitely wrong."""
    return max((e if math.isfinite(e) else math.inf for e in errors), default=0.0)


def attempt(fn, *args, **kwargs):
    """Call ``fn``; return (value, None) or (the error's estimate or None, error name).

    An operation fails if it raises; integrators raise ``ToleranceNotMet``
    carrying their best estimate, which still counts towards min_digits.
    """
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
        return getattr(exc, "estimate", None), type(exc).__name__


# ---------------------------------------------------------------------------
# ball-dirichlet


class BallDirichlet:
    """Green-Poisson solves in the unit ball with f = g = 1 and near-sphere points.

    Loads the per-direction polar-ray integrators (``exterior_poisson_integral``,
    ``ball_green_integral``) through ``solve_ball_dirichlet`` and directly;
    bypasses ``PicardOperator`` and ``strip_mass``.
    """

    name = "ball-dirichlet"
    rel_tol = 1e-7
    radii = (0.9, 0.97, 0.99)

    def make_inputs(self, lib, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        direction2 = np.array([math.cos(theta), math.sin(theta)])
        v = rng.normal(size=3)
        direction3 = v / np.linalg.norm(v)
        axis2 = np.array([1.0, 0.0])
        grids = [
            (2, 0.5, (np.linspace(-0.9, 0.9, 11),) * 2),
            (1, 0.5, (np.linspace(-0.95, 0.95, 41),)),
            (1, 0.75, (np.linspace(-0.95, 0.95, 41),)),
        ]
        # the axis points keep the known x = (0.99, 0) ToleranceNotMet in view;
        # the seeded direction alone can miss it
        points = [
            (2, s, r * d) for s in (0.25, 0.5, 0.75) for r in self.radii for d in (axis2, direction2)
        ]
        points += [(3, 0.5, np.zeros(3)), (3, 0.5, np.array([0.5, 0.0, 0.0])), (3, 0.5, 0.5 * direction3)]
        return {"grids": grids, "points": points}

    def run(self, lib, inputs, lap=no_lap):
        solver, quad = lib.solver, lib.quadrature
        one = quad.constant_field(1.0)
        spec = quad.QuadratureSpec(rel_tol=self.rel_tol, abs_tol=1e-10)
        grids = []
        for N, s, axes in inputs["grids"]:
            node_errors = {}
            gf, err = attempt(
                solver.solve_ball_dirichlet, lib.FracParams(N, s), 1.0, one, one, axes, spec,
                node_errors=node_errors,
            )
            grids.append((None if gf is None else gf.values, node_errors, err))
            lap()
        points = []
        for N, s, x in inputs["points"]:
            params = lib.FracParams(N, s)
            points.append((
                attempt(quad.exterior_poisson_integral, params, 1.0, one, x, spec),
                attempt(quad.ball_green_integral, params, 1.0, one, x, spec),
            ))
            lap()
        return {"grids": grids, "points": points}

    def measure(self, lib, inputs, outputs):
        return outputs

    def score(self, inputs, facts):
        sc = Score()
        for (N, s, axes), (values, node_errors, err) in zip(inputs["grids"], facts["grids"]):
            shape = tuple(len(a) for a in axes)
            flagged = {int(np.ravel_multi_index(tuple(int(k) for k in key), shape)) for key in node_errors}
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            for i, x in enumerate(pts):
                r2 = float(np.dot(x, x))
                if r2 >= 1.0:
                    continue  # exterior nodes copy g; they are not solved
                label = f"grid N={N} s={s:g} x={np.round(x, 4).tolist()}"
                if values is None:
                    sc.add(False, f"{label}: solve raised {err}", math.inf, unreported=True)
                    continue
                rel = ref.relative_error(values.reshape(-1)[i], ref.ball_solution(N, s, r2))
                reported = i in flagged
                ok = not reported and rel <= self.rel_tol
                sc.add(ok, f"{label}: " + ("node_errors" if reported else f"rel {rel:.2e}"), rel,
                       unreported=not reported and not rel <= self.rel_tol)
        for (N, s, x), ((ext, ext_err), (green, green_err)) in zip(inputs["points"], facts["points"]):
            label = f"point N={N} s={s:g} x={np.round(x, 4).tolist()}"
            if ext is None or green is None:
                sc.add(False, f"{label}: raised {ext_err or green_err} without estimate", math.inf,
                       unreported=True)
                continue
            rel = ref.relative_error(ext + green, ref.ball_solution(N, s, float(np.dot(x, x))))
            reported = ext_err or green_err
            ok = reported is None and rel <= self.rel_tol
            sc.add(ok, f"{label}: {reported or f'rel {rel:.2e}'}", rel,
                   unreported=reported is None and not rel <= self.rel_tol)
        return sc

    def layer_facts(self, facts):
        return {"solver.solve_ball_dirichlet.node_errors": sum(len(g[1]) for g in facts["grids"])}


# ---------------------------------------------------------------------------
# halfspace-picard


class HalfspacePicard:
    """The half-space Picard operator at (N, s) = (2, 0.5) and its semilinear solves.

    Loads ``PicardOperator`` (dense matrix, ``box_green_mass`` self-cells,
    ``apply``), ``picard_semilinear``, ``monotonicity_profile`` and
    ``moving_plane_check``; bypasses the ball integrators.
    """

    name = "halfspace-picard"
    powers = (None, 1.5, 2.0, 3.0)  # None is the zero nonlinearity
    u0_level = 0.01
    plane_levels = 10
    row_sum_tol = 0.1
    slope_tol = -1e-6

    def make_inputs(self, lib, seed):
        params = lib.FracParams(2, 0.5)
        axes = lib.verify.default_halfspace_axes(params)
        rng = np.random.default_rng(seed)
        n_lateral = len(axes[1])
        # the row-sum error is largest in the rows nearest x1 = 0 and next to the
        # lateral edges: probe those nodes always, plus one seeded node per x1 row
        fixed = [i * n_lateral + j for i in (0, 1, 2) for j in (0, 1, n_lateral // 2)]
        seeded = [i * n_lateral + int(rng.integers(n_lateral)) for i in range(len(axes[0]))]
        ref_nodes = fixed + seeded
        lams = np.linspace(0.2, 0.8, self.plane_levels) * (axes[0][-1] / 2.0)
        return {"N": 2, "s": 0.5, "axes": axes, "ref_nodes": ref_nodes, "lams": lams}

    def run(self, lib, inputs, lap=no_lap):
        solver = lib.solver
        params = lib.FracParams(inputs["N"], inputs["s"])
        axes = inputs["axes"]
        shape = tuple(len(a) for a in axes)
        op, op_err = attempt(solver.PicardOperator, params, axes)
        lap()
        solves = []
        for q in self.powers:
            if op is None:
                solves.append({"error": op_err})
                continue
            nl = solver.Nonlinearity.zero() if q is None else solver.Nonlinearity.power(q)
            u0 = solver.GridFunction(domain=lib.kernels.HalfSpace(), axes=axes,
                                     values=np.full(shape, self.u0_level))
            res, err = attempt(solver.picard_semilinear, params, nl, u0, operator=op)
            if err:
                solves.append({"error": err})
                continue
            gf, rep = res
            prof = solver.monotonicity_profile(gf)
            planes = [len(solver.moving_plane_check(gf, float(lam)).violations) for lam in inputs["lams"]]
            solves.append({"verdict": rep.verdict, "iterations": rep.iterations,
                           "min_slope": prof.min_slope, "plane_violations": planes})
            lap()
        return {"operator": op, "error": op_err, "solves": solves}

    def measure(self, lib, inputs, outputs):
        op = outputs["operator"]
        facts = {"solves": outputs["solves"], "error": outputs["error"]}
        if op is None:
            return facts
        lo, hi = op.box
        row_sums = op.mass_row_sums()
        params = lib.FracParams(inputs["N"], inputs["s"])
        nodes = inputs["ref_nodes"]
        facts.update(
            min_coefficient=float(min(op.matrix.min(), op.diag_mass.min())),
            row_sums=[float(row_sums[i]) for i in nodes],
            row_refs=[float(lib.quadrature.box_green_mass(params, op.nodes[i], lo, hi)) for i in nodes],
            nodes=len(op.nodes),
            matrix_mb=op.matrix.nbytes / 1e6,
        )
        return facts

    def score(self, inputs, facts):
        sc = Score()
        if facts.get("error"):
            sc.add(False, f"PicardOperator raised {facts['error']}", math.inf, unreported=True)
        else:
            rel = worst(ref.relative_error(v, r) for v, r in zip(facts["row_sums"], facts["row_refs"]))
            negative = facts["min_coefficient"] < 0.0
            sc.add(not negative and rel <= self.row_sum_tol,
                   f"operator: min coefficient {facts['min_coefficient']:.3e}, worst row sum rel {rel:.3e}",
                   rel, unreported=not rel <= self.row_sum_tol)
        for q, solve in zip(self.powers, facts["solves"]):
            name = "zero" if q is None else f"power({q:g})"
            if "error" in solve:
                for _ in range(2 + len(inputs["lams"])):
                    sc.add(False, f"{name}: raised {solve['error']}")
                continue
            sc.add(solve["verdict"] == "converged-to-zero", f"{name}: verdict {solve['verdict']}")
            sc.add(solve["min_slope"] >= self.slope_tol, f"{name}: min slope {solve['min_slope']:.3e}")
            for lam, viol in zip(inputs["lams"], solve["plane_violations"]):
                sc.add(viol == 0, f"{name}: {viol} moving-plane violations at lambda={lam:.3f}")
        return sc

    def layer_facts(self, facts):
        return {
            "solver.picard.iterations": sum(s.get("iterations", 0) for s in facts["solves"]),
            "solver.picard.matrix_mb": facts.get("matrix_mb", 0.0),
        }


# ---------------------------------------------------------------------------
# kernel-batch


class KernelBatch:
    """Large vectorised kernel batches and the already-batched ``strip_mass``.

    Loads ``green_halfspace`` and ``incomplete_kernel_integral`` on 2^20 pairs
    per regime, ``h_function_partials``, ``strip_mass`` and
    ``lambda0_estimate``; bypasses the per-ray integrator loops.
    """

    name = "kernel-batch"
    regimes = ((1, 0.5), (1, 0.75), (2, 0.5), (3, 0.25), (3, 0.75))
    h_regimes = ((1, 0.5), (2, 0.5), (3, 0.25), (3, 0.75))
    pairs = 2**20
    chunk = 2**16
    h_grid = 30
    strip_levels = 8
    samples = (96, 16, 16)  # uniform, largest psi, smallest psi
    kernel_tol = 1e-10
    lambda0_target = 0.9
    lambda0_slack = 1e-3

    def make_inputs(self, lib, seed):
        rng = np.random.default_rng(seed)
        batches = []
        n_uniform, n_large, n_small = self.samples
        for N, s in self.regimes:
            x = rng.uniform(-2.0, 2.0, (self.pairs, N))
            y = rng.uniform(-2.0, 2.0, (self.pairs, N))
            x[:, 0] = rng.uniform(0.0, 2.0, self.pairs)
            y[:, 0] = rng.uniform(0.0, 2.0, self.pairs)
            for z in (x, y):  # a draw of exactly 0 lies on the boundary; move it inside
                z[z[:, 0] == 0.0, 0] = 1.0
            # in blocks, so that input generation peaks below the timed region
            psi = np.empty(self.pairs)
            for a in range(0, self.pairs, self.chunk):
                xs, ys = x[a:a + self.chunk], y[a:a + self.chunk]
                psi[a:a + self.chunk] = 4.0 * xs[:, 0] * ys[:, 0] / np.sum((xs - ys) ** 2, axis=-1)
            by_psi = np.argpartition(psi, (n_small - 1, self.pairs - n_large))
            picked = np.concatenate([rng.choice(self.pairs, n_uniform, replace=False),
                                     by_psi[-n_large:], by_psi[:n_small]])
            batches.append({"N": N, "s": s, "x": x, "y": y, "sample": np.unique(picked)})
        rr = np.logspace(-2.0, 2.0, self.h_grid)
        lams = [2.0 ** (-k) for k in range(self.strip_levels)]
        return {"batches": batches, "h_r": rr, "h_t": rr.copy(), "lams": lams,
                "fracs": np.linspace(0.05, 0.95, 8), "lambda0_samples": 8}

    def run(self, lib, inputs, lap=no_lap):
        kernels, quad, solver = lib.kernels, lib.quadrature, lib.solver
        greens = []
        for b in inputs["batches"]:
            greens.append(attempt(kernels.green_halfspace, lib.FracParams(b["N"], b["s"]), b["x"], b["y"]))
            lap()
        partials = []
        for N, s in self.h_regimes:
            params = lib.FracParams(N, s)
            arr = np.full((len(inputs["h_r"]), len(inputs["h_t"]), 3), np.nan)
            for i, r in enumerate(inputs["h_r"]):
                for j, t in enumerate(inputs["h_t"]):
                    d, err = attempt(kernels.h_function_partials, params, float(r), float(t))
                    if err is None:
                        arr[i, j] = (d.d_r, d.d_t, d.d_rt)
            partials.append(arr)
            lap()
        p2 = lib.FracParams(2, 0.5)
        spec = quad.QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
        sups = []
        for lam in inputs["lams"]:
            masses = [attempt(quad.strip_mass, p2, lam, np.array([a * lam, 0.0]), spec)
                      for a in inputs["fracs"]]
            sups.append(None if any(e for _, e in masses) else max(m for m, _ in masses))
            lap()
        lam0 = attempt(solver.lambda0_estimate, p2, 1.0, n_samples=inputs["lambda0_samples"])
        lap()
        return {"greens": greens, "partials": partials, "strip_sups": sups, "lambda0": lam0}

    def measure(self, lib, inputs, outputs):
        kernels = lib.kernels
        batches = []
        for b, (g, err) in zip(inputs["batches"], outputs["greens"]):
            N, s, x, y, idx = b["N"], b["s"], b["x"], b["y"], b["sample"]
            if err is not None:
                batches.append({"error": err})
                continue
            params = lib.FracParams(N, s)
            swapped, swap_err = attempt(kernels.green_halfspace, params, y, x)
            d2 = np.sum((x[idx] - y[idx]) ** 2, axis=-1)
            psi = 4.0 * x[idx, 0] * y[idx, 0] / d2
            lib_i = lib.core.incomplete_kernel_integral(params, psi)
            rel_g = [ref.relative_error(g[i], ref.green_halfspace(N, s, x[i], y[i])) for i in idx]
            rel_i = [ref.relative_error(v, ref.kernel_integral(N, s, t)) for v, t in zip(lib_i, psi)]
            batches.append({"symmetric": swap_err is None and bool(np.array_equal(g, swapped)),
                            "rel_errors": rel_g + rel_i})
        lam0, lam0_err = outputs["lambda0"]
        lam0_sup = None
        if lam0_err is None:
            p2 = lib.FracParams(2, 0.5)
            xs = lib.solver._vdc_sequence(inputs["lambda0_samples"]) * lam0
            lam0_sup = max(lib.quadrature.strip_mass(p2, 2.0 * lam0, np.array([x1, 0.0])) for x1 in xs)
        return {"batches": batches, "partials": outputs["partials"],
                "strip_sups": outputs["strip_sups"], "lambda0": lam0, "lambda0_sup": lam0_sup}

    def score(self, inputs, facts):
        sc = Score()
        for (N, s), b in zip(self.regimes, facts["batches"]):
            label = f"green_halfspace N={N} s={s:g}"
            if "error" in b:
                # a raised batch leaves every kernel value unchecked
                sc.add(False, f"{label}: raised {b['error']}", math.inf, unreported=True)
                continue
            rel = worst(b["rel_errors"])
            sc.add(b["symmetric"] and rel <= self.kernel_tol,
                   f"{label}: symmetric={b['symmetric']}, worst rel {rel:.2e}",
                   rel, unreported=not rel <= self.kernel_tol)
        # one operation per regime grid, so that one broken regime moves pass_frac
        # as much as one broken kernel batch; the point count is a per-layer metric
        for (N, s), arr in zip(self.h_regimes, facts["partials"]):
            bad = np.argwhere(~sign_pattern(arr))
            first = ", ".join(f"r={inputs['h_r'][i]:.3g} t={inputs['h_t'][j]:.3g}" for i, j in bad[:3])
            sc.add(len(bad) == 0, f"h partial signs N={N} s={s:g}: {len(bad)} of {arr[..., 0].size} "
                                  f"grid points miss d_r<0, d_t>0, d_rt<0 (first: {first})")
        prev = math.inf
        for lam, sup in zip(inputs["lams"], facts["strip_sups"]):
            ok = sup is not None and 0.0 < sup < prev
            sc.add(ok, f"strip mass sup at lambda={lam:g}: {sup}")
            prev = sup if sup is not None else prev
        sup = facts["lambda0_sup"]
        sc.add(sup is not None and sup <= self.lambda0_target + self.lambda0_slack,
               f"lambda0={facts['lambda0']}: sup strip_mass(2 lambda0) = {sup}")
        return sc

    def layer_facts(self, facts):
        return {"kernels.h_function_partials.sign_violations": sign_violations(facts["partials"])}


def sign_pattern(arr):
    """Where the partials (d_r, d_t, d_rt) in the last axis have d_r < 0, d_t > 0, d_rt < 0."""
    return (arr[..., 0] < 0.0) & (arr[..., 1] > 0.0) & (arr[..., 2] < 0.0)


def sign_violations(partials):
    """Grid points whose partials miss the pattern d_r < 0, d_t > 0, d_rt < 0."""
    return sum(int(np.sum(~sign_pattern(arr))) for arr in partials)


#: per-layer metrics the workloads count themselves; zero where a workload has none
LAYER_FACTS = ("solver.solve_ball_dirichlet.node_errors", "kernels.h_function_partials.sign_violations",
               "solver.picard.iterations", "solver.picard.matrix_mb")

WORKLOADS = {w.name: w for w in (BallDirichlet(), HalfspacePicard(), KernelBatch())}
