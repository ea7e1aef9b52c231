"""One runnable check per quantitative kernel statement, each returning a
structured Report keyed by a stable check id.

Checks own their randomness (seeded from the top-level seed and the check
id), record measured quantities next to the tolerances that judge them,
and where an inequality is tested a synthetic violation (negative control)
must be detected for the check to pass.
"""
from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FracParams,
    critical_exponents,
    dimension_reduction_ratio,
    green_constant_k,
    normalization_a,
)
from .kernels import (
    HalfSpace,
    green_halfspace,
    green_shifted_ball,
    h_function_partials,
    regularized_poisson,
    shifted_center,
)
from .quadrature import (
    QuadratureSpec,
    ScalarField,
    _adaptive_panels,
    _checked,
    _graded_edges,
    _sphere_rule,
    ball_green_integral,
    constant_field,
    exterior_poisson_integral,
    frac_laplacian_point,
    poisson_extension_field,
    sphere_surface,
    strip_mass,
)
from .solver import (
    GridFunction,
    Nonlinearity,
    PicardOperator,
    monotonicity_profile,
    moving_plane_check,
    picard_semilinear,
)

__all__ = ["Report", "CHECK_IDS", "run_check", "run_all", "rng_for"]


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


@dataclass
class Report:
    check_id: str
    params: dict
    samples: int
    passed: bool
    measured: dict
    tolerance: dict
    seed: int
    wall_time: float = 0.0  # stamped by run_check
    window: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"check_id: {self.check_id}",
            f"pass: {_fmt(self.passed)}",
            f"samples: {self.samples}",
            f"seed: {self.seed}",
        ]
        for name, group in (("param", self.params), ("measured", self.measured),
                            ("tolerance", self.tolerance), ("window", self.window)):
            for k in group:
                lines.append(f"{name}.{k}: {_fmt(group[k])}")
        lines.append(f"wall_time: {_fmt(self.wall_time)}")
        return "\n".join(lines) + "\n"

    def csv_rows(self):
        rows = [(self.check_id, "pass", "", _fmt(self.passed)),
                (self.check_id, "samples", "", _fmt(self.samples)),
                (self.check_id, "seed", "", _fmt(self.seed))]
        for kind, group in (("param", self.params), ("measured", self.measured),
                            ("tolerance", self.tolerance), ("window", self.window)):
            rows.extend((self.check_id, kind, k, _fmt(group[k])) for k in group)
        rows.append((self.check_id, "wall_time", "", _fmt(self.wall_time)))
        return rows

    def to_dict(self) -> dict:
        """The Report as one object of ``fraclap verify --format json``."""
        return {
            "check_id": self.check_id, "pass": self.passed, "samples": self.samples,
            "seed": self.seed, "params": self.params, "measured": self.measured,
            "tolerance": self.tolerance, "window": self.window, "wall_time": self.wall_time,
        }


def rng_for(seed: int, check_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(check_id.encode())])


def _loglog_slope(xs, ys):
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# individual checks


def check_poisson_normalization(seed=42):
    """Exterior integral of the ball Poisson kernel equals 1 for every x."""
    params_sweep = [FracParams(N, s) for N in (1, 2, 3) for s in (0.25, 0.5, 0.75)]
    rng = rng_for(seed, "poisson-normalization")
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
    worst = 0.0
    total = 0
    for params in params_sweep:
        xs = [np.zeros(params.N)]
        for _ in range(10):  # 12 points: the origin, 10 random, one at |x| = 0.99
            v = rng.normal(size=params.N)
            v *= rng.uniform(0.0, 0.95) / np.linalg.norm(v)
            xs.append(v)
        edge = np.zeros(params.N)
        edge[0] = 0.99
        xs.append(edge)
        for x in xs:
            val = exterior_poisson_integral(params, 1.0, constant_field(1.0), x, spec)
            worst = max(worst, abs(val - 1.0))
            total += 1
    return Report(
        check_id="poisson-normalization",
        params={"sweep": "N in {1,2,3} x s in {0.25,0.5,0.75}", "radius": 1.0},
        samples=total,
        passed=worst <= 1e-6,
        measured={"max_abs_error": worst},
        tolerance={"max_abs_error": 1e-6},
        seed=seed,
    )


def check_green_limit(seed=42):
    """Shifted-ball Green functions increase to the half-space kernel."""
    params, k_max, n_pairs = FracParams(2, 0.5), 20, 10
    rng = rng_for(seed, "green-limit")
    r0 = 2.0
    center = shifted_center(params.N, r0)
    worst_gap = 0.0
    min_step = np.inf
    psi_gap = 0.0
    for _ in range(n_pairs):
        x = center + rng.uniform(-0.6, 0.6, params.N)
        y = center + rng.uniform(-0.6, 0.6, params.N)
        seq = np.array(
            [green_shifted_ball(params, r0 * 2.0**k, x, y) for k in range(k_max + 1)]
        )
        limit = green_halfspace(params, x, y)
        min_step = min(min_step, float(np.min(np.diff(seq))))
        worst_gap = max(worst_gap, abs(limit - seq[-1]))
        # psi agreement for points at equal height and a huge radius
        xe = x.copy()
        ye = y.copy()
        ye[0] = xe[0]
        r_huge = 1e12
        x2 = np.dot(xe, xe)
        y2 = np.dot(ye, ye)
        d2 = np.dot(xe - ye, xe - ye)
        if d2 > 0:
            psi_r = (2 * xe[0] - x2 / r_huge) * (2 * ye[0] - y2 / r_huge) / d2
            psi_inf = 4.0 * xe[0] * ye[0] / d2
            psi_gap = max(psi_gap, abs(psi_r - psi_inf) / (1.0 + psi_inf))
    passed = (min_step >= -1e-15) and (worst_gap < 1e-6) and (psi_gap < 1e-9)
    return Report(
        check_id="green-limit",
        params={"N": params.N, "s": params.s, "R0": r0, "k_max": k_max},
        samples=n_pairs,
        passed=passed,
        measured={"min_monotone_step": min_step, "final_gap": worst_gap, "psi_gap": psi_gap},
        tolerance={"min_monotone_step": -1e-15, "final_gap": 1e-6, "psi_gap": 1e-9},
        seed=seed,
    )


def _reflection_samples(params, rng, n):
    N = params.N
    lam = rng.uniform(0.1, 5.0, n)
    x = rng.uniform(-1.0, 1.0, (n, N))
    y = rng.uniform(-1.0, 1.0, (n, N))
    x[:, 0] = rng.uniform(0.0, 1.0, n) * lam
    y[:, 0] = rng.uniform(0.0, 1.0, n) * lam
    return lam, x, y


def check_reflection_inequalities(seed=42):
    """Strict kernel comparisons across the plane x1 = lambda."""
    sweep = [FracParams(1, 0.5), FracParams(2, 0.5), FracParams(3, 0.25), FracParams(3, 0.75)]
    pair_samples = 10_000
    rng = rng_for(seed, "reflection-inequalities")
    margin = 1e-14
    violations = 0
    control_hits = 0
    total = 0
    worst_margin = np.inf
    for params in sweep:
        lam, x, y = _reflection_samples(params, rng, pair_samples)
        xl = x.copy()
        xl[:, 0] = 2.0 * lam - x[:, 0]
        yl = y.copy()
        yl[:, 0] = 2.0 * lam - y[:, 0]
        keep = (np.sum((x - y) ** 2, axis=-1) > 1e-16) & (
            np.sum((x - yl) ** 2, axis=-1) > 1e-16
        ) & (x[:, 0] > 0) & (y[:, 0] > 0)
        g_ll = green_halfspace(params, xl[keep], yl[keep])
        g_xl = green_halfspace(params, x[keep], yl[keep])
        g_lx = green_halfspace(params, xl[keep], y[keep])
        g_xx = green_halfspace(params, x[keep], y[keep])
        m1 = g_ll - g_xl
        m2 = (g_ll - g_xx) - (g_xl - g_lx)
        violations += int(np.sum(m1 <= margin) + np.sum(m2 <= margin))
        worst_margin = min(worst_margin, float(np.min(m1)), float(np.min(m2)))
        total += int(np.sum(keep))
        # far-region inequality on fresh samples
        lam2 = rng.uniform(0.1, 2.0, pair_samples // 2)
        xf = rng.uniform(-1.0, 1.0, (pair_samples // 2, params.N))
        yf = rng.uniform(-1.0, 1.0, (pair_samples // 2, params.N))
        xf[:, 0] = rng.uniform(0.02, 0.98, pair_samples // 2) * lam2
        yf[:, 0] = 2.0 * lam2 + rng.uniform(0.0, 3.0, pair_samples // 2)
        xfl = xf.copy()
        xfl[:, 0] = 2.0 * lam2 - xf[:, 0]
        m3 = green_halfspace(params, xfl, yf) - green_halfspace(params, xf, yf)
        violations += int(np.sum(m3 <= margin))
        worst_margin = min(worst_margin, float(np.min(m3)))
        total += len(m3)
        # negative control: the reversed first inequality must be violated
        # somewhere (it is violated everywhere, the kernels being strict)
        control_hits += int(np.all(g_xl - g_ll > margin))
    passed = violations == 0 and control_hits == 0
    return Report(
        check_id="reflection-inequalities",
        params={"sweep": "(1,0.5) (2,0.5) (3,0.25) (3,0.75)"},
        samples=total,
        passed=passed,
        measured={
            "violations": float(violations),
            "worst_margin": worst_margin,
            "control_missed": float(control_hits),
        },
        tolerance={"violations": 0.0, "margin": 1e-14},
        seed=seed,
    )


def check_h_monotonicity(seed=42):
    """Signs of the H(r,t) partials on a log grid."""
    sweep = [FracParams(1, 0.5), FracParams(2, 0.5), FracParams(3, 0.25), FracParams(3, 0.75)]
    grid_size = 30
    rr = np.logspace(-2, 2, grid_size)
    tt = np.logspace(-2, 2, grid_size)
    bad = 0
    total = 0
    for params in sweep:
        for r in rr:
            for t in tt:
                d = h_function_partials(params, float(r), float(t))
                total += 1
                if not (d.d_r < 0.0 and d.d_t > 0.0 and d.d_rt < 0.0):
                    bad += 1
    # negative control: the flipped claim d_t < 0 must fail on the grid
    d = h_function_partials(sweep[0], 1.0, 1.0)
    control_detects = d.d_t >= 0.0
    passed = bad == 0 and control_detects
    return Report(
        check_id="h-monotonicity",
        params={"grid": f"{grid_size}x{grid_size} log in [1e-2,1e2]^2"},
        samples=total,
        passed=passed,
        measured={"sign_violations": float(bad)},
        tolerance={"sign_violations": 0.0},
        seed=seed,
    )


def _boundary_slope(params, d_values):
    spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    one = constant_field(1.0)
    us = []
    for d in d_values:
        x = np.zeros(params.N)
        x[0] = 1.0 - d
        us.append(ball_green_integral(params, 1.0, one, x, spec))
    return _loglog_slope(d_values, us), us


def check_boundary_estimate(seed=42):
    """Fitted decay exponent of ball solutions near the sphere."""
    sweep = [FracParams(2, 0.3), FracParams(2, 0.5), FracParams(1, 0.5), FracParams(1, 0.75)]
    d_values = np.logspace(-3, -1, 9)
    measured = {}
    passed = True
    samples = 0
    for params in sweep:
        slope, us = _boundary_slope(params, d_values)
        samples += len(us)
        tag = f"slope_N{params.N}_s{params.s:g}"
        measured[tag] = slope
        threshold = (params.s - 0.5 - 0.05) if (params.N == 1 and params.s > 0.5) else (
            params.s - 0.05
        )
        if slope < threshold:
            passed = False
        # negative control: an impossibly steep requirement must fail
        if slope >= params.s + 0.45:
            passed = False
    return Report(
        check_id="boundary-estimate",
        params={"family": "f == 1", "window": "1-|x| in [1e-3, 1e-1]"},
        samples=samples,
        passed=passed,
        measured=measured,
        tolerance={"slope_min": "s-0.05 (2s<=N), s-0.55 (N=1<2s)"},
        seed=seed,
        window={"d_min": 1e-3, "d_max": 1e-1, "points": len(d_values)},
    )


def decay_integral(params: FracParams, x1: float, spec: QuadratureSpec | None = None):
    """T(x1) = int over {y1 > 0, |y - e1| > 1} of |y - x|^(-N) q^(-s) dy, where
    q = |y - e1|^2 - 1 = |y|^2 - 2 y1 and x = x1 e1, for N = 1, 2, 3.

    On the sphere |y - e1| = r = sqrt(1 + q), |y - x|^2 = q + x1^2 + 2(1 - x1) y1
    is linear in y1, and the part of that sphere in the half-space is the cap
    0 < y1 < 1 + r.  So T = c_N int_0^inf q^(-s) K_N(q) dq with c_1 = 1/2,
    c_N = |S^(N-2)|/2 otherwise, and the cap's y1-integral K_N in closed form
    (a = q + x1^2, t = 1 + r - x1, b = 2(1 - x1)):

    * K_1 = 1 / (r t);
    * K_3 = 2(1 + r) / (sqrt(a) t (sqrt(a) + t));
    * K_2 = (2/D) atan2(D (t^2 rho - n), D^2 rho + t^2 n), with
      t^2 = a + b(1 + r), D = q + x1(2 - x1), rho = r + sqrt(q) and
      n = q(b - 1) + b r sqrt(q) - x1^2.

    These forms avoid cancellation, which costs the plain arctan difference
    of K_2 a few digits.  The q-integral runs over tau = 1 - 1/r in [0, 1), where
    q = tau(2 - tau)/(1 - tau)^2 and dq = 2(1 - tau)^(-3) dtau, on one
    ``_adaptive_panels`` call with the end weights tau^(-s) and
    (1 - tau)^(2s-1); its edges halve from 1/4 down to d^2/2, d = 1 - |1 - x1|
    being the distance from x to the sphere.  (Under 1 - 1/r^2 the cap's top
    1 + r would leave square roots at the far end.)  The error is enforced by
    ``_checked``.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    N, s = params.N, params.s
    if N not in (1, 2, 3):
        raise ValueError(f"decay integral needs N in (1, 2, 3), got {N}")
    if not 0.0 < x1 < 2.0:
        raise ValueError(f"decay integral needs x inside B_1(e1), got x1 = {x1}")
    c = 0.5 if N == 1 else 0.5 * sphere_surface(N - 1)

    def integrand(tau, _):
        u = 1.0 - tau
        r, q = 1.0 / u, tau * (2.0 - tau) / (u * u)
        t = 2.0 - x1 + tau / u  # 1 + r - x1 without cancellation near x1 = 2
        if N == 1:
            k = 1.0 / (r * t)
        elif N == 3:
            ra = np.sqrt(q + x1 * x1)
            k = 2.0 * (1.0 + r) / (ra * t * (ra + t))
        else:
            rq, b, t2 = np.sqrt(q), 2.0 * (1.0 - x1), t * t
            D, rho = q + x1 * (2.0 - x1), r + rq
            n = q * (b - 1.0) + b * r * rq - x1 * x1
            k = 2.0 / D * np.arctan2(D * (t2 * rho - n), D * D * rho + t2 * n)
        return 2.0 * c * q ** (-s) * k / u**3

    d = 1.0 - abs(1.0 - x1)
    edges = _graded_edges(max(2, math.ceil(-math.log2(0.5 * d * d))), n_coarse=1)
    value, err = _adaptive_panels(integrand, edges, spec, ends=(-s, 2.0 * s - 1.0))
    return _checked(value[0], err[0], spec, "decay integral")


def check_decay_regimes(seed=42):
    """Boundary-layer rates of the exterior shifted-ball integral.

    T(x1) (``decay_integral``) integrates |y - x|^(-N) (|y - e1|^2 - 1)^(-s)
    over the half-space outside B_1(e1), the ball whose boundary touches
    y1 = 0 at the origin.  Each sphere |y - e1| = sqrt(1 + q) meets the
    half-space in a cap on which |y - x|^2 is linear in y1, so T is one
    integral in q of q^(-s) times the cap's closed-form y1-integral.  As
    x1 = 2^-j -> 0, T stays bounded for s < 1/2, grows like log(1/x1^2) for
    s = 1/2 and like x1^(1-2s) for s > 1/2: the last four points' log-log
    slope must be within 0.05 of 0 and of 1 - 2s, and T/log(1/x1^2) must
    drift by at most 10 % over the last three.
    """
    N, s_list = 2, (0.25, 0.5, 0.75)
    measured = {}
    passed = True
    samples = 0
    xs = 2.0 ** -np.arange(4.0, 17.0, 2.0)
    for s in s_list:
        params = FracParams(N, s)
        vals = np.array([decay_integral(params, float(x1)) for x1 in xs])
        samples += len(vals)
        if s < 0.5:
            slope = _loglog_slope(xs[-4:], vals[-4:])
            measured[f"slope_s{s:g}"] = slope
            if abs(slope) > 0.05:
                passed = False
        elif s > 0.5:
            slope = _loglog_slope(xs[-4:], vals[-4:])
            measured[f"slope_s{s:g}"] = slope
            if abs(slope - (1.0 - 2.0 * s)) > 0.05:
                passed = False
        else:
            ratios = vals / np.log(1.0 / xs**2)
            last = ratios[-3:]
            drift = float(np.max(last) / np.min(last) - 1.0)
            measured["log_ratio_drift_s0.5"] = drift
            if drift > 0.10:
                passed = False
    return Report(
        check_id="decay-regimes",
        params={"N": N, "s_list": str(s_list), "ladder": "x1 = 2^-j, j = 4..16"},
        samples=samples,
        passed=passed,
        measured=measured,
        tolerance={"slope_abs": 0.05, "log_ratio_drift": 0.10},
        seed=seed,
        window={"fit_points": 4},
    )


def check_strip_mass(seed=42):
    """Slab masses decrease with the slab width and sink below 1e-3 at 0.01.

    The decrease is a theorem; the 1e-3 threshold is asserted as stated
    even though the measured mass at lam = 0.01 is ~7.6e-3.  The check
    stays red for a known reason: the mass at x = a lam scales exactly as
    lam^(2s), and ``sup_ratio_0.01_to_1`` measures 0.01^(2s) to quadrature
    accuracy.  Under that law the asserted 1e-3 would need a sup below 0.1
    at lam = 1, where 0.76374 is measured (s = 1/2).
    """
    params = FracParams(2, 0.5)
    lams = [2.0 ** (-k) for k in range(0, 8)] + [0.01]  # the ladder, then lam = 0.01
    spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    fracs = np.linspace(0.05, 0.95, 8)
    sups = np.array([max(strip_mass(params, lam, np.array([a * lam, 0.0]), spec) for a in fracs)
                     for lam in lams])
    sups, sup_small = sups[:-1], float(sups[-1])
    decreasing = bool(np.all(np.diff(sups) < 0.0))
    positive = bool(np.all(sups > 0.0))
    passed = decreasing and positive and (sup_small < 1e-3)
    return Report(
        check_id="strip-mass",
        params={"N": params.N, "s": params.s, "ladder": "lam = 2^-k, k = 0..7"},
        samples=len(lams) * len(fracs),
        passed=passed,
        measured={
            "decreasing": float(decreasing),
            "sup_mass_at_0.01": sup_small,
            "sup_mass_at_1": float(sups[0]),
            "sup_ratio_0.01_to_1": sup_small / float(sups[0]),
        },
        tolerance={"sup_mass_at_0.01": 1e-3},
        seed=seed,
    )


def check_dimension_reduction(seed=42):
    """Beta closed form = ratio of singular-integral constants = quadrature."""
    from scipy import integrate as _integrate  # its only use; importing fraclap stays light

    worst = 0.0
    total = 0
    for N in range(2, 6):
        for s in np.arange(0.1, 0.95, 0.2):
            params = FracParams(N, float(s))
            beta_form = dimension_reduction_ratio(params)
            a_ratio = normalization_a(FracParams(N - 1, float(s))) / normalization_a(params)
            quad_val, _ = _integrate.quad(
                lambda lam: (1.0 + lam * lam) ** (-N / 2.0 - float(s)),
                -np.inf,
                np.inf,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            worst = max(
                worst,
                abs(beta_form / a_ratio - 1.0),
                abs(beta_form / quad_val - 1.0),
            )
            total += 1
    return Report(
        check_id="dimension-reduction",
        params={"sweep": "N in 2..5, s in 0.1..0.9 step 0.2"},
        samples=total,
        passed=worst <= 1e-10,
        measured={"max_rel_mismatch": worst},
        tolerance={"max_rel_mismatch": 1e-10},
        seed=seed,
    )


def meanvalue_convolution(params, u: ScalarField, x, eps: float):
    """(regularized kernel_eps * u)(x) for x in the eps-interior of the ball."""
    spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9)
    x = np.asarray(x, dtype=float)
    if 1.0 - float(np.linalg.norm(x)) <= eps:
        raise ValueError("x must lie in the eps-interior of the unit ball")
    N, s = params.N, params.s
    # radial profile of the regularized kernel, supported on m > 1/2
    m_far = 8.0
    while (
        regularized_poisson(params, 1.0, np.array([m_far] + [0.0] * (N - 1)))
        * m_far ** (N - 1)
        * m_far
        / (2.0 * s)
        > 0.1 * spec.abs_tol
        and m_far < 1e7
    ):
        m_far *= 2.0
    edges = np.unique(np.concatenate([
        np.linspace(0.5, 1.0, 9),
        np.logspace(0.0, math.log10(m_far), 24),
    ]))
    dirs, wts = _sphere_rule(N, 16, antipodal=False)

    def radial_integrand(m):
        m = np.asarray(m, dtype=float)
        gamma = regularized_poisson(
            params, 1.0, np.stack([m] + [np.zeros_like(m)] * (N - 1), axis=-1)
        )
        # u at every (m, direction) point in one call; the sum keeps the directions' order
        values = np.asarray(u(x - eps * m[:, None, None] * dirs), dtype=float)
        sphere_avg = np.zeros_like(m)
        for j, w in enumerate(wts):
            sphere_avg += w * values[:, j]
        return gamma * m ** (N - 1.0) * sphere_avg

    value, err = _adaptive_panels(lambda m, d: radial_integrand(m), edges, spec)
    return _checked(value[0], err[0], spec, "mean-value convolution")


def check_harmonicity_meanvalue(seed=42):
    """s-harmonic functions reproduce themselves under the regularized kernel."""
    params, eps_list, n_x = FracParams(1, 0.5), (0.2, 0.1, 0.05), 4
    rng = rng_for(seed, "harmonicity-meanvalue")
    g = ScalarField(
        func=lambda p: 1.0 / (1.0 + np.sum(p * p, axis=-1)),
        smoothness="C2",
        decay_exponent=2.0,
        bound=1.0,
    )
    u = poisson_extension_field(params, 1.0, g)
    per_eps = []
    for eps in eps_list:
        worst = 0.0
        for _ in range(n_x):
            v = rng.normal(size=params.N)
            radius = rng.uniform(0.0, 1.0 - eps - 0.05)
            x = v / np.linalg.norm(v) * radius
            conv = meanvalue_convolution(params, u, x, eps)
            direct = float(np.asarray(u(x)))
            worst = max(worst, abs(conv - direct))
        per_eps.append(worst)
    passed = max(per_eps) <= 1e-4
    measured = {f"max_error_eps{eps:g}": e for eps, e in zip(eps_list, per_eps)}
    return Report(
        check_id="harmonicity-meanvalue",
        params={"N": params.N, "s": params.s, "data": "1/(1+|y|^2)"},
        samples=len(eps_list) * n_x,
        passed=passed,
        measured=measured,
        tolerance={"max_error": 1e-4},
        seed=seed,
    )


def _kernel_bound_ratio(params, L, rng, n):
    """Largest G(x, y) / bound over n seeded pairs with x1, y1 in (0, L].

    G = (k/2) |x-y|^(2s-N) I(t) with t = 4 x1 y1 / |x-y|^2, and
    (1+z)^(-N/2) <= min(1, z^(-N/2)) bounds I(t) by t^s/s for t <= 1 and by
    1/s + int_1^t z^(s-1-N/2) dz (below t^s/s) beyond; by B(s, N/2-s) too
    when N > 2s.  The bound is tight as t -> 0, so the ratio nears 1 there.
    """
    from scipy import special as _spec
    N, s = params.N, params.s
    x = rng.uniform(-3.0, 3.0, (n, N))
    y = rng.uniform(-3.0, 3.0, (n, N))
    x[:, 0] = rng.uniform(1e-3, L, n)
    y[:, 0] = rng.uniform(1e-3, L, n)
    d2 = np.sum((x - y) ** 2, axis=-1)
    keep = d2 > 1e-18
    x, y, d2 = x[keep], y[keep], d2[keep]
    t = 4.0 * x[:, 0] * y[:, 0] / d2
    e = s - N / 2.0
    tail = np.log(t) if e == 0.0 else (t**e - 1.0) / e
    bound = np.where(t > 1.0, 1.0 / s + tail, t**s / s)
    if e < 0.0:
        bound = np.minimum(bound, _spec.beta(s, -e))
    g = green_halfspace(params, x, y)
    return float(np.max(g / (0.5 * green_constant_k(params) * d2**e * bound)))


def check_kernel_bounds(seed=42):
    """G stays below its explicit bound (``_kernel_bound_ratio``) on every sample.

    The bound is fixed before sampling, so a kernel too large anywhere on the
    samples fails.  Negative control: the bound scaled by 0.99 must fail
    somewhere, which shows the samples come within 1 % of it.
    """
    sweep = [FracParams(3, 0.5), FracParams(1, 0.75), FracParams(1, 0.5)]
    L, samples = 2.0, 10_000
    measured = {}
    worst, control_missed = 0.0, 0
    for params in sweep:
        rng = rng_for(seed, f"kernel-bounds-{params.N}-{params.s}")
        ratio = _kernel_bound_ratio(params, L, rng, samples)
        measured[f"max_ratio_N{params.N}_s{params.s:g}"] = ratio
        worst = max(worst, ratio)
        control_missed += int(not ratio > 0.99)
    measured["control_missed"] = float(control_missed)
    return Report(
        check_id="kernel-bounds",
        params={"L": L, "sweep": "(3,0.5) (1,0.75) (1,0.5)"},
        samples=len(sweep) * samples,
        passed=worst <= 1.0 and control_missed == 0,
        measured=measured,
        tolerance={"max_ratio": 1.0, "control_ratio": 0.99},
        seed=seed,
    )


def _bubble(n, s):
    """w = (1+|x|^2)^(-e), e = (n-2s)/2, on R^n; w <= 2^e (1+|x|)^(-2e)."""
    e = 0.5 * (n - 2.0 * s)
    return ScalarField(
        func=lambda y: (1.0 + np.sum(y * y, axis=-1)) ** (-e),
        smoothness="C2",
        decay_exponent=2.0 * e,
        bound=2.0**e,
    )


def check_critical_bubble(seed=42):
    """At the half-space exponent p = (N-1+2s)/(N-1-2s) the bubble of R^n,
    n = N-1, solves (-Delta)^s w = lam w^p with lam = 2^(2s)
    Gamma((n+2s)/2) / Gamma((n-2s)/2) (Chen, Li & Ou, CPAM 59, 2006; Lieb,
    Ann. Math. 118, 1983): the ratio (-Delta)^s w / w^p is lam at every |x|.
    Negative control: at p +/- 0.25 the ratio must vary with |x|.
    """
    from scipy import special as _spec
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
    radii = (0.0, 0.5, 1.0, 2.0)
    spread = dev = 0.0
    control = np.inf
    samples = 0
    for N in (2, 3, 4):
        for s in (0.25, 0.5, 0.75):
            p = critical_exponents(FracParams(N, s)).halfspace
            if p is None:  # N - 1 <= 2s
                continue
            n = N - 1
            w = _bubble(n, s)
            lap = np.array([frac_laplacian_point(FracParams(n, s), w, r * np.eye(n)[0], spec) for r in radii])
            wx = w(np.outer(radii, np.eye(n)[0]))
            lam = 4.0**s * _spec.gamma(0.5 * n + s) / _spec.gamma(0.5 * n - s)

            def ratio_spread(q):
                ratio = lap / wx**q
                return float(np.max(ratio) / np.min(ratio) - 1.0)

            spread = max(spread, ratio_spread(p))
            dev = max(dev, float(np.max(np.abs(lap / wx**p / lam - 1.0))))
            control = min(control, ratio_spread(p - 0.25), ratio_spread(p + 0.25))
            samples += len(radii)
    return Report(
        check_id="critical-bubble",
        params={"sweep": "N in {2,3,4} x s in {0.25,0.5,0.75}, N-1 > 2s", "radii": str(radii),
                "control": "p +/- 0.25"},
        samples=samples,
        passed=spread <= 1e-5 and dev <= 1e-5 and control >= 1e-2,
        measured={"max_ratio_spread": spread, "max_rel_dev_from_lambda": dev, "min_control_spread": control},
        tolerance={"max_ratio_spread": 1e-5, "max_rel_dev_from_lambda": 1e-5, "min_control_spread": 1e-2},
        seed=seed,
    )


_OPERATOR_CACHE = {}


def _cached_operator(params, axes):
    key = (params.N, params.s, tuple(tuple(map(float, a)) for a in axes))
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[key] = PicardOperator(params, axes)
    return _OPERATOR_CACHE[key]


def default_halfspace_axes(params: FracParams):
    if params.N == 2:
        n1, n2, L1, L2 = 40, 80, 4.0, 4.0
        ax1 = np.linspace(L1 / (2 * n1), L1 - L1 / (2 * n1), n1)
        ax2 = np.linspace(-L2 + L2 / n2, L2 - L2 / n2, n2)
        return (ax1, ax2)
    if params.N == 3:
        n1, n2, L1, L2 = 12, 16, 3.0, 3.0
        ax1 = np.linspace(L1 / (2 * n1), L1 - L1 / (2 * n1), n1)
        lat = np.linspace(-L2 + L2 / n2, L2 - L2 / n2, n2)
        return (ax1, lat, lat)
    n1 = 64
    ax1 = np.linspace(4.0 / (2 * n1), 4.0 - 4.0 / (2 * n1), n1)
    return (ax1,)


def experiment_liouville(seed=42):
    """Picard verdicts for subcritical powers collapse to zero."""
    runs = [(FracParams(2, 0.5), (1.5, 2.0, 3.0)), (FracParams(3, 0.5), (2.0,))]
    u0_level = 0.01
    measured = {}
    passed = True
    samples = 0
    for params, qs in runs:
        axes = default_halfspace_axes(params)
        op = _cached_operator(params, axes)
        shape = [len(a) for a in axes]
        ce = critical_exponents(params)
        for q in qs:
            u0 = GridFunction(
                domain=HalfSpace(), axes=axes, values=np.full(shape, u0_level)
            )
            _, rep = picard_semilinear(params, Nonlinearity.power(q), u0, operator=op)
            tag = f"verdict_N{params.N}_s{params.s:g}_q{q:g}"
            measured[tag] = rep.verdict
            measured[tag + "_iters"] = float(rep.iterations)
            samples += 1
            if ce.halfspace_subcritical(q) or ce.halfspace is None:
                if rep.verdict != "converged-to-zero":
                    passed = False
    return Report(
        check_id="liouville",
        params={"runs": "(2,0.5) q in {1.5,2,3}; (3,0.5) q = 2", "u0": u0_level},
        samples=samples,
        passed=passed,
        measured=measured,
        tolerance={"verdict": "converged-to-zero for subcritical q"},
        seed=seed,
    )


def experiment_monotonicity(seed=42):
    """Converged Picard iterates are nondecreasing in x1 and pass the
    moving-plane comparison; a synthetic non-monotone field must fail."""
    params, q, lam_grid = FracParams(2, 0.5), 2.0, 10
    axes = default_halfspace_axes(params)
    op = _cached_operator(params, axes)
    shape = [len(a) for a in axes]
    measured = {}
    passed = True
    for name, nl in (("zero", Nonlinearity.zero()), (f"power{q:g}", Nonlinearity.power(q))):
        u0 = GridFunction(domain=HalfSpace(), axes=axes, values=np.full(shape, 0.01))
        gf, rep = picard_semilinear(params, nl, u0, operator=op)
        prof = monotonicity_profile(gf)
        measured[f"min_slope_{name}"] = prof.min_slope
        measured[f"verdict_{name}"] = rep.verdict
        if rep.verdict.startswith("converged"):
            if prof.min_slope < -1e-6:
                passed = False
            lams = np.linspace(0.2, 0.8, lam_grid) * (axes[0][-1] / 2.0)
            viol = 0
            for lam in lams:
                if not moving_plane_check(gf, float(lam)).passed:
                    viol += 1
            measured[f"plane_violations_{name}"] = float(viol)
            if viol:
                passed = False
    # negative control: a field decreasing in x1 must be flagged
    bad_vals = np.zeros(shape)
    bad_vals[tuple([0] + [slice(None)] * (params.N - 1))] = 1.0
    bad = GridFunction(domain=HalfSpace(), axes=axes, values=bad_vals)
    control = moving_plane_check(bad, float(axes[0][len(axes[0]) // 3]))
    measured["control_detected"] = float(not control.passed)
    if control.passed:
        passed = False
    if monotonicity_profile(bad).min_slope >= 0.0:
        passed = False
    return Report(
        check_id="monotonicity",
        params={"N": params.N, "s": params.s, "q": q, "lam_grid": lam_grid},
        samples=lam_grid,
        passed=passed,
        measured=measured,
        tolerance={"min_slope": -1e-6, "plane_violations": 0.0},
        seed=seed,
    )


_RUNNERS = {
    "poisson-normalization": check_poisson_normalization,
    "green-limit": check_green_limit,
    "reflection-inequalities": check_reflection_inequalities,
    "h-monotonicity": check_h_monotonicity,
    "boundary-estimate": check_boundary_estimate,
    "decay-regimes": check_decay_regimes,
    "strip-mass": check_strip_mass,
    "dimension-reduction": check_dimension_reduction,
    "harmonicity-meanvalue": check_harmonicity_meanvalue,
    "kernel-bounds": check_kernel_bounds,
    "critical-bubble": check_critical_bubble,
    "liouville": experiment_liouville,
    "monotonicity": experiment_monotonicity,
}
CHECK_IDS = tuple(_RUNNERS)


def run_check(check_id: str, seed: int = 42) -> Report:
    """Run one check and stamp its Report's ``wall_time``."""
    if check_id not in _RUNNERS:
        raise KeyError(f"unknown check id {check_id!r}")
    t0 = time.perf_counter()
    report = _RUNNERS[check_id](seed=seed)
    report.wall_time = time.perf_counter() - t0
    return report


def run_all(seed: int = 42):
    return [run_check(cid, seed) for cid in CHECK_IDS]
