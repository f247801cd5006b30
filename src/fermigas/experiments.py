"""Experiment drivers that turn the limit theorems into desk-scale checks.

Each driver takes its eigensystem from schrodinger.solve (to count levels
alone, its grid and H from boxed_hamiltonian) for a list of semiclassical
parameters, runs the comparison prescribed by the corresponding theorem
(Weyl count, bulk/edge kernel convergence, Wasserstein law of large
numbers, Gaussian tails, variance asymptotics, H^{1/2} seminorm duality,
Monte-Carlo central limit behaviour) and returns an ExperimentReport whose
CSV form is reproducible bit for bit from the parameters and the seed.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad, trapezoid
from scipy.special import j0, j1, sici
from scipy.stats import kstest

from . import __version__
from .dpp import (
    _compressed,
    from_eigensystem,
    mean_linear_stat,
    samples,
    var_linear_stat,
)
from .errors import NumericalError, ValidationError
from .kernels import (
    airy_kernel_1d,
    bulk_kernel,
    bulk_scale,
    density_of_states,
    edge_scale,
    free_kernel_radial,
    weyl_constant,
)
from .potential import grad_potential, lattice, parse_potential
from .schrodinger import (
    _check_budget,
    _weyl_constant_of_droplet,
    boxed_hamiltonian,
    edge_rotation,
    level_count,
    solve,
)
from .specfun import unit_ball_volume

__all__ = [
    "TestFunction",
    "ExperimentReport",
    "weyl_check",
    "bulk_convergence",
    "edge_convergence",
    "lln_wasserstein",
    "gaussian_tail_check",
    "free_variance_exact",
    "free_variance_bruteforce",
    "free_variance_asymptotic",
    "sigma_n_squared",
    "sigma_fourier",
    "sigma_slobodeckij",
    "mesoscopic_variance_scan",
    "clt_monte_carlo",
]

# |g| is treated as zero outside the support radius once it drops below this
_SUPPORT_FLOOR = 1e-12

# peak bytes of free_variance_bruteforce per node of its offset lattice
# (2m - 1)^n, measured at 58 in 2-d and 78 in 1-d
_OFFSET_BYTES = 80

# s = width * rho past which a gaussian bump's |ghat|^2, proportional to
# exp(-s^2), is 0.0 in floating point (it underflows from 27.3 on)
_GAUSSIAN_CUTOFF = 30.0

# the thresholds t of gaussian_tail_check's rows
_TAIL_THRESHOLDS = (0.5, 1.0, 1.5, 2.0)


def _point(x, n, name):
    """x as a vector of n floats, or a ValidationError that names it."""
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != n:
        plural = "" if n == 1 else "s"
        raise ValidationError(f"{name} needs {n} component{plural}, got {p.size}")
    return p


def _smooth_step(u):
    """C-infinity ramp equal to 1 for u <= 0 and 0 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u <= 0.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        a = np.exp(-1.0 / (1.0 - um))
        b = np.exp(-1.0 / um)
        out[mid] = a / (a + b)
    return out


class TestFunction:
    """Smooth test function with effectively compact support.

    Three kinds are supported:

    * ``gaussian_bump(center, width)``: exp(-|x - c|^2 / (2 width^2));
    * ``smooth_indicator(center, radius, smoothing)``: a C-infinity plateau,
      1 inside |x - c| <= radius, 0 outside radius + smoothing;
    * ``custom(expr, support_radius)``: any parsed expression together with
      a radius outside which it is declared negligible.

    The center c defaults to the origin of the given dimension.
    """

    __test__ = False  # not a pytest case despite the name

    def __init__(self, kind, dimension, center, params):
        if dimension not in (1, 2):
            raise ValidationError("test functions support dimension 1 or 2")
        self.kind = kind
        self.dimension = int(dimension)
        if center is None:  # the origin
            center = np.zeros(self.dimension)
        self.center = _point(center, self.dimension, "center")
        self.params = dict(params)

    @classmethod
    def gaussian_bump(cls, dimension, center=None, width=1.0):
        if width <= 0.0:
            raise ValidationError("gaussian bump needs width > 0")
        return cls("gaussian_bump", dimension, center, {"width": float(width)})

    @classmethod
    def smooth_indicator(cls, dimension, center=None, radius=1.0, smoothing=0.5):
        if radius <= 0.0 or smoothing <= 0.0:
            raise ValidationError(
                "smooth indicator needs radius > 0 and smoothing > 0"
            )
        return cls(
            "smooth_indicator",
            dimension,
            center,
            {"radius": float(radius), "smoothing": float(smoothing)},
        )

    @classmethod
    def custom(cls, expr, support_radius):
        if support_radius <= 0.0:
            raise ValidationError("custom test function needs support_radius > 0")
        if isinstance(expr, str):
            expr = parse_potential(expr)
        return cls(
            "custom",
            expr.dimension,
            None,
            {"expr": expr, "support_radius": float(support_radius)},
        )

    def support_radius(self):
        """Radius around the center beyond which |g| <= 1e-12."""
        if self.kind == "gaussian_bump":
            return self.params["width"] * math.sqrt(
                -2.0 * math.log(_SUPPORT_FLOOR)
            )
        if self.kind == "smooth_indicator":
            return self.params["radius"] + self.params["smoothing"]
        return self.params["support_radius"]

    def bounding_radius(self):
        """Radius of a centered-at-origin box containing the support."""
        return float(np.linalg.norm(self.center)) + self.support_radius()

    def rescale(self, x0, eps):
        """The test function x -> g((x - x0) / eps)."""
        if eps <= 0.0:
            raise ValidationError("rescale needs eps > 0")
        x0 = _point(x0, self.dimension, "x0")
        if self.kind == "gaussian_bump":
            return TestFunction.gaussian_bump(
                self.dimension,
                x0 + eps * self.center,
                eps * self.params["width"],
            )
        if self.kind == "smooth_indicator":
            return TestFunction.smooth_indicator(
                self.dimension,
                x0 + eps * self.center,
                eps * self.params["radius"],
                eps * self.params["smoothing"],
            )
        raise ValidationError("rescale supports the gaussian and indicator kinds")

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 0
        if scalar:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            if self.dimension == 1:
                pts = pts.reshape(-1, 1)
            else:
                scalar = True
                pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValidationError(
                f"expected points in dimension {self.dimension}"
            )
        if self.kind == "custom":
            vals = np.asarray(self.params["expr"](pts), dtype=float)
        else:
            r = np.sqrt(np.sum((pts - self.center[None, :]) ** 2, axis=1))
            if self.kind == "gaussian_bump":
                w = self.params["width"]
                vals = np.exp(-0.5 * (r / w) ** 2)
            else:
                u = (r - self.params["radius"]) / self.params["smoothing"]
                vals = _smooth_step(u)
        return float(vals[0]) if scalar else vals


@dataclass
class ExperimentReport:
    """Parameter rows plus observed/reference values for one experiment.

    The CSV form carries the experiment id, all parameters and the seed in
    '#' header lines, so that it is a pure function of (parameters, seed).
    """

    experiment: str
    columns: tuple
    rows: list
    params: dict = field(default_factory=dict)
    seed: int = None

    def column(self, name):
        if name not in self.columns:
            raise ValidationError(f"report has no column {name!r}")
        k = tuple(self.columns).index(name)
        return np.array([row[k] for row in self.rows], dtype=float)

    def to_csv(self):
        lines = [f"# experiment={self.experiment}"]
        for key in sorted(self.params):
            lines.append(f"# {key}={_format_value(self.params[key])}")
        if self.seed is not None:
            lines.append(f"# seed={int(self.seed)}")
        lines.append(f"# fermigas={__version__}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_format_value(v) for v in row))
        return "\n".join(lines) + "\n"


def _format_value(v):
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# ---------------------------------------------------------------------------
# the filled process and its linear statistics


def _filled_process(V, mu, hbar):
    """(grid, the projection DPP of the levels <= mu) of -hbar^2 Laplace + V.

    A process with no level below mu, N = 0, is a ValidationError: it has
    no point to sample and no statistic to fluctuate.
    """
    eigs = solve(V, mu, hbar)
    dpp = from_eigensystem(eigs, mu)
    if dpp.N == 0:
        raise ValidationError("no levels below mu: the process is empty")
    return eigs.grid, dpp


def _check_resolved(g, grid):
    """Refuse a test function whose support radius is below the grid
    spacing, before it is evaluated: on one node its statistic shows
    nothing, and a narrow bump overflows there."""
    if not g.support_radius() >= grid.spacing:
        raise ValidationError(
            f"the test function's support radius {g.support_radius():g} is "
            f"below the grid spacing {grid.spacing:g}"
        )


def _linear_statistic(V, mu, f, hbar):
    """(dpp, fvec, mean, var) of X(f) = sum_i f(x_i) in the filled process
    of -hbar^2 Laplace + V below mu: f a TestFunction, fvec its values on
    the nodes, mean and var the exact traces.  An empty process and an f
    narrower than the grid spacing are refused before f is evaluated, and
    an f not finite on a node before any trace."""
    grid, dpp = _filled_process(V, mu, hbar)
    _check_resolved(f, grid)
    with np.errstate(all="ignore"):
        fvec = f(dpp.nodes)
    if not np.all(np.isfinite(fvec)):
        raise ValidationError("the test function is not finite at a node")
    return dpp, fvec, mean_linear_stat(dpp, fvec), var_linear_stat(dpp, fvec)


def _value_at(V, x0):
    pt = np.asarray(x0, dtype=float).reshape(1, -1)
    return float(V(pt)[0])


# ---------------------------------------------------------------------------
# Weyl law


def weyl_check(V, mu, hbar_list):
    """Count eigenvalues below mu and compare with the phase-space volume.

    Rows are (hbar, count, hbar_count, scaled_count, deviation) where
    hbar_count is hbar^n N, scaled_count is hbar^n N (2 pi)^n / (omega_n Z)
    and Z integrates (mu - V)_+^{n/2}; the scaled count tends to 1 as hbar
    goes to 0.  The counts (level_count) compute no 2-D eigenvectors.
    An empty droplet, Z = 0, whose scaled count would be 0 / 0, is a
    ValidationError, found before the first grid is built
    (boxed_hamiltonian).
    """
    n = V.dimension
    counts = [level_count(H, mu, grid) for grid, H in
              (boxed_hamiltonian(V, mu, hbar) for hbar in hbar_list)]
    # after the counts, not before them: computing Z first raised the peak
    # RSS of `weyl` on x1^2+x2^2 at hbar 0.1, 0.07 by 4.6 MB
    Z = _weyl_constant_of_droplet(V, mu)
    norm = unit_ball_volume(n) * Z / (2.0 * math.pi) ** n
    rows = []
    for hbar, count in zip(hbar_list, counts):
        scaled = hbar ** n * count / norm
        rows.append((float(hbar), count, hbar ** n * count, scaled, scaled - 1.0))
    return ExperimentReport(
        "weyl_check",
        ("hbar", "count", "hbar_count", "scaled_count", "deviation"),
        rows,
        params={"potential": V.to_text(), "mu": float(mu), "weyl_constant": Z},
    )


# ---------------------------------------------------------------------------
# bulk and edge convergence


def _kernel_convergence(
    experiment, V, mu, x0c, hbar_list, window, probes, scale, frame, reference,
):
    """Sup-distance between the rescaled projector and a limiting kernel.

    scale(hbar) is the microscopic length eps, frame the probe rotation and
    reference(u, v) the limiting kernel at probe offsets u and v, which
    broadcast.  Each probe moves to its nearest interior node, where the
    projector is exact: eps Pi there is a product of the filled eigenvectors'
    rows at those nodes, the only rows solved for (solve with points), whose
    coordinates the EigenSystem gives as nodes.  A probe outside the box
    raises.
    """
    # frame^T e_1 is the probe direction; offsets along it carry its sign
    signed = float(frame[0, 0])
    targets = np.linspace(window[0], window[1], probes)
    rows = []
    prev_err = None
    for hbar in hbar_list:
        eps = scale(hbar)
        eigs = solve(V, mu, hbar, (x0c + eps * signed * targets)[:, None])
        R = eigs.below(mu)[1]
        us = (eigs.nodes[:, 0] - x0c) / (eps * signed)
        err = float(np.max(np.abs(
            eps * (R @ R.T) - reference(us[:, None], us[None, :])
        )))
        ratio = math.nan if prev_err is None else err / prev_err
        rows.append((float(hbar), float(eps), err, ratio))
        prev_err = err
    return ExperimentReport(
        experiment,
        ("hbar", "eps", "sup_error", "ratio"),
        rows,
        params={
            "potential": V.to_text(),
            "mu": float(mu),
            "x0": x0c,
            "window_lo": float(window[0]),
            "window_hi": float(window[1]),
            "probes": int(probes),
        },
    )


def _one_dimensional_x0(V, x0, experiment):
    if V.dimension != 1:
        raise ValidationError(
            f"{experiment} supports dimension 1 only; the potential has "
            f"dimension {V.dimension}"
        )
    return float(_point(x0, 1, "x0")[0])


def bulk_convergence(V, mu, x0, hbar_list, window=(-2.0, 2.0), probes=17):
    """Sup-distance between the rescaled projector and the bulk kernel.

    Rows are (hbar, eps, sup_error, ratio) with ratio the quotient of
    successive sup errors; the expected decay is first order in hbar.
    """
    x0c = _one_dimensional_x0(V, x0, "bulk_convergence")
    V_x0 = _value_at(V, x0c)
    if not V_x0 < mu:
        raise ValidationError("bulk_convergence requires V(x0) < mu")
    return _kernel_convergence(
        "bulk_convergence", V, mu, x0c, hbar_list, window, probes,
        scale=lambda hbar: bulk_scale(hbar, V_x0, mu, 1),
        frame=np.eye(1),
        reference=lambda u, v: bulk_kernel(1, u[..., None], v[..., None]),
    )


def edge_convergence(V, mu, x0, hbar_list, window=(-4.0, 2.0), probes=17):
    """Sup-distance between the rescaled projector and the edge kernel.

    The probe frame is rotated so the first axis points along grad V(x0);
    rows are (hbar, eps, sup_error, ratio) and the expected decay is
    hbar^{1/3}.
    """
    x0c = _one_dimensional_x0(V, x0, "edge_convergence")
    if abs(_value_at(V, x0c) - mu) > 1e-9:
        raise ValidationError("edge_convergence requires V(x0) = mu within 1e-9")
    grad = grad_potential(V, [x0c])
    gnorm = float(np.linalg.norm(grad))
    if gnorm == 0.0:
        raise ValidationError("degenerate edge point: grad V(x0) vanishes")
    return _kernel_convergence(
        "edge_convergence", V, mu, x0c, hbar_list, window, probes,
        scale=lambda hbar: edge_scale(hbar, gnorm),
        frame=edge_rotation(grad),
        reference=airy_kernel_1d,
    )


# ---------------------------------------------------------------------------
# law of large numbers in Wasserstein distance


def _reference_cdf(V, mu, grid, Z):
    """Limiting-density CDF tabulated on a fine axis covering the box; Z is
    weyl_constant(V, mu)."""
    taxis = np.linspace(-grid.half_width, grid.half_width, 8001)
    dens = density_of_states(V, mu, taxis[:, None], Z)
    cdf = cumulative_trapezoid(dens, taxis, initial=0.0)
    return taxis, cdf


def _w1_to_reference(points, taxis, ref_cdf):
    """Integral of |F_emp - F_ref| over the tabulation axis."""
    pts = np.sort(np.asarray(points, dtype=float).reshape(-1))
    if pts.size == 0:
        raise ValidationError("the W1 distance needs at least one point")
    emp = np.searchsorted(pts, taxis, side="right") / pts.size
    return float(trapezoid(np.abs(emp - ref_cdf), taxis))


def lln_wasserstein(V, mu, hbar, trials, rng):
    """Wasserstein distance of empirical measures to the limiting density.

    Rows are (hbar, trials, mean_w1, q10, q50, q90), one per hbar of the
    list hbar.  Every (hbar, trial) cell draws from its own derived RNG
    stream, number ih * trials + t.
    """
    if V.dimension != 1:
        raise ValidationError("lln_wasserstein supports dimension 1 only")
    hbars = [float(h) for h in hbar]
    trials = int(trials)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    Z = weyl_constant(V, mu)  # one cubature for every hbar
    rows = []
    for ih, hb in enumerate(hbars):
        grid, dpp = _filled_process(V, mu, hb)
        taxis, ref_cdf = _reference_cdf(V, mu, grid, Z)
        drawn = samples(dpp, [rng.stream(ih * trials + t) for t in range(trials)])
        x = dpp.nodes[drawn, 0]
        w1 = np.array([_w1_to_reference(row, taxis, ref_cdf) for row in x])
        q10, q50, q90 = np.quantile(w1, [0.1, 0.5, 0.9])
        rows.append(
            (hb, trials, float(np.mean(w1)), float(q10), float(q50), float(q90))
        )
    return ExperimentReport(
        "lln_wasserstein",
        ("hbar", "trials", "mean_w1", "q10", "q50", "q90"),
        rows,
        params={"potential": V.to_text(), "mu": float(mu)},
        seed=rng.seed,
    )


# ---------------------------------------------------------------------------
# Gaussian concentration of linear statistics


def gaussian_tail_check(V, mu, f, hbar, trials, rng):
    """Exceedance frequencies of |X(f) - mean| / sqrt(hbar N), f a TestFunction.

    Rows are (t, frequency, envelope) for t in _TAIL_THRESHOLDS, where
    envelope = 2 exp(-c t^2) uses the largest c consistent with every
    observed frequency; the params carry c along with the exact mean and
    variance of X(f).  An empty process and an f narrower than the grid
    spacing are refused, as clt_monte_carlo refuses them.
    """
    trials = int(trials)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    dpp, fvec, mean, var = _linear_statistic(V, mu, f, hbar)
    scale = math.sqrt(hbar * dpp.N)
    drawn = samples(dpp, [rng.stream(t) for t in range(trials)])
    stats = fvec[drawn].sum(axis=1)
    deviations = np.abs(stats - mean) / scale
    rows = []
    c_fit = math.inf
    for t in _TAIL_THRESHOLDS:
        freq = float(np.mean(deviations > t))
        rows.append([float(t), freq])
        if freq > 0.0:
            c_fit = min(c_fit, -math.log(freq / 2.0) / t ** 2)
    for row in rows:
        row.append(2.0 * math.exp(-c_fit * row[0] ** 2) if c_fit < math.inf else 0.0)
    return ExperimentReport(
        "gaussian_tail_check",
        ("t", "frequency", "envelope"),
        [tuple(r) for r in rows],
        params={
            "potential": V.to_text(),
            "mu": float(mu),
            "hbar": float(hbar),
            "trials": trials,
            "count": dpp.N,
            "mean": mean,
            "var": var,
            "var_over_hbar_count": var / (hbar * dpp.N),
            "c": c_fit,
        },
        seed=rng.seed,
    )


# ---------------------------------------------------------------------------
# variance of linear statistics under the free-Laplacian kernel


def sigma_n_squared(n):
    """omega_{n-1} / (2 pi)^n, the squared mesoscopic variance constant."""
    n = int(n)
    if n < 1:
        raise ValidationError("sigma_n_squared requires n >= 1")
    return unit_ball_volume(n - 1) / (2.0 * math.pi) ** n


def _ball_difference_volume(n, d):
    """Volume of B(0,1) minus a unit ball whose center is d away, elementwise."""
    d = np.clip(d, 0.0, 2.0)
    if n == 1:
        return d
    # pi minus the lens 2 arccos(d/2) - (d/2) sqrt(4 - d^2), in a form that
    # does not cancel for small d
    return 2.0 * np.arcsin(0.5 * d) + 0.5 * d * np.sqrt(4.0 - d * d)


def _fourier_sq_lattice(g):
    """|ghat|^2 (unitary convention) on the DFT frequency lattice.

    Returns (weights, xi_points, cell_volume).  The box half-width is
    4 * bounding_radius, so rescaled copies of g see proportionally
    rescaled boxes and quadrature errors cancel exactly in scaling checks.
    """
    n = g.dimension
    A = 4.0 * g.bounding_radius()
    m = 8192 if n == 1 else 256
    h = 2.0 * A / m
    ax = -A + h * np.arange(m)
    # float products, which overflow to inf where ** would raise
    norm = math.prod([h / math.sqrt(2.0 * math.pi)] * n)
    ghat = np.fft.fftn(g(lattice(ax, n)).reshape((m,) * n)).ravel() * norm
    xi = lattice(2.0 * math.pi * np.fft.fftfreq(m, d=h), n)
    dxi = math.prod([2.0 * math.pi / (m * h)] * n)
    return np.abs(ghat) ** 2, xi, dxi


def _gaussian_fourier(g, p, a, b=math.inf, weight=lambda rho: 1.0, **opts):
    """int_a^b rho^p |ghat(rho)|^2 weight(rho) d rho of a gaussian bump g.

    In the unitary convention |ghat|^2 = width^{2n} exp(-(width rho)^2),
    whose scale 1 / width quad misses for a narrow or a wide bump.  In
    s = width rho the integral is width^{2n - p - 1} times
    int_{width a}^{width b} s^p exp(-s^2) weight(s / width) ds, whose
    scale is 1 at any width; 0 <= a, and opts go to quad.  A finite range
    ends at _GAUSSIAN_CUTOFF: over a long one quad's nodes would step over
    the bump (0.0 at mu = 1e6).
    """
    n, w = g.dimension, g.params["width"]

    def integrand(s):
        # tested first: the square of a huge s raises OverflowError
        if s > _GAUSSIAN_CUTOFF:
            return 0.0
        return s ** p * np.exp(-s ** 2) * weight(s / w)

    lo, hi = w * a, w * b
    if hi < math.inf:
        hi = min(hi, _GAUSSIAN_CUTOFF)
    val = quad(integrand, lo, hi, **opts)[0] if lo < hi else 0.0
    # a float product, which overflows to inf where ** would raise
    return math.prod([w] * (2 * n - p - 1)) * val


def free_variance_exact(n, mu, g):
    """Variance of X(g) under the free kernel, by the Plancherel formula.

    var = mu^n / (2 pi)^n int |ghat(xi)|^2 |B(0,1) \\ B(|xi|/mu, 1)| dxi.
    Gaussian bumps integrate their closed-form radial |ghat|^2 with
    _gaussian_fourier; other kinds fall back to the FFT frequency lattice.
    """
    n = int(n)
    if n not in (1, 2):
        raise ValidationError("free_variance_exact supports n in {1, 2}")
    if mu <= 0.0:
        raise ValidationError("mu must be positive")
    # a float product, which overflows to inf where ** would raise
    pref = math.prod([mu] * n) / (2.0 * math.pi) ** n
    if g.kind == "gaussian_bump":
        surface = 2.0 if n == 1 else 2.0 * math.pi
        # a relative tolerance alone: the integrand scales like 1 / mu, so a
        # fixed epsabs is met at once when mu is large enough
        inner = _gaussian_fourier(
            g, n - 1, 0.0, 2.0 * mu,
            lambda rho: _ball_difference_volume(n, rho / mu),
            limit=400, epsabs=0.0,
        )
        outer = _gaussian_fourier(g, n - 1, 2.0 * mu, limit=200, epsabs=1e-13)
        total = inner + unit_ball_volume(n) * outer
        var = pref * surface * total
    else:
        w2, xi, dxi = _fourier_sq_lattice(g)
        if not np.any(w2):  # g vanishes on the lattice, and so does var
            return 0.0
        vol = _ball_difference_volume(n, np.sqrt(np.sum(xi * xi, axis=1)) / mu)
        var = pref * float(np.sum(w2 * vol)) * dxi
    if not math.isfinite(var):
        raise NumericalError(f"free-field variance is not finite at mu={mu:g}")
    # a nonzero g has a positive variance; a subnormal one has lost digits
    if not var >= sys.float_info.min:
        raise ValidationError(f"mu={mu:g} is too small: the free-field "
                              f"variance {var:g} underflows below the normal "
                              "float range")
    return var


def _lattice_autocorrelation(g, n, ax, h):
    """g sampled on the lattice ax^n of step h and its FFT autocorrelation.

    Returns (vals, l2, dist, big_d): the samples, ||g||^2, the length of
    every lattice offset z and big_d(z) = int |g(x + z) - g(x)|^2 dx
    = 2 ||g||^2 - 2 (g * g~)(z), clamped at zero against rounding.
    """
    # imported on use, so that only variance and seminorm load it
    from scipy.signal import fftconvolve

    m = ax.size
    vals = g(lattice(ax, n)).reshape((m,) * n)
    corr = fftconvolve(vals, np.flip(vals)) * h ** n
    l2 = float(np.sum(vals * vals)) * h ** n
    # the root of an integer square is exact: 1-d distances stay |k| h
    k = lattice(np.arange(-(m - 1), m), n)
    dist = np.sqrt(np.sum(k * k, axis=1)).reshape(corr.shape) * h
    big_d = np.maximum(2.0 * l2 - 2.0 * corr, 0.0)
    return vals, l2, dist, big_d


def free_variance_bruteforce(n, mu, g):
    """Variance of X(g) as the double integral of (g(x)-g(y))^2 K(x,y)^2 / 2.

    The double integral reduces to the difference variable with FFT
    autocorrelation, plus the closed-form tail beyond the sampled window:
    sine-integral in 1-D, Bessel in 2-D.
    """
    n = int(n)
    if n not in (1, 2):
        raise ValidationError("free_variance_bruteforce supports n in {1, 2}")
    # the lattice step is a fraction of pi / mu
    if not (mu > 0.0 and math.pi / mu < math.inf):
        raise ValidationError(f"mu must be positive, with pi / mu finite: {mu!r}")
    R = g.bounding_radius()
    h = min(math.pi / (4.5 * mu), R / 25.0)
    cells = 2.0 * R / h if h > 0.0 else math.inf  # per axis
    # a float product, which overflows to inf where ** would raise
    _check_budget(_OFFSET_BYTES * math.prod([2.0 * cells + 1.0] * n),
                  f"mu={mu:g}", "for the brute-force lattice")
    # the lattice sums weigh by h^n and the 1-d tail by 1 / z^2, z >= h
    if not h * h >= sys.float_info.min:
        raise ValidationError(
            f"the test function's support radius {R:g} is too small for the "
            f"brute-force lattice: its step {h:g} squared underflows"
        )
    m = int(math.ceil(cells)) + 1
    ax = -R + h * np.arange(m)
    _, l2, dist, big_d = _lattice_autocorrelation(g, n, ax, h)
    Z = (m - 1) * h  # lattice sum out to the inscribed-ball radius
    inside = dist <= Z
    uniq, inv = np.unique(dist[inside].ravel(), return_inverse=True)
    ksq_u = free_kernel_radial(n, mu, uniq) ** 2
    weights = big_d[inside].ravel() * ksq_u[inv]
    if n == 1:
        # trapezoid split: the two boundary nodes carry half cells, the
        # closed-form tail starts exactly at Z
        weights[dist[inside].ravel() == Z] *= 0.5
        lattice = 0.5 * float(np.sum(weights)) * h
        # int_Z^inf (1 - cos 2 mu z) / z^2 dz by parts, in closed form
        si = sici(2.0 * mu * Z)[0]
        tail_int = (2.0 * math.sin(mu * Z) ** 2 / Z
                    + 2.0 * mu * (0.5 * math.pi - si)) / math.pi ** 2
    else:
        # midpoint cells tile an area of count * h^2; start the tail at the
        # radius of the disk with that area so no measure is dropped
        lattice = 0.5 * float(np.sum(weights)) * h ** 2
        z_eff = h * math.sqrt(np.count_nonzero(inside) / math.pi)
        kz = mu * z_eff
        tail_int = mu ** 2 * (j0(kz) ** 2 + j1(kz) ** 2) / (4.0 * math.pi)
    return lattice + 0.5 * (2.0 * l2) * tail_int


def free_variance_asymptotic(n, mu, g):
    """Large-mu variance growth law sigma_n^2 mu^{n-1} Sigma^2(g)."""
    return sigma_n_squared(n) * float(mu) ** (int(n) - 1) * sigma_fourier(g)


# ---------------------------------------------------------------------------
# H^{1/2} seminorms


def sigma_fourier(g):
    """Sigma^2(g) = int |ghat(xi)|^2 |xi| dxi.

    Gaussian bumps integrate their closed-form radial |ghat|^2 with
    _gaussian_fourier; other kinds fall back to the frequency lattice.
    """
    n = g.dimension
    if g.kind == "gaussian_bump":
        return n * unit_ball_volume(n) * _gaussian_fourier(g, n, 0.0, limit=200)
    w2, xi, dxi = _fourier_sq_lattice(g)
    return float(np.sum(w2 * np.sqrt(np.sum(xi * xi, axis=1)))) * dxi


def sigma_slobodeckij(g):
    """The double integral int |g(x)-g(y)|^2 / |x-y|^{n+1} dx dy.

    The diagonal singularity is excised at a few lattice steps and replaced
    by its Taylor value omega_n * cut * int |grad g|^2; beyond the sampled
    window the integrand is 2 ||g||^2 / |z|^{n+1} exactly, which integrates
    in closed form.
    """
    n = g.dimension
    A = 2.0 * g.bounding_radius()
    m = 2048 if n == 1 else 160
    h = 2.0 * A / m
    # |z|^{n+1} as a float product, which overflows to inf where ** raises
    if not sys.float_info.min <= math.prod([h] * (n + 1)) < math.inf:
        raise ValidationError(f"the test function is too narrow or too wide: "
                              f"the seminorm lattice step {h:g} to the power "
                              f"{n + 1} is out of float range")
    ax = -A + h * np.arange(m)
    vals, l2, dist, big_d = _lattice_autocorrelation(g, n, ax, h)
    grads = np.reshape(np.gradient(vals, h), (n,) + vals.shape)
    grad_sq = float(np.sum(sum(gk * gk for gk in grads))) * h ** n
    cut = 4 * h
    Z = (m - 1) * h
    ring = (dist > cut) & (dist <= Z)
    total = float(np.sum(big_d[ring] / dist[ring] ** (n + 1))) * h ** n
    total += unit_ball_volume(n) * cut * grad_sq
    total += 2.0 * l2 * n * unit_ball_volume(n) / Z
    return total


# ---------------------------------------------------------------------------
# mesoscopic variance scan


def mesoscopic_variance_scan(V, mu, x0, hbar_list, beta, g):
    """delta^{n-1} var X(g((x - x0)/eps)) against the limiting constant.

    eps = hbar^beta and delta = hbar / eps.  For n=1 the variance comes
    from the boxed eigensolve; for n=2 it comes from the free kernel at the
    local wavenumber eps sqrt(mu - V(x0)) / hbar, the scaling image of the
    rescaled statistic.  ratio_sigma_sq divides the normalized variance by
    its limit sigma_n^2 (mu - V(x0))^{(n-1)/2} Sigma^2(g).
    """
    n = V.dimension
    if not 0.0 < beta < 1.0:
        raise ValidationError("beta must lie in (0, 1)")
    x0v = _point(x0, n, "x0")
    V_x0 = _value_at(V, x0v)
    if not V_x0 < mu:
        raise ValidationError("mesoscopic scan requires V(x0) < mu")
    depth = mu - V_x0
    sig_sq = sigma_n_squared(n)
    sigma_sq_g = sigma_fourier(g)
    rows = []
    for hbar in hbar_list:
        hbar = float(hbar)
        if hbar <= 0.0:
            raise ValidationError("hbar must be positive")
        eps = hbar ** beta
        delta = hbar / eps
        if n == 1:
            grid, dpp = _filled_process(V, mu, hbar)
            if eps < 4.0 * grid.spacing:
                raise ValidationError(
                    "eps is below four grid spacings; refine the grid"
                )
            fvec = g((dpp.nodes - x0v[None, :]) / eps)
            var = var_linear_stat(dpp, fvec)
        else:
            var = free_variance_exact(n, eps * math.sqrt(depth) / hbar, g)
        normalized = delta ** (n - 1) * var
        base = depth ** (0.5 * (n - 1)) * sigma_sq_g
        r_sq = normalized / (sig_sq * base) if base > 0.0 else math.nan
        rows.append((hbar, eps, delta, var, normalized, r_sq))
    params = {
        "potential": V.to_text(),
        "mu": float(mu),
        "beta": float(beta),
        "sigma_sq_g": sigma_sq_g,
    }
    for k in range(n):
        params[f"x0_{k + 1}"] = float(x0v[k])
    return ExperimentReport(
        "mesoscopic_variance_scan",
        ("hbar", "eps", "delta", "variance", "normalized", "ratio_sigma_sq"),
        rows,
        params=params,
    )


# ---------------------------------------------------------------------------
# central limit theorem


def clt_monte_carlo(V, mu, f, hbar, trials, rng):
    """Kolmogorov-Smirnov test of the standardized linear statistic X(f),
    f a TestFunction, in the filled process of -hbar^2 Laplace + V below mu.

    The mean and variance are exact traces, never estimated, so the
    standardized samples are z = (X(f) - tr fM) / sqrt(var).  Rows are
    (trials, ks_stat, ks_pvalue, skewness, third_moment_se).  Fewer than
    two trials are refused before the solve, a statistic of variance below
    1e-12 before any draw.
    """
    trials = int(trials)
    if trials < 2:
        raise ValidationError("clt_monte_carlo needs at least 2 trials")
    dpp, fvec, mean, var = _linear_statistic(V, mu, f, hbar)
    if var < 1e-12:
        raise ValidationError(
            "the statistic is degenerate: its variance is below 1e-12"
        )
    drawn = samples(dpp, [rng.stream(t) for t in range(trials)])
    stats = fvec[drawn].sum(axis=1)
    z = (stats - mean) / math.sqrt(var)
    ks_stat, ks_p = kstest(z, "norm")
    skew = float(np.mean(z ** 3))
    skew_se = math.sqrt(15.0 / trials)
    params = {
        "potential": V.to_text(),
        "mu": float(mu),
        "hbar": float(hbar),
        "mean": mean,
        "var": var,
        "skew_exact": _exact_skewness(dpp, fvec, var),
    }
    return ExperimentReport(
        "clt_monte_carlo",
        ("trials", "ks_stat", "ks_pvalue", "skewness", "skewness_se"),
        [(trials, float(ks_stat), float(ks_p), skew, skew_se)],
        params=params,
        seed=rng.seed,
    )


def _exact_skewness(process, fvec, var):
    """Third standardized cumulant from traces.

    k3 = tr(f^3 M) - 3 tr(f^2 M f M) + 2 tr((f M)^3) holds for any
    symmetric kernel M = B^T B, and each trace is one of the K x K
    compressions C_g = B diag(g) B^T.
    """
    A = _compressed(process, fvec)
    B = _compressed(process, fvec * fvec)
    C = _compressed(process, fvec * fvec * fvec)
    k3 = float(np.trace(C) - 3.0 * np.sum(B * A.T) + 2.0 * np.trace(A @ A @ A))
    return k3 / var ** 1.5
