"""Limiting kernels and macroscopic quantities.

Free-Laplacian kernel at any radius, the density-one bulk kernel, the edge
kernel built from its Airy-times-transverse-Bessel integral representation,
the closed-form 1-d Airy kernel, the semiclassical density of states, the
Weyl-law constant, and the two microscopic scales.  The free and bulk
kernels and the density take point arrays (..., n) and return arrays (...).
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import cubature, quad

from .errors import NumericalError, ValidationError
from .potential import droplet_half_width
from .specfun import (
    airy_ai,
    airy_ai_prime,
    bessel_j,
    bulk_wavenumber,
    unit_ball_volume,
)

__all__ = [
    "KernelKind",
    "KernelEvaluation",
    "EdgeQuadrature",
    "free_kernel_radial",
    "free_laplacian_kernel",
    "free_laplacian_window",
    "bulk_kernel",
    "edge_kernel",
    "airy_kernel_1d",
    "density_of_states",
    "weyl_constant",
    "bulk_scale",
    "edge_scale",
]

# global bound on |Ai| (attained near x = -1.019); used by tail certificates
_AIRY_SUP = 0.5357


class KernelKind(Enum):
    FREE_LAPLACIAN = "free_laplacian"
    BULK = "bulk"
    EDGE = "edge"
    SINE_1D = "sine1d"
    AIRY_1D = "airy1d"
    PROJECTOR = "projector"


@dataclass
class KernelEvaluation:
    """A kernel sampled on a rectangle of point pairs, CSV-serializable."""

    kind: KernelKind
    dimension: int
    params: dict
    x_points: np.ndarray  # (P, n)
    y_points: np.ndarray  # (Q, n)
    values: np.ndarray    # (P, Q), values[i, j] = K(x_i, y_j)

    @classmethod
    def from_function(cls, kind, dimension, params, x_points, y_points, fn):
        xs = np.atleast_2d(np.asarray(x_points, dtype=float))
        ys = np.atleast_2d(np.asarray(y_points, dtype=float))
        vals = np.empty((xs.shape[0], ys.shape[0]))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                vals[i, j] = fn(x, y)
        return cls(kind, dimension, dict(params), xs, ys, vals)

    def to_csv(self):
        n = self.dimension
        lines = [f"# kind={self.kind.value}", f"# dimension={n}"]
        if self.params:
            pairs = " ".join(
                f"{k}={self.params[k]:.17g}" if isinstance(self.params[k], float)
                else f"{k}={self.params[k]}"
                for k in sorted(self.params)
            )
            lines.append(f"# params: {pairs}")
        cols = [f"x{k+1}" for k in range(n)] + [f"y{k+1}" for k in range(n)]
        lines.append(",".join(cols + ["value"]))
        for i, x in enumerate(self.x_points):
            for j, y in enumerate(self.y_points):
                row = [f"{c:.17g}" for c in x] + [f"{c:.17g}" for c in y]
                row.append(f"{self.values[i, j]:.17g}")
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def free_kernel_radial(n, mu, r):
    """K_mu(r) = mu^{n/2} J_{n/2}(mu r) / (2 pi r)^{n/2}, elementwise in r >= 0.

    At r = 0 it takes the removable-singularity limit mu^n omega_n / (2 pi)^n.
    """
    r = np.asarray(r, dtype=float)
    safe = np.where(r == 0.0, 1.0, r)
    val = (
        mu ** (0.5 * n)
        * bessel_j(0.5 * n, mu * safe)
        / (2.0 * math.pi * safe) ** (0.5 * n)
    )
    diag = mu ** n * unit_ball_volume(n) / (2.0 * math.pi) ** n
    return np.where(r == 0.0, diag, val)


def free_laplacian_kernel(n, mu, x, y):
    """Kernel of 1_{-Delta <= mu^2}: K_mu(|x - y|) for x, y of shape (..., n)."""
    n = int(n)
    if n < 1:
        raise ValidationError("free_laplacian_kernel requires n >= 1")
    if mu < 0.0:
        raise ValidationError("free_laplacian_kernel requires mu >= 0")
    r = np.linalg.norm(np.subtract(x, y, dtype=float), axis=-1)
    return free_kernel_radial(n, mu, r)


def bulk_kernel(n, x, y):
    """Free-Laplacian kernel at radius c_n; density exactly one."""
    n = int(n)
    if n < 1:
        raise ValidationError("bulk_kernel requires n >= 1")
    r = np.linalg.norm(np.subtract(x, y, dtype=float), axis=-1)
    k = free_kernel_radial(n, bulk_wavenumber(n), r)
    return np.where(r == 0.0, 1.0, k)


def airy_kernel_1d(x, y):
    """(Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y), diagonal Ai'(x)^2 - x Ai(x)^2.

    Near the diagonal the quotient cancels catastrophically, so for
    |x - y| <= 1e-5 the midpoint diagonal formula is used instead; its error
    is O((x-y)^2) by the symmetric expansion with Ai'' = x Ai.
    """
    x = float(x)
    y = float(y)
    if abs(x - y) <= 1e-5:
        m = 0.5 * (x + y)
        return airy_ai_prime(m) ** 2 - m * airy_ai(m) ** 2
    return (
        airy_ai(x) * airy_ai_prime(y) - airy_ai_prime(x) * airy_ai(y)
    ) / (x - y)


def _airy_envelope(t):
    """Certified pointwise bound on |Ai(t)|, valid for every real t."""
    if t < 1.0:
        return _AIRY_SUP
    return (
        1.1
        * math.exp(-(2.0 / 3.0) * t ** 1.5)
        / (2.0 * math.sqrt(math.pi) * t ** 0.25)
    )


@dataclass(frozen=True)
class EdgeQuadrature:
    """Truncation plan for the edge-kernel s-integral."""

    s_max: float          # upper limit replacing +infinity
    nodes: int = 200      # adaptive-subdivision budget
    tail_bound: float = 0.0  # certified bound on the discarded tail

    @classmethod
    def for_points(cls, n, x1, y1, s_max=None, nodes=200):
        """Build a plan whose tail bound is certified by the Airy envelope.

        The discarded tail is bounded by
        int_{s_max}^inf env(x1+s) env(y1+s) diag_{n-1}(sqrt(s)) ds
        since a positive-contraction kernel is dominated by its diagonal
        s^{(n-1)/2} omega_{n-1} / (2 pi)^{n-1}.
        """
        if s_max is None:
            s_max = max(1.0, 40.0 - min(x1, y1))
        if s_max <= 0.0:
            raise ValidationError("s_max must be positive")
        pref = (
            unit_ball_volume(n - 1) / (2.0 * math.pi) ** (n - 1)
            if n >= 2
            else 1.0
        )

        def tail_integrand(s):
            trans = pref * s ** (0.5 * (n - 1)) if n >= 2 else 1.0
            return _airy_envelope(x1 + s) * _airy_envelope(y1 + s) * trans

        # past this point the envelope is far below double precision
        upper = max(s_max + 30.0, 3.0 - min(x1, y1) + 30.0)
        val, _ = quad(tail_integrand, s_max, upper, limit=100)
        return cls(s_max=float(s_max), nodes=int(nodes), tail_bound=float(val))


def edge_kernel(n, x, y, quad_plan=None, tol=1e-8):
    """Edge kernel: int_0^inf Ai(x1+s) Ai(y1+s) K_{b,sqrt(s)}^{(n-1)} ds.

    The transverse factor is the free-Laplacian kernel in dimension n-1 at
    radius sqrt(s) evaluated at the perpendicular components (1 when n=1).
    Truncated at quad_plan.s_max with the certified tail bound.
    """
    n = int(n)
    if n < 1:
        raise ValidationError("edge_kernel requires n >= 1")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != n or y.size != n:
        raise ValidationError(f"points must be {n}-vectors")
    x1, y1 = x[0], y[0]
    if quad_plan is None:
        quad_plan = EdgeQuadrature.for_points(n, x1, y1)
    if quad_plan.tail_bound > tol:
        raise ValidationError(
            f"edge quadrature tail bound {quad_plan.tail_bound:.3e} exceeds "
            f"tolerance {tol:.3e}; increase s_max"
        )
    if n == 1:
        def integrand(s):
            return airy_ai(x1 + s) * airy_ai(y1 + s)
    else:
        x_perp = x[1:]
        y_perp = y[1:]

        def integrand(s):
            if s <= 0.0:
                return 0.0
            trans = free_laplacian_kernel(n - 1, math.sqrt(s), x_perp, y_perp)
            return airy_ai(x1 + s) * airy_ai(y1 + s) * trans

    breaks = sorted(
        {b for b in (-x1, -y1) if 0.0 < b < quad_plan.s_max}
    )
    val, err = quad(
        integrand,
        0.0,
        quad_plan.s_max,
        points=breaks or None,
        limit=quad_plan.nodes,
        epsabs=min(tol, 1e-10),
        epsrel=1e-10,
    )
    if err > 10.0 * max(tol, 1e-10) + 1e-13:
        raise NumericalError(
            f"edge-kernel quadrature error estimate {err:.3e} too large"
        )
    return val


def free_laplacian_window(n, mu, half, step):
    """Free-Laplacian kernel sampled on the lattice of [-half, half]^n.

    Exploits translation invariance: only one Bessel evaluation per distinct
    node distance, so dense windows stay cheap.
    """
    n = int(n)
    if n not in (1, 2):
        raise ValidationError("free_laplacian_window supports n in {1, 2}")
    if step <= 0.0 or half <= 0.0 or half < step:
        raise ValidationError("window needs 0 < step <= half")
    if mu < 0.0:
        raise ValidationError("free_laplacian_window requires mu >= 0")
    m = int(round(2.0 * half / step)) + 1
    ax = -half + step * np.arange(m)
    if n == 1:
        pts = ax[:, None]
        di = np.arange(m)
        sq = (di[:, None] - di[None, :]) ** 2
    else:
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        di = np.repeat(np.arange(m), m)
        dj = np.tile(np.arange(m), m)
        sq = (di[:, None] - di[None, :]) ** 2 + (dj[:, None] - dj[None, :]) ** 2
    uniq, inv = np.unique(sq, return_inverse=True)
    radii = step * np.sqrt(uniq.astype(float))
    values = free_kernel_radial(n, mu, radii)[inv].reshape(sq.shape)
    return KernelEvaluation(
        KernelKind.FREE_LAPLACIAN, n, {"mu": float(mu)}, pts, pts, values
    )


# cubature (atol, rtol) per dimension; with no endpoint extrapolation at the
# square-root turning points, 1-d Z needs the tight pair to reach ~1e-13
_WEYL_TOL = {1: (1e-14, 1e-13), 2: (2e-8, 1e-9)}


def weyl_constant(V, mu, n):
    """Z = int (mu - V)_+^{n/2} dx over the droplet bounding box."""
    n = int(n)
    if n not in (1, 2):
        raise ValidationError("weyl_constant supports n in {1, 2}")
    half = droplet_half_width(V, mu)
    if half == 0.0:
        return 0.0
    L = half + 0.25  # integrand vanishes outside the droplet anyway
    atol, rtol = _WEYL_TOL[n]
    res = cubature(
        lambda x: np.maximum(mu - V(x), 0.0) ** (0.5 * n),
        np.full(n, -L),
        np.full(n, L),
        atol=atol,
        rtol=rtol,
    )
    if res.status != "converged":
        raise NumericalError(
            f"Weyl-constant cubature did not converge: error {res.error:.3e}"
        )
    return float(res.estimate)


def density_of_states(V, mu, n, x):
    """Normalized limiting density Z^{-1} (mu - V(x))_+^{n/2}.

    x has shape (..., n); the result has shape (...).
    """
    Z = weyl_constant(V, mu, n)
    if Z <= 0.0:
        raise ValidationError(
            "density_of_states is undefined: the droplet {V <= mu} is empty"
        )
    pts = np.asarray(x, dtype=float)
    vals = V(pts.reshape(-1, n)).reshape(pts.shape[:-1])
    return np.maximum(mu - vals, 0.0) ** (0.5 * n) / Z


def bulk_scale(hbar, V_x0, mu, n):
    """Microscopic bulk scale 2 pi hbar omega_n^{-1/n} / sqrt(mu - V(x0))."""
    if hbar <= 0.0:
        raise ValidationError("hbar must be positive")
    if not V_x0 < mu:
        raise ValidationError("bulk_scale requires V(x0) < mu")
    return (
        2.0
        * math.pi
        * hbar
        * unit_ball_volume(int(n)) ** (-1.0 / int(n))
        / math.sqrt(mu - V_x0)
    )


def edge_scale(hbar, grad_norm):
    """Microscopic edge scale hbar^{2/3} |grad V(x0)|^{-1/3}."""
    if hbar <= 0.0:
        raise ValidationError("hbar must be positive")
    if grad_norm <= 0.0:
        raise ValidationError(
            "edge_scale requires a nonzero potential gradient at x0"
        )
    return hbar ** (2.0 / 3.0) * grad_norm ** (-1.0 / 3.0)
