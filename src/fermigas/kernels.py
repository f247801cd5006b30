"""Limiting kernels and macroscopic quantities.

Free-Laplacian kernel at any radius, the density-one bulk kernel, the edge
kernel built from its Airy-times-transverse-Bessel integral representation,
the closed-form 1-d Airy kernel, the semiclassical density of states, the
Weyl-law constant, and the two microscopic scales.  Every kernel and the
density take point arrays that broadcast: points (..., n) give values (...),
and the 1-d Airy kernel maps coordinate arrays.  The edge kernel integrates
all of its point pairs with one scipy.integrate.quad_vec call, and the Weyl
constant is one cubature over x1 on choose_box's box in every dimension, split
at the droplet's x1 ends, of exact line sections in 2-d.
"""

import math

import numpy as np
from scipy.integrate import cubature, quad, quad_vec
from scipy.optimize.elementwise import find_minimum, find_root

from .errors import NumericalError, ValidationError
from .potential import choose_box, lattice
from .specfun import (
    airy_ai,
    airy_ai_prime,
    bessel_j,
    bulk_wavenumber,
    unit_ball_volume,
)

__all__ = [
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
    # a float product, which overflows to inf where ** would raise
    diag = math.prod([mu] * n) * unit_ball_volume(n) / (2.0 * math.pi) ** n
    if not math.isfinite(diag):
        raise ValidationError(f"mu={mu:g} is too large: the free kernel's "
                              f"diagonal mu^{n} omega_{n} / (2 pi)^{n} "
                              "overflows")
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

    Elementwise in x and y, which broadcast.  Near the diagonal the quotient
    cancels catastrophically, so for |x - y| <= 1e-5 the midpoint diagonal
    formula is used instead; its error is O((x-y)^2) by the symmetric
    expansion with Ai'' = x Ai.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    near = np.abs(x - y) <= 1e-5
    val = np.asarray(
        (airy_ai(x) * airy_ai_prime(y) - airy_ai_prime(x) * airy_ai(y))
        / np.where(near, 1.0, x - y)
    )
    # the midpoint formula, with Ai and Ai' evaluated on near pairs only
    m = 0.5 * (x + y)[near]
    val[near] = airy_ai_prime(m) ** 2 - m * airy_ai(m) ** 2
    return float(val) if val.ndim == 0 else val


def _airy_envelope(t):
    """Certified pointwise bound on |Ai(t)|, valid for every real t."""
    if t < 1.0:
        return _AIRY_SUP
    return (
        1.1
        * math.exp(-(2.0 / 3.0) * t ** 1.5)
        / (2.0 * math.sqrt(math.pi) * t ** 0.25)
    )


# bound on the edge kernel's discarded tail; ten times it on quad_vec's error
_EDGE_TOL = 1e-8


def _edge_tail_bound(n, x1, y1, s_max):
    """Certified bound on the edge kernel's s-integral past s_max.

    The discarded tail is bounded by
    int_{s_max}^inf env(x1+s) env(y1+s) diag_{n-1}(sqrt(s)) ds
    since a positive-contraction kernel is dominated by its diagonal
    s^{(n-1)/2} omega_{n-1} / (2 pi)^{n-1}; env is the Airy envelope.
    """
    pref = unit_ball_volume(n - 1) / (2.0 * math.pi) ** (n - 1)

    def tail_integrand(s):
        trans = pref * s ** (0.5 * (n - 1))
        return _airy_envelope(x1 + s) * _airy_envelope(y1 + s) * trans

    # past this point the envelope is far below double precision
    upper = max(s_max + 30.0, 3.0 - min(x1, y1) + 30.0)
    val, _ = quad(tail_integrand, s_max, upper, limit=100)
    return float(val)


def edge_kernel(n, x, y):
    """Edge kernel: int_0^inf Ai(x1+s) Ai(y1+s) K_{b,sqrt(s)}^{(n-1)} ds.

    x and y of shape (..., n) broadcast; the result has shape (...).  The
    transverse factor is the free-Laplacian kernel in dimension n-1 at
    radius sqrt(s) evaluated at the perpendicular components (1 when n=1).
    One quad_vec call integrates every pair up to s_max = 40 - min(x1, y1),
    at least 1, where the Airy envelope certifies the tail at the smallest
    x1 and y1; the envelope is nonincreasing, so that bound covers every
    pair.
    """
    n = int(n)
    if n < 1:
        raise ValidationError("edge_kernel requires n >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (n,) or y.shape[-1:] != (n,):
        raise ValidationError(f"points must be {n}-vectors")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("edge_kernel requires finite points")
    x1, y1 = x[..., 0], y[..., 0]
    x1_min, y1_min = x1.min(), y1.min()
    s_max = float(max(1.0, 40.0 - min(x1_min, y1_min)))
    tail = _edge_tail_bound(n, x1_min, y1_min, s_max)
    if tail > _EDGE_TOL:
        raise NumericalError(
            f"edge quadrature tail bound {tail:.3e} exceeds {_EDGE_TOL:.3e}"
        )
    r = np.linalg.norm(x[..., 1:] - y[..., 1:], axis=-1)

    def integrand(s):
        val = airy_ai(x1 + s) * airy_ai(y1 + s)
        if n == 1:
            return val
        return val * free_kernel_radial(n - 1, math.sqrt(s), r)

    breaks = np.unique(-np.concatenate([x1.ravel(), y1.ravel()]))
    val, err = quad_vec(
        integrand,
        0.0,
        s_max,
        points=breaks[(breaks > 0.0) & (breaks < s_max)],
        epsabs=1e-10,
        epsrel=1e-10,
        norm="max",
    )
    if not err <= 10.0 * _EDGE_TOL + 1e-13:
        raise NumericalError(
            f"edge-kernel quadrature error estimate {err:.3e} too large"
        )
    return val


def free_laplacian_window(n, mu, half, step):
    """(points, values): the free-Laplacian kernel on every pair of nodes of
    the lattice of [-half, half]^n, values[i, j] = K(x_i, x_j).

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
    pts = lattice(-half + step * np.arange(m), n)
    sq = sum((d[:, None] - d[None, :]) ** 2 for d in lattice(np.arange(m), n).T)
    uniq, inv = np.unique(sq, return_inverse=True)
    radii = step * np.sqrt(uniq.astype(float))
    return pts, free_kernel_radial(n, mu, radii)[inv].reshape(sq.shape)


# Z: samples on the x1 lattice and each 2-d line, Gauss-Legendre per piece
_LINE_SAMPLES = 257
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _refined_roots(g, lo, hi, args=()):
    roots = find_root(g, (lo, hi), args=args)
    if not np.all(roots.success):
        raise NumericalError("Weyl constant: a root refinement failed")
    return roots.x


def _line_max(g, t):
    """x1 -> sign * max of g(., x1) on the lattice t, refined about its peak.

    It takes the (x, line, sign) arguments of g, the line ignored, so that
    _crossings can split its wrong-sign extrema as it does g's."""
    def top(x1, _=None, sign=1.0):
        v = g(t, x1[:, None])
        j = np.clip(np.argmax(v, axis=1), 1, t.size - 2)
        peak = find_minimum(g, (t[j - 1], t[j], t[j + 1]), args=(x1, -1.0))
        return sign * np.fmax(v.max(axis=1), -peak.f_x)  # nan: no bracket
    return top


def _crossings(g, t, x1):
    """Sign changes of g(., x1) along the lattice t, for each x1 of a batch.

    Returns (line, root): the x1 index of each crossing and its refined
    position, line by line and in order along each line.  Sampled extrema
    of the wrong sign within one second difference of zero are split at
    their find_minimum point, so that a crossing pair between two samples
    shows.  g(x, x1, sign) is sign * the function; it may ignore x1."""
    line, x2 = np.repeat(np.arange(x1.size), t.size), np.tile(t, x1.size)
    v = np.broadcast_to(g(t, x1[:, None]), (x1.size, t.size))
    val, mid, d2, slope = v.ravel(), v[:, 1:-1], np.diff(v, 2), np.diff(v)
    i, j = np.nonzero((slope[:, 1:] * slope[:, :-1] <= 0.0)
                      & (np.abs(mid) <= np.abs(d2)) & ((mid > 0.0) == (d2 > 0.0)))
    if i.size:
        sign = np.where(d2[i, j] > 0.0, 1.0, -1.0)  # minimise g at dips
        ext = find_minimum(g, (t[j], t[j + 1], t[j + 2]), args=(x1[i], sign))
        new = (sign * ext.f_x > 0.0) != (mid[i, j] > 0.0)
        at = (i * t.size + j + 1 + (ext.x > t[j + 1]))[new]  # keeps order
        line, x2 = np.insert(line, at, i[new]), np.insert(x2, at, ext.x[new])
        val = np.insert(val, at, (sign * ext.f_x)[new])
    k = np.flatnonzero((line[1:] == line[:-1]) & np.diff(val > 0.0))
    return line[k], _refined_roots(g, x2[k], x2[k + 1], (x1[line[k]],))


def _line_sections(g, t, x1):
    """int (g(x2, x1))_+ dx2 over the lattice t, for each x1 of a batch.

    The crossings cut the lines into pieces of one sign, each integrated by
    Gauss-Legendre."""
    line, roots = _crossings(g, t, x1)
    at = 2 * line + 1  # cuts per line: t[0], its roots in order, t[-1]
    cut = np.insert(np.tile(t[[0, -1]], x1.size), at, roots)
    cut_line = np.insert(np.repeat(np.arange(x1.size), 2), at, line)
    same = cut_line[1:] == cut_line[:-1]
    a, b, piece = cut[:-1][same], cut[1:][same], cut_line[1:][same]
    half = 0.5 * (b - a)[:, None]
    f = g(0.5 * (a + b)[:, None] + half * _GL_NODES, x1[piece, None])
    return np.bincount(piece, np.maximum(f, 0.0) * half @ _GL_WEIGHTS, x1.size)


def weyl_constant(V, mu):
    """Z = int (mu - V)_+^{n/2} dx, n the dimension of V, by one cubature.

    The cubature runs over x1 on choose_box's box at level mu, widened by a
    lattice step, its regions split where the droplet's x1 sections appear
    or vanish: the crossings of mu - V in 1-d, of the line maximum in 2-d.
    In 2-d the integrand is the exact line section int (mu - V)_+ dx2.  All
    kinks sit on region ends, so Z is good to ~1e-12.
    """
    n = V.dimension
    if n not in (1, 2):
        raise ValidationError("weyl_constant supports n in {1, 2}")
    # V >= mu on the box boundary, one lattice step inside the lattice's ends
    L = choose_box(V, mu, 0.0) * (_LINE_SAMPLES - 1) / (_LINE_SAMPLES - 3)
    t = np.linspace(-L, L, _LINE_SAMPLES)
    if not np.all(np.isfinite(V(lattice(t, n)))):
        raise ValidationError("the potential is not finite on the box")
    if n == 1:
        def top(x, _=None, sign=1.0):
            return sign * (mu - V(x))

        f = lambda x: np.maximum(top(x), 0.0) ** 0.5
        # no endpoint extrapolation at the square-root turning points
        tol = (1e-14, 1e-13)
    else:
        def g(x2, x1, sign=1.0):
            return sign * (mu - V(np.stack(np.broadcast_arrays(x1, x2), -1)))

        top, f = _line_max(g, t), lambda x: _line_sections(g, t, x[:, 0])
        tol = (1e-13, 1e-12)
    _, edges = _crossings(top, t, np.zeros(1))
    res = cubature(f, [-L], [L], atol=tol[0], rtol=tol[1],
                   points=[[e] for e in edges])
    if res.status != "converged":
        raise NumericalError(
            f"Weyl-constant cubature did not converge: error {res.error:.3e}"
        )
    return float(res.estimate)


def density_of_states(V, mu, x, Z):
    """Normalized limiting density Z^{-1} (mu - V(x))_+^{n/2}.

    x has shape (..., n) with n the dimension of V; the result has shape
    (...).  Z is
    weyl_constant(V, mu), taken from the caller so that one cubature
    serves every evaluation (lln_wasserstein's whole hbar list).
    """
    if Z <= 0.0:
        raise ValidationError(
            "density_of_states is undefined: the droplet {V <= mu} is empty"
        )
    n = V.dimension
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
