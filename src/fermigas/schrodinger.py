"""Discretized Schrodinger operator -hbar^2 Laplacian + V and its projector.

A truncated box with Dirichlet boundary carries a second-order central
difference Hamiltonian.  Its eigenpairs below an energy cap form an
EigenSystem, and EigenSystem.below(mu) selects the filled levels <= mu that
every consumer shares: the projector kernel rescaled microscopically around
an interior point, the DPP and the Agmon-weighted norms, which quantify how
strongly eigenfunctions stick to the classically allowed region.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein
from scipy.ndimage import distance_transform_edt
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NumericalError, ValidationError
from .kernels import KernelEvaluation, KernelKind
from .potential import _MAX_HALF_WIDTH, droplet_half_width
from .specfun import unit_ball_volume

__all__ = [
    "Grid",
    "EigenSystem",
    "choose_box",
    "assemble_hamiltonian",
    "eigensolve",
    "rescaled_kernel",
    "edge_rotation",
    "agmon_check",
]


@dataclass(frozen=True)
class Grid:
    """Tensor lattice on [-L, L]^n; eigenproblems live on the interior nodes."""

    dimension: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValidationError("grid dimension must be 1 or 2")
        if self.half_width <= 0.0:
            raise ValidationError("grid half_width must be positive")
        if self.points_per_axis < 3:
            raise ValidationError("points_per_axis must be at least 3")

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @property
    def weight(self):
        """Quadrature weight of one node, spacing^n."""
        return self.spacing ** self.dimension

    @property
    def axis(self):
        return np.linspace(
            -self.half_width, self.half_width, self.points_per_axis
        )

    @property
    def interior_axis(self):
        return self.axis[1:-1]

    @property
    def interior_count(self):
        return (self.points_per_axis - 2) ** self.dimension

    def interior_points(self):
        """Interior nodes as an (m, n) array, x1-major ordering."""
        ax = self.interior_axis
        if self.dimension == 1:
            return ax[:, None]
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


def choose_box(V, M, margin):
    """Smallest half-width on a 0.5-lattice that safely contains {V <= M}.

    The box must dominate the droplet of level M + margin and satisfy
    V >= M + margin everywhere on its boundary, so that the Dirichlet
    truncation cannot disturb spectra below M.
    """
    level = M + margin
    inner = droplet_half_width(V, level)  # raises when unconfined
    n = V.dimension
    L = 0.5 * max(1.0, math.ceil(inner / 0.5))
    while L <= _MAX_HALF_WIDTH:
        if L >= inner and _boundary_min(V, L, n) >= level:
            return L
        L += 0.5
    raise ValidationError(
        f"no box with boundary above {level} found out to half-width "
        f"{_MAX_HALF_WIDTH:g}"
    )


def _boundary_min(V, L, n):
    if n == 1:
        pts = np.array([[-L], [L]])
        return float(np.min(V(pts)))
    t = np.linspace(-L, L, 257)
    edges = [
        np.column_stack([np.full_like(t, -L), t]),
        np.column_stack([np.full_like(t, L), t]),
        np.column_stack([t, np.full_like(t, -L)]),
        np.column_stack([t, np.full_like(t, L)]),
    ]
    return float(min(np.min(V(e)) for e in edges))


def assemble_hamiltonian(V, hbar, grid):
    """Sparse -hbar^2 (central-difference Laplacian) + diag(V) on the interior."""
    if hbar <= 0.0:
        raise ValidationError("hbar must be positive")
    h = grid.spacing
    mi = grid.points_per_axis - 2
    c = hbar * hbar / (h * h)
    if not math.isfinite(c * c):  # bisection squares the off-diagonal -c
        raise ValidationError(f"hbar={hbar:g} is too large for the grid")
    lap1 = sp.diags(
        [
            -c * np.ones(mi - 1),
            2.0 * c * np.ones(mi),
            -c * np.ones(mi - 1),
        ],
        offsets=(-1, 0, 1),
        format="csr",
    )
    if grid.dimension == 1:
        kinetic = lap1
    else:
        eye = sp.identity(mi, format="csr")
        kinetic = sp.kron(lap1, eye) + sp.kron(eye, lap1)
    pot = V(grid.interior_points())
    if not np.all(np.isfinite(pot)):
        raise ValidationError("the potential is not finite at an interior node")
    return (kinetic + sp.diags(pot)).tocsr()


@dataclass
class EigenSystem:
    """All eigenpairs with eigenvalue at most mu_cap, weighted-orthonormal."""

    hbar: float
    mu_cap: float
    eigenvalues: np.ndarray       # ascending, all <= mu_cap
    eigenvectors: np.ndarray      # column k: v_k on interior nodes
    grid: Grid

    def below(self, mu):
        """(eigenvalues, eigenvectors) of the filled levels <= mu.

        The levels are ascending, so these are views of the leading
        columns, not copies.
        """
        if mu > self.mu_cap:
            raise ValidationError(
                f"mu={mu} exceeds the solved cap {self.mu_cap}; spectrum incomplete"
            )
        N = int(np.count_nonzero(self.eigenvalues <= mu))
        return self.eigenvalues[:N], self.eigenvectors[:, :N]


def _fix_signs(vecs):
    """Pin each column's sign in place: its first entry of at least half the
    column's largest magnitude is made positive.

    Lanczos and inverse iteration return eigenvectors up to sign.  The
    largest entry itself would pick between the two mirror-image peaks of an
    odd eigenfunction in a symmetric well, which a last-bit change swaps;
    the first entry past half the peak, scanned from one end, stays put.
    """
    half = 0.5 * np.maximum(vecs.max(axis=0), -vecs.min(axis=0))
    big = vecs >= half  # booleans, not a float copy of |vecs|
    big |= vecs <= -half
    first = np.argmax(big, axis=0)
    vecs *= np.where(vecs[first, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
    return vecs


# levels further apart than this fraction of ||H|| get separate inverse
# iterations; the vectors of two such clusters stay orthogonal to about
# eps ||H|| / gap <= 2e-10, well inside the DPP's 1e-8 gate
_CLUSTER_GAP = 1e-6


def _tridiagonal_eigenvectors(H, cap):
    """(vals, vecs): the eigenpairs of the tridiagonal H with eigenvalue <=
    cap, ascending, with unit columns and pinned signs.

    Bisection (dstebz) counts the levels and places each to 1e-4 of the
    cluster gap.  One inverse-iteration (dstein) call per cluster of levels
    closer than _CLUSTER_GAP * ||H|| then shrinks the vector error by that
    1e-4 on each of its three or more solves, and Rayleigh-Ritz on the
    cluster gives the eigenvalues to O(eps ||H||).  dstein orthogonalises
    only within a call; given all levels at once it would re-orthogonalise
    every vector against all earlier ones at O(N^2 G) cost on a fine grid.
    """
    d = H.diagonal().astype(float)
    e = np.asarray(H.diagonal(1), dtype=float)
    G = d.size
    emax = float(np.max(np.abs(e), initial=0.0))
    tnorm = float(np.max(np.abs(d))) + 2.0 * emax
    lo = float(np.min(d)) - 2.0 * emax - 1.0
    vals = np.empty(0) if lo >= cap else eigh_tridiagonal(
        d, e, eigvals_only=True, select="v", select_range=(lo, cap),
        tol=1e-4 * _CLUSTER_GAP * tnorm,
    )
    gaps = np.diff(vals, prepend=-np.inf, append=np.inf)
    edges = np.flatnonzero(gaps > _CLUSTER_GAP * tnorm)  # 0, cuts..., N
    iblock = np.ones(G, dtype=np.int32)  # one unsplit block ...
    isplit = np.zeros(G, dtype=np.int32)
    isplit[0] = G  # ... ending at row G
    vecs = np.empty((G, vals.size))
    for a, b in zip(edges[:-1], edges[1:]):
        z, info = dstein(d, e, vals[a:b], iblock, isplit)
        if info != 0:
            raise NumericalError(
                f"inverse iteration failed for levels {a} to {b - 1} "
                f"(dstein info={info})"
            )
        ritz, rot = np.linalg.eigh(z.T @ (H @ z))
        # the bisection count decides which levels exist, not the rounding
        vals[a:b] = np.minimum(ritz, cap)
        # pinned per cluster: the temporaries of pinning all N columns at
        # once would add 27 MB to the peak RSS at G=33,941, N=400
        vecs[:, a:b] = _fix_signs(z @ rot)
    return vals, vecs


def _weyl_count(pot, cap, hbar, spacing, n):
    """Weyl estimate of the levels <= cap from potential values on a lattice.

    omega_n h^n sum_i (cap - pot_i)_+^{n/2} / (2 pi hbar)^n: the phase-space
    volume of {p^2 + V <= cap} in units of (2 pi hbar)^n, by a Riemann sum
    over the nodes.
    """
    fill = np.sum(np.maximum(cap - pot, 0.0) ** (0.5 * n))
    # a float product, which overflows to inf where ** would raise
    scale = math.prod([spacing / (2.0 * math.pi * hbar)] * n)
    return unit_ball_volume(n) * float(fill) * scale


def _diagonal_potential(H, grid, hbar):
    """V on the interior nodes, read off H's diagonal: V plus the
    Laplacian's 2n hbar^2 / h^2."""
    n, h = grid.dimension, grid.spacing
    return H.diagonal() - 2.0 * n * hbar * hbar / (h * h)


def _lanczos_block(m, N_est):
    """First Lanczos block for about N_est levels among m nodes."""
    est = 1.2 * N_est + 8.0
    return m - 1 if not est < m - 1 else math.ceil(est)


def _solve_peak_bytes(n, m, N_est):
    """Estimated peak bytes of a solve with about N_est levels on m interior
    nodes, its eigenvectors included.

    1-D: the (m, N) eigenvectors and the one copy of them that the DPP or
    the Agmon check makes.  2-D, for the first Lanczos call: eigsh's
    Lanczos basis and Ritz block (ncv columns each), the k returned
    vectors, ARPACK's ncv (ncv + 8) work array, and the LU of H - sigma I,
    whose minimum-degree fill took 33-37 m log2 m bytes of RSS for m from
    1e4 to 3.6e5 on the square grid (48 here).  m is a float, so a huge
    grid gives inf rather than an OverflowError.
    """
    N = min(N_est, m)
    if n == 1:
        return 16.0 * m * N
    k = _lanczos_block(m, N_est)
    ncv = min(m, max(2.0 * k + 1.0, 20.0))
    lu = 48.0 * m * math.log2(m)
    return 8.0 * (m * (2.0 * ncv + k) + ncv * (ncv + 8.0)) + lu


def eigensolve(H, cap, grid, hbar):
    """All eigenpairs of H with eigenvalue <= cap, weighted-orthonormalized.

    n=1 counts and places the levels in (min, cap] by bisection to 1e-10
    ||H||, then finds the eigenvectors by inverse iteration and the
    eigenvalues by Rayleigh-Ritz, one call per cluster of close levels;
    n=2 runs shift-inverted Lanczos on one minimum-degree LU of H - sigma I,
    with sigma a tenth of the window [gersh_lo, cap] below the Gershgorin
    bound gersh_lo and the block sized from the Weyl count of the grid, and
    doubles the block until the whole window is certified captured.  A cap
    at or below gersh_lo gives no levels and no factorisation.
    """
    m = H.shape[0]
    if grid.interior_count != m:
        raise ValidationError("grid does not match the Hamiltonian size")
    # both solvers give unit Euclidean columns; each branch rescales them to
    # the weighted product
    scale = math.sqrt(grid.weight)
    if grid.dimension == 1:
        vals, vecs = _tridiagonal_eigenvectors(H, cap)
        np.divide(vecs, scale, out=vecs)  # 108 MB at G=33,941, N=400
    else:
        row_abs = np.asarray(np.abs(H).sum(axis=1)).ravel()
        diag = H.diagonal()
        gersh_lo = float(np.min(diag - (row_abs - np.abs(diag))))
        if cap <= gersh_lo:  # Gershgorin: every level lies above gersh_lo
            return EigenSystem(hbar, cap, np.empty(0), np.empty((m, 0)), grid)
        # scaled to the window, whatever the energy units
        sigma = gersh_lo - 0.1 * (cap - gersh_lo)
        pot = _diagonal_potential(H, grid, hbar)
        N_est = _weyl_count(pot, cap, hbar, grid.spacing, grid.dimension)
        if not math.isfinite(N_est):
            raise ValidationError(
                f"hbar={hbar:g} is too small for the grid: the Weyl count of "
                f"the levels <= {cap:g} is not finite"
            )
        k = _lanczos_block(m, N_est)
        # H - sigma I is positive definite: a symmetric minimum-degree
        # ordering fills it in less than eigsh's own COLAMD factor, and every
        # doubling round reuses this one factor
        lu = splu((H - sigma * sp.identity(m)).tocsc(), permc_spec="MMD_AT_PLUS_A")
        OPinv = LinearOperator((m, m), matvec=lu.solve, dtype=float)
        # a fixed start vector: without one ARPACK seeds each call from OS
        # entropy and the eigenvectors differ in the last bits from run to
        # run; not a constant, which is orthogonal to every odd eigenfunction
        # of a symmetric well
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
        vals = vecs = None
        for _ in range(6):  # the Weyl-sized block and five doublings
            try:
                w, u = eigsh(H, k=k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)
            except ArpackNoConvergence as exc:
                raise NumericalError(
                    f"Lanczos failed to converge at block size {k}: {exc}"
                ) from exc
            order = np.argsort(w)
            w = w[order]
            u = u[:, order]
            if w[-1] > cap or k >= m - 1:
                keep = w <= cap
                vals, vecs = w[keep], u[:, keep]
                break
            k = min(m - 1, 2 * k)
        if vals is None:
            raise NumericalError(
                "eigensolve could not certify capturing all eigenvalues "
                f"below {cap}; spectrum still inside the window at k={k}"
            )
        # not in place, nor in one expression: either raised weyl_2d's peak
        # RSS by 6 MB, through the allocator's reuse of the freed blocks
        vecs = np.ascontiguousarray(vecs, dtype=float)
        vecs = _fix_signs(vecs / scale)
    return EigenSystem(
        hbar=float(hbar),
        mu_cap=float(cap),
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        grid=grid,
    )


def _point(x, n, name):
    """x as a vector of n floats, or a ValidationError that names it."""
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != n:
        plural = "" if n == 1 else "s"
        raise ValidationError(f"{name} needs {n} component{plural}, got {p.size}")
    return p


def _interpolate(grid, columns, points):
    """Multilinear interpolant of the interior columns at points (m, n).

    The interpolator is built only on the axis nodes that bracket some
    point, so no copy of the whole (G, K) block is made; boundary nodes
    carry the Dirichlet zero.  Both searchsorted sides are kept, so a point
    on a node finds the same node pair as on the full axis.
    """
    mi = grid.points_per_axis - 2
    axis = grid.axis
    nodes = []
    for p in points.T:
        i = np.concatenate([
            np.searchsorted(axis, p, side="left"),
            np.searchsorted(axis, p, side="right"),
        ]) - 1
        nodes.append(np.unique(np.clip(np.concatenate([i, i + 1]), 0, mi + 1)))
    block = columns.reshape((mi,) * grid.dimension + (-1,))
    values = block[np.ix_(*[np.clip(i - 1, 0, mi - 1) for i in nodes])]
    for k, i in enumerate(nodes):
        values[(slice(None),) * k + ((i == 0) | (i == mi + 1),)] = 0.0
    interp = RegularGridInterpolator(
        tuple(axis[i] for i in nodes), values, method="linear", bounds_error=True
    )
    return interp(points)


def rescaled_kernel(eigs, mu, x0, eps, U, x_list, y_list):
    """eps^n Pi(x0 + eps U^T x, x0 + eps U^T y) on the probe rectangle.

    Pi projects onto the levels <= mu.  Eigenfunctions are interpolated
    bilinearly between grid nodes, so probe spacings should stay a few grid
    spacings wide.  Probes outside the box raise.
    """
    lam, vecs = eigs.below(mu)
    grid = eigs.grid
    n = grid.dimension
    if eps <= 0.0:
        raise ValidationError("eps must be positive")
    U = np.asarray(U, dtype=float)
    if U.shape != (n, n) or not np.allclose(U @ U.T, np.eye(n), atol=1e-10):
        raise ValidationError("U must be an orthogonal n-by-n matrix")
    x0 = _point(x0, n, "x0")
    xs = np.atleast_2d(np.asarray(x_list, dtype=float))
    ys = np.atleast_2d(np.asarray(y_list, dtype=float))
    px = x0[None, :] + eps * xs @ U  # rows: x0 + eps U^T x
    py = x0[None, :] + eps * ys @ U
    L = grid.half_width
    if np.max(np.abs(px)) > L or np.max(np.abs(py)) > L:
        raise ValidationError("a rescaled probe point lies outside the box")
    params = {"hbar": eigs.hbar, "mu": float(mu), "eps": float(eps)}
    for k in range(n):
        params[f"x0_{k + 1}"] = float(x0[k])
    if lam.size == 0:
        values = np.zeros((xs.shape[0], ys.shape[0]))
        return KernelEvaluation(
            KernelKind.PROJECTOR, n, params, xs, ys, values
        )
    A = _interpolate(grid, vecs, px)
    B = _interpolate(grid, vecs, py)
    values = (eps ** n) * (A @ B.T)
    return KernelEvaluation(KernelKind.PROJECTOR, n, params, xs, ys, values)


def edge_rotation(grad):
    """Special-orthogonal U with U grad = |grad| e_1."""
    g = np.asarray(grad, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise ValidationError("edge_rotation requires a nonzero gradient")
    n = g.size
    if n == 1:
        return np.array([[1.0]]) if g[0] > 0 else np.array([[-1.0]])
    u = g / norm
    w = u - np.eye(n)[0]
    if np.dot(w, w) < 1e-28:
        return np.eye(n)
    Hh = np.eye(n) - 2.0 * np.outer(w, w) / np.dot(w, w)
    Hh[-1, :] = -Hh[-1, :]  # flip one row: reflection becomes a rotation
    return Hh


@dataclass
class AgmonReport:
    delta: float
    bound: float                 # 1 + 2 mu / delta
    eigenvalues: np.ndarray
    norms: np.ndarray            # per level RMS of |e^{f_delta/hbar} v_k|
    distance: np.ndarray         # dist(node, {V <= mu + delta}) per interior node


def agmon_check(eigs, V, mu, delta):
    """Weighted norms of e^{f_delta/hbar} v_k for every eigenvalue <= mu,
    each the RMS over the v_k of its level (eigenvalues equal to 1e-9
    relative), so that no basis choice inside a degenerate level shows.

    f_delta(x) = delta * dist(x, {V <= mu + delta}) with the distance taken
    to the nearest interior node of the sublevel set, by an exact Euclidean
    distance transform of the node mask (0 on the set itself).
    """
    if not 0.0 < delta <= 1.0:
        raise ValidationError("delta must lie in (0, 1]")
    if mu + delta > eigs.mu_cap + 1e-12:
        raise ValidationError("agmon_check needs mu <= mu_cap - delta")
    grid = eigs.grid
    inside = V(grid.interior_points()) <= mu + delta
    if not np.any(inside):
        raise ValidationError("the sublevel set {V <= mu + delta} misses the grid")
    mask = inside.reshape((grid.points_per_axis - 2,) * grid.dimension)
    dist = distance_transform_edt(~mask, sampling=grid.spacing).ravel()
    lam, vecs = eigs.below(mu)
    # columns contiguous, so each norm below is one pairwise sum
    weighted = np.multiply(
        np.exp(delta * dist / eigs.hbar)[:, None], vecs, order="F"
    )
    sq = np.sum(weighted * weighted, axis=0) * grid.weight
    same = np.isclose(lam[:, None], lam[None, :], rtol=1e-9, atol=0.0)
    norms = np.sqrt(same @ sq / same.sum(axis=1))
    return AgmonReport(
        delta=float(delta),
        bound=1.0 + 2.0 * mu / delta,
        eigenvalues=lam,
        norms=norms,
        distance=dist,
    )
