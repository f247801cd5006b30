"""Discretized Schrodinger operator -hbar^2 Laplacian + V and its projector.

A truncated box with Dirichlet boundary carries a second-order central
difference Hamiltonian.  Its eigenpairs below an energy cap form an
EigenSystem, and EigenSystem.below(mu) selects the filled levels <= mu that
every consumer shares: the convergence drivers, which read the projector
off the rows of grid nodes, the projector table of the kernel command,
interpolated between nodes, the DPP and the Agmon-weighted norms, which
quantify how strongly eigenfunctions stick to the classically allowed
region.
"""

import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack, eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NumericalError, ValidationError
from .kernels import KernelEvaluation, KernelKind
from .potential import lattice
from .specfun import unit_ball_volume

__all__ = [
    "Grid",
    "EigenSystem",
    "assemble_hamiltonian",
    "level_count",
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
        return lattice(self.interior_axis, self.dimension)


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
    kinetic = lap1
    for _ in range(grid.dimension - 1):
        kinetic = sp.kronsum(kinetic, lap1)
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

# the 1-D bisection runs on this many disjoint spectral slices; a constant,
# so the levels never depend on the machine's CPU count
_SLICES = 2

# below this many nodes a 1-D solve runs its tasks on the calling thread
# alone: on 2 vCPUs a second thread took 0.66-1.27 times the one-thread
# time of the solve at G = 199 to 1,499 (above 1 in most runs), and
# 0.54-0.76 times from G = 1,756 on
_THREADED_NODES = 2000

_LAPACK_DTYPES = (np.dtype(np.float64), np.dtype(np.int32))


def _pointer(arg):
    """A ctypes argument for a LAPACK routine: a bytes flag as it is, an int
    or float by reference, an array as a ctypes view of its data (a third
    of the cost of arg.ctypes.data), which keeps the array alive."""
    if isinstance(arg, bytes):
        return arg
    if isinstance(arg, int):
        return ctypes.byref(ctypes.c_int(arg))
    if isinstance(arg, float):
        return ctypes.byref(ctypes.c_double(arg))
    flags = arg.flags
    if arg.dtype not in _LAPACK_DTYPES or not (flags.c_contiguous
                                               and flags.writeable):
        raise TypeError("LAPACK takes writable C-contiguous float64 and "
                        "int32 arrays")
    return (ctypes.c_char * 0).from_buffer(arg)


@functools.cache
def _lapack(name):
    """scipy.linalg.cython_lapack's routine name as a function of its
    arguments but INFO, which raises NumericalError where INFO != 0.

    The routine's address comes out of its capsule; a ctypes call releases
    the GIL for its length, which scipy's f2py wrappers do not, so two
    threads can run LAPACK at once.
    """
    capi = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", capi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", capi))
    capsule = cython_lapack.__pyx_capi__[name]
    signature = get_name(capsule)  # b"void (char *, int *, ...)"
    pointers = [ctypes.c_void_p] * (signature.count(b",") + 1)
    routine = ctypes.CFUNCTYPE(None, *pointers)(get_pointer(capsule, signature))

    def call(*args):
        info = ctypes.c_int(0)
        routine(*map(_pointer, args), ctypes.byref(info))
        if info.value != 0:
            raise NumericalError(f"{name} failed (info={info.value})")

    return call


def _bisect(d, e, lo, hi, tol):
    """The eigenvalues in (lo, hi] of the tridiagonal (d, e), ascending, by
    bisection to tol (dstebz)."""
    G = d.size
    if e.size != G - 1:
        raise ValueError("e must have one entry fewer than d")
    m, nsplit = np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)
    w = np.empty(G)
    _lapack("dstebz")(b"V", b"E", G, float(lo), float(hi), 0, 0, float(tol),
                      d, e, m, nsplit, w, np.empty(G, dtype=np.int32),
                      np.empty(G, dtype=np.int32), np.empty(4 * G),
                      np.empty(3 * G, dtype=np.int32))
    return w[:m[0]].copy()  # a copy, so that the G-sized w is freed


def _inverse_iteration(d, e, w):
    """(G, M) unit eigenvectors of the tridiagonal (d, e) at the ascending
    levels w, orthogonalised against each other (dstein, one block)."""
    G, M = d.size, w.size
    if e.size != G - 1 or M > G:
        raise ValueError("e must have one entry fewer than d, w at most as many")
    z = np.empty((M, G))  # C order (M, G) is LAPACK's (G, M), ldz = G
    _lapack("dstein")(G, d, e, M, w, np.ones(M, dtype=np.int32), G, z, G,
                      np.empty(5 * G), np.empty(G, dtype=np.int32),
                      np.empty(M, dtype=np.int32))
    return z.T


def _worker_count():
    """Threads of the 1-D solve: one per slice, at most one per usable CPU."""
    return min(_SLICES, len(os.sched_getaffinity(0)))


def _parallel_map(fn, args, workers):
    """[fn(*a) for a in args], on the calling thread and workers - 1 pool
    threads, each taking the next a whenever it finishes one.

    The calling thread works too: its scratch arrays come from the
    allocator's main arena, where the freed ones are reused, while each
    pool thread keeps an arena of its own.  With one worker no pool is made
    (nor its module imported).
    """
    results = [None] * len(args)
    todo = iter(range(len(args)))  # its next() is atomic under the GIL

    def drain():
        for i in todo:
            results[i] = fn(*args[i])

    if workers == 1:
        drain()
        return results
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results


def _tridiagonal_eigenvectors(H, cap):
    """(vals, vecs): the eigenpairs of the tridiagonal H with eigenvalue <=
    cap, ascending, with unit columns and pinned signs.

    A coarse bisection (eigh_tridiagonal to 1/64 of the window) counts the
    N levels in (lo, cap] and cuts the window into _SLICES slices of about
    N / _SLICES levels, midway between two coarse levels.  Bisection
    (dstebz) places each slice's levels to 1e-4 of the cluster gap.  A cut's
    Sturm count is one function of (d, e, cut) in both slices it bounds, so
    no level is lost or found twice (Demmel, Dhillon and Ren, ETNA 3, 1995);
    slice counts that do not add up to N raise.  Then one inverse-iteration
    (dstein) call per cluster of levels closer than _CLUSTER_GAP * ||H||,
    the clusters cut over the whole spectrum, so that a tunnelling pair the
    slices split is joined again, shrinks the vector error by that 1e-4 on
    each of its three or more solves, and Rayleigh-Ritz on the cluster gives
    the eigenvalues to O(eps ||H||).  dstein orthogonalises only within a
    call; given all levels at once it would re-orthogonalise every vector
    against all earlier ones at O(N^2 G) cost on a fine grid.

    Slices, then clusters, are independent tasks (Lo, Philippe and Sameh,
    SIAM J. Sci. Stat. Comput. 8, 1987), run on min(_SLICES, usable CPUs)
    threads from _THREADED_NODES nodes on, one below, with LAPACK called
    GIL-free.  A task computes the same bits on any thread, so the result
    does not depend on the thread count.
    """
    d = H.diagonal().astype(float)
    e = np.asarray(H.diagonal(1), dtype=float)
    G = d.size
    emax = float(np.max(np.abs(e), initial=0.0))
    tnorm = float(np.max(np.abs(d))) + 2.0 * emax
    lo = float(np.min(d)) - 2.0 * emax - 1.0
    if lo >= cap:
        return np.empty(0), np.empty((G, 0))
    coarse = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                              select_range=(lo, cap), tol=(cap - lo) / 64)
    N = coarse.size
    ends = np.concatenate([[lo], coarse, [cap]])
    k = np.arange(1, _SLICES) * N // _SLICES
    bounds = [lo, *(0.5 * (ends[k] + ends[k + 1])), cap]
    tol = 1e-4 * _CLUSTER_GAP * tnorm
    workers = _worker_count() if G >= _THREADED_NODES else 1
    vals = np.concatenate(_parallel_map(
        _bisect, [(d, e, a, b, tol) for a, b in zip(bounds, bounds[1:])],
        workers))
    if vals.size != N:
        raise NumericalError(f"the {_SLICES} bisection slices hold "
                             f"{vals.size} levels, not the {N} counted")
    gaps = np.diff(vals, prepend=-np.inf, append=np.inf)
    edges = np.flatnonzero(gaps > _CLUSTER_GAP * tnorm)  # 0, cuts..., N
    vecs = np.empty((G, N))

    def cluster(a, b):
        z = _inverse_iteration(d, e, vals[a:b])
        hz = d[:, None] * z  # H @ z, summed in the CSR product's order
        hz[1:] += e[:, None] * z[:-1]
        hz[:-1] += e[:, None] * z[1:]
        ritz, rot = np.linalg.eigh(z.T @ hz)
        # the bisection count decides which levels exist, not the rounding
        vals[a:b] = np.minimum(ritz, cap)
        # pinned per cluster: the temporaries of pinning all N columns at
        # once would add 27 MB to the peak RSS at G=33,941, N=400
        vecs[:, a:b] = _fix_signs(z @ rot)

    _parallel_map(cluster, list(zip(edges[:-1], edges[1:])), workers)
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


def level_count(H, cap):
    """Number of eigenvalues of the symmetric H below cap: the negative
    pivots of an LDL^T of H - cap I, by Sylvester's law of inertia.

    SuperLU in symmetric mode without pivoting factors H - cap I on a
    symmetric minimum-degree ordering as L D L^T, U = D L^T.  A level
    within rounding of cap may be counted or not, so callers that need an
    exact count keep cap between levels; bisection (the 1-D eigensolve)
    counts (lo, cap] instead.  A singular factor, a row exchange or a zero
    or non-finite pivot leaves the inertia undefined: NumericalError.
    """
    try:
        lu = splu((H - cap * sp.identity(H.shape[0])).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericalError(f"no inertia count at cap={cap:g}: {exc}") from exc
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(np.isfinite(pivots) & (pivots != 0.0))):
        raise NumericalError(f"no inertia count at cap={cap:g}: a row "
                             "exchange or a zero or non-finite pivot")
    return int(np.count_nonzero(pivots < 0.0))


def _solve_peak_bytes(n, m, N_est):
    """Estimated peak bytes of a solve with about N_est levels on m interior
    nodes, its eigenvectors included.

    1-D: the (m, N) eigenvectors and the one copy of them that the DPP or
    the Agmon check makes.  2-D, for the Lanczos call at k = N: eigsh's
    Lanczos basis and Ritz block (ncv columns each), the N returned
    vectors, ARPACK's ncv (ncv + 8) work array, and the LU of H - sigma I,
    whose minimum-degree fill took 33-37 m log2 m bytes of RSS for m from
    1e4 to 3.6e5 on the square grid (48 here).  m is a float, so a huge
    grid gives inf rather than an OverflowError.
    """
    N = min(N_est, m)
    if n == 1:
        return 16.0 * m * N
    ncv = min(m, max(2.0 * N + 1.0, 20.0))
    lu = 48.0 * m * math.log2(m)
    return 8.0 * (m * (2.0 * ncv + N) + ncv * (ncv + 8.0)) + lu


def eigensolve(H, cap, grid, hbar):
    """All eigenpairs of H with eigenvalue <= cap, weighted-orthonormalized.

    n=1 counts the levels in (min, cap] by a coarse bisection, which cuts
    the window into two slices of about N / 2 levels; it places each
    slice's levels by bisection to 1e-10 ||H||, then finds the eigenvectors
    by inverse iteration and the eigenvalues by Rayleigh-Ritz, one call per
    cluster of close levels (_tridiagonal_eigenvectors).  Slices, then
    clusters, run on min(2, usable CPUs) threads from 2,000 nodes on, with
    the same bits on any number of threads: the parallel bisection and
    inverse iteration of Lo, Philippe and Sameh (SIAM J. Sci. Stat. Comput.
    8, 1987), with each cut's Sturm count shared by both its slices as
    Demmel, Dhillon and Ren require (ETNA 3, 1995);
    n=2 counts the N levels below cap by inertia (level_count), then makes
    one shift-inverted Lanczos call for exactly N levels, certified by the
    top one lying at or below cap, on one minimum-degree LU of H - sigma I,
    sigma a tenth of the window [gersh_lo, cap] below the Gershgorin bound
    gersh_lo.  N = 0 gives no levels and no Lanczos call.
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
        N = level_count(H, cap)
        if N == 0:
            return EigenSystem(hbar, cap, np.empty(0), np.empty((m, 0)), grid)
        if N >= m - 1:  # eigsh's bound on k
            raise ValidationError(f"{N} levels below {cap:g} on only {m} nodes")
        row_abs = np.asarray(np.abs(H).sum(axis=1)).ravel()
        diag = H.diagonal()
        gersh_lo = float(np.min(diag - (row_abs - np.abs(diag))))
        # scaled to the window, whatever the energy units
        sigma = gersh_lo - 0.1 * (cap - gersh_lo)
        # H - sigma I is positive definite: a symmetric minimum-degree
        # ordering fills it in less than eigsh's own COLAMD factor
        lu = splu((H - sigma * sp.identity(m)).tocsc(), permc_spec="MMD_AT_PLUS_A")
        OPinv = LinearOperator((m, m), matvec=lu.solve, dtype=float)
        # a fixed start vector: without one ARPACK seeds each call from OS
        # entropy and the eigenvectors differ in the last bits from run to
        # run; not a constant, which is orthogonal to every odd eigenfunction
        # of a symmetric well
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
        try:
            vals, vecs = eigsh(H, k=N, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)
        except ArpackNoConvergence as exc:
            raise NumericalError(f"Lanczos failed for {N} levels: {exc}") from exc
        order = np.argsort(vals)
        vals = vals[order]
        if not vals[-1] <= cap:
            raise NumericalError(f"Lanczos found {vals[-1]!r} above cap={cap:g} "
                                 f"among the {N} levels the inertia counts")
        # not in place, nor in one expression: either raised a 2-D solve's
        # peak RSS by 6 MB, through the allocator's reuse of the freed blocks
        vecs = np.ascontiguousarray(vecs[:, order], dtype=float)
        vecs = _fix_signs(vecs / scale)
    return EigenSystem(float(hbar), float(cap), np.asarray(vals, dtype=float),
                       vecs, grid)


def _interpolate(grid, columns, points):
    """Multilinear interpolant of the interior columns at points (m, n).

    The interpolator is built only on the axis nodes that bracket some
    point, so no copy of the whole (G, K) block is made; boundary nodes
    carry the Dirichlet zero.  Both searchsorted sides are kept, so a point
    on a node finds the same node pair as on the full axis.
    """
    # imported on use, so that only kernel --kind projector loads it
    from scipy.interpolate import RegularGridInterpolator

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


def rescaled_kernel(eigs, mu, points):
    """Pi(x, y) on every pair of the points (m, n): the projector onto the
    levels <= mu, as the kernel command tabulates it.

    Eigenfunctions are interpolated multilinearly between grid nodes, so
    point spacings should stay a few grid spacings wide.  Points outside
    the box raise.  The params record eps = 1 and x0 = 0: the rescaling
    is the identity.
    """
    lam, vecs = eigs.below(mu)
    grid = eigs.grid
    n = grid.dimension
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.max(np.abs(pts)) > grid.half_width:
        raise ValidationError("a kernel point lies outside the box")
    params = {"hbar": eigs.hbar, "mu": float(mu), "eps": 1.0}
    for k in range(n):
        params[f"x0_{k + 1}"] = 0.0
    # no filled level leaves no columns to interpolate
    A = _interpolate(grid, vecs, pts) if lam.size else np.zeros((len(pts), 0))
    return KernelEvaluation(KernelKind.PROJECTOR, n, params, pts, pts, A @ A.T)


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
    # imported on use, so that only agmon loads it
    from scipy.ndimage import distance_transform_edt

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
