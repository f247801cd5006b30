"""Discretized Schrodinger operator -hbar^2 Laplacian + V and its projector.

A truncated box with Dirichlet boundary carries a second-order central
difference Hamiltonian.  Its eigenpairs below an energy cap, each checked
to a residual of 1e-10 ||H|| (by a Rayleigh-Ritz step, or for a separable
2-D V, whose eigenvectors are products u_i x w_j of 1-D ones, by the bound
max_i ||T1 u_i - a_i u_i|| + max_j ||T2 w_j - b_j w_j|| on it), form an
EigenSystem whose columns are eigenvectors up to sign.
EigenSystem.below(mu) selects the filled levels <= mu that every consumer
shares: the convergence drivers and the projector table of the kernel
command, which solve for the rows of the grid nodes nearest their points
alone (node_index) and read the projector off them, the DPP and the
Agmon-weighted norms, which quantify how strongly eigenfunctions stick to
the classically allowed region.
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
from .potential import lattice
from .specfun import unit_ball_volume

__all__ = [
    "Grid",
    "EigenSystem",
    "assemble_hamiltonian",
    "level_count",
    "eigensolve",
    "node_index",
    "edge_rotation",
    "AgmonReport",
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
    lap1 = sp.diags([-c, 2.0 * c, -c], (-1, 0, 1), shape=(mi, mi),
                    format="csr")
    kinetic = lap1
    for _ in range(grid.dimension - 1):
        kinetic = sp.kronsum(kinetic, lap1)
    pot = V(grid.interior_points())
    if not np.all(np.isfinite(pot)):
        raise ValidationError("the potential is not finite at an interior node")
    return (kinetic + sp.diags(pot)).tocsr()


@dataclass
class EigenSystem:
    """All eigenpairs with eigenvalue at most mu_cap, weighted-orthonormal.

    The eigenvectors hold every interior node, or the rows a caller asked
    eigensolve for alone; in 1-D they are column-major, one contiguous
    column per level.
    """

    hbar: float
    mu_cap: float
    eigenvalues: np.ndarray       # ascending, all <= mu_cap
    eigenvectors: np.ndarray      # column k: v_k on the solved rows
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


# a solve or brute-force lattice whose estimated peak memory would exceed
# this is refused before its large arrays are built
_MEMORY_BUDGET = 2 * 1024 ** 3

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

# scratch bytes per node of a 1-D solve that keeps a few rows: its traced
# peak was 147-167 bytes per node on 2 threads for G = 4,242 to 33,941
_ROW_SOLVE_BYTES = 256.0

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


def _tridiagonal_eigenvectors(H, cap, rows=None, scale=1.0):
    """(vals, vecs): the eigenpairs of the tridiagonal H with eigenvalue <=
    cap, ascending, with columns of norm 1 / scale, column-major, on the
    nodes rows alone (every node when None).

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
    each of its three or more solves, and the checked Rayleigh-Ritz step
    (_rayleigh_ritz) on the cluster gives the eigenvalues to O(eps ||H||)
    and refuses a residual above 1e-10 ||H||.  dstein orthogonalises only
    within a call; given all levels at once it would re-orthogonalise every
    vector against all earlier ones at O(N^2 G) cost on a fine grid.  The
    cluster task then divides its rows by scale into its own contiguous
    block of columns, the only write of its vectors: at G = 33,941 and N =
    400 a C-order (G, N) output took one cache line per entry, and a
    caller that reads 17 rows keeps 17 rows, not 108 MB.  Clusters whose
    blocks, with the output, would outgrow _MEMORY_BUDGET are refused
    (ValidationError) before the first one is solved.

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
    keep, height = (slice(None), G) if rows is None else (rows, len(rows))
    if lo >= cap:
        return np.empty(0), np.empty((0, height)).T
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
    # a cluster task holds three (G, k) blocks in Rayleigh-Ritz; where the
    # level spacing falls below _CLUSTER_GAP ||H|| (2 hbar on x1^2 from
    # hbar = 7e-4 down) every level joins one cluster
    held = np.sort(np.diff(edges))[-workers:].sum()  # levels in flight
    need = 8.0 * height * N + 24.0 * G * held
    if not need <= _MEMORY_BUDGET:
        raise ValidationError(
            f"the solve needs about {need / 1024 ** 3:.3g} GiB, for "
            f"inverse-iteration clusters of {held} of its {N} levels on {G} "
            f"nodes, over the {_MEMORY_BUDGET / 1024 ** 3:g} GiB budget")
    vecs = np.empty((N, height)).T
    hnorm = abs(H).sum(axis=1).max()  # ||H||_inf, once for every cluster

    def cluster(a, b):
        vals[a:b], block = _rayleigh_ritz(
            H, _inverse_iteration(d, e, vals[a:b]), cap, hnorm)
        np.divide(block[keep], scale, out=vecs[:, a:b])

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


def _ldlt(H, shift):
    """SuperLU's LDL^T of H - shift I (symmetric mode, no pivoting, symmetric
    minimum-degree ordering, U = D L^T); a singular one is a NumericalError."""
    try:
        return splu((H - shift * sp.identity(H.shape[0])).tocsc(),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericalError(f"no inertia count at {shift:g}: {exc}") from exc


def _additive_parts(D):
    """(d1, d2) with D[i, j] = d1[i] + d2[j] to 1e-12 max |D|, d1 = D[:, 0]
    - D[0, 0] / 2 and d2 = D[0, :] - D[0, 0] / 2; else None."""
    d1, d2 = D[:, 0] - 0.5 * D[0, 0], D[0, :] - 0.5 * D[0, 0]
    if not np.max(np.abs(D - d1[:, None] - d2)) <= 1e-12 * np.max(np.abs(D)):
        return None
    return d1, d2


def _separable(H, grid):
    """[T1, T2], the 1-D tridiagonals whose Kronecker sum is the 2-D H of
    assemble_hamiltonian, where its diagonal (x1 down the rows) is a sum
    d1[i] + d2[j] (_additive_parts); else None.  The off-diagonals are H's
    offset-k and offset-1."""
    if grid.dimension != 2:
        return None
    k = grid.points_per_axis - 2
    parts = _additive_parts(H.diagonal().reshape(k, k))
    if parts is None:
        return None
    e1, e2 = H.diagonal(k)[::k], H.diagonal(1)[:k - 1]
    return [sp.diags([e, d, e], (-1, 0, 1)) for d, e in zip(parts, (e1, e2))]


def _kronecker_levels(H, T1, T2, cap, rows=None, scale=1.0):
    """(vals, vecs): the levels a_i + b_j <= cap of H = T1 (+) T2, ascending
    in a stable sort of the flat indices i * b.size + j, and their
    unrotated eigenvectors u_i x w_j (Lynch, Rice and Thomas, Numer. Math.
    6, 1964), u_i and w_j the unit eigenvectors of T1 and T2
    (_tridiagonal_eigenvectors) below cap minus a lower bound of the
    other's spectrum; columns of norm 1 / scale, C order, on the flat nodes
    rows alone (every node when None).  As ||H (u x w) - (a + b) u x w|| <=
    ||T1 u - a u|| + ||T2 w - b w||, the check max_i ||T1 u_i - a_i u_i|| +
    max_j ||T2 w_j - b_j w_j|| <= 1e-10 ||H||_inf on the factor vectors
    used, O(k N) work on k nodes per axis, bounds every product's residual
    by the tolerance of _rayleigh_ritz; else NumericalError."""
    low = [T.diagonal().min() - 2.0 * np.abs(T.diagonal(1)).max(initial=0.0)
           for T in (T1, T2)]
    (a, U), (b, W) = factors = [_tridiagonal_eigenvectors(T1, cap - low[1]),
                                _tridiagonal_eigenvectors(T2, cap - low[0])]
    sums = (a[:, None] + b).ravel()
    order = np.argsort(sums, kind="stable")[:np.count_nonzero(sums <= cap)]
    i, j = np.divmod(order, b.size)
    r1, r2 = (np.linalg.norm(T @ Z - Z * lam, axis=0)
              for T, (lam, Z) in zip((T1, T2), factors))
    resid = r1[i].max(initial=0.0) + r2[j].max(initial=0.0)
    tol = 1e-10 * abs(H).sum(axis=1).max()
    if not resid <= tol:
        raise NumericalError(f"product eigen-residual bound {resid:.3g} "
                             f"exceeds 1e-10 ||H|| = {tol:.3g}")
    vals, U, k = sums[order], U / scale, W.shape[0]
    if rows is None:  # C order (k, k, N): row p * k + q holds U[p] W[q]
        return vals, np.multiply(U[:, None, i], W[:, j]).reshape(k * k, -1)
    p, q = np.divmod(np.asarray(rows, dtype=int)[:, None], k)
    return vals, np.multiply(U[p, i], W[q, j])


def level_count(H, cap, grid):
    """Number of eigenvalues of the symmetric H below cap: for a separable
    2-D H the sums a_i + b_j <= cap of its 1-D levels (_kronecker_levels),
    else the negative pivots of an LDL^T of H - cap I (_ldlt), by
    Sylvester's law of inertia.

    A level within rounding of cap may be counted or not, so callers that
    need an exact count keep cap between levels.  A singular factor, a row
    exchange or a zero or non-finite pivot leaves the inertia undefined:
    NumericalError.
    """
    factors = _separable(H, grid)
    if factors is not None:
        return _kronecker_levels(H, *factors, cap, rows=())[0].size
    lu = _ldlt(H, cap)
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(np.isfinite(pivots) & (pivots != 0.0))):
        raise NumericalError(f"no inertia count at cap={cap:g}: a row "
                             "exchange or a zero or non-finite pivot")
    return int(np.count_nonzero(pivots < 0.0))


def _solve_peak_bytes(n, m, N_est, rows=None, separable=False):
    """Estimated peak bytes of a solve with about N_est levels on m interior
    nodes, its eigenvectors on at most rows nodes (every node when None)
    included.

    1-D, or 2-D for a separable V, whose 1-D factors are small: on every
    node the (m, N) eigenvectors and the one copy of them that the DPP or
    the Agmon check makes; on rows nodes the (rows, N) eigenvectors and
    _ROW_SOLVE_BYTES per node of scratch, which the bisection slices and
    clusters of one level hold (larger 1-D clusters are priced once they
    are known, _tridiagonal_eigenvectors).  Else for the Lanczos call at k
    = N, which builds every row first: eigsh's Lanczos basis and Ritz block
    (ncv columns each), the N returned vectors, ARPACK's ncv (ncv + 8) work
    array, and the LDL^T of H - sigma I (_ldlt), whose minimum-degree fill
    took 33-37 m log2 m bytes of RSS for m from 1e4 to 3.6e5 on the square
    grid (48 here).  m is a float, so a huge grid gives inf rather than an
    OverflowError.
    """
    N = min(N_est, m)
    if n == 1 or separable:
        if rows is None:
            return 16.0 * m * N
        return 8.0 * min(rows, m) * N + _ROW_SOLVE_BYTES * m
    ncv = min(m, max(2.0 * N + 1.0, 20.0))
    lu = 48.0 * m * math.log2(m)
    return 8.0 * (m * (2.0 * ncv + N) + ncv * (ncv + 8.0)) + lu


def _lanczos(H, cap, N):
    """Lanczos vectors of the N levels of the 2-D H below cap, from one call
    on the LDL^T of H - sigma I (_ldlt), sigma a tenth of [gersh_lo, cap]
    under the Gershgorin bound: the N largest 1 / (lambda - sigma)
    (Ericsson and Ruhe, Math. Comp. 35, 1980)."""
    m = H.shape[0]
    row_abs = np.asarray(np.abs(H).sum(axis=1)).ravel()
    diag = H.diagonal()
    gersh_lo = float(np.min(diag - (row_abs - np.abs(diag))))
    # scaled to the window, whatever the energy units
    sigma = gersh_lo - 0.1 * (cap - gersh_lo)
    lu = _ldlt(H, sigma)
    OPinv = LinearOperator((m, m), matvec=lu.solve, dtype=float)
    # a fixed start vector: without one ARPACK seeds each call from OS
    # entropy and the eigenvectors differ in the last bits from run to run;
    # not a constant, which is orthogonal to every odd eigenfunction of a
    # symmetric well
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    try:
        return eigsh(H, k=N, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)[1]
    except ArpackNoConvergence as exc:
        raise NumericalError(f"Lanczos failed for {N} levels: {exc}") from exc


def _rayleigh_ritz(H, vecs, cap, hnorm):
    """(vals, vecs): the Ritz pairs of H on the orthonormal columns vecs,
    ascending, checked to one tolerance, tol = 1e-10 hnorm with hnorm =
    ||H||_inf, which callers compute once per matrix.  The level count
    decided that every pair lies below cap, so a value at most tol above it
    is clamped to cap; one further above, or a residual above tol, raises
    NumericalError (Parlett, The Symmetric Eigenvalue Problem, ch. 11)."""
    if vecs.shape[1] == 0:
        return np.empty(0), vecs
    HV = H @ vecs  # the one sparse product: H (V rot) = (H V) rot
    # not eigsh's sigma + 1 / nu, which loses digits to the shift
    vals, rot = np.linalg.eigh(vecs.T @ HV)
    vecs = vecs @ rot
    tol = 1e-10 * hnorm
    if not vals[-1] <= cap + tol:
        raise NumericalError(f"the solve found {vals[-1]!r} above cap={cap:g} "
                             f"among the {vals.size} levels it counted")
    HV = HV @ rot  # rebound, so that at most three (m, N) blocks live
    HV -= vecs * vals
    resid = np.linalg.norm(HV, axis=0).max()
    if not resid <= tol:
        raise NumericalError(f"eigen-residual {resid:.3g} exceeds "
                             f"1e-10 ||H|| = {tol:.3g}")
    return np.minimum(vals, cap), vecs


def eigensolve(H, cap, grid, hbar, rows=None):
    """All eigenpairs of H with eigenvalue <= cap, weighted-orthonormalized,
    on the interior nodes rows alone (flat indices; every node when None).

    Every pair passes a residual check at the tolerance 1e-10 ||H||_inf.
    n=1 by bisection on two spectral slices, then inverse iteration, a
    checked Rayleigh-Ritz step (_rayleigh_ritz) and the division by
    sqrt(weight) per cluster of close levels, on min(2, usable CPUs)
    threads from 2,000 nodes on, with the same bits on any number of
    threads (_tridiagonal_eigenvectors).  n=2 for a separable V by the level
    sums a_i + b_j and the products u_i x w_j of two such 1-D solves, on the
    rows alone, whose residuals max_i ||T1 u_i - a_i u_i|| + max_j ||T2 w_j
    - b_j w_j|| bounds (_kronecker_levels); else by that step on N Lanczos
    vectors, N the inertia count, with the rows taken after it.  Each
    column is an eigenvector up to sign: every consumer uses it only in
    products with itself, where a sign flip is exact.
    """
    m = H.shape[0]
    if grid.interior_count != m:
        raise ValidationError("grid does not match the Hamiltonian size")
    scale = math.sqrt(grid.weight)
    factors = _separable(H, grid)
    if grid.dimension == 1:
        vals, vecs = _tridiagonal_eigenvectors(H, cap, rows, scale)
    elif factors is not None:
        vals, vecs = _kronecker_levels(H, *factors, cap, rows, scale)
    else:
        N = level_count(H, cap, grid)
        if N >= m - 1:  # eigsh's bound on k
            raise ValidationError(f"{N} levels below {cap:g} on only {m} nodes")
        # the basis passed, not held, so Rayleigh-Ritz frees it as it rotates
        vals, vecs = _rayleigh_ritz(
            H, _lanczos(H, cap, N) if N else np.empty((m, 0)), cap,
            abs(H).sum(axis=1).max())
        if rows is not None:
            vecs = vecs[rows]
        np.divide(vecs, scale, out=vecs)
    return EigenSystem(float(hbar), float(cap), vals, vecs, grid)


def node_index(grid, points):
    """The flat x1-major indices of the interior nodes nearest the points
    (m, n), ascending, each once: each coordinate rounds to its nearest
    interior node on its own axis.  A point outside the box raises.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dimension:
        raise ValidationError(f"points must form an (m, {grid.dimension}) array")
    if not np.all(np.abs(pts) <= grid.half_width):  # nan too
        raise ValidationError(
            f"a point lies outside the box of half-width {grid.half_width:g}"
        )
    mi = grid.points_per_axis - 2
    axes = np.clip(np.round((pts - grid.interior_axis[0]) / grid.spacing), 0,
                   mi - 1).astype(int)
    return np.unique(np.ravel_multi_index(tuple(axes.T),
                                          (mi,) * grid.dimension))


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
    """agmon_check's result: the bound and each level's weighted norm."""

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
        bound=1.0 + 2.0 * mu / delta,
        eigenvalues=lam,
        norms=norms,
        distance=dist,
    )
