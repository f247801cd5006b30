"""Finite determinantal point processes: sampling and exact statistics.

One type, DPP, covers every symmetric kernel the package builds.  It holds
K orthonormal feature rows on G grid nodes and spectral weights q_k in
[0, 1]; its weighted kernel matrix is M = B^T B with B = sqrt(q) features.
The fermion ground state is the projection case q = 1, whose rows are the
weighted eigenfunctions below the Fermi level.  Exact sampling is for
projection kernels only: the chain rule draws exactly N nodes, inverting
each step's CDF over all G nodes when G < 4 N^2 (the dense path), and
otherwise descending a binary tree of bucket Gram matrices to one bucket
of 2N nodes (the tree path of Gillenwater, Kulesza, Mariet and
Vassilvitskii, ICML 2019).  Both invert the same CDF at the same uniforms,
so they pick the same nodes unless a uniform falls within rounding of a
CDF step.  Other kernels (from_kernel) are mixtures of projections; for
them, as for a projection, means, variances, covariances and Laplace
functionals are exact finite traces and determinants of the K x K
compressions B diag(f) B^T, on the same grid the sampler uses.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "RngState",
    "DPP",
    "from_eigensystem",
    "from_kernel",
    "samples",
    "laplace_functional",
    "mean_linear_stat",
    "var_linear_stat",
    "cov_linear_stats",
]


@dataclass(frozen=True)
class RngState:
    """Counter-based Philox4x64 state: (seed, counter) pins the sample stream."""

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if self.counter < 0:
            raise ValidationError("counter must be nonnegative")

    def generator(self):
        return np.random.Generator(
            np.random.Philox(key=[int(self.seed), int(self.counter)])
        )

    def stream(self, k):
        """Independent derived stream number k."""
        return RngState(self.seed, self.counter + 1 + int(k))


class DPP:
    """Process with kernel matrix features^T diag(q) features on grid nodes.

    features[k, i] = sqrt(w) * v_k(node_i), w the quadrature weight of a
    node, so the rows are orthonormal in the plain Euclidean product and
    each spectral weight q_k lies in
    [0, 1].  Without q every weight is one and the process is the rank-N
    projection: it always has exactly N points.
    """

    def __init__(self, features, nodes, q=None):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        if features.shape[1] != nodes.shape[0]:
            raise ValidationError("features and nodes disagree on node count")
        q = np.ones(features.shape[0]) if q is None else np.asarray(q, dtype=float)
        if q.shape != (features.shape[0],):
            raise ValidationError("need one spectral weight per feature row")
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise ValidationError("spectral weights must lie in [0, 1]")
        self.features = features
        self.nodes = nodes
        self.q = q
        self.is_projection = bool(np.all(q == 1.0))
        # B = sqrt(q) features; a projection uses its features unscaled and
        # uncopied, so every trace rounds exactly as the projection formulas
        self._root_features = (
            features if self.is_projection else np.sqrt(q)[:, None] * features
        )
        self._op_matrix = None
        gram = features @ features.T
        resid = np.max(np.abs(gram - np.eye(features.shape[0]))) if features.size else 0.0
        if not resid <= 1e-8:
            raise ValidationError(
                f"feature rows are not orthonormal (residual {resid:.2e})"
            )

    @property
    def N(self):
        """Number of spectral components; the particle count of a projection."""
        return self.features.shape[0]

    @property
    def node_count(self):
        return self.features.shape[1]

    def intensity(self):
        """Per-node inclusion masses K(x_i, x_i) * weight; sums to sum(q)."""
        B = self._root_features
        return np.sum(B * B, axis=0)

    def op_matrix(self):
        """Dense weighted-operator matrix M = B^T B (cached)."""
        if self._op_matrix is None:
            B = self._root_features
            self._op_matrix = B.T @ B
        return self._op_matrix


def _compressed(dpp, f):
    """B diag(f) B^T: the K x K compression of multiplication by f.

    Every trace of f and M = B^T B reduces to traces of these matrices,
    e.g. tr(f M g M) = tr(C_f C_g) and tr(f M) = tr(C_f).
    """
    B = dpp._root_features
    return (B * f[None, :]) @ B.T


def from_eigensystem(eigs, mu):
    """Projection DPP of the fermion state filling eigenvalues <= mu."""
    _, vecs = eigs.below(mu)
    # rows contiguous: the layout every sampler and trace GEMM has rounded in
    features = np.multiply(math.sqrt(eigs.grid.weight), vecs.T, order="C")
    return DPP(features, eigs.nodes)


def _infer_weight(points):
    pts = np.atleast_2d(points)
    n = pts.shape[1]
    spacings = []
    for k in range(n):
        vals = np.unique(pts[:, k])
        if vals.size < 2:
            continue
        gaps = np.diff(vals)
        if np.max(gaps) - np.min(gaps) > 1e-9 * max(1.0, np.max(np.abs(vals))):
            raise ValidationError(
                "kernel window nodes are not a uniform lattice, so they "
                "carry no quadrature weight"
            )
        spacings.append(gaps[0])
    if not spacings:
        raise ValidationError("cannot infer a weight from a single node")
    return float(np.prod(spacings)) if n == len(spacings) else float(
        spacings[0] ** n
    )


def from_kernel(kernel):
    """Validate a sampled symmetric kernel (points, values), values[i, j] =
    K(x_i, x_j), as a DPP and diagonalize it.

    The nodes must form a uniform lattice, whose spacings give the
    quadrature weight; the operator matrix is values * weight.  Eigenvalues
    are clipped into [0, 1] when within 1e-6 of the ends and rejected
    beyond that.
    """
    xs, A = kernel
    A = np.asarray(A, dtype=float)
    if A.shape != (len(xs), len(xs)):
        raise ValidationError("from_kernel needs one value per pair of points")
    if not np.allclose(A, A.T, atol=1e-10):
        raise ValidationError("kernel matrix is not symmetric")
    weight = _infer_weight(xs)
    q, U = np.linalg.eigh(0.5 * (A + A.T) * weight)
    if np.min(q) < -1e-6 or np.max(q) > 1.0 + 1e-6:
        raise ValidationError(
            "not a DPP kernel at this discretization: spectrum reaches "
            f"[{np.min(q):.3e}, {np.max(q):.3e}]"
        )
    q = np.clip(q, 0.0, 1.0)
    keep = q > 1e-12
    return DPP(U[:, keep].T, xs, q[keep])


# Bytes allowed for one block of T trials' working arrays: the dense path's
# (T, G) residuals plus its (T, K, K) bases, or the tree path's K x K and
# K x 2K per-trial arrays; near 1 MB the GEMMs are already fast and peak RSS
# stays where the eigensolve puts it.
_BLOCK_BYTES = 1 << 20

# The tree path runs when G >= _TREE_NODES_PER_K2 * K^2.  Its build costs
# about one dense draw (G K^2 flops) and each step O(K^2 log G) per trial,
# against the dense step's O(K G).  Measured on 64 draws of random
# orthonormal features (2-vCPU Xeon, one BLAS thread), tree time / dense
# time at G = 2, 3, 4, 6 K^2 was 1.01, 0.86, 0.60, 0.47 for K = 15 and
# 1.14, 0.88, 0.64, 0.41 for K = 40: break-even near 3 K^2.  Below K = 10
# Python overhead sets break-even near G = 500, within 1 ms either way.
_TREE_NODES_PER_K2 = 4


def _check_mass(total):
    if not np.all((total > 0.0) & (total < np.inf)):
        raise NumericalError("chain-rule residual mass is not finite and positive")


def _invert_cdf(dens, u, work):
    """Per row, the first index whose normalised cumulative `dens` exceeds u.

    As Generator.choice(p=...) does with one random(); `work` is scratch of
    the shape of `dens`.
    """
    total = np.sum(dens, axis=1)
    _check_mass(total)
    np.divide(dens, total[:, None], out=work)
    np.cumsum(work, axis=1, out=work)
    work /= work[:, -1:]
    return np.count_nonzero(work <= u[:, None], axis=1)


def _gram_tree(features):
    """Binary tree of bucket Grams for the tree-descent chain rule.

    The G nodes are cut into buckets of 2K consecutive nodes (the last may
    be shorter); levels[0][b] is S_b = sum_{j in b} phi_j phi_j^T, and node
    i of each higher level sums nodes 2i and 2i + 1 of the one below (an
    unpaired last node moves up alone), up to the one-node root.  Returns
    the levels, leaves first, and their traces: about G K numbers in all,
    as many as the features hold.
    """
    K, G = features.shape
    size = 2 * K
    full = G // size
    leaves = np.empty((-(-G // size), K, K))
    # bucket views of the features, no copy
    F = features[:, :full * size].reshape(K, full, size).transpose(1, 0, 2)
    np.matmul(F, F.transpose(0, 2, 1), out=leaves[:full])
    if full < len(leaves):
        tail = features[:, full * size:]
        np.matmul(tail, tail.T, out=leaves[full])
    levels = [leaves]
    while len(levels[-1]) > 1:
        low = levels[-1]
        up = low[::2].copy()
        up[:len(low) // 2] += low[1::2]
        levels.append(up)
    return levels, [np.trace(S, axis1=1, axis2=2) for S in levels]


def _tree_pick(tree, features, sqnorm, Q, P, chosen, u):
    """Next node of each trial by descending the Gram tree.

    A tree node's residual mass is tr(S) - <S, P>_F, P = Q^T Q the trials'
    projectors.  The target u * (root mass) walks down to one bucket, whose
    residual densities ||phi_j||^2 - ||Q phi_j||^2 (chosen nodes zeroed)
    are inverted as the dense path inverts all G.  A trial whose target
    overshoots its bucket's mass by rounding takes the dense pick instead.
    """
    levels, traces = tree
    K, G = features.shape
    root = traces[-1][0] - np.einsum("ij,tij->t", levels[-1][0], P)
    _check_mass(root)
    target = u * root
    node = np.zeros(u.size, dtype=int)
    for S, tr in zip(levels[-2::-1], traces[-2::-1]):
        left = 2 * node
        mass = tr[left] - np.einsum("tij,tij->t", S[left], P)
        right = (target >= mass) & (left + 1 < len(S))
        target = np.where(right, target - mass, target)
        node = left + right
    idx = 2 * K * node[:, None] + np.arange(2 * K)
    past = idx >= G
    idx[past] = G - 1
    proj = np.matmul(Q, features[:, idx].transpose(1, 0, 2))
    dens = sqnorm[idx] - np.einsum("tsj,tsj->tj", proj, proj)
    np.maximum(dens, 0.0, out=dens)
    dens[past | np.any(idx[:, None, :] == chosen[:, :, None], axis=1)] = 0.0
    j = np.count_nonzero(np.cumsum(dens, axis=1) <= target[:, None], axis=1)
    miss = np.flatnonzero(j == idx.shape[1])
    i = idx[np.arange(u.size), np.minimum(j, idx.shape[1] - 1)]
    for t in miss:
        d = sqnorm.copy()
        for q in Q[t]:
            d -= (q @ features) ** 2
        np.maximum(d, 0.0, out=d)
        d[chosen[t]] = 0.0
        i[t] = _invert_cdf(d[None], u[t:t + 1], d[None].copy())[0]
    return i


def _chain_rule_sample(features, uniforms, tree=None):
    """Node indices (T, K) for T trials of the projection with rows `features`.

    Chain rule for a projection DPP (Hough-Krishnapur-Peres-Virag 2006,
    Alg. 18) in Gram-Schmidt form: with phi_j the K-vector features[:, j]
    and P the projection onto the span of the columns chosen so far, the
    next node is j with probability proportional to ||(I - P) phi_j||^2.
    Step s of trial t picks that node by inverting the CDF at
    uniforms[t, s], as Generator.choice(p=...) does with one random().
    Q[t] holds an orthonormal basis of that span, one row per chosen
    column, each orthogonalised twice (CGS2).

    Without `tree` (dense path) the squared residual norms `dens` of all G
    nodes are kept and updated by subtracting (q . phi_j)^2 for each new
    basis vector q, one GEMM for the block.  With `tree` = _gram_tree(
    features) (tree path, Gillenwater-Kulesza-Mariet-Vassilvitskii 2019)
    each step descends the tree of bucket Grams and reads one bucket of 2K
    nodes, carrying P = Q^T Q.  Both invert the same CDF at the same
    uniform.  `features` is only read.
    """
    trials, n_pts = uniforms.shape
    sqnorm = np.sum(features * features, axis=0)
    if tree is None:
        dens = np.tile(sqnorm, (trials, 1))
        work = np.empty_like(dens)
        rows = np.arange(trials)
    else:
        P = np.zeros((trials, n_pts, n_pts))
    Q = np.empty((trials, n_pts, n_pts))
    chosen = np.empty((trials, n_pts), dtype=int)
    for step in range(n_pts):
        if tree is None:
            i = _invert_cdf(dens, uniforms[:, step], work)
        else:
            i = _tree_pick(tree, features, sqnorm, Q[:, :step], P,
                           chosen[:, :step], uniforms[:, step])
        chosen[:, step] = i
        v = features[:, i].T
        basis = Q[:, :step]
        for _ in range(2):
            coef = np.einsum("tsk,tk->ts", basis, v)
            v = v - np.einsum("tsk,ts->tk", basis, coef)
        v /= np.sqrt(np.einsum("tk,tk->t", v, v))[:, None]
        Q[:, step] = v
        if tree is None:
            np.matmul(v, features, out=work)
            work *= work
            dens -= work
            np.maximum(dens, 0.0, out=dens)
            dens[rows, i] = 0.0
        else:
            P += v[:, :, None] * v[:, None, :]
    return chosen


def samples(dpp, rng_states):
    """One exact sample of a projection DPP per RNG state, drawn a block of
    trials at a time: a (len(rng_states), N) int array whose row t holds
    the node indices of state t's draw, in the order drawn; its points are
    dpp.nodes[row].

    Each sample has exactly N points, and each state's generator gives one
    uniform per point.  Exact sampling is for projection kernels only: a
    DPP with some weight q_k < 1 is a ValidationError.

    A projection on G >= 4 N^2 nodes takes the chain rule's tree path: one
    _gram_tree build per call, shared by every block, after which a step
    reads O(log G) N x N Grams and one bucket of 2N nodes instead of all
    G.  Smaller projections take the dense path.
    """
    if not dpp.is_projection:
        raise ValidationError("exact sampling needs a projection kernel; "
                              "this one has spectral weights below 1")
    states = list(rng_states)
    K, G = dpp.N, dpp.node_count
    tree = None
    if 0 < _TREE_NODES_PER_K2 * K * K <= G:
        tree = _gram_tree(dpp.features)
    # tree path: Q, P, a gathered Gram (K^2 each), a bucket's features and
    # their projections (2 K^2 each), in float64
    per_trial = 8 * (G + K * K) if tree is None else 64 * K * K
    size = max(1, _BLOCK_BYTES // per_trial)
    drawn = np.empty((len(states), K), dtype=int)
    for start in range(0, len(states), size):
        block = states[start:start + size]
        uniforms = np.array([s.generator().random(K) for s in block])
        drawn[start:start + size] = _chain_rule_sample(dpp.features, uniforms,
                                                       tree)
    return drawn


def _as_grid_function(dpp, f):
    vals = np.asarray(f, dtype=float).reshape(-1)
    if vals.size != dpp.node_count:
        raise ValidationError(
            f"grid function has {vals.size} values for {dpp.node_count} nodes"
        )
    return vals


def laplace_functional(dpp, f):
    """E exp(-Xi(f)) = det(I - D_{1-e^{-f}} M) for f >= 0 on the nodes."""
    vals = _as_grid_function(dpp, f)
    if np.any(np.isnan(vals)) or np.any(vals < 0.0):
        raise ValidationError("laplace_functional needs f >= 0")
    d = -np.expm1(-vals)  # 1 - e^{-f}, exact at f = +inf
    return float(np.linalg.det(np.eye(dpp.N) - _compressed(dpp, d)))


def mean_linear_stat(dpp, f):
    """E Xi(f) = tr(f M)."""
    vals = _as_grid_function(dpp, f)
    return float(vals @ dpp.intensity())


def cov_linear_stats(dpp, f, g):
    """cov(Xi(f), Xi(g)) = tr(g (I - M) f M) = tr(gfM) - tr(C_g C_f)."""
    fv = _as_grid_function(dpp, f)
    gv = _as_grid_function(dpp, g)
    A = _compressed(dpp, fv)  # N x N, symmetric
    B = _compressed(dpp, gv)
    return float(fv @ (gv * dpp.intensity()) - np.sum(A * B))


def var_linear_stat(dpp, f, method="trace"):
    """var Xi(f) by one of three exact routes that must agree.

    trace:      tr(f^2 M) - tr(fMfM)
    commutator: 1/2 ||[f, M]||_F^2 + ||f sqrt(M(I-M))||_F^2
    double_sum: 1/2 sum_ij (f_i - f_j)^2 M_ij^2 plus the same residual
    """
    vals = _as_grid_function(dpp, f)
    if method == "trace":
        return cov_linear_stats(dpp, vals, vals)
    M = dpp.op_matrix()
    if method == "double_sum":
        diff = vals[:, None] - vals[None, :]
        comm = 0.5 * float(np.sum(diff * diff * M * M))
    elif method == "commutator":
        C = (vals[:, None] - vals[None, :]) * M
        comm = 0.5 * float(np.sum(C * C))
    else:
        raise ValidationError(f"unknown variance method {method!r}")
    # tr(f^2 M(I - M)) = sum_k (1 - q_k) (C_{f^2})_kk since B B^T = diag(q);
    # it is exactly zero for a projection
    residual = float(np.diag(_compressed(dpp, vals * vals)) @ (1.0 - dpp.q))
    return comm + residual
