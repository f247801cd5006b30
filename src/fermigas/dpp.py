"""Finite determinantal point processes: sampling and exact statistics.

One type, DPP, covers every symmetric kernel the package builds.  It holds
K orthonormal feature rows on G grid nodes and spectral weights q_k in
[0, 1]; its weighted kernel matrix is M = B^T B with B = sqrt(q) features.
The fermion ground state is the projection case q = 1, whose rows are the
weighted eigenfunctions below the Fermi level; chain-rule sampling then
draws exactly N nodes.  Other kernels are mixtures of projections, sampled
by Bernoulli(q_k) thinning of the rows first.  Means, variances,
covariances and Laplace functionals are exact finite traces and
determinants of the K x K compressions B diag(f) B^T, on the same grid the
sampler uses.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "RngState",
    "PointConfiguration",
    "DPP",
    "from_eigensystem",
    "from_kernel",
    "sample",
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


@dataclass
class PointConfiguration:
    """One exact sample: node coordinates plus provenance."""

    points: np.ndarray   # (N, n)
    indices: np.ndarray  # node indices into the process's grid
    seed: int
    counter: int

    def __len__(self):
        return self.points.shape[0]


class DPP:
    """Process with kernel matrix features^T diag(q) features on grid nodes.

    features[k, i] = sqrt(weight) * v_k(node_i), so the rows are orthonormal
    in the plain Euclidean product and each spectral weight q_k lies in
    [0, 1].  Without q every weight is one and the process is the rank-N
    projection: it always has exactly N points.
    """

    def __init__(self, features, nodes, weight, q=None):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        if features.shape[1] != nodes.shape[0]:
            raise ValidationError("features and nodes disagree on node count")
        if weight <= 0.0:
            raise ValidationError("weight must be positive")
        q = np.ones(features.shape[0]) if q is None else np.asarray(q, dtype=float)
        if q.shape != (features.shape[0],):
            raise ValidationError("need one spectral weight per feature row")
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise ValidationError("spectral weights must lie in [0, 1]")
        self.features = features
        self.nodes = nodes
        self.weight = float(weight)
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
    return DPP(features, eigs.grid.interior_points(), eigs.grid.weight)


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


def from_kernel(kernel_eval):
    """Validate a sampled symmetric kernel as a DPP and diagonalize it.

    The nodes must form a uniform lattice, whose spacings give the
    quadrature weight; the operator matrix is values * weight.  Eigenvalues
    are clipped into [0, 1] when within 1e-6 of the ends and rejected
    beyond that.
    """
    xs = kernel_eval.x_points
    ys = kernel_eval.y_points
    if xs.shape != ys.shape or not np.allclose(xs, ys, atol=0.0):
        raise ValidationError("from_kernel needs x_points identical to y_points")
    A = np.asarray(kernel_eval.values, dtype=float)
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
    return DPP(U[:, keep].T, xs, weight, q[keep])


# Bytes allowed for one block of T trials' (T, G) residual array plus its
# (T, K, K) basis stack; near 1 MB the GEMMs are already fast and peak RSS
# stays where the eigensolve puts it.
_BLOCK_BYTES = 1 << 20


def _chain_rule_sample(features, uniforms):
    """Node indices (T, K) for T trials of the projection with rows `features`.

    Chain rule for a projection DPP (Hough-Krishnapur-Peres-Virag 2006,
    Alg. 18) in Gram-Schmidt form: with phi_j the K-vector features[:, j]
    and P the projection onto the span of the columns chosen so far, the
    next node is j with probability proportional to ||(I - P) phi_j||^2.
    Step s of trial t picks that node by inverting the CDF at
    uniforms[t, s], as Generator.choice(p=...) does with one random().
    Q[t] holds an orthonormal basis of that span, one row per chosen
    column, each orthogonalised twice (CGS2); the squared residual norms
    `dens` are updated by subtracting (q . phi_j)^2 for the new basis
    vectors q, one GEMM for the block.  `features` is only read.
    """
    trials, n_pts = uniforms.shape
    dens = np.tile(np.sum(features * features, axis=0), (trials, 1))
    work = np.empty_like(dens)
    Q = np.empty((trials, n_pts, n_pts))
    chosen = np.empty((trials, n_pts), dtype=int)
    rows = np.arange(trials)
    for step in range(n_pts):
        total = np.sum(dens, axis=1)
        if not np.all((total > 0.0) & (total < np.inf)):
            raise NumericalError("chain-rule residual mass is not finite and positive")
        np.divide(dens, total[:, None], out=work)
        np.cumsum(work, axis=1, out=work)
        work /= work[:, -1:]
        i = np.count_nonzero(work <= uniforms[:, step, None], axis=1)
        chosen[:, step] = i
        v = features[:, i].T
        basis = Q[:, :step]
        for _ in range(2):
            coef = np.einsum("tsk,tk->ts", basis, v)
            v = v - np.einsum("tsk,ts->tk", basis, coef)
        v /= np.sqrt(np.einsum("tk,tk->t", v, v))[:, None]
        Q[:, step] = v
        np.matmul(v, features, out=work)
        work *= work
        dens -= work
        np.maximum(dens, 0.0, out=dens)
        dens[rows, i] = 0.0
    return chosen


def samples(dpp, rng_states):
    """One exact sample per RNG state, drawn a block of trials at a time.

    A projection always yields exactly N points.  Other kernels first keep
    row k with probability q_k (Bernoulli thinning), then sample the
    projection onto the kept rows, so each of their trials is its own
    block.  Each state's generator gives the thinning draws, then one
    uniform per chosen point.
    """
    states = list(rng_states)
    per_trial = 8 * (dpp.node_count + dpp.N * dpp.N)
    size = max(1, _BLOCK_BYTES // per_trial) if dpp.is_projection else 1
    configs = []
    for start in range(0, len(states), size):
        block = states[start:start + size]
        rngs = [s.generator() for s in block]
        feats = dpp.features
        if not dpp.is_projection:
            feats = feats[rngs[0].random(dpp.N) < dpp.q]
        uniforms = np.array([rng.random(feats.shape[0]) for rng in rngs])
        chosen = _chain_rule_sample(feats, uniforms)
        configs += [
            PointConfiguration(dpp.nodes[idx], idx, s.seed, s.counter)
            for s, idx in zip(block, chosen)
        ]
    return configs


def sample(dpp, rng_state):
    """One exact sample: `samples` with a single state."""
    return samples(dpp, [rng_state])[0]


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
