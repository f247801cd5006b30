"""Determinantal sampling and exact trace statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas.dpp import (
    DPP,
    RngState,
    cov_linear_stats,
    from_eigensystem,
    from_kernel,
    laplace_functional,
    mean_linear_stat,
    samples,
    var_linear_stat,
)
from fermigas import dpp as dpp_module
from fermigas.errors import NumericalError, ValidationError
from fermigas.experiments import _exact_skewness, _solve_window
from fermigas.kernels import bulk_kernel, free_laplacian_window
from fermigas.potential import parse_potential
from fermigas.schrodinger import Grid, assemble_hamiltonian, eigensolve


def harmonic_dpp(hbar=0.1, ppa=301, cap=1.0):
    V = parse_potential("x1^2")
    grid = Grid(1, 3.0, ppa)
    H = assemble_hamiltonian(V, hbar, grid)
    es = eigensolve(H, cap, grid, hbar)
    return from_eigensystem(es, cap), grid


@pytest.fixture(scope="module")
def fermions():
    dpp, grid = harmonic_dpp()
    return dpp, grid


# ---------------------------------------------------------------------------
# construction


def test_from_eigensystem_counts(fermions):
    dpp, _ = fermions
    assert dpp.N == 5  # harmonic levels 0.1 * (2k + 1) below 1
    gram = dpp.features @ dpp.features.T
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8
    assert dpp.intensity().sum() == pytest.approx(5.0, abs=1e-6)


def test_from_eigensystem_ten_levels():
    V = parse_potential("x1^2")
    grid = Grid(1, 3.0, 1201)
    H = assemble_hamiltonian(V, 0.05, grid)
    es = eigensolve(H, 1.0, grid, 0.05)
    dpp = from_eigensystem(es, 1.0)
    assert dpp.N == 10


def test_from_eigensystem_empty_below_ground_state(fermions):
    V = parse_potential("x1^2")
    grid = Grid(1, 3.0, 301)
    H = assemble_hamiltonian(V, 0.1, grid)
    es = eigensolve(H, 1.0, grid, 0.1)
    dpp = from_eigensystem(es, 0.05)
    assert dpp.N == 0
    assert samples(dpp, [RngState(5)]).shape == (1, 0)


def test_rng_state_validation():
    with pytest.raises(ValidationError):
        RngState(-1)
    a = RngState(9).stream(4)
    assert (a.seed, a.counter) == (9, 5)


def test_from_kernel_sine_window():
    xs = np.arange(-2.0, 2.0001, 0.02)[:, None]
    ke = (xs, bulk_kernel(1, xs[:, None], xs[None, :]))
    gd = from_kernel(ke)
    assert np.all(gd.q >= 0.0) and np.all(gd.q <= 1.0)
    # density one: expected count equals the window length
    total = mean_linear_stat(gd, np.ones(gd.node_count))
    assert total == pytest.approx(4.0, abs=0.1)
    # spectrum is nearly a projection: few transitional eigenvalues
    assert np.count_nonzero((gd.q > 0.05) & (gd.q < 0.95)) <= 6
    assert np.count_nonzero(gd.q > 0.5) == 4
    # a mixture of projections: its traces are exact, its samples refused
    with pytest.raises(ValidationError, match="projection"):
        samples(gd, [RngState(1)])


def test_from_kernel_zero_kernel_is_empty():
    xs = np.linspace(-1.0, 1.0, 21)[:, None]
    ke = (xs, np.zeros((21, 21)))
    gd = from_kernel(ke)
    assert gd.q.size == 0
    assert len(samples(gd, [RngState(1)])[0]) == 0


def test_dpp_rejects_bad_weights_and_rows():
    rows = np.eye(3)[:2]
    nodes = np.arange(3.0)[:, None]
    with pytest.raises(ValidationError, match="lie in"):
        DPP(rows, nodes, q=[0.5, 1.5])
    with pytest.raises(ValidationError, match="lie in"):
        DPP(rows, nodes, q=[0.5, math.nan])
    with pytest.raises(ValidationError, match="one spectral weight"):
        DPP(rows, nodes, q=[0.5])
    with pytest.raises(ValidationError, match="orthonormal"):
        DPP(2.0 * rows, nodes, q=[0.5, 0.5])
    nan_rows = rows.copy()
    nan_rows[0, 0] = math.nan
    with pytest.raises(ValidationError, match="orthonormal"):
        DPP(nan_rows, nodes)


def test_from_kernel_rejects_invalid_kernel():
    xs = np.linspace(-1.0, 1.0, 9)[:, None]
    bad = np.eye(9) * 100.0  # operator norm far above 1 after weighting
    with pytest.raises(ValidationError, match="not a DPP kernel"):
        from_kernel((xs, bad))
    with pytest.raises(ValidationError, match="one value per pair"):
        from_kernel((xs, bad[:, :8]))


@pytest.mark.parametrize("nodes, message", [
    ([0.0, 0.1, 0.3], "not a uniform lattice"),
    ([0.5], "single node"),
], ids=["non-uniform", "single-node"])
def test_from_kernel_needs_a_uniform_lattice(nodes, message):
    # the lattice spacing is the only source of the quadrature weight
    xs = np.asarray(nodes)[:, None]
    values = 0.1 * np.eye(xs.shape[0])
    with pytest.raises(ValidationError, match=message):
        from_kernel((xs, values))


# ---------------------------------------------------------------------------
# sampling


def test_sample_has_exactly_n_points_always(fermions):
    dpp, _ = fermions
    for k in range(40):
        idx = samples(dpp, [RngState(123).stream(k)])[0]
        assert len(idx) == dpp.N
        assert np.unique(idx).size == dpp.N


def test_sample_bit_reproducible(fermions):
    dpp, _ = fermions
    a = samples(dpp, [RngState(2024)])[0]
    b = samples(dpp, [RngState(2024)])[0]
    assert np.array_equal(a, b)
    c = samples(dpp, [RngState(2025)])[0]
    assert not np.array_equal(a, c)


def test_sample_sequences_are_frozen(fermions):
    # a change in these sequences changes the bytes of every sampling CSV at
    # a fixed seed
    dpp, _ = fermions
    frozen = [
        [110, 144, 173, 179, 151],
        [198, 114, 146, 167, 134],
        [123, 135, 162, 169, 190],
        [86, 131, 164, 185, 148],
        [143, 187, 157, 124, 162],
    ]
    for k, want in enumerate(frozen):
        idx = samples(dpp, [RngState(2024).stream(k)])[0]
        assert idx.tolist() == want


def test_samples_match_one_at_a_time_across_blocks(fermions, monkeypatch):
    dpp, _ = fermions
    # blocks of three dense or four tree trials, so ten states cross block
    # boundaries on either path
    per_trial = 8 * (dpp.node_count + dpp.N * dpp.N)
    monkeypatch.setattr(dpp_module, "_BLOCK_BYTES", 3 * per_trial)
    for nodes_per_k2 in (4, 10 ** 9):  # the tree path, then the dense one
        monkeypatch.setattr(dpp_module, "_TREE_NODES_PER_K2", nodes_per_k2)
        states = [RngState(55).stream(k) for k in range(10)]
        block = samples(dpp, states)
        assert block.shape == (len(states), dpp.N)
        for state, idx in zip(states, block):
            assert np.array_equal(idx, samples(dpp, [state])[0])


@pytest.fixture(scope="module")
def oscillator_2d():
    # x1^2 + x2^2 at hbar = 0.1: fifteen particles on 39,601 nodes
    eigs = _solve_window(parse_potential("x1^2+x2^2"), 1.0, 0.1)
    return from_eigensystem(eigs, 1.0)


def test_two_dimensional_sample_sequences_are_frozen(oscillator_2d):
    dpp = oscillator_2d
    frozen = [
        [10616, 17409, 23587, 26133, 24031, 15785, 27359, 19618, 27400,
         19789, 28363, 21222, 6285, 15436, 15449],
        [31906, 12007, 18433, 23781, 19639, 19577, 28140, 27772, 22163,
         24205, 14007, 19763, 9457, 19343, 13067],
        [14187, 14214, 19813, 20549, 27365, 27546, 20771, 18599, 14598,
         27702, 10412, 14667, 25202, 7866, 22397],
    ]
    got = samples(dpp, [RngState(2024).stream(k) for k in range(3)])
    assert got.tolist() == frozen


def test_sampler_rejects_non_finite_residual_mass(fermions):
    dpp, _ = fermions
    broken = DPP(dpp.features.copy(), dpp.nodes)
    broken.features[0, 0] = math.nan  # past the constructor's check
    with pytest.raises(NumericalError, match="residual mass"):
        samples(broken, [RngState(3)])
    with pytest.raises(NumericalError, match="residual mass"):
        samples(broken, [RngState(3).stream(k) for k in range(4)])
    uniforms = np.full((2, dpp.N), 0.5)
    for tree in (None, dpp_module._gram_tree(broken.features)):
        with pytest.raises(NumericalError, match="residual mass"):
            dpp_module._chain_rule_sample(broken.features, uniforms, tree)


def random_features(K, G, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((G, K)))
    return np.ascontiguousarray(Q.T)


def both_paths(features, uniforms, tree=None):
    dense = dpp_module._chain_rule_sample(features, uniforms)
    if tree is None:
        tree = dpp_module._gram_tree(features)
    return dense, dpp_module._chain_rule_sample(features, uniforms, tree)


def test_tree_and_dense_paths_pick_the_same_nodes(oscillator_2d):
    uniforms = np.random.default_rng(5).random((12, oscillator_2d.N))
    dense, tree = both_paths(oscillator_2d.features, uniforms)
    assert np.array_equal(tree, dense)
    # G = 4 K^2 + 1, the smallest G the tree path takes at K = 12, with an
    # unpaired last bucket of one node
    features = random_features(12, 4 * 12 * 12 + 1, seed=6)
    assert features.shape[1] >= dpp_module._TREE_NODES_PER_K2 * 12 * 12
    uniforms = np.random.default_rng(7).random((40, 12))
    dense, tree = both_paths(features, uniforms)
    assert np.array_equal(tree, dense)


def test_tree_target_past_its_bucket_takes_the_dense_pick():
    # every Gram below the root zeroed: each descent runs right to the last
    # bucket, whose nodes carry no mass, so every pick is the dense fallback
    K = 4
    features = np.zeros((K, 80))
    features[:, :72] = random_features(K, 72, seed=9)
    levels, traces = dpp_module._gram_tree(features)
    for S, tr in zip(levels[:-1], traces[:-1]):
        S[:] = 0.0
        tr[:] = 0.0
    uniforms = np.random.default_rng(10).random((6, K))
    dense, tree = both_paths(features, uniforms, (levels, traces))
    assert np.array_equal(tree, dense)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 300), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_tree_path_draws_distinct_in_range_nodes_as_dense(K, extra, trials, seed):
    G = dpp_module._TREE_NODES_PER_K2 * K * K + extra
    features = random_features(K, G, seed)
    uniforms = np.random.default_rng(seed).random((trials, K))
    dense, tree = both_paths(features, uniforms)
    assert tree.shape == (trials, K)
    assert np.all((tree >= 0) & (tree < G))
    assert all(np.unique(row).size == K for row in tree)
    assert np.array_equal(tree, dense)


def test_sample_follows_the_exact_joint_law():
    # a rank-2 projection draws the pair S with probability det(F[:, S])^2
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    dpp = DPP(Q.T, np.arange(5, dtype=float)[:, None])
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    probs = np.array([np.linalg.det(Q[[i, j], :]) ** 2 for i, j in pairs])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    trials = 10000
    counts = dict.fromkeys(pairs, 0)
    for idx in samples(dpp, [RngState(8).stream(k) for k in range(trials)]):
        counts[tuple(sorted(idx))] += 1
    freq = np.array([counts[p] for p in pairs]) / trials
    se = np.sqrt(probs * (1.0 - probs) / trials)
    assert np.all(np.abs(freq - probs) <= 5.0 * se)


def test_rank_one_sample_density():
    # single feature row: the sample is one point, node i with mass v_i^2
    nodes = np.linspace(-1.0, 1.0, 41)[:, None]
    v = np.exp(-nodes[:, 0] ** 2)
    v /= math.sqrt(np.sum(v * v))
    dpp = DPP(v[None, :], nodes)
    counts = np.zeros(41)
    trials = 3000
    for k in range(trials):
        idx = samples(dpp, [RngState(77).stream(k)])[0]
        assert len(idx) == 1
        counts[idx[0]] += 1
    expect = trials * dpp.intensity()
    se = np.sqrt(trials * dpp.intensity() * (1.0 - dpp.intensity()))
    assert np.all(np.abs(counts - expect) <= 4.0 * se + 1e-9)


def test_empirical_intensity_matches_kernel_diagonal(fermions):
    dpp, grid = fermions
    trials = 4000
    bins = np.array_split(np.arange(dpp.node_count), 10)
    counts = np.zeros(10)
    for k in range(trials):
        idx = samples(dpp, [RngState(31).stream(k)])[0]
        node_hits = np.bincount(idx, minlength=dpp.node_count)
        counts += [node_hits[b].sum() for b in bins]
    for bi, b in enumerate(bins):
        ind = np.zeros(dpp.node_count)
        ind[b] = 1.0
        mean_b = mean_linear_stat(dpp, ind)
        var_b = var_linear_stat(dpp, ind)
        slack = 4.0 * math.sqrt(trials * var_b) + 1e-9
        assert abs(counts[bi] - trials * mean_b) <= slack


def test_draw_positions_are_exchangeable(fermions):
    # the marginal law of the first and the last drawn point coincide
    dpp, _ = fermions
    trials = 4000
    half = dpp.node_count // 2
    first_left = last_left = 0
    for k in range(trials):
        idx = samples(dpp, [RngState(87).stream(k)])[0]
        first_left += idx[0] < half
        last_left += idx[-1] < half
    p = first_left / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(first_left - last_left) / trials <= 4.0 * se + 1e-9


# ---------------------------------------------------------------------------
# Laplace functional


def test_laplace_functional_baselines(fermions):
    dpp, _ = fermions
    zeros = np.zeros(dpp.node_count)
    assert laplace_functional(dpp, zeros) == pytest.approx(1.0, abs=1e-12)
    everything = np.full(dpp.node_count, np.inf)
    assert laplace_functional(dpp, everything) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        laplace_functional(dpp, zeros - 1.0)


def test_laplace_functional_against_monte_carlo(fermions):
    dpp, grid = fermions
    x = grid.interior_points().ravel()
    shapes = [
        0.3 * np.exp(-x ** 2 / 0.2),
        0.5 * np.exp(-((x - 0.4) ** 2) / 0.1),
        np.where(np.abs(x) < 0.5, 0.2, 0.0),
        0.1 * np.ones_like(x),
        0.4 * np.exp(-np.abs(x)),
    ]
    trials = 2500
    drawn = samples(dpp, [RngState(404).stream(k) for k in range(trials)])
    for f in shapes:
        exact = laplace_functional(dpp, f)
        draws = np.array([math.exp(-s) for s in f[drawn].sum(axis=1)])
        se = draws.std(ddof=1) / math.sqrt(trials)
        assert abs(draws.mean() - exact) <= 3.0 * se + 1e-12


# ---------------------------------------------------------------------------
# linear statistics


def test_particle_number_is_deterministic(fermions):
    dpp, _ = fermions
    ones = np.ones(dpp.node_count)
    assert mean_linear_stat(dpp, ones) == pytest.approx(dpp.N, abs=1e-9)
    assert var_linear_stat(dpp, ones) == pytest.approx(0.0, abs=1e-10)


def test_variance_formulas_agree(fermions):
    dpp, grid = fermions
    x = grid.interior_points().ravel()
    for f in (
        np.exp(-x ** 2 / 0.1),
        np.where(x > 0.0, 1.0, 0.0),
        x,
    ):
        v1 = var_linear_stat(dpp, f, "trace")
        v2 = var_linear_stat(dpp, f, "commutator")
        v3 = var_linear_stat(dpp, f, "double_sum")
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
        assert abs(v1 - v3) <= 1e-10 * max(1.0, abs(v1))
        assert v1 > 0.0


def test_variance_formulas_agree_for_general_kernel():
    xs, values = free_laplacian_window(1, 8.0, 2.0, 0.05)
    gd = from_kernel((xs, values))
    x = xs.ravel()
    f = np.exp(-x ** 2)
    v1 = var_linear_stat(gd, f, "trace")
    v2 = var_linear_stat(gd, f, "commutator")
    v3 = var_linear_stat(gd, f, "double_sum")
    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
    assert abs(v1 - v3) <= 1e-10 * max(1.0, abs(v1))


def test_half_box_variance_positive(fermions):
    dpp, grid = fermions
    x = grid.interior_points().ravel()
    f = np.where(x > 0.0, 1.0, 0.0)
    v = var_linear_stat(dpp, f)
    assert v > 0.0
    # explicit trace oracle tr(f(I-M)fM) on the dense operator matrix
    M = dpp.op_matrix()
    F = np.diag(f)
    want = np.trace(F @ (np.eye(M.shape[0]) - M) @ F @ M)
    assert v == pytest.approx(want, abs=1e-10)


def test_covariance_bilinearity(fermions):
    dpp, grid = fermions
    x = grid.interior_points().ravel()
    f = np.exp(-x ** 2 / 0.3)
    g = np.sin(x)
    cfg = cov_linear_stats(dpp, f, g)
    assert cfg == pytest.approx(cov_linear_stats(dpp, g, f), abs=1e-12)
    total = var_linear_stat(dpp, f + g)
    parts = (
        var_linear_stat(dpp, f) + 2.0 * cfg + var_linear_stat(dpp, g)
    )
    assert total == pytest.approx(parts, abs=1e-9)


def test_variance_grows_with_mu_2d_free_laplacian():
    x = None
    variances = []
    for mu in (10.0, 20.0, 40.0):
        step = 0.05 if mu <= 20 else 0.025
        pts, values = free_laplacian_window(2, mu, 0.5, step)
        gd = from_kernel((pts, values))
        f = np.exp(-np.sum(pts * pts, axis=1) / 0.08)
        variances.append(var_linear_stat(gd, f))
    assert variances[0] < variances[1] < variances[2]


# ---------------------------------------------------------------------------
# exact identities on random small kernels


@st.composite
def small_dpps(draw):
    """DPP with random orthonormal rows (K <= 6, G <= 40), q in [0, 1]^K."""
    K = draw(st.integers(1, 6))
    G = draw(st.integers(K, 40))
    q = draw(
        st.one_of(
            st.none(),
            st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K),
            st.just([1.0] * K),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q, _ = np.linalg.qr(rng.standard_normal((G, K)))
    dpp = DPP(Q.T, np.arange(G, dtype=float)[:, None], q)
    return dpp, rng.standard_normal(G)


@settings(max_examples=60, deadline=None)
@given(small_dpps())
def test_exact_identities_on_random_kernels(case):
    dpp, f = case
    v1 = var_linear_stat(dpp, f, "trace")
    for method in ("commutator", "double_sum"):
        v = var_linear_stat(dpp, f, method)
        assert abs(v - v1) <= 1e-10 * max(1.0, abs(v1))
    total = mean_linear_stat(dpp, np.ones(dpp.node_count))
    assert total == pytest.approx(np.sum(dpp.q), abs=1e-10)
    # f in [0, 3] keeps 1 - e^{-f} <= 0.95, so the determinant stays away
    # from zero; the upper end allows rounding of det(I) = 1
    lap = laplace_functional(dpp, 3.0 * np.abs(np.tanh(f)))
    assert 0.0 < lap <= 1.0 + 1e-12
    M = dpp.op_matrix()
    F = np.diag(f)
    FM = F @ M
    dense = (
        np.trace(F @ F @ FM)
        - 3.0 * np.trace(F @ FM @ FM)
        + 2.0 * np.trace(FM @ FM @ FM)
    )
    k3 = _exact_skewness(dpp, f, 1.0)  # var = 1 leaves the bare cumulant
    assert abs(k3 - dense) <= 1e-10 * max(1.0, abs(dense))
    if not dpp.is_projection:
        with pytest.raises(ValidationError, match="projection"):
            samples(dpp, [RngState(0)])
        return
    idx = samples(dpp, [RngState(0)])[0]
    assert np.unique(idx).size == idx.size
    assert np.all((idx >= 0) & (idx < dpp.node_count))
    assert idx.size == dpp.N
