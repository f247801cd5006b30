"""Grid, Hamiltonian assembly, eigensolver, projector and Agmon diagnostics."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_hermite

from fermigas import schrodinger
from fermigas.dpp import from_eigensystem
from fermigas.errors import ValidationError
from fermigas.experiments import _solve_window
from fermigas.kernels import bulk_kernel, bulk_scale, edge_scale
from fermigas.potential import parse_potential
from fermigas.schrodinger import (
    EigenSystem,
    Grid,
    agmon_check,
    assemble_hamiltonian,
    choose_box,
    edge_rotation,
    eigensolve,
    rescaled_kernel,
)
from oracles import hermite_functions


def harmonic_eigensystem(hbar=0.05, L=3.0, ppa=1201, cap=1.0):
    V = parse_potential("x1^2")
    grid = Grid(1, L, ppa)
    H = assemble_hamiltonian(V, hbar, grid)
    return eigensolve(H, cap, grid, hbar)


def eigen_errors(V, es):
    """Weighted orthonormality defect and largest residual of unit vectors."""
    v, w = es.eigenvectors, es.grid.weight
    H = assemble_hamiltonian(V, es.hbar, es.grid)
    orth = np.max(np.abs(v.T @ v * w - np.eye(v.shape[1])))
    resid = np.max(np.abs(H @ v - v * es.eigenvalues)) * math.sqrt(w)
    return orth, resid


# ---------------------------------------------------------------------------
# grid and box selection


def test_grid_arithmetic():
    g = Grid(1, 3.0, 1201)
    assert g.spacing == pytest.approx(0.005)
    assert g.weight == pytest.approx(0.005)
    assert g.interior_count == 1199
    g2 = Grid(2, 1.5, 61)
    assert g2.weight == pytest.approx(0.05 ** 2)
    assert g2.interior_points().shape == (59 * 59, 2)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(3, 1.0, 11)
    with pytest.raises(ValidationError):
        Grid(1, -1.0, 11)
    with pytest.raises(ValidationError):
        Grid(1, 1.0, 2)


def test_choose_box_examples():
    V = parse_potential("x1^2")
    assert choose_box(V, 1.0, 1.0) == pytest.approx(1.5)
    assert choose_box(V, 4.0, 0.0) >= 2.0
    with pytest.raises(ValidationError, match="unconfined"):
        choose_box(parse_potential("-x1^2"), 1.0, 0.0)


def test_choose_box_covers_double_well():
    V = parse_potential("(1 - x1^2)^2")
    L = choose_box(V, 0.5, 0.5)
    # sublevel set reaches past |x| = 1.3, boundary must clear level 1
    assert L >= 1.5
    assert float(V(np.array([[L]]))[0]) >= 1.0


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def test_dirichlet_stencil_three_points():
    grid = Grid(1, 2.0, 5)  # spacing 1, three interior nodes
    H = assemble_hamiltonian(parse_potential("0*x1"), 1.0, grid)
    want = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(H.toarray(), want)


def test_constant_potential_shifts_spectrum():
    grid = Grid(1, 2.0, 41)
    V0 = parse_potential("0*x1")
    Vc = parse_potential("0*x1 + 2.5")
    e0 = np.linalg.eigvalsh(assemble_hamiltonian(V0, 1.0, grid).toarray())
    ec = np.linalg.eigvalsh(assemble_hamiltonian(Vc, 1.0, grid).toarray())
    assert np.allclose(ec, e0 + 2.5, atol=1e-10)


def test_hamiltonian_symmetric():
    grid = Grid(2, 1.5, 21)
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2"), 0.3, grid)
    assert abs(H - H.T).max() == 0.0


def test_assemble_rejects_nonpositive_hbar():
    grid = Grid(1, 1.0, 11)
    with pytest.raises(ValidationError):
        assemble_hamiltonian(parse_potential("x1^2"), 0.0, grid)


# ---------------------------------------------------------------------------
# eigensolve


def test_harmonic_lowest_eigenvalue():
    es = harmonic_eigensystem()
    assert es.eigenvalues[0] == pytest.approx(0.05, abs=1e-4)


def test_harmonic_spectrum_fine_grid():
    es = harmonic_eigensystem(ppa=2401)
    exact = 0.05 * (2.0 * np.arange(10) + 1.0)
    assert es.eigenvalues.size == 10
    assert np.max(np.abs(es.eigenvalues - exact)) <= 1e-4


def test_harmonic_spectrum_relative_error_default_grid():
    es = harmonic_eigensystem()
    exact = 0.05 * (2.0 * np.arange(10) + 1.0)
    rel = np.abs(es.eigenvalues - exact) / exact
    assert es.eigenvalues.size == 10
    assert np.max(rel) <= 1e-3


def test_eigensolve_orthogonality():
    es = harmonic_eigensystem()
    G = es.eigenvectors.T @ es.eigenvectors * es.grid.weight
    assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8


def test_sign_pinning_agrees_on_a_column_and_its_mirror_image():
    # an odd profile, exactly antisymmetric, whose right peak is one part in
    # 1e15 higher; mirrored, the left peak is.  Pinning by the largest entry
    # would keep both as they are, which are opposite in sign.
    r = np.linspace(0.01, 3.0, 300)
    half = r * np.exp(-r * r)
    odd = np.concatenate([-half[::-1], [0.0], half])
    odd[np.argmax(odd)] *= 1.0 + 1e-15
    cols = np.column_stack([odd, odd[::-1], -odd, np.zeros_like(odd)])
    pinned = schrodinger._fix_signs(cols.copy())
    np.testing.assert_allclose(pinned[:, 1], pinned[:, 0], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(pinned[:, 0], pinned[:, 2])
    assert np.all(pinned[:300, 0] > 0.0)  # the left lobe, met first, is positive
    np.testing.assert_array_equal(np.abs(pinned), np.abs(cols))


def test_second_order_convergence():
    exact = 0.95  # tenth harmonic level at hbar = 0.05
    err = []
    for ppa in (601, 1201):
        es = harmonic_eigensystem(ppa=ppa)
        err.append(abs(es.eigenvalues[9] - exact))
    ratio = err[0] / err[1]
    assert 3.3 <= ratio <= 4.7


def test_dirichlet_truncation_insensitivity():
    base = harmonic_eigensystem(L=3.0, ppa=1201)
    wide = harmonic_eigensystem(L=4.5, ppa=1801)  # same spacing, larger box
    assert wide.eigenvalues.size == base.eigenvalues.size
    assert np.max(np.abs(wide.eigenvalues - base.eigenvalues)) <= 1e-8


def test_eigensolve_empty_window():
    es = harmonic_eigensystem(cap=0.01)
    assert es.eigenvalues.size == 0
    assert es.eigenvectors.shape[1] == 0


DOUBLE_WELL = parse_potential("x1^4-2*x1^2")


def full_bisection(V, hbar, grid, cap):
    """The levels <= cap of the 1-D H by bisection to the last bit."""
    H = assemble_hamiltonian(V, hbar, grid)
    d, e = H.diagonal(), H.diagonal(1)
    lo = np.min(d) - 2.0 * np.max(np.abs(e)) - 1.0
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=(lo, cap))


@pytest.mark.parametrize("text, mu, hbar", [
    ("x1^2", 1.0, 0.01),
    ("x1^2", 1.0, 0.0025),  # G=11,999, N=200
    ("x1^4-2*x1^2", 0.5, 0.02),
    ("x1^4-2*x1^2", 0.5, 0.05),
])
def test_eigensolve_1d_eigenvalues_match_full_bisection(text, mu, hbar):
    # the bisection stops at 1e-10 ||H||; Rayleigh-Ritz on the inverse
    # iteration's vectors brings the levels back to rounding: 4.0e-14 here
    # at hbar=0.0025, where ||H|| is about 400, and 8.0e-14 at 0.00125
    V = parse_potential(text)
    es = _solve_window(V, mu, hbar)
    exact = full_bisection(V, hbar, es.grid, mu)
    assert es.eigenvalues.size == exact.size
    assert np.max(np.abs(es.eigenvalues - exact)) <= 1e-12
    orth, resid = eigen_errors(V, es)
    assert orth <= 1e-10
    assert resid <= 1e-10


def test_eigensolve_1d_cap_on_a_level_keeps_the_level():
    # with cap on a level or one float either side, the levels the
    # bisection counts stay: none is dropped by a Ritz value that rounds
    # above cap
    V = parse_potential("x1^2")
    grid = Grid(1, 1.5, 1501)
    H = assemble_hamiltonian(V, 0.01, grid)
    levels = full_bisection(V, 0.01, grid, 1.0)
    assert levels.size == 50
    for lam in levels:
        for cap in (np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)):
            es = eigensolve(H, cap, grid, 0.01)
            assert es.eigenvalues.max() <= cap
            assert es.below(cap)[1].shape[1] == es.eigenvalues.size


@pytest.mark.parametrize("hbar", [0.02, 0.05])
def test_eigensolve_1d_separates_tunnelling_pairs(hbar):
    # the double well's tunnelling pairs are equal in floating point at
    # hbar=0.02 and 7.9e-12 apart at 0.05; each pair must share one inverse
    # iteration, which orthogonalises the second vector against the first
    es = _solve_window(DOUBLE_WELL, 0.5, hbar)
    assert np.min(np.diff(es.eigenvalues)) <= 1e-11
    orth, resid = eigen_errors(DOUBLE_WELL, es)
    assert orth <= 1e-10
    assert resid <= 1e-10


def test_tunnelling_pairs_need_the_cluster_guard(monkeypatch):
    # with every level in its own inverse iteration, both levels of a
    # degenerate pair converge to the same vector
    monkeypatch.setattr(schrodinger, "_CLUSTER_GAP", -1.0)
    orth, _ = eigen_errors(DOUBLE_WELL, _solve_window(DOUBLE_WELL, 0.5, 0.02))
    assert orth >= 0.5


def test_hermite_functions_match_the_closed_form_and_are_orthonormal():
    x = np.linspace(-20.0, 20.0, 20001)
    psi = hermite_functions(100, x)
    for k in range(11):
        norm = math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
        closed = eval_hermite(k, x) * np.exp(-0.5 * x * x) / norm
        assert np.max(np.abs(psi[k] - closed)) <= 1e-13
    gram = psi @ psi.T * (x[1] - x[0])
    assert np.max(np.abs(gram - np.eye(100))) <= 1e-12


@pytest.mark.parametrize(
    "x0, eps, window, bound",
    [
        # criterion 02: bulk point, probes on [-2, 2] bulk scales
        (0.0, bulk_scale(0.01, 0.0, 1.0, 1), (-2.0, 2.0), 1.1e-3),
        # criterion 03: turning point, probes on [-4, 2] edge scales
        (1.0, edge_scale(0.01, 2.0), (-4.0, 2.0), 4.95e-3),
    ],
    ids=["bulk", "edge"],
)
def test_grid_projector_against_the_exact_oscillator_projector(
    x0, eps, window, bound
):
    # -hbar^2 d^2/dx^2 + x^2 has the eigenfunctions
    # hbar^{-1/4} psi_k(x / sqrt(hbar)) at hbar (2k + 1); the bound is the
    # grid's discretisation error, 1.086e-3 (bulk) and 4.901e-3 (edge) in
    # microscopic units, on every node of the window
    hbar = 0.01
    es = _solve_window(parse_potential("x1^2"), 1.0, hbar)
    _, vecs = es.below(1.0)
    assert vecs.shape[1] == 50
    x = es.grid.interior_axis
    u = (x - x0) / eps
    idx = np.flatnonzero((u >= window[0]) & (u <= window[1]))
    phi = hermite_functions(50, x[idx] / math.sqrt(hbar)) / hbar ** 0.25
    grid_kernel = vecs[idx] @ vecs[idx].T
    exact = phi.T @ phi
    assert eps * np.max(np.abs(grid_kernel - exact)) <= bound


def test_eigensolve_2d_isotropic_harmonic():
    V = parse_potential("x1^2 + x2^2")
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(V, 0.2, grid)
    es = eigensolve(H, 1.0, grid, 0.2)
    assert np.allclose(es.eigenvalues, [0.4, 0.8, 0.8], atol=2e-3)
    G = es.eigenvectors.T @ es.eigenvectors * grid.weight
    assert np.max(np.abs(G - np.eye(3))) <= 1e-8


def oscillator_2d_solve(monkeypatch):
    """x1^2 + x2^2 at hbar=0.08 on a coarse grid (21 levels <= 1), with the
    block size of every Lanczos call recorded."""
    ks = []
    eigsh = schrodinger.eigsh

    def counting(*args, **kwargs):
        ks.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(schrodinger, "eigsh", counting)
    V = parse_potential("x1^2 + x2^2")
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(V, 0.08, grid)
    return eigensolve(H, 1.0, grid, 0.08), ks


def test_eigensolve_2d_block_growth(monkeypatch):
    # no Weyl estimate: the block starts at 8 and doubles until the cap is
    # passed, all on one factorization
    monkeypatch.setattr(schrodinger, "_weyl_count", lambda *args: 0.0)
    es, ks = oscillator_2d_solve(monkeypatch)
    assert ks == [8, 16, 32]
    assert es.eigenvalues.size == 21
    exact = np.sort(
        [0.16 * (k1 + k2 + 1) for k1 in range(7) for k2 in range(7)]
    )
    exact = exact[exact <= 1.0]
    # coarse grid, so only window completeness and rough locations matter here
    assert np.allclose(es.eigenvalues, exact, atol=1.5e-2)


def test_eigensolve_2d_weyl_block_needs_one_call(monkeypatch):
    es, ks = oscillator_2d_solve(monkeypatch)
    assert len(ks) == 1
    assert es.eigenvalues.size == 21


def test_eigensolve_2d_empty_window_factors_nothing(monkeypatch):
    # Gershgorin puts every level above the cap: no LU, no Lanczos
    def fail(*args, **kwargs):
        raise AssertionError("no factorisation or Lanczos call expected")

    monkeypatch.setattr(schrodinger, "splu", fail)
    monkeypatch.setattr(schrodinger, "eigsh", fail)
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2 + 1"), 0.08, grid)
    es = eigensolve(H, 0.5, grid, 0.08)
    assert es.eigenvalues.size == 0
    assert es.eigenvectors.shape == (59 * 59, 0)


def test_eigensolve_calls_the_solvers_the_benchmark_tracer_wraps(monkeypatch):
    # perfbench/tracer.py times these two module attributes; a solve that
    # stopped calling them through the module would drop out of its trace
    calls = {"eigh_tridiagonal": 0, "eigsh": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(schrodinger, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(schrodinger, name, counted)
    harmonic_eigensystem()
    assert calls == {"eigh_tridiagonal": 1, "eigsh": 0}
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2"), 0.08, grid)
    eigensolve(H, 1.0, grid, 0.08)
    assert calls == {"eigh_tridiagonal": 1, "eigsh": 1}


def test_eigensolve_2d_rejects_a_non_finite_weyl_count():
    # (h / 2 pi hbar)^2 overflows: a ValidationError, not an OverflowError
    # from rounding an infinite block size
    V = parse_potential("x1^2 + x2^2")
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(V, 1e-160, grid)
    with pytest.raises(ValidationError, match="not finite"):
        eigensolve(H, 1.0, grid, 1e-160)


def test_solve_peak_estimate():
    m = 199.0 ** 2
    assert schrodinger._solve_peak_bytes(1, 199.0, 20.0) == 16.0 * 199 * 20
    # x1^2 + x2^2 at hbar = 0.07 (N = 28 on 199^2 nodes): k = 42, and the
    # solve's RSS grew by 83 MB; at hbar = 0.03 (N = 136 on 288^2 nodes)
    # by 535 MB, estimated 648 MB
    assert schrodinger._lanczos_block(m, 25.5) == 39
    assert 83e6 < schrodinger._solve_peak_bytes(2, m, 25.5) < 1.25 * 83e6
    # a grid too big for a float gives inf, not an OverflowError
    assert schrodinger._solve_peak_bytes(2, 1e200 * 1e200, 5.0) == math.inf
    assert schrodinger._solve_peak_bytes(2, m, math.inf) > 8.0 * m * m


@pytest.mark.parametrize("n, want", [
    (1, 1.0 / (2.0 * 0.05)),       # levels hbar (2j + 1) <= 1
    (2, 1.0 / (8.0 * 0.05 ** 2)),  # 2 hbar (j1 + j2 + 1) <= 1
], ids=["1d", "2d"])
def test_weyl_count_of_the_oscillator(n, want):
    grid = Grid(n, 1.5, 401)
    V = parse_potential("x1^2" if n == 1 else "x1^2 + x2^2")
    got = schrodinger._weyl_count(V(grid.interior_points()), 1.0, 0.05,
                                  grid.spacing, n)
    assert got == pytest.approx(want, rel=1e-3)


def test_eigensolve_2d_is_reproducible():
    # Lanczos starts from a fixed vector, so repeated solves agree bit for
    # bit, including the basis chosen inside the degenerate level 0.8
    V = parse_potential("x1^2 + x2^2")
    grid = Grid(2, 1.5, 41)
    H = assemble_hamiltonian(V, 0.2, grid)
    a = eigensolve(H, 1.0, grid, 0.2)
    b = eigensolve(H, 1.0, grid, 0.2)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


# ---------------------------------------------------------------------------
# projector kernel


def projector_matrix(es, mu):
    """Dense kernel values Pi(x_i, x_j) of the levels <= mu on the nodes."""
    _, vecs = es.below(mu)
    return vecs @ vecs.T


def test_projector_counts_and_trace():
    es = harmonic_eigensystem()
    dpp = from_eigensystem(es, 1.0)
    assert dpp.N == 10
    trace = float(np.trace(projector_matrix(es, 1.0)) * es.grid.weight)
    assert trace == pytest.approx(10.0, abs=1e-6)


def test_projector_below_ground_state():
    es = harmonic_eigensystem()
    lam, vecs = es.below(0.01)
    assert lam.size == 0 and vecs.shape == (es.grid.interior_count, 0)
    assert from_eigensystem(es, 0.01).N == 0
    P = projector_matrix(es, 0.01)
    assert np.all(P == 0.0)
    assert float(np.trace(P) * es.grid.weight) == 0.0


def test_projector_idempotent_in_weighted_product():
    es = harmonic_eigensystem()
    P = projector_matrix(es, 1.0)
    resid = P @ P * es.grid.weight - P
    assert np.max(np.abs(resid)) <= 1e-6


def test_projector_fermi_level_on_a_level_fills_it():
    es = harmonic_eigensystem()
    lam = es.eigenvalues
    assert from_eigensystem(es, float(lam[3])).N == 4


def test_projector_rejects_mu_above_cap():
    es = harmonic_eigensystem()
    with pytest.raises(ValidationError):
        es.below(1.5)
    with pytest.raises(ValidationError):
        from_eigensystem(es, 1.5)


# ---------------------------------------------------------------------------
# rescaled kernel


def test_rescaled_kernel_exact_on_nodes():
    es = harmonic_eigensystem()
    h = es.grid.spacing
    x0 = [es.grid.interior_axis[600]]
    probes = np.array([[-2.0], [0.0], [3.0]])
    ke = rescaled_kernel(es, 1.0, x0, h, np.eye(1), probes, probes)
    P = projector_matrix(es, 1.0)
    idx = [598, 600, 603]
    assert np.allclose(ke.values, h * P[np.ix_(idx, idx)], atol=1e-14)


def test_rescaled_kernel_approaches_sine_kernel():
    es = harmonic_eigensystem()
    eps = np.pi * 0.05  # bulk scale at the center of the well
    z = np.linspace(-1.0, 1.0, 5)[:, None]
    ke = rescaled_kernel(es, 1.0, [0.0], eps, np.eye(1), z, z)
    ref = np.array([[bulk_kernel(1, a, b) for b in z] for a in z])
    assert np.max(np.abs(ke.values - ref)) <= 0.1


def test_rescaled_kernel_probe_outside_box():
    es = harmonic_eigensystem()
    with pytest.raises(ValidationError, match="outside"):
        rescaled_kernel(es, 1.0, [2.9], 0.1, np.eye(1), [[5.0]], [[0.0]])


def test_rescaled_kernel_rejects_x0_of_the_wrong_length():
    es = harmonic_eigensystem()
    with pytest.raises(ValidationError, match="x0 needs 1 component, got 2"):
        rescaled_kernel(es, 1.0, [0.0, 5.0], 0.1, np.eye(1), [[0.0]], [[0.0]])


def test_rescaled_kernel_requires_orthogonal_map():
    es = harmonic_eigensystem()
    with pytest.raises(ValidationError, match="orthogonal"):
        rescaled_kernel(es, 1.0, [0.0], 0.1, np.array([[2.0]]), [[0.0]], [[0.0]])


# ---------------------------------------------------------------------------
# edge rotation


def test_edge_rotation_2d_example():
    U = edge_rotation([0.0, 3.0])
    assert np.allclose(U @ np.array([0.0, 1.0]), [1.0, 0.0], atol=1e-14)
    assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)


def test_edge_rotation_1d():
    assert np.allclose(edge_rotation([2.0]), [[1.0]])
    assert np.allclose(edge_rotation([-2.0]), [[-1.0]])


def test_edge_rotation_random_gradients():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rng.normal(size=2)
        U = edge_rotation(g)
        out = U @ g
        assert abs(out[0] - np.linalg.norm(g)) <= 1e-12
        assert abs(out[1]) <= 1e-12
        assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(U @ U.T, np.eye(2), atol=1e-12)


def test_edge_rotation_zero_gradient():
    with pytest.raises(ValidationError):
        edge_rotation([0.0, 0.0])


# ---------------------------------------------------------------------------
# Agmon diagnostics


def test_agmon_bound_holds():
    es = harmonic_eigensystem()
    V = parse_potential("x1^2")
    rep = agmon_check(es, V, 0.5, 0.5)
    assert rep.bound == pytest.approx(3.0)
    assert np.all(rep.norms <= rep.bound)
    assert rep.eigenvalues.size == 5


def test_agmon_interior_eigenfunctions_have_unit_norm():
    es = harmonic_eigensystem()
    V = parse_potential("x1^2")
    rep = agmon_check(es, V, 0.5, 0.5)
    # the weight is 1 on the sublevel set, so norms stay essentially 1
    assert np.all(rep.norms >= 1.0 - 1e-12)
    assert rep.norms[0] == pytest.approx(1.0, abs=1e-6)


def test_agmon_estimate_tightens_with_delta():
    es = harmonic_eigensystem()
    V = parse_potential("x1^2")
    slack = []
    for delta in (0.1, 0.2, 0.35, 0.5):
        rep = agmon_check(es, V, 0.5, delta)
        slack.append(rep.bound - np.max(rep.norms))
    assert all(a > b for a, b in zip(slack, slack[1:]))


@pytest.mark.parametrize("text", ["x1^2+x2^2", "(x1-0.3)^2+2*(x2+0.2)^2"])
def test_agmon_distance_is_the_nearest_sublevel_node_distance(text):
    V = parse_potential(text)
    grid = Grid(2, 1.5, 41)
    pts = grid.interior_points()
    # the distance does not depend on the eigenpairs, so none are needed
    es = EigenSystem(0.1, 1.0, np.empty(0), np.empty((pts.shape[0], 0)), grid)
    rep = agmon_check(es, V, 0.5, 0.3)
    inside = V(pts) <= 0.8
    assert np.all(rep.distance[inside] == 0.0)
    gaps = pts[~inside][:, None, :] - pts[inside][None, :, :]
    brute = np.min(np.linalg.norm(gaps, axis=-1), axis=1)
    assert np.max(np.abs(rep.distance[~inside] - brute)) <= 1e-12


def test_agmon_validates_inputs():
    es = harmonic_eigensystem()
    V = parse_potential("x1^2")
    with pytest.raises(ValidationError):
        agmon_check(es, V, 0.5, 0.0)
    with pytest.raises(ValidationError):
        agmon_check(es, V, 0.5, 1.5)
    with pytest.raises(ValidationError):
        agmon_check(es, V, 0.9, 0.5)  # needs mu + delta <= cap
