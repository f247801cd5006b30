"""Grid, Hamiltonian assembly, eigensolver, projector and Agmon diagnostics."""

import dataclasses
import functools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator
from scipy.special import eval_hermite

from fermigas import schrodinger
from fermigas.dpp import (
    RngState,
    from_eigensystem,
    laplace_functional,
    mean_linear_stat,
    samples,
    var_linear_stat,
)
from fermigas.errors import NumericalError, ValidationError
from fermigas.experiments import (
    _exact_skewness,
    _solve_grid,
    _solve_window,
    bulk_convergence,
    edge_convergence,
)
from fermigas.kernels import bulk_scale, edge_scale
from fermigas.potential import choose_box, parse_potential
from fermigas.schrodinger import (
    EigenSystem,
    Grid,
    agmon_check,
    assemble_hamiltonian,
    edge_rotation,
    eigensolve,
    node_index,
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


def test_level_count_between_levels_is_exact():
    # inertia counts the levels below cap: a cap at the midpoint of levels
    # j and j + 1 counts j + 1, and a cap within a float of level j counts
    # it or not, by rounding
    grid = Grid(1, 1.5, 1501)
    H = assemble_hamiltonian(parse_potential("x1^2"), 0.01, grid)
    levels = eigensolve(H, 1.0, grid, 0.01).eigenvalues
    assert levels.size == 50
    for j, mid in enumerate(0.5 * (levels[:-1] + levels[1:])):
        assert schrodinger.level_count(H, mid, grid) == j + 1
    for j, lam in enumerate(levels):
        for cap in (np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)):
            assert schrodinger.level_count(H, cap, grid) in (j, j + 1)


@pytest.mark.parametrize("text, mu, hbar, want", [
    ("x1^2", 1.0, 0.01, 50),
    ("x1^2", 1.0, 0.00125, 400),  # G=33,941
    ("x1^4-2*x1^2", 0.5, 0.02, 46),
])
def test_level_count_matches_the_bisection_count_1d(text, mu, hbar, want):
    # the 1-D eigensolve keeps the levels the bisection counts in (lo, mu];
    # that count comes from Sturm sequences at the ends and does not depend
    # on the bisection's tolerance, so a coarse one gives it cheaply
    grid, H = _solve_grid(parse_potential(text), mu, hbar)
    d, e = H.diagonal(), H.diagonal(1)
    lo = np.min(d) - 2.0 * np.max(np.abs(e)) - 1.0
    bisected = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                select_range=(lo, mu), tol=1.0)
    assert schrodinger.level_count(H, mu, grid) == bisected.size == want


@pytest.mark.parametrize("text", [
    "x1^2 + x2^2", "x1^2 + 2*x2^2", "x1^2 + x2^2 + 0.2*x1^2*x2^2",
])
@pytest.mark.parametrize("hbar", [0.1, 0.07])
def test_level_count_matches_the_eigensolve_count_2d(text, hbar):
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(parse_potential(text), hbar, grid)
    es = eigensolve(H, 1.0, grid, hbar)
    assert es.eigenvalues.size > 0
    assert schrodinger.level_count(H, 1.0, grid) == es.eigenvalues.size


def polynomial(coefficients, x):
    """The text of sum_k c_k x^k, k from 1."""
    return " + ".join(f"({c!r})*{x}^{k}"
                      for k, c in enumerate(coefficients, start=1))


# a(x) = c1 x + c2 x^2 + c3 x^3 + c4 x^4, confining: c2 > 0 and c4 > 0
COEFFICIENTS = st.tuples(
    st.floats(-0.5, 0.5), st.floats(0.2, 2.0), st.floats(-0.3, 0.3),
    st.floats(0.1, 1.0),
)


@settings(max_examples=15, deadline=None)
@given(COEFFICIENTS, COEFFICIENTS)
def test_level_count_of_a_separable_potential_is_its_inertia(a, b):
    # a(x1) + b(x2) counts the sums of its 1-D levels; at every cap midway
    # between two levels that count is the inertia of H - cap I, which the
    # count of a non-separable H takes
    V = parse_potential(polynomial(a, "x1") + " + " + polynomial(b, "x2"))
    grid = Grid(2, 1.5, 31)
    H = assemble_hamiltonian(V, 0.1, grid)
    assert schrodinger._separable(H, grid) is not None
    levels = eigensolve(H, 1.5, grid, 0.1).eigenvalues
    gaps = np.flatnonzero(np.diff(levels) > 1e-9)
    for cap in 0.5 * (levels[gaps] + levels[gaps + 1]):
        count = schrodinger.level_count(H, cap, grid)
        with mock.patch.object(schrodinger, "_separable", lambda H, grid: None):
            assert schrodinger.level_count(H, cap, grid) == count
        assert count == np.count_nonzero(levels <= cap)


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


def test_eigensolve_1d_slice_cut_inside_a_tunnelling_pair(monkeypatch):
    # the coarse pass bisects [GL, cap] (GL the Gershgorin bound) down to
    # 64 intervals; at this cap the one holding levels 22 and 23 of the
    # double well, 6.7e-7 apart, has its midpoint GL + (cap - GL) 71/128
    # between them, and that midpoint is the cut: the two slices split the
    # pair, and the clusters, formed over the whole spectrum, join it again
    cap = 0.47596522256729146
    grid, H = _solve_grid(DOUBLE_WELL, 0.5, 0.02)
    slices = []
    bisect = schrodinger._bisect

    def recording(*args):
        slices.append(bisect(*args))
        return slices[-1]

    monkeypatch.setattr(schrodinger, "_bisect", recording)
    es = eigensolve(H, cap, grid, 0.02)
    lam = es.eigenvalues
    assert [s.size for s in slices] == [23, 23]
    tnorm = np.max(np.abs(H.diagonal())) + 2.0 * np.max(np.abs(H.diagonal(1)))
    assert 0.0 < lam[23] - lam[22] <= schrodinger._CLUSTER_GAP * tnorm
    exact = full_bisection(DOUBLE_WELL, 0.02, grid, cap)
    assert np.max(np.abs(lam - exact)) <= 1e-12
    orth, resid = eigen_errors(DOUBLE_WELL, es)
    assert orth <= 1e-10
    assert resid <= 1e-10


def test_eigensolve_1d_is_bit_identical_on_one_and_two_workers(monkeypatch):
    # every slice and cluster computes the same bits on whichever thread
    # runs it; G=11,999 is past _THREADED_NODES, so two workers use the pool
    grid, H = _solve_grid(parse_potential("x1^2"), 1.0, 0.0025)
    assert H.shape[0] >= schrodinger._THREADED_NODES
    solves = []
    for workers in (1, 2):
        monkeypatch.setattr(schrodinger, "_worker_count", lambda w=workers: w)
        solves.append(eigensolve(H, 1.0, grid, 0.0025))
    one, two = solves
    assert one.eigenvalues.size == 200
    # column-major: each cluster writes one contiguous block of columns
    assert one.eigenvectors.flags.f_contiguous
    assert two.eigenvectors.flags.f_contiguous
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    assert np.array_equal(one.eigenvectors, two.eigenvectors)


@pytest.mark.parametrize("workers", [1, 2])
def test_eigensolve_1d_rows_are_the_full_solve_rows_bit_for_bit(
        workers, monkeypatch):
    # each cluster writes the rows the caller asked for and no others, with
    # the bits of a full solve, on either thread count
    grid, H = _solve_grid(parse_potential("x1^2"), 1.0, 0.0025)
    monkeypatch.setattr(schrodinger, "_worker_count", lambda: workers)
    idx = node_index(grid, np.linspace(0.8, 1.2, 17)[:, None])
    full = eigensolve(H, 1.0, grid, 0.0025)
    part = eigensolve(H, 1.0, grid, 0.0025, rows=idx)
    assert part.eigenvectors.shape == (17, 200)
    assert part.eigenvectors.flags.f_contiguous
    assert np.array_equal(part.eigenvalues, full.eigenvalues)
    assert np.array_equal(part.eigenvectors, full.eigenvectors[idx])


def test_eigensolve_1d_refuses_a_cluster_over_the_budget(monkeypatch):
    # where the level spacing falls below _CLUSTER_GAP ||H|| every level
    # joins one inverse-iteration cluster, whose three (G, N) blocks outgrow
    # the budget on x1^2 at mu = 1 from hbar = 5e-4 down; here every level
    # of the oscillator joins one cluster and the budget is 1e5 bytes
    def no_cluster(*args):
        raise AssertionError("a cluster over the budget was solved")

    monkeypatch.setattr(schrodinger, "_CLUSTER_GAP", 1.0)
    monkeypatch.setattr(schrodinger, "_MEMORY_BUDGET", 1e5)
    monkeypatch.setattr(schrodinger, "_inverse_iteration", no_cluster)
    with pytest.raises(ValidationError, match="clusters of 10 of its 10 "
                       "levels on 1199 nodes"):
        harmonic_eigensystem()


def test_eigensolve_1d_slice_counts_must_add_up(monkeypatch):
    # a slice that loses a level leaves the spectrum incomplete
    bisect = schrodinger._bisect
    monkeypatch.setattr(schrodinger, "_bisect", lambda *args: bisect(*args)[1:])
    with pytest.raises(NumericalError, match="not the 50 counted"):
        _solve_window(parse_potential("x1^2"), 1.0, 0.01)


@st.composite
def tridiagonals(draw):
    """(d, e, vl, vu, tol): a random symmetric tridiagonal, half of them two
    copies of one block, whose every level is an exactly degenerate pair,
    and a window (vl, vu] and bisection tolerance"""
    G = draw(st.integers(2, 30))  # scipy's dstebz takes no empty e
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d, e = rng.uniform(-2.0, 2.0, G), rng.uniform(-1.0, 1.0, G - 1)
    if draw(st.booleans()):
        d, e = np.concatenate([d, d]), np.concatenate([e, [0.0], e])
    vl = draw(st.floats(-5.0, 3.0))
    vu = vl + draw(st.floats(0.01, 6.0))
    return d, e, vl, vu, draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))


@settings(max_examples=80, deadline=None)
@given(tridiagonals())
def test_lapack_shim_matches_scipy_bit_for_bit(case):
    d, e, vl, vu, tol = case
    G = d.size
    m, w, _, _, info = lapack.dstebz(d, e, 1, vl, vu, 0, 0, tol, "E")  # (vl, vu]
    assert info == 0
    assert np.array_equal(schrodinger._bisect(d, e, vl, vu, tol), w[:m])
    if m == 0:
        return
    iblock = np.ones(G, dtype=np.int32)
    isplit = np.zeros(G, dtype=np.int32)
    isplit[0] = G
    z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        with pytest.raises(NumericalError, match="dstein"):
            schrodinger._inverse_iteration(d, e, w[:m])
    else:
        assert np.array_equal(schrodinger._inverse_iteration(d, e, w[:m]), z)


def test_lapack_shim_refuses_other_arrays():
    # the shim hands raw pointers to LAPACK: a strided or float32 array
    # would be read wrongly, and a short one past its end, so each is
    # refused before the call
    d, e = np.full(8, 2.0), np.full(7, -1.0)
    with pytest.raises(TypeError):
        schrodinger._bisect(np.full(16, 2.0)[::2], e, 0.0, 4.0, 0.0)
    with pytest.raises(TypeError):
        schrodinger._bisect(d.astype(np.float32), e, 0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        schrodinger._bisect(d, e[:-1], 0.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        schrodinger._inverse_iteration(d, e[:-1], np.array([1.0]))


def test_parallel_map_runs_each_task_once_on_many_threads():
    # more threads than cores, switching every microsecond: the shared
    # index iterator hands each task to exactly one thread
    ran = [0] * 500

    def task(i):
        ran[i] += 1
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = schrodinger._parallel_map(task, [(i,) for i in range(500)], 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == [i * i for i in range(500)]
    assert ran == [1] * 500


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


# x1^2 + x2^2 with a mixed term: not A(x1) + B(x2), so its 2-D solve takes
# the inertia count and one Lanczos call
MIXED = "x1^2 + x2^2 + 0.2*x1^2*x2^2"


def test_eigensolve_2d_one_lanczos_call_at_the_inertia_count(monkeypatch):
    # the mixed well at hbar=0.1 on a coarse grid: 13 levels <= 1, all from
    # one Lanczos call that asks for exactly the inertia count
    ks = []
    eigsh = schrodinger.eigsh

    def counting(*args, **kwargs):
        ks.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(schrodinger, "eigsh", counting)
    grid = Grid(2, 1.5, 41)
    H, lam, U = dense_levels(MIXED, 0.1, grid)
    es = eigensolve(H, 1.0, grid, 0.1)
    assert ks == [13]
    assert_matches_dense(es, H, lam, U)


def test_eigensolve_2d_empty_window_runs_no_lanczos(monkeypatch):
    # every level lies above the cap.  The mixed well's inertia count, one
    # LU, is 0 and no Lanczos call follows; the separable well counts the
    # sums of its 1-D levels, with no LU at all
    lus = []
    splu = schrodinger.splu

    def counting(*args, **kwargs):
        lus.append(kwargs)
        return splu(*args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("no Lanczos call expected")

    monkeypatch.setattr(schrodinger, "splu", counting)
    monkeypatch.setattr(schrodinger, "eigsh", fail)
    grid = Grid(2, 1.5, 61)
    for text, factors in ((MIXED + " + 1", 1), ("x1^2 + x2^2 + 1", 0)):
        lus.clear()
        H = assemble_hamiltonian(parse_potential(text), 0.08, grid)
        es = eigensolve(H, 0.5, grid, 0.08)
        assert len(lus) == factors
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
    H = assemble_hamiltonian(parse_potential(MIXED), 0.08, grid)
    eigensolve(H, 1.0, grid, 0.08)
    assert calls == {"eigh_tridiagonal": 1, "eigsh": 1}
    # a separable H solves its two 1-D factors
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2"), 0.08, grid)
    eigensolve(H, 1.0, grid, 0.08)
    assert calls == {"eigh_tridiagonal": 3, "eigsh": 1}


def test_eigensolve_2d_singular_shift_is_a_numerical_error():
    # at hbar=1e-160 the kinetic part underflows and H - I is singular where
    # V = 1 at a node, (1, 0) of the mixed well: no inertia count, and a
    # NumericalError (exit 2), not a traceback from the factorisation
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(parse_potential(MIXED), 1e-160, grid)
    with pytest.raises(NumericalError, match="no inertia count"):
        eigensolve(H, 1.0, grid, 1e-160)


def test_eigensolve_2d_separable_at_a_vanishing_hbar_solves_every_counted_level():
    # x1^2 + x2^2 at hbar=1e-160: the 1-D factors are diagonal to rounding,
    # and the level V(1, 0) = 1 sits on the cap, where its sum is counted.
    # Its Ritz value may round a few ulps above the cap (1.0000000000000009
    # with this BLAS), well inside 1e-10 ||H||: it is clamped, not refused
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2"), 1e-160, grid)
    es = eigensolve(H, 1.0, grid, 1e-160)
    assert es.eigenvalues.size == schrodinger.level_count(H, 1.0, grid)
    assert es.eigenvalues.max() <= 1.0


@functools.lru_cache(maxsize=None)
def _dense(text, hbar, L, points):
    grid = Grid(2, L, points)
    H = assemble_hamiltonian(parse_potential(text), hbar, grid)
    lam, U = np.linalg.eigh(H.toarray())
    return H, lam, U


def dense_levels(text, hbar, grid):
    """(H, eigenvalues, unit eigenvectors) of the 2-D H by dense LAPACK,
    computed once per potential, hbar and grid."""
    return _dense(text, hbar, grid.half_width, grid.points_per_axis)


def assert_matches_dense(es, H, lam, U):
    """Levels to 1e-12, projector entries to 1e-10, residuals to 1e-10 ||H||
    and orthonormality to 1e-12, on unit-norm vectors."""
    N = es.eigenvalues.size
    assert N > 0 and lam[N - 1] <= es.mu_cap < lam[N]
    assert np.max(np.abs(es.eigenvalues - lam[:N])) <= 1e-12
    unit = es.eigenvectors * math.sqrt(es.grid.weight)
    proj = U[:, :N] @ U[:, :N].T
    assert np.max(np.abs(unit @ unit.T - proj)) <= 1e-10
    hnorm = np.max(abs(H).sum(axis=1))
    resid = np.linalg.norm(H @ unit - unit * es.eigenvalues, axis=0)
    assert np.max(resid) <= 1e-10 * hnorm
    assert np.max(np.abs(unit.T @ unit - np.eye(N))) <= 1e-12


@pytest.mark.parametrize("text", [
    "x1^2 + x2^2", "x1^2 + 2*x2^2", "x1^4 + x2^4 - x1^2", MIXED,
])
def test_eigensolve_2d_matches_a_dense_oracle(text):
    # three separable wells from their 1-D factors, then Rayleigh-Ritz, and
    # the mixed well shift-inverted below its spectrum, against LAPACK's
    # dense eigh of the same H (15, 9, 33 and 13 levels below 1)
    grid = Grid(2, 1.5, 41)
    H, lam, U = dense_levels(text, 0.1, grid)
    assert_matches_dense(eigensolve(H, 1.0, grid, 0.1), H, lam, U)


@pytest.mark.parametrize("text, top", [
    ("x1^2 + x2^2", 13), ("x1^2 + x2^2", 14), ("x1^2 + 2*x2^2", 7),
    (MIXED, 11),
], ids=["degenerate", "simple", "below-the-spectrum", "mixed"])
def test_eigensolve_2d_cap_just_above_a_level(text, top):
    # a cap 1e-6 above level `top`, which the sums of the 1-D levels and,
    # for the mixed well, the inertia count of the nearly singular H - cap I
    # must keep; level 13 of the isotropic well is a pair of equal levels,
    # level 14 a single one
    grid = Grid(2, 1.5, 41)
    H, lam, U = dense_levels(text, 0.1, grid)
    cap = lam[top] + 1e-6
    es = eigensolve(H, cap, grid, 0.1)
    assert es.eigenvalues.size == top + 1
    assert_matches_dense(es, H, lam, U)


def test_eigensolve_2d_caps_across_the_isotropic_window():
    # every cap midway between two of the first 55 levels of the isotropic
    # well, and 1e-9 above each distinct level, meets the dense oracle
    grid = Grid(2, 1.5, 41)
    H, lam, U = dense_levels("x1^2 + x2^2", 0.1, grid)
    distinct = lam[:56][np.diff(lam[:57]) > 1e-8]
    caps = np.concatenate([0.5 * (distinct[:-1] + distinct[1:]), distinct + 1e-9])
    for cap in caps:
        assert_matches_dense(eigensolve(H, cap, grid, 0.1), H, lam, U)


@pytest.mark.parametrize("bump, lanczos", [(0.5e-12, False), (2e-12, True)],
                         ids=["within", "above"])
def test_eigensolve_2d_mixed_term_past_the_tolerance_takes_lanczos(
    monkeypatch, bump, lanczos
):
    # one diagonal entry of x1^2 + x2^2 moved by bump * max |D|: a mixed
    # remainder of that size, which the 1-D split accepts up to 1e-12
    calls = []
    eigsh = schrodinger.eigsh

    def spying(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(schrodinger, "eigsh", spying)
    grid = Grid(2, 1.5, 41)
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2"), 0.1, grid)
    D = H.diagonal()
    H = H + sp.diags(np.where(np.arange(D.size) == D.size // 2,
                              bump * np.max(np.abs(D)), 0.0))
    assert (schrodinger._separable(H, grid) is None) == lanczos
    es = eigensolve(H, 1.0, grid, 0.1)
    assert calls == ([15] if lanczos else [])
    _, lam, _ = dense_levels("x1^2 + x2^2", 0.1, grid)
    assert np.max(np.abs(es.eigenvalues - lam[:15])) <= 1e-10


@pytest.mark.parametrize("text", ["x1^4 + x2^4 - x1^2", "x1^2 + 2*x2^2"])
def test_eigensolve_2d_below_the_spectrum_factors_by_the_symmetric_ldlt(
    monkeypatch, text
):
    # each well plus the mixed term 0.2 x1^2 x2^2, which is not separable:
    # the count and the Lanczos call both factor with _ldlt (symmetric mode,
    # no pivoting, a symmetric minimum-degree order)
    calls = []
    splu = schrodinger.splu

    def recording(A, **kwargs):
        calls.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(schrodinger, "splu", recording)
    grid = Grid(2, 1.5, 41)
    H = assemble_hamiltonian(parse_potential(f"{text} + 0.2*x1^2*x2^2"), 0.1,
                             grid)
    eigensolve(H, 1.0, grid, 0.1)
    ldlt = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
            "options": {"SymmetricMode": True}}
    assert calls == [ldlt, ldlt]


@pytest.mark.parametrize("text, shift", [(MIXED, "below"), ("x1^2 + x2^2", None)])
def test_eigensolve_2d_shift_follows_the_trap(monkeypatch, text, shift):
    # a non-separable trap shift-inverts below the Gershgorin bound and takes
    # the largest 1 / (lambda - sigma); a separable one runs no Lanczos call
    calls = []
    eigsh = schrodinger.eigsh

    def spying(A, **kwargs):
        calls.append((kwargs["sigma"], kwargs["which"]))
        return eigsh(A, **kwargs)

    monkeypatch.setattr(schrodinger, "eigsh", spying)
    grid = Grid(2, 1.5, 41)
    H = assemble_hamiltonian(parse_potential(text), 0.1, grid)
    eigensolve(H, 1.0, grid, 0.1)
    if shift is None:
        assert calls == []
    else:
        [(sigma, which)] = calls
        assert which == "LM"
        assert sigma < H.diagonal().min() - 4.0 * 0.1 ** 2 / grid.spacing ** 2


@pytest.mark.parametrize("text", ["x1^2 + x2^2", "x1^2 + 2*x2^2", MIXED])
def test_eigensolve_2d_corrupted_solve_is_a_numerical_error(monkeypatch, text):
    # vectors that are not H's eigenvectors reach no CSV: the residual check
    # refuses them.  The separable wells get 1-D factor vectors perturbed by
    # a random 1e-3 and orthonormalised again; the mixed well a
    # shift-invert operator that is not (H - sigma I)^-1, here off by a
    # random diagonal of 1e-3
    eigsh, factor = schrodinger.eigsh, schrodinger._tridiagonal_eigenvectors
    rng = np.random.default_rng(1)

    def corrupted(A, **kwargs):
        solve = kwargs["OPinv"].matvec
        noise = rng.uniform(0.0, 1e-3, A.shape[0])
        kwargs["OPinv"] = LinearOperator(
            A.shape, matvec=lambda x: solve(x) + noise * x.ravel(), dtype=float)
        return eigsh(A, **kwargs)

    def perturbed(T, cap):
        vals, vecs = factor(T, cap)
        return vals, np.linalg.qr(vecs + rng.uniform(0.0, 1e-3, vecs.shape))[0]

    monkeypatch.setattr(schrodinger, "eigsh", corrupted)
    monkeypatch.setattr(schrodinger, "_tridiagonal_eigenvectors", perturbed)
    grid = Grid(2, 1.5, 41)
    H = assemble_hamiltonian(parse_potential(text), 0.1, grid)
    with pytest.raises(NumericalError, match="residual"):
        eigensolve(H, 1.0, grid, 0.1)


def test_eigensolve_1d_corrupted_solve_is_a_numerical_error(monkeypatch):
    # each 1-D cluster's inverse-iteration vectors pass the same residual
    # check as the 2-D bases; here perturbed by a random 1e-3 and
    # orthonormalised again
    inverse_iteration = schrodinger._inverse_iteration
    rng = np.random.default_rng(1)

    def perturbed(d, e, w):
        z = inverse_iteration(d, e, w)
        return np.linalg.qr(z + rng.uniform(0.0, 1e-3, z.shape))[0]

    monkeypatch.setattr(schrodinger, "_inverse_iteration", perturbed)
    with pytest.raises(NumericalError, match="eigen-residual"):
        harmonic_eigensystem()


def test_solve_peak_estimate():
    m = 199.0 ** 2
    assert schrodinger._solve_peak_bytes(1, 199.0, 20.0) == 16.0 * 199 * 20
    # x1^2 + x2^2 at hbar = 0.07 (N = 28, N_est = 25.5 on 199^2 nodes):
    # the solve, with its Lanczos call at k = 28, grew RSS by 65 MB,
    # estimated 70 MB; at hbar = 0.03 (N = 136 on 288^2 nodes) by 418 MB,
    # estimated 528 MB
    assert 65e6 < schrodinger._solve_peak_bytes(2, m, 25.5) < 1.25 * 65e6
    # x1^2 at hbar = 1.25e-3 (N = 400 on 33,941 nodes), 17 rows kept: the
    # solve's traced peak was 5.0 MB, against 113 MB for every row
    assert 5.0e6 < schrodinger._solve_peak_bytes(1, 33941.0, 400.0,
                                                 rows=17) < 2.0 * 5.0e6
    # the Kronecker path at hbar = 0.03 (N = 136 on 288^2 nodes) and the
    # DPP built on it grew RSS by 172.7 MB, with a traced peak of 183.2 MB:
    # the (m, N) products and the DPP's copy of them
    kron = schrodinger._solve_peak_bytes(2, 288.0 ** 2, 136.0, separable=True)
    assert 172.7e6 < kron < 1.1 * 183.2e6
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


@pytest.mark.parametrize("text, hbar", [
    ("x1^2+2*x2^2", 0.1),  # the kernel --n 2 golden: the Kronecker basis
    (MIXED, 0.15),         # the Lanczos basis
])
def test_eigensolve_2d_rows_are_the_full_solve_rows_bit_for_bit(text, hbar):
    # 2-D rows are taken after the Rayleigh-Ritz step, so its numerics are
    # those of a full solve
    grid, H = _solve_grid(parse_potential(text), 1.0, hbar)
    pts = np.zeros((5, 2))
    pts[:, 0] = np.linspace(-0.5, 0.5, 5)
    idx = node_index(grid, pts)
    full = eigensolve(H, 1.0, grid, hbar)
    part = eigensolve(H, 1.0, grid, hbar, rows=idx)
    assert part.eigenvectors.shape == (5, full.eigenvalues.size)
    assert np.array_equal(part.eigenvalues, full.eigenvalues)
    assert np.array_equal(part.eigenvectors, full.eigenvectors[idx])


def test_eigensolve_2d_separable_runs_no_rayleigh_ritz_on_the_products(
        monkeypatch):
    # the products are checked through their factors' residuals: every
    # Rayleigh-Ritz step runs on a 1-D cluster of 39 rows, none on m rows
    heights = []
    rayleigh_ritz = schrodinger._rayleigh_ritz

    def spying(H, vecs, cap, hnorm):
        heights.append(vecs.shape[0])
        return rayleigh_ritz(H, vecs, cap, hnorm)

    monkeypatch.setattr(schrodinger, "_rayleigh_ritz", spying)
    grid = Grid(2, 1.5, 41)
    H = assemble_hamiltonian(parse_potential("x1^2 + 2*x2^2"), 0.1, grid)
    assert eigensolve(H, 1.0, grid, 0.1).eigenvalues.size == 9
    assert heights and set(heights) == {39}


def test_eigensolve_2d_separable_rows_peak_below_one_product_block():
    # x1^2 + x2^2 at hbar = 0.03: 136 levels on 82,944 nodes, so one (m, N)
    # block of products is 90 MB; 5 rows of them come from the factors alone
    grid, H = _solve_grid(parse_potential("x1^2 + x2^2"), 1.0, 0.03)
    m = H.shape[0]
    pts = np.zeros((5, 2))
    pts[:, 0] = np.linspace(-0.5, 0.5, 5)
    idx = node_index(grid, pts)
    tracemalloc.start()
    try:
        es = eigensolve(H, 1.0, grid, 0.03, rows=idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = es.eigenvalues.size
    assert (m, N) == (82944, 136)
    assert es.eigenvectors.shape == (5, N)
    assert peak < 8 * m * N


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
# the projector at the convergence probes and in the kernel table


def test_bulk_convergence_reads_the_projector_on_nodes(monkeypatch):
    # against a zero limit the sup error is eps max |Pi| over the nodes
    # nearest the probes
    monkeypatch.setattr("fermigas.experiments.bulk_kernel", lambda n, x, y: 0.0)
    V = parse_potential("x1^2")
    rep = bulk_convergence(V, 1.0, 0.0, [0.02])
    es = _solve_window(V, 1.0, 0.02)
    eps = bulk_scale(0.02, 0.0, 1.0, 1)
    ax = es.grid.interior_axis
    probes = eps * np.linspace(-2.0, 2.0, 17)
    idx = np.round((probes - ax[0]) / es.grid.spacing).astype(int)
    want = eps * np.max(np.abs(projector_matrix(es, 1.0)[np.ix_(idx, idx)]))
    assert rep.column("sup_error")[0] == pytest.approx(want, rel=1e-15)


def test_edge_convergence_mirrors_across_an_even_potential():
    # the left edge probes along -x1; mirrored probes give the same error
    V = parse_potential("x1^4-x1^2")
    x0 = 1.1687708944803676
    left = edge_convergence(V, 0.5, -x0, [0.02, 0.01]).column("sup_error")
    right = edge_convergence(V, 0.5, x0, [0.02, 0.01]).column("sup_error")
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=0.0)


def test_node_rows_point_outside_box():
    grid = harmonic_eigensystem().grid
    for point in (5.0, -3.0001, math.nan):
        with pytest.raises(ValidationError, match="outside"):
            node_index(grid, [[point]])
    # a flat list of 1-D points, or 2-D points, is not read as (m, 1)
    for points in ([0.0, 0.1], [[0.0, 0.1]]):
        with pytest.raises(ValidationError, match=r"\(m, 1\) array"):
            node_index(grid, points)


@functools.cache
def small_eigensystem(n):
    """A harmonic trap at hbar = 0.15 on a small grid, 59 or 29^2 nodes:
    3 levels <= 1 in 1-D, 6 in 2-D, none of them near 1."""
    V = parse_potential("x1^2" if n == 1 else "x1^2 + x2^2")
    grid = Grid(n, 2.0, 61 if n == 1 else 31)
    return eigensolve(assemble_hamiltonian(V, 0.15, grid), 1.0, grid, 0.15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.data())
def test_node_rows_read_the_projector_at_the_nearest_nodes(n, data):
    es = small_eigensystem(n)
    grid = es.grid
    L = grid.half_width
    pts = np.array(data.draw(st.lists(
        st.lists(st.floats(-L, L), min_size=n, max_size=n),
        min_size=1, max_size=40,
    )))
    idx = node_index(grid, pts)
    assert np.array_equal(idx, np.unique(idx))
    # every point's nearest interior node is among idx, within half a step
    # on each axis unless the point lies beyond the outermost node
    nodes = grid.interior_points()[idx]
    gap = np.abs(pts[:, None, :] - nodes[None, :, :])
    edge = np.abs(pts) > grid.interior_axis[-1]
    near = (gap <= 0.5 * grid.spacing * (1 + 1e-12)) | edge[:, None, :]
    assert np.all(np.any(np.all(near, axis=2), axis=1))
    # the filled eigenvectors' rows R at idx give R R^T, the full projector
    # restricted to idx; the two products agree to a few ulps only, as BLAS
    # picks its kernel by the matrix shape
    R = es.below(1.0)[1][idx]
    full = projector_matrix(es, 1.0)
    ulp = np.finfo(float).eps * np.abs(full).max()
    np.testing.assert_allclose(R @ R.T, full[np.ix_(idx, idx)], rtol=0.0,
                               atol=4.0 * ulp)


@pytest.mark.parametrize("n", [1, 2])
def test_node_rows_over_every_node_trace_the_count(n):
    es = small_eigensystem(n)
    idx = node_index(es.grid, es.grid.interior_points())
    assert np.array_equal(idx, np.arange(es.grid.interior_count))
    levels, vecs = es.below(1.0)
    R, N = vecs[idx], levels.size
    assert N == (3 if n == 1 else 6)
    assert np.trace(R @ R.T) * es.grid.weight == pytest.approx(N, rel=1e-12)


@functools.cache
def signed_eigensystem(n):
    """A harmonic trap below cap 1.1, x1^2 at hbar = 0.05 on 299 nodes or
    x1^2 + x2^2 at hbar = 0.1 on 39^2: the 1-D process takes the dense
    sampling path at mu = 0.9 (9 levels) and the tree path at 0.5."""
    hbar = 0.05 if n == 1 else 0.1
    V = parse_potential("x1^2" if n == 1 else "x1^2 + x2^2")
    grid = Grid(n, 3.0 if n == 1 else 2.0, 301 if n == 1 else 41)
    return V, eigensolve(assemble_hamiltonian(V, hbar, grid), 1.1, grid, hbar)


def sign_blind_statistics(V, es, mu):
    """Every statistic the CSVs read off the eigenvectors of es at mu."""
    dpp = from_eigensystem(es, mu)
    nodes = es.grid.interior_points()
    f = np.exp(-np.sum((nodes - 0.3) ** 2, axis=1))
    var = var_linear_stat(dpp, f)
    draws = samples(dpp, [RngState(7).stream(t) for t in range(8)])
    R = es.below(mu)[1][node_index(es.grid, nodes[::7])]
    return [
        draws,
        mean_linear_stat(dpp, f),
        var,
        _exact_skewness(dpp, f, var),
        laplace_functional(dpp, f),
        R @ R.T,
        agmon_check(es, V, mu, 0.1).norms,
    ]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.sampled_from([0.5, 0.9]),
       st.integers(0, 2 ** 32 - 1))
def test_eigenvector_signs_reach_no_statistic(n, mu, seed):
    # an eigenvector is defined up to sign, and every consumer uses a column
    # only in products with itself, where IEEE negation is exact: flipping
    # any columns changes no bit of the samples, traces, determinant,
    # projector rows or Agmon norms
    V, es = signed_eigensystem(n)
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], es.eigenvalues.size)
    flipped = dataclasses.replace(es, eigenvectors=es.eigenvectors * signs)
    for want, got in zip(sign_blind_statistics(V, es, mu),
                         sign_blind_statistics(V, flipped, mu)):
        assert np.array_equal(want, got)


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
