"""Grid, Hamiltonian assembly, eigensolver, projector and Agmon diagnostics."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.special import eval_hermite

from fermigas import schrodinger
from fermigas.dpp import from_eigensystem
from fermigas.errors import NumericalError, ValidationError
from fermigas.experiments import (
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


def test_level_count_between_levels_is_exact():
    # inertia counts the levels below cap: a cap at the midpoint of levels
    # j and j + 1 counts j + 1, and a cap within a float of level j counts
    # it or not, by rounding
    grid = Grid(1, 1.5, 1501)
    H = assemble_hamiltonian(parse_potential("x1^2"), 0.01, grid)
    levels = eigensolve(H, 1.0, grid, 0.01).eigenvalues
    assert levels.size == 50
    for j, mid in enumerate(0.5 * (levels[:-1] + levels[1:])):
        assert schrodinger.level_count(H, mid) == j + 1
    for j, lam in enumerate(levels):
        for cap in (np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)):
            assert schrodinger.level_count(H, cap) in (j, j + 1)


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
    assert schrodinger.level_count(H, mu) == bisected.size == want


@pytest.mark.parametrize("text", ["x1^2 + x2^2", "x1^2 + 2*x2^2"])
@pytest.mark.parametrize("hbar", [0.1, 0.07])
def test_level_count_matches_the_eigensolve_count_2d(text, hbar):
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(parse_potential(text), hbar, grid)
    es = eigensolve(H, 1.0, grid, hbar)
    assert es.eigenvalues.size > 0
    assert schrodinger.level_count(H, 1.0) == es.eigenvalues.size


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
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    assert np.array_equal(one.eigenvectors, two.eigenvectors)


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


def test_eigensolve_2d_one_lanczos_call_at_the_inertia_count(monkeypatch):
    # x1^2 + x2^2 at hbar=0.08 on a coarse grid: 21 levels <= 1, all from
    # one Lanczos call that asks for exactly the inertia count
    ks = []
    eigsh = schrodinger.eigsh

    def counting(*args, **kwargs):
        ks.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(schrodinger, "eigsh", counting)
    V = parse_potential("x1^2 + x2^2")
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(V, 0.08, grid)
    es = eigensolve(H, 1.0, grid, 0.08)
    assert ks == [21]
    exact = np.sort(
        [0.16 * (k1 + k2 + 1) for k1 in range(7) for k2 in range(7)]
    )
    exact = exact[exact <= 1.0]
    # coarse grid, so only window completeness and rough locations matter here
    assert np.allclose(es.eigenvalues, exact, atol=1.5e-2)


def test_eigensolve_2d_empty_window_runs_no_lanczos(monkeypatch):
    # every level lies above the cap: the inertia count, one LU, is 0 and
    # no Lanczos call follows
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
    H = assemble_hamiltonian(parse_potential("x1^2 + x2^2 + 1"), 0.08, grid)
    es = eigensolve(H, 0.5, grid, 0.08)
    assert len(lus) == 1
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


def test_eigensolve_2d_singular_shift_is_a_numerical_error():
    # at hbar=1e-160 the kinetic part underflows and H - I is singular where
    # V = 1 at a node: no inertia count, and a NumericalError (exit 2), not
    # a traceback from the factorisation
    V = parse_potential("x1^2 + x2^2")
    grid = Grid(2, 1.5, 61)
    H = assemble_hamiltonian(V, 1e-160, grid)
    with pytest.raises(NumericalError, match="no inertia count"):
        eigensolve(H, 1.0, grid, 1e-160)


def test_solve_peak_estimate():
    m = 199.0 ** 2
    assert schrodinger._solve_peak_bytes(1, 199.0, 20.0) == 16.0 * 199 * 20
    # x1^2 + x2^2 at hbar = 0.07 (N = 28, N_est = 25.5 on 199^2 nodes):
    # the solve, with its Lanczos call at k = 28, grew RSS by 65 MB,
    # estimated 70 MB; at hbar = 0.03 (N = 136 on 288^2 nodes) by 418 MB,
    # estimated 528 MB
    assert 65e6 < schrodinger._solve_peak_bytes(2, m, 25.5) < 1.25 * 65e6
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


def test_edge_convergence_does_not_interpolate(monkeypatch):
    def refuse(*args):
        raise AssertionError("the convergence drivers read grid nodes")

    monkeypatch.setattr(schrodinger, "_interpolate", refuse)
    rep = edge_convergence(parse_potential("x1^2"), 1.0, 1.0, [0.02])
    assert np.isfinite(rep.column("sup_error")[0])


def test_edge_convergence_mirrors_across_an_even_potential():
    # the left edge probes along -x1; mirrored probes give the same error
    V = parse_potential("x1^4-x1^2")
    x0 = 1.1687708944803676
    left = edge_convergence(V, 0.5, -x0, [0.02, 0.01]).column("sup_error")
    right = edge_convergence(V, 0.5, x0, [0.02, 0.01]).column("sup_error")
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=0.0)


def test_rescaled_kernel_probe_outside_box():
    es = harmonic_eigensystem()
    with pytest.raises(ValidationError, match="outside"):
        rescaled_kernel(es, 1.0, [[5.0]])


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
