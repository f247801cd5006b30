"""Acceptance gate: thirteen headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every check uses the stated tolerance; stochastic checks fix their
seeds, so the whole gate is deterministic.
"""

import math
import time

import numpy as np
import pytest

from oracles import airy_oracle
from test_potential import GRADIENT_CASES, ROUND_TRIP_CORPUS

from fermigas.dpp import (
    RngState,
    from_eigensystem,
    from_kernel,
    laplace_functional,
    samples,
    var_linear_stat,
)
from fermigas.experiments import (
    TestFunction,
    bulk_convergence,
    clt_monte_carlo,
    edge_convergence,
    free_variance_asymptotic,
    free_variance_bruteforce,
    free_variance_exact,
    gaussian_tail_check,
    lln_wasserstein,
    sigma_fourier,
    sigma_slobodeckij,
    sigma_n_squared,
    weyl_check,
)
from fermigas.kernels import (
    airy_kernel_1d,
    bulk_kernel,
    edge_kernel,
    free_laplacian_window,
)
from fermigas.potential import grad_potential, parse_potential
from fermigas.schrodinger import (
    Grid,
    agmon_check,
    assemble_hamiltonian,
    eigensolve,
    solve,
)
from fermigas.specfun import airy_ai, airy_ai_prime, bessel_j


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


HARMONIC = parse_potential("x1^2")


def test_criterion_01_weyl_law():
    t0 = time.perf_counter()
    hbars = [0.05, 0.02, 0.01]
    rep = weyl_check(HARMONIC, 1.0, hbars)
    ok = True
    worst = 0.0
    for hbar, count in zip(rep.column("hbar"), rep.column("count")):
        exact = sum(1 for k in range(10000) if hbar * (2 * k + 1) <= 1.0)
        ok = ok and count == exact
        dev = abs(hbar * count - 0.5)
        worst = max(worst, dev)
        ok = ok and dev <= 2.0 * hbar
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(1, "Weyl law", ok,
            f"max |hbar N - 1/2| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_bulk_universality():
    t0 = time.perf_counter()
    rep = bulk_convergence(HARMONIC, 1.0, 0.0, [0.02, 0.01, 0.005])
    err = rep.column("sup_error")
    ratios = rep.column("ratio")[1:]
    ok = bool(err[0] > err[1] > err[2])
    ok = ok and all(0.3 <= r <= 0.8 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(2, "bulk universality", ok,
            f"errors {np.array2string(err, precision=4)}, "
            f"ratios {np.array2string(ratios, precision=3)}, {elapsed:.1f}s")


def test_criterion_03_edge_universality():
    t0 = time.perf_counter()
    rep = edge_convergence(HARMONIC, 1.0, 1.0, [1e-2, 1.25e-3])
    err = rep.column("sup_error")
    ratio = err[1] / err[0]
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.7 and elapsed < 120.0
    _report(3, "edge universality", ok,
            f"error({1.25e-3:g})/error({1e-2:g}) = {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_04_airy_function():
    ok = abs(airy_ai(0.0) - 0.3550280539) <= 1e-8
    ok = ok and abs(airy_ai_prime(0.0) - (-0.2588194038)) <= 1e-8
    ok = ok and abs(airy_ai(0.0) - airy_oracle(0.0)) <= 1e-8
    h = 1e-3
    worst = 0.0
    for x in np.linspace(-5.0, 5.0, 1001):
        second = (airy_ai(x + h) - 2.0 * airy_ai(x) + airy_ai(x - h)) / h ** 2
        worst = max(worst, abs(second - x * airy_ai(x)))
    ok = ok and worst <= 1e-6
    _report(4, "Airy evaluation", ok,
            f"Ai(0) off by {abs(airy_ai(0.0) - 0.3550280539):.2g}, "
            f"ODE residual {worst:.2g}")


def test_criterion_05_kernel_identities():
    diag_exact = all(
        bulk_kernel(n, x, x) == 1.0
        for n in (1, 2)
        for x in (np.zeros(n), np.full(n, 0.7))
    )
    sine_dev = 0.0
    for d in np.linspace(-3.0, 3.0, 25):
        want = 1.0 if d == 0.0 else math.sin(math.pi * d) / (math.pi * d)
        sine_dev = max(sine_dev, abs(bulk_kernel(1, [0.0], [d]) - want))
    sq_dev = 0.0
    for r in (0.3, 0.9, 2.1):
        got = bulk_kernel(2, [0.0, 0.0], [r, 0.0]) ** 2
        want = bessel_j(1.0, 2.0 * math.sqrt(math.pi) * r) ** 2 / (
            math.pi * r * r
        )
        sq_dev = max(sq_dev, abs(got - want))
    grid = np.linspace(-4.0, 2.0, 13)
    quadrature = edge_kernel(1, grid[:, None, None], grid[None, :, None])
    closed_form = airy_kernel_1d(grid[:, None], grid[None, :])
    edge_dev = float(np.max(np.abs(quadrature - closed_form)))
    ok = diag_exact and sine_dev <= 1e-10 and sq_dev <= 1e-10
    ok = ok and edge_dev <= 1e-6
    _report(5, "kernel identities", ok,
            f"sine dev {sine_dev:.2g}, |K|^2 dev {sq_dev:.2g}, "
            f"edge vs Airy {edge_dev:.2g}")


def test_criterion_06_dpp_identities():
    grid = Grid(1, 3.0, 301)
    H = assemble_hamiltonian(HARMONIC, 0.1, grid)
    es = eigensolve(H, 1.0, grid, 0.1)
    dpp = from_eigensystem(es, 1.0)
    x = grid.interior_points().ravel()

    var_dev = 0.0
    for f in (np.exp(-x ** 2 / 0.1), np.where(x > 0.0, 1.0, 0.0)):
        vals = [var_linear_stat(dpp, f, m)
                for m in ("trace", "commutator", "double_sum")]
        var_dev = max(var_dev, max(vals) - min(vals))
    gd = from_kernel(free_laplacian_window(1, 8.0, 2.0, 0.05))
    xg = gd.nodes.ravel()
    vals = [var_linear_stat(gd, np.exp(-xg ** 2), m)
            for m in ("trace", "commutator", "double_sum")]
    var_dev = max(var_dev, max(vals) - min(vals))

    fvals = 0.8 * np.exp(-x ** 2 / 0.3)
    exact = laplace_functional(dpp, fvals)
    rng = RngState(123)
    drawn = samples(dpp, [rng.stream(t) for t in range(10000)])
    counts_ok = drawn.shape == (10000, dpp.N)
    draws = np.array([math.exp(-s) for s in fvals[drawn].sum(axis=1)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    laplace_dev = abs(draws.mean() - exact)
    ok = var_dev <= 1e-10 and laplace_dev <= 3.0 * se and counts_ok
    _report(6, "exact DPP identities", ok,
            f"variance spread {var_dev:.2g}, Laplace {laplace_dev / se:.2f} SE, "
            f"always {dpp.N} points: {counts_ok}")


def test_criterion_07_free_variance():
    rel = []
    for n in (1, 2):
        g = TestFunction.gaussian_bump(n, np.zeros(n), 1.0)
        exact = free_variance_exact(n, 10.0, g)
        brute = free_variance_bruteforce(n, 10.0, g)
        rel.append(abs(exact - brute) / exact)
    g2 = TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0)
    ratios = [
        free_variance_bruteforce(2, mu, g2) / free_variance_asymptotic(2, mu, g2)
        for mu in (20.0, 40.0, 80.0)
    ]
    monotone = ratios[0] < ratios[1] < ratios[2] or ratios[0] > ratios[1] > ratios[2]
    ok = max(rel) <= 1e-4 and monotone and abs(ratios[-1] - 1.0) <= 0.1
    _report(7, "free-kernel variance", ok,
            f"exact vs brute rel {max(rel):.2g}, "
            f"ratios {[f'{r:.5f}' for r in ratios]}")


def test_criterion_08_seminorm_duality():
    g1 = TestFunction.gaussian_bump(1, 0.0, 1.0)
    lhs = sigma_slobodeckij(g1)
    rhs = (2.0 * math.pi) ** 2 * sigma_n_squared(1) * sigma_fourier(g1)
    duality_rel = abs(lhs - rhs) / rhs

    scale_dev = 0.0
    for n in (1, 2):
        g = TestFunction.gaussian_bump(n, np.zeros(n), 1.0)
        base = sigma_fourier(g)
        for eps in (0.5, 0.25):
            scaled = sigma_fourier(g.rescale(np.zeros(n), eps))
            scale_dev = max(
                scale_dev, abs(scaled - eps ** (n - 1) * base) / base
            )
    ok = duality_rel <= 0.01 and scale_dev <= 1e-6
    _report(8, "H^{1/2} duality", ok,
            f"duality rel {duality_rel:.2g}, scaling dev {scale_dev:.2g}")


def test_criterion_09_clt():
    t0 = time.perf_counter()
    f = TestFunction.gaussian_bump(1, 0.0, 0.2)
    rep = clt_monte_carlo(HARMONIC, 1.0, f, 0.02, 10000, RngState(2718))
    _, _, pvalue, skew, _ = rep.rows[0]
    elapsed = time.perf_counter() - t0
    ok = pvalue >= 0.01 and abs(skew) <= 0.1 and elapsed < 300.0
    _report(9, "central limit theorem", ok,
            f"KS p = {pvalue:.3f}, skewness {skew:+.4f}, {elapsed:.1f}s")


def test_criterion_10_lln():
    rep = lln_wasserstein(HARMONIC, 1.0, [0.05, 0.02], 200, RngState(11))
    means = rep.column("mean_w1")
    ok = bool(means[1] < means[0])
    _report(10, "law of large numbers", ok,
            f"mean W1 {means[0]:.4f} -> {means[1]:.4f}")


def test_criterion_11_agmon_bound():
    eigs = solve(HARMONIC, 1.2, 0.05)
    rep = agmon_check(eigs, HARMONIC, 1.0, 0.2)
    worst = float(np.max(rep.norms))
    ok = worst <= rep.bound and rep.bound == pytest.approx(11.0)
    _report(11, "Agmon bound", ok,
            f"max weighted norm {worst:.4f} <= {rep.bound:g} "
            f"over {rep.norms.size} levels")


def test_criterion_12_gaussian_tails():
    f = TestFunction.gaussian_bump(1, 0.0, 0.4)
    rep = gaussian_tail_check(HARMONIC, 1.0, f, 0.05, 10000, RngState(5))
    c = rep.params["c"]
    under = all(freq <= env + 1e-12 for _, freq, env in rep.rows)
    ok = c > 0.0 and under
    _report(12, "Gaussian tails", ok,
            f"fitted c = {c:.3f}, dominated at t = "
            f"{tuple(r[0] for r in rep.rows)}")


def test_criterion_13_parser():
    ok = len(ROUND_TRIP_CORPUS) == 50
    rt_dev = 0.0
    for text in ROUND_TRIP_CORPUS:
        V1 = parse_potential(text)
        V2 = parse_potential(V1.to_text())
        ok = ok and V2.to_text() == V1.to_text()
        pts = 0.2 + 0.6 * np.linspace(0.0, 1.0, 3)[:, None] * np.ones(
            (3, V1.dimension)
        )
        rt_dev = max(rt_dev, float(np.max(np.abs(V1(pts) - V2(pts)))))
    grad_dev = 0.0
    for text, point in GRADIENT_CASES:
        V = parse_potential(text)
        point = np.asarray(point, dtype=float)
        sym = grad_potential(V, point)
        for k in range(point.size):
            lo, hi = point.copy(), point.copy()
            lo[k] -= 1e-6
            hi[k] += 1e-6
            fd = (float(V(hi.reshape(1, -1))[0]) - float(V(lo.reshape(1, -1))[0])) / 2e-6
            grad_dev = max(grad_dev, abs(sym[k] - fd))
    ok = ok and rt_dev <= 1e-12 and grad_dev <= 1e-6
    _report(13, "expression parser", ok,
            f"50 round trips, value dev {rt_dev:.2g}, gradient dev {grad_dev:.2g}")
