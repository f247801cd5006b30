"""Limiting kernels, Weyl constant, density of states, microscopic scales."""

import math

import numpy as np
import pytest

import oracles
from fermigas import kernels
from fermigas.errors import NumericalError, ValidationError
from fermigas.kernels import (
    EdgeQuadrature,
    KernelEvaluation,
    KernelKind,
    _airy_envelope,
    airy_kernel_1d,
    bulk_kernel,
    bulk_scale,
    density_of_states,
    edge_kernel,
    edge_scale,
    free_laplacian_kernel,
    weyl_constant,
)
from fermigas.potential import parse_potential
from fermigas.specfun import airy_ai, bessel_j, unit_ball_volume

# J_1(1) frozen from the Poisson-integral oracle
J1_1 = 0.44005058574493355
# Ai'(0)^2 = 3^{-2/3} / Gamma(1/3)^2, also int_0^inf Ai(s)^2 ds
AIRY_SQ_INTEGRAL = 0.06698748377966399


# ---------------------------------------------------------------------------
# free-Laplacian kernel


def test_free_laplacian_reduces_to_sine_in_1d():
    for mu in (0.5, 1.0, 3.0):
        for r in (0.1, 0.7, 2.4):
            got = free_laplacian_kernel(1, mu, [0.0], [r])
            assert got == pytest.approx(
                math.sin(mu * r) / (math.pi * r), abs=1e-12
            )


def test_free_laplacian_diagonal_intensity():
    for n in (1, 2, 3):
        for mu in (0.5, 1.0, 2.0):
            want = mu ** n * unit_ball_volume(n) / (2.0 * math.pi) ** n
            assert free_laplacian_kernel(n, mu, [0.0] * n, [0.0] * n) == want


def test_free_laplacian_2d_frozen_value():
    got = free_laplacian_kernel(2, 1.0, [0.0, 0.0], [1.0, 0.0])
    assert got == pytest.approx(J1_1 / (2.0 * math.pi), abs=1e-13)
    # and against the quadrature oracle directly
    assert got == pytest.approx(
        oracles.bessel_oracle(1.0, 1.0) / (2.0 * math.pi), abs=1e-12
    )


def test_free_laplacian_zero_mu_and_errors():
    assert free_laplacian_kernel(2, 0.0, [0.0, 0.0], [1.0, 0.0]) == 0.0
    with pytest.raises(ValidationError):
        free_laplacian_kernel(0, 1.0, [], [])
    with pytest.raises(ValidationError):
        free_laplacian_kernel(1, -1.0, [0.0], [1.0])


# ---------------------------------------------------------------------------
# bulk kernel


def test_bulk_diagonal_is_exactly_one():
    assert bulk_kernel(1, [0.3], [0.3]) == 1.0
    assert bulk_kernel(2, [1.0, -2.0], [1.0, -2.0]) == 1.0
    assert bulk_kernel(3, [0.0] * 3, [0.0] * 3) == 1.0


def test_bulk_is_sine_kernel_in_1d():
    for r in (0.2, 0.5, 1.7, 3.3):
        got = bulk_kernel(1, [0.0], [r])
        assert got == pytest.approx(
            math.sin(math.pi * r) / (math.pi * r), abs=1e-10
        )


def test_bulk_squared_modulus_in_2d():
    # |K(x,y)|^2 = J_1(2 sqrt(pi) r)^2 / (pi r^2)
    for r in (0.3, 0.9, 2.1):
        got = bulk_kernel(2, [0.0, 0.0], [r, 0.0]) ** 2
        want = bessel_j(1.0, 2.0 * math.sqrt(math.pi) * r) ** 2 / (
            math.pi * r * r
        )
        assert got == pytest.approx(want, abs=1e-10)


def test_bulk_translation_and_rotation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        v = rng.normal(size=2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        R = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        base = bulk_kernel(2, x, y)
        assert bulk_kernel(2, x + v, y + v) == pytest.approx(base, abs=1e-12)
        assert bulk_kernel(2, R @ x, R @ y) == pytest.approx(base, abs=1e-12)


def test_kernel_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        assert bulk_kernel(2, x, y) == pytest.approx(
            bulk_kernel(2, y, x), abs=1e-15
        )
    for _ in range(3):
        a, b = rng.uniform(-3.0, 1.0, size=2)
        assert airy_kernel_1d(a, b) == pytest.approx(
            airy_kernel_1d(b, a), abs=1e-15
        )


# ---------------------------------------------------------------------------
# Airy kernel and edge kernel


def test_airy_kernel_diagonal_at_zero():
    got = airy_kernel_1d(0.0, 0.0)
    assert got == pytest.approx(AIRY_SQ_INTEGRAL, abs=1e-14)
    assert got == pytest.approx(0.0669865, abs=1e-6)
    # the same number is the integral of Ai^2 over [0, inf)
    assert oracles.airy_sq_tail_oracle(0.0) == pytest.approx(got, abs=1e-10)


def test_airy_kernel_near_diagonal_continuity():
    # straddle the midpoint-formula threshold at |x - y| = 1e-5
    for x in (-2.0, 0.0, 1.5):
        inside = airy_kernel_1d(x, x + 1e-5 - 1e-8)
        outside = airy_kernel_1d(x, x + 1e-5 + 1e-8)
        assert abs(inside - outside) <= 1e-8


def test_airy_envelope_dominates_airy():
    for t in np.arange(-8.0, 12.0, 0.05):
        assert abs(airy_ai(t)) <= _airy_envelope(t) + 1e-15


def test_edge_kernel_matches_airy_closed_form_1d():
    pts = np.arange(-4.0, 2.5, 1.0)
    pairs = [(x, y) for x in pts for y in pts]
    # deep on the oscillatory side, where a Maclaurin series for Ai fails
    pairs += [(-14.0, -13.0), (-13.0, -14.0), (-14.0, -14.0)]
    for x, y in pairs:
        got = edge_kernel(1, [x], [y])
        want = airy_kernel_1d(x, y)
        assert abs(got - want) <= 1e-6


def test_edge_kernel_diagonal_at_zero():
    assert edge_kernel(1, [0.0], [0.0]) == pytest.approx(
        AIRY_SQ_INTEGRAL, abs=1e-9
    )


def test_edge_kernel_tail_small_beyond_the_edge():
    for n in (1, 2, 3):
        x = np.zeros(n)
        x[0] = 6.0
        assert abs(edge_kernel(n, x, x)) <= 1e-6


def test_edge_kernel_diagonal_grows_into_the_bulk():
    vals = [edge_kernel(1, [x], [x]) for x in (0.0, -2.0, -4.0, -6.0)]
    assert vals[0] < vals[1] < vals[2] < vals[3]
    vals2 = [
        edge_kernel(2, [x, 0.0], [x, 0.0]) for x in (0.0, -2.0, -4.0, -6.0)
    ]
    assert vals2[0] < vals2[1] < vals2[2] < vals2[3]


def test_edge_kernel_symmetry_and_transverse_dependence():
    a = edge_kernel(2, [-1.0, 0.4], [0.2, -0.3])
    b = edge_kernel(2, [0.2, -0.3], [-1.0, 0.4])
    assert a == pytest.approx(b, abs=1e-12)
    # transverse displacement only enters through its length
    c = edge_kernel(2, [-1.0, 0.0], [0.2, 0.7])
    d = edge_kernel(2, [-1.0, 0.7], [0.2, 0.0])
    assert c == pytest.approx(d, abs=1e-12)


def test_edge_quadrature_tail_bound_monotone():
    q5 = EdgeQuadrature.for_points(1, 0.0, 0.0, s_max=5.0)
    q8 = EdgeQuadrature.for_points(1, 0.0, 0.0, s_max=8.0)
    qd = EdgeQuadrature.for_points(1, 0.0, 0.0)
    assert q5.tail_bound > q8.tail_bound >= qd.tail_bound
    assert qd.s_max == 40.0
    assert qd.tail_bound <= 1e-12


def test_edge_quadrature_rejected_when_tail_too_large():
    plan = EdgeQuadrature.for_points(1, 0.0, 0.0, s_max=2.0)
    with pytest.raises(ValidationError, match="tail"):
        edge_kernel(1, [0.0], [0.0], quad_plan=plan, tol=1e-10)


def test_edge_quadrature_requires_positive_s_max():
    with pytest.raises(ValidationError):
        EdgeQuadrature.for_points(1, 0.0, 0.0, s_max=-1.0)


# ---------------------------------------------------------------------------
# Weyl constant and density of states


def test_weyl_constant_harmonic_1d():
    V = parse_potential("x1^2")
    assert weyl_constant(V, 1.0, 1) == pytest.approx(math.pi / 2, abs=1e-8)


def test_weyl_constant_radial_2d():
    V = parse_potential("x1^2 + x2^2")
    # int (1 - r^2)_+ over the plane = 2 pi int_0^1 (1 - r^2) r dr = pi/2
    assert weyl_constant(V, 1.0, 2) == pytest.approx(math.pi / 2, abs=1e-6)


def test_weyl_constant_off_centre_closed_forms():
    # 1-d: (mu - V)_+^{1/2} with V = (x1 + 0.1)^2 - 0.01 integrates to
    # pi (mu + 0.01) / 2
    V = parse_potential("x1^2+0.2*x1")
    assert weyl_constant(V, 1.0, 1) == pytest.approx(
        math.pi * 1.01 / 2, abs=1e-12
    )
    # 2-d: V = V_min + (x - x*)^T A (x - x*) with det A = 0.9375 and
    # V_min = -0.006, so Z = (pi/2) (mu - V_min)^2 / sqrt(det A)
    V = parse_potential("(x1-0.3)^2 + x2^2 + 0.5*x1*x2")
    want = 0.5 * math.pi * 1.006 ** 2 / math.sqrt(0.9375)
    assert weyl_constant(V, 1.0, 2) == pytest.approx(want, abs=1e-6)


def test_weyl_constant_reports_non_convergence(monkeypatch):
    real = kernels.cubature

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status = "not_converged"
        return res

    monkeypatch.setattr(kernels, "cubature", stalled)
    with pytest.raises(NumericalError):
        weyl_constant(parse_potential("x1^2"), 1.0, 1)


def test_weyl_constant_empty_droplet():
    V = parse_potential("x1^2")
    assert weyl_constant(V, 0.0, 1) == 0.0
    assert weyl_constant(V, -0.5, 1) == 0.0


def test_weyl_constant_rejects_unsupported_dimension():
    V = parse_potential("x1^2 + x2^2 + x3^2")
    with pytest.raises(ValidationError):
        weyl_constant(V, 1.0, 3)


def test_density_of_states_harmonic():
    V = parse_potential("x1^2")
    got = density_of_states(V, 1.0, 1, [0.0])
    assert got == pytest.approx(2.0 / math.pi, abs=1e-8)
    assert density_of_states(V, 1.0, 1, [2.0]) == 0.0


def test_density_of_states_normalizes_to_one():
    from scipy.integrate import quad

    V = parse_potential("x1^2")
    total, _ = quad(
        lambda t: density_of_states(V, 1.0, 1, [t]),
        -1.0,
        1.0,
        limit=400,
        epsabs=1e-10,
    )
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("text", ["x1^2 + 0.3*x1", "x1^2 + 2*x2^2"])
def test_density_of_states_on_point_arrays(text):
    V = parse_potential(text)
    n = V.dimension
    pts = np.random.default_rng(4).uniform(-1.2, 1.2, size=(4, n))
    got = density_of_states(V, 1.0, n, pts)
    assert got.shape == (4,)
    want = [density_of_states(V, 1.0, n, p) for p in pts]
    np.testing.assert_array_equal(got, want)


def test_density_of_states_empty_droplet_fails():
    V = parse_potential("x1^2")
    with pytest.raises(ValidationError):
        density_of_states(V, -1.0, 1, [0.0])


# ---------------------------------------------------------------------------
# microscopic scales


def test_bulk_scale_examples():
    assert bulk_scale(0.01, 0.0, 1.0, 1) == pytest.approx(
        math.pi * 0.01, abs=1e-15
    )
    assert bulk_scale(0.005, 0.0, 1.0, 1) == pytest.approx(
        0.5 * bulk_scale(0.01, 0.0, 1.0, 1), abs=1e-15
    )
    # diverges approaching the edge
    assert bulk_scale(0.01, 1.0 - 1e-10, 1.0, 1) > 1e3
    with pytest.raises(ValidationError):
        bulk_scale(0.01, 1.0, 1.0, 1)
    with pytest.raises(ValidationError):
        bulk_scale(-0.01, 0.0, 1.0, 1)


def test_edge_scale_examples():
    assert edge_scale(1e-3, 2.0) == pytest.approx(
        1e-2 * 2.0 ** (-1.0 / 3.0), abs=1e-12
    )
    assert edge_scale(1e-3 / 8.0, 2.0) / edge_scale(1e-3, 2.0) == pytest.approx(
        0.25, abs=1e-12
    )
    with pytest.raises(ValidationError):
        edge_scale(1e-3, 0.0)
    with pytest.raises(ValidationError):
        edge_scale(0.0, 1.0)


# ---------------------------------------------------------------------------
# KernelEvaluation container


def test_kernel_evaluation_symmetric_on_shared_points():
    pts = [[0.0], [0.4], [1.1]]
    ke = KernelEvaluation.from_function(
        KernelKind.BULK, 1, {}, pts, pts, lambda a, b: bulk_kernel(1, a, b)
    )
    assert np.allclose(ke.values, ke.values.T, atol=1e-15)


def test_kernel_evaluation_translation_invariance():
    xs = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 0.5]])
    ys = np.array([[0.1, 0.1], [-0.4, 0.8]])
    shift = np.array([0.77, -1.3])
    f = lambda a, b: free_laplacian_kernel(2, 2.0, a, b)
    base = KernelEvaluation.from_function(
        KernelKind.FREE_LAPLACIAN, 2, {"mu": 2.0}, xs, ys, f
    )
    moved = KernelEvaluation.from_function(
        KernelKind.FREE_LAPLACIAN, 2, {"mu": 2.0}, xs + shift, ys + shift, f
    )
    assert np.allclose(base.values, moved.values, atol=1e-12)


def test_kernel_evaluation_csv_layout():
    ke = KernelEvaluation.from_function(
        KernelKind.SINE_1D,
        1,
        {"mu": 1.0},
        [[0.0], [0.5]],
        [[0.0], [0.25]],
        lambda a, b: bulk_kernel(1, a, b),
    )
    text = ke.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# kind=sine1d"
    assert lines[1] == "# dimension=1"
    assert lines[2].startswith("# params:")
    assert lines[3] == "x1,y1,value"
    assert len(lines) == 4 + 4
    x, y, v = lines[4].split(",")
    assert float(v) == pytest.approx(
        bulk_kernel(1, [float(x)], [float(y)]), abs=1e-15
    )
