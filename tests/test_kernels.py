"""Limiting kernels, Weyl constant, density of states, microscopic scales."""

import math

import numpy as np
import pytest

import oracles
from fermigas import __version__, kernels
from fermigas.cli import main
from fermigas.errors import NumericalError, ValidationError
from fermigas.kernels import (
    _airy_envelope,
    _edge_tail_bound,
    airy_kernel_1d,
    bulk_kernel,
    bulk_scale,
    density_of_states,
    edge_kernel,
    edge_scale,
    free_laplacian_kernel,
    weyl_constant,
)
from fermigas.potential import PotentialExpr, parse_potential
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
    pairs += [(-140.0, -139.0), (-200.0, -199.0)]
    for x, y in pairs:
        got = edge_kernel(1, [x], [y])
        want = airy_kernel_1d(x, y)
        assert abs(got - want) <= 1e-6


def test_kernels_on_point_arrays_match_pairwise_calls():
    xs = np.array([-3.0, -0.5, 0.0, 1e-6, 1.5])
    grid = airy_kernel_1d(xs[:, None], xs[None, :])
    pairs = [[airy_kernel_1d(x, y) for y in xs] for x in xs]
    np.testing.assert_array_equal(grid, pairs)
    pts = np.column_stack([xs, 0.3 * xs])
    grid = edge_kernel(2, pts[:, None], pts[None, :])
    pairs = [[edge_kernel(2, x, y) for y in pts] for x in pts]
    # one adaptive subdivision for all pairs instead of one per pair
    np.testing.assert_allclose(grid, pairs, rtol=0.0, atol=1e-12)


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
    # edge_kernel cuts the s-integral at 40 - min(x1, y1) = 40 here
    bounds = [_edge_tail_bound(n, 0.0, 0.0, s_max)
              for n in (1, 2) for s_max in (5.0, 8.0, 40.0)]
    assert bounds[0] > bounds[1] >= bounds[2]
    assert bounds[3] > bounds[4] >= bounds[5]
    assert max(bounds[2], bounds[5]) <= 1e-12


def test_edge_quadrature_rejected_when_tail_too_large(monkeypatch):
    # no point makes the certified tail exceed its tolerance, so a bound
    # that does is a numerical failure, exit 2 from the command line
    monkeypatch.setattr("fermigas.kernels._edge_tail_bound",
                        lambda *args: 1.0)
    with pytest.raises(NumericalError, match="tail"):
        edge_kernel(1, [0.0], [0.0])
    assert main(["kernel", "--kind", "edge", "--window", "0:1:0.5"]) == 2


# ---------------------------------------------------------------------------
# Weyl constant and density of states


def test_weyl_constant_harmonic_1d():
    V = parse_potential("x1^2")
    assert weyl_constant(V, 1.0) == pytest.approx(math.pi / 2, abs=1e-13)
    # a droplet |x1| < 0.032 that lies inside the scan's first radius 0.05
    V = parse_potential("100*x1^2")
    assert weyl_constant(V, 0.1) == pytest.approx(math.pi / 200, abs=1e-13)


def test_weyl_constant_radial_2d():
    V = parse_potential("x1^2 + x2^2")
    # int (1 - r^2)_+ over the plane = 2 pi int_0^1 (1 - r^2) r dr = pi/2
    assert weyl_constant(V, 1.0) == pytest.approx(math.pi / 2, rel=1e-11)


def test_weyl_constant_off_centre_closed_forms():
    # 1-d: (mu - V)_+^{1/2} with V = (x1 + 0.1)^2 - 0.01 integrates to
    # pi (mu + 0.01) / 2
    V = parse_potential("x1^2+0.2*x1")
    assert weyl_constant(V, 1.0) == pytest.approx(
        math.pi * 1.01 / 2, abs=1e-12
    )
    # the droplet starts at x1 = -0.001, a sliver before the point x1 = 0
    # where the cubature first bisects a range symmetric about 0
    V = parse_potential("4*(x1-0.499)^2")
    assert weyl_constant(V, 1.0) == pytest.approx(math.pi / 4, abs=1e-13)
    # the droplet [0.3007, 0.3027] falls between two x1 lattice samples: only
    # the split at the sampled maximum of mu - V shows its two crossings
    V = parse_potential("1000000*(x1-0.3017)^2")
    assert weyl_constant(V, 1.0) == pytest.approx(math.pi / 2000, abs=1e-15)
    # 2-d: V = V_min + (x - x*)^T A (x - x*) with det A = 0.9375 and
    # V_min = -0.006, so Z = (pi/2) (mu - V_min)^2 / sqrt(det A)
    V = parse_potential("(x1-0.3)^2 + x2^2 + 0.5*x1*x2")
    want = 0.5 * math.pi * 1.006 ** 2 / math.sqrt(0.9375)
    assert weyl_constant(V, 1.0) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("text, mu, det", [
    ("x1^2 + 2*x2^2", 1.0, 2.0),
    ("x1^2 + x2^2", 0.3, 1.0),
    # a needle along (1, 2) that the droplet scan's eight rays miss:
    # A = [[400.01, -199.98], [-199.98, 100.04]] has det A = 25
    ("100*(2*x1-x2)^2 + 0.01*(x1+2*x2)^2", 1.0, 25.0),
    # the droplet starts at x1 = -0.001, a sliver before x1 = 0, where the
    # outer cubature first bisects its range: no node of the left half lies
    # in the sliver unless the regions also split at the droplet's x1 ends
    ("4*(x1-0.499)^2 + x2^2", 1.0, 4.0),
])
def test_weyl_constant_2d_quadratic_forms(text, mu, det):
    # Z = int (mu - x^T A x)_+ dx = pi mu^2 / (2 sqrt(det A))
    want = 0.5 * math.pi * mu ** 2 / math.sqrt(det)
    assert weyl_constant(parse_potential(text), mu) == pytest.approx(
        want, rel=1e-11
    )


@pytest.mark.parametrize("A, mu, roots, want", [
    # two droplets, |x1| in [sqrt(1 - sqrt(1/2)), sqrt(1 + sqrt(1/2))]
    ("x1^4 - 2*x1^2", -0.5,
     [(-math.sqrt(1 + 0.5 ** 0.5), -math.sqrt(1 - 0.5 ** 0.5)),
      (math.sqrt(1 - 0.5 ** 0.5), math.sqrt(1 + 0.5 ** 0.5))],
     0.4071200905402),
    # one droplet whose boundary wiggles; its ends solve A(x1) = 1
    ("x1^2 + 0.3*cos(5*x1)", 1.0, None, 1.745237083803),
])
def test_weyl_constant_2d_separable(A, mu, roots, want):
    # V = A(x1) + x2^2: the x2 section of (mu - V)_+ is
    # (4/3) (mu - A(x1))_+^{3/2}, left to a 1-d quad between the roots
    from scipy.integrate import quad
    from scipy.optimize import brentq

    a = parse_potential(A)
    if roots is None:
        r = brentq(lambda x: float(a(x)) - mu, 0.5, 1.2, xtol=1e-15)
        roots = [(-r, r)]
    exact = sum(
        quad(lambda x: 4.0 / 3.0 * max(mu - float(a(x)), 0.0) ** 1.5,
             lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
        for lo, hi in roots
    )
    assert exact == pytest.approx(want, rel=1e-12)
    Z = weyl_constant(parse_potential(f"{A} + x2^2"), mu)
    assert Z == pytest.approx(exact, rel=1e-11)


def test_weyl_constant_2d_calls_the_potential_on_batches(monkeypatch):
    # every x1 batch of the outer cubature costs one lattice call, the
    # root refinement's calls and one Gauss-Legendre call, not a product
    # cubature's thousands of calls
    calls = []
    call = PotentialExpr.__call__

    def counting(self, point):
        calls.append(np.shape(point))
        return call(self, point)

    monkeypatch.setattr(PotentialExpr, "__call__", counting)
    assert weyl_constant(parse_potential("x1^2 + x2^2"), 1.0) == (
        pytest.approx(math.pi / 2, rel=1e-11)
    )
    assert len(calls) < 2000


def test_weyl_constant_reports_non_convergence(monkeypatch):
    real = kernels.cubature

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status = "not_converged"
        return res

    monkeypatch.setattr(kernels, "cubature", stalled)
    for text in ("x1^2", "x1^2 + x2^2"):
        with pytest.raises(NumericalError):
            weyl_constant(parse_potential(text), 1.0)


def test_weyl_constant_empty_droplet():
    V = parse_potential("x1^2")
    assert weyl_constant(V, 0.0) == 0.0
    assert weyl_constant(V, -0.5) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["x1^2 + 1e200*1e200", "x1^2 + x2^2 + 1e200*1e200"])
def test_weyl_constant_rejects_a_potential_that_is_not_finite(text):
    # +inf everywhere: a ValidationError, not a RuntimeWarning and Z = 0
    with pytest.raises(ValidationError, match="not finite"):
        weyl_constant(parse_potential(text), 1.0)


def test_weyl_constant_rejects_unsupported_dimension():
    V = parse_potential("x1^2 + x2^2 + x3^2")
    with pytest.raises(ValidationError):
        weyl_constant(V, 1.0)


def test_density_of_states_harmonic():
    V = parse_potential("x1^2")
    Z = weyl_constant(V, 1.0)
    got = density_of_states(V, 1.0, [0.0], Z)
    assert got == pytest.approx(2.0 / math.pi, abs=1e-8)
    assert density_of_states(V, 1.0, [2.0], Z) == 0.0


def test_density_of_states_normalizes_to_one():
    from scipy.integrate import tanhsinh

    V = parse_potential("x1^2")
    Z = weyl_constant(V, 1.0)
    # tanh-sinh nodes cluster at the square-root zeros at +-1; each call
    # evaluates the density on a whole array of nodes
    res = tanhsinh(
        lambda t: density_of_states(V, 1.0, t[..., None], Z),
        -1.0,
        1.0,
        atol=1e-10,
    )
    assert res.success
    assert res.integral == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("text", ["x1^2 + 0.3*x1", "x1^2 + 2*x2^2"])
def test_density_of_states_on_point_arrays(text):
    V = parse_potential(text)
    n = V.dimension
    Z = weyl_constant(V, 1.0)
    pts = np.random.default_rng(4).uniform(-1.2, 1.2, size=(4, n))
    got = density_of_states(V, 1.0, pts, Z)
    assert got.shape == (4,)
    want = [density_of_states(V, 1.0, p, Z) for p in pts]
    np.testing.assert_array_equal(got, want)


def test_density_of_states_empty_droplet_fails():
    V = parse_potential("x1^2")
    Z = weyl_constant(V, -1.0)
    assert Z == 0.0
    with pytest.raises(ValidationError):
        density_of_states(V, -1.0, [0.0], Z)


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
# kernel tables: values on every pair of a set of points


def test_kernel_evaluation_symmetric_on_shared_points():
    pts = np.array([[0.0], [0.4], [1.1]])
    values = bulk_kernel(1, pts[:, None], pts[None, :])
    assert np.allclose(values, values.T, atol=1e-15)


def test_kernel_evaluation_translation_invariance():
    xs = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 0.5]])
    ys = np.array([[0.1, 0.1], [-0.4, 0.8]])
    shift = np.array([0.77, -1.3])

    def tabulate(a, b):
        return free_laplacian_kernel(2, 2.0, a[:, None], b[None, :])

    assert np.allclose(tabulate(xs, ys), tabulate(xs + shift, ys + shift),
                       atol=1e-12)


def test_kernel_evaluation_csv_layout(capsys):
    # the kernel command writes its table as an ExperimentReport
    assert main(["kernel", "--kind", "sine", "--window", "0:0.5:0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[:4] == ["# experiment=kernel", "# kind=sine", "# n=1",
                         f"# fermigas={__version__}"]
    assert lines[4] == "x1,y1,value"
    assert len(lines) == 5 + 4
    x, y, v = lines[6].split(",")
    assert (x, y) == ("0", "0.5")
    assert float(v) == pytest.approx(
        bulk_kernel(1, [float(x)], [float(y)]), abs=1e-15
    )
