"""Experiment drivers: counting, convergence, variance routes, sampling stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigas.dpp import RngState
from fermigas.errors import NumericalError, ValidationError
from fermigas.experiments import (
    ExperimentReport,
    TestFunction,
    _ball_difference_volume,
    _reference_cdf,
    _w1_to_reference,
    bulk_convergence,
    clt_monte_carlo,
    edge_convergence,
    free_variance_asymptotic,
    free_variance_bruteforce,
    free_variance_exact,
    gaussian_tail_check,
    lln_wasserstein,
    mesoscopic_variance_scan,
    sigma_fourier,
    sigma_n_squared,
    sigma_slobodeckij,
    weyl_check,
)
from fermigas.kernels import weyl_constant
from fermigas.potential import parse_potential
from fermigas.schrodinger import Grid


@pytest.fixture(scope="module")
def harmonic():
    return parse_potential("x1^2")


# ---------------------------------------------------------------------------
# test functions


def test_gaussian_bump_values():
    g = TestFunction.gaussian_bump(1, 0.0, 0.5)
    assert g(0.0) == 1.0
    assert g(0.5) == pytest.approx(math.exp(-0.5), rel=1e-14)
    off = TestFunction.gaussian_bump(1, 1.2, 0.5)
    assert off(1.2) == 1.0


def test_smooth_indicator_plateau_and_support():
    g = TestFunction.smooth_indicator(1, 0.0, radius=1.0, smoothing=0.5)
    assert g(0.0) == 1.0
    assert g(0.99) == 1.0
    assert g(-1.0) == 1.0
    mid = g(1.25)
    assert 0.0 < mid < 1.0
    assert g(1.5) == 0.0
    assert g(2.0) == 0.0
    # even in x - center
    assert g(1.25) == pytest.approx(g(-1.25), abs=1e-15)


def test_support_and_bounding_radius():
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    assert g.support_radius() == pytest.approx(
        math.sqrt(-2.0 * math.log(1e-12)), rel=1e-12
    )
    ind = TestFunction.smooth_indicator(2, (1.0, 0.0), radius=2.0, smoothing=0.25)
    assert ind.support_radius() == 2.25
    assert ind.bounding_radius() == pytest.approx(3.25)
    c = TestFunction.custom("exp(-x1^2)", support_radius=6.0)
    assert c.support_radius() == 6.0


def test_call_shapes_one_and_two_dims():
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    flat = g(np.array([0.0, 1.0]))
    col = g(np.array([[0.0], [1.0]]))
    assert flat.shape == (2,)
    np.testing.assert_allclose(flat, col)
    g2 = TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0)
    one = g2(np.array([0.3, 0.4]))
    batch = g2(np.array([[0.3, 0.4], [0.0, 0.0]]))
    assert np.isscalar(one) or np.ndim(one) == 0
    assert batch.shape == (2,)
    assert float(one) == pytest.approx(math.exp(-0.125), rel=1e-14)


def test_rescale_matches_composition():
    g = TestFunction.gaussian_bump(1, 0.0, 0.7)
    s = g.rescale(np.array([0.4]), 0.25)
    for x in (0.3, 0.4, 0.55):
        assert s(x) == pytest.approx(g((x - 0.4) / 0.25), rel=1e-13)
    ind = TestFunction.smooth_indicator(1, 0.0, radius=1.0, smoothing=0.5)
    si = ind.rescale(np.array([0.0]), 0.5)
    assert si(0.49) == 1.0
    assert si(0.76) == 0.0


def test_custom_accepts_string_and_rejects_rescale():
    g = TestFunction.custom("exp(-x1^2)", support_radius=5.0)
    assert g(0.5) == pytest.approx(math.exp(-0.25), rel=1e-14)
    with pytest.raises(ValidationError):
        g.rescale(np.zeros(1), 0.5)


def test_test_function_validation():
    with pytest.raises(ValidationError):
        TestFunction.gaussian_bump(1, 0.0, 0.0)
    with pytest.raises(ValidationError):
        TestFunction.smooth_indicator(1, 0.0, radius=-1.0, smoothing=0.5)
    with pytest.raises(ValidationError):
        TestFunction.smooth_indicator(1, 0.0, radius=1.0, smoothing=0.0)
    with pytest.raises(ValidationError):
        TestFunction.custom("x1", support_radius=0.0)


# ---------------------------------------------------------------------------
# report container


def test_report_csv_is_deterministic_and_excludes_wall_time():
    rows = [(0.1, 2.0), (0.05, 4.0)]
    a = ExperimentReport("demo", ("hbar", "count"), rows, {"mu": 1.0}, seed=7)
    b = ExperimentReport("demo", ("hbar", "count"), rows, {"mu": 1.0}, seed=7)
    assert a.to_csv() == b.to_csv()
    text = a.to_csv()
    assert "# experiment=demo" in text
    assert "# seed=7" in text
    assert "wall" not in text


def test_report_seed_line_optional():
    rep = ExperimentReport("demo", ("x",), [(1.0,)])
    assert "# seed" not in rep.to_csv()


def test_report_column_accessor():
    rep = ExperimentReport("demo", ("hbar", "count"), [(0.1, 2.0), (0.05, 4.0)])
    np.testing.assert_allclose(rep.column("count"), [2.0, 4.0])
    with pytest.raises(ValidationError):
        rep.column("missing")


# ---------------------------------------------------------------------------
# eigenvalue counting


def test_weyl_harmonic_counts(harmonic):
    rep = weyl_check(harmonic, 1.0, [0.05, 0.02, 0.01])
    counts = rep.column("count")
    for hbar, count in zip(rep.column("hbar"), counts):
        assert abs(hbar * count - 0.5) <= 2.0 * hbar
    # scaled count compares against the phase-space volume directly
    np.testing.assert_allclose(rep.column("scaled_count"), 1.0, atol=0.2)


def test_weyl_empty_droplet():
    # mu at or below min V: Z = 0 and a scaled count of 0 / 0, refused
    for text, mu in (("x1^2", -0.5), ("x1^2 + x2^2 + 1", 1.0)):
        with pytest.raises(ValidationError, match="droplet"):
            weyl_check(parse_potential(text), mu, [0.1, 0.05])


def test_weyl_rejects_inputs_before_the_quadrature(monkeypatch):
    def no_weyl(*args, **kwargs):
        raise AssertionError("the Weyl quadrature ran before the input check")

    monkeypatch.setattr("fermigas.schrodinger.weyl_constant", no_weyl)
    V = parse_potential("x1^2 + x2^2")
    with pytest.raises(ValidationError, match="hbar must be positive"):
        weyl_check(V, 1.0, [0.0])


def test_weyl_counts_by_inertia_without_eigenvectors(monkeypatch):
    # x1^2 + x2^2 has the levels 2 hbar (j1 + j2 + 1), j1 + j2 = t held
    # t + 1 times: 15, 28 and 55 of them lie below 1 at these hbar.  It is
    # separable, so the counts are sums of 1-D levels, with no LU either
    def no_solve(*args, **kwargs):
        raise AssertionError("weyl_check computed eigenvectors or an LU")

    monkeypatch.setattr("fermigas.schrodinger.eigsh", no_solve)
    monkeypatch.setattr("fermigas.schrodinger.splu", no_solve)
    monkeypatch.setattr("fermigas.schrodinger.eigensolve", no_solve)
    # the counts alone are under test: Z = pi / 2 in closed form
    monkeypatch.setattr("fermigas.schrodinger.weyl_constant",
                        lambda V, mu: 0.5 * math.pi)
    rep = weyl_check(parse_potential("x1^2 + x2^2"), 1.0, [0.1, 0.07, 0.05])
    assert rep.column("count").tolist() == [15, 28, 55]


def test_weyl_count_scales_with_mu(harmonic):
    one = weyl_check(harmonic, 1.0, [0.02]).column("count")[0]
    two = weyl_check(harmonic, 2.0, [0.02]).column("count")[0]
    assert two == pytest.approx(2.0 * one, rel=0.15)


# ---------------------------------------------------------------------------
# pointwise convergence


def test_bulk_error_halves_with_hbar(harmonic):
    rep = bulk_convergence(harmonic, 1.0, 0.0, [0.02, 0.01])
    err = rep.column("sup_error")
    assert err[1] < err[0]
    ratio = rep.column("ratio")[1]
    assert 0.3 <= ratio <= 0.8


def test_bulk_error_invariant_under_energy_shift(harmonic):
    shifted = parse_potential("x1^2 + 2")
    a = bulk_convergence(harmonic, 1.0, 0.0, [0.02, 0.01]).column("sup_error")
    b = bulk_convergence(shifted, 3.0, 0.0, [0.02, 0.01]).column("sup_error")
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_bulk_same_limit_at_equal_depth_points(harmonic):
    left = bulk_convergence(harmonic, 1.0, -0.3, [0.02]).column("sup_error")[0]
    right = bulk_convergence(harmonic, 1.0, 0.3, [0.02]).column("sup_error")[0]
    assert left < 0.1
    assert right < 0.1


def test_bulk_rejects_point_outside_droplet(harmonic):
    with pytest.raises(ValidationError):
        bulk_convergence(harmonic, 1.0, 1.5, [0.02])


@pytest.mark.parametrize("driver, x0", [
    (bulk_convergence, [0.0, 5.0]),
    (edge_convergence, [1.0, 5.0]),
], ids=["bulk", "edge"])
def test_convergence_rejects_extra_x0_components(harmonic, driver, x0):
    with pytest.raises(ValidationError, match="x0 needs 1 component, got 2"):
        driver(harmonic, 1.0, x0, [0.05])


def test_x0_and_center_of_the_wrong_length_are_rejected(harmonic):
    g = TestFunction.gaussian_bump(1)
    with pytest.raises(ValidationError, match="x0 needs 1 component, got 2"):
        mesoscopic_variance_scan(harmonic, 1.0, [0.0, 5.0], [0.05], 0.5, g)
    with pytest.raises(ValidationError, match="x0 needs 1 component, got 2"):
        g.rescale([0.0, 5.0], 0.1)
    with pytest.raises(ValidationError, match="center needs 2 components, got 1"):
        TestFunction.gaussian_bump(2, [1.0])


@pytest.mark.parametrize("make", [
    TestFunction.gaussian_bump, TestFunction.smooth_indicator,
], ids=["gaussian_bump", "smooth_indicator"])
def test_test_functions_default_to_the_origin(make):
    for n in (1, 2):
        g = make(n)
        np.testing.assert_array_equal(g.center, np.zeros(n))
        assert g(np.zeros((1, n)))[0] == 1.0


def test_edge_error_decays_faster_than_bulk(harmonic):
    rep = edge_convergence(harmonic, 1.0, 1.0, [0.02, 0.0025])
    err = rep.column("sup_error")
    assert err[1] < err[0]
    assert rep.column("ratio")[1] <= 0.7


def test_edge_kernel_negligible_deep_outside(harmonic):
    rep = edge_convergence(harmonic, 1.0, 1.0, [0.02], window=(6.0, 8.0))
    # both the projector and the limit are tiny there, so the sup gap is too
    assert rep.column("sup_error")[0] <= 1e-4


def test_edge_rejects_bulk_point_and_flat_gradient(harmonic):
    with pytest.raises(ValidationError):
        edge_convergence(harmonic, 1.0, 0.5, [0.02])
    quartic = parse_potential("x1^4")
    with pytest.raises(ValidationError):
        edge_convergence(quartic, 0.0, 0.0, [0.02])


# ---------------------------------------------------------------------------
# empirical measure and tails


def test_w1_of_exact_step_cdf_is_zero():
    pts = np.array([-0.3, 0.1, 0.4])
    taxis = np.linspace(-1.0, 1.0, 4001)
    ref = np.searchsorted(np.sort(pts), taxis, side="right") / pts.size
    assert _w1_to_reference(pts, taxis, ref.astype(float)) == 0.0


def test_reference_cdf_is_monotone_unit_mass(harmonic):
    Z = weyl_constant(harmonic, 1.0)
    taxis, cdf = _reference_cdf(harmonic, 1.0, Grid(1, 2.0, 101), Z)
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-4)
    assert np.all(np.diff(cdf) >= -1e-15)


def test_lln_distance_shrinks_with_hbar(harmonic, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return weyl_constant(*args)

    monkeypatch.setattr("fermigas.experiments.weyl_constant", counting)
    rep = lln_wasserstein(harmonic, 1.0, [0.05, 0.02], 200, RngState(11))
    assert len(calls) == 1  # one cubature serves both hbar
    means = rep.column("mean_w1")
    assert means[1] < means[0]
    assert rep.column("q10")[0] > 0.0


def test_lln_single_particle_stays_far(harmonic):
    rep = lln_wasserstein(harmonic, 0.25, [0.1], 50, RngState(3))
    assert rep.column("mean_w1")[0] > 0.01


def test_tail_frequencies_under_gaussian_envelope(harmonic):
    f = TestFunction.gaussian_bump(1, 0.0, 0.4)
    rep = gaussian_tail_check(harmonic, 1.0, f, 0.05, 1500, RngState(5))
    assert rep.params["c"] > 0.0
    for t, freq, env in rep.rows:
        assert freq <= env + 1e-12


def test_tail_zero_statistic_never_deviates(harmonic):
    f = TestFunction.custom("0*x1", support_radius=1.0)
    rep = gaussian_tail_check(harmonic, 1.0, f, 0.05, 400, RngState(7))
    np.testing.assert_allclose(rep.column("frequency"), 0.0)


@pytest.mark.parametrize(
    "driver", [clt_monte_carlo, gaussian_tail_check, lln_wasserstein],
    ids=lambda driver: driver.__name__)
def test_sampling_drivers_reject_too_few_trials_before_solving(
        driver, harmonic, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the eigensolve ran before the input check")

    monkeypatch.setattr("fermigas.schrodinger.boxed_hamiltonian", no_solve)
    f = TestFunction.gaussian_bump(1, 0.0, 0.4)
    args = {
        clt_monte_carlo: (harmonic, 1.0, f, 0.05, 1, RngState(5)),
        gaussian_tail_check: (harmonic, 1.0, f, 0.05, 0, RngState(5)),
        lln_wasserstein: (harmonic, 1.0, [0.05], 0, RngState(5)),
    }[driver]
    with pytest.raises(ValidationError, match="trials"):
        driver(*args)


@pytest.mark.filterwarnings("error")
def test_tail_check_refuses_a_test_function_narrower_than_the_grid(
        harmonic, monkeypatch):
    # the bump overflowed on the nodes, as it did in clt before its check
    def no_eval(*args, **kwargs):
        raise AssertionError("the test function was evaluated")

    f = TestFunction.gaussian_bump(1, 0, 1e-300)
    monkeypatch.setattr(TestFunction, "__call__", no_eval)
    with pytest.raises(ValidationError, match="below the grid spacing"):
        gaussian_tail_check(harmonic, 1.0, f, 0.05, 50, RngState(1))


def test_drivers_refuse_an_empty_process(harmonic):
    # mu = 0.01 lies below the first level, 0.05, of x1^2 at hbar = 0.05
    f = TestFunction.gaussian_bump(1, 0.0, 0.4)
    with pytest.raises(ValidationError, match="the process is empty"):
        gaussian_tail_check(harmonic, 0.01, f, 0.05, 50, RngState(1))
    with pytest.raises(ValidationError, match="the process is empty"):
        mesoscopic_variance_scan(harmonic, 0.01, 0.0, [0.05], 0.5, f)


def test_tail_variance_scale_is_stable_in_hbar(harmonic):
    f = TestFunction.gaussian_bump(1, 0.0, 0.4)
    a = gaussian_tail_check(harmonic, 1.0, f, 0.05, 1500, RngState(5))
    b = gaussian_tail_check(harmonic, 1.0, f, 0.025, 1500, RngState(6))
    ra = a.params["var_over_hbar_count"]
    rb = b.params["var_over_hbar_count"]
    assert ra == pytest.approx(rb, rel=0.1)


# ---------------------------------------------------------------------------
# variance of linear statistics for the free kernel


def test_ball_difference_volume_limits():
    assert _ball_difference_volume(1, 0.0) == 0.0
    assert _ball_difference_volume(1, 1.0) == 1.0
    assert _ball_difference_volume(1, 2.0) == 2.0
    assert _ball_difference_volume(1, 5.0) == 2.0
    assert _ball_difference_volume(2, 0.0) == 0.0
    assert _ball_difference_volume(2, 3.0) == pytest.approx(math.pi)
    lens = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    assert _ball_difference_volume(2, 1.0) == pytest.approx(
        math.pi - lens, rel=1e-14
    )


def test_ball_difference_volume_2d_small_offsets():
    # |B(0,1) \ B(d,1)| = 2d - d^3 / 12 + ...; pi minus the lens cancelled
    # to 0.0 at d = 1e-17
    for d in (1e-17, 1e-8, 1e-4):
        assert _ball_difference_volume(2, d) == pytest.approx(
            2.0 * d - d ** 3 / 12.0, rel=1e-14, abs=0.0)


def test_exact_variance_of_a_gaussian_at_a_huge_mu_2d():
    # var / mu -> (1 / pi) int rho^2 e^{-rho^2} drho = 1 / (4 sqrt(pi)) for
    # the unit bump in 2-d; the lens cancellation gave 0.0 at mu = 1e100
    g = TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0)
    for mu in (1e6, 1e100):
        assert free_variance_exact(2, mu, g) / mu == pytest.approx(
            1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-10)


def test_exact_variance_of_a_gaussian_at_mu_1e200_to_1e_10():
    # the integrand scales like 1 / mu: an absolute tolerance of 1e-13 let
    # quad stop 1.1e-6 short of 1 / (2 pi)
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    assert free_variance_exact(1, 1e200, g) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-10)


def test_exact_matches_bruteforce_one_dim():
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    exact = free_variance_exact(1, 10.0, g)
    brute = free_variance_bruteforce(1, 10.0, g)
    assert brute == pytest.approx(exact, rel=1e-4)


def test_exact_matches_bruteforce_two_dim():
    g = TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0)
    exact = free_variance_exact(2, 10.0, g)
    brute = free_variance_bruteforce(2, 10.0, g)
    assert brute == pytest.approx(exact, rel=1e-4)


def test_exact_variance_past_float_range_is_a_numerical_error():
    # mu^2 / (2 pi)^2 overflows at mu = 1e308: a float product gives inf
    # where mu ** 2 raised OverflowError, and the inf * 0 it meets is refused
    for g in (TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0),
              TestFunction.smooth_indicator(2, (0.0, 0.0), 1.0, 0.5)):
        with pytest.raises(NumericalError, match="not finite"):
            free_variance_exact(2, 1e308, g)


def test_exact_variance_of_a_gaussian_at_a_huge_mu():
    # var -> (1 / 2 pi) int |ghat|^2 |xi| dxi = 1 / (2 pi) for the unit bump
    # in 1-d.  |ghat|^2 is 0.0 where squaring w rho would overflow
    # (OverflowError at mu = 1e200), and quad integrates only where it is
    # not 0.0 (on all of [0, 2 mu] it stepped over the bump: 0.0 at 1e6)
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    for mu in (1e6, 1e200):
        assert free_variance_exact(1, mu, g) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-5)


@pytest.mark.parametrize("n, width", [(1, 1e-5), (2, 1e-5)])
def test_exact_variance_of_a_narrow_gaussian_matches_bruteforce(n, width):
    # quad over rho lost the tail past 2 mu, which carries a narrow bump's
    # variance: exact 5.7e-9 against bruteforce 5.64e-5 at width 1e-5 in
    # 1-d, 3.1e-13 against 2.5e-9 in 2-d
    g = TestFunction.gaussian_bump(n, np.zeros(n), width)
    assert free_variance_exact(n, 10.0, g) == pytest.approx(
        free_variance_bruteforce(n, 10.0, g), rel=1e-8)


@pytest.mark.filterwarnings("error")
def test_bruteforce_variance_at_a_tiny_mu_sums_its_tail_in_closed_form():
    # at mu = 1e-8 the variance mu / sqrt(pi) sits almost all in the 1-d
    # tail past the lattice; quad's cosine weight returned 0.012 for it,
    # with an IntegrationWarning; the sine integral gives it to rounding
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    exact = free_variance_exact(1, 1e-8, g)
    assert exact == pytest.approx(1e-8 / math.sqrt(math.pi), rel=1e-9)
    assert free_variance_bruteforce(1, 1e-8, g) == pytest.approx(exact,
                                                                 rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), k=st.integers(-150, 150),
       mu_w=st.floats(0.1, 1e3))
def test_gaussian_variance_scales_exactly_with_the_width(n, k, mu_w):
    # var(mu, g_w) = var(mu w, g_1) exactly: in s = w rho both integrate
    # the same s-integrand.  In 2-d, w ** 4 in rho raised OverflowError at
    # w = 1e100 and underflowed to a variance of 0 at w = 1e-100
    w = 10.0 ** k
    mu = mu_w / w
    g = TestFunction.gaussian_bump(n, np.zeros(n), w)
    unit = TestFunction.gaussian_bump(n, np.zeros(n), 1.0)
    assert free_variance_exact(n, mu, g) == pytest.approx(
        free_variance_exact(n, mu * w, unit), rel=1e-10)


def test_exact_variance_of_a_huge_gaussian():
    # var(10, g_w) = var(10 w, g_1) -> 1 / (2 pi) in 1-d; in 2-d it grows
    # like w and leaves float range: a NumericalError, not the OverflowError
    # of w ** 2n
    g = TestFunction.gaussian_bump(1, 0.0, 1e200)
    assert free_variance_exact(1, 10.0, g) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-10)
    with pytest.raises(NumericalError, match="not finite"):
        free_variance_exact(2, 10.0, TestFunction.gaussian_bump(2, None, 1e200))


def test_constant_statistic_has_zero_variance():
    z = TestFunction.custom("0*x1", support_radius=2.0)
    assert free_variance_exact(1, 4.0, z) == 0.0


def test_variance_approaches_asymptote_monotonically():
    g = TestFunction.gaussian_bump(2, (0.0, 0.0), 0.4)
    ratios = []
    for mu in (20.0, 40.0, 80.0):
        ratios.append(
            free_variance_bruteforce(2, mu, g)
            / free_variance_asymptotic(2, mu, g)
        )
    assert ratios[0] < ratios[1] < ratios[2]
    assert abs(ratios[2] - 1.0) < 0.1


# ---------------------------------------------------------------------------
# the two seminorm routes


def test_sigma_scaling_law():
    g1 = TestFunction.gaussian_bump(1, 0.0, 1.0)
    base1 = sigma_fourier(g1)
    g2 = TestFunction.gaussian_bump(2, (0.0, 0.0), 0.7)
    base2 = sigma_fourier(g2)
    for eps in (0.5, 0.25):
        s1 = sigma_fourier(g1.rescale(np.zeros(1), eps))
        assert abs(s1 - base1) <= 1e-6 * base1
        s2 = sigma_fourier(g2.rescale(np.zeros(2), eps))
        assert abs(s2 - eps * base2) <= 1e-6 * base2


def test_sigma_gaussian_closed_form():
    # any width integrates to 1 in one dimension
    for w in (0.3, 1.0, 2.5):
        g = TestFunction.gaussian_bump(1, 0.0, w)
        assert sigma_fourier(g) == pytest.approx(1.0, rel=1e-7)
    g2 = TestFunction.gaussian_bump(2, (0.0, 0.0), 0.8)
    assert sigma_fourier(g2) == pytest.approx(
        math.pi ** 1.5 * 0.8 / 2.0, rel=1e-7
    )


@pytest.mark.parametrize("width", [1e-300, 1e-10, 1e-5, 1e5, 1e10, 1e300])
def test_sigma_gaussian_closed_form_at_extreme_widths(width):
    # quad over rho missed the bump's scale 1 / width: Sigma^2 read
    # -1.07e-7 at width 1e-5 and 0 at 1e5 in 1-d, 1.16e-9 at 1e-4 in 2-d
    g = TestFunction.gaussian_bump(1, 0.0, width)
    assert sigma_fourier(g) == pytest.approx(1.0, rel=1e-12)
    g2 = TestFunction.gaussian_bump(2, (0.0, 0.0), width)
    assert sigma_fourier(g2) == pytest.approx(
        math.pi ** 1.5 * width / 2.0, rel=1e-12
    )


def test_seminorm_duality():
    g1 = TestFunction.gaussian_bump(1, 0.0, 1.0)
    lhs = sigma_slobodeckij(g1)
    rhs = (2.0 * math.pi) ** 2 * sigma_n_squared(1) * sigma_fourier(g1)
    assert lhs == pytest.approx(rhs, rel=0.01)
    g2 = TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0)
    lhs2 = sigma_slobodeckij(g2)
    rhs2 = (2.0 * math.pi) ** 3 * sigma_n_squared(2) * sigma_fourier(g2)
    assert lhs2 == pytest.approx(rhs2, rel=0.01)


def test_seminorms_vanish_for_zero_function():
    z = TestFunction.custom("0*x1", support_radius=2.0)
    assert sigma_fourier(z) == 0.0
    assert sigma_slobodeckij(z) == 0.0


# ---------------------------------------------------------------------------
# mesoscopic window


def test_mesoscopic_variance_settles_one_dim(harmonic):
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    rep = mesoscopic_variance_scan(harmonic, 0.5, 0.0, [0.01, 0.005], 0.5, g)
    var = rep.column("variance")
    assert np.max(var) / np.min(var) < 1.2
    assert abs(rep.column("ratio_sigma_sq")[-1] - 1.0) <= 0.15


def test_mesoscopic_variance_settles_two_dim():
    V = parse_potential("x1^2 + x2^2")
    g = TestFunction.gaussian_bump(2, (0.0, 0.0), 1.0)
    rep = mesoscopic_variance_scan(
        V, 0.5, (0.0, 0.0), [0.01, 0.005, 0.0025], 0.5, g
    )
    ratios = rep.column("ratio_sigma_sq")
    assert abs(ratios[-1] - 1.0) <= 0.15


def test_mesoscopic_rejects_window_below_resolution(harmonic):
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        mesoscopic_variance_scan(harmonic, 0.5, 0.0, [0.05], 0.99, g)


def test_mesoscopic_constant_function_has_no_fluctuation(harmonic):
    c = TestFunction.custom("0*x1 + 1", support_radius=3.0)
    rep = mesoscopic_variance_scan(harmonic, 0.5, 0.0, [0.01], 0.5, c)
    assert abs(rep.column("variance")[0]) <= 1e-10
    assert math.isnan(rep.column("ratio_sigma_sq")[0])


def test_mesoscopic_validates_inputs(harmonic):
    g = TestFunction.gaussian_bump(1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        mesoscopic_variance_scan(harmonic, 0.5, 0.0, [0.01], 1.5, g)
    with pytest.raises(ValidationError):
        mesoscopic_variance_scan(harmonic, 0.5, 2.0, [0.01], 0.5, g)


# ---------------------------------------------------------------------------
# central limit behavior


def test_clt_standardized_statistic_looks_normal(harmonic):
    f = TestFunction.gaussian_bump(1, 0.0, 0.2)
    rep = clt_monte_carlo(harmonic, 1.0, f, 0.02, 2000, RngState(2718))
    trials, ks_stat, pvalue, skew, skew_se = rep.rows[0]
    assert pvalue >= 0.01
    assert abs(skew) <= 0.1
    assert abs(skew - rep.params["skew_exact"]) <= 4.0 * skew_se


def test_row_sums_of_draws_equal_the_per_draw_sums():
    # the drivers sum f over every draw at once; each row must round as
    # np.sum rounds that draw alone, or the CSVs of a fixed seed change
    rng = np.random.default_rng(5)
    f = rng.standard_normal(1000)
    for N in (3, 9, 130, 400):
        drawn = np.argsort(rng.random((7, 1000)), axis=1)[:, :N]
        want = [np.sum(f[row]) for row in drawn]
        assert f[drawn].sum(axis=1).tolist() == want


def test_clt_exact_moments_are_recorded(harmonic):
    f = TestFunction.gaussian_bump(1, 0.0, 0.2)
    rep = clt_monte_carlo(harmonic, 1.0, f, 0.02, 100, RngState(1))
    assert rep.params["var"] > 0.0
    assert abs(rep.params["skew_exact"]) < 0.05
    assert (rep.params["potential"], rep.params["mu"], rep.params["hbar"]) \
        == ("x1^2", 1.0, 0.02)


def test_clt_rejects_deterministic_statistic(harmonic, monkeypatch):
    # f = 1 on every node: X(f) = N in every draw, refused before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("a degenerate statistic was sampled")

    monkeypatch.setattr("fermigas.experiments.samples", no_draw)
    ones = TestFunction.custom("0*x1 + 1", support_radius=3.0)
    with pytest.raises(ValidationError, match="degenerate"):
        clt_monte_carlo(harmonic, 1.0, ones, 0.02, 100, RngState(1))
