"""Special-function layer against independent quadrature oracles."""

import math

import pytest

from fermigas.errors import ValidationError
from fermigas.specfun import (
    airy_ai,
    airy_ai_prime,
    bessel_j,
    bulk_wavenumber,
    unit_ball_volume,
)
from oracles import airy_oracle, airy_prime_oracle, bessel_oracle

# frozen from tests/oracles.py (adaptive quadrature of the smoothly
# truncated Airy integral, self-consistent to ~1e-13)
AI_0 = 0.3550280538878173
AIP_0 = -0.2588194037928068
AI_1 = 0.1352924163128825
AI_M2 = 0.2274074282016888
AIP_1 = -0.1591474412967491
J1_1 = 0.44005058574493355
J0_HALF = 0.9384698072408129


def test_airy_frozen_values():
    assert airy_ai(0.0) == pytest.approx(AI_0, abs=1e-8)
    assert airy_ai(1.0) == pytest.approx(AI_1, abs=1e-10)
    assert airy_ai(-2.0) == pytest.approx(AI_M2, abs=1e-10)
    assert airy_ai_prime(0.0) == pytest.approx(AIP_0, abs=1e-8)
    assert airy_ai_prime(1.0) == pytest.approx(AIP_1, abs=1e-10)


def test_airy_prime_matches_richardson_differences_of_oracle():
    # the stated derivative oracle: central differences of the Ai quadrature
    # oracle at step 1e-4 with one Richardson sweep
    h = 1e-4
    d1 = (airy_oracle(h) - airy_oracle(-h)) / (2 * h)
    d2 = (airy_oracle(2 * h) - airy_oracle(-2 * h)) / (4 * h)
    richardson = (4 * d1 - d2) / 3
    assert airy_ai_prime(0.0) == pytest.approx(richardson, abs=1e-9)


def test_airy_quadrature_agreement_on_window():
    for x in [-20.0 + 0.5 * k for k in range(49)]:  # -20.0 .. 4.0
        assert airy_ai(x) == pytest.approx(airy_oracle(x), abs=1e-7)


def test_airy_prime_quadrature_agreement():
    for x in (-6.0, -3.5, -1.0, 0.5, 2.0, 4.0):
        assert airy_ai_prime(x) == pytest.approx(airy_prime_oracle(x), abs=1e-7)


def test_airy_envelope_at_10():
    bound = 1.1 * math.exp(-(2.0 / 3.0) * 10.0 ** 1.5) / (
        2.0 * math.sqrt(math.pi) * 10.0 ** 0.25
    )
    assert abs(airy_ai(10.0)) <= bound


def test_airy_superpolynomial_decay():
    # Ai(2x)/Ai(x) beats 2^-k for every moderate k once x >= 5
    for x in (5.0, 10.0):
        ratio = airy_ai(2.0 * x) / airy_ai(x)
        assert 0.0 < ratio <= 2.0 ** -10


def test_airy_ode_residual():
    h = 1e-3
    xs = [-5.0 + 0.01 * k for k in range(1001)]
    worst = 0.0
    for x in xs:
        second = (airy_ai(x + h) - 2.0 * airy_ai(x) + airy_ai(x - h)) / h ** 2
        worst = max(worst, abs(second - x * airy_ai(x)))
    assert worst <= 1e-6


def test_airy_derivative_consistency():
    h = 1e-5
    for x in (-2.0, 0.0, 2.0):
        fd = (airy_ai(x + h) - airy_ai(x - h)) / (2.0 * h)
        assert fd == pytest.approx(airy_ai_prime(x), abs=1e-8)


def test_airy_branch_continuity_at_switch():
    lo = airy_ai(5.9999995)
    hi = airy_ai(6.0000005)
    assert abs(lo - hi) < 1e-10
    lo_p = airy_ai_prime(5.9999995)
    hi_p = airy_ai_prime(6.0000005)
    assert abs(lo_p - hi_p) < 1e-9


def test_airy_rejects_non_finite():
    with pytest.raises(ValidationError):
        airy_ai(math.inf)
    with pytest.raises(ValidationError):
        airy_ai_prime(math.nan)


def test_airy_rejects_arguments_past_scipys_range():
    # scipy.special.airy returns nan from |x| of about 2^20 on, on both sides
    assert airy_ai(1e6) == 0.0 and math.isfinite(airy_ai_prime(-1e6))
    for x in (2.0 ** 20, -2.0 ** 20, [0.0, 1e300]):
        with pytest.raises(ValidationError, match="below 2"):
            airy_ai(x)
        with pytest.raises(ValidationError, match="below 2"):
            airy_ai_prime(x)


def test_bessel_frozen_values():
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-8)
    assert bessel_j(1.0, 1.0) == pytest.approx(J1_1, abs=1e-10)
    assert bessel_j(0.0, 0.5) == pytest.approx(J0_HALF, abs=1e-10)


def test_bessel_maps_arrays_like_scalars():
    x = [0.0, 0.3, 1.7, 30.0]
    assert [bessel_j(1.5, t) for t in x] == list(bessel_j(1.5, x))
    assert isinstance(bessel_j(1.5, 0.3), float)


def test_bessel_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    for nu in (0.5, 1.0, 1.5, 2.0):
        assert bessel_j(nu, 0.0) == 0.0


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
def test_bessel_oracle_agreement(nu):
    for x in (0.3, 1.7, 6.0, nu + 11.9, nu + 12.1, 30.0):
        assert bessel_j(nu, x) == pytest.approx(bessel_oracle(nu, x), abs=1e-10)


def test_bessel_half_integer_reduction():
    for x in [0.01, 0.1, 0.5] + [0.5 * k for k in range(2, 101)]:
        closed = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert bessel_j(0.5, x) == pytest.approx(closed, abs=1e-9)


def test_bessel_large_argument_asymptotics():
    for n in (1, 2, 3):
        for r in (50.0, 100.0):
            lead = math.sqrt(2.0 / (math.pi * r)) * math.cos(
                r - (n + 1) * math.pi / 4.0
            )
            assert abs(bessel_j(n / 2.0, r) - lead) <= r ** -1.5


def test_bessel_recurrence():
    for nu in (0.5, 1.0, 1.5, 2.0, 2.5):
        for x in (0.7, 2.3, 9.1, 17.0, 44.0):
            lhs = bessel_j(nu - 0.5, x) + bessel_j(nu + 1.5, x)
            # recurrence at order nu + 1/2: J_{nu-1/2} + J_{nu+3/2}
            rhs = (2.0 * (nu + 0.5) / x) * bessel_j(nu + 0.5, x)
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_bessel_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        bessel_j(0.5, -1.0)
    for bad in ([1.0, -1.0], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValidationError):
            bessel_j(1.0, bad)
    with pytest.raises(ValidationError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ValidationError):
        bessel_j(-0.5, 1.0)


def test_unit_ball_volume():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    with pytest.raises(ValidationError):
        unit_ball_volume(-1)


def test_bulk_wavenumber():
    assert bulk_wavenumber(1) == math.pi
    assert bulk_wavenumber(2) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-15)
    assert bulk_wavenumber(3) == pytest.approx(
        2.0 * math.pi * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0), rel=1e-14
    )
    with pytest.raises(ValidationError):
        bulk_wavenumber(0)

