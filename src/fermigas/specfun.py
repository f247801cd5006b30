"""Airy and Bessel-J evaluation plus the geometric constants omega_n, c_n.

Ai, Ai' and J_nu are checked calls into scipy.special.airy and
scipy.special.jv; a scalar argument gives a Python float (J_nu maps arrays).
scipy stays accurate far out on the oscillatory side of Ai, where a
Maclaurin series loses every digit to cancellation.  The test suite pins
all three against independent quadrature oracles.
"""

import math

import numpy as np
from scipy.special import airy, jv

from .errors import ValidationError

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "bessel_j",
    "unit_ball_volume",
    "bulk_wavenumber",
]


def airy_ai(x):
    """Airy function Ai(x)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("airy_ai requires a finite argument")
    return float(airy(x)[0])


def airy_ai_prime(x):
    """Derivative Ai'(x)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("airy_ai_prime requires a finite argument")
    return float(airy(x)[1])


def bessel_j(nu, x):
    """Bessel J_nu(x) of half-integer order nu >= 0, elementwise in x."""
    nu = float(nu)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValidationError("bessel_j requires finite x >= 0")
    two_nu = 2.0 * nu
    if nu < 0.0 or two_nu != round(two_nu):
        raise ValidationError(
            f"bessel_j supports half-integer order nu >= 0, got {nu}"
        )
    val = jv(nu, x)
    return float(val) if val.ndim == 0 else val


def unit_ball_volume(n):
    """Volume omega_n = pi^{n/2}/Gamma(1+n/2) of the unit ball in R^n.

    Evaluated through omega_n = omega_{n-2} * 2 pi / n, which reproduces the
    low-dimensional values (2, pi, 4 pi/3, ...) without rounding slop from
    the gamma function.
    """
    n = int(n)
    if n < 0:
        raise ValidationError("unit_ball_volume requires n >= 0")
    vol = 1.0 if n % 2 == 0 else 2.0
    for m in range(2 + n % 2, n + 1, 2):
        vol *= 2.0 * math.pi / m
    return vol


def bulk_wavenumber(n):
    """The radius c_n = 2 pi omega_n^{-1/n} at which the free kernel has density one."""
    n = int(n)
    if n < 1:
        raise ValidationError("bulk_wavenumber requires n >= 1")
    return 2.0 * math.pi * unit_ball_volume(n) ** (-1.0 / n)
