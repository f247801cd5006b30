"""Independent quadrature oracles used to pin expected values in the tests.

These deliberately avoid the evaluation strategies used inside the package
(power series, asymptotic expansions, closed forms).  The Airy oracle
integrates the smoothly truncated oscillatory representation

    Ai(x) = (1/pi) * int_0^inf chi(eps*t) * cos(t^3/3 + x*t) dt

where chi is a C^inf cutoff equal to 1 on [0, 1] and 0 beyond 2.  Truncating
with a smooth chi makes the remainder O((eps^-2 + x)^-k) for every k, so for
negative x the cutoff scale eps is shrunk until the stationary point of the
phase sits well inside the untruncated window.  The Bessel oracle uses the
Poisson integral representation.  Both are checked for self-consistency by
halving the cutoff scale / doubling the quadrature budget.  The Hermite
functions give the exact eigenfunctions of the oscillator.
"""

import math

import numpy as np
from scipy.integrate import quad


def smooth_cutoff(u):
    """C^inf cutoff: 1 on (-inf, 1], 0 on [2, inf), monotone in between."""
    if u <= 1.0:
        return 1.0
    if u >= 2.0:
        return 0.0
    a = math.exp(-1.0 / (u - 1.0))
    b = math.exp(-1.0 / (2.0 - u))
    return b / (a + b)


def _osc_quad(integrand, lo, hi, breakpoints=()):
    """Adaptive quadrature tuned for the oscillatory cutoff integrands."""
    pieces = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        # full_output=1 silences the roundoff warning that pure oscillatory
        # integrands trigger at tolerances near machine precision
        out = quad(integrand, a, b, limit=3000, epsabs=1e-14, epsrel=1e-14,
                   full_output=1)
        total += out[0]
    return total


def airy_oracle(x, eps=None):
    """Ai(x) by adaptive quadrature of the smoothly truncated integral."""
    if eps is None:
        # keep the stationary point t = sqrt(-x) of the phase inside the
        # chi = 1 region and keep the error term (eps^-2 + x)^-k harmless
        eps = 1.0 / math.sqrt(90.0 + max(0.0, -x))

    def integrand(t):
        return smooth_cutoff(eps * t) * math.cos(t ** 3 / 3.0 + x * t)

    stationary = math.sqrt(-x) if x < 0.0 else 0.0
    val = _osc_quad(integrand, 0.0, 2.0 / eps, (stationary, 1.0 / eps))
    return val / math.pi


def airy_prime_oracle(x, eps=None):
    """Ai'(x) by differentiating the truncated integral under the sign."""
    if eps is None:
        eps = 1.0 / math.sqrt(90.0 + max(0.0, -x))

    def integrand(t):
        return -t * smooth_cutoff(eps * t) * math.sin(t ** 3 / 3.0 + x * t)

    stationary = math.sqrt(-x) if x < 0.0 else 0.0
    val = _osc_quad(integrand, 0.0, 2.0 / eps, (stationary, 1.0 / eps))
    return val / math.pi


def bessel_oracle(nu, x):
    """J_nu(x) from the Poisson integral (valid for nu > -1/2)."""
    def integrand(phi):
        return math.cos(x * math.cos(phi)) * math.sin(phi) ** (2.0 * nu)

    val = _osc_quad(integrand, 0.0, math.pi)
    pref = (0.5 * x) ** nu / (math.sqrt(math.pi) * math.gamma(nu + 0.5))
    return pref * val


def airy_sq_tail_oracle(x, upper=16.0):
    """int_x^inf Ai(s)^2 ds, quadrature stacked on the Airy oracle."""
    val, err = quad(lambda s: airy_oracle(s) ** 2, x, upper,
                    limit=200, epsabs=1e-11)
    # beyond `upper` the integrand is below e^(-2*zeta(16)) ~ 1e-38
    return val


def hermite_functions(N, x):
    """psi_0..psi_{N-1} at x as an (N, len(x)) array.

    psi_k(x) = H_k(x) exp(-x^2/2) / sqrt(2^k k! sqrt(pi)) by the normalised
    three-term recurrence psi_k = sqrt(2/k) x psi_{k-1}
    - sqrt((k-1)/k) psi_{k-2}, which stays finite where H_k and the
    Gaussian separately overflow.
    """
    x = np.asarray(x, dtype=float)
    psi = np.empty((N,) + x.shape)
    psi[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if N > 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for k in range(2, N):
        psi[k] = (math.sqrt(2.0 / k) * x * psi[k - 1]
                  - math.sqrt((k - 1) / k) * psi[k - 2])
    return psi
