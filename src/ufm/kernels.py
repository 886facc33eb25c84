"""Convolution-smoothed check loss for even-order Gaussian-based kernels.

A kernel of order gamma has the form k(z) = (sum_i c_{2i} z^{2i}) phi(z)
with phi the standard normal density; its first gamma - 1 moments vanish.
The antiderivatives needed by the smoothed quantile loss follow from the
recurrence  int z^n phi(z) dz = -z^{n-1} phi(z) + (n-1) int z^{n-2} phi(z) dz,
so every quantity here is closed form and O(gamma) per evaluation.

With a = (c - y)/h, the smoothed check loss and its derivatives in the
fitted value c are

    value(c) = h * [a * (K(a) - tau) - J1(a)]
    grad(c)  = K(a) - tau
    hess(c)  = k(a) / h

where K(a) = int_{-inf}^a k and J1(a) = int_{-inf}^a v k(v) dv.

All three come from one pass, :func:`_kernel_terms`, sharing a single
Gaussian and normal-CDF evaluation per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Beyond this the Gaussian factor underflows to exactly 0.0 and the CDF
# saturates, so clamping the argument is lossless.
_Z_CUT = 40.0


def _double_factorial_odd(k: int) -> float:
    """(2k - 1)!! = E[Z^{2k}] for standard normal Z; equals 1 at k = 0."""
    return math.factorial(2 * k) / (2**k * math.factorial(k))


@dataclass(frozen=True)
class SmoothKernel:
    """Even-order Gaussian-based kernel defined by its polynomial factor.

    ``poly_coeffs[i]`` multiplies z^{2i}; the length is order/2.
    """

    order: int
    poly_coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.poly_coeffs, dtype=float)
        if self.order < 2 or self.order % 2 != 0:
            raise ValueError("kernel order must be a positive even integer")
        if coeffs.ndim != 1 or coeffs.size != self.order // 2:
            raise ValueError("need order/2 polynomial coefficients")
        coeffs.setflags(write=False)
        object.__setattr__(self, "poly_coeffs", coeffs)

    def moment(self, j: int) -> float:
        """Closed-form j-th moment of the kernel."""
        if j % 2 == 1:
            return 0.0
        return float(
            sum(c * _double_factorial_odd(i + j // 2) for i, c in enumerate(self.poly_coeffs))
        )


def _order14_coeffs() -> np.ndarray:
    f14 = math.factorial(14)
    f7 = math.factorial(7)
    out = []
    for i in range(7):
        c = Fraction((-1) ** i * f14, 2 ** (13 - i) * f7 * math.factorial(2 * i + 1) * math.factorial(6 - i))
        out.append(float(c))
    return np.array(out)


def _solve_coeffs(order: int) -> np.ndarray:
    # Moment conditions: sum_i c_{2i} (2(i+j)-1)!! = 1{j=0} for j = 0..order/2-1.
    half = order // 2
    a = np.empty((half, half))
    for j in range(half):
        for i in range(half):
            a[j, i] = _double_factorial_odd(i + j)
    b = np.zeros(half)
    b[0] = 1.0
    return np.linalg.solve(a, b)


def gaussian_kernel(order: int) -> SmoothKernel:
    """Kernel of the given even order; 2 and 14 are the supported defaults."""
    if order == 2:
        return SmoothKernel(2, np.array([1.0]))
    if order == 14:
        return SmoothKernel(14, _order14_coeffs())
    return SmoothKernel(order, _solve_coeffs(order))


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _kernel_terms(kernel: SmoothKernel, z, j1: bool = False, dens: bool = False):
    """K(z), and J1(z) and k(z) when asked (else None), from one phi and ndtr pass.

    K and J1 = int_{-inf}^z v k(v) dv follow the even/odd recurrence chains
    I_{2i} and I_{2i+1}; k is the Horner polynomial times phi.
    """
    zc = np.clip(np.asarray(z, dtype=float), -_Z_CUT, _Z_CUT)
    coeffs = kernel.poly_coeffs
    # an order-2 CDF alone needs only ndtr
    phi = _phi(zc) if j1 or dens or coeffs.size > 1 else None
    z2 = zc * zc if dens or coeffs.size > 1 else None
    even = ndtr(zc)               # I_0
    cdf = coeffs[0] * even
    odd = j1_out = k_out = None
    if j1:
        odd = -phi                # I_1
        j1_out = coeffs[0] * odd
    zpow = zc                     # z^{2i-1}
    for i in range(1, coeffs.size):
        if i > 1:
            zpow = zpow * z2
        even = (2 * i - 1) * even - zpow * phi           # I_{2i}
        cdf += coeffs[i] * even
        if j1:
            odd = (2 * i) * odd - (zpow * zc) * phi      # I_{2i+1}
            j1_out += coeffs[i] * odd
    if dens:
        poly = np.full_like(zc, coeffs[-1])
        for c in coeffs[-2::-1]:
            poly = poly * z2 + c
        k_out = poly * phi
    return cdf, j1_out, k_out


def kernel_k(kernel: SmoothKernel, z) -> np.ndarray | float:
    """Kernel density k(z); symmetric, may be negative for order > 2."""
    _, _, out = _kernel_terms(kernel, z, dens=True)
    return out if out.ndim else float(out)


def kernel_cdf(kernel: SmoothKernel, z) -> np.ndarray | float:
    """Exact antiderivative K(z) = int_{-inf}^z k; K(-inf) = 0, K(inf) = 1."""
    cdf, _, _ = _kernel_terms(kernel, z)
    return cdf if cdf.ndim else float(cdf)


def smoothed_grad(kernel: SmoothKernel, h: float, tau, c, y) -> np.ndarray | float:
    """d/dc of the smoothed check loss: K((c - y)/h) - tau."""
    a = (np.asarray(c, dtype=float) - y) / h
    out = kernel_cdf(kernel, a) - tau
    return out if np.ndim(out) else float(out)


def smoothed_hess(kernel: SmoothKernel, h: float, tau, c, y) -> np.ndarray | float:
    """d^2/dc^2 of the smoothed check loss: k((c - y)/h)/h; sign-indefinite
    values for high orders are expected and handled by the solver."""
    out = kernel_k(kernel, (np.asarray(c, dtype=float) - y) / h) / h
    return out if np.ndim(out) else float(out)


def smoothed_value(kernel: SmoothKernel, h: float, tau, c, y) -> np.ndarray | float:
    """The smoothed check loss itself (diagnostic; solvers use grad/hess).

    Evaluated in closed form by splitting the convolution at the check
    function's kink, which keeps d/dc value == smoothed_grad to machine
    precision.
    """
    c = np.asarray(c, dtype=float)
    a = (c - y) / h
    cdf, j1, _ = _kernel_terms(kernel, a, j1=True)
    # a itself stays unclamped: outside the cut, K and J1 saturate to
    # {0,1} and 0, leaving the exact check-loss asymptote h*a*(K - tau).
    out = h * (a * (cdf - tau) - j1)
    return out if out.ndim else float(out)
