"""Shared test oracles, independent of the library's evaluation paths."""

import itertools

import numpy as np
import pytest

from ufm.panel import PanelMatrix

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def kernel_density_reference(poly_coeffs, u):
    """Polynomial-times-Gaussian density via plain powers (oracle path)."""
    u = np.asarray(u, dtype=float)
    return _poly_even(poly_coeffs, u) * np.exp(-0.5 * u * u) / _SQRT_2PI


def _poly_even(coeffs, u):
    acc = np.zeros_like(u, dtype=float)
    for i, c in enumerate(coeffs):
        acc = acc + c * u ** (2 * i)
    return acc


def _horner_even(coeffs, u_sq):
    acc = np.full_like(u_sq, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * u_sq + c
    return acc


def gauss_legendre_check_loss(poly_coeffs, h, tau, c, y, n_nodes=48, span=9.0):
    """Smoothed check loss by Gauss-Legendre quadrature below the kink.

    With a = (c - y)/h, the loss equals h * (-I(a) - tau * a) where
    I(a) = int_{-span}^{a} (u - a) k(u) du, using the kernel's certified
    total mass 1 and odd symmetry for the piece above the kink. The
    integrand below the kink is smooth, so fixed-node Gauss-Legendre is
    machine precision; this path shares nothing with the library's
    Hermite-recurrence closed forms. Broadcasts over c/y arrays.
    """
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)
    a_raw = (c - y) / h
    a = np.clip(a_raw, -span, span)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (a + span)
    mid = 0.5 * (a - span)
    u = mid[..., None] + half[..., None] * nodes
    # keep the raw offset in the linear factor: for |a_raw| > span this
    # reproduces the exact check-loss asymptotes with no special cases
    integrand = (u - a_raw[..., None]) * _horner_even(poly_coeffs, u * u) \
        * np.exp(-0.5 * u * u) / _SQRT_2PI
    left = half * (integrand @ weights)
    out = h * (-left - tau * a_raw)
    return out if out.ndim else float(out)


class TracingPanel(PanelMatrix):
    """Records the (row, col) cells a code path reads: a block through
    ``submatrix``, and every cell through a read of ``values``."""

    @classmethod
    def wrap(cls, panel):
        traced = cls(panel.values, panel.row_ids, panel.col_ids)
        object.__setattr__(traced, "accessed", set())
        return traced

    def __getattribute__(self, name):
        if name == "values" and "accessed" in object.__getattribute__(self, "__dict__"):
            self.accessed.update(itertools.product(range(len(self.row_ids)),
                                                   range(len(self.col_ids))))
        return super().__getattribute__(name)

    def submatrix(self, rows, cols):
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        self.accessed.update((int(i), int(j)) for i in rows for j in cols)
        return object.__getattribute__(self, "values")[np.ix_(rows, cols)]


class FitOnRead(dict):
    """Row-half factors for ``quadrant_crossfit``, each fitted only when the
    function reads it, so a tracing panel records just the half it uses."""

    def __init__(self, fit):
        super().__init__()
        self.fit = fit

    def __missing__(self, half):
        self[half] = self.fit(half)
        return self[half]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
