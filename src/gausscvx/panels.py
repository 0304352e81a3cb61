"""Adaptive Chebyshev panels for integrals of one variable.

``Cumulative`` interpolates an integrand at degree-32 Chebyshev points on
panels that it bisects until the trailing coefficients are negligible, and
integrates the interpolants exactly (Trefethen, *Approximation Theory and
Approximation Practice*, chapters 3, 8 and 19).  ``integrate`` is the
one-call definite integral; both report ``err``, the sum over the panels of
their width times their three trailing coefficient magnitudes, which bounds
the error of the integrated interpolant when the coefficients keep
decaying.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as cheb

_DEG = 32
_THETA = np.pi * (np.arange(_DEG + 1) + 0.5) / (_DEG + 1)
_NODES = np.cos(_THETA)
# values at _NODES -> Chebyshev coefficients (discrete cosine transform)
_TO_COEF = (2.0 / (_DEG + 1)) * np.cos(np.outer(np.arange(_DEG + 1), _THETA))
_TO_COEF[0] /= 2.0
_TOL = 1e-12
_MAX_PANELS = 400


class NumericalFailure(RuntimeError):
    """An integral could not be resolved to its tolerance."""


class Cumulative:
    """G(x) = g0 + int_{x0}^x f on Chebyshev panels of one coordinate.

    ``f`` is vectorized.  The panels start as ``edges`` (``x0`` must be one
    of them) and are bisected until their trailing coefficients fall below
    ``_TOL`` of the panel's scale.  The scale is the panel's largest value
    but at least 1e-2, so that an integrand that vanishes on a panel is not
    resolved down to its rounding noise: such panels count to absolute
    accuracy.  A non-finite value, or more than ``_MAX_PANELS`` panels (as
    for an integrand whose rounding noise exceeds ``_TOL`` of its scale),
    raises ``NumericalFailure``.  ``last`` is G at the right end and ``err``
    the estimate of the module docstring.

    The coefficients are formed two panels per matrix product, whatever
    the number of panels in a round (BLAS may sum the rows of a larger
    product in another order).  So no table depends on how many panels a
    round forms, and the edges a bisection reaches, given at once, rebuild
    its table bit for bit.
    """

    def __init__(self, f, edges, x0: float, g0: float):
        todo, panels = list(zip(edges[:-1], edges[1:])), []
        while todo:
            lo, hi = np.array(todo).T
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            vals = f(mid[:, None] + half[:, None] * _NODES)
            if not np.all(np.isfinite(vals)):
                raise NumericalFailure(
                    f"integrand not finite on [{lo.min():g}, {hi.max():g}]")
            coef = _coefficients(vals)
            scale = np.maximum(np.max(np.abs(vals), axis=1), 1e-2)
            tail = np.abs(coef[:, -3:])
            ok = np.max(tail, axis=1) <= _TOL * scale
            panels += zip(lo[ok], hi[ok], coef[ok], tail[ok].sum(axis=1))
            todo = [p for l, m, h in zip(lo[~ok], mid[~ok], hi[~ok])
                    for p in ((l, m), (m, h))]
            if len(panels) + len(todo) > _MAX_PANELS:
                raise NumericalFailure("panel splitting ran away")
        panels.sort(key=lambda p: p[0])
        lo, hi, coef, tail = (np.array(v) for v in zip(*panels))
        self.edges = np.append(lo, hi[-1])
        self.mid, self.half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        self.err = float(np.sum((hi - lo) * tail))
        # antiderivative on each panel, zero at its left edge
        self.coef = cheb.chebint(coef, lbnd=-1, axis=1) * self.half[:, None]
        self._rows = np.ascontiguousarray(self.coef.T)  # row k: every panel's c_k
        total = self.coef.sum(axis=1)  # T_k(1) = 1
        k = int(np.searchsorted(self.edges, x0))
        at_edge = np.empty(len(self.edges))
        at_edge[k] = g0
        at_edge[k + 1:] = g0 + np.cumsum(total[k:])
        at_edge[:k] = g0 - np.cumsum(total[:k][::-1])[::-1]
        self.base = at_edge[:-1]
        self.last = float(at_edge[-1])

    def __call__(self, x):
        i = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                    0, len(self.base) - 1)
        z = (x - self.mid[i]) / self.half[i]
        c = self._rows[:, i]  # c[k] holds c_k of each point's panel
        two_z = 2.0 * z
        b1 = b2 = 0.0
        for k in range(len(c) - 1, 0, -1):  # Clenshaw
            b1, b2 = c[k] + two_z * b1 - b2, b1
        return self.base[i] + c[0] + z * b1 - b2


def _coefficients(vals):
    """Chebyshev coefficients of each row of values at ``_NODES``, two rows
    per matrix product (an odd last row is padded)."""
    m = len(vals)
    pairs = np.vstack([vals, vals[-1:]]) if m % 2 else vals
    return (pairs.reshape(-1, 2, _DEG + 1) @ _TO_COEF.T).reshape(-1, _DEG + 1)[:m]


def integrate(f, edges) -> tuple[float, float]:
    """(int f over [edges[0], edges[-1]], err) on ``Cumulative``'s panels."""
    G = Cumulative(f, edges, edges[0], 0.0)
    return G.last, G.err

