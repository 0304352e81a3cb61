"""Chebyshev panels: values and error estimates vs closed forms."""

import numpy as np
import pytest

from gausscvx import panels as pn
from gausscvx import specfun as sf


class TestIntegrate:
    @pytest.mark.parametrize("lo,hi", [(-3.0, 1.0), (0.0, 2.0), (-12.0, 0.5),
                                       (0.3, 0.8), (-1.0, 6.0)])
    def test_gaussian_density_against_psi(self, lo, hi):
        value, err = pn.integrate(lambda t: np.exp(-t * t / 2.0), [lo, hi])
        exact = np.sqrt(2.0 * np.pi) * (sf.psi(hi) - sf.psi(lo))
        assert abs(value - exact) <= err
        assert err <= 1e-10 * exact

    def test_non_finite_integrand_is_numerical_failure(self):
        with pytest.raises(pn.NumericalFailure):
            pn.integrate(lambda t: np.where(t > 0.5, np.inf, 1.0), [0.0, 1.0])
        with pytest.raises(pn.NumericalFailure):
            pn.integrate(lambda t: np.sin(1e9 * t), [0.0, 1.0])


class TestCumulative:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_radial_weight_against_j_lower(self, k):
        R = 2.5
        G = pn.Cumulative(lambda s: s ** (k - 1) * np.exp(-s * s / 2.0),
                          [0.0, R], 0.0, 0.0)
        x = np.linspace(0.0, R, 101)
        exact = sf.j_lower(k - 1, x)
        assert np.max(np.abs(G(x) - exact)) <= G.err
        assert G.last == pytest.approx(sf.j_lower(k - 1, R), rel=1e-14)

    def test_anchor_inside_the_range(self):
        # G(x0) = g0 with x0 an interior edge: the integral runs both ways
        G = pn.Cumulative(np.cos, [0.0, 1.0, 3.0], 1.0, 0.25)
        x = np.linspace(0.0, 3.0, 31)
        assert np.max(np.abs(G(x) - (0.25 + np.sin(x) - np.sin(1.0)))) <= G.err

