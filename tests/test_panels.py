"""Chebyshev panels: values and error estimates vs closed forms."""

import numpy as np
import pytest

from gausscvx import cylinder as cyl
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

    def test_paired_build_on_bisected_edges_is_the_bisected_table(self):
        # x^2.5 is bisected toward 0 in rounds of two panels
        f = lambda x: x ** 2.5
        bisected = pn.Cumulative(f, [0.0, 0.5, 1.0], 0.0, 0.0)
        calls = []
        graded = pn.Cumulative(lambda x: calls.append(x) or f(x), list(bisected.edges),
                               0.0, 0.0)
        assert len(calls) == 1 and len(bisected.edges) > 4
        for name in ("edges", "coef", "base"):
            assert np.array_equal(getattr(graded, name), getattr(bisected, name)), name
        assert (graded.last, graded.err) == (bisected.last, bisected.err)

    def test_clenshaw_matches_the_per_panel_loop(self):
        # the former evaluation, kept as the oracle: coefficient columns of
        # each point's panel, 2 z formed inside the loop
        def oracle(G, x):
            i = np.clip(np.searchsorted(G.edges, x, side="right") - 1, 0, len(G.base) - 1)
            z = (x - G.mid[i]) / G.half[i]
            c = G.coef[i]
            b1 = b2 = 0.0
            for k in range(c.shape[-1] - 1, 0, -1):
                b1, b2 = c[..., k] + 2.0 * z * b1 - b2, b1
            return G.base[i] + c[..., 0] + z * b1 - b2

        G = cyl._unit_inner()
        e = G.edges
        x = np.concatenate([e, np.linspace(e[:-1], e[1:], 13, axis=1).ravel()])
        assert np.array_equal(G(x), oracle(G, x))
        assert np.array_equal(G(x[:126].reshape(2, -1)), oracle(G, x[:126].reshape(2, -1)))
        for v in (0.0, 0.3, 0.75, e[-1]):
            assert G(v) == oracle(G, v)
