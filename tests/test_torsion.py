"""Torsion layer: radial integrals vs collocation, duality, rearrangement."""

import numpy as np
import pytest

from gausscvx import body as bd
from gausscvx import gaussmoments as gm
from gausscvx import panels as pn
from gausscvx import specfun as sf
from gausscvx import torsion as tor

import oracles

# half-space F = 1 values, frozen after agreeing with the collocation
# oracle to ~1e-11 relative
HALFSPACE_FROZEN = {
    0.2: 0.321933614428,
    0.5: 0.693147180560,   # ln 2 exactly
    0.8: 1.786555576895,
    0.95: 5.490319340544,
}

ONES = lambda r: 1.0


class TestRadial:
    @pytest.mark.parametrize("k,R", [(1, 0.5), (1, 2.0), (2, 1.0), (3, 0.8)])
    def test_const_load_vs_collocation(self, k, R):
        pkg = tor.torsion_radial(k, R, ONES)
        bvp = oracles.radial_torsion_bvp(k, R, ONES)
        assert pkg.value == pytest.approx(bvp, rel=1e-7)

    @pytest.mark.parametrize("k,R", [(1, 1.0), (2, 0.7), (3, 1.5)])
    def test_quadratic_load_vs_collocation(self, k, R):
        F = lambda r: k - r * r
        pkg = tor.torsion_radial(k, R, F)
        bvp = oracles.radial_torsion_bvp(k, R, F)
        assert pkg.value == pytest.approx(bvp, rel=1e-7)

    def test_small_radius_lebesgue_asymptotics(self):
        # as R -> 0 the weight is flat and T -> classical value R^2/(2(k+2))
        # after the measure normalization; k = 1 interval: T ~ R^2/3... the
        # exact classical normalized energy is R^2 E[(1-s^2)^2]-type; use the
        # ratio stability instead: T(R)/R^2 must converge
        vals = [tor.torsion_radial(2, R, ONES).value / R**2
                for R in (0.2, 0.1, 0.05)]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
        # classical disc value: T/R^2 -> 1/8 for k = 2
        assert vals[2] == pytest.approx(1.0 / 8.0, rel=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            tor.torsion_radial(0, 1.0, ONES)
        with pytest.raises(ValueError):
            tor.torsion_radial(2, -1.0, ONES)

    def test_scalar_load_equals_array_load(self):
        # F may return a Python scalar for an array of radii
        for k, R in [(1, 0.5), (2, 1.3), (3, 0.8)]:
            scalar = tor.torsion_radial(k, R, ONES)
            array = tor.torsion_radial(k, R, lambda r: np.ones_like(r))
            assert scalar == array

    @pytest.mark.parametrize("F,R", [(lambda r: np.where(r < 0.5, 1.0, np.nan), 1.0),
                                     (ONES, 40.0)])
    def test_non_finite_integrand_is_numerical_failure(self, F, R):
        # a NaN load, and an energy density that overflows (e^{r^2/2}, r -> 40)
        with pytest.raises((pn.NumericalFailure, tor.TorsionFailure)):
            tor.torsion_radial(2, R, F)


class TestHalfspace:
    def test_frozen_values(self):
        for a, frozen in HALFSPACE_FROZEN.items():
            got = tor.torsion_halfspace(a)
            assert got.value == pytest.approx(frozen, abs=5e-11)

    def test_half_measure_is_log_two(self):
        assert tor.torsion_halfspace(0.5).value == pytest.approx(np.log(2.0),
                                                                 rel=1e-11)

    def test_error_estimate_covers_log_two(self):
        res = tor.torsion_halfspace(0.5)
        assert res.err >= abs(res.value - np.log(2.0))

    def test_collocation_oracle(self):
        for a in (0.3, 0.65, 0.9):
            pkg = tor.torsion_halfspace(a)
            bvp = oracles.halfspace_torsion_bvp(a)
            assert pkg.value == pytest.approx(bvp, rel=1e-8)

    def test_monotone_in_measure(self):
        vals = [tor.torsion_halfspace(a).value for a in (0.2, 0.4, 0.6, 0.8)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            tor.torsion_halfspace(0.0)


class TestGaugeLower:
    @pytest.mark.parametrize("k,R,n", [(1, 0.5, 2), (1, 1.0, 2), (2, 1.0, 3),
                                       (3, 0.8, 3)])
    def test_equality_on_cylinders_with_matched_load(self, k, R, n):
        # F = k - |x_(1..k)|^2 makes the in-radius test function exact
        K = bd.cylinder(k, R, n)
        F_ray = (gm.RayPolynomial.constant(float(k))
                 + gm.RayPolynomial.gauge_power(2) * (-R * R))
        lower = tor.torsion_gauge_lower(K, F_ray)
        exact = tor.torsion_radial(k, R, lambda r: k - r * r)
        assert lower.value == pytest.approx(exact.value, rel=1e-6)

    def test_lower_bounds_exact_const_load(self):
        for k, R, n in [(1, 0.8, 2), (2, 1.2, 3)]:
            K = bd.cylinder(k, R, n)
            lower = tor.torsion_gauge_lower(K, gm.RayPolynomial.constant(1.0))
            exact = tor.torsion_radial(k, R, ONES)
            assert lower.value <= exact.value * (1 + 1e-9)

    def test_measure_floor_only_for_const_load(self):
        K = bd.ball(0.25, 2)
        res1 = tor.torsion_gauge_lower(K, gm.RayPolynomial.constant(1.0))
        assert res1.components["measure_floor"] <= res1.value + 1e-15
        resF = tor.torsion_gauge_lower(
            K, gm.RayPolynomial.constant(2.0)
            - gm.RayPolynomial.gauge_power(2) * (0.25**2))
        assert resF.value == pytest.approx(resF.components["last_touch"],
                                           rel=1e-15)



class TestTorsionOne:
    @pytest.mark.parametrize("K", [bd.strip(0.7, 2), bd.ball(1.2, 2),
                                   bd.cylinder(2, 0.9, 3)])
    def test_exact_radial_on_cylinders(self, K):
        k, R = bd.round_cylinder(K)
        assert tor.torsion_one(K) == tor.torsion_radial(k, R, ONES)

    def test_gauge_lower_elsewhere(self):
        K = bd.box((0.7, 0.9), 2)
        assert tor.torsion_one(K) == tor.torsion_gauge_lower(
            K, gm.RayPolynomial.constant(1.0))

class TestRayleigh:
    def test_matches_radial_on_ball(self):
        # v = 1 - ||x||^2 on the ball: the quotient is the exact matched-load
        # torsion for F = k - r^2 up to the normalization built into both
        K = bd.ball(1.0, 2)
        F_ray = (gm.RayPolynomial.constant(2.0)
                 + gm.RayPolynomial.gauge_power(2) * (-1.0))
        q = tor.rayleigh(K, F_ray, [1.0, 0.0, -1.0])
        exact = tor.torsion_radial(2, 1.0, lambda r: 2 - r * r)
        assert q.value == pytest.approx(exact.value, rel=1e-4)

    def test_lower_bound_property(self):
        # any admissible test function gives a value below the true torsion
        K = bd.ball(1.0, 2)
        exact = tor.torsion_radial(2, 1.0, ONES).value
        for P in ([1.0, 0.0, -1.0], [1.0, -1.0], [1.0, 0.5, -1.5]):
            q = tor.rayleigh(K, gm.RayPolynomial.constant(1.0), P)
            assert q.value <= exact * (1 + 1e-6)

    def test_boundary_condition_enforced(self):
        K = bd.ball(1.0, 2)
        with pytest.raises(ValueError):
            tor.rayleigh(K, gm.RayPolynomial.constant(1.0), [1.0, 0.0, -0.5])


class TestRearrangement:
    def test_rearranged_function_is_nonincreasing(self):
        f = lambda t: 1.0 + 0.3 * np.sin(t)
        f_star, a = tor.ehrhard_rearrange_1d(f, 0.8, 1.2)
        s = np.linspace(-6.0, float(sf.psi_inv(a)), 200)
        vals = np.asarray(f_star(s))
        assert np.all(np.diff(vals) <= 1e-10)

    def test_preserves_distribution(self):
        # the level-set measures of f and f* agree (checked via lengths);
        # the interior maximum must be declared so both monotone branches
        # of each superlevel set are seen
        w1, w2 = 0.9, 1.1
        f = lambda t: 2.0 - t * t
        f_star, a = tor.ehrhard_rearrange_1d(f, w1, w2, extrema=(0.0,))
        beta = float(sf.psi_inv(a))
        for tau in (1.0, 1.5, 1.9):
            t = np.linspace(-w1, w2, 30001)
            mass = oracles.distribution_lengths(t, f(t), tau)
            s = np.linspace(beta - 12.0, beta, 30001)
            mass_star = oracles.distribution_lengths(s, np.asarray(f_star(s)), tau)
            assert mass_star == pytest.approx(mass, abs=5e-4)


class TestTalenti:
    CASES = [
        (0.8, 0.8, lambda t: np.ones_like(t), ()),
        (1.2, 0.5, lambda t: np.ones_like(t), ()),
        (0.9, 1.1, lambda t: 2.0 - t * t, (0.0,)),
        (1.0, 1.0, lambda t: 1.5 + 0.5 * np.sin(t), ()),
        (0.7, 1.3, lambda t: np.exp(-t), ()),
    ]

    @pytest.mark.parametrize("w1,w2,F,extrema", CASES)
    def test_rearranged_solution_below_halfline(self, w1, w2, F, extrema):
        rep = tor.talenti_1d(w1, w2, F, extrema=extrema)
        assert rep.max_gap <= 1e-8
        assert rep.u_min >= -1e-12
        assert rep.boundary_residual <= 1e-10

    def test_symmetric_constant_load_is_tightest_readout(self):
        # symmetric interval, F = 1: u*(s) and v(s) agree at the right end
        rep = tor.talenti_1d(1.0, 1.0, lambda t: np.ones_like(t))
        assert rep.u_star[-1] == pytest.approx(0.0, abs=1e-8)
        assert rep.v[-1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("w", [0.8, 1.0])
    def test_symmetric_u_star_is_steady_under_rounding(self, w):
        # u's two mirror-image branches sample each level twice up to
        # rounding; scaling F by 1 + 4e-16 moved u* by 7.8e-8 (w = 0.8) and
        # 2.2e-6 (w = 1.0) while those near-duplicate levels were kept
        one = tor.talenti_1d(w, w, lambda t: np.ones_like(t))
        scaled = tor.talenti_1d(w, w, lambda t: np.ones_like(t) * (1.0 + 4e-16))
        assert np.max(np.abs(scaled.u_star - one.u_star)) < 2e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            tor.talenti_1d(-0.5, 1.0, lambda t: np.ones_like(t))


class TestInPackageRules:
    """The Talenti comparison's PCHIP and cumulative Simpson rule against
    scipy's ``PchipInterpolator`` and ``cumulative_simpson``.  scipy is
    imported inside the tests: the scipy-blocking CLI test imports this
    module for ``TestTalenti.CASES``."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(27)
        for size in (2, 2, 3, 4, 9, 40, 40):
            x = np.cumsum(rng.uniform(0.01, 2.0, size)) - 3.0
            steps = rng.uniform(0.0, 1.0, size)
            yield x, np.cumsum(steps), np.cumsum(steps * (rng.uniform(size=size) > 0.3)), \
                rng.normal(size=size) * 10.0 ** rng.uniform(-1.0, 1.0, size)  # one that turns
        # two flat segments in a row, and a table that ends flat
        yield np.arange(6.0), np.array([0.0, 1.0, 1.0, 1.0, 2.0, 4.0]), \
            np.array([-3.0, -2.0, -0.5, 0.0, 0.0, 0.0])

    def test_pchip_matches_scipy(self):
        from scipy.interpolate import PchipInterpolator
        for x, *ys in self.tables():
            for y in ys + [-y for y in ys]:
                q = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 501)])
                ours = tor._monotone_interp(x, y)(q)
                ref = PchipInterpolator(x, y)(np.clip(q, x[0], x[-1]))
                assert np.all(np.abs(ours - ref) <= 1e-15 * np.abs(ref)), (x, y)

    def test_pchip_scalar_query_keeps_zero_dim(self):
        f = tor._monotone_interp(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 3.0]))
        assert np.ndim(f(0.5)) == 0 and f(9.0) == 3.0 and f(1.0) == 2.0

    @pytest.mark.parametrize("w1,w2,F,extrema", TestTalenti.CASES)
    def test_cumulative_simpson_matches_scipy(self, w1, w2, F, extrema):
        from scipy.integrate import cumulative_simpson, simpson
        t = np.linspace(-w1, w2, tor._SOLVE_GRID)
        beta = float(sf.psi_inv(sf.psi(w2) - sf.psi(-w1)))
        s = np.linspace(min(beta, 0.0) - 14.0, beta, tor._SOLVE_GRID)
        for x, y in ((t, F(t) * np.exp(-t * t / 2.0)), (t, np.exp(t * t / 2.0)),
                     (s, np.exp(-s * s / 2.0)), (s, np.exp(s * s / 2.0)),
                     (t[:-1], np.exp(t[:-1] ** 2 / 2.0))):  # an odd interval count
            ours = tor._cumulative_simpson(y, x)
            np.testing.assert_allclose(ours, cumulative_simpson(y, x=x, initial=0.0),
                                       rtol=1e-13, atol=0.0)
            if len(x) % 2:
                assert ours[-1] == pytest.approx(simpson(y, x=x), rel=1e-13)


class TestSaintVenantRoute:
    def test_interval_below_halfspace_of_equal_measure(self):
        # F = 1 comparison: among sets of fixed measure the half-space
        # maximizes the torsion
        for w in (0.5, 1.0, 2.0):
            a = float(sf.phi(w))
            interval = tor.torsion_radial(1, w, ONES)
            half = tor.torsion_halfspace(a)
            assert interval.value <= half.value * (1 + 1e-9)

    def test_disc_below_halfspace(self):
        for R in (0.5, 1.0, 2.0):
            a = oracles.ball_measure(R, 2)
            disc = tor.torsion_radial(2, R, ONES)
            half = tor.torsion_halfspace(a)
            assert disc.value <= half.value * (1 + 1e-9)
