"""Inequality-verification layer: transforms, concavity scans, moment checks."""

import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscvx import body as bd
from gausscvx import cli
from gausscvx import cylinder as cyl
from gausscvx import gaussmoments as gm
from gausscvx import specfun as sf
from gausscvx import torsion as tor
from gausscvx import verify as vf

import oracles

ROOT = Path(__file__).resolve().parents[1]


def _poly_strategy(n=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, 2) for _ in range(n)])
    return st.dictionaries(exps, st.floats(-3, 3), min_size=1,
                           max_size=max_terms).map(
        lambda d: vf.MultiPoly(n, dict(d)))


class TestMultiPoly:
    def test_eval_matches_terms(self):
        f = (vf.MultiPoly.coord(2, 0) * vf.MultiPoly.coord(2, 0)
             + vf.MultiPoly.coord(2, 1) * 3.0 + 1.5)
        x = np.array([2.0, -1.0])
        assert f(x) == pytest.approx(4.0 - 3.0 + 1.5)

    @settings(max_examples=60, deadline=None)
    @given(f=_poly_strategy(), g=_poly_strategy())
    def test_product_rule_of_evaluation(self, f, g):
        x = np.array([0.7, -1.3])
        assert (f * g)(x) == pytest.approx(f(x) * g(x), rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(f=_poly_strategy(), g=_poly_strategy())
    def test_diff_product_rule(self, f, g):
        x = np.array([0.4, 0.9])
        lhs = (f * g).diff(0)(x)
        rhs = f.diff(0)(x) * g(x) + f(x) * g.diff(0)(x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_calculus_helpers(self):
        # u = x0^2 x1: grad = (2 x0 x1, x0^2), Lap = 2 x1,
        # euler = 3u, |Hess|^2 = 4 x1^2 + 8 x0^2
        u = vf.MultiPoly.coord(2, 0) * vf.MultiPoly.coord(2, 0) \
            * vf.MultiPoly.coord(2, 1)
        x = np.array([1.3, -0.8])
        assert u.grad_sq()(x) == pytest.approx((2 * 1.3 * -0.8)**2 + 1.3**4)
        assert u.laplacian()(x) == pytest.approx(2 * -0.8)
        assert u.euler()(x) == pytest.approx(3 * u(x))
        assert u.hessian_frob_sq()(x) == pytest.approx(
            4 * 0.8**2 + 8 * 1.3**2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hessian_frob_sq_terms_match_second_derivatives(self, n):
        u = vf.random_even_quartic(n, np.random.default_rng(n))
        expected = vf.MultiPoly(n, {})
        for i in range(n):
            for j in range(n):
                d = u.diff(i).diff(j)
                expected = expected + d * d
        assert u.hessian_frob_sq().terms == expected.terms

    def test_parity(self):
        assert vf.MultiPoly.abs_sq(3).is_even
        assert not vf.MultiPoly.coord(3, 1).is_even
        assert (vf.MultiPoly.coord(2, 0) * vf.MultiPoly.coord(2, 1)).is_even

    def test_to_ray_matches_direct(self):
        # ray coefficients against pointwise values, for coordinate monomials
        # and for |x| and gauge factors on a box, where ||x||_K is not |x|/R
        x0 = vf.MultiPoly.coord(2, 0)
        f = (vf.MultiPoly.abs_sq(2) * vf.MultiPoly.abs_sq(2)
             + x0 * vf.MultiPoly.coord(2, 1) + 2.0)
        g = (f + x0 * gm.RayPolynomial.abs_x_power(3) * 0.5
             - gm.RayPolynomial.gauge_power(2) * 1.5
             + x0 * gm.RayPolynomial.gauge_power(1) * gm.RayPolynomial.abs_x_power(1))
        K = bd.box([0.6, 1.3], 2)
        dirs = np.array([[0.6, 0.8], [1.0, 0.0], [-0.28, -0.96]])
        rho = bd.radial(K, dirs)
        A, B = f.coeffs(dirs, rho), g.coeffs(dirs, rho)
        for i, th in enumerate(dirs):
            for t in (0.5, 1.7):
                x = t * th
                r, gK = np.linalg.norm(x), bd.gauge(K, x)
                direct_g = f(x) + 0.5 * x[0] * r**3 - 1.5 * gK**2 + x[0] * gK * r
                for C, direct in ((A, f(x)), (B, direct_g)):
                    ray = sum(C[i, j] * t**j for j in range(C.shape[1]))
                    assert ray == pytest.approx(direct, rel=1e-12)
        with pytest.raises(vf.VerificationError):
            (x0 * gm.RayPolynomial.gauge_power(1)).diff(0)

    def test_random_even_quartic_is_even_quartic(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            f = vf.random_even_quartic(n, rng)
            assert f.is_even
            assert f.degree == 4
            x = rng.normal(size=n)
            assert f(x) == pytest.approx(f(-x), rel=1e-12)


class TestMeasureTransforms:
    @pytest.mark.parametrize("spec", ["psi_inv", "phi_inv", "power:0.5",
                                      "power:0", "conjecture_F", "weak_F",
                                      "bad_func"])
    def test_slope_consistent_with_value(self, spec):
        tr = vf.measure_transform(spec, 2)
        for a in (0.3, 0.55, 0.8):
            fd = oracles.fd_slope(tr, a, h=1e-6)
            assert tr.slope(a) == pytest.approx(fd, rel=5e-5)

    def test_power_limit_is_log(self):
        tr = vf.measure_transform("power:0", 2)
        assert tr(0.4) == pytest.approx(np.log(0.4))

    def test_negative_power_orientation(self):
        # p < 0 flips sign so the transform stays increasing
        tr = vf.measure_transform("power:-1", 2)
        assert tr(0.6) > tr(0.4)
        assert tr.slope(0.5) > 0

    def test_object_passthrough(self):
        obj = cyl.conjecture_transform(2)
        assert vf.measure_transform(obj, 2) is obj

    def test_unknown_rejected(self):
        with pytest.raises(vf.VerificationError):
            vf.measure_transform("sorcery", 2)


# (F(a), F'(a)) at PINNED_A for each transform and n, frozen bit for bit
# from the transforms as they stood before they became one protocol
PINNED_A = (1e-6, 0.3, 0.5, 0.9, 1 - 1e-9)
PINNED_TRANSFORMS = {
    ("psi_inv", 2): [
        (-4.753424308822899, 202088.27038913674),
        (-0.5244005127080407, 2.876103659264292),
        (0.0, 2.5066282746310002),
        (1.2815515655446006, 5.698059856117005),
        (5.997807019601638, 162434118.9035049),
    ],
    ("psi_inv", 3): [
        (-4.753424308822899, 202088.27038913674),
        (-0.5244005127080407, 2.876103659264292),
        (0.0, 2.5066282746310002),
        (1.2815515655446006, 5.698059856117005),
        (5.997807019601638, 162434118.9035049),
    ],
    ("phi_inv", 2): [
        (1.2533141373158282e-06, 1.2533141373164844),
        (0.3853204664075676, 1.3498956370335382),
        (0.6744897501960817, 1.573432540280546),
        (1.6448536269514726, 4.847984636350786),
        (6.109410209383451, 159609043.6589061),
    ],
    ("phi_inv", 3): [
        (1.2533141373158282e-06, 1.2533141373164844),
        (0.3853204664075676, 1.3498956370335382),
        (0.6744897501960817, 1.573432540280546),
        (1.6448536269514726, 4.847984636350786),
        (6.109410209383451, 159609043.6589061),
    ],
    ("power:0.5", 2): [
        (0.001, 500.0),
        (0.5477225575051661, 0.9128709291752769),
        (0.7071067811865476, 0.7071067811865476),
        (0.9486832980505138, 0.5270462766947299),
        (0.9999999995, 0.50000000025),
    ],
    ("power:0.5", 3): [
        (0.001, 500.0),
        (0.5477225575051661, 0.9128709291752769),
        (0.7071067811865476, 0.7071067811865476),
        (0.9486832980505138, 0.5270462766947299),
        (0.9999999995, 0.50000000025),
    ],
    ("power:-1", 2): [
        (-1000000.0, 1000000000000.0001),
        (-3.3333333333333335, 11.111111111111112),
        (-2.0, 4.0),
        (-1.1111111111111112, 1.2345679012345678),
        (-1.000000001, 1.000000002),
    ],
    ("power:-1", 3): [
        (-1000000.0, 1000000000000.0001),
        (-3.3333333333333335, 11.111111111111112),
        (-2.0, 4.0),
        (-1.1111111111111112, 1.2345679012345678),
        (-1.000000001, 1.000000002),
    ],
    ("conjecture_F", 2): [
        (0.0008325548192964634, 416.2776177871099),
        (0.4972205061816225, 0.995745595396944),
        (0.6931471805599453, 1.0),
        (1.263340953665392, 2.743310024696357),
        (3.7685773093810697, 89523029.34007026),
    ],
    ("conjecture_F", 3): [
        (0.008993378524807015, 2997.9378261602096),
        (0.6900606537211152, 1.0374889631426056),
        (0.8895907945344113, 1.0),
        (1.4460175242880207, 2.6408305790530124),
        (3.8461709892384315, 85739698.69991419),
    ],
    ("weak_F", 2): [
        (0.0011968446698023458, 598.4224346382914),
        (0.673974424540045, 1.192765010449827),
        (0.8899224661660413, 1.0),
        (1.2761668629747727, 1.0239854863209934),
        (1.3912932092812302, 2.786270353448926),
    ],
    ("weak_F", 3): [
        (0.015140080246115708, 5046.774772235182),
        (1.0570286640584208, 1.2914974229144631),
        (1.2814138063635612, 1.0),
        (1.6454737805144422, 0.9075608335200014),
        (1.7447909587175934, 2.1951532521431716),
    ],
    ("bad_func", 2): [
        (0.0014142139159266773, 707.1073115171121),
        (0.8446004309005914, 1.6914168834227958),
        (1.1774100225154747, 1.6986436005760381),
        (2.160187311473062, 4.8479846363507875),
        (6.62474389390504, 159609043.65890613),
    ],
    ("bad_func", 3): [
        (0.015550256821070283, 5183.669630028475),
        (1.1931689918177055, 1.7938997876484504),
        (1.5381722544550525, 1.7290784301113322),
        (2.523109923758285, 4.8479846363507875),
        (6.987666506190262, 159609043.65890613),
    ],
}


class TestTransformProtocol:
    @pytest.mark.parametrize("spec,n", list(PINNED_TRANSFORMS))
    def test_pinned_values_and_name(self, spec, n):
        tr = vf.measure_transform(spec, n)
        assert tr.name == spec
        got = [(float(tr(a)), float(tr.slope(a))) for a in PINNED_A]
        assert got == PINNED_TRANSFORMS[spec, n]

    @pytest.mark.parametrize("name,builder", [
        ("conjecture_F", cyl.conjecture_transform),
        ("weak_F", cyl.weak_transform), ("bad_func", cyl.bad_transform)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_cylinder_names_give_the_cached_object(self, name, builder, n):
        assert vf.measure_transform(name, n) is builder(n)

    def test_every_named_transform_resolves(self):
        spec = importlib.util.spec_from_file_location(
            "hunt_counterexamples", ROOT / "scripts" / "hunt_counterexamples.py")
        hunt = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(hunt)
        # the concavity and counterexample rows close over their transform
        rows = {inspect.getclosurevars(row).nonlocals.get("transform")
                for row in cli.CHECKS.values()} - {None}
        assert rows == {"psi_inv", "conjecture_F", "weak_F", "phi_inv", "bad_func"}
        for name in rows | set(hunt.SEARCH_TRANSFORMS):
            assert vf.measure_transform(name, 2).name == name


def _straddling_grids(tr):
    """Measure grids for ``value_and_slope``: every break with its two
    neighbouring doubles, a spread over (0, 1), and a grid inside one piece
    of a piecewise transform, which leaves its other pieces without a point."""
    breaks = np.asarray(getattr(tr, "breaks", ()), dtype=float)
    near = np.concatenate([breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)])
    spread = np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 40), [1 - 1e-6, 1 - 1e-9]])
    return [np.sort(np.concatenate([near, spread])), np.linspace(0.3, 0.35, 20),
            near, np.array([0.42])]


class TestValueAndSlope:
    @pytest.mark.parametrize("spec", [*vf.TRANSFORMS, "power:-1", "power:0",
                                      "power:0.5", "power:2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_call_and_slope_bit_for_bit(self, spec, n):
        tr = vf.measure_transform(spec, n)
        for a in (*PINNED_A, *getattr(tr, "breaks", ())):
            assert tr.value_and_slope(a) == (tr(a), tr.slope(a)), (spec, n, a)
        for grid in _straddling_grids(tr):
            F, slope = tr.value_and_slope(grid)
            assert np.array_equal(F, tr(grid)), (spec, n)
            assert np.array_equal(slope, tr.slope(grid)), (spec, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_radius_inversion_per_piece_with_measures(self, n, monkeypatch):
        # a conjecture_F concavity check inverts R_k once per piece that
        # holds path measures, for F and F' together, and never on a piece
        # without one; the ball paths stay on one piece or cross the break
        tr = cyl.conjecture_transform(n)
        calls = []
        inverse = cyl.radius_of_measure

        def counted(k, a):
            calls.append((k, np.size(a)))
            return inverse(k, a)

        monkeypatch.setattr(cyl, "radius_of_measure", counted)
        for r1, r2 in ((0.7, 1.5), (2.6, 3.6)):
            calls.clear()
            rep = vf.concavity_check("conjecture_F", bd.ball(r1, n), bd.ball(r2, n), n_t=9)
            pieces = np.unique(np.searchsorted(tr.breaks, rep.measures, side="right"))
            assert [k for k, _ in calls] == [tr.ks[i] for i in pieces], (r1, r2)
            assert sum(size for _, size in calls) == len(rep.measures)
        assert len(pieces) == 2


class TestConcavityCheck:
    def test_gaussian_interpolation_concave_quantile(self):
        K = bd.ball(0.7, 2)
        L = bd.ball(1.5, 2)
        rep = vf.concavity_check("psi_inv", K, L)
        assert rep.verdict == "concave_within_tol"
        assert rep.max_second_diff <= rep.budget.max()

    def test_equal_bodies_are_affine(self):
        K = bd.ball(1.0, 2)
        rep = vf.concavity_check("psi_inv", K, K)
        assert abs(rep.max_second_diff) <= 1e-12

    def test_one_stretch_path_affine_under_conjecture(self):
        # dilating a ball traverses a single active index, where the
        # transform is built to be exactly affine in the interpolation knob
        K = bd.ball(0.4, 2)
        L = bd.ball(2.2, 2)
        rep = vf.concavity_check("conjecture_F", K, L)
        assert rep.verdict == "concave_within_tol"
        assert abs(rep.max_second_diff) <= rep.budget.max()

    def test_violation_detected_for_wrong_transform(self):
        # phi_inv treats the even-symmetric width as a quantile; ball
        # dilation paths break its concavity by a macroscopic margin
        K = bd.ball(0.3, 2)
        L = bd.ball(2.0, 2)
        rep = vf.concavity_check("phi_inv", K, L)
        assert rep.verdict == "violation"
        assert rep.max_second_diff > 5 * rep.budget.max()

    def test_grid_validation(self):
        K = bd.ball(1.0, 2)
        with pytest.raises(vf.VerificationError):
            vf.concavity_check("psi_inv", K, K, n_t=5)

    @pytest.mark.parametrize("worst, verdict", [
        (0.5, "concave_within_tol"), (1.0, "concave_within_tol"),
        (1.5, "inconclusive"), (5.0, "inconclusive"), (5.5, "violation")])
    def test_verdict_bands(self, worst, verdict):
        # worst = the largest second difference in units of its budget:
        # at most 1 passes, above 5 is a violation, in between undecided
        budget = np.array([2e-3, 1e-3, 4e-3])
        d2 = np.array([-1e-3, worst * 1e-3, 0.0])
        assert vf._verdict(d2, budget) == verdict


class TestMaxPower:
    def test_ball_pair_reaches_dimension_power(self):
        br = vf.max_power(bd.ball(0.6, 2), bd.ball(1.5, 2))
        assert br.lo >= 0.5 - 1e-8
        assert br.width <= 1e-6 or br.hi >= 8.0

    def test_bracket_invariant(self):
        br = vf.max_power(bd.box((0.7, 1.2), 2), bd.box((1.3, 0.5), 2))
        assert br.lo <= br.value <= br.hi
        assert br.width == pytest.approx(br.hi - br.lo)

    def test_monotone_under_grid_refinement(self):
        # a finer t-grid can only reveal more violations, so the bracket
        # cannot move up
        K, L = bd.ball(0.5, 2), bd.strip(0.9, 2)
        coarse = vf.max_power(K, L, n_t=17)
        fine = vf.max_power(K, L, n_t=33)
        assert fine.lo <= coarse.lo + 1e-9


class TestGaussMain:
    def test_cylinder_equality(self):
        rule = gm.sphere_rule(3, 32768)
        for k, a in [(1, 0.5), (2, 0.3), (3, 0.8)]:
            R = float(cyl.radius_of_measure(k, a))
            K = bd.cylinder(k, R, 3)
            out = vf.gauss_main_bound(K, rule=rule)
            assert out["bound"] == pytest.approx(cyl.ps_cylinder(k, a), abs=2e-6)

    def test_sweep_never_improves_on_stationary_alpha(self):
        for K in (bd.ball(0.9, 2), bd.box((0.8, 1.1), 2)):
            out = vf.gauss_main_bound(K)
            assert out["components"]["sweep_max"] <= out["bound"] + 1e-9

    def test_bound_not_above_max_power_on_dilation(self):
        # the bound certifies a concavity power for K along its own
        # dilation path, so it cannot exceed the bracketed maximum
        K = bd.box((0.8, 1.1), 2)
        out = vf.gauss_main_bound(K)
        br = vf.max_power(K, bd.dilate(K, 1.6))
        assert out["bound"] <= br.hi + 1e-6


class TestCorT1:
    def test_ball_value_matches_radial_route(self):
        K = bd.ball(1.0, 2)
        out = vf.corT1_bound(K)
        T = tor.torsion_radial(2, 1.0, lambda r: 1.0).value
        b = gm.moments_bundle(K)
        expected = 2.0 * T + 1.0 / (2.0 - b.m2.value)
        assert out["value"] == pytest.approx(expected, rel=1e-8)

    def test_gauge_route_on_nonradial_body(self):
        K = bd.box((0.9, 1.2), 2)
        out = vf.corT1_bound(K)
        assert out["value"] > 0
        assert out["torsion_kind"] == "gauge_lower"


class TestMinkowskiFirst:
    def test_equal_bodies_slack_vanishes(self):
        K = bd.ball(1.1, 2)
        out = vf.minkowski_first_check(K, K)
        assert abs(out["slack"]) <= max(1e-10, 3 * out["lhs_err"])

    def test_weak_form_dominated(self):
        K, L = bd.ball(0.9, 2), bd.box((0.7, 1.0), 2)
        out = vf.minkowski_first_check(K, L)
        assert out["rhs_weak"] <= out["rhs"] + 1e-12
        assert out["slack"] >= -(3 * out["lhs_err"] + 1e-8)

    def test_unbounded_added_body_is_not_a_violation(self):
        # ball + eps strip is a strip of half-width 1 + eps w for eps > 0,
        # so gamma jumps at 0+ and the right derivative is +inf; a central
        # difference through the strip 1 - eps w would read a slope
        # below rhs
        out = vf.minkowski_first_check(bd.ball(1.0, 2), bd.strip(0.5, 2))
        assert out["lhs"] == np.inf
        assert out["slack"] > 0


class TestBrascampLieb:
    def test_gaussian_variance_bound(self):
        K = bd.ball(1.2, 2)
        f = vf.MultiPoly.coord(2, 0) + vf.MultiPoly.abs_sq(2) * 0.3
        out = vf.brascamp_lieb_check(K, f, mode="gaussian")
        assert out["slack"] >= -(out["err"] + 1e-10)

    def test_even_half_requires_even(self):
        K = bd.ball(1.0, 2)
        with pytest.raises(vf.VerificationError):
            vf.brascamp_lieb_check(K, vf.MultiPoly.coord(2, 0),
                                   mode="gaussian_even_half")

    def test_axis_equality_on_cylinder(self):
        # f = x_n on a cylinder: the free coordinate sees a pure Gaussian,
        # Var f = E|grad f|^2 exactly
        K = bd.cylinder(2, 0.9, 3)
        f = vf.MultiPoly.coord(3, 2)
        out = vf.brascamp_lieb_check(K, f, mode="gaussian")
        assert abs(out["slack"]) <= out["err"] + 1e-6

    def test_mode_validation(self):
        K = bd.ball(1.0, 2)
        with pytest.raises(vf.VerificationError):
            vf.brascamp_lieb_check(K, vf.MultiPoly.coord(2, 0), mode="exotic")


class TestPropGauss:
    def test_quadratic_potential_is_equality(self):
        u = vf.MultiPoly.abs_sq(2) * 0.5
        for K in (bd.ball(1.0, 2), bd.box((0.8, 1.2), 2)):
            out = vf.propgauss_check(K, u)
            assert abs(out["slack"]) <= 1e-9

    def test_random_quartics_nonnegative(self):
        rng = np.random.default_rng(19)
        K = bd.ball(1.1, 2)
        for _ in range(5):
            u = vf.random_even_quartic(2, rng)
            out = vf.propgauss_check(K, u)
            assert out["slack"] >= -(out["err"] + 1e-8)

    def test_odd_potential_rejected(self):
        with pytest.raises(vf.VerificationError):
            vf.propgauss_check(bd.ball(1.0, 2), vf.MultiPoly.coord(2, 0))


class TestMomentSuite:
    def test_margins_nonnegative_on_catalog(self):
        for K in (bd.ball(1.0, 2), bd.strip(0.8, 2), bd.box((0.9, 1.3), 2)):
            out = vf.moment_inequality_suite(K, eta_shifts=(0.4,))
            for key, m in out["margins"].items():
                assert m >= -1e-8, (K.label, key)
            for row in out["shifted"]:
                assert row["margin"] >= -1e-8

    def test_alpha_beta_normalization(self):
        out = vf.moment_inequality_suite(bd.ball(1.4, 2), eta_shifts=())
        assert out["alpha"] <= 1.0 + 1e-8
        assert out["beta"] >= -1.0 - 1e-8


# bodies of the benchmark's moment suite, one of each kind per dimension
# (lp_ball(1.3, 1.5) is the one whose translates move the most), and its rules
SUITE_RULES = {2: 256, 3: 512, 4: 1024}
SUITE_BODIES = [
    body for n in (2, 3, 4) for body in (
        bd.box([0.7, 1.0, 0.9, 1.1][:n], n), bd.ellipsoid([0.8, 1.1, 1.4, 1.7][:n], n),
        bd.cylinder(n - 1, 1.0, n), bd.lp_ball(1.3, 1.5, n))]


def _one_by_one_suite(K, rule):
    """The suite's values from one-integrand ``integrals`` calls on fresh
    samples of K (its degree-4 table built first) and of each translate:
    the reference the suite's one batch per sample replaces."""
    P = gm.RayPolynomial

    def mean(s, f, a):
        return s.integrals(f)[0].over(a)

    s = gm.polar_sample(K, rule)
    m4 = s.integrals(P.abs_x_power(4))[0]
    a = s.integrals(P.constant(1.0))[0]
    m2, m4 = mean(s, P.abs_x_power(2), a), m4.over(a)
    ref = {"a": a.value, "m2": m2.value, "m4": m4.value, "err": m2.err + m4.err + a.err,
           "dir2": max(mean(s, P.dot_power(e, 2), a).value for e in np.eye(K.n)),
           "shifted": []}
    theta = np.eye(K.n)[0]
    r = bd.inradius(K)
    for frac in (0.3, 0.6, 0.85):
        sT = gm.polar_sample(bd.translate(K, frac * r * theta), rule)
        at = sT.integrals(P.constant(1.0))[0]
        d1, d2 = (mean(sT, P.dot_power(theta, j), at).value for j in (1, 2))
        ref["shifted"].append({"a": at.value, "dir1": d1, "dir2": d2,
                               "margin": 1.0 - d2 - float(sf.eta(at.value)) * d1 * d1})
    return ref


class TestBatchedMoments:
    @pytest.mark.parametrize("K", SUITE_BODIES, ids=lambda K: f"{K.label}-n{K.n}")
    def test_suite_matches_bundle_reference(self, K):
        # K's integrals meet the same degree-4 table as the reference's, so
        # they are bit for bit; each translate's table is degree 2, where
        # the reference's grows from degree 0
        rule = gm.sphere_rule(K.n, SUITE_RULES[K.n])
        got = vf.moment_inequality_suite(K, rule)
        ref = _one_by_one_suite(K, rule)
        assert (got["a"], got["m2"], got["m4"], got["err"]) == \
            (ref["a"], ref["m2"], ref["m4"], ref["err"])
        assert got["margins"]["dir2"] == 1.0 - ref["dir2"]
        assert len(got["shifted"]) == 3
        for row, want in zip(got["shifted"], ref["shifted"]):
            for key in ("a", "dir1", "dir2"):
                assert row[key] == pytest.approx(want[key], rel=2e-15, abs=0), key
            assert row["margin"] == pytest.approx(want["margin"], rel=0, abs=2e-15)

    @pytest.mark.parametrize("K", [K for K in SUITE_BODIES if bd.round_cylinder(K) is None],
                             ids=lambda K: f"{K.label}-n{K.n}")
    def test_gauge_torsion_matches_bundle_reference(self, K):
        for F in (gm.RayPolynomial.constant(1.0),
                  gm.RayPolynomial.constant(2.0) - gm.RayPolynomial.gauge_power(2) * 0.5):
            got = tor.torsion_gauge_lower(K, F)
            # a sample that already holds a degree-4 table
            s = gm.polar_sample(K)
            s.integrals(gm.RayPolynomial.abs_x_power(4))
            ref = tor.torsion_gauge_lower(K, F, sample=s)
            assert got.value == pytest.approx(ref.value, rel=2e-15, abs=0)
            # the err is a half-rule difference at rounding level, scaled
            assert got.err == pytest.approx(ref.err, rel=0, abs=5e-16)


class TestAlphaHalfspace:
    def test_dual_routes_agree(self):
        for a in (0.2, 0.35, 0.7, 0.9):
            out = vf.alpha_halfspace(a)
            assert abs(out["diff"]) <= 1e-10
            assert out["quadrature"] == pytest.approx(-float(sf.eta(a)),
                                                      abs=1e-10)

    def test_singular_point_guarded(self):
        # both routes hit 0/0 at a = 1/2; the check refuses to silently
        # report a garbage quotient there
        with pytest.raises(vf.VerificationError):
            vf.alpha_halfspace(0.5)

    def test_sign_change_across_half(self):
        assert vf.alpha_halfspace(0.3)["closed"] > 0
        assert vf.alpha_halfspace(0.7)["closed"] < 0


class TestSInequality:
    def test_unit_time_margin_zero(self):
        out = vf.s_inequality_check(bd.ball(1.0, 2))
        first = out["rows"][0]
        assert first["t"] == 1.0
        assert abs(first["margin"]) <= 1e-12

    def test_strip_margins_nonnegative(self):
        out = vf.s_inequality_check(bd.box((0.9, 1.2), 2))
        for row in out["rows"]:
            assert row["margin"] >= -1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_match_scaled_samples(self, n):
        # each tK is one J row on K's sample scaled by t: bit for bit the
        # constant 1 integrated on a full PolarSample of t rho
        K = bd.box([0.8 + 0.1 * i for i in range(n)], n)
        rule = gm.sphere_rule(n, 256)
        s = gm.polar_sample(K, rule)
        out = vf.s_inequality_check(K, rule)
        assert out["a"] == out["rows"][0]["dilated"]
        for row in out["rows"]:
            est = gm.PolarSample(K, s.rule, row["t"] * s.rho).integrals(
                gm.RayPolynomial.constant(1.0))[0]
            assert (row["dilated"], row["err"]) == (est.value, est.err), row["t"]


class TestCounterexampleSearch:
    def test_unreproduced_violation_is_unconfirmed(self, monkeypatch):
        # a violation on the coarse rule that does not reproduce at twice
        # its size is listed, not reported as a witness, and the scan goes on
        coarse = gm.sphere_rule(2, 64)
        sizes = []

        def check(tr, K, L, n_t, rule):
            sizes.append(rule.size)
            return SimpleNamespace(
                verdict="violation" if rule is coarse else "concave_within_tol",
                second_diffs=np.zeros(n_t - 2), budget=np.ones(n_t - 2),
                t_grid=np.linspace(0.0, 1.0, n_t))

        monkeypatch.setattr(vf, "concavity_check", check)
        fam = [(bd.ball(0.5, 2), bd.ball(1.0, 2)), (bd.ball(0.3, 2), bd.ball(2.0, 2))]
        out = vf.counterexample_search("phi_inv", fam, n_t=9, rule=coarse)
        assert sizes == [64, 128, 64, 128]
        assert out["witness"] is None
        assert out["unconfirmed"] == [{"pair_index": i, "labels": (K.label, L.label)}
                                      for i, (K, L) in enumerate(fam)]
        assert out["pairs_scanned"] == 2
        assert out["message"] == "none found at this resolution"

    def test_phi_inv_witness_found_and_confirmed(self):
        fam = [(bd.ball(0.3, 2), bd.ball(2.0, 2)),
               (bd.ball(0.5, 2), bd.ball(1.0, 2))]
        out = vf.counterexample_search("phi_inv", fam)
        assert out["witness"] is not None
        w = out["witness"]
        assert w["second_diff"] > w["budget"]
        assert "confirmed" in out["message"]

    def test_true_transform_finds_nothing(self):
        fam = [(bd.ball(0.5, 2), bd.ball(1.4, 2)),
               (bd.strip(0.7, 2), bd.ball(1.0, 2))]
        out = vf.counterexample_search("psi_inv", fam)
        assert out["witness"] is None
        assert out["pairs_scanned"] == 2

    def test_witness_reproduces_at_doubled_resolution(self):
        fam = [(bd.ball(0.3, 2), bd.ball(2.0, 2))]
        out = vf.counterexample_search("phi_inv", fam, n_t=17)
        w = out["witness"]
        rep = vf.concavity_check("phi_inv", *fam[0], n_t=34)
        assert rep.verdict == "violation"
        assert rep.max_second_diff == pytest.approx(w["second_diff"], rel=0.75)


class TestRefusals:
    @pytest.mark.parametrize("call,match", [
        (lambda: vf.MultiPoly.coord(2, 2), "out of range"),
        (lambda: vf.brascamp_lieb_check(bd.ball(1.0, 2), vf.MultiPoly.abs_sq(3)),
         "dimension mismatch"),
        (lambda: vf.propgauss_check(bd.ball(1.0, 2), vf.MultiPoly.abs_sq(3)),
         "dimension mismatch"),
        (lambda: vf.brascamp_lieb_check(bd.translate(bd.ball(1.0, 2), [0.1, 0.0]),
                                        vf.MultiPoly.abs_sq(2), "gaussian_even_half"),
         "symmetric K"),
        (lambda: vf.alpha_halfspace(1.0), "0 < a < 1"),
        (lambda: vf.counterexample_search("phi_inv", []), "empty family"),
    ], ids=["coord", "brascamp-lieb-dim", "propgauss-dim", "even-half-translate",
            "alpha-halfspace-a=1", "empty-family"])
    def test_refused_request_is_verification_error(self, call, match):
        with pytest.raises(vf.VerificationError, match=match):
            call()
