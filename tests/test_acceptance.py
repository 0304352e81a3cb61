"""End-to-end acceptance suite: one pass/fail line per numbered criterion.

Each test states its tolerance inline and is independent of the others.
The whole file is budgeted to run in well under five minutes single-threaded.
"""

import numpy as np
import pytest

from gausscvx import body as bd
from gausscvx import cylinder as cyl
from gausscvx import gaussmoments as gm
from gausscvx import specfun as sf
from gausscvx import torsion as tor
from gausscvx import verify as vf


def _mp(n):
    return {"x": [vf.MultiPoly.coord(n, i) for i in range(n)],
            "r2": vf.MultiPoly.abs_sq(n),
            "one": vf.MultiPoly.constant(n, 1.0)}


def test_c01_kernel_recurrence_and_inverse_round_trips():
    pairs = [(p, R) for p in range(6) for R in (0.25, 0.7, 1.3, 2.4, 4.0)]
    assert len(pairs) == 30
    for p, R in pairs:
        lhs = sf.j_lower(p + 2, R)
        rhs = (p + 1) * sf.j_lower(p, R) - sf.g(p + 1, R)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
    a = np.linspace(1e-6, 1.0 - 1e-6, 257)
    assert np.max(np.abs(sf.psi(sf.psi_inv(a)) - a)) <= 1e-12
    assert np.max(np.abs(sf.phi(sf.phi_inv(a)) - a)) <= 1e-12


def test_c02_one_flat_factor_radius_is_even_quantile():
    a = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(cyl.radius_of_measure(1, a) - sf.phi_inv(a))) <= 1e-10


def test_c03_cylinder_power_calibration():
    for k in (2, 3, 4, 5):
        a_star = float(cyl.measure_of_radius(k, np.sqrt(k - 1.0)))
        assert abs(cyl.ps_cylinder(k, a_star) - 1.0) <= 1e-9
    rng = np.random.default_rng(314159)
    ks = rng.integers(1, 6, size=1000)
    a = rng.uniform(0.001, 0.999, size=1000)
    for k in (1, 2, 3, 4, 5):
        sel = ks == k
        got = cyl.ps_cylinder(k, a[sel])
        want = 1.0 + a[sel] * cyl.phi_k(k, a[sel])
        assert np.max(np.abs(got - want)) <= 1e-9


def test_c04_variance_bound_equality_on_round_cylinders():
    rule = gm.sphere_rule(3, 32768)
    for k in (1, 2, 3):
        for a in (0.2, 0.5, 0.8):
            R = float(cyl.radius_of_measure(k, a))
            out = vf.gauss_main_bound(bd.cylinder(k, R, 3), rule=rule)
            assert abs(out["bound"] - cyl.ps_cylinder(k, a)) <= 1e-6, (k, a)


def test_c05_last_touch_lower_bound_equality_on_cylinders():
    for k in (1, 2, 3):
        n = 2 if k == 1 else 3
        rule = gm.sphere_rule(n, 32768 if n == 3 else None)
        for R in (0.5, 1.0, 2.0):
            K = bd.cylinder(k, R, n)
            F_ray = (gm.RayPolynomial.constant(float(k))
                     + gm.RayPolynomial.gauge_power(2) * (-R * R))
            lower = tor.torsion_gauge_lower(
                K, F_ray, sample=gm.polar_sample(K, rule)).value
            exact = tor.torsion_radial(k, R, lambda r: k - r * r).value
            assert abs(lower - exact) <= 1e-6 * abs(exact), (k, R)


def test_c06_torsion_maximized_by_halfspace_of_equal_measure():
    cases = ([(1, w) for w in (0.5, 1.0, 2.0)]        # strip section
             + [(2, R) for R in (0.5, 1.0, 2.0)]      # disc section
             + [(2, R) for R in (0.7, 1.5, 2.5)])     # cylinder in n=3
    for k, R in cases:
        a = float(cyl.measure_of_radius(k, R))
        T_K = tor.torsion_radial(k, R, lambda r: 1.0).value
        T_H = tor.torsion_halfspace(a).value
        assert T_K <= T_H * (1.0 + 1e-6), (k, R)


# last crossing of phi_1 and phi_2 for n = 2, solved with mpmath at 40 digits
# from the closed forms phi_1 = sqrt(pi/2) R e^{R^2/2}, R = Phi^{-1}((1+a)/2),
# and phi_2 = (R^2 - 1) / (R^2 (1 - a)), R^2 = -2 ln(1 - a); no gausscvx code
ALPHA1_N2 = 0.98469418988877910


def test_c07_log_slope_crossing_location():
    table = cyl.partition(2)
    alpha1 = table.crossings_phi[-1][0]
    assert 0.90 < alpha1 < 1.0
    assert abs(alpha1 - ALPHA1_N2) <= 1e-9, alpha1
    # alpha_1 is the last crossing: the round factor's log-slope is the
    # smaller one up to it, the flat factor's from it on, also at measures
    # 1 - 10^-j past the end of the grid
    grid = table.a[table.a >= 0.95]
    before = grid[grid < alpha1]
    assert np.all(cyl.phi_k(1, before) > cyl.phi_k(2, before)), (
        f"phi_1 <= phi_2 below the last crossing {alpha1:.10f}")
    after = np.concatenate([grid[grid >= alpha1],
                            [1.0 - 10.0 ** -j for j in range(3, 16)]])
    assert np.all(cyl.phi_k(1, after) <= cyl.phi_k(2, after)), (
        f"phi_1 > phi_2 above the last crossing {alpha1:.10f}")


def test_c08_perimeter_and_log_slope_argmins_differ_somewhere():
    table = cyl.partition(2)
    assert bool(np.any(table.mismatch))


EHRHARD_PAIRS = [
    (lambda: bd.strip(0.8, 2), lambda: bd.ball(1.0, 2)),
    (lambda: bd.ball(0.6, 2), lambda: bd.ball(1.5, 2)),
    (lambda: bd.box((0.7, 1.2), 2), lambda: bd.box((1.3, 0.5), 2)),
    (lambda: bd.box((0.9, 0.9), 2), lambda: bd.ball(1.1, 2)),
    (lambda: bd.ellipsoid((0.8, 1.4), 2), lambda: bd.ellipsoid((1.6, 2.8), 2)),
    (lambda: bd.strip(0.7, 3), lambda: bd.cylinder(2, 1.0, 3)),
    (lambda: bd.cylinder(2, 0.9, 3), lambda: bd.ball(1.2, 3)),
    (lambda: bd.box((0.8, 1.0, 1.2), 3), lambda: bd.ball(0.9, 3)),
    (lambda: bd.box((0.8, 1.0, 1.2), 3), lambda: bd.box((1.1, 0.9, 0.7), 3)),
    (lambda: bd.strip(1.0, 3), lambda: bd.ball(0.8, 3)),
]


def test_c09_gaussian_quantile_concavity_along_interpolations():
    for mk, ml in EHRHARD_PAIRS:
        rep = vf.concavity_check("psi_inv", mk(), ml(), n_t=33)
        assert rep.verdict == "concave_within_tol", (rep.pair, rep.verdict)


def test_c10_certified_power_reaches_inverse_dimension():
    for mk, ml in EHRHARD_PAIRS:
        K, L = mk(), ml()
        br = vf.max_power(K, L, n_t=33)
        assert br.lo >= 1.0 / K.n - 1e-6, (K.label, L.label, br.lo)


def test_c11_moment_inequality_suite_across_catalog():
    bodies = [bd.ball(1.0, 2), bd.strip(0.8, 2), bd.box((0.9, 1.3), 2),
              bd.lp_ball(1.1, 3.0, 2), bd.ellipsoid((0.8, 1.5), 2),
              bd.cylinder(2, 0.9, 3)]
    for K in bodies:
        out = vf.moment_inequality_suite(K, eta_shifts=(0.4, 0.8))
        assert out["margins"]["cfm"] >= -1e-8, K.label
        assert out["m2"] <= K.n + 1e-8, K.label
        assert out["margins"]["dir2"] >= -1e-8, K.label
        assert out["alpha"] <= 1.0 + 1e-8, K.label
        assert out["beta"] >= -1.0 - 1e-8, K.label
        for row in out["shifted"]:
            assert row["margin"] >= -1e-8, (K.label, row["shift"])
    for a in (0.2, 0.3, 0.4, 0.6, 0.75, 0.9):
        assert abs(vf.alpha_halfspace(a)["diff"]) <= 1e-8


def test_c12_variance_gradient_bound():
    p2, p3 = _mp(2), _mp(3)
    cases = [
        (bd.ball(1.2, 2), p2["x"][0]),
        (bd.ball(1.2, 2), p2["x"][0] + p2["r2"] * 0.3),
        (bd.strip(0.8, 2), p2["x"][1]),
        (bd.strip(0.8, 2), p2["x"][0]),
        (bd.box((0.9, 1.3), 2), p2["x"][0] * p2["x"][1]),
        (bd.ellipsoid((0.8, 1.5), 2), p2["x"][0] * p2["x"][0]),
        (bd.lp_ball(1.1, 3.0, 2), p2["x"][0] + p2["x"][1]),
        (bd.ball(1.0, 3), p3["x"][2] + p3["x"][0] * p3["x"][0] * 0.1),
        (bd.cylinder(2, 0.9, 3), p3["x"][0] + p3["x"][1]),
        (bd.box((0.8, 1.0, 1.2), 3), p3["r2"] * 0.2),
    ]
    for K, f in cases:
        out = vf.brascamp_lieb_check(K, f, mode="gaussian")
        assert out["slack"] >= -(out["err"] + 1e-8), (K.label, out["slack"])
    even_cases = [
        (bd.ball(1.2, 2), p2["x"][0] * p2["x"][0]),
        (bd.box((0.9, 1.3), 2), p2["x"][0] * p2["x"][1]),
        (bd.strip(0.8, 2), p2["x"][0] * p2["x"][0]
         + p2["x"][1] * p2["x"][1] * 0.5),
        (bd.cylinder(2, 0.9, 3), p3["x"][2] * p3["x"][2]),
        (bd.ellipsoid((0.8, 1.5), 2), p2["r2"]),
    ]
    for K, f in even_cases:
        out = vf.brascamp_lieb_check(K, f, mode="gaussian_even_half")
        assert out["slack"] >= -(out["err"] + 1e-8), (K.label, out["slack"])
    # equality along the free axis of a cylinder
    axis = vf.brascamp_lieb_check(bd.cylinder(2, 0.9, 3), p3["x"][2],
                                  mode="gaussian")
    assert abs(axis["slack"]) <= 1e-6


def test_c13_interval_rearrangement_comparison():
    cases = [
        (0.8, 0.8, lambda t: np.ones_like(t), ()),
        (1.2, 0.5, lambda t: np.ones_like(t), ()),
        (0.9, 1.1, lambda t: 2.0 - t * t, (0.0,)),
        (1.0, 1.0, lambda t: 1.5 + 0.5 * np.sin(t), ()),
        (0.7, 1.3, lambda t: np.exp(-t), ()),
    ]
    for w1, w2, F, extrema in cases:
        rep = tor.talenti_1d(w1, w2, F, extrema=extrema)
        assert rep.max_gap <= 1e-8, (w1, w2, rep.max_gap)


def test_c14_first_variation_inequality_and_self_identity():
    pairs = [
        (bd.ball(0.9, 2), bd.ball(1.3, 2)),
        (bd.strip(0.8, 2), bd.ball(1.0, 2)),
        (bd.box((0.7, 1.2), 2), bd.box((1.0, 0.8), 2)),
        (bd.box((0.9, 0.9), 2), bd.ball(1.1, 2)),
        (bd.cylinder(2, 0.9, 3), bd.ball(1.2, 3)),
        (bd.ellipsoid((0.8, 1.4), 2), bd.ellipsoid((1.2, 2.1), 2)),
    ]
    for K, L in pairs:
        out = vf.minkowski_first_check(K, L)
        assert out["slack"] >= -(3.0 * out["lhs_err"] + 1e-8), (K.label,
                                                                L.label)
    for K in (bd.ball(1.1, 2), bd.box((0.8, 1.2), 2), bd.strip(0.9, 2)):
        est = gm.first_variation(gm.polar_sample(K), K)
        b = gm.moments_bundle(K)
        ident = b.a.value * (K.n - b.m2.value)
        assert abs(est.value - ident) <= 1e-5 * abs(ident), K.label


def test_c15_hessian_energy_identity_and_bound():
    u_quad2 = vf.MultiPoly.abs_sq(2) * 0.5
    u_quad3 = vf.MultiPoly.abs_sq(3) * 0.5
    five = [(bd.ball(1.0, 2), u_quad2), (bd.strip(0.8, 2), u_quad2),
            (bd.box((0.9, 1.3), 2), u_quad2),
            (bd.ellipsoid((0.8, 1.5), 2), u_quad2),
            (bd.cylinder(2, 0.9, 3), u_quad3)]
    for K, u in five:
        out = vf.propgauss_check(K, u)
        assert abs(out["slack"]) <= 1e-9, K.label
    rng = np.random.default_rng(2024)
    K = bd.ball(1.1, 2)
    for _ in range(10):
        u = vf.random_even_quartic(2, rng)
        out = vf.propgauss_check(K, u)
        assert out["slack"] >= -1e-8


def test_c16_quadrature_vs_monte_carlo_measures():
    bodies = [bd.ball(1.0, 3), bd.strip(0.8, 3), bd.cylinder(2, 0.9, 3),
              bd.box((0.8, 1.0, 1.3), 3), bd.lp_ball(1.2, 3.0, 3),
              bd.ellipsoid((0.7, 1.0, 1.5), 3)]
    for K in bodies:
        q = gm.measure(K)
        mc = gm.mc_measure(K, 1_000_000, seed=20240817)
        assert abs(q.value - mc.value) <= mc.err + 3.0 * q.err, K.label


def test_c17_counterexample_searches_run_and_witnesses_reproduce():
    for name in ("phi_inv", "bad_func"):
        fam = vf.counterexample_family(2, name)
        out = vf.counterexample_search(name, fam, n_t=33)
        assert out["message"]
        assert out["pairs_scanned"] >= 1
        if out["witness"] is not None:
            idx = out["witness"]["pair_index"]
            rep = vf.concavity_check(name, *fam[idx], n_t=66)
            assert rep.verdict == "violation", name
