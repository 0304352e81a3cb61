"""Moment layer: polar quadrature vs closed forms, error-bound honesty, MC."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscvx import body as bd
from gausscvx import gaussmoments as gm
from gausscvx import specfun as sf
from gausscvx import torsion as tor
from gausscvx import verify as vf

import oracles

ROOT = Path(__file__).resolve().parents[1]

CLOSED_MEASURE_CASES = [
    (lambda: bd.ball(1.1, 2), lambda: oracles.ball_measure(1.1, 2)),
    (lambda: bd.ball(0.9, 3), lambda: oracles.ball_measure(0.9, 3)),
    (lambda: bd.strip(0.7, 3), lambda: oracles.strip_measure(0.7)),
    (lambda: bd.cylinder(2, 0.9, 3), lambda: oracles.ball_measure(0.9, 2)),
    (lambda: bd.box((0.8, 1.3), 2), lambda: oracles.box_measure((0.8, 1.3))),
    (lambda: bd.box((0.8, 1.0, 1.3), 3),
     lambda: oracles.box_measure((0.8, 1.0, 1.3))),
]


class TestMeasure:
    def test_closed_forms(self):
        for mk, truth in CLOSED_MEASURE_CASES:
            est = gm.measure(mk())
            assert est.value == pytest.approx(truth(), abs=max(1e-9, 3 * est.err))

    def test_error_bound_honest(self):
        # the nested-rule error estimate must dominate the true error,
        # including for corner bodies where the integrand has kinks
        for mk, truth in CLOSED_MEASURE_CASES:
            est = gm.measure(mk())
            assert abs(est.value - truth()) <= 3.0 * est.err + 1e-12

    def test_rule_refinement_converges(self):
        K = bd.box((0.8, 1.3), 2)
        truth = oracles.box_measure((0.8, 1.3))
        errs = [abs(gm.measure(K, gm.sphere_rule(2, s)).value - truth)
                for s in (512, 2048, 8192)]
        assert errs[2] < errs[0]

    def test_monte_carlo_agrees(self):
        for mk, truth in CLOSED_MEASURE_CASES[:4]:
            K = mk()
            est = gm.mc_measure(K, 200_000, seed=5)
            assert est.method == "monte_carlo"
            assert abs(est.value - truth()) <= est.err  # err is already 3 sigma

    def test_mc_err_covers_all_or_no_hits(self):
        # at 0 or N hits 3 sqrt(p(1 - p) / N) is 0; the err is then the p at
        # which the observed outcome has one-sided probability 0.00135
        # (3 sigma), and the true measure lies within it
        for K, N, hits in ((bd.ball(4.0, 2), 1000, 1000), (bd.ball(1.0, 2), 1, 0)):
            est = gm.mc_measure(K, N, seed=7)
            assert est.value == hits / N
            assert (1.0 - est.err) ** N == pytest.approx(0.00135, rel=1e-9)
            assert abs(est.value - gm.measure(K).value) <= est.err
        # between them the err stays 3 standard errors
        est = gm.mc_measure(bd.ball(1.0, 2), 1000, seed=7)
        assert 0.0 < est.value < 1.0
        assert est.err == 3.0 * np.sqrt(est.value * (1.0 - est.value) / 1000)

    def test_mc_reproducible(self):
        K = bd.ball(1.0, 3)
        a = gm.mc_measure(K, 50_000, seed=11)
        b = gm.mc_measure(K, 50_000, seed=11)
        assert a.value == b.value


class TestMomentClosedForms:
    def test_ball_radial_moments(self):
        # E |X|^(2m) restricted to a centered ball is a ratio of the
        # incomplete kernel integrals
        for n, R in [(2, 1.3), (3, 0.8), (3, 2.0)]:
            b = gm.moments_bundle(bd.ball(R, n))
            m2 = sf.j_lower(n + 1, R) / sf.j_lower(n - 1, R)
            m4 = sf.j_lower(n + 3, R) / sf.j_lower(n - 1, R)
            assert b.m2.value == pytest.approx(m2, abs=max(1e-10, 3 * b.m2.err))
            assert b.m4.value == pytest.approx(m4, abs=max(1e-10, 3 * b.m4.err))
            assert b.gK2.value == pytest.approx(m2 / R**2, abs=1e-9)

    def test_strip_m2_splits_coordinates(self):
        # one pinned coordinate, the rest free Gaussians
        for n in (2, 3):
            b = gm.moments_bundle(bd.strip(0.7, n))
            m2 = sf.j_lower(2, 0.7) / sf.j_lower(0, 0.7) + (n - 1)
            assert b.m2.value == pytest.approx(m2, abs=max(1e-8, 3 * b.m2.err))

    def test_box_m2_is_coordinate_sum(self):
        widths = (0.8, 1.3)
        b = gm.moments_bundle(bd.box(widths, 2))
        m2 = sum(sf.j_lower(2, w) / sf.j_lower(0, w) for w in widths)
        assert b.m2.value == pytest.approx(m2, abs=max(1e-8, 3 * b.m2.err))

    def test_cylinder_gauge_second_moment(self):
        k, R = 2, 0.9
        b = gm.moments_bundle(bd.cylinder(k, R, 3))
        truth = sf.j_lower(k + 1, R) / (R**2 * sf.j_lower(k - 1, R))
        assert b.gK2.value == pytest.approx(truth, abs=max(1e-7, 3 * b.gK2.err))

    def test_direction_moments_symmetric_body(self):
        K = bd.ball(1.0, 2)
        th = np.array([0.6, 0.8])
        _, (dir1, dir2) = gm.polar_sample(K).means(gm.RayPolynomial.dot_power(th, 1),
                                                   gm.RayPolynomial.dot_power(th, 2))
        assert dir1.value == pytest.approx(0.0, abs=1e-12)
        # isotropy: directional second moment is m2 / n
        assert dir2.value == pytest.approx(gm.moments_bundle(K).m2.value / 2, abs=1e-9)


def _integral(K, f):
    """Unnormalized int_K f dgamma on a fresh sample of K."""
    return gm.polar_sample(K).integrals(f)[0]


class TestRayIntegral:
    def test_gauge_columns_vanish_on_empty_and_unbounded_rays(self):
        # rho = 0 (a ray that misses a translate) and rho = inf both give 0
        dirs = np.eye(2)[[0, 1, 0]]
        rho = np.array([0.0, np.inf, 2.0])
        A = (gm.RayPolynomial.gauge_power(2) * -3.0).coeffs(dirs, rho)
        assert A[:, 2].tolist() == [0.0, 0.0, -0.75]

    def test_linearity(self):
        K = bd.catalog("ellipsoid", 2, c=(0.9, 1.6))
        f = gm.RayPolynomial.abs_x_power(2)
        g = gm.RayPolynomial.constant(0.7)
        lhs, fi, gi = _integral(K, f + g), _integral(K, f), _integral(K, g)
        assert lhs.value == pytest.approx(fi.value + gi.value, rel=1e-12)
        # the half-rule difference of a sum is at most the sum of theirs
        assert lhs.err <= fi.err + gi.err

    def test_product_matches_power(self):
        K = bd.ball(1.1, 3)
        f = gm.RayPolynomial.abs_x_power(2)
        prod = _integral(K, f * f)
        quart = _integral(K, gm.RayPolynomial.abs_x_power(4))
        assert prod.value == pytest.approx(quart.value, rel=1e-12)

    def test_gauge_power_on_boundary_normalization(self):
        # int_K ||x||_K^0 = gamma(K)
        K = bd.ball(0.8, 2)
        zeroth = _integral(K, gm.RayPolynomial.gauge_power(0))
        assert zeroth.value == pytest.approx(gm.measure(K).value, rel=1e-12)

    def test_dot_power_gaussian_identity(self):
        # E <X, theta>^2 over all of R^2 equals |theta|^2
        big = bd.ball(40.0, 2)
        est = _integral(big, gm.RayPolynomial.dot_power([0.6, 0.8], 2))
        assert est.value == pytest.approx(1.0, rel=1e-9)


# bd.radial calls for a box on a 256-point rule: one per sample, on the rule
# stacked with its half rule (n=2; the n=4 Monte Carlo rule has none); the
# suite adds three shifted bodies, and the Rayleigh quotient adds two
# perturbed-direction calls per tangent axis; the s-inequality check scales
# K's one sample for each dilation
RADIAL_CALLS = {
    2: {"moments_bundle": 1, "moment_inequality_suite": 4,
        "gauss_main_bound": 1, "rayleigh": 3, "minkowski_first_check": 4,
        "s_inequality_check": 1},
    4: {"moments_bundle": 1, "moment_inequality_suite": 4,
        "gauss_main_bound": 1, "rayleigh": 7, "minkowski_first_check": 4,
        "s_inequality_check": 1},
}


def _support_only(K):
    """K with its closed-form radial and in-radius withheld."""
    return dataclasses.replace(K, exact_radial=None, exact_inradius=None,
                               kind="generic", params=(), label="support-only")


def _separate_rule_integrals(K, rule, fs):
    """(value, err) of each f with rho evaluated apart on the rule and on
    its half rule, and one J table per rule."""
    m = rule.size
    parts = [(rule.points[:m], rule.weight)]
    if rule.half_weight is not None:
        parts.append((rule.points[m:], rule.half_weight))
    sums = []
    for points, weight in parts:
        rho = np.asarray(bd.radial(K, points), dtype=float)
        A = [f.coeffs(points, rho) for f in fs]
        J = sf.j_lower_orders(K.n - 1, K.n - 1 + max(a.shape[1] for a in A) - 1, rho)
        per_dir = [sum(a[:, j] * J[j] for j in range(a.shape[1])) for a in A]
        norm = (2.0 * np.pi) ** (-K.n / 2.0)
        sums.append([(float(norm * weight * np.sum(d)), d) for d in per_dir])
    out = []
    for i in range(len(fs)):
        val, per_dir = sums[0][i]
        if K.n == 4:
            scale = (2.0 * np.pi) ** (-2.0) * bd.sphere_area(4)
            err = 3.0 * scale * float(np.std(per_dir)) / np.sqrt(rule.size)
        else:
            err = abs(val - sums[1][i][0])
        out.append((val, err + 1e-13 * max(1.0, abs(val))))
    return out


def _loop_integral(s, f):
    """(value, err) of f on sample s by the per-integrand loop a batch
    replaces: dense ray coefficients term by term (or from f's column
    dict), one row, then 1-D sums (one np.std for the n=4 rule) on the
    sample's J table."""
    if isinstance(f, gm.RayPolynomial):
        A = np.zeros((len(s.rho), f.degree + 1))
        for (m, a, g), c in f.terms.items():
            col = np.full(len(s.rho), c)
            for i, e in enumerate(m):
                if e:
                    col = col * s.rule.points[:, i] ** e
            if g:
                col = np.divide(col, s.rho**g, out=np.zeros_like(col), where=s.rho > 0)
            A[:, sum(m) + a + g] += col
    else:
        A = np.zeros((len(s.rho), max(f) + 1))
        for j, col in f.items():
            A[:, j] += col
    per_dir = np.zeros(len(s.rho))
    for j in range(A.shape[1]):
        if np.any(A[:, j] != 0.0):
            per_dir += A[:, j] * s._J[j]
    n, m = s.K.n, s.rule.size
    norm = (2.0 * np.pi) ** (-n / 2.0)
    val = float(norm * s.rule.weight * np.sum(per_dir[:m]))
    if s.rule.half_weight is None:
        err = 3.0 * (norm * bd.sphere_area(n)) * float(np.std(per_dir)) / np.sqrt(m)
    else:
        err = abs(val - float(norm * s.rule.half_weight * np.sum(per_dir[m:])))
    return val, err + 1e-13 * max(1.0, abs(val))


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestPolarSample:
    @pytest.mark.parametrize("n", [2, 4])
    def test_radial_evaluated_once_per_rule(self, n, monkeypatch):
        calls = counting(monkeypatch, bd, "radial")
        K = bd.box([0.8 + 0.1 * i for i in range(n)], n)
        rule = gm.sphere_rule(n, 256)
        runs = {
            "moments_bundle": lambda: gm.moments_bundle(K, rule),
            "moment_inequality_suite": lambda: vf.moment_inequality_suite(K, rule),
            "gauss_main_bound": lambda: vf.gauss_main_bound(K, rule),
            "rayleigh": lambda: tor.rayleigh(K, gm.RayPolynomial.constant(1.0),
                                             [1.0, 0.0, -1.0], rule),
            "minkowski_first_check": lambda: vf.minkowski_first_check(
                K, bd.dilate(K, 1.5), rule),
            "s_inequality_check": lambda: vf.s_inequality_check(K, rule),
        }
        counts = {}
        for name, run in runs.items():
            calls.clear()
            run()
            counts[name] = len(calls)
        assert counts == RADIAL_CALLS[n]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rule_carries_its_half_rule(self, n):
        # the rule's points, then its half rule's: the grid of half the
        # size, re-sampled (n = 2's points[::2] would be a shifted midpoint
        # rule); the n = 4 Monte Carlo rule has none
        rule = gm.sphere_rule(n, 256)
        m = rule.size
        assert m == 256 and rule.weight == bd.sphere_area(n) / m
        assert np.array_equal(rule.points[:m], bd.direction_grid(n, m))
        if n == 4:
            assert rule.half_weight is None and len(rule.points) == m
        else:
            assert np.array_equal(rule.points[m:], bd.direction_grid(n, m // 2))
            assert rule.half_weight == bd.sphere_area(n) / (m // 2)
        assert gm.sphere_rule(n, 256) is rule

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_j_table_per_sample(self, n, monkeypatch):
        # the kernel runs for the table's top two orders only, and a
        # degree-0 integral needs just one (one call per row on more than
        # _LOOP_MAX points)
        calls = counting(monkeypatch, sf, "_j_lower")
        K = bd.box([0.8 + 0.1 * i for i in range(n)], n)
        s = gm.polar_sample(K, gm.sphere_rule(n, 256))
        for f in (gm.RayPolynomial.abs_x_power(4), gm.RayPolynomial.dot_power(np.eye(n)[0], 1),
                  gm.RayPolynomial.dot_power(np.eye(n)[0], 2)):
            s.integrals(f)
        assert len(calls) <= 2
        calls.clear()
        gm.measure(K, gm.sphere_rule(n, 256))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batch_matches_integrands_one_by_one(self, n):
        # one pass over the batch gives each integrand's Estimate bit for
        # bit, against the per-integrand loop and against single-integrand
        # calls; eleven integrands on a degree-4 table make three blocks
        P = gm.RayPolynomial
        e = np.eye(n)
        rule = gm.sphere_rule(n, 128 if n < 4 else 256)
        shift = np.r_[0.3, np.zeros(n - 1)]
        for K in (bd.box([0.8 + 0.1 * i for i in range(n)], n), bd.cylinder(n - 1, 0.9, n),
                  bd.translate(bd.lp_ball(1.0, 1.5, n), shift)):
            s = gm.polar_sample(K, rule)
            # a non-polynomial integrand as its ray-coefficient columns
            ray = {0: np.full(len(s.rho), 2.0), 1: s.rule.points[:, 0],
                   2: -s.rule.points[:, 1] ** 2}
            fs = [P.constant(1.0), P.abs_x_power(2), P.abs_x_power(4), P.gauge_power(1),
                  P.gauge_power(2), P.dot_power(e[0], 1), P.dot_power(e[-1], 3),
                  P.constant(2.0) - P.gauge_power(2) * 0.5, ray,
                  *(P.dot_power(x, 2) for x in e[:2])]
            batch = s.integrals(*fs)
            assert len(s._J) == 5 and len(batch) == len(fs)
            assert [(e.value, e.err) for e in batch] == [_loop_integral(s, f) for f in fs]
            assert batch == [s.integrals(f)[0] for f in fs], K.label

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_means_are_one_batch_over_the_measure(self, n):
        # means(*fs) is integrals(1, *fs) with each integral divided by
        # gamma(K) through Estimate.over, bit for bit
        P = gm.RayPolynomial
        fs = [P.abs_x_power(2), P.gauge_power(2), P.dot_power(np.eye(n)[0], 1),
              P.constant(2.0) - P.abs_x_power(2) * 0.7]
        shift = np.r_[0.3, np.zeros(n - 1)]
        for K in (bd.box([0.8 + 0.1 * i for i in range(n)], n), bd.cylinder(n - 1, 0.9, n),
                  bd.translate(bd.ball(1.0, n), shift)):
            rule = gm.sphere_rule(n, 128 if n < 4 else 256)
            a, means = gm.polar_sample(K, rule).means(*fs)
            want_a, *ints = gm.polar_sample(K, rule).integrals(P.constant(1.0), *fs)
            assert a == want_a, K.label
            assert means == [i.over(want_a) for i in ints], K.label

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_j_table_per_sample_of_a_check(self, n, monkeypatch):
        # the suite takes one table on K (degree 4) and one per translate
        # (degree 2); the gauge torsion bound one on K (degree 2)
        tables = counting(monkeypatch, sf, "j_lower_orders")
        K = bd.box([0.8 + 0.1 * i for i in range(n)], n)
        vf.moment_inequality_suite(K, gm.sphere_rule(n, 256))
        assert [q - p for p, q, _ in tables] == [4, 2, 2, 2]
        tables.clear()
        tor.torsion_gauge_lower(K, gm.RayPolynomial.constant(1.0))
        assert [q - p for p, q, _ in tables] == [2]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_sample_matches_separate_rules(self, n):
        bodies = [
            bd.box([0.8 + 0.1 * i for i in range(n)], n),
            bd.catalog("ellipsoid", n, c=[0.7 + 0.3 * i for i in range(n)]),
            bd.cylinder(n - 1, 0.9, n),
            bd.translate(bd.ball(1.0, n), np.r_[0.3, np.zeros(n - 1)]),
            _support_only(bd.box([0.9] * (n - 1) + [1.1], n)),
        ]
        fs = [gm.RayPolynomial.constant(1.0), gm.RayPolynomial.abs_x_power(2),
              gm.RayPolynomial.abs_x_power(4), gm.RayPolynomial.gauge_power(2),
              gm.RayPolynomial.dot_power(np.eye(n)[0], 1)]
        rule = gm.sphere_rule(n, 128 if n < 4 else 256)
        for K in bodies:
            got = gm.polar_sample(K, rule).integrals(*fs)
            want = _separate_rule_integrals(K, rule, fs)
            for g, (value, err) in zip(got, want):
                if n == 4:
                    assert (g.value, g.err) == (value, err), K.label
                else:
                    assert g.value == pytest.approx(value, rel=1e-15, abs=1e-300), K.label
                    assert g.err == pytest.approx(err, rel=1e-15, abs=1e-300), K.label


def _dilate_bases(n):
    """One body of every kind that dilates within its kind."""
    box = bd.box([0.8 + 0.1 * i for i in range(n)], n)
    return [bd.ball(0.9, n), bd.strip(0.7, n), bd.cylinder(n - 1, 0.8, n), box,
            bd.lp_ball(1.0, 3.0, n), bd.ellipsoid([0.7 + 0.3 * i for i in range(n)], n),
            bd.interpolate(box, bd.ball(1.0, n), 0.4)]


def _non_dilate_pairs(n):
    """(K, L, rule size); the ellipsoid pair takes the generic radial at
    every t, so it runs on a small rule."""
    return [(bd.box([0.8 + 0.1 * i for i in range(n)], n), bd.cylinder(1, 1.0, n), 256),
            (bd.cylinder(1, 0.8, n), bd.cylinder(2, 1.1, n), 256),
            (bd.ellipsoid([0.7 + 0.3 * i for i in range(n)], n),
             bd.ellipsoid([1.2] + [0.9] * (n - 1), n), 16)]


PATH_T = (np.arange(9) + 1.0) / 10.0
ONE = gm.RayPolynomial.constant(1.0)


def _scaled_sample_measures(K, c, rule):
    """(value, err) of the constant 1 on K's sample with rho scaled by c,
    through a full PolarSample: the reference for a dilate path's rows."""
    s = gm.polar_sample(K, rule)
    est = gm.PolarSample(K, s.rule, c * s.rho).integrals(ONE)[0]
    return est.value, est.err


class TestPathSamples:
    """gamma and its err along Minkowski paths (``gm.path_measures``)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dilate_paths_match_interpolation(self, n):
        # the scaled sample and the interpolated body's own radial differ
        # in rounding only; err's half-rule difference is itself at the
        # rounding level of the value for smooth integrands, so it is
        # compared on the value's scale
        rule = gm.sphere_rule(n, 256)
        for K in _dilate_bases(n):
            L = bd.dilate(K, 1.5)
            for ti, value, err in zip(PATH_T, *gm.path_measures(K, L, PATH_T, rule)):
                want = gm.measure(bd.interpolate(K, L, ti), rule)
                assert value == pytest.approx(want.value, rel=1e-14, abs=0), K.label
                assert err == pytest.approx(want.err, rel=1e-14,
                                            abs=1e-14 * want.value), K.label

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_dilate_paths_bit_identical(self, n):
        for K, L, size in _non_dilate_pairs(n):
            rule = gm.sphere_rule(n, size)
            assert bd.dilation_factor(K, L) is None
            for ti, value, err in zip(PATH_T, *gm.path_measures(K, L, PATH_T, rule)):
                want = gm.measure(bd.interpolate(K, L, ti), rule)
                assert (value, err) == (want.value, want.err), K.label

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dilate_rows_match_scaled_samples(self, n):
        # one J_{n-1} row per t equals the constant 1 integrated on a full
        # sample of the scaled rho, bit for bit (n = 4: the 3-sigma err);
        # the n = 3 rule has odd sizes, so its middle points lie on z = 0,
        # where the strip across x_3 has infinite rays
        cases = [(K, gm.sphere_rule(n, 256)) for K in _dilate_bases(n)]
        if n == 3:
            cases.append((bd.offset_box([np.inf, np.inf, 0.0], 0.8), gm.sphere_rule(3, 255)))
            assert np.isinf(gm.polar_sample(*cases[-1]).rho).sum() == 2
        for K, rule in cases:
            L = bd.dilate(K, 1.5)
            c = bd.dilation_factor(K, L)
            values, errs = gm.path_measures(K, L, PATH_T, rule)
            for ti, value, err in zip(PATH_T, values, errs):
                want = _scaled_sample_measures(K, 1.0 - ti + ti * c, rule)
                assert (value, err) == want, (K.label, ti)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dilation_factor(self, n):
        for K in _dilate_bases(n):
            assert bd.dilation_factor(K, bd.dilate(K, 1.5)) == pytest.approx(1.5, rel=1e-15)
            assert bd.dilation_factor(bd.dilate(K, 1.5), K) == pytest.approx(1 / 1.5,
                                                                             rel=1e-15)
        box = bd.box([0.8 + 0.1 * i for i in range(n)], n)
        for K, L in [(bd.cylinder(1, 0.8, n), bd.cylinder(2, 1.2, n)),
                     (bd.lp_ball(1.0, 3.0, n), bd.lp_ball(1.5, 4.0, n)),
                     (box, bd.box([1.2] + [0.9] * (n - 1), n)),
                     (box, bd.ball(1.0, n)),
                     (bd.translate(bd.ball(1.0, n), np.r_[0.3, np.zeros(n - 1)]),
                      bd.translate(bd.ball(1.5, n), np.r_[0.45, np.zeros(n - 1)])),
                     (_support_only(box), _support_only(bd.dilate(box, 1.5))),
                     (_support_only(box), bd.dilate(_support_only(box), 1.5))]:
            assert bd.dilation_factor(K, L) is None, (K.label, L.label)

    def test_dilate_path_makes_one_radial_call(self, monkeypatch):
        # and builds no body: neither a dilate nor any other SupportBody
        K = bd.box([0.8, 1.1, 1.3], 3)
        L = bd.dilate(K, 1.5)
        calls = counting(monkeypatch, bd, "radial")
        dilates = counting(monkeypatch, bd, "dilate")
        bodies = counting(monkeypatch, bd.SupportBody, "__post_init__")
        vf.concavity_check("power:1", K, L, n_t=9)
        assert (len(calls), dilates, bodies) == (1, [], [])
        calls.clear()
        vf.max_power(K, L, n_t=9)
        assert (len(calls), dilates, bodies) == (1, [], [])
        calls.clear()
        vf.s_inequality_check(K)
        assert (len(calls), dilates, bodies) == (1, [], [])
        calls.clear()
        vf.concavity_check("power:1", K, bd.cylinder(1, 1.0, 3), n_t=9)
        assert len(calls) == 9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_distinct_radius_rows_equal_full_kernel_rows(self, n):
        # the kernel on K's distinct radii, gathered back to the rule's
        # points, is the kernel on all of c rho bit for bit once there are
        # more than specfun._LOOP_MAX distinct radii (the ball has fewer);
        # in n = 3 also a strip with infinite rays on the 255-point rule,
        # and every body on the default rule
        cases = [(K, gm.sphere_rule(n, 256)) for K in _dilate_bases(n)[1:]]
        if n == 3:
            cases.append((bd.offset_box([np.inf, np.inf, 0.0], 0.8), gm.sphere_rule(3, 255)))
            cases += [(K, gm.sphere_rule(3)) for K in _dilate_bases(3)[1:]]
        for K, rule in cases:
            sample = gm.polar_sample(K, rule)
            assert len(np.unique(sample.rho)) > sf._LOOP_MAX, K.label
            for c in (0.5, *(1.0 + 0.5 * PATH_T), 2.75):
                value, err = sample._sums(sf.j_lower(n - 1, c * sample.rho))
                assert sample.scaled_measure(c) == (float(value), float(err)), (K.label, c)

    def test_ball_rows_close_to_full_kernel_rows(self):
        # a ball's few distinct radii go to the kernel's float carrier,
        # whose entries can differ from the array carrier's by an ulp; the
        # pairwise sums of 3,072 to 16,384 points add their own rounding
        # (worst 8.2e-16 relative on this sweep)
        for n in (2, 3, 4):
            for R in np.geomspace(0.05, 12.0, 23):
                sample = gm.polar_sample(bd.ball(float(R), n))
                assert len(np.unique(sample.rho)) <= sf._LOOP_MAX
                for c in np.linspace(0.5, 2.5, 15):
                    value, err = sample._sums(sf.j_lower(n - 1, c * sample.rho))
                    got_value, got_err = sample.scaled_measure(float(c))
                    assert got_value == pytest.approx(value, rel=1e-15, abs=0), (n, R, c)
                    assert got_err == pytest.approx(err, rel=0, abs=1e-15 * value), (n, R, c)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_distinct_radius_map_gathers_unique_rows(self, n):
        # the map's radii and the rows it gathers equal those of
        # np.unique(rho, return_inverse=True), on the default rules and on
        # 255/256-point rules; a sample whose radii are all distinct keeps
        # no map, and its kernel rows are the kernel on c rho itself
        bodies = [bd.ball(0.9, n), bd.strip(0.7, n), bd.cylinder(2, 0.8, n),
                  bd.cylinder(n - 1, 0.6, n), bd.box([0.8 + 0.1 * i for i in range(n)], n),
                  bd.ellipsoid([0.7 + 0.3 * i for i in range(n)], n),
                  bd.lp_ball(1.0, 3.0, n)]
        cases = [(K, gm.sphere_rule(n, size)) for K in bodies for size in (None, 255, 256)]
        if n == 3:
            cases.append((bd.offset_box([np.inf, np.inf, 0.0], 0.8), gm.sphere_rule(3, 255)))
        routes = set()
        for K, rule in cases:
            sample = gm.polar_sample(K, rule)
            radii, inverse = np.unique(sample.rho, return_inverse=True)
            found = sample._radius_map
            if len(radii) == len(sample.rho):
                assert found is None, K.label
                routes.add("none")
            else:
                assert np.array_equal(found[0], radii), K.label
                assert np.array_equal(found[0][found[1]], radii[inverse]), K.label
                routes.add("few" if len(radii) <= sf._LOOP_MAX else "many")
            for c in (0.5, 1.7):
                row = sf.j_lower(n - 1, c * radii)[inverse]
                got = (sf.j_lower(n - 1, c * sample.rho) if found is None
                       else sf.j_lower(n - 1, c * found[0])[found[1]])
                assert np.array_equal(got, row), (K.label, c)
        # the n = 2 rule holds antipodal points, so no symmetric body's
        # radii are all distinct; the n = 4 Monte Carlo directions repeat
        # a radius only on the ball
        assert routes == {2: {"few", "many"}, 3: {"none", "few", "many"},
                          4: {"none", "few"}}[n]

    def test_distinct_radius_map_when_the_head_repeats_a_radius(self):
        # a sample whose first points share a radius but which holds many
        # radii takes the value sort and then the argsort
        K, rule = bd.ball(1.0, 2), gm.sphere_rule(2, 256)
        rho = np.r_[np.full(sf._LOOP_MAX + 1, 0.9), np.linspace(0.5, 1.5, 40),
                    np.full(rule.points.shape[0] - sf._LOOP_MAX - 41, 1.1)]
        radii, inverse = np.unique(rho, return_inverse=True)
        found = gm.PolarSample(K, rule, rho)._radius_map
        assert len(radii) > sf._LOOP_MAX
        assert np.array_equal(found[0], radii) and np.array_equal(found[1], inverse)

    def test_ball_dilate_path_imports_no_masked_arrays(self):
        # np.unique without an inverse imports numpy.ma, whose cold import
        # would land on every fresh process that checks a ball's dilates
        code = ("import sys\n"
                "from gausscvx import body as bd, verify as vf\n"
                "vf.concavity_check('conjecture_F', bd.ball(0.8, 3), bd.ball(1.2, 3), n_t=9)\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_one_kernel_call_per_t_on_distinct_radii(self, monkeypatch):
        # default n = 3 rule: a ball's 12,288 points hold at most 4 radii
        calls = counting(monkeypatch, sf, "j_lower")
        ball, cylinder = bd.ball(0.9, 3), bd.cylinder(2, 0.8, 3)
        assert len(np.unique(gm.polar_sample(ball).rho)) <= 4
        for K in (ball, cylinder):
            calls.clear()
            gm.path_measures(K, bd.dilate(K, 1.5), PATH_T)
            distinct = len(np.unique(gm.polar_sample(K).rho))
            assert [len(args[1]) for args in calls] == [distinct] * len(PATH_T), K.label


def _first_variation(K, L):
    return gm.first_variation(gm.polar_sample(K), L)


def _box_plus_ball_slope(a):
    """d/d eps gamma(box(a) + eps B) at 0: the Gaussian surface measure of
    the box, sum_i 2 phi(a_i) prod_{j != i} erf(a_j / sqrt 2)."""
    a = np.asarray(a, dtype=float)
    faces = 2.0 * np.exp(-a**2 / 2.0) / np.sqrt(2.0 * np.pi)
    return sum(faces[i] * oracles.box_measure(np.delete(a, i)) for i in range(len(a)))


class TestFirstVariation:
    def test_ball_dilation_closed_form(self):
        # gamma(ball(R+eps)) has slope g_{n-1}(R) / c_{n-1} in eps
        for n, R in [(2, 1.0), (3, 0.8)]:
            est = _first_variation(bd.ball(R, n), bd.ball(1.0, n))
            truth = sf.g(n - 1, R) / sf.j_total(n - 1)
            assert est.value == pytest.approx(truth, abs=max(1e-9, 3 * est.err))

    def test_self_variation_identity(self):
        # d/dc gamma(cK) at c=1 equals gamma(K) (n - E|X|^2)
        for K in (bd.box((0.8, 1.2), 2), bd.ball(1.1, 2),
                  bd.catalog("ellipsoid", 2, c=(0.7, 1.5))):
            est = _first_variation(K, K)
            b = gm.moments_bundle(K)
            truth = b.a.value * (K.n - b.m2.value)
            assert est.value == pytest.approx(truth, abs=max(1e-7, 3 * est.err))

    def test_monotone_in_added_body(self):
        K = bd.ball(1.0, 2)
        small = _first_variation(K, bd.ball(0.5, 2)).value
        large = _first_variation(K, bd.ball(2.0, 2)).value
        assert 0 < small < large

    @pytest.mark.parametrize("n, bound", [(2, 1e-3), (3, 1e-3), (4, 1e-2)])
    def test_box_plus_ball_within_err(self, n, bound):
        # the integrand jumps at the box's edges, so the rule is only
        # O(1/N); err must still cover the closed form
        a = (0.7, 0.9, 1.1, 1.3)[:n]
        est = _first_variation(bd.box(a, n), bd.ball(1.0, n))
        assert abs(est.value - _box_plus_ball_slope(a)) <= est.err <= bound

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cylinder_dilation_within_err(self, n):
        # rays along the cylinder's axes have rho = inf; the slope
        # 1.5 gamma(K) (n - E|X|^2) of gamma((1 + 1.5 eps) K) is
        # 1.5 R g_{k-1}(R) / c_{k-1} for K = cylinder(k, R)
        k, R = n - 1, 0.9
        K = bd.cylinder(k, R, n)
        est = _first_variation(K, bd.dilate(K, 1.5))
        truth = 1.5 * R * sf.g(k - 1, R) / sf.j_total(k - 1)
        assert abs(est.value - truth) <= est.err


class TestEstimateAlgebra:
    def test_negative_error_is_refused(self):
        with pytest.raises(ValueError):
            gm.Estimate(1.0, -0.1, "closed")

    @settings(max_examples=100, deadline=None)
    @given(v1=st.floats(-4, 4), e1=st.floats(0, 0.5),
           v2=st.floats(0.5, 4), e2=st.floats(0, 0.5))
    def test_quotient_first_order(self, v1, e1, v2, e2):
        a = gm.Estimate(v1, e1, "quadrature")
        b = gm.Estimate(v2, e2, "quadrature")
        q = a.over(b)
        assert q.value == v1 / v2
        # first-order propagated bound dominates either one-sided shift
        shift = abs((v1 + e1) / v2 - v1 / v2)
        assert q.err >= shift - 1e-12

    def test_times_symmetry(self):
        a = gm.Estimate(2.0, 0.1, "closed")
        b = gm.Estimate(-3.0, 0.2, "closed")
        ab, ba = a.times(b), b.times(a)
        assert ab.value == ba.value == -6.0
        assert ab.err == pytest.approx(ba.err)
