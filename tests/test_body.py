"""Convex-body layer: supports, gauges, radial profiles, interpolation rules."""

import dataclasses
import itertools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscvx import body as bd

import oracles
from body_strings import body_strings


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


CATALOG_CASES = [
    ("ball", 2, dict(R=1.1), ("ball", (1.1,))),
    ("strip", 3, dict(w=0.7), ("strip", (0.7,))),
    ("cylinder", 3, dict(k=2, R=0.9), ("cylinder", (2, 0.9))),
    ("box", 3, dict(a=(0.8, 1.0, 1.3)), ("box", (0.8, 1.0, 1.3))),
    ("lp_ball", 2, dict(r=1.2, p=3.0), ("lp", (1.2, 3.0))),
    ("ellipsoid", 2, dict(c=(0.9, 1.6)), ("ellipsoid", (0.9, 1.6))),
]


class TestSupportsAndGauges:
    def test_support_vs_membership_oracle(self):
        # h_K(u) = max over the body of <x,u>; for each catalog body, random
        # points scaled to gauge 1 must satisfy <x,u> <= h_K(u)
        rng = np.random.default_rng(3)
        for name, n, params, _ in CATALOG_CASES:
            K = bd.catalog(name, n, **params)
            for _ in range(20):
                u = _unit(rng.normal(size=n))
                x = rng.normal(size=n)
                x = x / bd.gauge(K, x)       # boundary point
                assert float(x @ u) <= float(K.support(u[None, :])[0]) + 1e-10

    def test_translate_support_is_shifted_brute_maximum(self):
        # h_{K+v}(u) = h_K(u) + <u, v>, against the largest <x + v, u> over
        # 2^17 points of an ellipse's boundary (within 1e-8 of the maximum)
        # and over a box's vertices (where the maximum is attained)
        rng = np.random.default_rng(11)
        phi = np.linspace(0.0, 2.0 * np.pi, 1 << 17, endpoint=False)
        ellipse = np.column_stack([0.7 * np.cos(phi), 1.3 * np.sin(phi)])
        corners = np.array(list(itertools.product(*((-w, w) for w in (0.8, 1.0, 1.3)))))
        for K, boundary, atol in ((bd.ellipsoid([0.7, 1.3], 2), ellipse, 1e-8),
                                  (bd.box([0.8, 1.0, 1.3], 3), corners, 1e-14)):
            v = rng.uniform(-0.4, 0.4, size=K.n)
            u = _seeded_directions(K.n, 40, 12)
            h = bd.translate(K, v).support(u)
            brute = np.max((boundary + v) @ u.T, axis=0)
            assert np.all(brute <= h + 1e-14)
            np.testing.assert_allclose(h, brute, rtol=0, atol=atol)
            np.testing.assert_allclose(h, K.support(u) + u @ v, rtol=0, atol=1e-15)

    def test_lp_ball_p1_support_is_max_abs(self):
        # the p = 1 ball is the cross-polytope with vertices +-r e_i, so
        # h(u) = r max |u_i|, the largest <x, u> over boundary points on a
        # fine direction grid and the vertices, where it is attained
        r = 1.3
        for n in (2, 3):
            K = bd.lp_ball(r, 1.0, n)
            dirs = bd.direction_grid(n, 4096)
            boundary = np.vstack([bd.radial(K, dirs)[:, None] * dirs,
                                  r * np.eye(n), -r * np.eye(n)])
            u = _seeded_directions(n, 40, 13)
            h = K.support(u)
            np.testing.assert_allclose(h, r * np.max(np.abs(u), axis=1), rtol=1e-15)
            np.testing.assert_allclose(h, np.max(boundary @ u.T, axis=0), rtol=1e-14)

    def test_gauge_positive_homogeneous(self):
        K = bd.catalog("ellipsoid", 3, c=(0.7, 1.1, 1.9))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        g = bd.gauge(K, x)
        np.testing.assert_allclose(bd.gauge(K, 2.5 * x), 2.5 * g, rtol=1e-12)

    def test_gauge_one_iff_boundary(self):
        for name, n, params, (kind, geo) in CATALOG_CASES:
            K = bd.catalog(name, n, **params)
            rng = np.random.default_rng(9)
            for _ in range(10):
                x = rng.normal(size=n)
                xb = x / bd.gauge(K, x)
                assert oracles.geometric_member(kind, geo, xb * (1 - 1e-9))
                assert not oracles.geometric_member(kind, geo, xb * (1 + 1e-6))


class TestRadial:
    def test_radial_matches_exact_profiles(self):
        rng = np.random.default_rng(1)
        for name, n, params, (kind, geo) in CATALOG_CASES:
            K = bd.catalog(name, n, **params)
            thetas = rng.normal(size=(12, n))
            thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
            r = bd.radial(K, thetas)
            # oracle: bisect the membership indicator along each ray
            for i, th in enumerate(thetas):
                lo, hi = 0.0, 1.0
                while oracles.geometric_member(kind, geo, hi * th):
                    hi *= 2.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if oracles.geometric_member(kind, geo, mid * th):
                        lo = mid
                    else:
                        hi = mid
                assert r[i] == pytest.approx(0.5 * (lo + hi), rel=1e-8, abs=1e-10)

    def test_exact_radial_used_when_available(self):
        K = bd.ball(1.4, 3)
        th = _unit([1.0, 2.0, -1.0])
        r = bd.radial(K, th[None, :])
        assert r[0] == pytest.approx(1.4, abs=1e-14)

    def test_generic_support_path_agrees_with_exact(self):
        # strip the fast radial path and force the support-based refinement
        K = bd.catalog("ellipsoid", 2, c=(0.8, 1.5))
        K_slow = bd.SupportBody(n=2, support=K.support,
                                label="slow", kind="generic", params=())
        rng = np.random.default_rng(7)
        thetas = rng.normal(size=(6, 2))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        fast = bd.radial(K, thetas)
        slow = bd.radial(K_slow, thetas)
        np.testing.assert_allclose(slow, fast, rtol=1e-7)


def _support_only(K):
    """K with its closed-form radial and in-radius withheld."""
    return dataclasses.replace(K, exact_radial=None, exact_inradius=None,
                               kind="generic", params=(), label="support-only")


def _seeded_directions(n: int, m: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).normal(size=(m, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestGenericRadial:
    """The batched grid-min and golden-section refinement of the generic
    radial path."""

    # (body, direction seed, generic radials computed by the per-direction
    # loop that the batched search replaced)
    FROZEN = [
        (bd.box([0.7, 1.2]), 101,
         [1.2873141693061614, 1.1116609295011108, 1.0859812396314934,
          0.8236999182369859, 0.9761363693772657, 1.0491054963421294,
          0.7140632363598498]),
        (bd.ball(1.1, 2), 102,
         [1.0999999999999999, 1.1, 1.0999999999999999, 1.1, 1.1, 1.1, 1.1]),
        (bd.ellipsoid([0.8, 1.5]), 103,
         [1.0419223206442536, 1.1977184981053843, 1.1151096808296646,
          0.9573459262603187, 0.8436745565337024, 0.9542168717413353,
          1.082778019430572]),
        (bd.box([0.7, 0.8, 0.9]), 104,
         [1.2559891598404103, 0.9130892307833127, 0.7120716162146804,
          0.9310009141432746, 1.0606278152693869, 0.9162319784775169]),
    ]

    @pytest.mark.parametrize("K, seed, want", FROZEN, ids=lambda x: getattr(x, "label", None))
    def test_matches_frozen_loop_values(self, K, seed, want):
        th = _seeded_directions(K.n, len(want), seed)
        np.testing.assert_allclose(bd.radial(_support_only(K), th), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("K, seed, want", FROZEN, ids=lambda x: getattr(x, "label", None))
    def test_chunk_size_does_not_change_values(self, K, seed, want, monkeypatch):
        G = _support_only(K)
        th = _seeded_directions(K.n, len(want), seed)
        whole = bd.radial(G, th)
        monkeypatch.setattr(bd, "_CHUNK_ENTRIES", 1)  # one direction per chunk
        assert np.array_equal(bd.radial(G, th), whole)
        monkeypatch.setattr(bd, "_CHUNK_ENTRIES", 3 * len(bd.direction_grid(K.n)))
        assert np.array_equal(bd.radial(G, th), whole)

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_direction_returns_floats(self, n):
        G = _support_only(bd.box(np.linspace(0.7, 1.1, n)))
        th = _seeded_directions(n, 1, 5)
        r = bd.radial(G, th[0])
        assert type(r) is float
        assert r == bd.radial(G, th)[0]


class TestMeasureHooks:
    def test_inradius(self):
        assert bd.inradius(bd.ball(0.9, 3)) == pytest.approx(0.9, abs=1e-12)
        assert bd.inradius(bd.strip(0.6, 2)) == pytest.approx(0.6, abs=1e-12)
        assert bd.inradius(bd.box((0.5, 1.2), 2)) == pytest.approx(0.5, abs=1e-10)
        assert bd.inradius(bd.catalog("ellipsoid", 2, c=(0.7, 2.0))) \
            == pytest.approx(0.7, abs=1e-10)

    @pytest.mark.parametrize("K, want", [
        (bd.box([0.7, 0.8, 0.9]), 0.7),
        (bd.box([0.9, 0.9, 1.1]), 0.9),
        (bd.ellipsoid([1.3, 0.85, 1.1]), 0.85),
        (bd.lp_ball(1.2, 4.0, 3), 1.2),
        # min_u r ||u||_q is reached on the diagonal for p < 2
        (bd.lp_ball(1.3, 1.5, 3), 1.3 * 3 ** (0.5 - 1.0 / 1.5)),
    ], ids=lambda x: getattr(x, "label", None))
    def test_generic_inradius_in_three_dimensions(self, K, want):
        # the refined grid minimum of h; every candidate is h at a unit
        # direction, so it cannot undershoot
        r = bd.inradius(_support_only(K))
        assert r == pytest.approx(want, rel=1e-8)
        assert r >= want * (1.0 - 1e-15)

    def test_membership_monte_carlo(self):
        # measures come from gaussmoments elsewhere; here only the geometry:
        # the indicator frequency must match an independent membership MC
        from gausscvx import gaussmoments as gm
        for name, n, params, (kind, geo) in CATALOG_CASES[:4]:
            K = bd.catalog(name, n, **params)
            est = gm.measure(K)
            p, err3 = oracles.mc_gauss_prob(kind, geo, n, 200_000, seed=42)
            assert abs(est.value - p) <= err3 + 3 * est.err


class TestTransforms:
    def test_dilate(self):
        K = bd.catalog("box", 2, a=(0.5, 1.0))
        D = bd.dilate(K, 2.0)
        th = _unit([3.0, 1.0])
        assert bd.radial(D, th[None, :])[0] == pytest.approx(
            2 * bd.radial(K, th[None, :])[0], rel=1e-12)

    def test_translate_gauge_shift(self):
        K = bd.ball(1.0, 2)
        T = bd.translate(K, [0.3, 0.0])
        # point on the shifted boundary
        assert bd.gauge(T, np.array([1.3, 0.0])) == pytest.approx(1.0, abs=1e-9)
        assert bd.gauge(T, np.array([-0.7, 0.0])) == pytest.approx(1.0, abs=1e-9)
        assert T.shifted

    def test_minkowski_sum_support_additive(self):
        K = bd.ball(0.8, 2)
        L = bd.catalog("box", 2, a=(0.5, 0.9))
        M = bd.minkowski_sum(K, L, 0.25)
        u = _unit([1.0, -2.0])[None, :]
        assert M.support(u)[0] == pytest.approx(
            K.support(u)[0] + 0.25 * L.support(u)[0], rel=1e-12)

    @pytest.mark.parametrize("K", [
        bd.translate(bd.ball(1.0, 2), [0.0, 0.0]),
        bd.interpolate(bd.translate(bd.ball(1.0, 2), [0.2, 0.0]),
                       bd.translate(bd.ball(1.0, 2), [-0.2, 0.0]), 0.5),
    ], ids=["zero-translate", "opposite-translates"])
    def test_symmetry_is_read_from_the_shift(self, K):
        assert not K.shifted and K.symmetric
        assert bd.translate(bd.ball(1.0, 2), [0.2, 0.0]).symmetric is False


class TestRefusals:
    @pytest.mark.parametrize("make,match", [
        (lambda: bd.SupportBody(n=0, support=np.ones_like), "dimension must be >= 1"),
        (lambda: bd.radial(bd.ball(1.0, 2), np.ones((4, 3))), "direction dimension"),
        (lambda: bd.translate(bd.translate(bd.ball(1.0, 2), [0.1, 0.0]), [0.0, 0.1]),
         "unshifted body"),
        (lambda: bd.minkowski_sum(bd.ball(1.0, 2), bd.ball(0.5, 2), -0.1),
         "eps must be nonnegative"),
        (lambda: bd.dilate(bd.ball(1.0, 2), 0.0), "must be positive"),
        (lambda: bd.dilate(bd.ball(1.0, 2), -2.0), "must be positive"),
        (lambda: bd.parse_body("interp:lambda=0.5;ball:R=1", 2), "needs `|`"),
    ], ids=["n=0", "radial-width", "translate-twice", "minkowski-eps<0",
            "dilate-0", "dilate<0", "interp-without-bar"])
    def test_refused_operation_is_body_error(self, make, match):
        with pytest.raises(bd.BodyError, match=match):
            make()


class TestInterpolation:
    PAIRS = [
        (("ball", 2, dict(R=0.7)), ("ball", 2, dict(R=1.5))),
        (("strip", 2, dict(w=0.8)), ("ball", 2, dict(R=1.0))),
        (("cylinder", 3, dict(k=2, R=0.9)), ("ball", 3, dict(R=1.2))),
        (("box", 2, dict(a=(0.7, 1.2))),
         ("box", 2, dict(a=(1.3, 0.5)))),
        (("box", 2, dict(a=(0.9, 0.9))), ("ball", 2, dict(R=1.1))),
        (("ellipsoid", 2, dict(c=(0.8, 1.4))),
         ("ellipsoid", 2, dict(c=(1.6, 2.8)))),
    ]

    def test_support_is_log_linear_pointwise(self):
        # gamma-interpolation: h_M(u) = h_K(u)^(1-lam) * h_L(u)^lam does NOT
        # hold in general -- the rule is (1-lam) K + lam L on supports
        rng = np.random.default_rng(13)
        for (na, n, pa), (nb, _, pb) in self.PAIRS:
            K = bd.catalog(na, n, **pa)
            L = bd.catalog(nb, n, **pb)
            M = bd.interpolate(K, L, 0.35)
            u = rng.normal(size=(16, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            np.testing.assert_allclose(
                M.support(u), 0.65 * K.support(u) + 0.35 * L.support(u),
                rtol=1e-10)

    # pairs whose interpolant is bounded; unbounded interpolants (strip or
    # cylinder factors) defeat the generic direction-grid minimizer, whose
    # sampled supports are a.e. infinite there
    BOUNDED_PAIRS = [
        (("ball", 2, dict(R=0.7)), ("ball", 2, dict(R=1.5))),
        (("box", 2, dict(a=(0.7, 1.2))), ("box", 2, dict(a=(1.3, 0.5)))),
        (("box", 2, dict(a=(0.9, 0.9))), ("ball", 2, dict(R=1.1))),
        (("ellipsoid", 2, dict(c=(0.8, 1.4))), ("ellipsoid", 2, dict(c=(1.6, 2.8)))),
        (("box", 3, dict(a=(0.8, 1.0, 1.2))), ("ball", 3, dict(R=0.9))),
    ]

    def test_closed_rules_match_generic_radial(self):
        # where a closed-form interpolant exists, its radial profile must
        # agree with the generic support-only construction
        rng = np.random.default_rng(17)
        for (na, n, pa), (nb, _, pb) in self.BOUNDED_PAIRS:
            K = bd.catalog(na, n, **pa)
            L = bd.catalog(nb, n, **pb)
            M = bd.interpolate(K, L, 0.42)
            G = bd.SupportBody(n=n, support=M.support,
                               label="generic", kind="generic", params=())
            thetas = rng.normal(size=(8, n))
            thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
            np.testing.assert_allclose(bd.radial(M, thetas),
                                       bd.radial(G, thetas), rtol=5e-7)

    def test_unbounded_interpolant_bounded_section(self):
        # a cylinder interpolant is exact in the bounded cross-section
        K = bd.cylinder(2, 0.9, 3)
        L = bd.ball(1.2, 3)
        M = bd.interpolate(K, L, 0.42)
        th = np.array([[0.6, 0.8, 0.0]])
        assert bd.radial(M, th)[0] == pytest.approx(0.58 * 0.9 + 0.42 * 1.2,
                                                    rel=1e-12)
        assert np.isinf(bd.radial(M, np.array([[0.0, 0.0, 1.0]]))[0])

    def test_cylinder_pair_stays_cylinder(self):
        K = bd.cylinder(2, 0.8, 3)
        L = bd.cylinder(2, 1.7, 3)
        M = bd.interpolate(K, L, 0.5)
        k, R = bd.round_cylinder(M)
        assert k == 2
        assert R == pytest.approx(0.5 * 0.8 + 0.5 * 1.7, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lp_pair_of_one_p_has_closed_rule(self, n):
        # 0.7 lp(1) + 0.3 lp(1.5) = lp(1.15) for the same p
        M = bd.interpolate(bd.lp_ball(1.0, 3.0, n), bd.lp_ball(1.5, 3.0, n), 0.3)
        assert M.exact_radial is not None
        thetas = _probe_directions(n, 23)
        np.testing.assert_allclose(bd.radial(M, thetas),
                                   bd.radial(bd.lp_ball(1.15, 3.0, n), thetas),
                                   rtol=1e-15, atol=0)

    def test_non_proportional_ellipsoids_use_support_sum(self):
        K = bd.ellipsoid([0.8, 1.4])
        L = bd.ellipsoid([1.6, 2.1])
        M = bd.interpolate(K, L, 0.3)
        assert M.kind == "generic" and M.exact_radial is None
        u = _probe_directions(2, 29)
        np.testing.assert_array_equal(M.support(u),
                                      (1 - 0.3) * K.support(u) + 0.3 * L.support(u))

    def test_strip_absorbs_ball(self):
        # a strip interpolated with a ball is the strip of half-width
        # 0.7 * 0.8 + 0.3 * 1.0 = 0.86: the ball's bounded directions are
        # absorbed by the strip's free one
        K = bd.strip(0.8, 2)
        L = bd.ball(1.0, 2)
        M = bd.interpolate(K, L, 0.3)
        th = np.array([[1.0, 0.0], [0.0, 1.0]])
        r = bd.radial(M, th)
        assert r[0] == pytest.approx(0.7 * 0.8 + 0.3 * 1.0, rel=1e-10)
        assert np.isinf(bd.radial(K, th[1][None, :])[0]) or r[1] > r[0]


def _probe_directions(n: int, seed: int) -> np.ndarray:
    """Random unit directions, the signed axes, and every 29th direction of
    the default grid."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(64, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    e = np.eye(n)
    return np.vstack([x, e, -e, bd.direction_grid(n)[::29]])


def _assert_radials_agree(got, want, rtol=1e-14):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=rtol, atol=0)


def _family_radial_bisect(K, theta) -> np.ndarray:
    """The bisection radial of the offset box K = Box(b) + sB on its finite
    coordinates."""
    b, s = K.params
    act = np.isfinite(b)
    return oracles.round_box_radial_bisect(np.asarray(b)[act], s, act, theta)


def _round_boxes(n: int) -> list:
    """Rounded boxes from interpolations of boxes, cylinders and rounded
    boxes, with no, one or n - 1 free coordinates."""
    box = bd.box(np.linspace(0.6, 1.2, n), n)
    full = bd.interpolate(box, bd.ball(1.1, n), 0.4)            # box + ball
    free = bd.interpolate(box, bd.cylinder(n - 1, 0.9, n), 0.3)  # box + cylinder
    return [
        full, free,
        bd.interpolate(box, bd.strip(0.8, n), 0.7),
        bd.interpolate(bd.cylinder(n - 1, 1.3, n), free, 0.5),   # cylinder + rounded box
        bd.interpolate(box, full, 0.25),                         # box + rounded box
        bd.interpolate(full, bd.interpolate(box, bd.ball(0.7, n), 0.8), 0.6),
        bd.interpolate(bd.box(np.full(n, 0.9), n), bd.ball(0.1, n), 0.5),  # small s
        bd.dilate(free, 1.7),
    ]


def _shift(K, frac: float, u) -> np.ndarray:
    """The shift along u with ||v||_K = frac."""
    u = _unit(u)
    return frac * bd.radial(K, u[None, :])[0] * u


class TestOffsetBoxFamily:
    """Boxes, round cylinders and rounded boxes as one family Box(b) + sB,
    closed under Minkowski interpolation."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_pair_interpolates_to_an_exact_radial(self, n):
        members = [bd.box(np.linspace(0.7, 1.1, n), n), bd.ball(1.2, n), bd.strip(0.8, n),
                   *(bd.cylinder(k, 0.9, n) for k in range(2, n)), *_round_boxes(n)]
        u = _probe_directions(n, 40 + n)
        for i, K in enumerate(members):
            for L in members[i:]:
                M = bd.interpolate(K, L, 0.35)
                assert M.exact_radial is not None, (K.label, L.label)
                # the interpolant's support is the support sum, and its
                # radial is the bisection radial of its (b, s)
                hK, hL, hM = K.support(u), L.support(u), M.support(u)
                want = np.where(np.isinf(hK) | np.isinf(hL), np.inf, 0.65 * hK + 0.35 * hL)
                _assert_radials_agree(hM, want)
                _assert_radials_agree(bd.radial(M, u), _family_radial_bisect(M, u))

    def test_small_s_radial_against_mpmath(self):
        # s small against the spread of the breakpoints: a root from the
        # quadratic's discriminant B^2 - A (C - s^2) cancelled to 1.6e-14
        # at the probe direction; the offset from the last breakpoint
        # keeps every direction within a few ulps
        M = bd.interpolate(bd.box([0.7, 0.9, 1.1], 3), _round_boxes(3)[6], 0.35)
        u = _probe_directions(3, 43)[:64]
        assert np.abs(u - [-0.536, -0.344, -0.771]).max(axis=1).min() < 1e-3
        with mp.workdps(40):
            b, s = [mp.mpf(float(x)) for x in M.params[0]], mp.mpf(M.params[1])
            for theta, r in zip(u, bd.radial(M, u)):
                a = [mp.mpf(float(x)) for x in np.abs(theta)]
                f = lambda t: sum(max(t * ai - bi, 0) ** 2 for ai, bi in zip(a, b)) - s * s
                lo, hi = mp.mpf(0), mp.mpf(4)
                for _ in range(140):
                    mid = (lo + hi) / 2
                    lo, hi = (lo, mid) if f(mid) >= 0 else (mid, hi)
                assert abs(r - lo) <= 4e-16 * lo, theta

    def test_dilation_factor_needs_the_same_zero_and_infinite_entries(self):
        assert bd.dilation_factor(bd.strip(0.8, 2), bd.ball(1.2, 2)) is None
        assert bd.dilation_factor(bd.cylinder(1, 0.8, 3), bd.cylinder(2, 1.1, 3)) is None
        assert bd.dilation_factor(bd.cylinder(2, 0.8, 4), bd.cylinder(3, 1.1, 4)) is None
        box = bd.box([0.6, 0.9], 2)
        assert bd.dilation_factor(box, bd.interpolate(box, bd.ball(1.0, 2), 0.5)) is None
        assert bd.dilation_factor(bd.cylinder(2, 0.8, 3),
                                  bd.cylinder(2, 1.2, 3)) == pytest.approx(1.5, rel=1e-15)
        K = _round_boxes(3)[1]
        assert bd.dilation_factor(K, bd.dilate(K, 1.7)) == pytest.approx(1.7, rel=1e-12)

    def test_round_cylinder_reads_k_and_radius(self):
        assert bd.round_cylinder(bd.strip(0.8, 3)) == (1, 0.8)
        assert bd.round_cylinder(bd.cylinder(2, 0.9, 3)) == (2, 0.9)
        assert bd.round_cylinder(bd.ball(1.2, 2)) == (2, 1.2)
        for K in (bd.box([0.6, 0.9], 2), _round_boxes(2)[0], bd.ellipsoid([1.0, 1.0])):
            assert bd.round_cylinder(K) is None, K.label

    def test_one_finite_coordinate_is_a_strip(self):
        # Box(b) + sB with one finite b_1 is the strip of half-width b_1 + s
        slab = bd.interpolate(bd.box([0.6, 0.9], 2), bd.strip(0.8, 2), 0.5)
        assert bd.round_cylinder(slab) == (1, pytest.approx(0.7, rel=1e-15))
        assert slab.label.startswith("strip")
        assert bd.offset_box([0.7, np.inf, np.inf], 0.0).params == ((0.0, np.inf, np.inf), 0.7)
        assert bd.round_cylinder(bd.offset_box([0.5, np.inf], 0.25)) == (1, 0.75)


class TestExactRadials:
    """Closed-form rounded-box and translate radials against the bisections
    they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_box_matches_bisection(self, n):
        th = _probe_directions(n, n)
        # with free coordinates: directions with zero active components
        # (+inf), and with only some active components nonzero
        zero_act = np.zeros((2, n))
        zero_act[:, -1] = [1.0, -1.0]
        some_act = np.zeros((1, n))
        some_act[0, [0, -1]] = _unit([1.0, 2.0])
        th = np.vstack([th, zero_act, some_act])
        for K in _round_boxes(n):
            b, s = K.params
            act = np.isfinite(b)
            # in n = 2 a free coordinate leaves one finite one: a strip
            assert s > 0 and (np.any(np.asarray(b)[act] > 0)
                              or bd.round_cylinder(K) == (1, s)), K.label
            got = bd.radial(K, th)
            _assert_radials_agree(got, _family_radial_bisect(K, th))
            assert np.all(np.isinf(got[-3:-1])) == (not all(act)), K.label

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_translate_matches_bisection(self, n):
        th = _probe_directions(n, 10 + n)
        cores = [bd.ball(1.1, n), bd.strip(0.8, n), bd.cylinder(max(1, n - 1), 0.9, n),
                 bd.ellipsoid(np.linspace(0.7, 1.5, n), n),
                 bd.box(np.linspace(0.6, 1.2, n), n),
                 bd.lp_ball(1.2, 3.0, n), bd.lp_ball(1.3, 1.5, n), bd.lp_ball(1.0, 1.0, n),
                 *_round_boxes(n)[:2]]
        rng = np.random.default_rng(n)
        for K in cores:
            for frac in (0.3, 0.6, 0.85):
                for u in (np.eye(n)[0], rng.normal(size=n)):
                    v = _shift(K, frac, u)
                    got = bd.radial(bd.translate(K, v), th)
                    _assert_radials_agree(
                        got, oracles.translate_radial_bisect(K.exact_radial, v, th))

    def test_free_directions_of_unbounded_cores_never_exit(self):
        th = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        for K in (bd.strip(0.8, 3), bd.cylinder(2, 0.9, 3),
                  bd.interpolate(bd.box([0.6, 0.8, 1.0], 3), bd.cylinder(2, 0.9, 3), 0.3)):
            T = bd.translate(K, _shift(K, 0.5, [1.0, 1.0, 0.0]))
            assert np.all(np.isinf(bd.radial(T, th))), K.label

    @pytest.mark.parametrize("core", [
        lambda: bd.ball(1.0, 2),
        lambda: bd.lp_ball(1.0, 2.0, 2),   # the same disc through the secant path
    ])
    def test_translate_radial_is_sup_of_ray_in_body(self, core):
        # unit disc shifted to (c, 0): along angle a the ray is inside for
        # t^2 - 2 c cos(a) t + c^2 - 1 <= 0, so the radial is the larger
        # root, or 0 where the ray misses the disc (origin outside, c > 1)
        K = core()
        a = np.linspace(-np.pi, np.pi, 181)
        th = np.column_stack([np.cos(a), np.sin(a)])
        for c in (0.4, 0.9, 2.0):
            disc = c * c * np.cos(a) ** 2 - (c * c - 1.0)
            hits = disc >= 0
            with np.errstate(invalid="ignore"):
                root = c * np.cos(a) + np.sqrt(disc)
            want = np.where(hits & (root > 0), root, 0.0)
            got = bd.radial(bd.translate(K, [c, 0.0]), th)
            clear = np.abs(disc) > 1e-9   # away from tangent rays
            np.testing.assert_allclose(got[clear], want[clear], rtol=1e-13, atol=1e-15)

    def test_box_translate_misses_outside(self):
        T = bd.translate(bd.box([0.5, 0.5], 2), [1.0, 0.0])
        got = bd.radial(T, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], _unit([1.0, 0.4])]))
        np.testing.assert_allclose(got, [1.5, 0.0, 0.0, np.hypot(1.25, 0.5)], rtol=1e-15)


class TestRowNorms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_for_bit_linalg_norm(self, n):
        # the rule points, scaled rows of very unlike size, rows holding 0
        # and inf, and views that are not contiguous
        rng = np.random.default_rng(70 + n)
        wide = rng.normal(size=(500, n)) * np.exp(5.0 * rng.normal(size=(500, n)))
        special = np.array([[0.0] * n, [np.inf] + [1.0] * (n - 1), [-np.inf] * n,
                            [0.0] * (n - 1) + [-2.5]])
        grids = [bd.direction_grid(n), bd.direction_grid(n, 255), wide, special]
        for x in grids:
            for view in (x, np.asfortranarray(x), np.hstack([x, x])[::2, ::2],
                         x[::-1, ::-1]):
                got = bd._row_norms(view)
                assert np.array_equal(got, np.linalg.norm(view, axis=1)), view.shape


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direction_grid_built_once_and_read_only(n):
    for size in (None, 255):
        grid = bd.direction_grid(n, size)
        assert bd.direction_grid(n, size) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0
    assert bd.direction_grid(n, bd.GRID_SIZES[n]) is bd.direction_grid(n)


class TestTangentBases:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_tangent_and_equal_to_rowwise(self, n):
        rng = np.random.default_rng(40 + n)
        u = rng.normal(size=(200, n))
        e = np.eye(n)
        ties = np.ones((1, n))
        ties[0, -1] = 0.0
        u = np.vstack([u, e, -e, ties, np.ones((1, n))])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        T = bd.tangent_bases(u)
        assert T.shape == (len(u), n - 1, n)
        gram = np.einsum("mij,mkj->mik", T, T)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(n - 1), gram.shape),
                                   atol=1e-15)
        np.testing.assert_allclose(np.einsum("mij,mj->mi", T, u), 0.0, atol=1e-15)
        want = np.array([oracles.tangent_basis_row(x) for x in u])
        np.testing.assert_allclose(T, want, rtol=0, atol=1e-15)


class TestParsing:
    @pytest.mark.parametrize("text,maker", [
        ("ball:R=1.25", lambda: bd.ball(1.25, 2)),
        ("strip:w=0.6", lambda: bd.strip(0.6, 2)),
        ("cylinder:k=1,R=0.9", lambda: bd.cylinder(1, 0.9, 2)),
        ("box:a=0.7+1.2", lambda: bd.box((0.7, 1.2), 2)),
        ("lp_ball:r=1.1,p=4", lambda: bd.lp_ball(1.1, 4.0, 2)),
        ("ellipsoid:c=0.8+1.4", lambda: bd.ellipsoid((0.8, 1.4), 2)),
    ])
    def test_parse_matches_direct_construction(self, text, maker):
        K = bd.parse_body(text, 2)
        K2 = maker()
        rng = np.random.default_rng(23)
        th = rng.normal(size=(5, 2))
        th /= np.linalg.norm(th, axis=1, keepdims=True)
        np.testing.assert_allclose(bd.radial(K, th), bd.radial(K2, th), rtol=1e-12)

    def test_explicit_dimension_overrides_default(self):
        K = bd.parse_body("cylinder:k=2,R=0.9,n=3", 2)
        assert K.n == 3
        K2 = bd.cylinder(2, 0.9, 3)
        rng = np.random.default_rng(5)
        th = rng.normal(size=(5, 3))
        th /= np.linalg.norm(th, axis=1, keepdims=True)
        np.testing.assert_allclose(bd.radial(K, th), bd.radial(K2, th),
                                   rtol=1e-12)

    def test_compound_grammar(self):
        K = bd.parse_body("interp:lambda=0.4;ball:R=1|box:a=0.8+1.1", 2)
        B = bd.ball(1.0, 2)
        X = bd.catalog("box", 2, a=(0.8, 1.1))
        M = bd.interpolate(B, X, 0.4)
        u = _unit([1.0, 0.7])[None, :]
        assert K.support(u)[0] == pytest.approx(M.support(u)[0], rel=1e-12)

    def test_nested_interp_grammar(self):
        text = "interp:lambda=0.5;interp:lambda=0.25;ball:R=1|ball:R=2|strip:w=0.8"
        K = bd.parse_body(text, 2)
        inner = bd.interpolate(bd.ball(1.0, 2), bd.ball(2.0, 2), 0.25)
        M = bd.interpolate(inner, bd.strip(0.8, 2), 0.5)
        u = _unit([1.0, 0.0])[None, :]
        assert K.support(u)[0] == pytest.approx(M.support(u)[0], rel=1e-12)

    def test_translate_grammar(self):
        K = bd.parse_body("translate:v=0.3+0;ball:R=1", 2)
        assert K.shifted
        assert bd.gauge(K, np.array([1.3, 0.0])) == pytest.approx(1.0, abs=1e-9)

    def test_translate_leaving_origin_outside_is_refused(self):
        for text in ("translate:v=2+0;ball:R=1", "translate:v=1+0;ball:R=1",
                     "translate:v=0+0.9;box:a=1+0.8"):
            with pytest.raises(bd.BodyError, match="origin"):
                bd.parse_body(text, 2)

    def test_errors(self):
        with pytest.raises(bd.BodyError):
            bd.parse_body("pyramid:R=1", 2)
        with pytest.raises(bd.BodyError):
            bd.parse_body("ball", 2)
        with pytest.raises(bd.BodyError):
            bd.catalog("cylinder", 2, k=5, R=1.0)
        with pytest.raises(bd.BodyError, match="'w'"):
            bd.parse_body("strip:R=0.5", 2)

    @pytest.mark.parametrize("text", [
        "translate:;ball:R=2", "translate:ball:R=2", "translate:v=0.1+0,w=1;ball:R=1",
        "interp:lambda=0.5", "interp:;ball:R=1|ball:R=2",
        "interp:lambda=0.2+0.5;ball:R=1|ball:R=2",
        "ball:R", "ball:R=", "ball:R=abc", "box:a=1+x",
        "cylinder:k=1.5,R=1", "ball:R=1,n=2.5", "cylinder:k=1+1,R=1",
        "ball:R=1,foo=2", "ball:R=1,R=2", "ball:R=1+2",
        "lp_ball:r=1,p=1.5,n=-1", "lp_ball:r=1,p=3,n=0", "ball:R=1,n=0",
    ])
    def test_malformed_strings_raise_body_error(self, text):
        # a missing v= or lambda=, an item without =, a value that is not
        # a number, a fractional n or k, an n below 1, an unknown or
        # repeated key
        with pytest.raises(bd.BodyError):
            bd.parse_body(text, 2)

    def test_whole_number_dimension_and_k(self):
        K = bd.parse_body("cylinder:k=2.0,R=0.9,n=3.0", 2)
        assert (K.n, bd.round_cylinder(K)) == (3, (2, 0.9))

    @settings(max_examples=300, deadline=None)
    @given(body_strings)
    def test_any_grammar_string_parses_or_raises_body_error(self, text):
        try:
            K = bd.parse_body(text, 2)
        except bd.BodyError:
            return
        assert isinstance(K, bd.SupportBody)

    @pytest.mark.parametrize("text", [
        "ball:R=nan", "strip:w=nan", "cylinder:k=nan,R=1", "cylinder:k=1,R=nan",
        "box:a=nan+1", "box:a=0.5+nan", "lp_ball:r=nan,p=2", "lp_ball:r=1,p=nan",
        "ellipsoid:c=1+nan", "translate:v=nan+0;ball:R=1",
        "interp:lambda=nan;ball:R=1|ball:R=2", "interp:lambda=0.5;ball:R=1|ball:R=nan",
    ])
    def test_nan_parameters_are_refused(self, text):
        with pytest.raises(bd.BodyError):
            bd.parse_body(text, 2)

    def test_constructors_refuse_nan(self):
        nan = float("nan")
        for make in (lambda: bd.ball(nan, 2), lambda: bd.box([nan, 1.0]),
                     lambda: bd.offset_box([0.5, 1.0], nan),
                     lambda: bd.ellipsoid([1.0, nan]), lambda: bd.lp_ball(1.0, nan, 2),
                     lambda: bd.translate(bd.ball(1.0, 2), [nan, 0.0])):
            with pytest.raises(bd.BodyError):
                make()

    def test_lp_ball_refuses_infinite_p(self):
        # q = p / (p - 1) would be NaN, and |t|**inf would turn the radial
        # into that of the ball of radius r; the cube is box
        with pytest.raises(bd.BodyError, match="box"):
            bd.parse_body("lp_ball:r=1,p=inf", 2)

    def test_infinite_box_half_width_is_a_free_coordinate(self):
        K = bd.parse_body("box:a=0.5+inf", 2)
        th = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        np.testing.assert_array_equal(bd.radial(K, th), bd.radial(bd.strip(0.5, 2), th))


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1.0),
       R1=st.floats(min_value=0.2, max_value=2.0),
       R2=st.floats(min_value=0.2, max_value=2.0))
def test_ball_interpolation_radius_linear(lam, R1, R2):
    M = bd.interpolate(bd.ball(R1, 2), bd.ball(R2, 2), lam)
    th = np.array([[0.6, 0.8]])
    assert bd.radial(M, th)[0] == pytest.approx((1 - lam) * R1 + lam * R2,
                                                rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=0.1, max_value=3.0))
def test_gauge_scales_inversely_with_dilation(c):
    K = bd.catalog("ellipsoid", 2, c=(0.9, 1.3))
    x = np.array([0.5, -0.4])
    assert bd.gauge(bd.dilate(K, c), x) == pytest.approx(bd.gauge(K, x) / c,
                                                         rel=1e-10)
