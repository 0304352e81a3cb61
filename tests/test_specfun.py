"""Scalar kernel layer: quadrature oracles, identities, inverses."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscvx import specfun as sf

import oracles


# 30 (p, R) pairs used by the recurrence suite
RECURRENCE_PAIRS = [(p, R) for p in range(6) for R in (0.25, 0.7, 1.3, 2.4, 4.0)]


class TestKernelValues:
    def test_g_matches_direct_formula(self):
        t = np.linspace(0.0, 5.0, 41)
        for p in (0.0, 1.0, 2.5, 4.0):
            np.testing.assert_allclose(sf.g(p, t[1:]), t[1:]**p * np.exp(-t[1:]**2 / 2),
                                       rtol=1e-14)

    def test_j_lower_vs_quadrature(self):
        for p in (0, 1, 2, 3, 5):
            for R in (0.3, 1.0, 2.2, 5.0):
                assert sf.j_lower(p, R) == pytest.approx(oracles.j_quad(p, R), rel=1e-11)

    def test_j_total_vs_quadrature(self):
        for p in (0, 1, 2, 3, 4, 6):
            assert sf.j_total(p) == pytest.approx(oracles.j_total_quad(p), rel=1e-12)

    def test_recurrence_thirty_pairs(self):
        # J_{p+2}(R) = (p+1) J_p(R) - g_{p+1}(R), checked as stated on the
        # shifted index set used everywhere downstream
        assert len(RECURRENCE_PAIRS) == 30
        for p, R in RECURRENCE_PAIRS:
            lhs = sf.j_lower(p + 2, R)
            rhs = (p + 1) * sf.j_lower(p, R) - sf.g(p + 1, R)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


class TestCdfPair:
    def test_psi_matches_scipy(self):
        t = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(sf.psi(t), oracles.normal_cdf(t), rtol=0, atol=1e-14)

    def test_phi_matches_scipy(self):
        w = np.linspace(0, 6, 61)
        np.testing.assert_allclose(sf.phi(w), oracles.strip_measure(w), rtol=0, atol=1e-14)

    def test_inverse_round_trips(self):
        a = np.linspace(1e-6, 1 - 1e-6, 257)
        np.testing.assert_allclose(sf.psi(sf.psi_inv(a)), a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sf.phi(sf.phi_inv(a)), a, rtol=0, atol=1e-12)
        # the quantile direction amplifies eps by 1/density, so scale the budget
        t = np.linspace(-5, 5, 101)
        budget = 1e-12 + 8 * np.finfo(float).eps / (np.exp(-t**2 / 2) / np.sqrt(2 * np.pi))
        assert np.all(np.abs(sf.psi_inv(sf.psi(t)) - t) <= budget)

    def test_domain_errors(self):
        with pytest.raises(sf.DomainError):
            sf.psi_inv(1.5)
        with pytest.raises(sf.DomainError):
            sf.phi_inv(-0.1)
        with pytest.raises(sf.DomainError):
            sf.j_inverse_regularized(1, -0.5)
        with pytest.raises(sf.DomainError):
            sf.j_inverse_regularized(1, 1.0)

    @pytest.mark.parametrize("p", [2.5, -1, -2.0, float("nan"), "2", None])
    def test_j_order_must_be_a_nonnegative_integer(self, p):
        for f, x in ((sf.j_lower, 1.0), (sf.j_inverse_regularized, 0.5)):
            with pytest.raises(sf.DomainError):
                f(p, x)

    def test_j_order_of_any_integer_type(self):
        want = sf.j_lower(3, 1.2)
        assert sf.j_lower(np.int64(3), 1.2) == want
        assert sf.j_lower(3.0, 1.2) == want
        # g keeps a real order
        assert sf.g(2.5, 1.2) == pytest.approx(1.2**2.5 * np.exp(-0.72), rel=1e-15)


class TestEta:
    def test_zero_at_half(self):
        assert sf.eta(0.5) == 0.0

    def test_closed_form(self):
        for a in (0.2, 0.4, 0.7, 0.95):
            b = oracles.normal_quantile(a)
            expected = np.sqrt(2 * np.pi) * a * b * np.exp(b * b / 2)
            assert sf.eta(a) == pytest.approx(expected, rel=1e-13)

    def test_floor(self):
        # eta(a) >= -1 with the infimum approached as a -> 0
        a = np.linspace(1e-4, 1 - 1e-4, 999)
        assert np.all(sf.eta(a) >= -1.0)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(min_value=0, max_value=8),
       R=st.floats(min_value=1e-3, max_value=8.0))
def test_j_lower_increasing_and_bounded(p, R):
    v = sf.j_lower(p, R)
    assert 0.0 < v < sf.j_total(p)
    assert sf.j_lower(p, R + 0.1) > v


@settings(max_examples=60, deadline=None)
@given(p=st.integers(min_value=0, max_value=6),
       y=st.floats(min_value=1e-8, max_value=0.999))
def test_j_inverse_round_trip(p, y):
    target = y * sf.j_total(p)
    R = sf.j_inverse_regularized(p, y)
    assert sf.j_lower(p, R) == pytest.approx(target, rel=1e-10, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=-4.0, max_value=4.0))
def test_psi_slope_is_density(t):
    # central difference carries ~eps/h roundoff, so the budget is absolute
    slope = oracles.fd_slope(lambda s: float(sf.psi(s)), t)
    assert slope == pytest.approx(np.exp(-t * t / 2) / np.sqrt(2 * np.pi),
                                  rel=1e-4, abs=1e-9)


# ---------------------------------------------------------------------------
# against mpmath at 40 digits.  Every point is evaluated twice: in one array
# of more than 16 elements (the numpy carrier) and one scalar at a time (the
# float carrier); both must be within REL of the 40-digit value.

mp = mpmath.mp.clone()
mp.dps = 40
REL = 2e-15
TINY = np.finfo(float).tiny


def both_carriers(f, xs):
    xs = [float(x) for x in xs]
    batch = f(np.array(xs * (1 + 17 // len(xs))))[:len(xs)]
    return [(x, float(v), float(f(x))) for x, v in zip(xs, batch)]


def rel_err(value, ref) -> float:
    return float(abs((mp.mpf(value) - ref) / ref))


def lower_gamma_reg(a, x):
    """P(a, x) as x^a e^-x / Gamma(a+1) 1F1(1; a+1; x): all terms positive."""
    return x**a * mp.exp(-x) / mp.gamma(a + 1) * mp.hyp1f1(1, a + 1, x)


def newton_rel(x, residual, slope) -> float:
    """|dx / x| for the mpmath Newton correction dx = residual(x) / slope(x),
    the relative error of x to first order in dx."""
    xm = mp.mpf(x)
    return float(abs(residual(xm) / slope(xm) / xm))


T_GRID = np.concatenate([np.linspace(-38.0, 38.0, 154),
                         [-1e-12, -1e-3, 1e-3, 1e-12, 0.0]])
A_POINTS = [1e-300, 1e-30, 1e-10, 0.3, 0.5 - 1e-9, 0.5 + 1e-9, 0.9, 1 - 1e-12, 1 - 2.0**-53]
R_POINTS = [0.0, 1e-3, 0.05, 0.3, 1.0, 2.4, 6.0, 12.0, 40.0, np.inf]
Q_POINTS = [0.0, 1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-16]


class TestAgainstMpmath:
    def test_psi(self):
        for t, batch, single in both_carriers(sf.psi, T_GRID):
            ref = mp.ncdf(t)
            for v in (batch, single):
                if ref < TINY:
                    # a subnormal result carries an absolute, not relative, ulp
                    assert abs(mp.mpf(v) - ref) <= 2 * 2.0**-1074, t
                else:
                    assert rel_err(v, ref) <= REL, t

    def test_phi(self):
        for t, batch, single in both_carriers(sf.phi, np.abs(T_GRID)):
            ref = mp.erf(mp.mpf(t) / mp.sqrt(2))
            for v in (batch, single):
                assert (v == 0.0) if t == 0.0 else rel_err(v, ref) <= REL, t

    def test_psi_inv(self):
        for a, batch, single in both_carriers(sf.psi_inv, A_POINTS):
            am = mp.mpf(a)
            if a <= 0.5:
                residual = lambda x: mp.ncdf(x) - am
            else:
                residual = lambda x: (1 - am) - mp.ncdf(-x)
            for v in (batch, single):
                assert newton_rel(v, residual, mp.npdf) <= REL, a

    def test_phi_inv(self):
        for a, batch, single in both_carriers(sf.phi_inv, A_POINTS):
            am = mp.mpf(a)
            if a <= 0.5:
                residual = lambda x: mp.erf(x / mp.sqrt(2)) - am
            else:
                residual = lambda x: (1 - am) - mp.erfc(x / mp.sqrt(2))
            for v in (batch, single):
                assert newton_rel(v, residual, lambda x: 2 * mp.npdf(x)) <= REL, a

    @pytest.mark.parametrize("p", range(9))
    def test_j_lower(self, p):
        total = mp.gamma(mp.mpf(p + 1) / 2) * mp.mpf(2) ** (mp.mpf(p - 1) / 2)
        assert rel_err(sf.j_total(p), total) <= REL
        for R, batch, single in both_carriers(lambda R: sf.j_lower(p, R), R_POINTS):
            for v in (batch, single):
                if R == 0.0:
                    assert v == 0.0
                elif R == np.inf:
                    assert v == sf.j_total(p)
                else:
                    x = mp.mpf(R) ** 2 / 2
                    ref = total * lower_gamma_reg(mp.mpf(p + 1) / 2, x)
                    assert rel_err(v, ref) <= REL, R

    @pytest.mark.parametrize("q", range(10))
    def test_j_lower_orders(self, q):
        # rows 0..q: the kernel at q and q - 1, the recurrence below them;
        # one array of more than 16 points and one scalar at a time
        batch_table = sf.j_lower_orders(0, q, np.array(R_POINTS * 2))
        for i, R in enumerate(R_POINTS):
            batch, single = batch_table[:, i], sf.j_lower_orders(0, q, R)
            assert single.shape == (q + 1,)
            for p in range(q + 1):
                for v in (batch[p], single[p]):
                    if R == 0.0:
                        assert v == 0.0
                    elif R == np.inf:
                        assert v == sf.j_total(p)
                    else:
                        total = mp.gamma(mp.mpf(p + 1) / 2) * mp.mpf(2) ** (mp.mpf(p - 1) / 2)
                        ref = total * lower_gamma_reg(mp.mpf(p + 1) / 2, mp.mpf(R) ** 2 / 2)
                        assert rel_err(v, ref) <= REL, (p, R)

    @pytest.mark.parametrize("p", range(9))
    def test_j_inverse_regularized_relative_to_one_minus_q(self, p):
        a = mp.mpf(p + 1) / 2
        total = mp.gamma(a) * mp.mpf(2) ** (a - 1)

        def slope(R):
            return R**p * mp.exp(-R * R / 2) / total

        for q, batch, single in both_carriers(lambda q: sf.j_inverse_regularized(p, q), Q_POINTS):
            qm = mp.mpf(q)
            if q <= 0.5:
                residual = lambda R: lower_gamma_reg(a, R * R / 2) - qm
            else:
                # the tail 1 - q is exact in double precision here
                residual = lambda R: (1 - qm) - mp.gammainc(a, R * R / 2, mp.inf,
                                                            regularized=True)
            for v in (batch, single):
                if q == 0.0:
                    assert v == 0.0
                else:
                    assert newton_rel(v, residual, slope) <= REL, q
