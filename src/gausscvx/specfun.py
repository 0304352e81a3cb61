"""Scalar Gaussian kernels and their truncated moments.

Everything downstream is built from the weighted power kernel

    g_p(t) = t^p exp(-t^2/2),   t >= 0,

its cumulative integral J_p(R) = int_0^R g_p(t) dt, the total mass
J_p(inf) = Gamma((p+1)/2) 2^((p-1)/2), and the one-dimensional Gaussian
CDF pair

    psi(t) = P(Z <= t),   phi(t) = 2 psi(t) - 1 = P(|Z| <= t),  t >= 0.

Every kernel is evaluated in this module, from fixed coefficients and
closed forms, with numpy on arrays and with the math module on scalars:

- erf and erfc come from Cody's rational Chebyshev approximations, with
  exp(-t^2/2) taken from a split argument so psi keeps its relative
  accuracy deep in the lower tail;
- the Gaussian quantile is Wichura's AS241 (1988);
- J_p is defined for integer p >= 0 only.  Its tail
  U_p(R) = J_p(inf) - J_p(R) is closed: e^{-R^2/2} times a polynomial in
  R, plus a multiple of erfc(R/sqrt 2) for even p.  J_p is the positive
  power series up to R^2 = p + 1 (past the median) and J_p(inf) - U_p
  beyond, so it is accurate relative to itself down to R -> 0.  A table
  of consecutive orders (``j_lower_orders``) takes the top two from that
  kernel and the rest from the downward recurrence
  J_p = (J_{p+2} + g_{p+1}) / (p + 1), whose terms are all positive;
- the inverses of J_p are closed for p = 0, 1, and otherwise Householder
  steps on J_p, or on U_p above the median, so they stay accurate
  relative to 1 - q as the fraction q -> 1.

Measured against mpmath at 40 digits (``tests/test_specfun.py``), psi,
phi, their inverses, j_lower, j_lower_orders and j_inverse_regularized
stay within 2e-15 relative.  Inverses raise :class:`DomainError` where the result would be
infinite instead of returning ``inf``; a check of a measure's interval,
(0, 1) or [0, 1), raises it for NaN too.

All functions accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """Argument outside the open domain where the function is finite."""


# ---------------------------------------------------------------------------
# erf / erfc: W. J. Cody, "Rational Chebyshev approximations for the error
# function", Math. Comp. 23 (1969), coefficients as in his CALERF routine,
# stored highest degree first.  Evaluated in double precision on 6,000 points
# per range they were within 3.7e-16 (erf on |y| <= 0.46875), 6.8e-16
# (e^{y^2} erfc(y) on [0.46875, 4]) and 2.1e-16 (the same on [4, 1e4])
# relative of mpmath at 40 digits.

_ERF_SPLIT = 0.46875
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03)
_ERF_DEN = (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
            1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_MID_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
                 6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
                 1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_MID_DEN = (1.0, 1.57449261107098347e01, 1.17693950891312499e02,
                 5.37181101862009858e02, 1.62138957456669019e03, 3.29079923573345963e03,
                 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_ASY_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                 1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_ASY_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346725e00,
                 5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)
_RSQRT_PI = 0.56418958354775628695
_RSQRT2 = 0.70710678118654752440
_SQRT2 = 1.41421356237309504880
_SQRT_HALF_PI = 1.25331413731550025121
_SQRT_2PI = 2.50662827463100050242
# beyond this every tail term of this module is below the smallest double
_T_MAX = 64.0


# ---------------------------------------------------------------------------
# One code path, two carriers.  Each kernel below is written once and runs
# either on a numpy array or on a Python float; the helpers in this block
# are the only places that tell the two apart.  The public functions hand a
# scalar, or an array of at most _LOOP_MAX elements one element at a time,
# to the float carrier: below that size numpy's fixed cost per call (about a
# microsecond, some thirty float operations) outweighs its speed per element.
# ``g`` is the exception: it is one power and one exp, so its scalar path
# keeps numpy's ufuncs (on a Python float they run the loop an array would)
# and drops only the array bookkeeping.  math.exp and float ** can differ
# from numpy's exp and power by an ulp, which would move a crossing that
# ``cylinder`` solves on scalars away from the same point solved on arrays.

_LOOP_MAX = 16


def _on_floats(np_fn, math_fn):
    return lambda x: math_fn(x) if type(x) is float else np_fn(x)


def _math_exp(x: float) -> float:
    # numpy's exp overflows to inf; math.exp raises instead
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_exp = _on_floats(np.exp, _math_exp)
_expm1 = _on_floats(np.expm1, math.expm1)
_log = _on_floats(np.log, math.log)
_log1p = _on_floats(np.log1p, math.log1p)
_sqrt = _on_floats(np.sqrt, math.sqrt)
_trunc = _on_floats(np.trunc, lambda x: x - math.fmod(x, 1.0))


def _min(x, y):
    return min(x, y) if type(x) is float else np.minimum(x, y)


def _max(x, y):
    return max(x, y) if type(x) is float else np.maximum(x, y)


def _copysign(x, s):
    return math.copysign(x, s) if type(x) is float else np.copysign(x, s)


def _where(cond, a, b):
    if type(cond) is bool:
        return a if cond else b
    return np.where(cond, a, b)


def _all(cond) -> bool:
    return cond if type(cond) is bool else bool(cond.all())


def _piecewise(cond, f_true, f_false, *args):
    """f_true(*args) where cond holds and f_false(*args) elsewhere, each
    evaluated only on its own elements; arguments that are not arrays (the
    order p, constants) pass through whole."""
    if type(cond) is bool:
        return f_true(*args) if cond else f_false(*args)
    if cond.all():
        return f_true(*args)
    if not cond.any():
        return f_false(*args)
    out = np.empty(cond.shape)
    for f, part in ((f_true, cond), (f_false, ~cond)):
        out[part] = f(*(a[part] if isinstance(a, np.ndarray) else a for a in args))
    return out


def _arg(x):
    """x as a Python float if it is a scalar, else as a float array."""
    if type(x) is float:
        return x
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _any(cond) -> bool:
    return cond if type(cond) is bool else bool(cond.any())


def _within(x, lo: float, hi: float, lo_closed: bool = False) -> bool:
    """Whether lo < x < hi (lo <= x < hi with ``lo_closed``) for every
    element of x.  Written as the interval, not as a test of its complement,
    so that NaN lies outside it."""
    above = x >= lo if lo_closed else x > lo
    if type(x) is float:
        return above and x < hi
    return bool((above & (x < hi)).all())


def _apply(kernel, x, *fixed):
    """kernel(x, *fixed) on the float carrier for a scalar or a small array
    (element by element), else on the array whole."""
    if type(x) is float or x.size > _LOOP_MAX:
        return kernel(x, *fixed)
    return np.array([kernel(v, *fixed) for v in x.ravel().tolist()],
                    dtype=float).reshape(x.shape)


def _horner(coeffs, x):
    """Polynomial with at least two coefficients, highest degree first."""
    out = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _ratio(num, den, x):
    return _horner(num, x) / _horner(den, x)


# ---------------------------------------------------------------------------
# erf, erfc and the normal tail


def _erf_small(y):
    """erf(y) for |y| <= 0.46875."""
    return y * _ratio(_ERF_NUM, _ERF_DEN, y * y)


def _erfcx_mid(y):
    return _ratio(_ERFC_MID_NUM, _ERFC_MID_DEN, y)


def _erfcx_far(y):
    w = 1.0 / (y * y)
    return (_RSQRT_PI - w * _ratio(_ERFC_ASY_NUM, _ERFC_ASY_DEN, w)) / y


def _erfcx_large(y):
    """Scaled complement e^{y^2} erfc(y) for y >= 0.46875."""
    return _piecewise(y <= 4.0, _erfcx_mid, _erfcx_far, y)


def _erfcx_small(y):
    return _exp(y * y) * (1.0 - _erf_small(y))


def _erfcx(y):
    """Scaled complement e^{y^2} erfc(y) for y >= 0."""
    return _piecewise(y > _ERF_SPLIT, _erfcx_large, _erfcx_small, y)


def _exp_half_sq(t):
    """e^{-t^2/2} for 0 <= t <= _T_MAX, with t^2/2 split so the large part is exact.

    A plain exp(-t*t/2) inherits the rounding of t*t scaled by t^2/2, which
    is 8e-14 relative at t = 38.
    """
    hi = _trunc(t * 16.0) * 0.0625
    return _exp(-0.5 * hi * hi) * _exp(-0.5 * (t - hi) * (t + hi))


def _normal_center(t):
    return 0.5 - 0.5 * _erf_small(t * _RSQRT2)


def _normal_tail(t):
    t = _min(t, _T_MAX)
    return 0.5 * _exp_half_sq(t) * _erfcx_large(t * _RSQRT2)


def _normal_upper(t):
    """P(Z > t) for t >= 0, relative to itself."""
    return _piecewise(t <= _ERF_SPLIT * _SQRT2, _normal_center, _normal_tail, t)


def _erf_large(y):
    y = _min(y, _T_MAX)
    return 1.0 - _exp(-y * y) * _erfcx_large(y)


def _erf(y):
    """erf(y) for y >= 0."""
    return _piecewise(y <= _ERF_SPLIT, _erf_small, _erf_large, y)


def _psi(t):
    u = _normal_upper(abs(t))
    return _where(t < 0, u, 1.0 - u)


# ---------------------------------------------------------------------------
# Gaussian quantile: M. J. Wichura, "Algorithm AS241: The percentage points
# of the normal distribution", Applied Statistics 37 (1988), PPND16,
# coefficients highest degree first.  Wichura gives PPND16 about 1e-16
# relative accuracy; evaluated in double precision it measured within 2.9e-16
# of mpmath at 40 digits, so no Newton step follows.  The point is passed as
# its offset from 1/2 and its smaller tail, so neither is rounded through p.

_AS241_C_NUM = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
                4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
                1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_C_DEN = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
                2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
                4.2313330701600911252e1, 1.0)
_AS241_M_NUM = (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
                1.2704582524523683826e0, 3.6478483247632045605e0, 5.7694972214606914055e0,
                4.6303378461565452959e0, 1.4234371107496835773e0)
_AS241_M_DEN = (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
                1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
                2.0531916266377588219e0, 1.0)
_AS241_T_NUM = (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
                2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
                5.4637849111641143699e0, 6.6579046435011037772e0)
_AS241_T_DEN = (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
                7.8686913114561325910e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
                5.9983220655588793769e-1, 1.0)


def _as241_mid(r):
    return _ratio(_AS241_M_NUM, _AS241_M_DEN, r - 1.6)


def _as241_far(r):
    return _ratio(_AS241_T_NUM, _AS241_T_DEN, r - 5.0)


def _quantile_center(q, tail):
    return q * _ratio(_AS241_C_NUM, _AS241_C_DEN, 0.180625 - q * q)


def _quantile_outer(q, tail):
    r = _sqrt(-_log(tail))
    return _copysign(_piecewise(r <= 5.0, _as241_mid, _as241_far, r), q)


def _quantile(q, tail):
    """x with P(Z <= x) = 1/2 + q, given q and the smaller tail min(1/2 + q, 1/2 - q)."""
    return _piecewise(abs(q) <= 0.425, _quantile_center, _quantile_outer, q, tail)


def _psi_inv(a):
    return _quantile(a - 0.5, _min(a, 1.0 - a))


# ---------------------------------------------------------------------------
# J_p for integer p.  Integrating by parts, the tail is
#   U_p(R) = int_R^inf g_p = R^(p-1) e^{-R^2/2} + (p-1) U_{p-2}(R),
# U_1 = e^{-R^2/2} and U_0 = sqrt(pi/2) erfc(R/sqrt 2), so U_p is e^{-R^2/2}
# times [R^(p-1) + (p-1) R^(p-3) + ...] plus (p-1)!! U_0 for even p.  Up to
# z = R^2 = p + 1, the mean of chi^2_{p+1} and above its median, the lower
# integral is the positive series
#   J_p(R) = e^{-z/2} R^(p+1) sum_n z^n / ((p+1)(p+3)...(p+1+2n));
# beyond it J_p = J_p(inf) - U_p with U_p < J_p(inf)/2.

_SERIES_TOL = 2.0**-56


def _order(p) -> int:
    """p as an int, if it is an integer >= 0 (of any numeric type)."""
    try:
        k = int(p)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k < 0 or k != p:
        raise DomainError(f"J_p needs an integer order p >= 0, got {p!r}")
    return k


def _j_total(p: float) -> float:
    return math.gamma((p + 1.0) / 2.0) * 2.0 ** ((p - 1.0) / 2.0)


@lru_cache(maxsize=None)
def _tail_form(p: int) -> tuple[tuple[float, ...], float]:
    """Coefficients of R^(p-1), R^(p-3), ... in U_p e^{R^2/2}, and the weight
    (p-1)!! sqrt(pi/2) of e^{R^2/2} erfc(R/sqrt 2) (0 for odd p)."""
    coeffs, c = [], 1.0
    for e in range(p - 1, -1, -2):
        coeffs.append(c)
        c *= e
    return tuple(coeffs), (c * _SQRT_HALF_PI if p % 2 == 0 else 0.0)


@lru_cache(maxsize=None)
def _series_form(p: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Series coefficients b_n = 1/((p+1)(p+3)...(p+1+2n)), taken until
    b_n z^n / b_0 < _SERIES_TOL at z = p + 3, and for n >= 1 the increasing
    thresholds log z above which b_n z^n / b_0 >= _SERIES_TOL."""
    coeffs = [1.0 / (p + 1)]
    while coeffs[-1] / coeffs[0] * (p + 3.0) ** (len(coeffs) - 1) >= _SERIES_TOL:
        coeffs.append(coeffs[-1] / (p + 1 + 2 * len(coeffs)))
    thresholds = tuple((math.log(_SERIES_TOL) - math.log(b / coeffs[0])) / n
                       for n, b in enumerate(coeffs) if n)
    return tuple(coeffs), thresholds


def _tail(p: int, R, z, e):
    """U_p(R) from R, z = R^2 and e = e^{-z/2}, accurate relative to itself."""
    coeffs, w = _tail_form(p)
    # p = 0 has no polynomial part, p = 1 and 2 a constant one
    h = _horner(coeffs, z) if len(coeffs) > 1 else sum(coeffs)
    if p % 2:
        return e * h
    return e * (R * h + w * _erfcx(R * _RSQRT2))


def _series(p: int, R, z, e, c=None):
    """J_p(R) from the series, for z = R^2 < p + 3, with as many terms as
    the largest z needs (c, unused, matches _complement)."""
    coeffs, thresholds = _series_form(p)
    z_max = z if type(z) is float else float(z.max())
    n = 1 + (bisect.bisect_left(thresholds, math.log(z_max)) if z_max > 0 else 0)
    out = e * (_horner(coeffs[n - 1::-1], z) if n > 1 else coeffs[0])
    for _ in range((p + 1) // 2):
        out = out * z
    return out * R if p % 2 == 0 else out


def _complement(p: int, R, z, e, c: float):
    return c - _tail(p, R, z, e)


def _lower(p: int, R, z, e, c: float):
    """J_p(R) for p >= 2: the series below z = p + 1, c - U_p above."""
    return _piecewise(z < p + 1, _series, _complement, p, R, z, e, c)


def _j_lower(R, p: int):
    R = _min(R, _T_MAX)
    if p == 0:
        return _SQRT_HALF_PI * _erf(R * _RSQRT2)
    z = R * R
    if p == 1:
        return -_expm1(-0.5 * z)
    return _lower(p, R, z, _exp(-0.5 * z), _j_total(p))


def _keep(p: int, R, q):
    return R


def _wilson_hilferty(p: int, R, q):
    """Wilson-Hilferty R for J_p(R) = q J_p(inf), whatever the guess R."""
    a = 0.5 * (p + 1)
    cube = 1.0 - 1.0 / (9.0 * a) + _psi_inv(q) / (3.0 * math.sqrt(a))
    return _sqrt(2.0 * a * _max(cube, 0.0) ** 3)


def _start_below(p: int, q, mass):
    """First R for J_p(R) = mass <= J_p(inf)/2: from the series' leading
    terms, J ~ R^(p+1)/(p+1) e^{-z (p+1)/(2(p+3))}, where they give z below
    (p+1)/2, else Wilson-Hilferty."""
    R = (mass * (p + 1)) ** (1.0 / (p + 1))
    R = R * _exp(R * R / (2.0 * (p + 3)))
    return _piecewise(R * R < 0.5 * (p + 1), _keep, _wilson_hilferty, p, R, q)


def _start_above(p: int, q, mass):
    """First R for U_p(R) = mass < J_p(inf)/2: from the tail's leading terms,
    U ~ R^(p-1) e^{-z/2} (1 + (p-1)/z), by fixed-point steps on z, where
    they give z beyond 2.5 (p+1), else Wilson-Hilferty."""
    two_l = -2.0 * _log(mass)
    z = _max(two_l, p + 1.0)
    for _ in range(3):
        z = _max(two_l + (p - 1) * _log(z) + 2.0 * _log1p((p - 1) / z), p + 1.0)
    return _piecewise(z > 2.5 * (p + 1), _keep, _wilson_hilferty, p, _sqrt(z), q)


def _residual_above(p: int, R, z, e, mass, c: float):
    return mass - _tail(p, R, z, e)


def _residual_below(p: int, R, z, e, mass, c: float):
    return _lower(p, R, z, e, c) - mass


# Householder steps of order 3 quadruple the correct digits, so once a step
# is below 1e-5 relative the error left after it is far under an ulp.
_STEPS_MAX = 12
_STEP_DONE = 1e-5


def _householder(q, p: int):
    """R with J_p(R) = q J_p(inf) for p >= 2 and 0 < q < 1, by Householder
    steps of order 3 on J_p - q J_p(inf), or above the median on
    (1 - q) J_p(inf) - U_p; both have derivative g_p(R), whose own
    derivatives are g_p times polynomials in R and 1/R."""
    c = _j_total(p)
    upper = q > 0.5
    mass = _where(upper, 1.0 - q, q) * c
    R = _piecewise(upper, _start_above, _start_below, p, q, mass)
    for _ in range(_STEPS_MAX):
        z = R * R
        e = _exp(-0.5 * z)
        d = _piecewise(upper, _residual_above, _residual_below, p, R, z, e, mass, c)
        d = d / (e * R**p)
        h2 = p / R - R
        h3 = h2 * h2 - p / z - 1.0
        step = d * (1.0 - 0.5 * d * h2) / (1.0 - d * h2 + d * d * h3 / 6.0)
        R = _max(R - step, 0.5 * R)
        if _all(abs(step) <= _STEP_DONE * R):
            break
    return R


def _zero(q, p: int):
    return 0.0 * q


def _inverse(q, p: int):
    """R with J_p(R) = q J_p(inf), 0 <= q < 1: closed for p = 0 (the
    quantile at (1 + q)/2) and p = 1, Householder steps otherwise."""
    if p == 0:
        return _quantile(0.5 * q, 0.5 * (1.0 - q))
    if p == 1:
        return _sqrt(-2.0 * _log1p(-q))
    return _piecewise(q > 0.0, _householder, _zero, q, p)


def _eta(a):
    t = _psi_inv(a)
    return _SQRT_2PI * a * t * _exp(0.5 * t * t)


def _phi(t):
    return _erf(t * _RSQRT2)


# ---------------------------------------------------------------------------
# public kernels


def g(p: float, t) -> np.ndarray | float:
    """Weighted power kernel g_p(t) = t^p exp(-t^2/2) for t >= 0.

    A scalar t stays a Python float throughout, but its power and exp are
    numpy's (see "One code path, two carriers"), so g(p, t) equals
    g(p, np.array([t]))[0] bit for bit.
    """
    tt = _arg(t)
    if _any(tt < 0):
        raise DomainError("g requires t >= 0")
    if p < 0 and _any(tt == 0):
        raise DomainError("g with p < 0 diverges at t = 0")
    if type(tt) is float:
        if tt == math.inf:
            return 0.0
        return float(np.power(tt, p) * np.exp(-(tt * tt) / 2.0))
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(tt), 0.0, tt**p * np.exp(-(tt**2) / 2.0))


def j_total(p: float) -> float:
    """Total mass J_p(inf) = Gamma((p+1)/2) * 2^((p-1)/2); requires p > -1."""
    if p <= -1:
        raise DomainError("j_total requires p > -1")
    return _j_total(p)


def j_lower(p: int, R) -> np.ndarray | float:
    """Truncated moment J_p(R) = int_0^R t^p exp(-t^2/2) dt for integer p >= 0.

    Accurate relative to J_p(R) itself, from R = 0 (exactly 0) to R = inf
    (exactly j_total(p)).  Raises :class:`DomainError` for a non-integer or
    negative p.
    """
    k = _order(p)
    RR = _arg(R)
    if _any(RR < 0):
        raise DomainError("j_lower requires R >= 0")
    return _apply(_j_lower, RR, k)


def j_lower_orders(p: int, q: int, R) -> np.ndarray:
    """Rows J_p(R), J_{p+1}(R), ..., J_q(R) for integers 0 <= p <= q.

    Only J_q and J_{q-1} come from the kernel (``j_lower``).  Each lower
    order follows from the one two above it by integration by parts,

        J_k(R) = (J_{k+2}(R) + g_{k+1}(R)) / (k + 1),

    whose terms are both positive: nothing cancels, and an error carried
    down shrinks by the weight J_{k+2} / (J_{k+2} + g_{k+1}) < 1 at each
    step.  Like ``j_lower``, every row is exactly 0 at R = 0 and exactly
    j_total at R = inf.  The result has shape (q - p + 1,) + shape(R).
    """
    lo, hi = _order(p), _order(q)
    if lo > hi:
        raise DomainError(f"j_lower_orders needs p <= q, got {p!r} > {q!r}")
    RR = _arg(R)
    if _any(RR < 0):
        raise DomainError("j_lower_orders requires R >= 0")
    rows = [None] * (hi - lo + 1)
    for k in range(max(lo, hi - 1), hi + 1):
        rows[k - lo] = _apply(_j_lower, RR, k)
    if hi - lo >= 2:
        Rc = _min(RR, _T_MAX)
        g_k = _exp(-0.5 * Rc * Rc) * Rc ** (lo + 1)  # g_{lo+1}; 0, not inf * 0, at R = inf
        g = [g_k]
        for _ in range(lo + 2, hi):
            g_k = g_k * Rc
            g.append(g_k)
        far = RR >= _T_MAX
        for k in range(hi - 2, lo - 1, -1):
            row = (rows[k + 2 - lo] + g[k - lo]) / (k + 1)
            # beyond _T_MAX the kernel's rows are the totals; keep them exact
            rows[k - lo] = _where(far, _j_total(k), row) if _any(far) else row
    return np.array(rows) if lo < hi else np.asarray(rows[0])[np.newaxis]


def j_inverse_regularized(p: int, q) -> np.ndarray | float:
    """Inverse of R -> j_lower(p, R) / j_total(p) on [0, 1), integer p >= 0.

    R is taken from the fraction q itself (above q = 1/2, from the tail
    1 - q, which is exact there), so it stays accurate relative to 1 - q as
    q -> 1; scaling q by j_total(p) and back would round it by an ulp first.
    Raises :class:`DomainError` for q < 0, q >= 1 or NaN, and for a
    non-integer or negative p.
    """
    k = _order(p)
    qq = _arg(q)
    if not _within(qq, 0.0, 1.0, lo_closed=True):
        raise DomainError("j_inverse_regularized requires 0 <= q < 1")
    return _apply(_inverse, qq, k)


def psi(t) -> np.ndarray | float:
    """Standard Gaussian CDF."""
    return _apply(_psi, _arg(t))


def psi_inv(a) -> np.ndarray | float:
    """Gaussian quantile; domain (0, 1) open, endpoints and NaN raise."""
    aa = _arg(a)
    if not _within(aa, 0.0, 1.0):
        raise DomainError("psi_inv requires 0 < a < 1")
    return _apply(_psi_inv, aa)


def phi(t) -> np.ndarray | float:
    """Symmetric-interval CDF phi(t) = P(|Z| <= t) = erf(t/sqrt(2)), t >= 0."""
    tt = _arg(t)
    if _any(tt < 0):
        raise DomainError("phi requires t >= 0")
    return _apply(_phi, tt)


def phi_inv(a) -> np.ndarray | float:
    """Inverse of phi on [0, 1); phi_inv(1) would be infinite and raises, as
    does NaN."""
    aa = _arg(a)
    if not _within(aa, 0.0, 1.0, lo_closed=True):
        raise DomainError("phi_inv requires 0 <= a < 1")
    return _apply(_inverse, aa, 0)


def eta(a) -> np.ndarray | float:
    """Half-space first-variation ratio sqrt(2 pi) a psi_inv(a) e^{psi_inv(a)^2/2}.

    Defined on (0, 1), outside which (NaN included) it raises; it vanishes
    at a = 1/2, is bounded below by -1, and grows without bound as a -> 1.
    """
    aa = _arg(a)
    if not _within(aa, 0.0, 1.0):
        raise DomainError("eta requires 0 < a < 1")
    return _apply(_eta, aa)
