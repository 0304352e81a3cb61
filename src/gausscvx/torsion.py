"""Gaussian torsional rigidity: exact radial solvers and lower bounds.

For a source profile F and the Ornstein-Uhlenbeck operator
L = Laplacian - <x, grad>, the F-torsional rigidity of K is

    T^F(K) = sup_{v = 0 on bdry K} (int F v)^2 / int |grad v|^2,

integrals normalized by gamma(K); the supremum is attained at the
Dirichlet solution of Lu = F and equals int |grad u|^2 there.

On radially reducible domains (round k-cylinders, with balls and strips
as special cases, and half-spaces) the solution is an integral,

    u'(r) = r^{1-k} e^{r^2/2} int_0^r s^{k-1} e^{-s^2/2} F(s) ds,

and no general PDE solver is needed: the inner integral is one cumulative
integral and the energy one definite integral, both on the adaptive
Chebyshev panels of ``panels``.  General symmetric bodies get lower
bounds: the in-radius test-function bound (``torsion_gauge_lower``) and
the Rayleigh quotient of explicit gauge polynomials (``rayleigh``).

``talenti_1d`` verifies the 1-D Gaussian symmetrization comparison:
rearranging the source onto the half-line can only increase the solution,
u* <= v pointwise.  F and u go through one Gaussian (Ehrhard)
rearrangement of sampled monotone pieces, ``_rearrange``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import body as bd
from . import gaussmoments as gm
from . import panels as pn
from . import specfun as sf

_EPS = 1e-12
_FD_STEP = 1e-5  # step of the tangential differences in ``rayleigh``
# Talenti grids: samples per monotone piece of F, solve nodes, reported points
_PIECE_GRID, _SOLVE_GRID, _REPORT_POINTS = 4001, 20001, 41


class TorsionFailure(RuntimeError):
    """Unresolved quadrature in a torsion computation."""


@dataclass(frozen=True)
class TorsionResult:
    value: float
    err: float
    kind: str  # exact_radial | halfspace | gauge_lower
    components: dict | None = None


def torsion_radial(k: int, R: float, F) -> TorsionResult:
    """T^F of the round k-cylinder of radius R, F radial on [0, R].

    The ambient dimension does not enter: the free coordinates integrate
    out of both the energy and the normalization.  F is called on arrays of
    radii and may return a scalar.  A load or energy that is not finite on
    [0, R] raises ``panels.NumericalFailure``.
    """
    if R <= 0 or k < 1:
        raise ValueError("need R > 0 and k >= 1")
    inner = pn.Cumulative(lambda s: s ** (k - 1) * np.exp(-s * s / 2.0) * F(s),
                          [0.0, R], 0.0, 0.0)

    def energy_density(r):
        # Chebyshev nodes are interior, so r > 0
        with np.errstate(over="ignore", invalid="ignore"):
            return r ** (1 - k) * np.exp(r * r / 2.0) * inner(r) ** 2

    num, nerr = pn.integrate(energy_density, inner.edges)
    den = float(sf.j_lower(k - 1, R))
    if not np.isfinite(num):
        # finite panels whose sum overflows
        raise TorsionFailure("radial torsion quadrature did not resolve")
    return TorsionResult(num / den, (nerr + _EPS) / den, "exact_radial")


def torsion_halfspace(a: float) -> TorsionResult:
    """F = 1 torsion of the half-space {x_1 <= psi_inv(a)}."""
    if not 0.0 < a < 1.0:
        raise sf.DomainError("a must lie in (0,1)")
    b = float(sf.psi_inv(a))
    lo = min(b, 0.0) - 12.0

    def density(t):
        # (sqrt(2pi) psi(t) e^{t^2/2})^2 e^{-t^2/2} / sqrt(2pi)
        return np.sqrt(2.0 * np.pi) * sf.psi(t) ** 2 * np.exp(t * t / 2.0)

    val, err = pn.integrate(density, [lo, b])
    # below the cutoff the integrand is under e^{-t^2/2}/(2 pi t^2) / sqrt(2 pi)
    tail = np.exp(-lo * lo / 2.0) / (np.sqrt(2.0 * np.pi) * 2.0 * np.pi * lo * lo)
    return TorsionResult(val / a, (err + tail) / a, "halfspace")


def torsion_gauge_lower(K: bd.SupportBody, F: gm.RayPolynomial,
                        sample: gm.PolarSample | None = None) -> TorsionResult:
    """Lower bounds for T^F(K) from moments.

    The in-radius test-function bound

        T^F >= r(K)^2 (E[F (1 - ||X||_K^2)])^2 / (4 E||X||_K^2)

    holds for any F and is an equality on round cylinders with
    F = k - |x_{1..k}|^2.  The measure-only floor phi_inv(a)^2/(4 e^2 n^2)
    bounds the F = 1 torsion only, so it participates in the returned
    value just for F = 1; both numbers are recorded.

    The moments are one batch on ``sample``, a polar sample of K (default:
    K's default-rule sample).
    """
    r = bd.inradius(K)
    if r is None:
        raise bd.BodyError("in-radius unavailable for this body")
    one, gauge2 = gm.RayPolynomial.constant(1.0), gm.RayPolynomial.gauge_power(2)
    s = sample if sample is not None else gm.polar_sample(K)
    a, (gK2, cross) = s.means(gauge2, F * (one - gauge2))
    last_touch = r * r * cross.value**2 / (4.0 * gK2.value)
    lt_err = (2.0 * r * r * abs(cross.value) * cross.err / (4.0 * gK2.value)
              + last_touch * gK2.err / gK2.value)
    floor = float(sf.phi_inv(a.value)) ** 2 / (4.0 * np.e**2 * K.n**2)
    value = max(last_touch, floor) if F.terms == one.terms else last_touch
    return TorsionResult(value, lt_err, "gauge_lower",
                         components={"last_touch": last_touch, "measure_floor": floor})


def torsion_one(K: bd.SupportBody) -> TorsionResult:
    """The F = 1 torsion of K: exact on round cylinders (strips and balls
    included), else the gauge lower bound on K's default-rule sample."""
    rc = bd.round_cylinder(K)
    if rc is not None:
        return torsion_radial(*rc, np.ones_like)
    return torsion_gauge_lower(K, gm.RayPolynomial.constant(1.0))


def rayleigh(K: bd.SupportBody, F: gm.RayPolynomial, gauge_poly,
             rule: gm.SphereRule | None = None) -> gm.Estimate:
    """Rayleigh quotient (int F v)^2 / int |grad v|^2 for v = P(||x||_K).

    P is given by its coefficient list and must vanish at 1 (so v = 0 on
    the boundary).  |grad v|^2 along the ray t theta is
    P'(t q)^2 (q^2 + |grad_S q|^2) with q = 1/rho; the tangential part
    |grad_S q| comes from symmetric differences on the sphere.
    """
    P = np.asarray(gauge_poly, dtype=float)
    if abs(np.polyval(P[::-1], 1.0)) > 1e-10:
        raise ValueError("test function must vanish on the boundary: P(1) = 0")
    v = gm.RayPolynomial({((), 0, j): c for j, c in enumerate(P)})
    dP = np.array([j * P[j] for j in range(1, len(P))])
    b = np.convolve(dP, dP) if len(dP) else np.zeros(1)

    s = gm.polar_sample(K, rule)
    q, grad_tan2 = _gauge_slope_sq(K, s.rule.points, s.rho, _FD_STEP)
    grad = {m: b[m] * q**m * (q**2 + grad_tan2) for m in range(len(b))}
    _, (fv, grad2) = s.means(F * v, grad)
    if grad2.value <= 0:
        raise TorsionFailure("degenerate gradient energy")
    quotient = fv.times(fv).over(grad2)
    # tangential finite differences contribute O(_FD_STEP^2) relative noise
    return gm.Estimate(quotient.value, quotient.err + abs(quotient.value) * _FD_STEP,
                       "quadrature")


def _inverse_radial(rho: np.ndarray) -> np.ndarray:
    """q = 1/rho, 0 along rays that never leave the body."""
    with np.errstate(divide="ignore"):
        return np.where(np.isinf(rho), 0.0, 1.0 / rho)


def _gauge_slope_sq(K: bd.SupportBody, pts: np.ndarray, rho: np.ndarray, h: float):
    """(q, |grad_S q|^2) at unit directions pts with radii rho, q = 1/rho."""
    q = _inverse_radial(rho)
    if K.n == 1:
        return q, np.zeros_like(q)
    tangents = bd.tangent_bases(pts)
    grad2 = np.zeros(len(pts))
    for axis in range(K.n - 1):
        plus = pts + h * tangents[:, axis]
        minus = pts - h * tangents[:, axis]
        plus /= bd._row_norms(plus)[:, None]
        minus /= bd._row_norms(minus)[:, None]
        qp = _inverse_radial(np.asarray(bd.radial(K, plus), dtype=float))
        qm = _inverse_radial(np.asarray(bd.radial(K, minus), dtype=float))
        grad2 += ((qp - qm) / (2.0 * h)) ** 2
    return q, grad2


# ---------------------------------------------------------------------------
# 1-D Gaussian symmetrization (Talenti comparison)


@dataclass(frozen=True)
class TalentiReport:
    a: float              # gamma_1(K)
    beta: float           # psi_inv(a), right end of the half-line
    s_grid: np.ndarray
    u_star: np.ndarray
    v: np.ndarray
    max_gap: float        # max(u* - v); the comparison asserts <= 0 + tol
    u_min: float          # min of u on K (maximum principle check)
    boundary_residual: float  # |u(w2)| from the grid solve


def _strict_inverse(x: np.ndarray, y: np.ndarray) -> tuple:
    """Trim to a strictly increasing y so (y -> x) can be interpolated."""
    keep = np.concatenate(([True], np.diff(y) > 0))
    return y[keep], x[keep]


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's one-sided three-point end slope, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _monotone_interp(x: np.ndarray, y: np.ndarray):
    """PCHIP, the shape-preserving cubic Hermite interpolant of a table
    with x strictly increasing (Fritsch & Carlson 1980), clamped at the ends.

    The slopes are scipy's ``PchipInterpolator``'s: inside, the weighted
    harmonic mean of the two adjacent secants, 0 where they change sign or
    one is flat; at the ends, Moler's.  The cubic is summed in powers of the
    offset into its interval.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(len(x), m[0])
    if len(x) > 2:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    excess = (d[:-1] + d[1:] - 2.0 * m) / h
    c2, c3 = (m - d[:-1]) / h - excess, excess / h

    def f(q):
        q = np.clip(np.asarray(q, dtype=float), x[0], x[-1])
        i = np.minimum(np.searchsorted(x, q, side="right") - 1, len(h) - 1)
        s = q - x[i]
        s2 = s * s
        return y[i] + d[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return f


def _monotone_level_lengths(t: np.ndarray, f: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """gamma_1 measure of {f > tau} for f monotone on the grid t."""
    if f.max() - f.min() <= 1e-15 * (1.0 + abs(f[0])):
        full = float(sf.psi(t[-1]) - sf.psi(t[0]))
        return np.where(taus < f[0], full, 0.0)
    if f[-1] < f[0]:  # decreasing: {f > tau} runs from the left end
        t, f = t[::-1], f[::-1]
    ygrid, xgrid = _strict_inverse(t, f)
    return np.abs(sf.psi(t[-1]) - sf.psi(_monotone_interp(ygrid, xgrid)(taus)))


def _rearrange(pieces, a: float):
    """Decreasing rearrangement onto (-inf, psi_inv(a)] of a function
    sampled as monotone pieces [(t, f(t))] of a set of measure a: the
    vectorized f* with psi(s) = gamma_1{f > f*(s)}, the measures summed
    over the pieces at the sampled values and on a uniform grid of levels.
    """
    all_vals = np.concatenate([fv for _, fv in pieces])
    fmin, fmax = float(all_vals.min()), float(all_vals.max())
    if fmax - fmin <= 1e-15 * (1.0 + abs(fmax)):
        return lambda s: np.full_like(np.asarray(s, dtype=float), fmax) if np.ndim(s) else fmax
    taus = np.unique(np.concatenate([np.linspace(fmin, fmax, 4 * _PIECE_GRID), all_vals]))
    # mirror-image pieces sample the same level up to rounding; such
    # near-duplicate levels would give PCHIP secants made of rounding noise
    taus = taus[np.concatenate(([True], np.diff(taus) > 1e-12 * (fmax - fmin)))]
    m_of_tau = sum(_monotone_level_lengths(t, fv, taus) for t, fv in pieces)
    m_strict, tau_strict = _strict_inverse(taus[::-1], m_of_tau[::-1])
    inv = _monotone_interp(m_strict, tau_strict)

    def f_star(s):
        target = np.asarray(sf.psi(np.asarray(s, dtype=float)))
        out = inv(np.clip(target, 0.0, a))
        return out if out.ndim else float(out)

    return f_star


def ehrhard_rearrange_1d(f, w1: float, w2: float, extrema=()):
    """Decreasing rearrangement of f|[-w1,w2] onto (-inf, psi_inv(a)].

    ``extrema`` lists interior critical points splitting f into monotone
    pieces, each sampled on ``_PIECE_GRID`` points.  Returns (vectorized
    f_star on the half-line, a).
    """
    a = float(sf.psi(w2) - sf.psi(-w1))
    ends = [-w1, *sorted(extrema), w2]
    ts = [np.linspace(lo, hi, _PIECE_GRID) for lo, hi in zip(ends[:-1], ends[1:])]
    return _rearrange([(t, np.asarray(f(t), dtype=float) * np.ones_like(t)) for t in ts], a), a


def _parabola_areas(y0, y1, y2, h0, h1):
    """Integrals between x0 and x1 of the parabolas through (x0, y0),
    (x1, y1), (x2, y2), with h0 = |x1 - x0| and h1 = |x2 - x1|; the three
    points may run either way."""
    r = h0 / (h0 + h1)
    rr = r * (h0 / h1)
    return h0 / 6.0 * ((3.0 - r) * y0 + (3.0 + rr + r) * y1 - rr * y2)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integrals of the samples y(x) from x[0] to each x, 0 first.

    x is strictly increasing, with at least 3 points and spacings that may
    differ.  The points pair up from the left: each pair of intervals takes
    the parabola through its three points, and a last interval left over
    takes the parabola through the last three.
    """
    h = np.diff(x)
    y0, y1, y2, h0, h1 = y[:-2:2], y[1:-1:2], y[2::2], h[:-1:2], h[1::2]
    parts = np.empty(len(h))
    parts[:-1:2] = _parabola_areas(y0, y1, y2, h0, h1)
    parts[1::2] = _parabola_areas(y2, y1, y0, h1, h0)
    parts[-1] = _parabola_areas(y[-1], y[-2], y[-3], h[-1], h[-2])
    return np.concatenate(([0.0], np.cumsum(parts)))


def _grid_dirichlet_interval(w1: float, w2: float, F):
    """Dense-grid solve of u'' - t u' = -F on [-w1, w2], u = 0 at the ends."""
    t = np.linspace(-w1, w2, _SOLVE_GRID)
    weight = np.exp(-t * t / 2.0)
    fvals = np.asarray(F(t), dtype=float) * np.ones_like(t)
    if fvals.min() < -1e-12:
        raise ValueError("source must be nonnegative")
    G = _cumulative_simpson(fvals * weight, t)
    growth = np.exp(t * t / 2.0)
    C = _cumulative_simpson(growth * G, t)[-1] / _cumulative_simpson(growth, t)[-1]
    u = _cumulative_simpson(growth * (C - G), t)
    return t, u, float(abs(u[-1]))


def talenti_1d(w1: float, w2: float, F, extrema=()) -> TalentiReport:
    """Compare the rearranged interval solution with the half-line solution.

    Solves Lu = -F on [-w1, w2] with zero boundary values, rearranges u
    onto the half-line of equal measure, solves Lv = -F* there, and
    reports max(u* - v) on a grid (the comparison claims u* <= v).
    """
    if w1 <= 0 or w2 <= 0:
        raise ValueError("interval must contain the origin strictly")
    t, u, residual = _grid_dirichlet_interval(w1, w2, F)
    f_star, a = ehrhard_rearrange_1d(F, w1, w2, extrema=extrema)
    # F >= 0 makes u' e^{-t^2/2} nonincreasing: u is unimodal, two monotone pieces
    peak = int(np.argmax(u))
    u_star = _rearrange([(t[:peak + 1], u[:peak + 1]), (t[peak:], u[peak:])], a)
    beta = float(sf.psi_inv(a))
    s = np.linspace(min(beta, 0.0) - 14.0, beta, _SOLVE_GRID)
    H = _cumulative_simpson(np.asarray(f_star(s)) * np.exp(-s * s / 2.0), s)
    S = _cumulative_simpson(np.exp(s * s / 2.0) * H, s)
    v = S[-1] - S

    keep = s >= min(beta, 0.0) - 8.0
    idx = np.unique(np.linspace(np.argmax(keep), _SOLVE_GRID - 1, _REPORT_POINTS).astype(int))
    u_rep = np.asarray(u_star(s[idx]))
    return TalentiReport(a=a, beta=beta, s_grid=s[idx], u_star=u_rep,
                         v=v[idx], max_gap=float(np.max(u_rep - v[idx])),
                         u_min=float(u.min()), boundary_residual=residual)
