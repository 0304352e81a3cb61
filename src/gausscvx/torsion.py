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
u* <= v pointwise.
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


class TorsionFailure(RuntimeError):
    """Unresolved quadrature in a torsion computation."""


@dataclass(frozen=True)
class TorsionResult:
    value: float
    err: float
    kind: str  # exact_radial | halfspace | variational_lower | gauge_lower
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
        raise ValueError("in-radius unavailable for this body")
    one, gauge2 = gm.RayPolynomial.constant(1.0), gm.RayPolynomial.gauge_power(2)
    load = F * (one - gauge2)
    s = sample if sample is not None else gm.polar_sample(K)
    a, g2, cross = s.integrals(one, gauge2, load)
    gK2, cross = g2.over(a), cross.over(a)
    last_touch = r * r * cross.value**2 / (4.0 * gK2.value)
    lt_err = (2.0 * r * r * abs(cross.value) * cross.err / (4.0 * gK2.value)
              + last_touch * gK2.err / gK2.value)
    floor = float(sf.phi_inv(a.value)) ** 2 / (4.0 * np.e**2 * K.n**2)
    is_const1 = F.terms == one.terms
    value = max(last_touch, floor) if is_const1 else last_touch
    return TorsionResult(
        value, lt_err, "gauge_lower",
        components={"last_touch": last_touch, "measure_floor": floor},
    )


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

    def cf(dirs, rho):
        q, grad_tan2 = _gauge_slope_sq(K, dirs, rho, _FD_STEP)
        out = np.zeros((len(dirs), len(b)))
        for m in range(len(b)):
            out[:, m] = b[m] * q**m * (q**2 + grad_tan2)
        return out

    a, fv, grad2 = gm.polar_sample(K, rule).integrals(
        gm.RayPolynomial.constant(1.0), F * v, cf)
    fv, grad2 = fv.over(a), grad2.over(a)
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
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
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


def _monotone_interp(x: np.ndarray, y: np.ndarray):
    """Shape-preserving interpolant of a monotone table, clamped at the ends."""
    if len(x) < 2:
        c = y[0] if len(y) else 0.0
        return lambda q: np.full_like(np.asarray(q, dtype=float), c)
    # only the Talenti comparison interpolates, so the CLI never imports this
    from scipy.interpolate import PchipInterpolator

    spline = PchipInterpolator(x, y)

    def f(q):
        return spline(np.clip(q, x[0], x[-1]))

    return f


def _monotone_level_lengths(t: np.ndarray, f: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """gamma_1 measure of {f > tau} for f monotone on the grid t."""
    if f.max() - f.min() <= 1e-15 * (1.0 + abs(f[0])):
        full = float(sf.psi(t[-1]) - sf.psi(t[0]))
        return np.where(taus < f[0], full, 0.0)
    if f[-1] >= f[0]:
        ygrid, xgrid = _strict_inverse(t, f)
        cross = _monotone_interp(ygrid, xgrid)(taus)
        return np.asarray(sf.psi(t[-1]) - sf.psi(cross))
    ygrid, xgrid = _strict_inverse(t[::-1], f[::-1])
    cross = _monotone_interp(ygrid, xgrid)(taus)
    return np.asarray(sf.psi(cross) - sf.psi(t[0]))


def ehrhard_rearrange_1d(f, w1: float, w2: float, extrema=(), n_grid: int = 4001):
    """Decreasing rearrangement of f|[-w1,w2] onto (-inf, psi_inv(a)].

    ``extrema`` lists interior critical points splitting f into monotone
    pieces; superlevel sets are then unions of intervals with endpoints
    recovered by monotone inversion on a dense grid.  Returns
    (vectorized f_star on the half-line, a).
    """
    a = float(sf.psi(w2) - sf.psi(-w1))
    pieces = [-w1, *sorted(extrema), w2]
    sub = []
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        t = np.linspace(lo, hi, n_grid)
        sub.append((t, np.asarray(f(t), dtype=float) * np.ones_like(t)))
    all_vals = np.concatenate([fv for _, fv in sub])
    fmin, fmax = float(all_vals.min()), float(all_vals.max())
    if fmax - fmin <= 1e-15 * (1.0 + abs(fmax)):
        return (lambda s: np.full_like(np.asarray(s, dtype=float), fmax)
                if np.ndim(s) else fmax), a
    taus = np.unique(np.concatenate(
        [np.linspace(fmin, fmax, 4 * n_grid), all_vals]))
    m_of_tau = sum(_monotone_level_lengths(t, fv, taus) for t, fv in sub)
    m_strict, tau_strict = _strict_inverse(taus[::-1], m_of_tau[::-1])
    inv = _monotone_interp(m_strict, tau_strict)

    def f_star(s):
        target = np.asarray(sf.psi(np.asarray(s, dtype=float)))
        out = inv(np.clip(target, 0.0, a))
        return out if out.ndim else float(out)

    return f_star, a


def _grid_dirichlet_interval(w1: float, w2: float, F, n_grid: int):
    """Dense-grid solve of u'' - t u' = -F on [-w1, w2], u = 0 at the ends."""
    t = np.linspace(-w1, w2, n_grid)
    weight = np.exp(-t * t / 2.0)
    fvals = np.asarray(F(t), dtype=float) * np.ones_like(t)
    if fvals.min() < -1e-12:
        raise ValueError("source must be nonnegative")
    # only the Talenti comparison solves on a grid, so the CLI never imports this
    from scipy.integrate import cumulative_simpson, simpson

    G = cumulative_simpson(fvals * weight, x=t, initial=0.0)
    growth = np.exp(t * t / 2.0)
    C = simpson(growth * G, x=t) / simpson(growth, x=t)
    du = growth * (C - G)
    u = cumulative_simpson(du, x=t, initial=0.0)
    return t, u, float(abs(u[-1]))


def talenti_1d(w1: float, w2: float, F, extrema=(), n_report: int = 41,
               n_grid: int = 20001) -> TalentiReport:
    """Compare the rearranged interval solution with the half-line solution.

    Solves Lu = -F on [-w1, w2] with zero boundary values, rearranges u
    onto the half-line of equal measure, solves Lv = -F* there, and
    reports max(u* - v) on a grid (the comparison claims u* <= v).
    """
    if w1 <= 0 or w2 <= 0:
        raise ValueError("interval must contain the origin strictly")
    t, u, residual = _grid_dirichlet_interval(w1, w2, F, n_grid)

    # F >= 0 makes u' e^{-t^2/2} nonincreasing: u is unimodal
    peak = int(np.argmax(u))
    tau_inc, t_inc = _strict_inverse(t[:peak + 1], u[:peak + 1])
    tau_dec, t_dec = _strict_inverse(t[peak:][::-1], u[peak:][::-1])
    # sample levels from both branches: either one alone can be a steep
    # sliver (half-line-like intervals) that undersamples the other
    taus = np.unique(np.concatenate([tau_inc, tau_dec]))
    taus = taus[taus <= min(tau_inc[-1], tau_dec[-1])]
    left = _monotone_interp(tau_inc, t_inc)(taus)
    right = _monotone_interp(tau_dec, t_dec)(taus)
    m_of_tau = np.asarray(sf.psi(right) - sf.psi(left))

    a = float(sf.psi(w2) - sf.psi(-w1))
    beta = float(sf.psi_inv(a))
    lo = min(beta, 0.0) - 14.0
    s = np.linspace(lo, beta, n_grid)

    m_strict, tau_strict = _strict_inverse(taus[::-1], m_of_tau[::-1])
    u_star = _monotone_interp(m_strict, tau_strict)(
        np.clip(np.asarray(sf.psi(s)), 0.0, a))

    f_star, _ = ehrhard_rearrange_1d(F, w1, w2, extrema=extrema)
    from scipy.integrate import cumulative_simpson

    H = cumulative_simpson(np.asarray(f_star(s)) * np.exp(-s * s / 2.0),
                           x=s, initial=0.0)
    S = cumulative_simpson(np.exp(s * s / 2.0) * H, x=s, initial=0.0)
    v = S[-1] - S

    keep = s >= min(beta, 0.0) - 8.0
    idx = np.unique(np.linspace(np.argmax(keep), n_grid - 1, n_report).astype(int))
    return TalentiReport(a=a, beta=beta, s_grid=s[idx], u_star=u_star[idx],
                         v=v[idx], max_gap=float(np.max(u_star[idx] - v[idx])),
                         u_min=float(u.min()), boundary_residual=residual)
