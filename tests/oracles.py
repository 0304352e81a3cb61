"""Independent oracles used to pin expected values in the test suite.

Everything here deliberately avoids the package's own integral formulas:
quadrature goes through scipy.integrate on raw densities, boundary-value
problems through collocation, memberships through explicit geometry.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, special


# ---------------------------------------------------------------------------
# scalar kernels


def j_quad(p: float, R: float) -> float:
    """int_0^R t^p exp(-t^2/2) dt by adaptive quadrature."""
    val, _ = integrate.quad(lambda t: t**p * np.exp(-t * t / 2.0), 0.0, R,
                            epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def j_total_quad(p: float) -> float:
    val, _ = integrate.quad(lambda t: t**p * np.exp(-t * t / 2.0), 0.0, np.inf,
                            epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def normal_cdf(t):
    return special.ndtr(t)


def normal_quantile(a):
    return special.ndtri(a)


def strip_measure(w):
    """gamma_1([-w, w])."""
    return special.erf(np.asarray(w) / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# finite differences


def fd_slope(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_second(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


# ---------------------------------------------------------------------------
# closed-form Gaussian measures of simple bodies


def ball_measure(R: float, n: int) -> float:
    if n == 1:
        return float(special.erf(R / np.sqrt(2.0)))
    if n == 2:
        return float(1.0 - np.exp(-R * R / 2.0))
    if n == 3:
        return float(special.erf(R / np.sqrt(2.0))
                     - np.sqrt(2.0 / np.pi) * R * np.exp(-R * R / 2.0))
    raise ValueError("closed form kept for n <= 3")


def box_measure(half_widths) -> float:
    return float(np.prod(special.erf(np.asarray(half_widths) / np.sqrt(2.0))))


def cylinder_measure(k: int, R: float) -> float:
    """Ambient-free: the measure of {|x_(1..k)| <= R} equals the k-ball's."""
    return ball_measure(R, k)


# ---------------------------------------------------------------------------
# Monte Carlo membership with explicit geometry (no package oracles)


def geometric_member(kind: str, params, x: np.ndarray):
    """Membership for catalog bodies from their defining inequalities.

    ``x`` may be a single point or a stack of points; ``box``/``ellipsoid``
    take the half-width / semi-axis sequence directly as ``params``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if kind == "ball":
        (R,) = params
        out = np.linalg.norm(x, axis=1) <= R
    elif kind == "strip":
        (w,) = params
        out = np.abs(x[:, 0]) <= w
    elif kind == "cylinder":
        k, R = params
        out = np.linalg.norm(x[:, : int(k)], axis=1) <= R
    elif kind == "box":
        out = np.all(np.abs(x) <= np.asarray(params, dtype=float), axis=1)
    elif kind == "ellipsoid":
        out = np.sum((x / np.asarray(params, dtype=float)) ** 2, axis=1) <= 1.0
    elif kind == "lp":
        r, p = params
        out = np.sum(np.abs(x / r) ** p, axis=1) <= 1.0
    else:
        raise ValueError(f"no geometric membership for {kind!r}")
    return bool(out[0]) if single else out


def mc_gauss_prob(kind: str, params, n: int, N: int, seed: int):
    """(estimate, 3 sigma) for the Gaussian measure by direct sampling."""
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < N:
        m = min(1 << 19, N - done)
        x = rng.standard_normal((m, n))
        hits += int(np.sum(geometric_member(kind, params, x)))
        done += m
    p = hits / N
    return p, 3.0 * np.sqrt(p * (1.0 - p) / N)


# ---------------------------------------------------------------------------
# radial references by bisection, and the per-direction tangent basis: the
# constructions the package's closed forms and vectorized pass replaced


def round_box_radial_bisect(b, s: float, active, theta: np.ndarray) -> np.ndarray:
    """Radial of {x : ||(|x_act| - b)_+|| <= s}, s >= 0: 80 bisection
    steps on the distance from t|theta_act| to the box [0, b], +inf
    without an active component."""
    b = np.asarray(b, dtype=float)
    th = np.abs(np.atleast_2d(theta)[:, np.asarray(active, dtype=bool)])
    hn = np.linalg.norm(th, axis=1)
    out = np.full(len(th), np.inf)
    ok = hn > 1e-300
    if not np.any(ok):
        return out
    th = th[ok]
    lo = np.zeros(len(th))
    hi = np.full(len(th), np.max(b) + s + 1.0)
    d = lambda t: np.linalg.norm(np.maximum(t[:, None] * th - b, 0.0), axis=1) - s
    while np.any(d(hi) <= 0):
        hi = np.where(d(hi) <= 0, hi * 2.0, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = d(mid) <= 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[ok] = 0.5 * (lo + hi)
    return out


def translate_radial_bisect(core_radial, v, theta: np.ndarray) -> np.ndarray:
    """Exit time of t*theta from K + v given K's radial: doubling to a
    bracket (up to 1e12, beyond which the ray never exits), then 80
    bisection steps on ||t theta - v||_K - 1."""
    tt = np.atleast_2d(theta)
    v = np.asarray(v, dtype=float)

    def gauge_minus_one(t_arr):
        x = t_arr[:, None] * tt - v
        r = np.linalg.norm(x, axis=1)
        rho = core_radial(np.where(r[:, None] > 0, x / np.maximum(r[:, None], 1e-300), tt))
        with np.errstate(invalid="ignore"):
            return np.where(r > 0, r / rho, 0.0) - 1.0

    lo = np.zeros(len(tt))
    hi = np.ones(len(tt))
    g = gauge_minus_one(hi)
    for _ in range(60):
        grow = (g < 0) & (hi < 1e12)
        if not np.any(grow):
            break
        hi = np.where(grow, hi * 2.0, hi)
        g = gauge_minus_one(hi)
    inf_mask = gauge_minus_one(np.full(len(tt), 1e12)) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = gauge_minus_one(mid) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out[inf_mask] = np.inf
    return out


def tangent_basis_row(u: np.ndarray) -> list:
    """Tangent basis at one unit direction: the n-1 axes with the smallest
    |u_i|, Gram-Schmidt against u and the earlier vectors."""
    n = len(u)
    e = np.eye(n)
    basis = []
    for c in [e[i] for i in np.argsort(np.abs(u), kind="stable")[: n - 1]]:
        w = c - (c @ u) * u
        for b in basis:
            w = w - (w @ b) * b
        nw = np.linalg.norm(w)
        if nw > 1e-10:
            basis.append(w / nw)
    return basis


# ---------------------------------------------------------------------------
# torsion boundary-value oracles (collocation, not the integral formulas)


def halfspace_torsion_bvp(a: float, pad: float = 12.0, m: int = 4001) -> float:
    """u'' - t u' = -1 on (-inf, b], u'(-inf)=0, u(b)=0; returns E u'^2."""
    b = float(special.ndtri(a))
    lo = min(b, 0.0) - pad

    def rhs(t, y):
        return np.vstack([y[1], t * y[1] - 1.0])

    def bc(ya, yb):
        return np.array([ya[1], yb[0]])

    t0 = np.linspace(lo, b, 2001)
    sol = integrate.solve_bvp(rhs, bc, t0, np.zeros((2, t0.size)),
                              tol=1e-10, max_nodes=200000)
    if not sol.success:
        raise RuntimeError(sol.message)
    t = np.linspace(lo, b, m)
    up = sol.sol(t)[1]
    dens = np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi)
    return float(integrate.simpson(up * up * dens, x=t) / a)


def radial_torsion_bvp(k: int, R: float, F, m: int = 4001) -> float:
    """u'' + ((k-1)/r - r) u' = -F(r) on (0, R], u regular at 0, u(R)=0.

    Returns the normalized Dirichlet value int u'^2 dm / int dm with
    dm = r^(k-1) exp(-r^2/2) dr.  The left endpoint uses the regular
    expansion u'(eps) ~ -F(0) eps / k.
    """
    eps = 1e-6 * R
    F0 = float(np.ravel(np.asarray(F(np.array([0.0]))))[0])

    def rhs(r, y):
        fv = np.asarray(F(r), dtype=float) * np.ones_like(r)
        return np.vstack([y[1], (r - (k - 1.0) / r) * y[1] - fv])

    def bc(ya, yb):
        return np.array([ya[1] + F0 * eps / k, yb[0]])

    r0 = np.linspace(eps, R, 2001)
    sol = integrate.solve_bvp(rhs, bc, r0, np.zeros((2, r0.size)),
                              tol=1e-10, max_nodes=200000)
    if not sol.success:
        raise RuntimeError(sol.message)
    r = np.linspace(eps, R, m)
    up = sol.sol(r)[1]
    wgt = r ** (k - 1) * np.exp(-r * r / 2.0)
    num = integrate.simpson(up * up * wgt, x=r)
    den = j_quad(k - 1, R)
    return float(num / den)


# ---------------------------------------------------------------------------
# 1-D rearrangement reference


def distribution_lengths(t: np.ndarray, f: np.ndarray, tau: float) -> float:
    """gamma_1{f > tau} for a sampled function by linear interpolation."""
    above = f > tau
    if not np.any(above):
        return 0.0
    total = 0.0
    i = 0
    m = len(t)
    dens = lambda lo, hi: float(normal_cdf(hi) - normal_cdf(lo))
    while i < m:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < m and above[j + 1]:
            j += 1
        lo = t[i]
        if i > 0:
            # linear crossing between t[i-1] and t[i]
            w = (tau - f[i - 1]) / (f[i] - f[i - 1])
            lo = t[i - 1] + w * (t[i] - t[i - 1])
        hi = t[j]
        if j + 1 < m:
            w = (tau - f[j]) / (f[j + 1] - f[j])
            hi = t[j] + w * (t[j + 1] - t[j])
        total += dens(lo, hi)
        i = j + 1
    return total
