"""Round-cylinder profile functions and candidate concavifying transforms.

A round k-cylinder of Gaussian measure ``a`` in R^n is the set
``{x : x_1^2 + ... + x_k^2 <= R_k(a)^2}`` where the radius R_k(a) inverts

    gamma(C_k(R)) = J_{k-1}(R) / J_{k-1}(inf) = a.

Three scalar profiles drive everything here (all functions of ``a`` at
fixed k):

- ``radius_of_measure``  R_k(a), the radius matching measure ``a``;
- ``perimeter_s``        s_k(a) = g_{k-1}(R_k(a)) / J_{k-1}(inf), the
                         Gaussian surface density of the boundary;
- ``phi_k``              the logarithmic derivative (log 1/s_k)'(a),
                         in closed form J_{k-1}(inf) (R^2 - k + 1) / g_k(R).

The dimensionless concavity power of the cylinder along its own family is
``ps_cylinder(k, a) = 1 + a * phi_k(a)``.

``partition`` tabulates, on a grid of measures, which k minimizes phi_k
and which minimizes s_k; the two argmin families do *not* coincide, which
is exactly why the transform glued from perimeter minimizers
(``verify.bad_func_transform``) fails while the one glued from phi
minimizers (``conjecture_F``) is the conjectured extremal transform:

    F(a) = int_0^a exp( int_{C0}^t  min_k phi_k(s) ds ) dt.

``weak_F`` is the unconditionally proven variant whose inner integrand
replaces min_k phi_k(s) by the torsion/moment lower bound

    phi_inv(s)^2 / (2 e^2 n^2 s)
      + 1 / (n s - J_{n+1}(J_{n-1}^{-1}(c s)) / c)  - 1/s,

with c = J_{n-1}(inf).  Both transforms share an inner-integral cache on
a refinable knot grid and integrate the outer exponential after the
substitution t = u^n, which absorbs the t^{-(n-1)/n} endpoint blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from . import specfun as sf

_INNER_EPS = 1e-11
_OUTER_EPS = 1e-10
_LO_KNOT = 1e-3


def radius_of_measure(k: int, a) -> np.ndarray | float:
    """Radius R_k(a) of the round k-cylinder with Gaussian measure a in (0,1).

    R_k(a) = sqrt(2 P^{-1}(k/2, a)) is inverted from ``a`` itself, so R_k,
    and with it s_k and phi_k, stay accurate relative to 1 - a as a -> 1.
    """
    _check_k(k)
    aa = np.asarray(a, dtype=float)
    if np.any(aa <= 0) or np.any(aa >= 1):
        raise sf.DomainError("radius_of_measure requires 0 < a < 1")
    return sf.j_inverse_regularized(k - 1, aa)


def measure_of_radius(k: int, R) -> np.ndarray | float:
    """Gaussian measure a of the round k-cylinder of radius R > 0."""
    _check_k(k)
    return sf.j_lower(k - 1, R) / sf.j_total(k - 1)


def perimeter_s(k: int, a) -> np.ndarray | float:
    """Gaussian surface density s_k(a) = g_{k-1}(R_k(a)) / J_{k-1}(inf)."""
    R = radius_of_measure(k, a)
    return sf.g(k - 1, R) / sf.j_total(k - 1)


def phi_k(k: int, a) -> np.ndarray | float:
    """Log-derivative profile (log 1/s_k)'(a) = c (R^2 - k + 1) / g_k(R).

    Here c = J_{k-1}(inf) and R = R_k(a).  Negative for small a when
    k >= 2, increasing through 0 at R = sqrt(k-1), and unbounded as a -> 1.
    """
    R = radius_of_measure(k, a)
    return sf.j_total(k - 1) * (R**2 - (k - 1)) / sf.g(k, R)


def ps_cylinder(k: int, a) -> np.ndarray | float:
    """Concavity power of the k-cylinder family at measure a: 1 + a phi_k(a)."""
    aa = np.asarray(a, dtype=float)
    out = 1.0 + aa * phi_k(k, aa)
    return float(out) if out.ndim == 0 else out


def _check_k(k: int) -> None:
    if int(k) != k or k < 1:
        raise ValueError("cylinder index k must be an integer >= 1")


@dataclass(frozen=True)
class CylinderSpec:
    """A round k-cylinder in R^n, pinned by radius or by measure.

    Exactly one of ``R``, ``a`` must be given; the other is derived.
    """

    n: int
    k: int
    R: float | None = None
    a: float | None = None

    def __post_init__(self):
        _check_k(self.k)
        if self.k > self.n:
            raise ValueError("k must not exceed the ambient dimension n")
        if (self.R is None) == (self.a is None):
            raise ValueError("give exactly one of R or a")
        if self.R is None:
            object.__setattr__(self, "R", float(radius_of_measure(self.k, self.a)))
        else:
            if self.R <= 0:
                raise ValueError("R must be positive")
            object.__setattr__(self, "a", float(measure_of_radius(self.k, self.R)))

    @property
    def perimeter(self) -> float:
        return float(perimeter_s(self.k, self.a))

    @property
    def phi(self) -> float:
        return float(phi_k(self.k, self.a))

    @property
    def ps(self) -> float:
        return float(ps_cylinder(self.k, self.a))


# ---------------------------------------------------------------------------
# argmin partition of the measure axis


@dataclass(frozen=True)
class PartitionTable:
    """Grid tabulation of which k minimizes phi_k and which minimizes s_k.

    ``crossings_*`` list refined abscissas (a, k_left, k_right) where the
    argmin switches between consecutive grid points.  Ties at a grid point
    resolve to the smaller k.
    """

    n: int
    a: np.ndarray
    phi_values: np.ndarray  # shape (n, len(a)), row k-1 = phi_k
    s_values: np.ndarray
    phi_argmin: np.ndarray  # values in 1..n
    s_argmin: np.ndarray
    phi_min: np.ndarray
    s_min: np.ndarray
    crossings_phi: list[tuple[float, int, int]] = field(default_factory=list)
    crossings_s: list[tuple[float, int, int]] = field(default_factory=list)

    @property
    def mismatch(self) -> np.ndarray:
        """Mask of grid points where the two argmin families disagree."""
        return self.phi_argmin != self.s_argmin


def _bisect_cross(f, lo: float, hi: float, iters: int = 80) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) == 0.0:
            return mid
        if (f(mid) > 0) == (flo > 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def partition(n: int, grid=None) -> PartitionTable:
    """Tabulate argmin_k phi_k and argmin_k s_k over a measure grid in (0,1)."""
    if grid is None:
        grid = np.linspace(0.005, 0.995, 199)
    a = np.asarray(grid, dtype=float)
    if a.ndim != 1 or np.any(a <= 0) or np.any(a >= 1):
        raise sf.DomainError("partition grid must lie strictly inside (0,1)")
    phiv = np.vstack([phi_k(k, a) for k in range(1, n + 1)])
    sv = np.vstack([perimeter_s(k, a) for k in range(1, n + 1)])
    phi_arg = np.argmin(phiv, axis=0) + 1
    s_arg = np.argmin(sv, axis=0) + 1

    def crossings(values_fn, argmin):
        out = []
        for i in range(len(a) - 1):
            kl, kr = int(argmin[i]), int(argmin[i + 1])
            if kl == kr:
                continue
            diff = lambda t: float(values_fn(kl, t) - values_fn(kr, t))
            out.append((_bisect_cross(diff, a[i], a[i + 1]), kl, kr))
        return out

    return PartitionTable(
        n=n,
        a=a,
        phi_values=phiv,
        s_values=sv,
        phi_argmin=phi_arg,
        s_argmin=s_arg,
        phi_min=np.min(phiv, axis=0),
        s_min=np.min(sv, axis=0),
        crossings_phi=crossings(phi_k, phi_arg),
        crossings_s=crossings(perimeter_s, s_arg),
    )


# ---------------------------------------------------------------------------
# integrated-exponential transforms


class NumericalFailure(RuntimeError):
    """Quadrature could not resolve the requested value; carries the best bound."""

    def __init__(self, msg: str, achieved: float | None = None):
        super().__init__(msg)
        self.achieved = achieved


class ExpIntegralTransform:
    """F(a) = int_0^a exp(W(t)) dt with W(t) = int_{C0}^t w(s) ds.

    ``w`` must be vectorized on (0,1) and integrable there with
    w(s) ~ -(n-1)/(n s) as s -> 0 (so exp(W) ~ t^{-(n-1)/n}).  The inner
    integral is cached on a growing knot grid; below the lowest knot the
    integration runs in log coordinates, where s*w(s) is bounded.  The
    outer integral uses the substitution t = u^n, which makes the
    integrand bounded at 0, and splits at the supplied breakpoints.
    """

    def __init__(self, w, n: int, C0: float = 0.5, breakpoints=()):
        if not 0.0 < C0 < 1.0:
            raise ValueError("C0 must lie in (0,1)")
        self.w = w
        self.n = int(n)
        self.C0 = float(C0)
        self.breaks = tuple(sorted(float(b) for b in breakpoints))
        self._knots: dict[float, float] = {C0: 0.0}

    def _quad_w(self, lo: float, hi: float) -> float:
        if lo == hi:
            return 0.0
        sign = 1.0
        if lo > hi:
            lo, hi, sign = hi, lo, -1.0
        pts = [b for b in self.breaks if lo < b < hi]
        if hi <= _LO_KNOT:
            # log coordinates: s = exp(x), integrand s*w(s) stays bounded
            val, err = quad(
                lambda x: np.exp(x) * float(self.w(np.exp(x))),
                np.log(lo),
                np.log(hi),
                epsabs=_INNER_EPS,
                epsrel=_INNER_EPS,
                limit=200,
            )
        else:
            val, err = quad(
                lambda s: float(self.w(s)),
                lo,
                hi,
                points=pts or None,
                epsabs=_INNER_EPS,
                epsrel=_INNER_EPS,
                limit=200,
            )
        if not np.isfinite(val):
            raise NumericalFailure(f"inner integral not resolvable on [{lo}, {hi}]")
        return sign * val

    def inner(self, t: float) -> float:
        """W(t), cached at every previously requested abscissa."""
        t = float(t)
        if not 0.0 < t < 1.0:
            raise sf.DomainError("inner integral defined for 0 < t < 1")
        if t in self._knots:
            return self._knots[t]
        anchor = min(self._knots, key=lambda x: abs(np.log(x) - np.log(t)))
        # never integrate across _LO_KNOT in one rule; split there
        if (anchor - _LO_KNOT) * (t - _LO_KNOT) < 0:
            base = self.inner(_LO_KNOT)
            val = base + self._quad_w(_LO_KNOT, t)
        else:
            val = self._knots[anchor] + self._quad_w(anchor, t)
        self._knots[t] = val
        return val

    def __call__(self, a) -> np.ndarray | float:
        aa = np.asarray(a, dtype=float)
        scalar = aa.ndim == 0
        aa = np.atleast_1d(aa)
        if np.any(aa <= 0) or np.any(aa >= 1):
            raise sf.DomainError("transform defined for 0 < a < 1")
        out = np.array([self._outer(float(x)) for x in aa])
        return float(out[0]) if scalar else out

    def slope(self, a) -> np.ndarray | float:
        """First derivative of the transform: exp of the inner integral."""
        aa = np.asarray(a, dtype=float)
        scalar = aa.ndim == 0
        out = np.exp([self.inner(float(x)) for x in np.atleast_1d(aa)])
        return float(out[0]) if scalar else out

    def _outer(self, a: float) -> float:
        n = self.n
        # seed knots near the floor so low-t inner calls stay short
        self.inner(_LO_KNOT)

        def integrand(u: float) -> float:
            t = u**n
            return n * u ** (n - 1) * np.exp(self.inner(t))

        pts = [b ** (1.0 / n) for b in self.breaks if b < a]
        val, err = quad(
            integrand,
            0.0,
            a ** (1.0 / n),
            points=pts or None,
            epsabs=_OUTER_EPS,
            epsrel=_OUTER_EPS,
            limit=200,
        )
        if not np.isfinite(val) or (err > 1e-6 * max(1.0, abs(val))):
            raise NumericalFailure(
                f"outer integral not resolved at a={a}", achieved=val
            )
        return val


@lru_cache(maxsize=8)
def _phi_min_transform(n: int, C0: float) -> ExpIntegralTransform:
    table = partition(n)
    breaks = tuple(c[0] for c in table.crossings_phi)

    def w(s):
        ss = np.atleast_1d(np.asarray(s, dtype=float))
        vals = np.vstack([phi_k(k, ss) for k in range(1, n + 1)])
        out = np.min(vals, axis=0)
        return out if np.ndim(s) else float(out[0])

    return ExpIntegralTransform(w, n, C0=C0, breakpoints=breaks)


@lru_cache(maxsize=8)
def _weak_transform(n: int, C0: float) -> ExpIntegralTransform:
    c = sf.j_total(n - 1)
    e2n2 = 2.0 * np.e**2 * n**2

    def w(s):
        ss = np.asarray(s, dtype=float)
        q = sf.phi_inv(ss)
        # n s - J_{n+1}(R) / c with J_{n-1}(R) = c s is g_n(R) / c by the
        # recurrence J_{n+1} = n J_{n-1} - g_n, free of cancellation as s -> 1
        R = sf.j_inverse_regularized(n - 1, ss)
        return q**2 / (e2n2 * ss) + c / sf.g(n, R) - 1.0 / ss

    return ExpIntegralTransform(w, n, C0=C0)


def conjecture_F(n: int, a, C0: float = 0.5) -> np.ndarray | float:
    """Conjectured extremal transform built from the pointwise min of phi_k.

    For n = 1 this reduces to a constant multiple of ``specfun.phi_inv``.
    """
    return _phi_min_transform(int(n), float(C0))(a)


def weak_F(n: int, a, C0: float = 0.5) -> np.ndarray | float:
    """Proven concavifying transform from the torsion/moment lower bound."""
    return _weak_transform(int(n), float(C0))(a)


def conjecture_transform(n: int, C0: float = 0.5) -> ExpIntegralTransform:
    """The conjectured transform as an object exposing value and slope."""
    return _phi_min_transform(int(n), float(C0))


def weak_transform(n: int, C0: float = 0.5) -> ExpIntegralTransform:
    """The proven transform as an object exposing value and slope."""
    return _weak_transform(int(n), float(C0))


def bad_transform(n: int):
    """Piecewise radius transform glued over the perimeter-optimal intervals.

    Uses the intervals where s_k is minimal (not where phi_k is minimal),
    with additive constants accumulated left to right for continuity; the
    first stretch is anchored at zero.  Returns an object with ``value``
    and ``slope`` callables; expected NOT to produce a concave composition.
    """
    table = partition(n)
    bounds = [table.a[0]] + [c[0] for c in table.crossings_s] + [table.a[-1]]
    ks, consts = [], []
    offset = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        k = 1 + int(np.argmin([perimeter_s(j, mid) for j in range(1, n + 1)]))
        if ks:
            prev_k, prev_c = ks[-1], consts[-1]
            offset = prev_c + radius_of_measure(prev_k, lo) - radius_of_measure(k, lo)
        ks.append(k)
        consts.append(offset)

    bounds_arr = np.asarray(bounds)

    class _Bad:
        breaks = tuple(bounds[1:-1])

        @staticmethod
        def _piece(a: float) -> int:
            return min(np.searchsorted(bounds_arr[1:-1], a, side="right"),
                       len(ks) - 1)

        def value(self, a):
            aa = np.atleast_1d(np.asarray(a, dtype=float))
            out = np.array([radius_of_measure(ks[self._piece(x)], x)
                            + consts[self._piece(x)] for x in aa])
            return float(out[0]) if np.ndim(a) == 0 else out

        __call__ = value

        def slope(self, a):
            aa = np.atleast_1d(np.asarray(a, dtype=float))
            out = np.array([1.0 / perimeter_s(ks[self._piece(x)], x) for x in aa])
            return float(out[0]) if np.ndim(a) == 0 else out

    return _Bad()
