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
and which minimizes s_k, both rows of each k from one inversion of R_k.
Where an argmin switches between grid points, the crossing is solved by
Newton steps bracketed by those points, on the closed-form derivatives
R_k' = 1/s_k, s_k' = -phi_k s_k and phi_k' = dphi_k/dR R_k'; each family's
crossings are solved on first access.  The two argmin families do *not*
coincide, which is exactly why the transform glued from perimeter
minimizers (``bad_transform``) fails while the one glued from phi
minimizers (``conjecture_transform``) is the conjectured extremal transform:

    F(a) = int_0^a exp( int_{1/2}^t  min_k phi_k(s) ds ) dt.

Since phi_k = (log 1/s_k)' and R_k' = 1/s_k, F is beta_k R_k(a) + alpha_k
on each piece where k is the argmin, with beta from F' continuous and
F'(1/2) = 1, and alpha from F continuous and F(0) = 0.  ``PiecewiseRadius``
holds that closed form; ``bad_transform`` is the same construction on the
s_k-argmin pieces with every beta = 1.

``weak_F`` is the unconditionally proven variant whose inner integrand
replaces min_k phi_k(s) by the torsion/moment lower bound

    phi_inv(s)^2 / (2 e^2 n^2 s)
      + 1 / (n s - J_{n+1}(R_n(s)) / c)  - 1/s,

with c = J_{n-1}(inf).  By the recurrence J_{n+1} = n J_{n-1} - g_n the
middle term is c / g_n(R_n(s)) = (log R_n)'(s), so the last two terms
integrate to log(R_n(s) / s) and only the smooth first term needs
quadrature.  That term is 1/n^2 times one fixed integrand, which
``ExpIntegralTransform`` integrates once per process on piecewise-Chebyshev
panels in s and -log(1 - s); it integrates F in u = t^{1/n}, which absorbs
the t^{-(n-1)/n} blow-up at 0, and in -log(1 - t).

Each transform is an object with a ``name``, a call F(a), a
``slope(a)`` = F'(a) and ``value_and_slope(a)`` = (F(a), F'(a)), which a
concavity check calls once: a ``PiecewiseRadius`` then inverts R_k once
per measure for both.  ``conjecture_transform(n)``, ``weak_transform(n)``
and ``bad_transform(n)`` build ``conjecture_F``, ``weak_F`` and
``bad_func`` once per n and return the same object after that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import panels as pn
from . import specfun as sf


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
    return _s_at(k, radius_of_measure(k, a))


def phi_k(k: int, a) -> np.ndarray | float:
    """Log-derivative profile (log 1/s_k)'(a) = c (R^2 - k + 1) / g_k(R).

    Here c = J_{k-1}(inf) and R = R_k(a).  Negative for small a when
    k >= 2, increasing through 0 at R = sqrt(k-1), and unbounded as a -> 1.
    """
    return _phi_at(k, radius_of_measure(k, a))


def _s_at(k: int, R):
    """s_k at the radius R = R_k(a)."""
    return sf.g(k - 1, R) / sf.j_total(k - 1)


def _phi_at(k: int, R):
    """phi_k at the radius R = R_k(a)."""
    return sf.j_total(k - 1) * (R**2 - (k - 1)) / sf.g(k, R)


def _s_and_slope(k: int, a: float) -> tuple[float, float]:
    """s_k(a) and s_k'(a) = -phi_k s_k = (k - 1 - R^2) / R, one R_k inversion."""
    R = radius_of_measure(k, a)
    return _s_at(k, R), (k - 1 - R**2) / R


def _phi_and_slope(k: int, a: float) -> tuple[float, float]:
    """phi_k(a) and phi_k'(a), one R_k inversion.

    With c = J_{k-1}(inf), R' = 1/s_k = c / g_{k-1}(R) and
    d phi_k / dR = c [2R - (R^2 - k + 1)(k/R - R)] / g_k(R).
    """
    R = radius_of_measure(k, a)
    c, g_k = sf.j_total(k - 1), sf.g(k, R)
    dR = c / sf.g(k - 1, R)
    return _phi_at(k, R), c * (2 * R - (R**2 - k + 1) * (k / R - R)) / g_k * dR


def ps_cylinder(k: int, a) -> np.ndarray | float:
    """Concavity power of the k-cylinder family at measure a: 1 + a phi_k(a)."""
    aa = np.asarray(a, dtype=float)
    out = 1.0 + aa * phi_k(k, aa)
    return float(out) if out.ndim == 0 else out


def _check_k(k: int) -> None:
    if int(k) != k or k < 1:
        raise ValueError("cylinder index k must be an integer >= 1")


# ---------------------------------------------------------------------------
# argmin partition of the measure axis


@dataclass(frozen=True)
class PartitionTable:
    """Grid tabulation of which k minimizes phi_k and which minimizes s_k.

    ``crossings_*`` list refined abscissas (a, k_left, k_right) where the
    argmin switches between consecutive grid points.  Ties at a grid point
    resolve to the smaller k.  Each list is solved on first access, so a
    caller that reads only the grid argmins solves no crossing.
    """

    n: int
    a: np.ndarray
    phi_values: np.ndarray  # shape (n, len(a)), row k-1 = phi_k
    s_values: np.ndarray
    phi_argmin: np.ndarray  # values in 1..n
    s_argmin: np.ndarray

    @property
    def mismatch(self) -> np.ndarray:
        """Mask of grid points where the two argmin families disagree."""
        return self.phi_argmin != self.s_argmin

    @cached_property
    def crossings_phi(self) -> list[tuple[float, int, int]]:
        return _crossings(self.a, self.phi_values, self.phi_argmin, _phi_and_slope)

    @cached_property
    def crossings_s(self) -> list[tuple[float, int, int]]:
        return _crossings(self.a, self.s_values, self.s_argmin, _s_and_slope)


def _newton_cross(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in [lo, hi], given its values f_lo and f_hi of opposite sign.

    ``f(x)`` returns the value and the derivative.  Newton steps start at
    the secant point of the ends; a step that would leave the bracket, or a
    zero derivative, becomes a bisection step instead.  Each evaluation
    shrinks the bracket to the side that keeps the sign change.  It stops
    when a step or the bracket is within 1e-15, or after 60 evaluations.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    lo_negative = f_lo < 0
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(60):
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == lo_negative:
            lo = x
        else:
            hi = x
        nxt = x - fx / dfx if dfx != 0.0 else None
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-15 or hi - lo <= 1e-15:
            return nxt
        x = nxt
    return x


def _crossings(a, values, argmin, value_and_slope) -> list[tuple[float, int, int]]:
    """Where the argmin over the rows of ``values`` switches, solved off the grid."""
    out = []
    for i in np.flatnonzero(argmin[1:] != argmin[:-1]):
        kl, kr = int(argmin[i]), int(argmin[i + 1])

        def diff(t, kl=kl, kr=kr):
            (vl, dl), (vr, dr) = value_and_slope(kl, t), value_and_slope(kr, t)
            return vl - vr, dl - dr

        d = values[kl - 1] - values[kr - 1]
        out.append((_newton_cross(diff, float(a[i]), float(a[i + 1]),
                                  float(d[i]), float(d[i + 1])), kl, kr))
    return out


def partition(n: int, grid=None) -> PartitionTable:
    """Tabulate argmin_k phi_k and argmin_k s_k over a measure grid in (0,1);
    the default grid's table is built once per n, with read-only arrays."""
    if grid is None:
        return _default_partition(n)
    a = np.asarray(grid, dtype=float)
    if a.ndim != 1 or np.any(a <= 0) or np.any(a >= 1):
        raise sf.DomainError("partition grid must lie strictly inside (0,1)")
    radii = [radius_of_measure(k, a) for k in range(1, n + 1)]
    phiv = np.vstack([_phi_at(k, R) for k, R in enumerate(radii, 1)])
    sv = np.vstack([_s_at(k, R) for k, R in enumerate(radii, 1)])
    return PartitionTable(
        n=n,
        a=a,
        phi_values=phiv,
        s_values=sv,
        phi_argmin=np.argmin(phiv, axis=0) + 1,
        s_argmin=np.argmin(sv, axis=0) + 1,
    )


@lru_cache(maxsize=None)
def _default_partition(n: int) -> PartitionTable:
    table = partition(n, np.linspace(0.005, 0.995, 199))
    for x in (table.a, table.phi_values, table.s_values, table.phi_argmin, table.s_argmin):
        x.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# transforms


NumericalFailure = pn.NumericalFailure


@dataclass(frozen=True)
class PiecewiseRadius:
    """F(a) = beta_k R_k(a) + alpha_k, with k = ks[i] on the i-th piece.

    ``breaks`` cut (0,1) into the pieces; a break belongs to the piece on
    its right.  Since R_k' = 1/s_k, the slope is beta_k / s_k(a), and s_k
    comes from the same radius R_k(a) as F.
    """

    name: str
    breaks: tuple[float, ...]
    ks: tuple[int, ...]
    betas: tuple[float, ...]
    alphas: tuple[float, ...]

    def value_and_slope(self, a):
        """(F(a), F'(a)) from one R_k inversion per measure; pieces that
        hold no measure cost nothing."""
        aa = np.asarray(a, dtype=float)
        flat = np.atleast_1d(aa)
        idx = np.searchsorted(self.breaks, flat, side="right")
        F, slope = np.empty(flat.shape), np.empty(flat.shape)
        for i, k in enumerate(self.ks):
            on = idx == i
            if on.any():
                R = radius_of_measure(k, flat[on])
                F[on] = self.betas[i] * R + self.alphas[i]
                slope[on] = self.betas[i] / _s_at(k, R)
        if aa.ndim == 0:
            return float(F[0]), float(slope[0])
        return F, slope

    def __call__(self, a):
        return self.value_and_slope(a)[0]

    def slope(self, a):
        return self.value_and_slope(a)[1]


def _glued_radius(name: str, crossings, k_first: int,
                  match_slope: bool) -> PiecewiseRadius:
    """The transform ``name``, beta_k R_k + alpha_k glued over the pieces
    that ``crossings`` cut.

    The alphas keep F continuous, with alpha = 0 on the first piece.  With
    ``match_slope`` the betas keep F' continuous with F'(1/2) = 1; without
    it every beta is 1.
    """
    breaks = tuple(float(c[0]) for c in crossings)
    ks = (int(k_first),) + tuple(int(c[2]) for c in crossings)
    betas = [1.0]
    for c, kl, kr in crossings:
        betas.append(betas[-1] * perimeter_s(kr, c) / perimeter_s(kl, c)
                     if match_slope else 1.0)
    if match_slope:
        i = int(np.searchsorted(breaks, 0.5, side="right"))
        scale = perimeter_s(ks[i], 0.5) / betas[i]
        betas = [b * scale for b in betas]
    alphas = [0.0]
    for (c, kl, kr), bl, br in zip(crossings, betas, betas[1:]):
        alphas.append(alphas[-1] + bl * radius_of_measure(kl, c)
                      - br * radius_of_measure(kr, c))
    return PiecewiseRadius(name, breaks, ks, tuple(map(float, betas)),
                           tuple(map(float, alphas)))


_S_LO, _S_HI = 1e-3, 1.0 - 1e-3
_U_FLOOR = 1e-8
_X_HI = -np.log1p(-_S_HI)
_X_TOP = 53.0 * np.log(2.0)  # -log(1 - s) at the largest double s < 1
_TWO_E2 = 2.0 * np.e**2


def _open_unit(a) -> tuple[np.ndarray, bool]:
    aa = np.asarray(a, dtype=float)
    if np.any(aa <= 0) or np.any(aa >= 1):
        raise sf.DomainError("transform defined for 0 < a < 1")
    return np.atleast_1d(aa), aa.ndim == 0


@lru_cache(maxsize=None)
def _unit_inner() -> pn.Cumulative:
    """n^2 I(s) = int_{1/2}^s phi_inv^2 / (2 e^2 s') ds' on Chebyshev panels
    in s over [0, 1/2, 1 - 1e-3]; built once and shared by every n."""
    return pn.Cumulative(lambda s: sf.phi_inv(s) ** 2 / (_TWO_E2 * s),
                         [0.0, 0.5, _S_HI], 0.5, 0.0)


@lru_cache(maxsize=None)
def _unit_inner_tail() -> pn.Cumulative:
    """``_unit_inner`` continued above 1 - 1e-3, in x = -log(1 - s); built
    on first use."""

    def f(x):
        s = -np.expm1(-x)
        return np.exp(-x) * sf.phi_inv(s) ** 2 / (_TWO_E2 * s)

    return pn.Cumulative(f, [_X_HI, _X_TOP], _X_HI, _unit_inner().last)


class ExpIntegralTransform:
    """``weak_F`` in dimension n: F(a) = int_0^a exp(W(t)) dt.

    W(t) = log(R_n(t) / R_n(1/2)) - log 2t + I(t), so the slope is
    exp(W(a)) = R_n(a) e^{I(a)} / (2 a R_n(1/2)), with R_n as in
    ``radius_of_measure`` and the smooth remainder
    I(t) = int_{1/2}^t phi_inv(s)^2 / (2 e^2 n^2 s) ds.  n^2 I is
    tabulated once per process, on Chebyshev panels in s up to 1 - 1e-3
    and in -log(1 - s) above, and each n scales it by 1/n^2.  F is
    integrated on panels in u = t^{1/n}, where f(u) = n u^{n-1} exp(W(u^n))
    tends to a constant f(0) because R_n(t) ~ t^{1/n}, and in -log(1 - t)
    above 1 - 1e-3; below u = 1e-8, F = f(1e-8) u, which holds to O(u^2).
    The panels above 1 - 1e-3, of I and of F, are built on the first
    evaluation that reaches there; every panel is fixed once built, so each
    value is a fixed function of its argument.
    """

    name = "weak_F"

    def __init__(self, n: int):
        self.n = n = int(n)
        self._n2 = float(n * n)
        self._two_R_half = 2.0 * sf.j_inverse_regularized(n - 1, 0.5)
        # F's panels grow geometrically up to s = 1e-3, so that F keeps its
        # relative accuracy there, then start on I's
        u_lo = _S_LO ** (1.0 / n)
        s_edges = _unit_inner().edges
        u_edges = np.concatenate([
            np.geomspace(_U_FLOOR, u_lo, int(np.log10(u_lo / _U_FLOOR)) + 2),
            s_edges[s_edges > _S_LO] ** (1.0 / n)])

        def f_u(u):
            t = u**n
            return n * u ** (n - 1) * self._exp_W(t, self._I_mid(t))

        self._f0 = float(f_u(np.array(_U_FLOOR)))
        self._F_u = pn.Cumulative(f_u, u_edges, _U_FLOOR, self._f0 * _U_FLOOR)

    def _I_mid(self, t: np.ndarray) -> np.ndarray:
        """I(t) for t up to 1 - 1e-3."""
        return _unit_inner()(t) / self._n2

    def _I_tail(self, x: np.ndarray) -> np.ndarray:
        """I at t = 1 - e^{-x}, for t above 1 - 1e-3."""
        return _unit_inner_tail()(x) / self._n2

    @cached_property
    def _F_tail(self) -> pn.Cumulative:
        def f_tail(x):
            t = -np.expm1(-x)
            return self._exp_W(t, self._I_tail(x) - x)

        return pn.Cumulative(f_tail, _unit_inner_tail().edges, _X_HI,
                             self._F_u(self._F_u.edges[-1]))

    def _exp_W(self, t: np.ndarray, exponent: np.ndarray) -> np.ndarray:
        """R_n(t) e^{exponent} / (2 t R_n(1/2)); exp(W(t)) for exponent I(t)."""
        R = sf.j_inverse_regularized(self.n - 1, t)
        return R * np.exp(exponent) / (self._two_R_half * t)

    def __call__(self, a) -> np.ndarray | float:
        aa, scalar = _open_unit(a)
        u = aa ** (1.0 / self.n)
        out = np.empty(aa.shape)
        lo, hi = u < _U_FLOOR, aa > _S_HI
        mid = ~(lo | hi)
        out[lo] = self._f0 * u[lo]
        out[mid] = self._F_u(u[mid])
        if hi.any():
            out[hi] = self._F_tail(-np.log1p(-aa[hi]))
        return float(out[0]) if scalar else out

    def slope(self, a) -> np.ndarray | float:
        """First derivative of the transform, exp(W(a))."""
        aa, scalar = _open_unit(a)
        integral = np.empty(aa.shape)
        hi = aa > _S_HI
        integral[~hi] = self._I_mid(aa[~hi])
        if hi.any():
            integral[hi] = self._I_tail(-np.log1p(-aa[hi]))
        out = self._exp_W(aa, integral)
        return float(out[0]) if scalar else out

    def value_and_slope(self, a) -> tuple:
        """(F(a), F'(a)): the call and ``slope``, which share no work."""
        return self(a), self.slope(a)


@lru_cache(maxsize=None)
def conjecture_transform(n: int) -> PiecewiseRadius:
    """``conjecture_F``, the conjectured extremal transform, glued from the
    pointwise min of phi_k; built once per n.

    For n = 1 this reduces to a constant multiple of ``specfun.phi_inv``.
    """
    table = partition(n)
    return _glued_radius("conjecture_F", table.crossings_phi, table.phi_argmin[0],
                         match_slope=True)


@lru_cache(maxsize=None)
def weak_transform(n: int) -> ExpIntegralTransform:
    """``weak_F``, the proven transform from the torsion/moment lower bound;
    built once per n."""
    return ExpIntegralTransform(n)


@lru_cache(maxsize=None)
def bad_transform(n: int) -> PiecewiseRadius:
    """``bad_func``, the radius transform glued over the perimeter-optimal
    intervals; built once per n.

    It uses the intervals where s_k is minimal (not where phi_k is
    minimal), with every beta = 1 and the alphas accumulated left to right
    for continuity; the first piece is anchored at zero.  It is expected
    NOT to produce a concave composition.
    """
    table = partition(n)
    return _glued_radius("bad_func", table.crossings_s, table.s_argmin[0],
                         match_slope=False)
