"""Gaussian measure and moments of support bodies by polar quadrature.

The workhorse identity, for any star-shaped-about-the-origin body with
radial function rho, is

    int_K f dgamma = (2 pi)^{-n/2} oint_{S^{n-1}} sum_j a_j(theta)
                     J_{n+j-1}(rho(theta)) dtheta

for integrands carried as ray polynomials f(t theta) = sum_j a_j(theta) t^j.
Unbounded bodies cost nothing extra because J_p(inf) is finite.

Spherical rules: midpoint angles (n=2), Fibonacci sphere (n=3), seeded
Monte Carlo directions (n=4).  A ``SphereRule`` carries its nested half
rule (none for the MC rule); deterministic rules report the half-rule
difference as their error, the MC rule 3 standard errors.  Sums use
numpy's pairwise reduction, so results do not depend on evaluation order.

Integrands are ``RayPolynomial``s: sums of terms c x^m |x|^a ||x||_K^g
held as data, one class for the moments here, the torsion test functions
and the calculus of ``verify.MultiPoly``.  ``RayColumns.term`` is the one
place a term is lowered to its ray coefficient c theta^m rho^-g, from the
directions and the sampled rho; it computes each power theta_i^e and
rho^g once per set of directions and keeps it.

A ``PolarSample`` holds rho on a rule's points, which are followed by
its half rule's, so a body's radial function is evaluated in one call per
sample however many moments, bundles and torsion bounds integrate against
it.  It also keeps one table of J_{n-1+j}(rho), j = 0..deg: the kernel
gives the top two orders and the downward recurrence
J_p = (J_{p+2} + g_{p+1}) / (p + 1) the rest (``specfun.j_lower_orders``),
so a batch of integrals (``PolarSample.integrals``) and the integrals that
follow it at no higher degree reuse one table.  A batch is one pass: each
integrand is lowered once on the sample's kept columns, its per-direction
row sum_j a_j(theta) J_{n-1+j}(rho) is built degree by degree, and one
reduction over the last axis takes every row's full- and half-rule sums
(or its standard deviation for the n=4 rule).  A row-wise ``np.sum`` or
``np.std`` is bit for bit the 1-D call on that row, so a batch gives the
same Estimates as its integrands taken one at a time on the same table.
An integrand is a RayPolynomial or its lowered form {j: a_j(theta)}.
A check asks for the integrals it reads, in one batch per sample, and
takes normalized means E f from ``PolarSample.means``, the one way to
normalize; ``measure`` is gamma(K) over a fresh sample.

``path_measures`` gives gamma and its err along a Minkowski path
(1 - t) K + t L.  When L is a dilate cK, rho_{K_t} = (1 - t + t c) rho_K
exactly, so K is sampled once and each t is one kernel call J_{n-1} on
K's distinct radii, scaled, gathered back to the rule's points and summed
like any integral (``PolarSample.scaled_measure``); a sample whose radii
are all distinct skips the gather.  A value sort and a binary search
map a round body's few radii to the points, without the argsort that
more radii need.  Other pairs sample each ``bd.interpolate`` body.

``first_variation`` integrates on the same table:
d/d eps gamma(K + eps L) at 0+ is the polar integral of
rho^n e^{-rho^2/2} c = (n J_{n-1}(rho) - J_{n+1}(rho)) c, where
c = d/d eps log rho_{K + eps L} comes from two closed radials of K + eps L.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import body as bd
from . import specfun as sf


class QuadratureFailure(RuntimeError):
    """Estimated error exceeded the requested tolerance."""


@dataclass(frozen=True)
class Estimate:
    """A value with a claimed absolute error bound and provenance."""

    value: float
    err: float
    method: str  # closed | quadrature | monte_carlo

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("err must be nonnegative")

    def over(self, other: "Estimate") -> "Estimate":
        """First-order error propagation for self / other."""
        v = self.value / other.value
        e = (self.err + abs(v) * other.err) / abs(other.value)
        return Estimate(v, e, self.method)

    def times(self, other: "Estimate") -> "Estimate":
        v = self.value * other.value
        e = abs(self.value) * other.err + abs(other.value) * self.err
        return Estimate(v, e, self.method)


class RayPolynomial:
    """f(x) = sum c x^m |x|^a ||x||_K^g over ``terms`` {(m, a, g): c}.

    m is an exponent tuple with trailing zeros dropped, so the
    dimension-free atoms and coordinate monomials share one key space;
    zero terms are pruned.  K enters only through its sampled radial
    function when f is lowered to ray coefficients (``ray_columns``).
    """

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c != 0.0}

    @staticmethod
    def constant(c: float) -> "RayPolynomial":
        return RayPolynomial({((), 0, 0): float(c)})

    @staticmethod
    def abs_x_power(j: int) -> "RayPolynomial":
        """|x|^j."""
        return RayPolynomial({((), j, 0): 1.0})

    @staticmethod
    def dot_power(theta, j: int) -> "RayPolynomial":
        """<x, theta>^j."""
        lin = RayPolynomial({((0,) * i + (1,), 0, 0): float(t)
                             for i, t in enumerate(np.asarray(theta, dtype=float))})
        out = RayPolynomial.constant(1.0)
        for _ in range(j):
            out = out * lin
        return out

    @staticmethod
    def gauge_power(j: int) -> "RayPolynomial":
        """||x||_K^j, read from the sampled radial function of K."""
        return RayPolynomial({((), 0, j): 1.0})

    def _like(self, terms: dict) -> "RayPolynomial":
        """A polynomial of this one's class and fields with other terms."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        RayPolynomial.__init__(out, terms)
        return out

    def __add__(self, other: "RayPolynomial | float") -> "RayPolynomial":
        if not isinstance(other, RayPolynomial):
            other = RayPolynomial.constant(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = t.get(k, 0.0) + c
        return self._like(t)

    __radd__ = __add__

    def __sub__(self, other: "RayPolynomial | float") -> "RayPolynomial":
        return self + other * -1.0

    def __mul__(self, other: "RayPolynomial | float") -> "RayPolynomial":
        if not isinstance(other, RayPolynomial):
            c = float(other)
            return self._like({k: c * v for k, v in self.terms.items()})
        t: dict = {}
        for (m1, a1, g1), c1 in self.terms.items():
            for (m2, a2, g2), c2 in other.terms.items():
                lo, hi = (m1, m2) if len(m1) <= len(m2) else (m2, m1)
                k = (tuple(map(operator.add, lo, hi)) + hi[len(lo):], a1 + a2, g1 + g2)
                t[k] = t.get(k, 0.0) + c1 * c2
        return self._like(t)

    __rmul__ = __mul__

    @property
    def degree(self) -> int:
        return max((sum(m) + a + g for m, a, g in self.terms), default=0)

    def ray_columns(self, cols: "RayColumns") -> dict:
        """{j: a_j(theta)} with f(t theta) = sum_j a_j(theta) t^j on the
        directions of ``cols``: each column sums its terms in term order.
        A column with no direction factor stays a scalar."""
        out: dict = {}
        for (m, a, g), c in self.terms.items():
            j = sum(m) + a + g
            t = cols.term(m, g, c)
            out[j] = out[j] + t if j in out else t
        return out

    def coeffs(self, dirs: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """(n_dirs, degree + 1) array A with f(t theta) = sum_j A[:, j] t^j
        at the directions theta = dirs, where rho is K's radial function."""
        out = np.zeros((len(dirs), self.degree + 1))
        for j, col in self.ray_columns(RayColumns(dirs, rho)).items():
            out[:, j] += col
        return out


class RayColumns:
    """The powers theta_i^e and rho^g on one set of directions, each
    computed once and kept: the one place a term c x^m |x|^a ||x||_K^g is
    lowered to its ray coefficient c theta^m rho^-g (``term``).

    rho^-g is 0 on rays that never leave K, and on the empty rays
    (rho = 0) of a translate whose origin lies outside it.
    """

    def __init__(self, dirs: np.ndarray, rho: np.ndarray | None):
        self.dirs, self.rho = dirs, rho
        self._theta: dict = {}
        self._rho: dict = {}

    def term(self, m: tuple, g: int, c: float):
        """c theta^m rho^-g; the scalar c when m and g are empty."""
        col = c
        for i, e in enumerate(m):
            if e:
                if (i, e) not in self._theta:
                    self._theta[i, e] = self.dirs[:, i] ** e
                col = col * self._theta[i, e]
        if g:
            if g not in self._rho:
                # an infinite divisor gives the 0 of empty and unbounded rays
                self._rho[g] = np.where(self.rho > 0, self.rho**g, np.inf)
            col = col / self._rho[g]
        return col


# ---------------------------------------------------------------------------
# spherical rules


@dataclass(frozen=True)
class SphereRule:
    """``size`` points of weight ``weight`` = area(S^{n-1}) / size, then its
    nested half rule's points of weight ``half_weight`` (None, and no half
    rule, for the n=4 Monte Carlo rule): one radial call samples both."""

    n: int
    size: int
    points: np.ndarray
    weight: float
    half_weight: float | None


@lru_cache(maxsize=32)
def sphere_rule(n: int, size: int | None = None) -> SphereRule:
    pts = bd.direction_grid(n, size)
    weight = bd.sphere_area(n) / len(pts)
    if n == 4:
        # one point has a standard deviation of 0, so its err would be too
        if len(pts) < 2:
            raise bd.BodyError(f"the n=4 Monte Carlo rule needs at least 2 points, "
                               f"got {len(pts)}")
        return SphereRule(n, len(pts), pts, weight, None)
    # n=2 must re-sample rather than take points[::2]: that subset is a
    # quarter-period-shifted midpoint rule whose leading Fourier error mode
    # vanishes for even integrands, silently reproducing the full rule
    half = bd.direction_grid(n, len(pts) // 2)
    points = np.concatenate([pts, half])
    points.setflags(write=False)
    return SphereRule(n, len(pts), points, weight, bd.sphere_area(n) / len(half))


@dataclass(eq=False)
class PolarSample:
    """rho_K on the points of a rule, its nested half rule's included.

    ``rho`` follows ``rule.points``: the rule's ``rule.size`` directions
    first and the half rule's after them; each integrand is evaluated once
    on both and split into the two polar sums.  The n=4 Monte Carlo rule
    has no half rule: its error is 3 standard errors instead of a
    half-rule difference.

    The table of J_{n-1+j}(rho), j = 0..deg, is built once, at the highest
    degree asked for so far, and kept for later integrals.  Its lower rows
    come from the recurrence, so an integral can move in its last bits
    with the degree of the table it meets; every entry is within 2e-15
    relative of J either way.

    The sorted distinct values of rho and the inverse that gathers them
    back to the rule's points are found on the first ``scaled_measure``
    call and kept (``_radius_map``): a round body's sample repeats its
    radii (a ball's has at most 4 distinct values on the n = 3 rule), so
    each dilate costs one kernel call on the distinct radii only.  A
    round body's few radii come from a value sort and a binary search,
    more from an argsort of rho, and a sample whose radii are all distinct
    keeps no map.
    """

    K: bd.SupportBody
    rule: SphereRule
    rho: np.ndarray
    _J: np.ndarray | None = field(default=None, init=False, repr=False)
    _cols: RayColumns = field(init=False, repr=False)

    def __post_init__(self):
        self._cols = RayColumns(self.rule.points, self.rho)

    def _orders(self, deg: int) -> np.ndarray:
        if self._J is None or len(self._J) <= deg:
            n = self.K.n
            self._J = sf.j_lower_orders(n - 1, n - 1 + deg, self.rho)
        return self._J

    def _sums(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and errs of the polar sums of per-direction rows (the
        last axis), every row in one reduction: the full rule's sum, err
        its difference from the half rule's, or 3 standard errors for the
        Monte Carlo rule."""
        n, m = self.K.n, self.rule.size
        norm = (2.0 * np.pi) ** (-n / 2.0)
        val = norm * self.rule.weight * np.sum(rows[..., :m], axis=-1)
        if self.rule.half_weight is None:
            scale = norm * bd.sphere_area(n)
            err = 3.0 * scale * np.std(rows, axis=-1) / np.sqrt(m)
        else:
            err = np.abs(val - norm * self.rule.half_weight * np.sum(rows[..., m:], axis=-1))
        return val, err + 1e-13 * np.maximum(1.0, np.abs(val))

    def integrals(self, *fs) -> list[Estimate]:
        """Unnormalized int_K f dgamma for each f by the polar rule, over
        one J table at the batch's top degree; err from the nested
        half-resolution rule (3 sigma for the n=4 Monte Carlo rule).

        Each f is a RayPolynomial or its lowered form, a dict {j: a_j(theta)}
        of ray-coefficient columns on ``rule.points`` (the form of
        integrands that are not RayPolynomials, such as the first
        variation).  Each f is lowered once; its per-direction row
        sum_j a_j J_{n-1+j}(rho) is built degree by degree, and one
        reduction sums every row in blocks of at most the table's row count.
        """
        lowered = [f.ray_columns(self._cols) if isinstance(f, RayPolynomial) else f
                   for f in fs]
        J = self._orders(max(max(cols, default=0) for cols in lowered))
        out = []
        for lo in range(0, len(lowered), len(J)):
            block = lowered[lo:lo + len(J)]
            rows = np.zeros((len(block), len(self.rho)))
            for row, cols in zip(rows, block):
                for j in sorted(cols):
                    row += cols[j] * J[j]
            values, errs = self._sums(rows)
            out += [Estimate(v, e, "quadrature")
                    for v, e in zip(values.tolist(), errs.tolist())]
        return out

    def means(self, *fs) -> tuple[Estimate, list[Estimate]]:
        """gamma(K) and each E f = int_K f dgamma / gamma(K), from one
        ``integrals`` batch of (1, *fs)."""
        a, *ints = self.integrals(RayPolynomial.constant(1.0), *fs)
        return a, [i.over(a) for i in ints]

    @cached_property
    def _radius_map(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(sorted distinct radii, the index of each point's radius among
        them), or None when every radius is distinct.

        When the first ``specfun._LOOP_MAX`` + 1 points repeat a radius, as
        a round body's do, a value sort finds the radii and, if there are
        at most ``_LOOP_MAX`` of them, a binary search maps the points to
        them: together a fraction of the argsort in ``np.unique(rho,
        return_inverse=True)``, which is at its slowest on a few repeated
        values.  More radii take that argsort, and so does a sample whose
        first points are all distinct, which has more than ``_LOOP_MAX``
        radii: a binary search into many radii costs more than the argsort.
        """
        rho = self.rho
        if len(set(rho[:sf._LOOP_MAX + 1].tolist())) <= sf._LOOP_MAX:
            # np.unique(rho) would import numpy.ma, about 10 ms in a fresh
            # process (numpy 2.4, 2 CPUs)
            ordered = np.sort(rho)
            radii = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            if len(radii) <= sf._LOOP_MAX:
                return radii, np.searchsorted(radii, rho)
        radii, inverse = np.unique(rho, return_inverse=True)
        return None if len(radii) == len(rho) else (radii, inverse)

    def scaled_measure(self, c: float) -> tuple[float, float]:
        """gamma(cK), c > 0, and its err: ``integrals`` of 1 on rho_{cK} =
        c rho_K, from one kernel call J_{n-1}(c r) on the distinct radii r
        of rho, gathered back to the rule's points; on c rho itself when
        every radius is distinct.

        The series' term count comes from the largest argument, which the
        distinct radii share with rho, so the row is bit for bit the one
        on c rho whenever there are more than ``specfun._LOOP_MAX`` distinct
        radii.  With fewer (a ball) the kernel runs on the float carrier,
        whose entries can differ from the array carrier's by an ulp; the
        sums then move by up to about 1e-15 relative.
        """
        if self._radius_map is None:
            row = sf.j_lower(self.K.n - 1, c * self.rho)
        else:
            radii, inverse = self._radius_map
            row = sf.j_lower(self.K.n - 1, c * radii)[inverse]
        value, err = self._sums(row)
        return float(value), float(err)


def polar_sample(K: bd.SupportBody, rule: SphereRule | None = None) -> PolarSample:
    """Evaluate rho_K in one call on ``rule`` (default per dimension) and
    its nested half rule."""
    rule = rule or sphere_rule(K.n)
    return PolarSample(K, rule, np.asarray(bd.radial(K, rule.points), dtype=float))


def path_measures(K: bd.SupportBody, L: bd.SupportBody, t,
                  rule: SphereRule | None = None) -> tuple[np.ndarray, np.ndarray]:
    """gamma((1 - t_i) K + t_i L) on ``rule`` for each t_i, as arrays of
    values and errs.  When L = cK (``bd.dilation_factor``) each body is
    (1 - t_i + t_i c) K, measured on K's one sample scaled
    (``PolarSample.scaled_measure``); other pairs measure each
    ``bd.interpolate`` body."""
    c = bd.dilation_factor(K, L)
    if c is None:
        ests = (measure(bd.interpolate(K, L, ti), rule) for ti in t)
        rows = [(e.value, e.err) for e in ests]
    else:
        base = polar_sample(K, rule)
        rows = [base.scaled_measure(1.0 - ti + ti * c) for ti in t]
    return tuple(np.array(rows).T)


def measure(K: bd.SupportBody, rule: SphereRule | None = None) -> Estimate:
    """gamma(K) by the polar rule."""
    return polar_sample(K, rule).integrals(RayPolynomial.constant(1.0))[0]


@dataclass(frozen=True)
class MomentsBundle:
    """Normalized Gaussian moments of a body, all as Estimates."""

    a: Estimate            # gamma(K)
    m2: Estimate           # E |X|^2
    m4: Estimate           # E |X|^4
    gK2: Estimate          # E ||X||_K^2
    gK1: Estimate          # E ||X||_K


def moments_bundle(K: bd.SupportBody, rule: SphereRule | None = None) -> MomentsBundle:
    a, (m2, m4, gK2, gK1) = polar_sample(K, rule).means(
        RayPolynomial.abs_x_power(2), RayPolynomial.abs_x_power(4),
        RayPolynomial.gauge_power(2), RayPolynomial.gauge_power(1))
    return MomentsBundle(a=a, m2=m2, m4=m4, gK2=gK2, gK1=gK1)


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


_SHARD = 1 << 18


def mc_measure(K: bd.SupportBody, N: int, seed: int) -> Estimate:
    """Hit fraction of N standard Gaussian samples, counter-based streams
    per shard so the result is reproducible and scheduling-independent.
    err is 3 sqrt(p(1 - p) / N); at 0 or N hits, where that is 0, it is the
    exact one-sided bound 1 - 0.00135^(1/N), the distance to the p at which
    the observed outcome has one-sided 3-sigma probability."""
    if N < 1:
        raise ValueError("N >= 1")
    hits = 0
    done = 0
    shard = 0
    while done < N:
        m = min(_SHARD, N - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, shard]))
        x = rng.standard_normal((m, K.n))
        g = bd.gauge(K, x)
        hits += int(np.sum(g <= 1.0))
        done += m
        shard += 1
    phat = hits / N
    if 0 < hits < N:
        err = 3.0 * np.sqrt(phat * (1.0 - phat) / N)
    else:
        err = 1.0 - 0.00135 ** (1.0 / N)
    return Estimate(phat, err, "monte_carlo")


# ---------------------------------------------------------------------------
# first variation


def first_variation(sample: PolarSample, L: bd.SupportBody) -> Estimate:
    """d/d eps gamma(K + eps L) at eps = 0+, K the sampled body.

    On each ray the boundary of K + eps L moves by rho c, where
    c = d/d eps log rho_{K + eps L} at 0: the Richardson extrapolation of
    (rho_eps / rho - 1) / eps at eps = h and h/2, h = 1e-3 r(K), from the
    closed radials of ``bd.minkowski_sum``.  Since
    rho^n e^{-rho^2/2} = n J_{n-1}(rho) - J_{n+1}(rho), the derivative is
    the polar integral of the ray-coefficient columns {0: n c, 2: -c} on
    the sample's J table.  err adds the extrapolation step and the
    quotients' rounding to the half-rule difference.  Rays that never
    leave K add nothing.

    An L with infinite support at a sample point where K's is finite makes
    K + eps L unbounded in a direction where K is bounded: gamma jumps at
    0+, and the derivative is +inf.
    """
    K, n, pts = sample.K, sample.K.n, sample.rule.points
    r = bd.inradius(K)
    if r is None or not np.isfinite(r):
        raise bd.BodyError("the first variation needs a finite in-radius of K")
    unbounded = pts[np.isinf(np.asarray(L.support(pts), dtype=float))]
    if len(unbounded) and np.any(np.isfinite(np.asarray(K.support(unbounded), dtype=float))):
        return Estimate(np.inf, 0.0, "quadrature")
    h = 1e-3 * r

    def slope(eps: float) -> np.ndarray:
        rho = np.asarray(bd.radial(bd.minkowski_sum(K, L, eps), pts), dtype=float)
        with np.errstate(invalid="ignore"):
            c = (rho / sample.rho - 1.0) / eps
        return np.where(np.isinf(sample.rho), 0.0, c)

    c1, c2 = slope(h), slope(h / 2.0)
    est, step, weight = sample.integrals(*({0: n * c, 2: -c} for c in
                                           (2.0 * c2 - c1, c2 - c1, np.ones_like(c1))))
    # 2 c2 - c1 turns an error d in each ratio rho_eps / rho into at most
    # 5 d / h; d is taken as 4 ulps
    rounding = 20.0 * np.finfo(float).eps / h * weight.value
    return Estimate(est.value, est.err + abs(step.value) + rounding, "quadrature")
