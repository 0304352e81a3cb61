"""Inequality-verification harness.

Concavity of transformed Gaussian measures along Minkowski interpolations,
estimation of the largest concavity power, the correlated-moment upper
bound with its closed-form optimizer, torsion-based lower bounds, and the
moment/variance inequality suite.  Every verdict carries an explicit
numerical error budget so that "holds", "fails" and "cannot tell" are all
falsifiable outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import body as bd
from . import cylinder as cyl
from . import gaussmoments as gm
from . import panels as pn
from . import specfun as sf
from . import torsion as tor


class VerificationError(RuntimeError):
    """A check could not be evaluated as posed (bad mode, missing oracle)."""


# ---------------------------------------------------------------------------
# coordinate polynomials: gm.RayPolynomial with pointwise values and calculus


def _strip(m) -> tuple:
    """An exponent tuple without trailing zeros, the key form of gm.RayPolynomial."""
    m = tuple(m)
    while m and m[-1] == 0:
        m = m[:-1]
    return m


class MultiPoly(gm.RayPolynomial):
    """Polynomial on R^n built from {exponent tuple: coefficient}.

    A ``gm.RayPolynomial`` with the dimension attached: the ring operations
    and the lowering to ray coefficients are the parent's.  Pointwise
    evaluation and the differential operators the variance and Hessian
    checks need accept only coordinate monomials; a term with an |x| or
    gauge factor raises ``VerificationError``.
    """

    def __init__(self, n: int, terms: dict):
        super().__init__({(_strip(m), 0, 0): c for m, c in terms.items()})
        self.n = n

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(n: int, c: float) -> "MultiPoly":
        return MultiPoly(n, {(): float(c)})

    @staticmethod
    def coord(n: int, i: int) -> "MultiPoly":
        if not 0 <= i < n:
            raise VerificationError("coordinate index out of range")
        return MultiPoly(n, {(0,) * i + (1,): 1.0})

    @staticmethod
    def abs_sq(n: int) -> "MultiPoly":
        """|x|^2."""
        return MultiPoly(n, {(0,) * i + (2,): 1.0 for i in range(n)})

    def _require_monomials(self) -> None:
        if any(a or g for _, a, g in self.terms):
            raise VerificationError(
                "pointwise values and derivatives need coordinate monomials; "
                "this polynomial has an |x| or gauge factor")

    # -- calculus ----------------------------------------------------------
    def diff(self, i: int) -> "MultiPoly":
        self._require_monomials()
        t = {}
        for (m, _, _), c in self.terms.items():
            if i < len(m) and m[i] > 0:
                k = (_strip(m[:i] + (m[i] - 1,) + m[i + 1:]), 0, 0)
                t[k] = t.get(k, 0.0) + c * m[i]
        return self._like(t)

    def _sum(self, polys) -> "MultiPoly":
        return sum(polys, MultiPoly(self.n, {}))

    def grad_sq(self) -> "MultiPoly":
        return self._sum(d * d for d in map(self.diff, range(self.n)))

    def laplacian(self) -> "MultiPoly":
        return self._sum(self.diff(i).diff(i) for i in range(self.n))

    def euler(self) -> "MultiPoly":
        """<x, grad f>."""
        return self._sum(MultiPoly.coord(self.n, i) * self.diff(i) for i in range(self.n))

    def hessian_frob_sq(self) -> "MultiPoly":
        second = [d_i.diff(j) for d_i in map(self.diff, range(self.n)) for j in range(self.n)]
        return self._sum(d * d for d in second)

    # -- queries -----------------------------------------------------------
    @property
    def is_even(self) -> bool:
        return all(sum(m) % 2 == 0 for m, _, _ in self.terms)

    def __call__(self, x) -> np.ndarray | float:
        self._require_monomials()
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        # f(x) is the sum of the ray coefficients taken at x itself (t = 1)
        out = self.coeffs(pts, None).sum(axis=1)
        return float(out[0]) if np.ndim(x) == 1 else out


def random_even_quartic(n: int, rng: np.random.Generator,
                        scale: float = 1.0) -> MultiPoly:
    """Random even polynomial of total degree 4 (nonzero quartic part)."""
    terms: dict = {}
    for deg in (2, 4):
        for combo in itertools.combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in combo:
                e[i] += 1
            terms[tuple(e)] = float(rng.normal(0.0, scale))
    return MultiPoly(n, terms)


# ---------------------------------------------------------------------------
# measure transforms


@dataclass(frozen=True)
class MeasureTransform:
    """A closed-form C^1 increasing reparametrization a -> F(a) of measures
    in (0,1): called for F, ``slope`` for F', ``value_and_slope`` for both.
    ``slope_at(a, F)`` is F'(a) given F = F(a), so a quantile transform
    takes its quantile once for both."""

    name: str
    fn: "callable"
    slope_at: "callable"

    def __call__(self, a):
        return self.fn(a)

    def slope(self, a):
        return self.value_and_slope(a)[1]

    def value_and_slope(self, a):
        F = self.fn(a)
        return F, self.slope_at(a, F)


def _power_transform(p: float) -> MeasureTransform:
    p = float(p)
    if p == 0.0:
        return MeasureTransform(
            "power:0", lambda a: np.log(np.asarray(a, dtype=float)),
            lambda a, F: 1.0 / np.asarray(a, dtype=float))
    s = 1.0 if p > 0 else -1.0
    return MeasureTransform(
        f"power:{p:g}",
        lambda a: s * np.asarray(a, dtype=float) ** p,
        lambda a, F: abs(p) * np.asarray(a, dtype=float) ** (p - 1.0))


def _psi_inv_transform(n: int) -> MeasureTransform:
    return MeasureTransform(
        "psi_inv", sf.psi_inv,
        lambda a, F: np.sqrt(2.0 * np.pi) * np.exp(F ** 2 / 2.0))


def _phi_inv_transform(n: int) -> MeasureTransform:
    return MeasureTransform(
        "phi_inv", sf.phi_inv,
        lambda a, F: np.sqrt(np.pi / 2.0) * np.exp(F ** 2 / 2.0))


# transform name -> builder in dimension n; ``power:<p>`` is parsed apart
TRANSFORMS = {"psi_inv": _psi_inv_transform, "phi_inv": _phi_inv_transform,
              "conjecture_F": cyl.conjecture_transform,
              "weak_F": cyl.weak_transform, "bad_func": cyl.bad_transform}


def measure_transform(spec, n: int):
    """The transform named ``spec`` in dimension n: a ``TRANSFORMS`` name or
    ``power:<p>``.  Any other object is taken to be a transform already (a
    ``name``, a call, a ``slope`` and a ``value_and_slope``) and returned
    unchanged.
    """
    if not isinstance(spec, str):
        return spec
    if spec.startswith("power:"):
        return _power_transform(float(spec.split(":", 1)[1]))
    if spec not in TRANSFORMS:
        raise VerificationError(f"unknown transform {spec!r}")
    return TRANSFORMS[spec](n)


# ---------------------------------------------------------------------------
# concavity along Minkowski interpolations


@dataclass(frozen=True)
class ConcavityReport:
    transform: str
    pair: tuple
    t_grid: np.ndarray
    measures: np.ndarray
    measure_errs: np.ndarray
    transformed: np.ndarray
    second_diffs: np.ndarray
    budget: np.ndarray
    verdict: str

    @property
    def max_second_diff(self) -> float:
        return float(np.max(self.second_diffs))

    @property
    def worst_excess(self) -> float:
        """Largest (second diff - budget); <= 0 means concave within tol."""
        return float(np.max(self.second_diffs - self.budget))


MIN_T_POINTS = 9  # fewest interpolation points a concavity check takes


def _uniform_grid(n_t: int) -> np.ndarray:
    """t_i = i / (n_t + 1), i = 1..n_t."""
    if n_t < MIN_T_POINTS:
        raise VerificationError(f"need at least {MIN_T_POINTS} t points")
    return (np.arange(n_t) + 1.0) / (n_t + 1.0)


def _second_diffs(t, a, aerr, tr):
    F, slope = tr.value_and_slope(a)
    F, slope = np.asarray(F, dtype=float), np.abs(np.asarray(slope, dtype=float))
    dt = float(t[1] - t[0])
    d2 = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / dt**2
    node = aerr * slope
    stencil = np.maximum(node[2:], np.maximum(node[1:-1], node[:-2]))
    # 4 = worst-case stencil weight sum; the eps term absorbs cancellation
    # in the transformed values themselves
    rounding = 4.0 * np.finfo(float).eps * np.max(np.abs(F))
    budget = (4.0 * stencil + rounding) / dt**2
    return F, d2, budget


def _verdict(d2: np.ndarray, budget: np.ndarray) -> str:
    if np.any(d2 > 5.0 * budget):
        return "violation"
    if np.all(d2 <= budget):
        return "concave_within_tol"
    return "inconclusive"


def concavity_check(transform, K: bd.SupportBody, L: bd.SupportBody,
                    n_t: int = 33,
                    rule: gm.SphereRule | None = None) -> ConcavityReport:
    """Second-difference concavity test of F(gamma((1-t)K + tL)).

    verdict "violation" requires a second difference above 5x the budget;
    "concave_within_tol" requires all of them at or below the budget.
    A path measure that rounds to 0 or 1 leaves the transforms' domain
    (0, 1): it raises ``VerificationError``, a numerical failure, before
    any transform sees it.
    """
    tr = measure_transform(transform, K.n)
    t = _uniform_grid(n_t)
    a, aerr = gm.path_measures(K, L, t, rule)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise VerificationError(
            f"a path measure rounds to 0 or 1 (min {a.min():.17g}, max {a.max():.17g})")
    F, d2, budget = _second_diffs(t, a, aerr, tr)
    return ConcavityReport(
        transform=tr.name, pair=(K.label, L.label), t_grid=t,
        measures=a, measure_errs=aerr, transformed=F,
        second_diffs=d2, budget=budget, verdict=_verdict(d2, budget),
    )


# ---------------------------------------------------------------------------
# largest concavity power


@dataclass(frozen=True)
class PowerBracket:
    value: float        # bracket midpoint
    lo: float           # largest power that passed
    hi: float           # smallest power that failed (or hi bound)
    width: float


def max_power(K: bd.SupportBody, L: bd.SupportBody, n_t: int = 33,
              rule: gm.SphereRule | None = None) -> PowerBracket:
    """Bisect for the largest p in [-4, 8] with sign(p) gamma(K_t)^p concave
    on the grid.

    Measures along the path are computed once; each candidate power is then
    an arithmetic re-test, so 30 bisection steps cost one path evaluation.
    """
    t = _uniform_grid(n_t)
    lo, hi = -4.0, 8.0
    a, aerr = gm.path_measures(K, L, t, rule)

    def concave_ok(p: float) -> bool:
        _, d2, budget = _second_diffs(t, a, aerr, _power_transform(p))
        return bool(np.all(d2 <= budget))

    if not concave_ok(lo):
        return PowerBracket(lo, lo, lo, 0.0)
    if concave_ok(hi):
        return PowerBracket(hi, hi, hi, 0.0)
    p_lo, p_hi = lo, hi
    for _ in range(30):
        mid = 0.5 * (p_lo + p_hi)
        if concave_ok(mid):
            p_lo = mid
        else:
            p_hi = mid
    return PowerBracket(0.5 * (p_lo + p_hi), p_lo, p_hi, p_hi - p_lo)


# ---------------------------------------------------------------------------
# the correlated-moment upper bound for the concavity power


def gauss_main_bound(K: bd.SupportBody, rule: gm.SphereRule | None = None) -> dict:
    """Closed-form optimized upper bound for the concavity power of K.

    With m = E||X||_K^2, V = Var ||X||_K^2, c = r(K)^2/(2m):

        bound = c (1-m)^2 / (1 - cV) + 1/(n - E|X|^2),

    attained at the unique stationary shift alpha* = m + (1/c - V)/(1-m).
    A sweep over 100 other shifts guards the closed form.
    """
    r = bd.inradius(K)
    if r is None or not np.isfinite(r):
        raise bd.BodyError("in-radius unavailable for this body")
    a, (ex2, g2, g4) = gm.polar_sample(K, rule).means(
        gm.RayPolynomial.abs_x_power(2), gm.RayPolynomial.gauge_power(2),
        gm.RayPolynomial.gauge_power(4))
    m = g2.value
    V = g4.value - m * m
    if not 0.0 < m < 1.0:
        raise gm.QuadratureFailure(f"gauge second moment {m:g} outside (0,1)")
    c = r * r / (2.0 * m)
    if not c * V < 1.0:
        raise gm.QuadratureFailure("variance term at the stability limit")
    tail = 1.0 / _second_moment_margin(K.n, ex2.value)
    alpha_star = m + (1.0 / c - V) / (1.0 - m)
    bound = c * (1.0 - m) ** 2 / (1.0 - c * V) + tail

    def objective(alpha):
        beta = alpha - m
        inner = (1.0 - m) * beta + V
        return (c * inner * inner - V) / (beta * beta) + tail

    beta_star = alpha_star - m
    mult = np.logspace(-2.0, 2.0, 50)
    sweep = objective(m + np.concatenate([beta_star * mult, -beta_star * mult]))
    sweep_max = float(np.max(sweep))
    if sweep_max > bound + 1e-9:
        raise VerificationError("shift sweep exceeded the closed-form maximum")
    return {
        "bound": float(bound),
        "alpha_star": float(alpha_star),
        "components": {
            "inradius": float(r), "gauge_m2": float(m), "gauge_var": float(V),
            "c": float(c), "ex2": float(ex2.value), "tail": float(tail),
            "measure": float(a.value), "sweep_max": sweep_max,
            "err": float(g2.err + g4.err + ex2.err + a.err),
        },
    }


def corT1_bound(K: bd.SupportBody, rule: gm.SphereRule | None = None) -> dict:
    """Torsion route to a concavity-power lower bound: 2 T(K) + 1/(n - E|X|^2).

    Round cylinders (and their strip/ball special cases) use the exact
    radial torsion; other bodies get the certified gauge lower bound.
    """
    t_res = tor.torsion_one(K)
    _, (ex2,) = gm.polar_sample(K, rule).means(gm.RayPolynomial.abs_x_power(2))
    value = 2.0 * t_res.value + 1.0 / _second_moment_margin(K.n, ex2.value)
    return {"value": float(value), "torsion": t_res, "ex2": float(ex2.value),
            "torsion_kind": t_res.kind}


# ---------------------------------------------------------------------------
# first-variation (Minkowski) inequality


def minkowski_first_check(K: bd.SupportBody, L: bd.SupportBody,
                          rule: gm.SphereRule | None = None) -> dict:
    """First variation of gamma against the dimensional-power product bound.

    lhs = d/deps gamma(K + eps L);  rhs = (n - E|X|^2) a_K^(1-p) a_L^p with
    p = 1/(n - E|X|^2).  ``rhs_weak`` records the same product scaled by
    (1 - E|X|^2/n) instead, which is implied by rhs (it is smaller).
    """
    if K.n != L.n:
        raise bd.BodyError("dimension mismatch")
    sample = gm.polar_sample(K, rule)
    aK, (ex2,) = sample.means(gm.RayPolynomial.abs_x_power(2))
    aL = gm.measure(L, rule)
    lhs = gm.first_variation(sample, L)
    nm = _second_moment_margin(K.n, ex2.value)
    p = 1.0 / nm
    product = aK.value ** (1.0 - p) * aL.value ** p
    rhs = nm * product
    rhs_weak = (nm / K.n) * product
    return {
        "lhs": float(lhs.value), "lhs_err": float(lhs.err),
        "rhs": float(rhs), "slack": float(lhs.value - rhs),
        "rhs_weak": float(rhs_weak), "slack_weak": float(lhs.value - rhs_weak),
        "p": float(p), "ex2": float(ex2.value),
    }


# ---------------------------------------------------------------------------
# variance (Poincare-type) inequalities


def brascamp_lieb_check(K: bd.SupportBody, f: MultiPoly,
                        mode: str = "gaussian",
                        rule: gm.SphereRule | None = None) -> dict:
    """Var f <= c E|grad f|^2 over the normalized Gaussian measure on K.

    mode "gaussian": c = 1 for any convex K.  mode "gaussian_even_half":
    c = 1/2, requiring even f and symmetric K.
    """
    if mode not in ("gaussian", "gaussian_even_half"):
        raise VerificationError(f"unknown mode {mode!r}")
    if f.n != K.n:
        raise VerificationError("dimension mismatch")
    if mode == "gaussian_even_half":
        if not f.is_even:
            raise VerificationError("even-half mode requires an even f")
        if not K.symmetric:
            raise VerificationError("even-half mode requires a symmetric K")
    _, (ef, ef2, eg2) = gm.polar_sample(K, rule).means(f, f * f, f.grad_sq())
    var = ef2.value - ef.value ** 2
    const = 0.5 if mode == "gaussian_even_half" else 1.0
    bound = const * eg2.value
    err = ef2.err + 2.0 * abs(ef.value) * ef.err + const * eg2.err
    return {"mode": mode, "var": float(var), "bound": float(bound),
            "slack": float(bound - var), "err": float(err)}


def propgauss_check(K: bd.SupportBody, u: MultiPoly,
                    rule: gm.SphereRule | None = None) -> dict:
    """Hessian-energy inequality for even u on a convex body:

        E ||Hess u||_F^2  >=  E |grad u|^2 + (E Lu)^2 / (n - E|X|^2),

    Lu = Laplacian u - <x, grad u>.  Equality at u = |x|^2/2 on every body.
    """
    if not u.is_even:
        raise VerificationError("u must be even")
    if u.n != K.n:
        raise VerificationError("dimension mismatch")
    _, (hess, grad, ex2, lu) = gm.polar_sample(K, rule).means(
        u.hessian_frob_sq(), u.grad_sq(), gm.RayPolynomial.abs_x_power(2),
        u.laplacian() - u.euler())
    rhs = grad.value + lu.value ** 2 / _second_moment_margin(K.n, ex2.value)
    slack = hess.value - rhs
    err = hess.err + grad.err + 2.0 * abs(lu.value) * lu.err + ex2.err
    return {"lhs": float(hess.value), "rhs": float(rhs),
            "slack": float(slack), "mean_Lu": float(lu.value),
            "err": float(err)}


# ---------------------------------------------------------------------------
# moment functionals


def _second_moment_margin(n: int, m2: float) -> float:
    """n - E|X|^2, which several bounds divide by; 0 is a numerical failure."""
    margin = n - m2
    if margin == 0.0:
        raise gm.QuadratureFailure("second-moment margin n - E|X|^2 vanished")
    return margin


def _alpha_from(n: int, m2: float, m4: float) -> float:
    denom = _second_moment_margin(n, m2) ** 2
    return (n * (n - 1.0) - (2.0 * n + 1.0) * m2 + m4) / denom


def _beta_from(n: int, m2: float, m4: float) -> float:
    denom = 2.0 * m2 - (m4 - m2 * m2)
    if denom <= 0.0:
        raise gm.QuadratureFailure("fourth-moment margin vanished")
    return (n * n - 2.0 * (n + 1.0) * m2 + m4) / denom


def moment_inequality_suite(K: bd.SupportBody,
                            rule: gm.SphereRule | None = None,
                            eta_shifts=(0.3, 0.6, 0.85)) -> dict:
    """All scalar moment inequalities for a symmetric convex body.

    Margins are oriented so that >= 0 (up to quadrature error) means the
    inequality holds: cfm = (E|X|^2)^2 + 2 E|X|^2 - E|X|^4, ex2 = n - E|X|^2,
    dir2 = 1 - E<X,e_i>^2 per axis, alpha = 1 - alpha(K), beta = beta(K) + 1.
    The shifted-body directional test translates K by fractions of its
    in-radius and checks E<X,th>^2 + eta(a) (E<X,th>)^2 <= 1.
    """
    n = K.n
    a, (m2e, m4e, *axes) = gm.polar_sample(K, rule).means(
        gm.RayPolynomial.abs_x_power(2), gm.RayPolynomial.abs_x_power(4),
        *(gm.RayPolynomial.dot_power(e, 2) for e in np.eye(n)))
    m2, m4 = m2e.value, m4e.value
    alpha = _alpha_from(n, m2, m4)
    beta = _beta_from(n, m2, m4)
    dir2 = [d.value for d in axes]
    report = {
        "a": float(a.value),
        "m2": float(m2), "m4": float(m4),
        "alpha": float(alpha), "beta": float(beta),
        "margins": {
            "cfm": float(m2 * m2 + 2.0 * m2 - m4),
            "ex2": float(n - m2),
            "dir2": float(1.0 - max(dir2)),
            "alpha": float(1.0 - alpha),
            "beta": float(beta + 1.0),
        },
        "err": float(m2e.err + m4e.err + a.err),
        "shifted": [],
    }
    r = bd.inradius(K)
    if K.symmetric and r is not None and np.isfinite(r):
        theta = np.zeros(n)
        theta[0] = 1.0
        fs = [gm.RayPolynomial.dot_power(theta, 1), gm.RayPolynomial.dot_power(theta, 2)]
        for frac in eta_shifts:
            KT = bd.translate(K, frac * r * theta)
            at, (d1, d2) = gm.polar_sample(KT, rule).means(*fs)
            d1, d2 = d1.value, d2.value
            margin = 1.0 - d2 - float(sf.eta(at.value)) * d1 * d1
            report["shifted"].append({
                "shift": float(frac * r), "a": float(at.value),
                "dir1": float(d1), "dir2": float(d2),
                "margin": float(margin),
            })
    return report


def alpha_halfspace(a: float) -> dict:
    """alpha of a half-space of measure a by two independent routes.

    Route 1 integrates the truncated one-dimensional moments on Chebyshev
    panels; route 2 is the closed form -sqrt(2 pi) a b exp(b^2/2) with b
    the measure quantile (equivalently -eta(a)).  The moment combination entering alpha reduces
    to m4 - 3 m2 over (1 - m2)^2 in the ambient-free normal form, so the
    result is dimension-independent.

    At a = 1/2 both the numerator and the denominator vanish (the value 0
    is a removable singularity); the quadrature route is ill-conditioned
    in a neighbourhood of it and is refused rather than patched.
    """
    if not 0.0 < a < 1.0:
        raise VerificationError("need 0 < a < 1")
    b = float(sf.psi_inv(a))
    if abs(b) < 1e-4:
        raise VerificationError(
            "quadrature route ill-conditioned near a = 1/2; evaluate nearby")
    lo = b - 16.0

    def moment(j):
        val, _ = pn.integrate(
            lambda t: t**j * np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi), [lo, b])
        return val

    mass = moment(0)
    m2 = moment(2) / mass
    m4 = moment(4) / mass
    quad_alpha = (m4 - 3.0 * m2) / (1.0 - m2) ** 2
    closed = -float(sf.eta(a))
    return {"a": float(a), "quantile": b, "quadrature": float(quad_alpha),
            "closed": closed, "diff": float(quad_alpha - closed)}


# ---------------------------------------------------------------------------
# dilation comparison against the matching strip


_S_DILATIONS = (1.0, 1.2, 1.5, 2.0, 3.0)


def s_inequality_check(K: bd.SupportBody,
                       rule: gm.SphereRule | None = None) -> dict:
    """gamma(tK) against the equal-measure strip's dilation, t in
    1, 1.2, 1.5, 2, 3.

    The reference strip half-width is matched to the quadrature value of
    gamma(K), so the t=1 margin is zero by construction.  Each tK is
    measured on K's one polar sample, scaled by t.
    """
    sample = gm.polar_sample(K, rule)
    measured = [sample.scaled_measure(t) for t in _S_DILATIONS]
    a = measured[0][0]  # t = 1
    w = float(sf.phi_inv(a))
    rows = []
    for t, (at, err) in zip(_S_DILATIONS, measured):
        strip_val = float(sf.phi(t * w))
        rows.append({"t": t, "dilated": at, "strip": strip_val,
                     "margin": at - strip_val, "err": float(err)})
    return {"a": a, "strip_halfwidth": w, "rows": rows}


# ---------------------------------------------------------------------------
# counterexample searches


def counterexample_family(n: int, transform: str) -> list:
    """The scripted (K, L) pairs a counterexample search over ``transform``
    scans in R^n.

    ``phi_inv`` gets strip/ball, ball/ball and strip/strip pairs over a
    geometric range of widths and radii.  Any other transform gets a
    cylinder pair straddling the measures where the phi_k and s_k argmins
    of ``cyl.partition(n)`` disagree, then a ball pair.
    """
    if transform == "phi_inv":
        ws = np.geomspace(0.2, 2.0, 4)
        rs = np.geomspace(0.3, 2.5, 4)
        fam = [(bd.strip(w, n), bd.ball(R, n)) for w in ws for R in rs]
        fam += [(bd.ball(r1, n), bd.ball(r2, n))
                for r1 in rs for r2 in rs if r2 > r1]
        fam += [(bd.strip(w1, n), bd.strip(w2, n))
                for w1 in ws for w2 in ws if w2 > w1]
        return fam
    table = cyl.partition(n)
    if not np.any(table.mismatch):
        return [(bd.ball(0.5, n), bd.ball(3.0, n))]
    a_mis = table.a[table.mismatch]
    lo = max(float(a_mis[0]) - 0.02, 0.01)
    hi = min(float(a_mis[-1]) + 0.02, 0.99)
    k = int(table.phi_argmin[table.mismatch][0])
    return [(bd.cylinder(k, float(cyl.radius_of_measure(k, lo)), n),
             bd.cylinder(k, float(cyl.radius_of_measure(k, hi)), n)),
            (bd.ball(0.5, n), bd.ball(3.0, n))]


def counterexample_search(transform, family, n_t: int = 33,
                          rule: gm.SphereRule | None = None) -> dict:
    """Scan (K, L) pairs for a transformed-concavity violation.

    A hit is only reported as a witness after it reproduces at doubled
    quadrature resolution; otherwise the scan continues.  With no hit the
    report says so without asserting anything beyond this resolution.
    """
    pairs = list(family)
    if not pairs:
        raise VerificationError("empty family")
    n = pairs[0][0].n
    tr = measure_transform(transform, n)
    base_rule = rule or gm.sphere_rule(n)
    witness = None
    unconfirmed = []
    for idx, (K, L) in enumerate(pairs):
        rep = concavity_check(tr, K, L, n_t=n_t, rule=base_rule)
        if rep.verdict != "violation":
            continue
        fine = gm.sphere_rule(n, 2 * base_rule.size)
        rep2 = concavity_check(tr, K, L, n_t=n_t, rule=fine)
        j = int(np.argmax(rep2.second_diffs - 5.0 * rep2.budget))
        if rep2.verdict == "violation":
            witness = {
                "pair_index": idx, "labels": (K.label, L.label),
                "t": float(rep2.t_grid[j + 1]),
                "second_diff": float(rep2.second_diffs[j]),
                "budget": float(rep2.budget[j]),
                "coarse_second_diff": float(rep.second_diffs[j]),
            }
            break
        unconfirmed.append({"pair_index": idx, "labels": (K.label, L.label)})
    return {
        "transform": tr.name,
        "pairs_scanned": int(len(pairs) if witness is None
                             else witness["pair_index"] + 1),
        "witness": witness,
        "unconfirmed": unconfirmed,
        "message": ("witness confirmed at doubled resolution" if witness
                    else "none found at this resolution"),
    }
