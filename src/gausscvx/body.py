"""Symmetric convex bodies as support-function oracles.

A body is described by its support function h(u) = sup_K <x,u> on unit
directions, extended-real valued so unbounded bodies (strips, cylinders)
fit the same interface: h(u) = +inf off the directions the body bounds.
The radial function rho(theta) (distance from the origin to the boundary
along theta) is the quantity all quadratures consume; catalog bodies and
their Minkowski interpolations carry closed-form radial oracles, with a
grid minimizer as the generic fallback.

Closed interpolation rules (support sums):

- offset boxes Box(b) + sB, b in [0, inf]^n and s >= 0, combine entrywise:
  (1-l)(Box(b1) + s1 B) + l (Box(b2) + s2 B) = Box((1-l) b1 + l b2) +
  ((1-l) s1 + l s2) B.  The family holds the boxes (s = 0), the round
  k-cylinders R B^k x R^(n-k) (k zero and n - k infinite entries of b;
  balls and strips included) and the rounded boxes
  {x : ||(|x_fin| - b_fin)_+||_2 <= s}.  Along a direction,
  ||(t|theta_fin| - b_fin)_+||^2 is a piecewise quadratic in t with
  breakpoints b_i/|theta_i|, so a rounded box's radial is the larger root
  on the segment where it reaches s^2;
- any other dilate pair, L = cK as ``dilation_factor`` reads it from the
  kinds and parameters (proportional ellipsoids, lp-balls of one p),
  gives (1 - l + l c) K.

Everything else falls back to the generic support oracle.

A translate K + v has sup{t >= 0 : ||t theta - v||_K <= 1} as its radial
(the exit time of the ray when the origin is inside): the larger root of a
quadratic for round cylinder and ellipsoid cores, the first slab exit for
a box, and secant steps from the right on the convex gauge for other cores
(rounded boxes, lp-balls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

GRID_SIZES = {1: 2, 2: 2048, 3: 8192, 4: 16384}
_MC_GRID_SEED = 20260814


class BodyError(ValueError):
    """Invalid body parameters or unsupported operation."""


@dataclass(frozen=True)
class SupportBody:
    """A symmetric (or translated-symmetric) convex body with oracles.

    ``support`` and ``exact_radial`` take an (m, n) array of unit
    directions and return an (m,) array, +inf allowed.  ``kind``/``params``
    are structural hints used by the interpolation rule table; generic
    bodies leave them empty.
    """

    n: int
    support: Callable[[np.ndarray], np.ndarray]
    shift: np.ndarray = field(default=None)  # type: ignore[assignment]
    exact_radial: Callable[[np.ndarray], np.ndarray] | None = None
    exact_inradius: float | None = None
    label: str = ""
    kind: str = "generic"
    params: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise BodyError("dimension must be >= 1")
        if self.shift is None:
            object.__setattr__(self, "shift", np.zeros(self.n))
        else:
            object.__setattr__(self, "shift", np.asarray(self.shift, dtype=float))

    @property
    def shifted(self) -> bool:
        return bool(np.any(self.shift != 0.0))

    @property
    def symmetric(self) -> bool:
        """K = -K: every body is a translate of a symmetric one."""
        return not self.shifted


def _rows(theta, n: int) -> tuple[np.ndarray, bool]:
    t = np.asarray(theta, dtype=float)
    if t.ndim == 1:
        return t[None, :], True
    if t.shape[-1] != n:
        raise BodyError("direction dimension mismatch")
    return t, False


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of the 2-D array x: the squared columns
    summed in order, then the square root.  This is the order in which
    ``np.linalg.norm(x, axis=1)`` sums a row of up to 7 entries, so the
    result is bit for bit the same, without the per-row reduction."""
    sq = x * x
    out = sq[:, 0]
    for j in range(1, x.shape[1]):
        out = out + sq[:, j]
    return np.sqrt(out)


# ---------------------------------------------------------------------------
# catalog


def offset_box(b, s: float) -> SupportBody:
    """Box(b) + s B^n = {x : ||(|x_fin| - b_fin)_+|| <= s} for b in
    [0, inf]^n and s >= 0, free in the coordinates with b_i = inf.  Boxes
    are s = 0, round k-cylinders (balls and strips included) have k zero
    and n - k infinite entries, and the rest are rounded boxes.  The
    family is closed under dilation and Minkowski interpolation."""
    b, s = tuple(map(float, b)), float(s)
    fin = [math.isfinite(x) for x in b]
    bf = [x for x, f in zip(b, fin) if f]
    if not (0 <= s < math.inf and all(x >= 0 for x in b) and bf and min(bf) + s > 0):
        raise BodyError("need b >= 0 with a finite entry, 0 <= s < inf and min(b) + s > 0")
    if len(bf) == 1:  # one finite coordinate: the strip of half-width b_1 + s
        b, s, bf = tuple(0.0 if f else x for x, f in zip(b, fin)), bf[0] + s, [0.0]
    n, k = len(b), len(bf)
    boxed = any(bf)  # False on round cylinders, where s > 0
    inradius = min(bf) + s
    cols = None if k == n else np.array([i for i, f in enumerate(fin) if f])
    fin_w, free_w = np.array([fin, [not f for f in fin]], dtype=float)
    if boxed:
        lin, bf = np.array([x if f else 0.0 for x, f in zip(b, fin)]), np.array(bf)

    def support(u):
        uu = np.atleast_2d(u)
        h = np.abs(uu) @ lin if boxed else 0.0
        if s > 0 or cols is not None:
            sq = uu * uu
            if s > 0:
                h = h + s * np.sqrt(sq @ fin_w)
            if cols is not None:
                h[sq @ free_w > 1e-24] = np.inf
        return h

    def rad(t):
        a = np.abs(np.atleast_2d(t))
        if cols is not None:
            a = a[:, cols]
        if s == 0:
            # first slab exit
            with np.errstate(divide="ignore"):
                return np.min(np.where(a > 0, bf / np.maximum(a, 1e-300), np.inf), axis=1)
        if not boxed:
            head = _row_norms(a)
            with np.errstate(divide="ignore"):
                return np.where(head > 0, s / np.maximum(head, 1e-300), np.inf)
        return _breakpoint_root(a, bf, s)

    if s == 0:
        label = "box(" + ",".join(f"{x:g}" for x in b) + ")"
    elif boxed:
        label = f"roundbox(b={np.round(bf, 6).tolist()},s={s:g})"
    elif k == 1:
        label = f"strip(w={s:g})"
    else:
        label = f"ball(R={s:g})" if k == n else f"cylinder(k={k},R={s:g})"
    return SupportBody(
        n=n, support=support, exact_radial=rad, exact_inradius=inradius,
        label=label, kind="offset_box", params=(b, s),
    )


def _breakpoint_root(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Row-wise sup{t : ||(t a - b)_+|| <= s} for rows a >= 0, +inf on zero
    rows.  f(t) = ||(t a - b)_+||^2 is the quadratic A t^2 - 2 B t + C
    between consecutive breakpoints b_i / a_i, with A, B, C summed over the
    coordinates already past their breakpoint; zero components never
    become active."""
    with np.errstate(divide="ignore"):
        tau = np.where(a > 0, b / a, np.inf)
    order = np.argsort(tau, axis=1, kind="stable")
    tau = np.take_along_axis(tau, order, axis=1)
    a = np.take_along_axis(a, order, axis=1)
    bs = b[order]
    A = np.cumsum(a * a, axis=1)
    with np.errstate(invalid="ignore"):
        f_tau = (A * tau - 2.0 * np.cumsum(a * bs, axis=1)) * tau + np.cumsum(bs * bs, axis=1)
    # f is nondecreasing, so the root is tau_j + d on the segment after the
    # last breakpoint tau_j where f < s^2: with e_i = (tau_j a_i - b_i)_+,
    # f = A d^2 + 2 (sum a_i e_i) d + sum e_i^2 there, and nothing cancels
    k = np.sum(f_tau < s * s, axis=1)
    out = np.full(len(a), np.inf)
    ok = k > 0
    j = (k[ok] - 1)[:, None]
    t0, A = (np.take_along_axis(x[ok], j, axis=1) for x in (tau, A))
    e = np.maximum(t0 * a[ok] - bs[ok], 0.0)
    E, gap = np.sum(a[ok] * e, axis=1), s * s - np.sum(e * e, axis=1)
    out[ok] = t0[:, 0] + gap / (E + np.sqrt(np.maximum(E * E + A[:, 0] * gap, 0.0)))
    return out


def round_cylinder(K: SupportBody) -> tuple[int, float] | None:
    """(k, R) when K is a round k-cylinder R B^k x R^(n-k) (k = n: a ball,
    k = 1: a strip), else None."""
    if K.kind != "offset_box":
        return None
    b, s = K.params
    fin = [x for x in b if math.isfinite(x)]
    return (len(fin), s) if s > 0 and not any(fin) else None


def _size(key: str, value: float) -> float:
    """value if 0 < value < inf, else BodyError naming the parameter: an
    infinite radius or width makes the body all of R^n."""
    if not 0 < value < math.inf:
        raise BodyError(f"parameter {key!r} must be positive and finite, got {value!r}")
    return value


def cylinder(k: int, R: float, n: int) -> SupportBody:
    """Round k-cylinder {|(x_1..x_k)| <= R} in R^n (k=n: ball, k=1: strip)."""
    if not 1 <= k <= n:
        raise BodyError("need 1 <= k <= n")
    return offset_box([0.0] * k + [np.inf] * (n - k), _size("R", R))


def ball(R: float, n: int) -> SupportBody:
    return cylinder(n, R, n)


def strip(w: float, n: int) -> SupportBody:
    return cylinder(1, _size("w", w), n)


def box(half_widths, n: int | None = None) -> SupportBody:
    a = np.asarray(half_widths, dtype=float)
    if n is not None and len(a) != n:
        raise BodyError("box needs one half-width per coordinate")
    if not np.all(a > 0):
        raise BodyError("half-widths must be positive")
    return offset_box(a, 0.0)


def lp_ball(r: float, p: float, n: int) -> SupportBody:
    _size("r", r)
    if not 1 <= p < np.inf:
        raise BodyError("need 1 <= p < inf (p = inf is the cube: use box)")
    q = np.inf if p == 1 else p / (p - 1.0)

    def support(u):
        uu = np.atleast_2d(u)
        if np.isinf(q):
            return r * np.max(np.abs(uu), axis=1)
        return r * np.sum(np.abs(uu) ** q, axis=1) ** (1.0 / q)

    def rad(t):
        tt = np.atleast_2d(t)
        return r / np.sum(np.abs(tt) ** p, axis=1) ** (1.0 / p)

    inr = r * n ** (1.0 / p - 0.5) if p < 2 else r
    return SupportBody(
        n=n, support=support, exact_radial=rad, exact_inradius=float(inr),
        label=f"lp_ball(r={r:g},p={p:g})", kind="lp", params=(r, p),
    )


def ellipsoid(semi_axes, n: int | None = None) -> SupportBody:
    c = np.asarray(semi_axes, dtype=float)
    if n is not None and len(c) != n:
        raise BodyError("ellipsoid needs one semi-axis per coordinate")
    if not np.all(c > 0):
        raise BodyError("semi-axes must be positive")
    if not np.any(np.isfinite(c)):
        raise BodyError("parameter 'c' needs a finite semi-axis: with none the "
                        "ellipsoid is all of R^n")
    n = len(c)

    def support(u):
        return np.sqrt(np.atleast_2d(u) ** 2 @ (c**2))

    def rad(t):
        return 1.0 / np.sqrt(np.atleast_2d(t) ** 2 @ (1.0 / c**2))

    return SupportBody(
        n=n, support=support, exact_radial=rad, exact_inradius=float(np.min(c)),
        label="ellipsoid(" + ",".join(f"{x:g}" for x in c) + ")",
        kind="ellipsoid", params=tuple(c),
    )


def translate(body: SupportBody, v) -> SupportBody:
    """K + v for an unshifted K.  Its radial is sup{t >= 0 : t theta in
    K + v}: the exit time of the ray when -v is interior to K.  Otherwise
    the origin lies outside K + v, the rays that miss it have radial 0,
    and polar integrals measure the star hull of the origin and K + v,
    not K + v; the body grammar refuses such shifts."""
    v = np.asarray(v, dtype=float)
    if v.shape != (body.n,):
        raise BodyError("shift dimension mismatch")
    if not np.all(np.isfinite(v)):
        raise BodyError("shift must be finite")
    if body.shifted:
        raise BodyError("translate expects an unshifted body")
    base_support = body.support

    def support(u):
        uu = np.atleast_2d(u)
        return base_support(uu) + uu @ v

    return SupportBody(
        n=body.n, support=support, shift=v,
        exact_radial=_translate_radial(body, v), exact_inradius=None,
        label=f"translate({body.label},v={np.round(v,6).tolist()})",
        kind="translate", params=(body,) + tuple(v),
    )


def _translate_radial(body: SupportBody, v: np.ndarray):
    """sup{t >= 0 : ||t theta - v||_K <= 1} row-wise, +inf along rays that
    never leave (None when K has no exact radial)."""
    rc = round_cylinder(body)
    if rc is not None or body.kind == "ellipsoid":
        if rc is not None:
            w = np.where(np.isfinite(body.params[0]), 1.0 / (rc[1] * rc[1]), 0.0)
        else:
            w = 1.0 / np.asarray(body.params) ** 2
        C = np.sum(w * v * v) - 1.0

        def rad(t):
            # larger root of A t^2 - 2 B t + C = 0, in the form free of
            # cancellation for the sign of B.  With the origin inside
            # (C < 0) it is positive, and +inf when A = 0 (then B = 0);
            # otherwise the ray misses unless the root is real and positive
            tt = np.atleast_2d(t)
            A = (tt * tt) @ w
            B = tt @ (w * v)
            with np.errstate(divide="ignore", invalid="ignore"):
                D = np.sqrt(B * B - A * C)
                root = np.where(B > 0, (B + D) / A, -C / (D - B))
            return np.where(root > 0, root, 0.0)

        return rad
    if body.kind == "offset_box" and body.params[1] == 0:
        a = np.asarray(body.params[0])

        def rad(t):
            # the ray crosses each slab |x_i - v_i| <= a_i on one interval;
            # it leaves the box through the first exit, if after every entry
            tt = np.atleast_2d(t)
            at = np.maximum(np.abs(tt), 1e-300)
            sv = np.sign(tt) * v
            parallel = np.where(np.abs(v) <= a, np.inf, -np.inf)
            exits = np.min(np.where(tt != 0, (a + sv) / at, parallel), axis=1)
            entries = np.max(np.where(tt != 0, (sv - a) / at, -np.inf), axis=1)
            return np.where(exits >= np.maximum(entries, 0.0), exits, 0.0)

        return rad
    if body.exact_radial is None:
        return None
    core = body.exact_radial
    inside = gauge(body, -v) < 1.0
    # by the gauge's triangle inequality the ray is outside K + v from
    # t = rho(theta) (1 + ||v||) on; where rho(theta) = +inf the ray runs
    # along a line in K, and the gauge of t theta - v is constant
    reach = 1.0 + gauge(body, v)

    def rad(t):
        tt = np.atleast_2d(t)
        rho = np.asarray(core(tt), dtype=float)
        out = np.full(len(tt), np.inf if inside else 0.0)
        fin = np.isfinite(rho)
        rays = tt[fin]

        def gauge_minus_one(rows, t_arr):
            x = t_arr[:, None] * rays[rows] - v
            r = _row_norms(x)[:, None]
            dirs = np.where(r > 0, x / np.maximum(r, 1e-300), rays[rows])
            return r[:, 0] / np.asarray(core(dirs), dtype=float) - 1.0

        hi = reach * rho[fin]
        out[fin] = _last_root(gauge_minus_one, 2.0 * hi, hi)
        return out

    return rad


def _last_root(f, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Row-wise largest root of a convex f(rows, t), from points t0 > t1
    with f >= 0 at or right of the root.  Secant steps from the right of a
    convex function decrease monotonically to that root.  A row stops when
    its step is a few ulps, or when f is at rounding level and the steps
    no longer shrink; it gets 0 when no root is positive (the slope turns
    nonpositive, or the step leaves t > 0, with f above rounding level)."""
    tol = 4.0 * np.finfo(float).eps
    rows = np.arange(len(t0))
    f0, f1 = f(rows, t0), f(rows, t1)
    out = np.zeros(len(t0))
    while len(rows):
        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = t1 - f1 * (t0 - t1) / (f0 - f1)
        step_ok = ((f0 - f1) * (t0 - t1) > 0) & (t2 > 0)
        step = np.abs(t2 - t1)
        converged = step_ok & (step <= tol * t1)
        stalled = (f1 == 0) | ((np.abs(f1) <= 16.0 * tol)
                               & (~step_ok | (step >= np.abs(t1 - t0))))
        out[rows[converged]] = t2[converged]
        out[rows[stalled]] = t1[stalled]
        more = step_ok & ~converged & ~stalled
        rows, t0, f0, t1 = rows[more], t1[more], f1[more], t2[more]
        f1 = f(rows, t1)
    return out


# catalog name -> (its parameters in maker order, maker(*params, n))
_CATALOG = {
    "ball": (("R",), ball),
    "strip": (("w",), strip),
    "cylinder": (("k", "R"), lambda k, R, n: cylinder(_whole("k", k), R, n)),
    "box": (("a",), box),
    "lp_ball": (("r", "p"), lp_ball),
    "ellipsoid": (("c",), ellipsoid),
}


def _whole(key: str, val) -> int:
    """val as an int; BodyError unless it is one whole number."""
    if np.ndim(val) or not float(val).is_integer():
        raise BodyError(f"parameter {key!r} must be a whole number, got {val!r}")
    return int(val)


def catalog(name: str, n: int, **params) -> SupportBody:
    """Build a catalog body by name; see the module docstring for the list.
    Every parameter of the body is required and no other is accepted."""
    if name not in _CATALOG:
        raise BodyError(f"unknown body {name!r}")
    if n < 1:
        # before the maker, whose in-radius may take a power of n
        raise BodyError("dimension must be >= 1")
    keys, make = _CATALOG[name]
    for key in keys:
        if key not in params:
            raise BodyError(f"body {name!r} needs parameter {key!r}")
    for key, val in params.items():
        if key not in keys:
            raise BodyError(f"body {name!r} has no parameter {key!r}")
        if np.any(np.isnan(np.asarray(val, dtype=float))):
            raise BodyError(f"body {name!r} parameter {key!r} is NaN")
    return make(*(params[key] for key in keys), n)


# ---------------------------------------------------------------------------
# direction grids (shared by the generic minimizer and the quadratures)


def direction_grid(n: int, size: int | None = None) -> np.ndarray:
    """Unit directions covering S^{n-1}: the two points (n=1), uniform
    midpoint angles (n=2), Fibonacci sphere (n=3), seeded Monte Carlo (n=4).
    Built once per (n, size) and read-only."""
    if not 1 <= n <= 4:
        raise BodyError("direction grids implemented for 1 <= n <= 4")
    size = GRID_SIZES[n] if size is None else int(size)
    if size < 1:
        raise BodyError(f"a direction grid needs at least 1 point, got {size}")
    return _direction_grid(n, size)


@lru_cache(maxsize=32)
def _direction_grid(n: int, size: int) -> np.ndarray:
    if n == 1:
        grid = np.array([[1.0], [-1.0]])
    elif n == 2:
        ang = (np.arange(size) + 0.5) * (2.0 * np.pi / size)
        grid = np.column_stack([np.cos(ang), np.sin(ang)])
    elif n == 3:
        i = np.arange(size) + 0.5
        z = 1.0 - 2.0 * i / size
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        az = np.pi * (3.0 - np.sqrt(5.0)) * i
        grid = np.column_stack([r * np.cos(az), r * np.sin(az), z])
    else:
        rng = np.random.Generator(np.random.Philox(_MC_GRID_SEED))
        x = rng.standard_normal((size, 4))
        grid = x / _row_norms(x)[:, None]
    grid.setflags(write=False)
    return grid


def sphere_area(n: int) -> float:
    if n == 1:
        return 2.0
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# radial / gauge / inradius


_CHUNK_ENTRIES = 1 << 20  # bound on directions x grid entries per chunk
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: np.ndarray, hi: np.ndarray, iters: int):
    """Row-wise golden-section searches for minima of f on [lo, hi], all
    rows in lockstep (f maps an (m,) array of points to (m,) values):
    (fmin, argmin), the right point on an exact tie of the last two."""
    a, b = lo, hi
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    left = fc < fd
    return np.where(left, fc, fd), np.where(left, c, d)


def _refine(f, u: np.ndarray, delta: float) -> np.ndarray:
    """Smallest f found near each unit row of u, f mapping (m, n) unit
    rows to (m,) values.  n=2: a 40-step golden section in the angle over
    +-delta.  n >= 3: three rounds of 30-step golden sections along each
    tangent axis of the round's starting point, delta x0.35 per round,
    keeping the best f met on the way (f(u) included)."""
    if u.shape[1] == 2:
        a0 = np.arctan2(u[:, 1], u[:, 0])
        g = lambda a: f(np.column_stack([np.cos(a), np.sin(a)]))
        return _golden_min(g, a0 - delta, a0 + delta, 40)[0]
    unit = lambda v: v / _row_norms(v)[:, None]
    best = f(u)
    for _ in range(3):
        for d in np.moveaxis(tangent_bases(u), 1, 0):
            g = lambda s: f(unit(u + s[:, None] * d))
            val, s = _golden_min(g, np.full(len(u), -delta), np.full(len(u), delta), 30)
            u = unit(u + s[:, None] * d)
            best = np.minimum(best, val)
        delta *= 0.35
    return best


def _grid_support(body: SupportBody):
    """(direction grid, h on it, grid spacing delta) for the generic paths."""
    grid = direction_grid(body.n)
    delta = 2.0 * np.pi / len(grid) if body.n == 2 else np.sqrt(4.0 * np.pi / len(grid))
    return grid, np.asarray(body.support(grid), dtype=float), delta


def radial(body: SupportBody, theta):
    """Radial function rho(theta); exact oracle when present, else
    inf_u h(u)/<theta,u>.  Per chunk of directions, the generic path takes
    the quotients over the direction grid, picks every direction's 5 best
    grid seeds by partial selection, refines them in one batched search
    (``_refine``), and keeps the smallest value."""
    t, single = _rows(theta, body.n)
    if body.exact_radial is not None:
        vals = np.asarray(body.exact_radial(t), dtype=float)
    else:
        grid, hvals, delta = _grid_support(body)
        k = min(5, len(grid))
        vals = np.empty(len(t))
        step = max(1, _CHUNK_ENTRIES // len(grid))
        for lo in range(0, len(t), step):
            th = t[lo : lo + step]
            q = _quotients(hvals, grid, th[:, None, :])
            seeds = np.argpartition(q, k - 1, axis=1)[:, :k]
            th_k = np.repeat(th, k, axis=0)
            ref = _refine(lambda u: _quotients(body.support(u), u, th_k),
                          grid[seeds.ravel()], delta)
            best = np.take_along_axis(q, seeds, axis=1).min(axis=1)
            vals[lo : lo + step] = np.minimum(best, ref.reshape(-1, k).min(axis=1))
    return float(vals[0]) if single else vals


def _quotients(h, u, theta) -> np.ndarray:
    """h / <u, theta> over the trailing axis (+inf where <u, theta> <= 1e-12),
    summed term by term so that a row's value does not depend on the batch."""
    dots = u[..., 0] * theta[..., 0]
    for i in range(1, u.shape[-1]):
        dots = dots + u[..., i] * theta[..., i]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dots > 1e-12, h / np.maximum(dots, 1e-300), np.inf)


def tangent_bases(u: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the tangent spaces at the unit rows of the
    (m, n) array u, as an (m, n-1, n) array: the n-1 axes with the
    smallest |u_i| (stable order), Gram-Schmidt against u and the earlier
    vectors.  The left-out axis carries |u_i| >= 1/sqrt(n), so no vector
    degenerates."""
    m, n = u.shape
    axes = np.argsort(np.abs(u), axis=1, kind="stable")[:, : n - 1]
    rows = np.arange(m)
    out = np.empty((m, n - 1, n))
    for j in range(n - 1):
        i = axes[:, j]
        w = -u[rows, i][:, None] * u
        w[rows, i] += 1.0
        for k in range(j):
            w -= np.sum(w * out[:, k], axis=1)[:, None] * out[:, k]
        out[:, j] = w / _row_norms(w)[:, None]
    return out


def gauge(body: SupportBody, x) -> np.ndarray | float:
    """Minkowski functional ||x||_K = |x| / rho(x/|x|) (0 at the origin)."""
    xx, single = _rows(x, body.n)
    r = _row_norms(xx)
    out = np.zeros(len(xx))
    pos = r > 0
    if np.any(pos):
        rho = radial(body, xx[pos] / r[pos, None])
        with np.errstate(invalid="ignore"):
            out[pos] = np.where(np.isinf(rho), 0.0, r[pos] / rho)
    return float(out[0]) if single else out


def inradius(body: SupportBody) -> float | None:
    """min_u h(u) for symmetric bodies (None for shifted bodies): the
    exact value when known, else the 5 best grid directions refined by the
    batched search of ``radial``.  Every candidate is h at a unit
    direction, so the result does not fall below the true in-radius."""
    if body.shifted:
        return None
    if body.exact_inradius is not None:
        return body.exact_inradius
    grid, hvals, delta = _grid_support(body)
    seeds = np.argsort(hvals)[:5]
    ref = _refine(lambda u: np.asarray(body.support(u), dtype=float), grid[seeds], delta)
    return float(min(hvals[seeds[0]], np.min(ref)))


# ---------------------------------------------------------------------------
# Minkowski interpolation


def interpolate(K: SupportBody, L: SupportBody, lam: float) -> SupportBody:
    """(1-lam) K + lam L through the support sum, with closed radial oracles
    whenever the rule table recognizes the pair."""
    if K.n != L.n:
        raise BodyError("dimension mismatch")
    if not 0.0 <= lam <= 1.0:
        raise BodyError("lambda must be in [0,1]")
    if lam == 0.0:
        return K
    if lam == 1.0:
        return L
    out = _interp_rules(K, L, lam)
    if out is not None:
        return out

    hK, hL = K.support, L.support

    def support(u):
        a = np.asarray(hK(u), dtype=float)
        b = np.asarray(hL(u), dtype=float)
        # extended-real affine combination: any infinite side dominates
        with np.errstate(invalid="ignore"):
            s = (1.0 - lam) * a + lam * b
        return np.where(np.isinf(a) | np.isinf(b), np.inf, s)

    return SupportBody(
        n=K.n, support=support,
        shift=(1.0 - lam) * K.shift + lam * L.shift,
        label=f"interp({K.label},{L.label},{lam:g})",
    )


def _interp_rules(K: SupportBody, L: SupportBody, lam: float) -> SupportBody | None:
    if K.kind == L.kind == "offset_box":
        # support functions add: Box(b1) + s1 B and Box(b2) + s2 B combine
        # entrywise, an infinite entry on either side staying infinite
        (b1, s1), (b2, s2) = K.params, L.params
        w = 1.0 - lam
        return offset_box([w * x + (1.0 - w) * y for x, y in zip(b1, b2)],
                          w * s1 + (1.0 - w) * s2)
    c = dilation_factor(K, L)
    if c is not None:
        return dilate(K, 1.0 - lam + lam * c)
    return None


def dilation_factor(K: SupportBody, L: SupportBody) -> float | None:
    """The c with L = cK, read from the catalog kinds and parameters; None
    when the pair is not recognized as a dilate pair (different kinds or
    shapes, translates, support-only bodies, generic dilates).  Offset
    boxes need the same zero and infinite entries in (b, s); vector
    parameters must share one ratio to rtol 1e-12."""
    if K.n != L.n or K.kind != L.kind:
        return None
    if K.kind == "offset_box":
        x, y = (*K.params[0], K.params[1]), (*L.params[0], L.params[1])
        same = all((a == 0) == (b == 0) and (a == math.inf) == (b == math.inf)
                   for a, b in zip(x, y))
        return _common_ratio(y, x) if same else None
    if K.kind == "lp":
        (rK, pK), (rL, pL) = K.params, L.params
        return float(rL / rK) if pK == pL else None
    if K.kind == "ellipsoid":
        return _common_ratio(L.params, K.params)
    return None


def _common_ratio(x, y) -> float | None:
    """The ratio x_i / y_i shared to rtol 1e-12 by the entries with
    0 < y_i < inf, else None."""
    r = [float(a) / float(b) for a, b in zip(x, y) if 0 < b < math.inf]
    return r[0] if all(abs(q - r[0]) <= 1e-12 * abs(r[0]) for q in r) else None


def minkowski_sum(K: SupportBody, L: SupportBody, eps: float) -> SupportBody:
    """K + eps L realized as (1+eps) * interpolate(K, L, eps/(1+eps))."""
    if eps < 0:
        raise BodyError("eps must be nonnegative")
    if eps == 0:
        return K
    lam = eps / (1.0 + eps)
    return dilate(interpolate(K, L, lam), 1.0 + eps)


def dilate(K: SupportBody, c: float) -> SupportBody:
    """c K for c > 0 (closed under every catalog kind)."""
    if c <= 0:
        raise BodyError("dilation factor must be positive")
    if c == 1.0:
        return K
    if K.kind == "offset_box":
        b, s = K.params
        return offset_box([c * x for x in b], c * s)
    if K.kind == "ellipsoid":
        return ellipsoid(c * np.array(K.params), K.n)
    if K.kind == "lp":
        r, p = K.params
        return lp_ball(c * r, p, K.n)
    base_support = K.support
    base_radial = K.exact_radial
    return SupportBody(
        n=K.n,
        support=lambda u: c * np.asarray(base_support(u), dtype=float),
        shift=c * K.shift,
        exact_radial=(None if base_radial is None
                      else lambda t: c * np.asarray(base_radial(t), dtype=float)),
        exact_inradius=(None if K.exact_inradius is None else c * K.exact_inradius),
        label=f"dilate({K.label},{c:g})",
    )


# ---------------------------------------------------------------------------
# textual body grammar (documented in the cli module)


_VECTOR_KEYS = ("a", "c", "v")  # parameters that take `+`-separated vectors


def _params(text: str) -> dict:
    """`key=val,...` as {key: float}, or a list of floats for the vector
    keys; BodyError on an item without `=`, a value that is not a number,
    a vector for a scalar key, or a key given twice.  Empty items (a
    trailing comma) are skipped."""
    params: dict = {}
    for item in text.split(","):
        if not item:
            continue
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise BodyError(f"parameter {item!r} is not key=value")
        if key in params:
            raise BodyError(f"parameter {key!r} given twice")
        try:
            vals = [float(x) for x in val.split("+")]
        except ValueError:
            raise BodyError(f"parameter {key!r} is not a number: {val!r}") from None
        if key in _VECTOR_KEYS:
            params[key] = vals
        elif len(vals) == 1:
            params[key] = vals[0]
        else:
            raise BodyError(f"parameter {key!r} takes one number, got {val!r}")
    return params


def _combinator(text: str, key: str):
    """(value of `key`, operand text) of `name:key=x;<operand>`; BodyError
    unless the head holds exactly that parameter."""
    head, semi, rest = text.partition(";")
    params = _params(head.partition(":")[2])
    if not semi or set(params) != {key}:
        raise BodyError(f"expected {head.partition(':')[0]}:{key}=...;<body>, got {text!r}")
    return params[key], rest


def parse_body(text: str, n: int) -> SupportBody:
    """Parse `name:key=val,...`; vectors use `+`; combinators:
    `interp:lambda=x;<body>|<body>` and `translate:v=a+b;<body>`.
    Every malformed string raises ``BodyError``."""
    text = text.strip()
    if text.startswith("interp:"):
        lam, rest = _combinator(text, "lambda")
        left, right = _split_top(rest)
        return interpolate(parse_body(left, n), parse_body(right, n), lam)
    if text.startswith("translate:"):
        v, rest = _combinator(text, "v")
        K = parse_body(rest, n)
        T = translate(K, v)
        if gauge(K, -T.shift) >= 1.0:
            raise BodyError("translate needs the origin inside the shifted body")
        return T
    if ":" not in text:
        raise BodyError(f"malformed body string {text!r}")
    name, params_text = text.split(":", 1)
    params = _params(params_text)
    # an explicit in-string dimension (e.g. cylinder:k=2,R=1,n=3) overrides
    # the run-level default
    if "n" in params:
        n = _whole("n", params.pop("n"))
    return catalog(name.strip(), n, **params)


def _split_top(text: str) -> tuple[str, str]:
    # each nested `interp:` consumes exactly one `|`; the first unconsumed
    # bar is the top-level separator
    bars = 0
    for i, ch in enumerate(text):
        if ch == "|":
            if bars == text[:i].count("interp:"):
                return text[:i], text[i + 1 :]
            bars += 1
    raise BodyError("interp body needs `|` separating the two operands")
