"""Symmetric convex bodies as support-function oracles.

A body is described by its support function h(u) = sup_K <x,u> on unit
directions, extended-real valued so unbounded bodies (strips, cylinders)
fit the same interface: h(u) = +inf off the directions the body bounds.
The radial function rho(theta) (distance from the origin to the boundary
along theta) is the quantity all quadratures consume; catalog bodies and
their Minkowski interpolations carry closed-form radial oracles, with a
grid minimizer as the generic fallback.

Closed interpolation rules (support sums):

- round cylinders over nested leading-coordinate blocks, with balls
  (k = n) and strips (k = 1) as the extreme cases:
  (1-l) C_j(R1) + l C_k(R2) = C_min(j,k)((1-l) R1 + l R2);
- boxes combine componentwise;
- box + ball (or box + cylinder) gives a rounded box
  {x : ||(|x_act| - b)_+||_2 <= s}, whose radial solves a monotone
  scalar equation per direction;
- proportional ellipsoids rescale componentwise.

Everything else falls back to the generic support oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    symmetric: bool = True
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


def _rows(theta, n: int) -> tuple[np.ndarray, bool]:
    t = np.asarray(theta, dtype=float)
    if t.ndim == 1:
        return t[None, :], True
    if t.shape[-1] != n:
        raise BodyError("direction dimension mismatch")
    return t, False


# ---------------------------------------------------------------------------
# catalog


def _axis_block(u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(|P_k u|, |u - P_k u|) row-wise."""
    head = np.linalg.norm(u[:, :k], axis=1)
    tail = np.linalg.norm(u[:, k:], axis=1) if k < u.shape[1] else np.zeros(len(u))
    return head, tail


def cylinder(k: int, R: float, n: int) -> SupportBody:
    """Round k-cylinder {|(x_1..x_k)| <= R} in R^n (k=n: ball, k=1: strip)."""
    if not 1 <= k <= n:
        raise BodyError("need 1 <= k <= n")
    if R <= 0:
        raise BodyError("R must be positive")

    def support(u):
        head, tail = _axis_block(np.atleast_2d(u), k)
        return np.where(tail <= 1e-12, R * head, np.inf)

    def rad(t):
        head, _ = _axis_block(np.atleast_2d(t), k)
        with np.errstate(divide="ignore"):
            return np.where(head > 0, R / np.maximum(head, 1e-300), np.inf)

    names = {1: f"strip(w={R:g})"} if k == 1 else {}
    label = names.get(k, f"ball(R={R:g})" if k == n else f"cylinder(k={k},R={R:g})")
    return SupportBody(
        n=n, support=support, exact_radial=rad, exact_inradius=R,
        label=label, kind="cylinder", params=(k, R),
    )


def ball(R: float, n: int) -> SupportBody:
    return cylinder(n, R, n)


def strip(w: float, n: int) -> SupportBody:
    return cylinder(1, w, n)


def box(half_widths, n: int | None = None) -> SupportBody:
    a = np.asarray(half_widths, dtype=float)
    if n is not None and len(a) != n:
        raise BodyError("box needs one half-width per coordinate")
    if np.any(a <= 0):
        raise BodyError("half-widths must be positive")
    n = len(a)

    def support(u):
        return np.abs(np.atleast_2d(u)) @ a

    def rad(t):
        tt = np.abs(np.atleast_2d(t))
        with np.errstate(divide="ignore"):
            return np.min(np.where(tt > 0, a / np.maximum(tt, 1e-300), np.inf), axis=1)

    return SupportBody(
        n=n, support=support, exact_radial=rad, exact_inradius=float(np.min(a)),
        label="box(" + ",".join(f"{x:g}" for x in a) + ")", kind="box",
        params=tuple(a),
    )


def lp_ball(r: float, p: float, n: int) -> SupportBody:
    if r <= 0 or p < 1:
        raise BodyError("need r > 0 and p >= 1")
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
    if np.any(c <= 0):
        raise BodyError("semi-axes must be positive")
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


def _round_box(b: np.ndarray, s: float, active: np.ndarray, n: int) -> SupportBody:
    """{x : ||(|x_act| - b)_+|| <= s}, free in the non-active coordinates."""
    b = np.asarray(b, dtype=float)
    act = np.asarray(active, dtype=bool)

    def support(u):
        uu = np.atleast_2d(u)
        tail = np.linalg.norm(uu[:, ~act], axis=1) if np.any(~act) else 0.0
        head = np.abs(uu[:, act]) @ b + s * np.linalg.norm(uu[:, act], axis=1)
        return np.where(np.asarray(tail) <= 1e-12, head, np.inf)

    def rad(t):
        tt = np.atleast_2d(t)
        th = np.abs(tt[:, act])
        hn = np.linalg.norm(th, axis=1)
        out = np.full(len(tt), np.inf)
        ok = hn > 1e-300
        if not np.any(ok):
            return out
        th = th[ok]
        # dist(t*th, box(b)) = s is monotone in t past the box; bisect
        lo = np.zeros(th.shape[0])
        hi = np.full(th.shape[0], (np.max(b) + s + 1.0))
        d = lambda t: np.linalg.norm(np.maximum(t[:, None] * th - b, 0.0), axis=1) - s
        while np.any(d(hi) < 0):
            hi = np.where(d(hi) < 0, hi * 2.0, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = d(mid) < 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[ok] = 0.5 * (lo + hi)
        return out

    inr = float(np.min(b) + s)
    return SupportBody(
        n=n, support=support, exact_radial=rad, exact_inradius=inr,
        label=f"roundbox(b={np.round(b,6).tolist()},s={s:g})",
        kind="roundbox", params=(tuple(b), s, tuple(act)),
    )


def translate(body: SupportBody, v) -> SupportBody:
    v = np.asarray(v, dtype=float)
    if v.shape != (body.n,):
        raise BodyError("shift dimension mismatch")
    if body.shifted:
        raise BodyError("translate expects an unshifted body")
    base_support = body.support

    def support(u):
        uu = np.atleast_2d(u)
        return base_support(uu) + uu @ v

    rad = None
    if body.exact_radial is not None:
        core = body.exact_radial

        def rad(t):
            tt = np.atleast_2d(t)
            # exit time of the ray t*theta from the shifted body: gauge of
            # t*theta - v in the core equals 1; monotone in t since 0 is interior
            def gauge_minus_one(t_arr):
                x = t_arr[:, None] * tt - v
                r = np.linalg.norm(x, axis=1)
                rho = core(np.where(r[:, None] > 0, x / np.maximum(r[:, None], 1e-300), tt))
                with np.errstate(invalid="ignore"):
                    return np.where(r > 0, r / rho, 0.0) - 1.0

            lo = np.zeros(len(tt))
            hi = np.full(len(tt), 1.0)
            g = gauge_minus_one(hi)
            for _ in range(60):
                grow = (g < 0) & (hi < 1e12)
                if not np.any(grow):
                    break
                hi = np.where(grow, hi * 2.0, hi)
                g = gauge_minus_one(hi)
            # rays that never exit (free directions of an unbounded core)
            inf_mask = gauge_minus_one(np.full(len(tt), 1e12)) < 0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = gauge_minus_one(mid) < 0
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            out = 0.5 * (lo + hi)
            out[inf_mask] = np.inf
            return out

    return SupportBody(
        n=body.n, support=support, symmetric=False, shift=v,
        exact_radial=rad, exact_inradius=None,
        label=f"translate({body.label},v={np.round(v,6).tolist()})",
        kind="translate", params=(body,) + tuple(v),
    )


def catalog(name: str, n: int, **params) -> SupportBody:
    """Build a catalog body by name; see the module docstring for the list."""
    makers = {
        "ball": lambda: ball(params["R"], n),
        "strip": lambda: strip(params["w"], n),
        "cylinder": lambda: cylinder(int(params["k"]), params["R"], n),
        "box": lambda: box(params["a"], n),
        "lp_ball": lambda: lp_ball(params["r"], params["p"], n),
        "ellipsoid": lambda: ellipsoid(params["c"], n),
    }
    if name not in makers:
        raise BodyError(f"unknown body {name!r}")
    return makers[name]()


# ---------------------------------------------------------------------------
# direction grids (shared by the generic minimizer and the quadratures)


def direction_grid(n: int, size: int | None = None) -> np.ndarray:
    """Unit directions covering S^{n-1}: the two points (n=1), uniform
    midpoint angles (n=2), Fibonacci sphere (n=3), seeded Monte Carlo (n=4)."""
    if not 1 <= n <= 4:
        raise BodyError("direction grids implemented for 1 <= n <= 4")
    size = GRID_SIZES[n] if size is None else int(size)
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = (np.arange(size) + 0.5) * (2.0 * np.pi / size)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if n == 3:
        i = np.arange(size) + 0.5
        z = 1.0 - 2.0 * i / size
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        az = np.pi * (3.0 - np.sqrt(5.0)) * i
        return np.column_stack([r * np.cos(az), r * np.sin(az), z])
    if n == 4:
        rng = np.random.Generator(np.random.Philox(_MC_GRID_SEED))
        x = rng.standard_normal((size, 4))
        return x / np.linalg.norm(x, axis=1, keepdims=True)


def sphere_area(n: int) -> float:
    from scipy.special import gamma as _gamma

    if n == 1:
        return 2.0
    return float(2.0 * np.pi ** (n / 2.0) / _gamma(n / 2.0))


# ---------------------------------------------------------------------------
# radial / gauge / inradius


def _golden_refine(f, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    """Golden-section search for a minimum of f on [lo, hi]: (fmin, argmin),
    the right point on an exact tie of the last two."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (fc, c) if fc < fd else (fd, d)


def radial(body: SupportBody, theta, with_err: bool = False):
    """Radial function rho(theta); exact oracle when present, else
    inf_u h(u)/<theta,u> minimized over the direction grid with
    golden-section refinement around the 5 best seeds.

    With ``with_err`` the generic path also returns the heuristic
    grid-resolution term bounding the over-estimate (0 for exact oracles).
    """
    t, single = _rows(theta, body.n)
    if body.exact_radial is not None:
        vals = np.asarray(body.exact_radial(t), dtype=float)
        out = (vals, np.zeros_like(vals)) if with_err else vals
        if single:
            return (float(vals[0]), 0.0) if with_err else float(vals[0])
        return out

    grid = direction_grid(body.n)
    hvals = np.asarray(body.support(grid), dtype=float)
    delta = 2.0 * np.pi / len(grid) if body.n == 2 else np.sqrt(4.0 * np.pi / len(grid))
    vals = np.empty(len(t))
    for i, th in enumerate(t):
        dots = grid @ th
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(dots > 1e-12, hvals / np.maximum(dots, 1e-300), np.inf)
        order = np.argsort(q)[:5]
        best = np.min(q[order[0:1]])
        for j in order:
            u0 = grid[j]
            best = min(best, _refine_seed(body, th, u0, delta))
        vals[i] = best
    err = vals * delta**2
    if single:
        return (float(vals[0]), float(err[0])) if with_err else float(vals[0])
    return (vals, err) if with_err else vals


def _refine_seed(body: SupportBody, theta: np.ndarray, u0: np.ndarray, delta: float) -> float:
    def quotient(u):
        d = float(u @ theta)
        if d <= 1e-12:
            return np.inf
        h = float(body.support(u[None, :])[0])
        return h / d

    n = body.n
    if n == 2:
        a0 = np.arctan2(u0[1], u0[0])
        f = lambda a: quotient(np.array([np.cos(a), np.sin(a)]))
        return _golden_refine(f, a0 - delta, a0 + delta)[0]
    # alternate golden sections along two tangent directions
    u = u0.copy()
    best = quotient(u)
    for _ in range(3):
        basis = _tangent_basis(u)
        for d in basis:
            f = lambda s: quotient(_norm(u + s * d))
            _, s_best = _golden_refine(f, -delta, delta, iters=30)
            u = _norm(u + s_best * d)
            best = min(best, quotient(u))
        delta *= 0.35
    return best


def _norm(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _tangent_basis(u: np.ndarray) -> list[np.ndarray]:
    n = len(u)
    e = np.eye(n)
    cand = [e[i] for i in np.argsort(np.abs(u))[: n - 1]]
    basis = []
    for c in cand:
        w = c - (c @ u) * u
        for b in basis:
            w = w - (w @ b) * b
        nw = np.linalg.norm(w)
        if nw > 1e-10:
            basis.append(w / nw)
    return basis


def gauge(body: SupportBody, x) -> np.ndarray | float:
    """Minkowski functional ||x||_K = |x| / rho(x/|x|) (0 at the origin)."""
    xx, single = _rows(x, body.n)
    r = np.linalg.norm(xx, axis=1)
    out = np.zeros(len(xx))
    pos = r > 0
    if np.any(pos):
        rho = radial(body, xx[pos] / r[pos, None])
        with np.errstate(invalid="ignore"):
            out[pos] = np.where(np.isinf(rho), 0.0, r[pos] / rho)
    return float(out[0]) if single else out


def inradius(body: SupportBody) -> float | None:
    """min_u h(u) for symmetric bodies; None for shifted bodies."""
    if body.shifted:
        return None
    if body.exact_inradius is not None:
        return body.exact_inradius
    grid = direction_grid(body.n)
    hvals = np.asarray(body.support(grid), dtype=float)
    delta = 2.0 * np.pi / len(grid) if body.n == 2 else np.sqrt(4.0 * np.pi / len(grid))
    best = np.inf
    for j in np.argsort(hvals)[:5]:
        u = grid[j]
        if body.n == 2:
            a0 = np.arctan2(u[1], u[0])
            f = lambda a: float(body.support(np.array([[np.cos(a), np.sin(a)]]))[0])
            best = min(best, _golden_refine(f, a0 - delta, a0 + delta)[0])
        else:
            best = min(best, float(hvals[j]))
    return float(best)


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
        n=K.n, support=support, symmetric=K.symmetric and L.symmetric,
        shift=(1.0 - lam) * K.shift + lam * L.shift,
        label=f"interp({K.label},{L.label},{lam:g})",
    )


def _interp_rules(K: SupportBody, L: SupportBody, lam: float) -> SupportBody | None:
    a, b = (K, L) if K.kind <= L.kind else (L, K)
    la = 1.0 - lam if a is K else lam
    lb = 1.0 - la
    n = K.n
    if a.kind == "cylinder" and b.kind == "cylinder":
        (ka, Ra), (kb, Rb) = a.params, b.params
        return cylinder(min(ka, kb), la * Ra + lb * Rb, n)
    if a.kind == "box" and b.kind == "box":
        return box(la * np.array(a.params) + lb * np.array(b.params), n)
    if a.kind == "box" and b.kind == "cylinder":
        kb, Rb = b.params
        bvec = la * np.array(a.params)[:kb]
        active = np.arange(n) < kb
        return _round_box(bvec, lb * Rb, active, n)
    if a.kind == "cylinder" and b.kind == "roundbox":
        ka, Ra = a.params
        bv, s, act = b.params
        act = np.asarray(act, dtype=bool)
        if act.sum() == ka and np.all(act[:ka]):
            return _round_box(lb * np.array(bv), la * Ra + lb * s, act, n)
        return None
    if a.kind == "box" and b.kind == "roundbox":
        bv, s, act = b.params
        act = np.asarray(act, dtype=bool)
        if np.all(act):
            return _round_box(
                la * np.array(a.params) + lb * np.array(bv), lb * s, act, n
            )
        return None
    if a.kind == "roundbox" and b.kind == "roundbox":
        (b1, s1, a1), (b2, s2, a2) = a.params, b.params
        if a1 == a2:
            return _round_box(
                la * np.array(b1) + lb * np.array(b2), la * s1 + lb * s2,
                np.asarray(a1, dtype=bool), n,
            )
        return None
    if a.kind == "ellipsoid" and b.kind == "ellipsoid":
        ca, cb = np.array(a.params), np.array(b.params)
        ratio = cb / ca
        if np.allclose(ratio, ratio[0], rtol=1e-12, atol=0):
            return ellipsoid(la * ca + lb * cb, n)
        return None
    return None


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
    if K.kind == "cylinder":
        k, R = K.params
        return cylinder(k, c * R, K.n)
    if K.kind == "box":
        return box(c * np.array(K.params), K.n)
    if K.kind == "roundbox":
        b, s, act = K.params
        return _round_box(c * np.array(b), c * s, np.asarray(act, dtype=bool), K.n)
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
        symmetric=K.symmetric,
        shift=c * K.shift,
        exact_radial=(None if base_radial is None
                      else lambda t: c * np.asarray(base_radial(t), dtype=float)),
        exact_inradius=(None if K.exact_inradius is None else c * K.exact_inradius),
        label=f"dilate({K.label},{c:g})",
    )


# ---------------------------------------------------------------------------
# textual body grammar (documented in the cli module)


def parse_body(text: str, n: int) -> SupportBody:
    """Parse `name:key=val,...`; vectors use `+`; combinators:
    `interp:lambda=x;<body>|<body>` and `translate:v=a+b;<body>`."""
    text = text.strip()
    if text.startswith("interp:"):
        head, rest = text.split(";", 1)
        lam = float(head.split("lambda=", 1)[1])
        left, right = _split_top(rest)
        return interpolate(parse_body(left, n), parse_body(right, n), lam)
    if text.startswith("translate:"):
        head, rest = text.split(";", 1)
        v = [float(x) for x in head.split("v=", 1)[1].split("+")]
        return translate(parse_body(rest, n), v)
    if ":" not in text:
        raise BodyError(f"malformed body string {text!r}")
    name, params_text = text.split(":", 1)
    params: dict = {}
    for item in params_text.split(","):
        if not item:
            continue
        key, val = item.split("=", 1)
        params[key.strip()] = (
            [float(x) for x in val.split("+")] if "+" in val else float(val)
        )
    for key in ("a", "c"):
        if key in params and not isinstance(params[key], list):
            params[key] = [params[key]]
    # an explicit in-string dimension (e.g. cylinder:k=2,R=1,n=3) overrides
    # the run-level default
    if "n" in params:
        n = int(params.pop("n"))
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
