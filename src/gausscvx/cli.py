"""Command-line front end emitting CSV tables, JSON reports, SVG figures.

Subcommands
-----------
specfun         scalar kernel table (t, g_p, J_p, psi, phi) as CSV
cylinder-table  per-measure table (a, k, R, s, phi, ps) as CSV
partition       argmin families of phi_k / s_k with refined crossings (JSON)
measure         Gaussian measure of a body, optional Monte Carlo cross-check
torsion         torsional rigidity of a body (exact when radial, else bound)
verify          run a named inequality check and write a JSON report
plot            self-contained SVG line charts of the profile functions

Exit codes: 0 = pass, 1 = a verified violation, 2 = usage error (an
unknown check, a malformed body string or config file, a setting below
its least value or not finite, ``--rule-size 1``, a pair of bodies of
different dimension, a body without the in-radius a command needs, and
help or output to a closed stdout or stderr included), 3 = numerical failure (a concavity check whose path measure
rounds to 0 or 1 included), 4 = internal error (any other
exception; its traceback goes to stderr).  ``verify`` runs one row of
``CHECKS`` and maps its verdict through ``VERDICT_EXIT``: pass -> 0,
violation -> 1, inconclusive -> 3 (a concavity check whose error budget
cannot decide), witness and none -> 0 (a counterexample search's witness
is its finding, inside the report, not a failure).  ``--tol`` overrides
the default tolerance of the other checks; it does not affect ehrhard,
conjecture, weak or the counterexample searches, whose verdicts come from
the concavity check's error budget.

Bodies are given in the grammar of ``body.parse_body``:
``name:key=val,...`` composed with ``interp:lambda=x;<body>|<body>``.
Config files hold ``key = value`` lines; ``#`` starts a comment line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import body as bd
from . import cylinder as cyl
from . import gaussmoments as gm
from . import specfun as sf
from . import torsion as tor
from . import verify as vf

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# configuration


class ConfigError(ValueError):
    """A config-file line the CLI cannot read."""


def _at_least(kind, least=None):
    """Parser of a flag or config value: ``kind`` of the text, refused as a
    usage error below ``least`` or when not finite (NaN and inf)."""
    def parse(text: str):
        value = kind(text)
        if least is not None and not value >= least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text}")
        if isinstance(value, float) and not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _setting(default, help: str, least=None):
    """A RunConfig field: its default (whose type is the setting's), its
    flag help and the least value it accepts."""
    return field(default=default,
                 metadata={"help": help, "parse": _at_least(type(default), least)})


@dataclass
class RunConfig:
    """Run-wide settings, each declared once.  The flags (``rule_size`` is
    ``--rule-size``) and the key = value config format derive from these
    fields, and the config format round-trips all of them losslessly."""

    n: int = _setting(2, "ambient dimension", least=1)
    # the n=4 direction grid has its own seed, body._MC_GRID_SEED
    seed: int = _setting(7, "Monte Carlo seed of measure --mc")
    rule_size: int = _setting(0, "spherical-rule size; 0 = per-dimension default", least=0)
    tol: float = _setting(0.0, "tolerance override; 0 = per-check default", least=0.0)
    grid: int = _setting(99, "measure-grid resolution of tables", least=1)
    t_points: int = _setting(33, "interpolation grid size", least=vf.MIN_T_POINTS)
    out_dir: str = _setting("artifacts", "directory for JSON reports and figures")
    body: str = _setting("ball:R=1", "primary body (grammar: name:key=val,...)")
    body2: str = _setting("", 'second body of pair checks; "" = 1.5-dilate')


def write_config(cfg: RunConfig, path) -> None:
    lines = ["# gausscvx run configuration"]
    lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
              for k, v in dataclasses.asdict(cfg).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config(path) -> RunConfig:
    cfg = RunConfig()
    parsers = {f.name: f.metadata["parse"] for f in dataclasses.fields(cfg)}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in parsers:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, parsers[key](val))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: {key} = {val!r}: {exc}") from None
    return cfg


def _rule(cfg: RunConfig, n: int | None = None) -> gm.SphereRule:
    return gm.sphere_rule(n or cfg.n, cfg.rule_size or None)


def _tol(cfg: RunConfig, default: float) -> float:
    return cfg.tol if cfg.tol > 0.0 else default


def _bodies(cfg: RunConfig) -> tuple[bd.SupportBody, bd.SupportBody]:
    K = bd.parse_body(cfg.body, cfg.n)
    L = bd.parse_body(cfg.body2, K.n) if cfg.body2 else bd.dilate(K, 1.5)
    return K, L


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(cfg: RunConfig, name: str, report: dict) -> None:
    """Print ``report``, stamped with the run configuration and version, and
    write it to ``<out_dir>/<name>.json`` (numpy values through ``tolist``)."""
    report = {**report, "config": dataclasses.asdict(cfg), "version": __version__}
    text = json.dumps(report, indent=2, sort_keys=True, default=lambda o: o.tolist())
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _emit_csv(rows, header: list[str], out_path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# plain table/figure subcommands


def cmd_specfun(cfg: RunConfig, args) -> int:
    t = np.linspace(args.t_min, args.t_max, args.points)
    cols = (t, sf.g(args.p, t), sf.j_lower(args.p, t), sf.psi(t), sf.phi(np.abs(t)))
    rows = [tuple(map(float, row)) for row in zip(*cols)]
    _emit_csv(rows, ["t", "g", "j", "psi", "phi"], args.out)
    return EXIT_PASS


def cmd_cylinder_table(cfg: RunConfig, args) -> int:
    a = (np.arange(cfg.grid) + 1.0) / (cfg.grid + 1.0)
    ks = range(1, cfg.n + 1)
    cols = [(cyl.radius_of_measure(k, a), cyl.perimeter_s(k, a),
             cyl.phi_k(k, a), cyl.ps_cylinder(k, a)) for k in ks]
    rows = [(float(ai), k) + tuple(float(c[i]) for c in cols[k - 1])
            for i, ai in enumerate(a) for k in ks]
    _emit_csv(rows, ["a", "k", "R", "s", "phi", "ps"], args.out)
    return EXIT_PASS


def cmd_partition(cfg: RunConfig, args) -> int:
    table = cyl.partition(cfg.n)
    rep = {
        "n": cfg.n,
        "a": table.a,
        "phi_argmin": table.phi_argmin,
        "s_argmin": table.s_argmin,
        "mismatch_count": int(np.sum(table.mismatch)),
        "crossings_phi": [{"a": c[0], "k_left": c[1], "k_right": c[2]}
                          for c in table.crossings_phi],
        "crossings_s": [{"a": c[0], "k_left": c[1], "k_right": c[2]}
                        for c in table.crossings_s],
    }
    _emit_json(cfg, "partition", rep)
    return EXIT_PASS


def cmd_measure(cfg: RunConfig, args) -> int:
    K = bd.parse_body(cfg.body, cfg.n)
    est = gm.measure(K, _rule(cfg, K.n))
    rep = {"body": cfg.body, "n": K.n, "value": est.value, "err": est.err,
           "method": est.method}
    if args.mc:
        mc = gm.mc_measure(K, args.mc, cfg.seed)
        rep.update(mc_value=mc.value, mc_err=mc.err,
                   consistent=bool(abs(mc.value - est.value)
                                   <= 3.0 * (mc.err + est.err)))
    _emit_json(cfg, "measure", rep)
    if args.mc and not rep["consistent"]:
        return EXIT_NUMERICAL
    return EXIT_PASS


def cmd_torsion(cfg: RunConfig, args) -> int:
    if args.halfspace is not None:
        res = tor.torsion_halfspace(args.halfspace)
        body_label = f"halfspace(a={args.halfspace:g})"
    else:
        res = tor.torsion_one(bd.parse_body(cfg.body, cfg.n))
        body_label = cfg.body
    _emit_json(cfg, "torsion", {"body": body_label, "value": res.value,
                                "err": res.err, "kind": res.kind})
    return EXIT_PASS


# ---------------------------------------------------------------------------
# SVG figures


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_line_chart(path: Path, x: np.ndarray, curves, title: str,
                    ylim: tuple[float, float]) -> None:
    """Minimal self-contained SVG 1.1 line chart; values are clamped into
    ``ylim`` so diverging tails stay on the canvas."""
    W, H = 640.0, 420.0
    x0, x1, y0, y1 = 60.0, 620.0, 380.0, 24.0
    ylo, yhi = ylim

    def sx(v):
        return x0 + (v - x[0]) / (x[-1] - x[0]) * (x1 - x0)

    def sy(v):
        vv = min(max(v, ylo), yhi)
        return y0 + (vv - ylo) / (yhi - ylo) * (y1 - y0)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{W:g}" height="{H:g}" viewBox="0 0 {W:g} {H:g}">',
        f'<rect width="{W:g}" height="{H:g}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="14" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for tx in np.linspace(x[0], x[-1], 5):
        parts.append(f'<line x1="{sx(tx):.1f}" y1="{y0}" x2="{sx(tx):.1f}" '
                     f'y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{sx(tx):.1f}" y="{y0 + 16:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{tx:.2f}</text>')
    for ty in np.linspace(ylo, yhi, 5):
        parts.append(f'<line x1="{x0 - 4}" y1="{sy(ty):.1f}" x2="{x0}" '
                     f'y2="{sy(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8:.1f}" y="{sy(ty) + 3:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{ty:.2f}</text>')
    for i, (label, y) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        ly = y1 + 14 + 14 * i
        parts.append(f'<line x1="{x1 - 110:.1f}" y1="{ly:.1f}" '
                     f'x2="{x1 - 90:.1f}" y2="{ly:.1f}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 - 84:.1f}" y="{ly + 3:.1f}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _percentile(x: np.ndarray, q: float) -> float:
    """np.percentile(x, q) with its linear interpolation, from a partition
    (np.percentile's index dedup would import numpy.ma, ~10 ms a process)."""
    v = (len(x) - 1) * (q / 100.0)
    lo = min(int(v), len(x) - 2)
    x0, x1 = np.partition(x, [lo, lo + 1])[lo:lo + 2]
    g, step = v - lo, x1 - x0
    # numpy interpolates from the nearer neighbour
    return float(x1 - step * (1.0 - g) if g >= 0.5 else x0 + step * g)


def cmd_plot(cfg: RunConfig, args) -> int:
    if cfg.n < 2:
        raise bd.BodyError("figures need n >= 2")
    a = np.linspace(0.01, 0.99, 197)
    phi1 = np.asarray(cyl.phi_k(1, a))
    phi2 = np.asarray(cyl.phi_k(2, a))
    s1 = np.asarray(cyl.perimeter_s(1, a))
    s2 = np.asarray(cyl.perimeter_s(2, a))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    figures = {
        "phi12": (a, [("phi1", phi1), ("phi2", phi2)],
                  "profile growth rates phi_1, phi_2",
                  (-3.0, float(max(phi1.max(), phi2.max())))),
        "s12": (a, [("s1", s1), ("s2", s2)],
                "perimeter densities s_1, s_2",
                (0.0, float(max(s1.max(), s2.max())) * 1.05)),
        "phidiff": (a, [("phi1-phi2", phi1 - phi2)],
                    "difference phi_1 - phi_2",
                    (_percentile(phi1 - phi2, 1.0),
                     float((phi1 - phi2).max()) * 1.05)),
    }
    names = list(figures) if args.figure == "all" else [args.figure]
    written = []
    for name in names:
        x, curves, title, ylim = figures[name]
        p = out_dir / f"{name}.svg"
        _svg_line_chart(p, x, curves, title, ylim)
        written.append(str(p))
    print("\n".join(written))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verification checks: one row per check, (lhs, rhs, margin, verdict, details)


VERDICT_EXIT = {"pass": EXIT_PASS, "violation": EXIT_VIOLATION,
                "inconclusive": EXIT_NUMERICAL,
                "witness": EXIT_PASS, "none": EXIT_PASS}


def _grade(margin: float, tol: float) -> str:
    return "pass" if margin >= -tol else "violation"


def _check_saint_venant(cfg: RunConfig):
    K = bd.parse_body(cfg.body, cfg.n)
    rc = bd.round_cylinder(K)
    if rc is None:
        raise vf.VerificationError(
            "exact torsion needs a strip/ball/cylinder body")
    lhs = tor.torsion_one(K)
    a = float(cyl.measure_of_radius(*rc))
    rhs = tor.torsion_halfspace(a)
    margin = rhs.value - lhs.value
    return (lhs.value, rhs.value, margin,
            _grade(margin, _tol(cfg, 1e-6) * rhs.value),
            {"a": a, "lhs_err": lhs.err, "rhs_err": rhs.err})


def _concavity(transform: str):
    """Row: concavity of ``transform`` of the measure along the interpolation
    of the two bodies; the verdict is the check's own, from its error
    budget, so ``--tol`` does not enter."""
    def row(cfg: RunConfig):
        K, L = _bodies(cfg)
        rep = vf.concavity_check(transform, K, L, n_t=cfg.t_points,
                                 rule=_rule(cfg, K.n))
        j = int(np.argmax(rep.second_diffs - rep.budget))
        verdict = {"concave_within_tol": "pass", "violation": "violation",
                   "inconclusive": "inconclusive"}[rep.verdict]
        return (rep.second_diffs[j], rep.budget[j], -rep.worst_excess, verdict,
                {"transform": transform, "pair": rep.pair, "t_grid": rep.t_grid,
                 "measures": rep.measures, "second_diffs": rep.second_diffs,
                 "budget": rep.budget})
    return row


def _max_power_over(cfg: RunConfig, K, L, bound: float):
    """The certified concavity power of (K, L) against a lower ``bound``;
    the bracket's width widens the tolerance."""
    pb = vf.max_power(K, L, n_t=cfg.t_points, rule=_rule(cfg, K.n))
    margin = pb.value - bound
    return pb, margin, _grade(margin, _tol(cfg, 1e-6) + pb.width)


def _check_max_power(cfg: RunConfig):
    K, L = _bodies(cfg)
    pb, margin, verdict = _max_power_over(cfg, K, L, 1.0 / K.n)
    return (pb.value, 1.0 / K.n, margin, verdict,
            {"bracket": [pb.lo, pb.hi], "width": pb.width})


def _check_gauss_main(cfg: RunConfig):
    K, L = _bodies(cfg)
    rec = vf.gauss_main_bound(K, rule=_rule(cfg, K.n))
    pb, margin, verdict = _max_power_over(cfg, K, L, rec["bound"])
    return rec["bound"], pb.value, margin, verdict, rec


def _check_cor_t1(cfg: RunConfig):
    K, L = _bodies(cfg)
    rec = vf.corT1_bound(K, rule=_rule(cfg, K.n))
    pb, margin, verdict = _max_power_over(cfg, K, L, rec["value"])
    return (rec["value"], pb.value, margin, verdict,
            {"torsion": rec["torsion"].value,
             "torsion_kind": rec["torsion_kind"], "ex2": rec["ex2"]})


def _check_minkowski_first(cfg: RunConfig):
    K, L = _bodies(cfg)
    rec = vf.minkowski_first_check(K, L, rule=_rule(cfg, K.n))
    return (rec["lhs"], rec["rhs"], rec["slack"],
            _grade(rec["slack"], _tol(cfg, 3.0 * rec["lhs_err"] + 1e-8)), rec)


def _check_brascamp_lieb(cfg: RunConfig):
    K = bd.parse_body(cfg.body, cfg.n)
    if K.n == 1:
        mode, f = "gaussian", vf.MultiPoly.coord(1, 0)
    else:
        last = vf.MultiPoly.coord(K.n, K.n - 1)
        # c = 1/2 needs a symmetric K; c = 1 holds for any convex K
        mode, f = ("gaussian_even_half" if K.symmetric else "gaussian"), last * last
    rec = vf.brascamp_lieb_check(K, f, mode, rule=_rule(cfg, K.n))
    return (rec["var"], rec["bound"], rec["slack"],
            _grade(rec["slack"], _tol(cfg, 3.0 * rec["err"] + 1e-8)), rec)


def _check_moments(cfg: RunConfig):
    K = bd.parse_body(cfg.body, cfg.n)
    rec = vf.moment_inequality_suite(K, rule=_rule(cfg, K.n))
    worst = min(rec["margins"].values())
    return (worst, 0.0, worst,
            _grade(worst, _tol(cfg, 3.0 * rec["err"] + 1e-8)), rec)


def _check_alpha_halfspace(cfg: RunConfig):
    rec = vf.alpha_halfspace(0.3)
    margin = _tol(cfg, 1e-8) - abs(rec["diff"])
    return (rec["quadrature"], rec["closed"], margin, _grade(margin, 0.0),
            rec)


def _check_s_inequality(cfg: RunConfig):
    K = bd.parse_body(cfg.body, cfg.n)
    rec = vf.s_inequality_check(K, rule=_rule(cfg, K.n))
    worst = min(r["margin"] for r in rec["rows"])
    tol = _tol(cfg, 3.0 * max(r["err"] for r in rec["rows"]) + 1e-8)
    return worst, 0.0, worst, _grade(worst, tol), rec


def _check_propgauss(cfg: RunConfig):
    K = bd.parse_body(cfg.body, cfg.n)
    u = vf.MultiPoly.abs_sq(K.n) * 0.5
    rec = vf.propgauss_check(K, u, rule=_rule(cfg, K.n))
    return (rec["lhs"], rec["rhs"], rec["slack"],
            _grade(rec["slack"], _tol(cfg, 3.0 * rec["err"] + 1e-9)), rec)


def _counterexample(transform: str):
    """Row: a scripted counterexample search; a confirmed witness is the
    search's finding ("witness"), not a violation."""
    def row(cfg: RunConfig):
        fam = vf.counterexample_family(cfg.n, transform)
        rec = vf.counterexample_search(transform, fam, n_t=cfg.t_points,
                                       rule=_rule(cfg))
        w = rec["witness"]
        if w is None:
            return 0.0, 0.0, 0.0, "none", rec
        return (w["second_diff"], w["budget"], w["second_diff"] - w["budget"],
                "witness", rec)
    return row


CHECKS = {
    "saint-venant": _check_saint_venant,
    "ehrhard": _concavity("psi_inv"),
    "conjecture": _concavity("conjecture_F"),
    "weak": _concavity("weak_F"),
    "max-power": _check_max_power,
    "gauss-main": _check_gauss_main,
    "cor-t1": _check_cor_t1,
    "minkowski-first": _check_minkowski_first,
    "brascamp-lieb": _check_brascamp_lieb,
    "moments": _check_moments,
    "alpha-halfspace": _check_alpha_halfspace,
    "s-inequality": _check_s_inequality,
    "propgauss": _check_propgauss,
    "counterexample-phi-inv": _counterexample("phi_inv"),
    "counterexample-bad-func": _counterexample("bad_func"),
}


def cmd_verify(cfg: RunConfig, args) -> int:
    lhs, rhs, margin, verdict, details = CHECKS[args.check](cfg)
    _emit_json(cfg, args.check, {"check": args.check, "lhs": lhs, "rhs": rhs,
                                 "margin": margin, "verdict": verdict,
                                 "details": details})
    return VERDICT_EXIT[verdict]


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed writes (help into a closed pipe) raise."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file, read before the flags")
    for f in dataclasses.fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=f.metadata["parse"],
                       help=f"{f.metadata['help']} (default: {f.default!r})")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gausscvx",
        description="Gaussian-convexity diagnostics: tables, checks, figures")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specfun", help="scalar kernel table (CSV)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--points", type=_at_least(int, 0), default=31)
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.set_defaults(func=cmd_specfun)

    p = sub.add_parser("cylinder-table", help="per-measure profile table (CSV)")
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.set_defaults(func=cmd_cylinder_table)

    p = sub.add_parser("partition", help="argmin families and crossings (JSON)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("measure", help="Gaussian measure of a body (JSON)")
    p.add_argument("--mc", type=_at_least(int, 0), default=0,
                   help="Monte Carlo cross-check sample count")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("torsion", help="torsional rigidity (JSON)")
    p.add_argument("--halfspace", type=float, default=None,
                   help="half-space measure instead of a body")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("verify", help="run a named inequality check (JSON)")
    p.add_argument("--check", required=True, choices=sorted(CHECKS),
                   metavar="CHECK", help="one of: %(choices)s")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="SVG figures of the profile functions")
    p.add_argument("--figure", default="all",
                   choices=["phi12", "s12", "phidiff", "all"])
    p.set_defaults(func=cmd_plot)

    for p in sub.choices.values():  # every command takes every run setting
        _add_common(p)
    return ap


def _build_config(args) -> RunConfig:
    """The config file's settings, or the defaults, with the flags given
    on top."""
    cfg = read_config(args.config) if args.config else RunConfig()
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _finish(code: int, message: str = "") -> int:
    """Write ``message`` to stderr, flush both streams and return ``code``,
    or EXIT_USAGE if a stream is closed or cannot be written."""
    for stream, text in ((sys.stderr, message), (sys.stdout, "")):
        if stream is None:  # its descriptor was closed at start-up
            code = EXIT_USAGE
            continue
        try:
            stream.write(text)
            stream.flush()
        except (OSError, ValueError):  # ValueError: a closed file object
            code = EXIT_USAGE
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return _finish(EXIT_PASS if exc.code in (0, None) else EXIT_USAGE)
    except (OSError, ValueError):  # help or usage text to a closed stream
        return _finish(EXIT_USAGE)
    try:
        return _finish(args.func(_build_config(args), args))
    except (bd.BodyError, sf.DomainError, ConfigError, OSError) as exc:
        return _finish(EXIT_USAGE, f"error: {exc}\n")
    except (gm.QuadratureFailure, tor.TorsionFailure, cyl.NumericalFailure,
            vf.VerificationError) as exc:
        return _finish(EXIT_NUMERICAL, f"numerical failure: {exc}\n")
    except Exception:
        # a crash must not exit 1, which means a verified violation
        return _finish(EXIT_INTERNAL, traceback.format_exc())


if __name__ == "__main__":
    sys.exit(main())
