"""Workload inputs, requests and the correctness oracle.

Every input is drawn from ``--seed`` out of small fixed pools, so each
request the benchmark can issue has a value frozen at the seed commit in
``reference.json`` (regenerate with ``python3 perfbench/freeze.py``).
Each request yields an observation: a verdict (compared exactly), named
values with the program's own error claim (compared against the frozen
values), and closed-form references (compared against independent
formulas evaluated here with scipy, not with the program).
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy import special

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("transform-paths", "moment-suite", "cli-cold")
# request_tail_s pools every request of every round.  Its percentile is fixed
# per workload: the highest that leaves ten samples beyond it at the fewest
# rounds 40 s runs reach on the reference machine (3 of 12 requests, 3 of
# 113 and 1 of 22).  A run that fits a round more thus reports the same
# statistic, with more samples beyond it (printed).
TAIL_SAMPLES = {"transform-paths": 36, "moment-suite": 339, "cli-cold": 22}

# frozen-value tolerance per request family (the key's first part):
# |v - ref| <= 3 * ref_err + RTOL * max(1, |ref|).  Support-only bodies ("gb")
# take their relative tolerance from reference.json, where freeze.py derives
# it from the generic radial error it measured.
RTOL = {"tp": 1e-7, "ms": 1e-9, "cli": 1e-7}
# closed-form tolerance: |v - exact| <= 3 * err + CLOSED_ATOL
CLOSED_ATOL = 1e-10

T_POINTS = 9
MOMENT_RULES = {2: 256, 3: 512, 4: 1024}
GENERIC_RULES = {2: 8, 3: 4}


@dataclasses.dataclass
class Request:
    key: str
    run: object          # callable -> raw output (timed)
    observe: object      # callable raw -> observation dict (not timed)


def obs(verdict="ok", values=None, closed=None) -> dict:
    """values: {name: (value, err)}; closed: {name: (value, exact, atol)}."""
    return {"verdict": verdict,
            "values": {k: [float(v), float(e)] for k, (v, e) in (values or {}).items()},
            "closed": {k: [float(v), float(x), float(t)]
                       for k, (v, x, t) in (closed or {}).items()}}


def near(value, exact, err=0.0):
    """A closed-form comparison passing when |value - exact| <= 3 err + CLOSED_ATOL."""
    return value, exact, 3.0 * err + CLOSED_ATOL * max(1.0, abs(exact))


def _margin_verdict(margin: float, tol: float) -> str:
    return "pass" if margin >= -tol else "violation"


def cylinder_measure(k: int, R: float) -> float:
    """Gaussian measure of the round k-cylinder of radius R (closed form)."""
    return float(special.gammainc(k / 2.0, R * R / 2.0))


def box_measure(half_widths) -> float:
    """Gaussian measure of a centred box: the erf product."""
    return float(np.prod(special.erf(np.asarray(half_widths) / math.sqrt(2.0))))


# ---------------------------------------------------------------------------
# transform-paths


# each slot holds three variants a few hundredths apart: the seed varies the
# inputs, while every round keeps the same mix of cheap and costly paths (the
# cost of a transform check grows quickly as the path's measures approach 1)
TP_SLOTS = {
    2: {"cyl": [(1, 0.38, 0.98), (1, 0.4, 1.0), (1, 0.42, 1.02)],
        "ball": [(0.68, 1.48), (0.7, 1.5), (0.72, 1.52)]},
    3: {"cyl": [(2, 0.58, 1.38), (2, 0.6, 1.4), (2, 0.62, 1.42)],
        "ball": [(0.88, 1.78), (0.9, 1.8), (0.92, 1.82)]},
}
# per dimension, the transforms in the order a round runs them and the slots
# each one checks: the first check builds the transform, the second evaluates
# it warm at new measures.  A round stays short (6-7 s) so that a run holds
# several rounds and reports their median.
TP_PLAN = {"conjecture_F": ("cyl", "ball"), "weak_F": ("cyl", "ball"),
           "bad_func": ("cyl", "ball")}


def _tp_pair(bd, n: int, kind: str, p):
    """(K, L, (k, r1, r2)): the pair and its closed form, the k-cylinder
    (or the ball, k = n) whose radius moves linearly from r1 to r2."""
    if kind == "cyl":
        k, r1, r2 = p
        return bd.cylinder(k, r1, n), bd.cylinder(k, r2, n), (k, r1, r2)
    r1, r2 = p
    return bd.ball(r1, n), bd.ball(r2, n), (n, r1, r2)


def tp_pool():
    """Every (n, transform, kind, params) the workload can draw."""
    for n in (2, 3):
        for tr, kinds in TP_PLAN.items():
            for kind in kinds:
                for p in TP_SLOTS[n][kind]:
                    yield n, tr, kind, p


def tp_request(n: int, tr: str, kind: str, p) -> Request:
    from gausscvx import body as bd
    from gausscvx import verify as vf

    K, L, (k, r1, r2) = _tp_pair(bd, n, kind, p)
    key = f"tp/n{n}/{tr}/{kind}/{json.dumps(p)}"

    def observe(rep):
        values = {f"a{i}": (a, e) for i, (a, e) in
                  enumerate(zip(rep.measures, rep.measure_errs))}
        # the transform integrates to ~1e-10; 0 err leaves RTOL in charge
        values.update({f"F{i}": (F, 0.0) for i, F in enumerate(rep.transformed)})
        closed = {f"a{i}": near(a, cylinder_measure(k, (1 - t) * r1 + t * r2), e)
                  for i, (t, a, e) in enumerate(zip(rep.t_grid, rep.measures,
                                                    rep.measure_errs))}
        return obs(rep.verdict, values, closed)

    return Request(key, lambda: vf.concavity_check(tr, K, L, n_t=T_POINTS), observe)


def tp_requests(seed: int) -> list[Request]:
    """The round in its fixed order: each slot's variant is drawn from the
    seed, and every seed visits the same transforms in the same pattern."""
    rng = random.Random(seed)
    reqs = []
    for n in (2, 3):
        for tr, kinds in TP_PLAN.items():
            for kind in kinds:
                reqs.append(tp_request(n, tr, kind, rng.choice(TP_SLOTS[n][kind])))
    return reqs


# ---------------------------------------------------------------------------
# moment-suite


MS_BOX = {2: [(0.6, 0.8), (0.7, 1.0), (0.9, 1.1)],
          3: [(0.6, 0.8, 1.0), (0.7, 0.9, 0.9), (0.8, 1.0, 1.2)],
          4: [(0.6, 0.8, 1.0, 1.2), (0.8, 0.8, 1.0, 1.0), (0.7, 0.9, 1.1, 1.3)]}
MS_ELL = {2: [(0.8, 1.1), (0.9, 1.4), (1.0, 1.2)],
          3: [(0.8, 1.1, 1.4), (0.9, 1.0, 1.3), (1.0, 1.2, 1.5)],
          4: [(0.8, 1.1, 1.4, 1.7), (0.9, 1.0, 1.2, 1.4), (1.0, 1.2, 1.3, 1.6)]}
MS_CYL = [0.8, 1.0, 1.2]          # (n-1)-cylinder radius
MS_LP = [(1.1, 3.0), (1.2, 4.0), (1.3, 1.5)]
MS_CHECKS = ("suite", "gauss_main", "corT1", "brascamp_lieb", "propgauss",
             "s_inequality", "minkowski_first", "max_power", "rayleigh")
# lp-balls have no closed interpolation rule with any body, so the two checks
# that move along K + eps L would leave the closed-form radials
MS_LP_SKIP = ("minkowski_first", "max_power")


def ms_bodies(n: int, choice: dict):
    from gausscvx import body as bd

    return {"box": bd.box(list(MS_BOX[n][choice["box"]]), n),
            "ellipsoid": bd.ellipsoid(list(MS_ELL[n][choice["ellipsoid"]]), n),
            "cylinder": bd.cylinder(n - 1, MS_CYL[choice["cylinder"]], n),
            "lp": bd.lp_ball(*MS_LP[choice["lp"]], n)}


def _ms_closed(kind: str, n: int, idx: int):
    if kind == "box":
        return box_measure(MS_BOX[n][idx])
    if kind == "cylinder":
        return cylinder_measure(n - 1, MS_CYL[idx])
    return None


def ms_request(n: int, kind: str, idx: int, check: str, K, rule) -> Request:
    from gausscvx import body as bd
    from gausscvx import gaussmoments as gm
    from gausscvx import torsion as tor
    from gausscvx import verify as vf

    key = f"ms/n{n}/{kind}{idx}/{check}"
    L = bd.dilate(K, 1.5)
    if check == "suite":
        exact = _ms_closed(kind, n, idx)

        def observe(rec):
            err = rec["err"]
            values = {"a": (rec["a"], err), "m2": (rec["m2"], err), "m4": (rec["m4"], err)}
            values.update({f"margin.{k}": (v, err) for k, v in rec["margins"].items()})
            for i, s in enumerate(rec["shifted"]):
                values[f"shifted{i}.margin"] = (s["margin"], err)
            worst = min(rec["margins"].values())
            closed = {"a": near(rec["a"], exact, err)} if exact is not None else {}
            return obs(_margin_verdict(worst, 3 * err + 1e-8), values, closed)

        return Request(key, lambda: vf.moment_inequality_suite(K, rule), observe)
    if check == "gauss_main":
        return Request(key, lambda: vf.gauss_main_bound(K, rule),
                       lambda r: obs(values={"bound": (r["bound"], r["components"]["err"])}))
    if check == "corT1":
        return Request(key, lambda: vf.corT1_bound(K, rule),
                       lambda r: obs(values={"value": (r["value"], r["torsion"].err)}))
    if check == "brascamp_lieb":
        last = vf.MultiPoly.coord(n, n - 1)
        f = last * last
        return Request(
            key, lambda: vf.brascamp_lieb_check(K, f, "gaussian_even_half", rule),
            lambda r: obs(_margin_verdict(r["slack"], 3 * r["err"] + 1e-8),
                          {"slack": (r["slack"], r["err"])}))
    if check == "propgauss":
        u = vf.MultiPoly.abs_sq(n) * 0.5
        return Request(
            key, lambda: vf.propgauss_check(K, u, rule),
            lambda r: obs(_margin_verdict(r["slack"], 3 * r["err"] + 1e-9),
                          {"slack": (r["slack"], r["err"])}))
    if check == "s_inequality":
        def observe(r):
            err = max(row["err"] for row in r["rows"])
            worst = min(row["margin"] for row in r["rows"])
            return obs(_margin_verdict(worst, 3 * err + 1e-8),
                       {f"margin{i}": (row["margin"], err) for i, row in enumerate(r["rows"])})

        return Request(key, lambda: vf.s_inequality_check(K, rule=rule), observe)
    if check == "minkowski_first":
        return Request(
            key, lambda: vf.minkowski_first_check(K, L, rule),
            lambda r: obs(_margin_verdict(r["slack"], 3 * r["lhs_err"] + 1e-8),
                          {"lhs": (r["lhs"], r["lhs_err"]), "rhs": (r["rhs"], r["lhs_err"])}))
    if check == "max_power":
        return Request(key, lambda: vf.max_power(K, L, n_t=T_POINTS, rule=rule),
                       lambda r: obs(values={"power": (r.value, r.width)}))
    if check == "rayleigh":
        one = gm.RayPolynomial.constant(1.0)
        return Request(key, lambda: tor.rayleigh(K, one, [1.0, 0.0, -1.0], rule),
                       lambda r: obs(values={"quotient": (r.value, r.err)}))
    raise ValueError(check)


def ms_psi_inv_request(n: int, box_idx: int, cyl_idx: int, K, C, rule) -> Request:
    from gausscvx import verify as vf

    key = f"ms/n{n}/psi_inv/box{box_idx}->cylinder{cyl_idx}"

    def observe(rep):
        values = {f"a{i}": (a, e) for i, (a, e) in
                  enumerate(zip(rep.measures, rep.measure_errs))}
        return obs(rep.verdict, values)

    return Request(key, lambda: vf.concavity_check("psi_inv", K, C, n_t=T_POINTS, rule=rule),
                   observe)


def ms_requests_for(n: int, choice: dict, rule) -> list[Request]:
    bodies = ms_bodies(n, choice)
    reqs = []
    for kind, K in bodies.items():
        for check in MS_CHECKS:
            if kind == "lp" and check in MS_LP_SKIP:
                continue
            reqs.append(ms_request(n, kind, choice[kind], check, K, rule))
    reqs.append(ms_psi_inv_request(n, choice["box"], choice["cylinder"],
                                   bodies["box"], bodies["cylinder"], rule))
    return reqs


def ms_requests(seed: int) -> list[Request]:
    """Closed-form bodies in n=2,3,4, then support-only bodies in n=2,3."""
    from gausscvx import gaussmoments as gm

    rng = random.Random(seed)
    reqs = []
    for n in (2, 3, 4):
        rule = gm.sphere_rule(n, MOMENT_RULES[n])
        choice = {kind: rng.randrange(3) for kind in ("box", "ellipsoid", "cylinder", "lp")}
        reqs += ms_requests_for(n, choice, rule)
    return reqs + gb_requests(rng, load_reference()["generic_rtol"]["rtol"])


# ---------------------------------------------------------------------------
# support-only bodies, part of moment-suite: the generic radial loop


GB_BOX = {2: [(0.7, 0.8), (0.6, 1.0), (0.9, 0.9)],
          3: [(0.7, 0.8, 0.9), (0.6, 1.0, 0.8), (0.9, 0.9, 1.1)]}
GB_BALL = [0.9, 1.1, 1.3]
GB_CHECKS = ("measure", "moments_bundle", "gauss_main")
# the checks run per dimension and body: the generic radial costs 8-50 ms per
# direction, so n=3 runs measure only
GB_PLAN = {2: {"box": GB_CHECKS, "ball": GB_CHECKS},
           3: {"box": ("measure",), "ball": ("measure",)}}


def support_only(K):
    """The same body with its closed-form radial and in-radius withheld."""
    return dataclasses.replace(K, exact_radial=None, exact_inradius=None,
                               kind="generic", params=(), label="support-only " + K.label)


def gb_body(n: int, kind: str, idx: int):
    """(support-only body, its exact-radial twin, closed-form measure)."""
    from gausscvx import body as bd

    if kind == "box":
        K = bd.box(list(GB_BOX[n][idx]), n)
        return support_only(K), K, box_measure(GB_BOX[n][idx])
    K = bd.ball(GB_BALL[idx], n)
    return support_only(K), K, cylinder_measure(n, GB_BALL[idx])


def gb_request(n: int, kind: str, idx: int, check: str, K, twin, exact, rule,
               radial_rtol: float) -> Request:
    from gausscvx import gaussmoments as gm
    from gausscvx import verify as vf

    key = f"gb/n{n}/{kind}{idx}/{check}"
    if check == "measure":
        def observe(est):
            # a_same_rule isolates the generic radial error: same rule, exact radial
            same = gm.measure(twin, rule).value
            return obs(values={"a": (est.value, est.err)},
                       closed={"a": near(est.value, exact, est.err),
                               "a_same_rule": (est.value, same,
                                               radial_rtol * max(1.0, same))})

        return Request(key, lambda: gm.measure(K, rule), observe)
    if check == "moments_bundle":
        def observe(b):
            return obs(values={name: (getattr(b, name).value, getattr(b, name).err)
                               for name in ("a", "m2", "m4", "gK2", "gK1")})

        return Request(key, lambda: gm.moments_bundle(K, rule), observe)
    return Request(key, lambda: vf.gauss_main_bound(K, rule),
                   lambda r: obs(values={"bound": (r["bound"], r["components"]["err"])}))


def gb_requests(rng: random.Random, radial_rtol: float) -> list[Request]:
    from gausscvx import gaussmoments as gm

    reqs = []
    for n in (2, 3):
        rule = gm.sphere_rule(n, GENERIC_RULES[n])
        for kind, checks in GB_PLAN[n].items():
            idx = rng.randrange(3)
            K, twin, exact = gb_body(n, kind, idx)
            for check in checks:
                reqs.append(gb_request(n, kind, idx, check, K, twin, exact, rule,
                                       radial_rtol))
    return reqs


BUILDERS = {"transform-paths": tp_requests, "moment-suite": ms_requests}


# ---------------------------------------------------------------------------
# cli-cold: each request is one documented command in a fresh process


CLI_POOL = {
    "partition": [["partition", "--n", "2"], ["partition", "--n", "3"]],
    "cylinder-table": [["cylinder-table", "--n", "2", "--grid", "99"],
                       ["cylinder-table", "--n", "3", "--grid", "99"]],
    "measure-mc": [["measure", "--body", f"cylinder:k=2,R={R},n=3", "--mc", "100000"]
                   for R in (0.7, 0.9, 1.1)]
                  + [["measure", "--n", "2", "--body", f"ball:R={R}", "--mc", "100000"]
                     for R in (0.8, 1.2)],
    "torsion-halfspace": [["torsion", "--halfspace", a] for a in ("0.5", "0.3", "0.7")],
    "plot": [["plot", "--n", "2", "--figure", "all"], ["plot", "--n", "3", "--figure", "all"]],
    "saint-venant": [["verify", "--check", "saint-venant", "--n", "2", "--body", f"ball:R={R}"]
                     for R in (0.8, 1.0, 1.3)]
                    + [["verify", "--check", "saint-venant", "--n", "3",
                        "--body", f"cylinder:k=2,R={R}"] for R in (0.9, 1.2)],
    "ehrhard": [["verify", "--check", "ehrhard", "--n", n, "--body", b, "--t-points", "9"]
                for n, b in (("2", "box:a=0.6+0.9"), ("2", "ball:R=0.8"),
                             ("3", "box:a=0.7+0.8+1.0"), ("3", "ball:R=1.1"))],
    "weak": [["verify", "--check", "weak", "--n", n, "--body", f"ball:R={R}", "--t-points", "9"]
             for n in ("2", "3") for R in (0.8, 1.2)],
    # the conjectured transform's cold build costs more in n=3 and at larger
    # radii, so each dimension is its own family with two radii of like cost
    **{f"conjecture-n{n}": [["verify", "--check", "conjecture", "--n", n,
                             "--body", f"ball:R={R}", "--t-points", "9"] for R in (0.8, 0.85)]
       for n in ("2", "3")},
    "moments": [["verify", "--check", "moments", "--n", "2", "--rule-size", "256",
                 "--body", b] for b in ("box:a=0.7+1.0", "ellipsoid:c=0.9+1.3")]
               + [["verify", "--check", "moments", "--n", "3", "--rule-size", "512",
                   "--body", b] for b in ("box:a=0.7+0.9+1.1", "ellipsoid:c=0.8+1.0+1.3")],
    "gauss-main": [["verify", "--check", "gauss-main", "--n", n, "--body", b, "--t-points", "9",
                    "--rule-size", s]
                   for n, b, s in (("2", "box:a=0.7+1.0", "512"), ("2", "ball:R=1", "512"),
                                   ("3", "box:a=0.7+0.9+1.1", "1024"),
                                   ("3", "ellipsoid:c=0.8+1.0+1.3", "1024"))],
    "alpha-halfspace": [["verify", "--check", "alpha-halfspace"]],
    "counterexample-bad-func": [["verify", "--check", "counterexample-bad-func", "--n", n,
                                 "--t-points", "9"] for n in ("2", "3")],
}
# commands per round of each family: 22 requests in all
CLI_PLAN = {"partition": 1, "cylinder-table": 1, "measure-mc": 2, "torsion-halfspace": 2,
            "plot": 1, "saint-venant": 2, "ehrhard": 2, "weak": 2, "conjecture-n2": 1,
            "conjecture-n3": 1, "moments": 2, "gauss-main": 2, "alpha-halfspace": 1,
            "counterexample-bad-func": 2}


def cli_key(argv) -> str:
    return "cli/" + " ".join(argv)


def cli_requests(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    reqs = []
    for family, count in CLI_PLAN.items():
        reqs += rng.sample(CLI_POOL[family], count)
    rng.shuffle(reqs)
    return reqs


def cli_observe(argv, code: int, stdout: str, out_dir: Path) -> dict:
    """Observation of one CLI command from its exit code and outputs."""
    cmd = argv[0]
    verdict = f"exit{code}"
    if code != 0:
        return obs(verdict)
    if cmd == "cylinder-table":
        lines = stdout.strip().splitlines()
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        closed = {}
        for i in (0, len(rows) // 2, len(rows) - 1):
            a, k, R, _s, phi, ps = rows[i]
            closed[f"R{i}"] = near(R, math.sqrt(2.0 * special.gammaincinv(k / 2.0, a)), 1e-9)
            closed[f"ps{i}"] = near(ps, 1.0 + a * phi, 1e-9 * max(1.0, abs(ps)))
        return obs(f"{verdict}/rows{len(rows)}", closed=closed)
    if cmd == "plot":
        import xml.etree.ElementTree as ET

        names = sorted(Path(p).name for p in stdout.split())
        lines = sum(len(ET.parse(out_dir / nm).getroot().findall(
            "{http://www.w3.org/2000/svg}polyline")) for nm in names)
        return obs(f"{verdict}/{','.join(names)}/polylines{lines}")
    rep = json.loads(stdout)
    if cmd == "partition":
        values = {f"phi{i}": (c["a"], 0.0) for i, c in enumerate(rep["crossings_phi"])}
        values.update({f"s{i}": (c["a"], 0.0) for i, c in enumerate(rep["crossings_s"])})
        return obs(f"{verdict}/mismatch{rep['mismatch_count']}", values)
    if cmd == "measure":
        closed = {}
        body = rep["body"]
        if body.startswith("cylinder:"):
            params = dict(kv.split("=") for kv in body.split(":", 1)[1].split(","))
            exact = cylinder_measure(int(params["k"]), float(params["R"]))
            closed = {"value": near(rep["value"], exact, rep["err"]),
                      "mc": near(rep["mc_value"], exact, rep["mc_err"])}
        elif body.startswith("ball:"):
            exact = cylinder_measure(rep["n"], float(body.split("=", 1)[1]))
            closed = {"value": near(rep["value"], exact, rep["err"]),
                      "mc": near(rep["mc_value"], exact, rep["mc_err"])}
        return obs(f"{verdict}/consistent{rep['consistent']}",
                   {"value": (rep["value"], rep["err"])}, closed)
    if cmd == "torsion":
        closed = {}
        if argv[2] == "0.5":
            closed["value"] = near(rep["value"], math.log(2.0), rep["err"])
        return obs(verdict, {"value": (rep["value"], rep["err"])}, closed)
    # verify
    values = {name: (rep[name], 0.0) for name in ("lhs", "rhs", "margin")}
    closed = {}
    if rep["check"] == "alpha-halfspace":
        a = rep["details"]["a"]
        b = special.ndtri(a)
        closed["closed"] = near(rep["details"]["closed"],
                                -math.sqrt(2 * math.pi) * a * b * math.exp(b * b / 2))
        # the CLI's own acceptance tolerance for the quadrature route
        closed["quadrature"] = (rep["details"]["quadrature"], rep["details"]["closed"], 1e-8)
    return obs(f"{verdict}/{rep['verdict']}", values, closed)


# ---------------------------------------------------------------------------
# the oracle


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check(key: str, ob: dict, ref: dict) -> list[str]:
    """Problems with one observation; empty when the request is correct."""
    family = key.split("/", 1)[0]
    rtol = ref["generic_rtol"]["rtol"] if family == "gb" else RTOL[family]
    problems = []
    for name, (v, exact, atol) in ob["closed"].items():
        if not abs(v - exact) <= atol:
            problems.append(f"{name}={v!r} vs closed form {exact!r} (atol {atol:g})")
    frozen = ref["values"].get(key)
    if frozen is None:
        return problems + ["no frozen reference for this request"]
    if ob["verdict"] != frozen["verdict"]:
        problems.append(f"verdict {ob['verdict']!r}, expected {frozen['verdict']!r}")
    for name, (rv, rerr) in frozen["values"].items():
        if name not in ob["values"]:
            problems.append(f"{name} missing")
            continue
        v = ob["values"][name][0]
        if not abs(v - rv) <= 3.0 * rerr + rtol * max(1.0, abs(rv)):
            problems.append(f"{name}={v!r}, frozen {rv!r} (err {rerr:g}, rtol {rtol:g})")
    return problems
