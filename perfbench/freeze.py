"""Regenerates ``reference.json``: frozen outputs of every poolable request.

    python3 perfbench/freeze.py     # from a checkout root, ~3 min

Runs every request each workload can draw, records its verdict and values
with the program's own error claims, and measures the generic radial
error on the support-only bodies (against their closed-form twins at the
same rule) to set their tolerance.  Any closed-form check
that fails here is printed, since it would also fail every benchmark run.
Only rerun it on the commit whose outputs the benchmark should hold fixed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

# the tolerance is this multiple of the largest generic radial error seen
GENERIC_FACTOR = 3.0
GENERIC_FLOOR = 1e-9


def record(values: dict, key: str, ob: dict) -> None:
    values[key] = {"verdict": ob["verdict"], "values": ob["values"]}
    for name, (v, exact, atol) in ob["closed"].items():
        if not abs(v - exact) <= atol:
            print(f"closed-form miss {key} {name}: {v!r} vs {exact!r} (atol {atol:g})")


def freeze_transform_paths(values: dict) -> None:
    for n, tr, kind, p in wl.tp_pool():
        r = wl.tp_request(n, tr, kind, p)
        record(values, r.key, r.observe(r.run()))


def freeze_moment_suite(values: dict) -> None:
    from gausscvx import gaussmoments as gm

    for n in (2, 3, 4):
        rule = gm.sphere_rule(n, wl.MOMENT_RULES[n])
        for i in range(3):
            for r in wl.ms_requests_for(n, {k: i for k in ("box", "ellipsoid", "cylinder", "lp")},
                                        rule):
                record(values, r.key, r.observe(r.run()))
        for b in range(3):
            for c in range(3):
                bodies = wl.ms_bodies(n, {"box": b, "ellipsoid": 0, "cylinder": c, "lp": 0})
                r = wl.ms_psi_inv_request(n, b, c, bodies["box"], bodies["cylinder"], rule)
                record(values, r.key, r.observe(r.run()))


def freeze_support_only(values: dict) -> dict:
    from gausscvx import gaussmoments as gm

    worst = 0.0
    for n, plan in wl.GB_PLAN.items():
        rule = gm.sphere_rule(n, wl.GENERIC_RULES[n])
        for kind, checks in plan.items():
            for idx in range(3):
                K, twin, exact = wl.gb_body(n, kind, idx)
                for check in checks:
                    r = wl.gb_request(n, kind, idx, check, K, twin, exact, rule, 1.0)
                    ob = r.observe(r.run())
                    record(values, r.key, ob)
                    t = wl.gb_request(n, kind, idx, check, twin, twin, exact, rule, 1.0)
                    ref = t.observe(t.run())["values"]
                    for name, (v, _) in ob["values"].items():
                        rel = abs(v - ref[name][0]) / max(1.0, abs(ref[name][0]))
                        worst = max(worst, rel)
    return {"measured_max_rel": worst, "factor": GENERIC_FACTOR, "floor": GENERIC_FLOOR,
            "rtol": max(GENERIC_FACTOR * worst, GENERIC_FLOOR)}


def freeze_cli(values: dict) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for family, pool in wl.CLI_POOL.items():
            for i, argv in enumerate(pool):
                out_dir = Path(tmp) / f"{family}-{i}"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "cli_launch.py")] + argv
                    + ["--out-dir", str(out_dir)],
                    env=env, capture_output=True, text=True, timeout=300)
                key = wl.cli_key(argv)
                record(values, key, wl.cli_observe(argv, proc.returncode, proc.stdout, out_dir))


def main() -> int:
    import gausscvx

    values: dict = {}
    freeze_transform_paths(values)
    freeze_moment_suite(values)
    generic = freeze_support_only(values)
    freeze_cli(values)
    ref = {"program_version": gausscvx.__version__, "generic_rtol": generic, "values": values}
    wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(values)} requests frozen; generic rtol {generic['rtol']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
