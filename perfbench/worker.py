"""Rounds of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --out FILE [--seconds T]
                                [--trace] [--setup-only]

Imports gausscvx and builds the seeded inputs (the set-up), then runs
rounds: each sends the round's requests one after another, each only once
the previous verdict is back.  Rounds repeat while another one fits in
``--seconds`` counted from the start of this process; with the default 0
it runs one round.  Outputs are checked against the oracle after each
round, so a round's wall time holds only requests.  Writes one JSON
result to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_rounds(one_round, seconds: float, trace: bool = False,
               start: float | None = None) -> tuple[list, list]:
    """Closed loop over rounds while another fits in ``seconds`` after
    ``start``; with ``trace``, untraced and traced rounds alternate."""
    plain, traced = [], []
    start = time.perf_counter() if start is None else start
    durations = []
    while True:
        t = time.perf_counter()
        is_traced = trace and len(plain) > len(traced)
        (traced if is_traced else plain).append(one_round(len(durations), is_traced))
        durations.append(time.perf_counter() - t)
        if trace and not traced:
            continue
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return plain, traced


def one_round(reqs, tracer, check) -> dict:
    raw = []
    first = time.perf_counter()
    for r in reqs:
        t = time.perf_counter()
        try:
            if tracer is None:
                out = r.run()
            else:
                with tracer.request(r.key):
                    out = r.run()
            error = None
        except Exception:  # a request that raises is a failed request
            out, error = None, traceback.format_exc(limit=3)
        raw.append((r, out, error, time.perf_counter() - t))
    wall = time.perf_counter() - first
    rows = []
    for r, out, error, dt in raw:
        if error is not None:
            problems = [error]
        else:
            try:
                problems = check(r.key, r.observe(out))
            except Exception:  # an output the oracle cannot read is wrong
                problems = [traceback.format_exc(limit=3)]
        rows.append({"key": r.key, "seconds": dt, "problems": problems})
    return {"wall_s": wall, "requests": rows}


def main() -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gausscvx.verify  # noqa: F401  (pulls in every numerical module)
    t_import = time.perf_counter() - t_import
    import workloads as wl  # this script's directory is on sys.path

    reqs = wl.BUILDERS[args.workload](args.seed)
    result = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tr.install(tracer)
        tracer.add_import(t_import)

    ref = wl.load_reference()
    rounds, _ = run_rounds(
        lambda i, traced: one_round(reqs, tracer, lambda key, ob: wl.check(key, ob, ref)),
        args.seconds, start=t0)
    result["rounds"] = rounds
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
