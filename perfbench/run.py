"""The gausscvx benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``design.json`` for why each was chosen):

- transform-paths  concavity checks through the integrated-exponential
                   transforms, in a fixed seeded order
- moment-suite     moment inequalities and bounds on closed-form bodies,
                   and measures and moments of support-only bodies
- cli-cold         one documented CLI command per fresh process

Each is a closed loop with one caller.  A round is the workload's fixed
request list.  transform-paths runs every round in a fresh interpreter, so
the transform caches start cold each time; moment-suite, whose only cache is
the sphere rules built at set-up, runs all its rounds in one interpreter.
Rounds repeat while another one fits in ``--seconds``, which also holds the
set-up samples.  wall_s is the median round; the request-time metrics pool
every request of every round.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced rounds share the time (alternating, or
one untraced and one traced interpreter) and the last line reports the
per-layer metrics of the traced rounds (per round) and the tracing
overhead.  Every output is checked (``workloads.check``); the
line before the result prints ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import run_rounds

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
REQUEST_TIMEOUT_S = 150
SETUP_SAMPLES = 3
CLI_SETUP_SAMPLES = 5


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env(extra=None) -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=nproc,
               OPENBLAS_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc,
               PYTHONHASHSEED="0")
    env.update(extra or {})
    return env


def spawn(argv, env=None, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + argv, env=env or child_env(),
                          timeout=REQUEST_TIMEOUT_S, **kw)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution.  Used on
    the pooled request times: a round mixes requests of unlike cost, and a
    single order statistic jumps from one request's time to another's
    whenever noise swaps the two next to it; this estimate moves smoothly.
    Round times, a few alike samples, keep the plain median, which ignores
    an outlying round."""
    from scipy.special import betainc

    s = sorted(values)
    n = len(s)
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], s)))


def tail(values: list[float], design: int) -> tuple[float, float, int]:
    """Percentile 1 - 10/design of ``values``: (value, pct, samples beyond
    its nearest rank)."""
    q = (design - 10) / design
    i = max(0, -(-(design - 10) * len(values) // design) - 1)
    return quantile(values, q), 100.0 * q, len(values) - i - 1


# ---------------------------------------------------------------------------
# in-process workloads


def worker(workload: str, seed: int, out: Path, seconds: float = 0.0, traced: bool = False,
           setup_only: bool = False) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--out", str(out), "--seconds", repr(seconds)]
    argv += ["--trace"] * traced + ["--setup-only"] * setup_only
    proc = spawn(argv, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def fresh_rounds(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, start):
    """One worker per round, so call-history caches start cold in every round."""
    def one(i, traced):
        r = worker(workload, seed, tmp / f"round{i}.json", traced=traced)
        return dict(r["rounds"][0], setup_s=r["setup_s"], trace=r.get("trace"))

    plain, traced = run_rounds(one, seconds, trace, start)
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES and not trace:
        setups.append(worker(workload, seed, tmp / "setup.json", setup_only=True)["setup_s"])
    return plain, traced, setups, [r["trace"] for r in traced]


def shared_rounds(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, start):
    """Every round in one worker, after set-up samples in fresh ones; traced,
    an untraced worker and a traced one share the time."""
    setups = [worker(workload, seed, tmp / "setup.json", setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    left = seconds - (time.perf_counter() - start)
    if not trace:
        r = worker(workload, seed, tmp / "plain.json", left)
        return r["rounds"], [], setups + [r["setup_s"]], []
    plain = worker(workload, seed, tmp / "plain.json", left / 2)
    traced = worker(workload, seed, tmp / "traced.json", left / 2, traced=True)
    return plain["rounds"], traced["rounds"], setups, [traced["trace"]]


# ---------------------------------------------------------------------------
# cli-cold


def cli_round(seed: int, tmp: Path, idx: int, traced: bool) -> dict:
    import workloads as wl

    ref = wl.load_reference()
    raw, traces = [], []
    first = time.perf_counter()
    for i, argv in enumerate(wl.cli_requests(seed)):
        out_dir = tmp / f"r{idx}-{i}"
        trace_file = tmp / f"r{idx}-{i}.trace.json"
        env = child_env({"PERFBENCH_TRACE_OUT": str(trace_file)} if traced else None)
        t = time.perf_counter()
        proc = spawn([str(HERE / "cli_launch.py")] + argv + ["--out-dir", str(out_dir)],
                     env=env, capture_output=True, text=True)
        raw.append((argv, proc, out_dir, time.perf_counter() - t))
        if traced:
            traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
    wall = time.perf_counter() - first
    rows = []
    for argv, proc, out_dir, dt in raw:
        key = wl.cli_key(argv)
        try:
            problems = wl.check(key, wl.cli_observe(argv, proc.returncode, proc.stdout, out_dir),
                                ref)
        except Exception as exc:  # an output the oracle cannot read is wrong
            problems = [f"{type(exc).__name__}: {exc}; stderr: {proc.stderr[-300:]}"]
        rows.append({"key": key, "seconds": dt, "problems": problems})
    return {"wall_s": wall, "requests": rows, "trace": traces}


def cli_cold(seed: int, seconds: float, trace: bool, tmp: Path, start):
    setups = []
    for _ in range(CLI_SETUP_SAMPLES):
        t = time.perf_counter()
        proc = spawn(["-c", "import gausscvx.cli"])
        setups.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError("import gausscvx.cli failed")
    plain, traced = run_rounds(lambda i, t: cli_round(seed, tmp, i, t), seconds, trace, start)
    return plain, traced, setups, [s for r in traced for s in r["trace"]]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, plain: list, setups: list) -> dict:
    import workloads as wl

    samples = [row["seconds"] for r in plain for row in r["requests"]]
    tail_v, tail_pct, beyond = tail(samples, wl.TAIL_SAMPLES[workload])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    info = {"rounds": len(plain), "request_samples": len(samples),
            "request_tail_percentile": round(tail_pct, 1),
            "request_tail_beyond": beyond}
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "request_p50_s": (quantile(samples, 0.5), "s"),
        "request_tail_s": (tail_v, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, info


def per_layer(plain: list, traced: list, summaries: list) -> dict:
    import tracer as tr

    agg = tr.merge(summaries)
    per_round = {}
    for name, (value, unit) in tr.layer_metrics(agg).items():
        scale = 1.0 if unit == "ratio" else 1.0 / len(traced)
        per_round[name] = (value * scale, unit)
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    per_round["trace.overhead"] = (wall_traced / wall_plain - 1.0, "ratio")
    return per_round, agg


def print_shares(agg: dict) -> None:
    total = sum(agg["self_s"].values())
    print("self-time share per layer (traced rounds):")
    for layer, s in sorted(agg["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:20s} {s:10.4f} s  {100 * s / total:5.1f}%")


def machine() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": {"OMP_NUM_THREADS": nproc, "OPENBLAS_NUM_THREADS": nproc,
                            "MKL_NUM_THREADS": nproc}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}")
    if not (ROOT / "src" / "gausscvx" / "__init__.py").is_file():
        return fail(f"no src/gausscvx under {ROOT}; run from the root of a checkout")
    if not wl.REFERENCE.is_file():
        return fail(f"missing {wl.REFERENCE}")

    tmp = STATE / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        # compiles bytecode and warms the file cache; not part of any metric
        if spawn(["-c", "import gausscvx.cli"]).returncode != 0:
            return fail("import gausscvx.cli failed")
        runner = {"transform-paths": fresh_rounds,
                  "moment-suite": shared_rounds}.get(args.workload)
        start = time.perf_counter()
        if runner is None:
            plain, traced, setups, summaries = cli_cold(args.seed, args.seconds,
                                                        bool(args.trace), tmp, start)
        else:
            plain, traced, setups, summaries = runner(
                args.workload, args.seed, args.seconds, bool(args.trace), tmp, start)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows = [row for r in plain + traced for row in r["requests"]]
    failed = [row for row in rows if row["problems"]]
    for row in failed[:10]:
        print(f"FAILED {row['key']}: {'; '.join(row['problems'])[:400]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine()}))
    if args.trace:
        metrics, agg = per_layer(plain, traced, summaries)
        print_shares(agg)
        trace_dir = STATE / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = next((s["spans"] for s in summaries if s.get("spans")), [])
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"aggregate": agg, "spans": spans}), encoding="utf-8")
    else:
        metrics, info = end_to_end(args.workload, plain, setups)
        print(json.dumps(info))
    print(f"failed_share {len(failed)}/{len(rows)} = {len(failed) / len(rows):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(rows), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
