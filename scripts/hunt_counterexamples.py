#!/usr/bin/env python3
"""Counterexample hunt for quantile-style measure transforms.

Runs the scripted search families against each requested transform at a
chosen interpolation resolution, then re-checks every reported witness at
doubled resolution before believing it.  The even-quantile transform and the
deliberately mis-glued piecewise transform are expected to produce confirmed
witnesses; the Gaussian quantile itself should come back clean.
"""

import argparse
import json
from pathlib import Path

from gausscvx import verify as vf

SEARCH_TRANSFORMS = ("psi_inv", "phi_inv", "bad_func")


def hunt(transform: str, n: int, n_t: int) -> dict:
    family_key = transform if transform in ("phi_inv", "bad_func") else "phi_inv"
    fam = vf.counterexample_family(n, family_key)
    out = vf.counterexample_search(transform, fam, n_t=n_t)
    rec = {
        "transform": transform,
        "n": n,
        "n_t": n_t,
        "pairs_scanned": out["pairs_scanned"],
        "message": out["message"],
        "witness": out["witness"],
        "unconfirmed": out["unconfirmed"],
    }
    if out["witness"] is not None:
        idx = out["witness"]["pair_index"]
        rep = vf.concavity_check(transform, *fam[idx], n_t=2 * n_t)
        rec["recheck"] = {
            "n_t": 2 * n_t,
            "verdict": rep.verdict,
            "worst_second_diff": rep.max_second_diff,
        }
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--n-t", type=int, default=33)
    ap.add_argument("--transforms", nargs="+", default=list(SEARCH_TRANSFORMS),
                    choices=SEARCH_TRANSFORMS)
    ap.add_argument("--out", default="artifacts/counterexamples.json")
    args = ap.parse_args(argv)

    records = []
    for name in args.transforms:
        rec = hunt(name, args.n, args.n_t)
        records.append(rec)
        found = rec["witness"] is not None
        tag = "WITNESS" if found else "clean"
        extra = ""
        if found:
            extra = (f" second_diff={rec['witness']['second_diff']:.3e}"
                     f" recheck={rec['recheck']['verdict']}")
        print(f"{name:>8}: {tag} ({rec['pairs_scanned']} pairs){extra}")

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(records, indent=2, default=float))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
