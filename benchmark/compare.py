#!/usr/bin/env python3
"""Compare two sets of qrdtm_bench results by the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE NEW [--spec BENCHMARK.json]

BASE and NEW are directories (or single files) of results written by
`qrdtm_bench --out FILE`.  For every workload and end-to-end metric:

  * simulated-clock metrics are deterministic per seed, so on a seed present
    on both sides any change is reported as `sim-drift` (and as `regression`
    when it is worse than the bound);
  * host-clock metrics compare the medians of all results per side: `better`
    only when every NEW value beats every BASE value, else `unresolved` when
    either side's quartile spread (IQR / median) exceeds the bound, else
    `regression` when the NEW median is worse by more than the bound.

Exit status 1 when a row regressed or a NEW result failed its checks.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    results = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        results.setdefault(r["workload"], []).append(r)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base, new, better):
    """Relative change of new against base, positive when new is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_sim(base, new, metric):
    """Rows on shared seeds; None when the sides share no seed."""
    by_seed = lambda rs: {r["seed"]: r["end_to_end"][metric["name"]]["value"] for r in rs}
    b, n = by_seed(base), by_seed(new)
    shared = sorted(set(b) & set(n))
    if not shared:
        return None
    drift = [s for s in shared if b[s] != n[s]]
    worst = max(worse_by(b[s], n[s], metric["better"]) for s in shared)
    if not drift:
        status = "same"
    elif worst > metric["bound"]:
        status = "regression"
    else:
        status = "sim-drift"
    return b[shared[0]], n[shared[0]], worst, status


def compare_host(base, new, metric):
    name = metric["name"]
    bv = [r["end_to_end"][name]["value"] for r in base]
    nv = [r["end_to_end"][name]["value"] for r in new]
    bq, nq = quartiles(bv), quartiles(nv)
    spread = max((bq[2] - bq[0]) / bq[1] if bq[1] else 0, (nq[2] - nq[0]) / nq[1] if nq[1] else 0)
    worse = worse_by(bq[1], nq[1], metric["better"])
    if all(worse_by(b, n, metric["better"]) < 0 for b in bv for n in nv):
        status = "better"
    elif spread > metric["bound"]:
        status = "unresolved"
    elif worse > metric["bound"]:
        status = "regression"
    else:
        status = "unchanged"
    return bq[1], nq[1], worse, status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)

    failed = False
    print(f"{'workload':14} {'metric':18} {'base':>12} {'new':>12} {'worse':>8} {'bound':>6}  status")
    for w in (x["name"] for x in spec["workloads"]):
        if w not in base or w not in new:
            print(f"{w:14} missing on {'BASE' if w not in base else 'NEW'} side")
            continue
        for r in new[w]:
            if not r["correct"] or r["failed"]:
                print(f"{w:14} seed {r['seed']}: checks failed {r['checks']}")
                failed = True
        for metric in spec["end_to_end"]:
            row = None
            if new[w][0]["end_to_end"][metric["name"]]["clock"] == "sim":
                row = compare_sim(base[w], new[w], metric)
            if row is None:
                row = compare_host(base[w], new[w], metric)
            b, n, worse, status = row
            failed = failed or status == "regression"
            print(f"{w:14} {metric['name']:18} {b:12.6g} {n:12.6g} {worse:+8.2%} "
                  f"{metric['bound']:6.0%}  {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
