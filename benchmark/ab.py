#!/usr/bin/env python3
"""Interleaved A/B comparison of two benchmark driver binaries.

  python3 benchmark/ab.py PARENT_DRIVER CHANGE_DRIVER [--pairs 10]
      [--seed 2] [--workload W ...]

Build each side's driver with benchmark/run.py in its own checkout
(build/benchmark/driver/garibaldi_bench).  For every workload the
script runs --pairs pairs of untraced reps, alternating which side runs
first, and reports for each end-to-end metric both sides' medians and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

  improved    the change won >= 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  regressed   the change's median is worse by more than the bound
  unresolved  the parent's own quartile spread exceeds the bound and
              not every change rep beats every parent rep, or the
              change failed more reps than the parent
  unchanged   otherwise

Modelled metrics are exact: their verdict is identical or changed.
Bounds come from BENCHMARK.json; results go to build/benchmark/ab.json.
"""

import argparse
import statistics
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (benchmark/run.py)

MIN_PAIRS = 10
WIN_SHARE = 0.9


def rep_metrics(rec):
    m = run.end_to_end(rec)
    m.update({k: v for k, v in run.modelled(rec).items()
              if k in run.E2E_MODELLED})
    return m


def verdict(a, b, better, bound, fails_a, fails_b):
    """a, b: per-pair values of the parent and the change."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4)
    gain = sign * (med_b - med_a)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if fails_b > fails_a:
        v = "unresolved"
    elif wins >= WIN_SHARE * len(a) and gain > q3 - q1:
        v = "improved"
    elif (q3 - q1) > bound * abs(med_a) and not all_better:
        v = "unresolved"
    elif -gain > bound * abs(med_a):
        v = "regressed"
    else:
        v = "unchanged"
    return v, wins / len(a)


def quartiles(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3}


def compare(workload, drivers, pairs, seed, spec):
    recs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            rec = run.run_rep(workload, seed, False, driver=drivers[side])
            rec["problems"] = run.rep_problems(rec)
            recs[side].append(rec)
    # A pair counts only when both of its reps passed.
    ok = [i for i in range(pairs)
          if not recs["parent"][i]["problems"]
          and not recs["change"][i]["problems"]]
    fails = {s: sum(1 for r in recs[s] if r["problems"]) for s in recs}
    if len(ok) < 2:
        raise run.BenchError(f"{workload}: fewer than 2 pairs passed")
    vals = {s: [rep_metrics(recs[s][i]) for i in ok] for s in recs}
    digests = {s: sorted({recs[s][i]["digest"] for i in ok}) for s in recs}
    rows = {}
    for m in spec["end_to_end"]:
        a = [v[m["name"]] for v in vals["parent"]]
        b = [v[m["name"]] for v in vals["change"]]
        v, share = verdict(a, b, m["better"], m["bound"], fails["parent"],
                           fails["change"])
        rows[m["name"]] = {"parent": quartiles(a), "change": quartiles(b),
                           "won": share, "verdict": v, "unit": m["unit"],
                           "bound": m["bound"]}
    for name in run.E2E_MODELLED:
        a = [v[name] for v in vals["parent"]]
        b = [v[name] for v in vals["change"]]
        rows[name] = {"parent": quartiles(a), "change": quartiles(b),
                      "won": None,
                      "verdict": "identical" if set(a) == set(b)
                      and len(set(a)) == 1 else "changed"}
    return {"pairs": len(ok), "failed": fails, "digests": digests,
            "metrics": rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent commit's garibaldi_bench")
    ap.add_argument("change", help="change's garibaldi_bench")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=2,
                    help="workload seed (2 is held out for claims)")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be >= {MIN_PAIRS}")
    spec = run.load_spec()
    drivers = {"parent": args.parent, "change": args.change}
    out = {"seed": args.seed, "drivers": drivers, "workloads": {}}
    try:
        for w in args.workload or run.WORKLOADS:
            res = compare(w, drivers, args.pairs, args.seed, spec)
            out["workloads"][w] = res
            same = res["digests"]["parent"] == res["digests"]["change"]
            print(f"== {w}: {res['pairs']} pairs, failed reps "
                  f"{res['failed']}, simulated outputs "
                  f"{'identical' if same else 'DIFFER'} ==")
            for name, r in res["metrics"].items():
                p, c = r["parent"], r["change"]
                won = "" if r["won"] is None else f"won {r['won']:.0%}"
                print(f"  {name:18s} parent {run.fmt(p['median'])} "
                      f"[{run.fmt(p['q1'])}, {run.fmt(p['q3'])}]  change "
                      f"{run.fmt(c['median'])} [{run.fmt(c['q1'])}, "
                      f"{run.fmt(c['q3'])}]  {won:8s} {r['verdict']}")
    except run.BenchError as e:
        run.log(f"ab: {e}")
        return 2
    run.write_json(run.OUT / "ab.json", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
