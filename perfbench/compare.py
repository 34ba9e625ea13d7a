#!/usr/bin/env python3
"""Compare two perfbench result sets, metric by metric and workload by workload.

    python3 perfbench/run.py --repeat 10 --out base.json     # on the parent
    python3 perfbench/run.py --repeat 10 --out new.json      # on the change
    python3 perfbench/compare.py base.json new.json

Each result set holds, per workload and end-to-end metric, the values of
repeated runs with their median and quartiles.  A metric's noise band is
the wider of the two sets' spreads (interquartile range over median).  The
verdict for each pair:

  unresolved  the noise band is wider than the metric's bound in
              BENCHMARK.json, and the runs do not all fall on one side;
  REGRESSED   the median got worse by more than the bound;
  better      the median improved by more than the noise band;
  flat        otherwise.

Exits 1 when any metric regressed.  Claims of a gain need more than this
table: see the choosing-metrics rules in perfbench/README.md.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(base, new, better, bound):
    """Returns (signed relative change, noise band, verdict); a positive
    change is always a change for the worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    noise = max(base["spread"], new["spread"])
    if noise > bound:
        b, n = base["values"], new["values"]
        lower_won = max(n) < min(b)
        higher_won = min(n) > max(b)
        if (lower_won, higher_won)[better == "higher"]:
            return change, noise, "better (all runs)"
        if (higher_won, lower_won)[better == "higher"]:
            return change, noise, "REGRESSED (all runs)"
        return change, noise, "unresolved"
    if change > bound:
        return change, noise, "REGRESSED"
    if change < -noise:
        return change, noise, "better"
    return change, noise, "flat"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.spec) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for label, doc in (("base", base), ("new", new)):
        prov = doc.get("provenance") or {}
        print("%-4s %s nproc=%s cpu=%r build=%s sha=%s digest=%s runs=%s seconds=%s" %
              (label, prov.get("host"), prov.get("nproc"), prov.get("cpu_model"),
               prov.get("build_type"), prov.get("git_sha"), prov.get("source_digest"),
               doc.get("runs"), doc.get("seconds")))
    print("%-6s %-12s %12s %12s %8s %7s %6s  %s" %
          ("work", "metric", "base", "new", "change", "noise", "bound", "verdict"))
    regressed = False
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        for name in sorted(set(base["workloads"][w]) & set(new["workloads"][w])):
            b, n = base["workloads"][w][name], new["workloads"][w][name]
            if name not in spec:
                # Reported but unbounded (op_p50_us, op_p99_us): shown, never
                # judged.
                print("%-6s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %6s  info" %
                      (w, name, b["median"], n["median"],
                       100 * (n["median"] - b["median"]) / b["median"],
                       100 * max(b["spread"], n["spread"]), "-"))
                continue
            change, noise, v = verdict(b, n, spec[name]["better"], spec[name]["bound"])
            regressed = regressed or v.startswith("REGRESSED")
            print("%-6s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s" %
                  (w, name, b["median"], n["median"], 100 * change, 100 * noise,
                   100 * spec[name]["bound"], v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
