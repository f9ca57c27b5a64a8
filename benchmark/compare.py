#!/usr/bin/env python3
"""Compare two results files of benchmark/run.sh (`--out`): B against A.

    benchmark/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, the run-to-run
spread, the bound BENCHMARK.json fixes for the metric, and a verdict:

  ok          B is not worse than A by more than the bound
  worse       B is worse than A by more than the bound
  unresolved  the spread within A or B is wider than the bound, so the
              medians cannot settle it (unless every sample of B is
              better than every sample of A, which is `ok`)

Spread is the distance between the first and third quartile of a
metric's per-pass samples over their median, the larger of the two files;
simulated metrics are exact per seed and have none. Then everything that
must repeat exactly for a seed - digests, viewer counts, shape violations,
every count - is checked for equality.

Exit status: 0 all ok, 1 something worse or unequal, 2 only unresolved.
Swap the arguments to check the other direction.
"""

import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(metric):
    samples = metric.get("samples") or []
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def verdict(a, b, better, bound):
    """`a`, `b`: metric objects of the two files."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    wide = max(spread(a), spread(b))
    if wide > bound:
        sa = a.get("samples") or [a["value"]]
        sb = b.get("samples") or [b["value"]]
        all_better = max(sign * v for v in sb) < min(sign * v for v in sa)
        return ("ok" if all_better else "unresolved"), worse_by, wide
    return ("worse" if worse_by > bound else "ok"), worse_by, wide


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    a_doc, b_doc = load(argv[1]), load(argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    contract = load(os.path.join(here, "..", "BENCHMARK.json"))
    if a_doc["meta"] != b_doc["meta"]:
        print("note: the two files were not made the same way:")
        print("  A:", json.dumps(a_doc["meta"]))
        print("  B:", json.dumps(b_doc["meta"]))
    a_by_name = {w["name"]: w for w in a_doc["workloads"]}
    b_by_name = {w["name"]: w for w in b_doc["workloads"]}

    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    unequal = []
    print(f"{'workload':<17} {'metric':<19} {'A':>13} {'B':>13} {'B vs A':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, a in a_by_name.items():
        b = b_by_name.get(name)
        if b is None:
            unequal.append(f"{name}: missing from B")
            continue
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            ma, mb = a["end_to_end"].get(metric), b["end_to_end"].get(metric)
            if ma is None or mb is None:
                unequal.append(f"{name}: {metric} missing")
                continue
            what, worse_by, wide = verdict(ma, mb, spec["better"], spec["bound"])
            counts[what] += 1
            print(f"{name:<17} {metric:<19} {ma['value']:>13.6g} {mb['value']:>13.6g} "
                  f"{worse_by:>+8.1%} {wide:>7.1%} {spec['bound']:>6.0%}  {what}")
        # Exact per seed: digests, viewers, shape violations, counts.
        for key in ("exact", "viewers_attempted", "viewers_failed"):
            if a.get(key) != b.get(key):
                unequal.append(f"{name}: `{key}` differs")
        for metric, ma in a.get("per_layer", {}).items():
            mb = b.get("per_layer", {}).get(metric)
            if ma["unit"] == "count" and (mb is None or mb["value"] != ma["value"]):
                unequal.append(f"{name}: count {metric}: {ma['value']} vs "
                               f"{mb['value'] if mb else 'missing'}")
        for side, w in (("A", a), ("B", b)):
            for failure in w["check_failures"] + w.get("traced_check_failures", []):
                unequal.append(f"{name}: {side} failed a check: {failure}")

    print(f"\n{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    for line in unequal:
        print("NOT EQUAL:", line)
    if not unequal:
        print("digests, viewer counts, shape violations and counts are identical")
    if counts["worse"] or unequal:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
