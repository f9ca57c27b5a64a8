#!/usr/bin/env python3
"""Compare current benchmark numbers against a committed baseline.

Runs the baseline's `command` (default: `cargo bench --offline --bench
perf_microbench`), parses the `bench: <name> ... <median> ns/iter` lines,
and prints a per-benchmark speedup table against the baseline JSON. Two
kinds of gate can be declared in the baseline file:

- `speedup_gate`: {"benches": [...], "min_speedup": X} — each listed
  benchmark's current median must be at least X times faster than the
  committed baseline median (regression gate).
- `ratio_gate`: {"pairs": [[slow, fast], ...], "min_ratio": X} — within
  the *current* run, the `slow` benchmark must be at least X times the
  `fast` one. This gates a relative property (e.g. the fluid flow model
  being >= 10x faster than the round model at scale) independently of the
  machine the benches run on.

When `$GITHUB_STEP_SUMMARY` is set (GitHub Actions), the same comparison is
appended there as a markdown table so the numbers are readable from the run
page without expanding the log.

Usage:
    python3 scripts/bench_compare.py                # hot-path baseline
    python3 scripts/bench_compare.py --baseline BENCH_scale.json
    python3 scripts/bench_compare.py --log out.txt  # compare a saved log
    python3 scripts/bench_compare.py --update       # rewrite the baseline
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_hotpath.json"
DEFAULT_COMMAND = "cargo bench --offline --bench perf_microbench"
BENCH_LINE = re.compile(r"^bench: (?P<name>\S+) \.\.\. (?P<median>[0-9.]+) ns/iter")


def run_benches(command: str) -> str:
    cmd = shlex.split(command)
    print(f"$ {command}", file=sys.stderr)
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench command failed with exit code {proc.returncode}")
    return proc.stdout


def parse_log(text: str) -> dict:
    results = {}
    for line in text.splitlines():
        m = BENCH_LINE.match(line.strip())
        if m:
            results[m.group("name")] = float(m.group("median"))
    if not results:
        sys.exit("no `bench: ... ns/iter` lines found in the bench output")
    return results


def check_speedup_gate(baseline: dict, current: dict, rows: list) -> list:
    """Prints the baseline-vs-current table; returns gate failures.

    Each printed comparison is also appended to `rows` as
    (benchmark, baseline, current, speedup-or-None, gate-label) for the
    markdown step summary.
    """
    gate = baseline.get("speedup_gate", {})
    min_speedup = float(gate.get("min_speedup", 1.0))
    gated = {name: min_speedup for name in gate.get("benches", [])}

    width = max(len(n) for n in baseline["benches"])
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'speedup':>8}")
    failures = []
    for name, base in baseline["benches"].items():
        cur = current.get(name)
        gate_label = f">= {gated[name]:.1f}x" if name in gated else ""
        if cur is None:
            print(f"{name:<{width}}  {base:>12.1f}  {'MISSING':>12}  {'-':>8}")
            rows.append((name, base, None, None, gate_label))
            if name in gated:
                failures.append(f"{name}: missing from bench output")
            continue
        speedup = base / cur
        marker = f"  [gate {gate_label}]" if name in gated else ""
        if name in gated and speedup < gated[name]:
            failures.append(
                f"{name}: {speedup:.2f}x < required {gated[name]:.1f}x"
            )
        print(f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  {speedup:>7.2f}x{marker}")
        rows.append((name, base, cur, speedup, gate_label))

    for name in sorted(set(current) - set(baseline["benches"])):
        print(f"{name:<{width}}  {'(new)':>12}  {current[name]:>12.1f}  {'-':>8}")
        rows.append((name, None, current[name], None, ""))
    return failures


def check_ratio_gate(baseline: dict, current: dict, ratio_rows: list) -> list:
    """Checks slow/fast pairs within the current run; returns failures.

    Each line prints the absolute medians next to the ratio so a failing
    (or barely passing) gate can be read without re-running the bench; the
    same tuples land in `ratio_rows` as (label, slow, fast, slow-val,
    fast-val, ratio, min).
    """
    gate = baseline.get("ratio_gate")
    if not gate:
        return []
    failures = []
    min_ratio = float(gate.get("min_ratio", 1.0))
    label = gate.get("label", "ratio gate")
    print(f"\n{label} (within this run, required >= {min_ratio:.1f}x):")
    for slow, fast in gate.get("pairs", []):
        missing = [n for n in (slow, fast) if n not in current]
        if missing:
            failures.append(f"{slow} / {fast}: missing {', '.join(missing)}")
            print(f"  {slow} / {fast}: MISSING")
            ratio_rows.append((label, slow, fast, None, None, None, min_ratio))
            continue
        ratio = current[slow] / current[fast]
        ok = ratio >= min_ratio
        print(
            f"  {slow} / {fast}: {ratio:.2f}x {'ok' if ok else 'FAIL'}"
            f"  ({current[slow]:.1f} / {current[fast]:.1f})"
        )
        ratio_rows.append(
            (label, slow, fast, current[slow], current[fast], ratio, min_ratio)
        )
        if not ok:
            failures.append(
                f"{slow} / {fast}: {ratio:.2f}x < required {min_ratio:.1f}x"
            )
    return failures


def write_step_summary(baseline_name: str, rows: list, ratio_rows: list,
                       failures: list) -> None:
    """Appends the comparison as markdown to $GITHUB_STEP_SUMMARY, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return

    def fmt(value, suffix=""):
        return f"{value:,.1f}{suffix}" if value is not None else "—"

    lines = [f"### Bench gate: `{baseline_name}`", ""]
    if rows:
        lines += ["| benchmark | baseline | current | speedup | gate |",
                  "|---|---:|---:|---:|---|"]
        for name, base, cur, speedup, gate_label in rows:
            lines.append(
                f"| `{name}` | {fmt(base)} | {fmt(cur)} | {fmt(speedup, 'x')} "
                f"| {gate_label or ''} |"
            )
        lines.append("")
    if ratio_rows:
        lines += ["| ratio gate | slow | fast | ratio | required |",
                  "|---|---:|---:|---:|---|"]
        for label, slow, fast, sval, fval, ratio, min_ratio in ratio_rows:
            lines.append(
                f"| {label}: `{slow}` / `{fast}` | {fmt(sval)} | {fmt(fval)} "
                f"| {fmt(ratio, 'x')} | >= {min_ratio:.1f}x |"
            )
        lines.append("")
    lines.append("**FAIL**: " + "; ".join(failures) if failures else "**OK**")
    lines.append("")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                    help="baseline JSON file (default: BENCH_hotpath.json)")
    ap.add_argument("--log", help="parse a saved bench log instead of running cargo bench")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline file with the current numbers")
    args = ap.parse_args()

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = REPO_ROOT / baseline_path
    baseline = json.loads(baseline_path.read_text())

    if args.log:
        try:
            text = Path(args.log).read_text()
        except OSError as err:
            sys.exit(f"cannot read --log file: {err}")
    else:
        text = run_benches(baseline.get("command", DEFAULT_COMMAND))
    current = parse_log(text)

    if args.update:
        baseline["benches"] = {k: current.get(k, v) for k, v in baseline["benches"].items()}
        for name, median in current.items():
            baseline["benches"].setdefault(name, median)
        baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"updated {baseline_path}")
        return 0

    rows, ratio_rows = [], []
    failures = check_speedup_gate(baseline, current, rows)
    failures += check_ratio_gate(baseline, current, ratio_rows)
    write_step_summary(baseline_path.name, rows, ratio_rows, failures)

    if failures:
        print("\nFAIL: benchmark gate not met:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: all gated benchmarks meet their requirements.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
