#!/usr/bin/env python3
"""Print the cross-PR bench trajectory from the committed snapshots.

Usage: bench_trajectory.py [snapshot.json ...]

With no arguments, reads the committed snapshots in the repository root
(the directory above this script): the per-PR history `BENCH_PR*.json`,
ordered by PR number, then `BENCH.json`, the current baseline every later
PR regenerates in place (column `head`). Each snapshot is one
machine-readable bench report (`cargo bench -p slin-bench --bench report
-- --json`).

Unlike `bench_threshold.py` — which *gates* a build against the latest
committed baseline — this report is **non-gating**: it exists to make the
across-PR trend visible (did the partition speedups keep their ratio as
the engine grew? did memoisation keep firing? how did the streaming
throughput *shape* move?). Five tables are printed:

* **B5** — partitioned/monolithic node-count ratios per scenario per PR
  (pinned seeds, deterministic);
* **B4c** — engine counters (nodes, memo_hits) per scenario per PR
  (deterministic);
* **B6** — streaming throughput per scenario per PR, normalised to each
  report's own fastest row (the machine-independent shape), plus the
  deterministic fallback/GC columns;
* **B6h** — the epoch-GC monitor on hostile never-quiescent streams:
  the retained-memory proxy (peak multiset nodes / peak live configs,
  deterministic) and p99 ingest latency (wall-clock, indicative) per
  window size per PR, from PR 6 onward;
* **B8** — the multi-tenant daemon pipeline: throughput share per
  scenario per PR (normalised to each report's fastest B8 row), plus the
  latest queue-depth peak vs the configured bound and shed counters,
  from PR 7 onward.

Exit status is 0 unless a snapshot cannot be parsed.
"""

import glob
import json
import os
import re
import sys


def pr_number(path):
    m = re.search(r"BENCH_PR(\d+)\.json$", os.path.basename(path))
    if m:
        return int(m.group(1))
    # `BENCH.json`, the current baseline, sorts after the numbered history.
    return float("inf") if os.path.basename(path) == "BENCH.json" else -1


def load_snapshots(paths):
    snaps = []
    for path in sorted(paths, key=pr_number):
        with open(path) as f:
            n = pr_number(path)
            snaps.append(("head" if n == float("inf") else f"PR{n}", json.load(f)))
    return snaps


def table(title, header, rows):
    print(f"\n{title}")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"  {line}")
    print(f"  {'-' * len(line)}")
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(value, spec):
    return format(value, spec) if value is not None else "-"


def scenario_sweep(snaps, section):
    """All scenario names of `section`, in first-appearance order."""
    seen = []
    for _, snap in snaps:
        for row in snap.get(section, []):
            if row["scenario"] not in seen:
                seen.append(row["scenario"])
    return seen


def by_scenario(snap, section):
    return {row["scenario"]: row for row in snap.get(section, [])}


def b5_table(snaps):
    names = [name for name, _ in snaps]
    rows = []
    for scenario in scenario_sweep(snaps, "b5_partition"):
        cells = [scenario]
        for _, snap in snaps:
            row = by_scenario(snap, "b5_partition").get(scenario)
            cells.append(fmt(row and row["node_ratio"], ".2f"))
        latest = by_scenario(snaps[-1][1], "b5_partition").get(scenario)
        agree = "yes" if latest and latest.get("verdicts_agree") else ("-" if not latest else "NO")
        cells.append(agree)
        rows.append(cells)
    table(
        "B5 — partition node-ratio trajectory (mono nodes / partitioned nodes; higher is better)",
        ["scenario"] + [f"{n} ratio" for n in names] + ["verdicts agree (latest)"],
        rows,
    )


def b4c_table(snaps):
    names = [name for name, _ in snaps]
    rows = []
    for scenario in scenario_sweep(snaps, "b4c_checker_stats"):
        cells = [scenario]
        for _, snap in snaps:
            row = by_scenario(snap, "b4c_checker_stats").get(scenario)
            if row is None:
                cells.append("-")
            else:
                stats = row["stats"]
                cells.append(f"{stats['nodes']}/{stats['memo_hits']}")
        rows.append(cells)
    table(
        "B4c — engine counter trajectory (nodes/memo_hits per scenario)",
        ["scenario"] + [f"{n} n/hits" for n in names],
        rows,
    )


def b6_table(snaps):
    withb6 = [(n, s) for n, s in snaps if s.get("b6_streaming")]
    if not withb6:
        print("\nB6 — no streaming rows in any snapshot yet")
        return
    names = [name for name, _ in withb6]
    rows = []
    for scenario in scenario_sweep(withb6, "b6_streaming"):
        cells = [scenario]
        for _, snap in withb6:
            b6 = snap["b6_streaming"]
            top = max((r["events_per_sec"] for r in b6), default=0.0)
            row = by_scenario(snap, "b6_streaming").get(scenario)
            if row is None or top <= 0.0:
                cells.append("-")
            else:
                share = row["events_per_sec"] / top
                cells.append(f"{share:.3f}")
        latest = by_scenario(withb6[-1][1], "b6_streaming").get(scenario)
        cells.append(fmt(latest and latest["fallback_searches"], "d"))
        cells.append(fmt(latest and latest["retired_events"], "d"))
        rows.append(cells)
    table(
        "B6 — streaming throughput-share trajectory (events/sec normalised to each "
        "report's fastest row)",
        ["scenario"]
        + [f"{n} share" for n in names]
        + ["fallbacks (latest)", "retired (latest)"],
        rows,
    )


def b6h_table(snaps):
    withb6h = [(n, s) for n, s in snaps if s.get("b6h_hostile")]
    if not withb6h:
        print("\nB6h — no hostile-stream rows in any snapshot yet")
        return
    names = [name for name, _ in withb6h]
    rows = []
    for scenario in scenario_sweep(withb6h, "b6h_hostile"):
        cells = [scenario]
        for _, snap in withb6h:
            row = by_scenario(snap, "b6h_hostile").get(scenario)
            if row is None:
                cells.extend(["-", "-"])
            else:
                cells.append(f"{row['peak_multiset_nodes']}/{row['peak_live_configs']}")
                cells.append(f"{row['p99_ingest_us'] / 1000:.1f}")
        latest = by_scenario(withb6h[-1][1], "b6h_hostile").get(scenario)
        cells.append(fmt(latest and latest["epoch_cuts"], "d"))
        cells.append(fmt(latest and latest["lossy_cuts"], "d"))
        rows.append(cells)
    header = ["scenario"]
    for n in names:
        header.extend([f"{n} mem (ms/cfg)", f"{n} p99 ms"])
    header.extend(["cuts (latest)", "lossy (latest)"])
    table(
        "B6h — hostile never-quiescent stream trajectory (memory proxy is "
        "deterministic; p99 is wall-clock)",
        header,
        rows,
    )


def b8_table(snaps):
    withb8 = [(n, s) for n, s in snaps if s.get("b8_multitenant")]
    if not withb8:
        print("\nB8 — no multi-tenant daemon rows in any snapshot yet")
        return
    names = [name for name, _ in withb8]
    rows = []
    for scenario in scenario_sweep(withb8, "b8_multitenant"):
        cells = [scenario]
        for _, snap in withb8:
            b8 = snap["b8_multitenant"]
            top = max((r["events_per_sec"] for r in b8), default=0.0)
            row = by_scenario(snap, "b8_multitenant").get(scenario)
            if row is None or top <= 0.0:
                cells.append("-")
            else:
                share = row["events_per_sec"] / top
                cells.append(f"{share:.3f}")
        latest = by_scenario(withb8[-1][1], "b8_multitenant").get(scenario)
        if latest is None:
            cells.extend(["-", "-", "-"])
        else:
            cells.append(f"{latest['queue_depth_peak']}/{latest['queue_capacity']}")
            cells.append(fmt(latest["sheds"], "d"))
            ok = "yes" if latest.get("ok") else "NO"
            cells.append(ok)
        rows.append(cells)
    table(
        "B8 — multi-tenant daemon throughput-share trajectory (events/sec "
        "normalised to each report's fastest row)",
        ["scenario"]
        + [f"{n} share" for n in names]
        + ["peak q/cap (latest)", "sheds (latest)", "ok (latest)"],
        rows,
    )


def main() -> int:
    paths = sys.argv[1:]
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = glob.glob(os.path.join(root, "BENCH_PR*.json"))
        paths += glob.glob(os.path.join(root, "BENCH.json"))
    if not paths:
        print("no BENCH*.json snapshots found")
        return 0
    try:
        snaps = load_snapshots(paths)
    except (OSError, json.JSONDecodeError) as e:
        print(f"failed to load snapshots: {e}")
        return 2
    print(
        "bench trajectory across committed snapshots: "
        + ", ".join(name for name, _ in snaps)
    )
    b5_table(snaps)
    b4c_table(snaps)
    b6_table(snaps)
    b6h_table(snaps)
    b8_table(snaps)
    print("\n(non-gating report; regression gating lives in ci/bench_threshold.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
