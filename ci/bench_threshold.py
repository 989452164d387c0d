#!/usr/bin/env python3
"""Fail CI when the bench report regresses against the committed baseline.

Usage: bench_threshold.py <baseline.json> <current.json>

Both files are `slin-bench/v2` reports (see `cargo bench -p slin-bench
--bench report -- --json`, which writes BENCH.json). The sections checked:

B5 (partition speedups) — pure node counts (pinned seeds, no timing), so
regressions are deterministic, not flaky:
  * every row must keep byte-identical partitioned/monolithic verdicts;
  * on every baseline row, each side's node count (monolithic and
    partitioned) may exceed its own baseline by at most 20%. The sides are
    gated separately, not through their ratio: a kernel change that makes
    the *monolithic* search cheaper shrinks the ratio while both counts
    fall, and must not read as a regression;
  * rows new to the current report are allowed.

B4c (engine counters) — nodes / memo_hits / memo_entries / pruned deltas
  are printed per scenario; a scenario that stops verifying, or whose node
  count exceeds its baseline by more than 20%, fails the build.

B6 (streaming monitor throughput) — events/sec is wall-clock and varies
across machines, so rows are compared *normalised by the report's own
fastest row*: the keys × skew shape of the throughput curve is
machine-independent to first order. A row fails the build only when BOTH
its normalised share AND its absolute events/sec fall below 80% of the
baseline (the second condition keeps a genuine speedup in the fastest row
— which lowers every other row's share — from reading as a regression),
and whenever its streams stopped verifying (`ok = false`). The
deterministic B6 columns (fallback_searches, retired_events) are printed
for trend visibility.

B6h (epoch-GC monitor on hostile never-quiescent streams) — the window
sweep's work and memory columns are deterministic under the pinned seeds,
so they are gated hard:
  * every row must verify (`ok`), with zero lossy cuts and a non-zero
    epoch-cut / retirement count (the never-quiescent GC actually ran);
  * amortised work must stay bounded: search_nodes per event is capped
    absolutely, and the largest window's per-event work may exceed the
    smallest's by at most a fixed factor (the flat-in-window-size check —
    a stalled GC shows up as runaway nodes at the big windows);
  * the retained-memory proxy (peak_multiset_nodes) must stay linear in
    the window across the sweep (O(window + alphabet) memory);
  * against a baseline that has B6h rows, search_nodes and
    peak_multiset_nodes may regress by at most 20% per row;
  * p99 ingest latency is wall-clock, so it is only sanity-capped, far
    above normal jitter.

B8 (multi-tenant daemon pipeline) — end-to-end throughput is wall-clock,
so it uses the same dual-condition gate as B6 (a row fails only when both
its normalised share and its absolute events/sec fall >20% below the
baseline). The health columns are gated hard:
  * every row must verify (`ok` — no violations/ill-formed streams, no
    events lost, queue bound held during the run);
  * queue_depth_peak must never exceed the row's queue_capacity (the
    bounded-queue invariant);
  * the under-provisioned `daemon shed` scenario must report sheds > 0
    (backpressure stays observable), and the provisioned scenarios must
    report sheds == 0 (no spurious shedding).

B10 (switch-certified keyed checking on phase traces) — pure node counts
under pinned seeds, gated hard:
  * every row must keep byte-identical keyed/monolithic verdicts, in both
    the batch-partitioned and the sharded-streaming form;
  * every row must report **zero fallbacks** — the `slin-cert/v2`
    switch-independence certificate is statically proven, so the runtime
    must never abandon the keyed decomposition on a classifiable phase
    trace (a non-zero count means the certificate plumbing broke);
  * every multi-key `faulty` row must keep an absolute node-count
    reduction ratio above 2x (refutation localized to the violating
    class), plus the same per-side 20% node ceilings as B5.

B9 (observability tax + witness-archive bound) — each row reports the
wall-clock ratio of an instrumented (full StackObserver) ingest loop to a
no-op-observer loop over identical pinned streams, as the median of
adjacently-paired per-rep ratios (pairing cancels clock drift, the median
kills scheduler outliers), so the ratio is machine-independent to first
order:
  * the observer hooks must stay out of the hot path's way: a row fails
    when overhead_frac exceeds the 5% budget AND the hooks cost more than
    a fixed number of nanoseconds per event (the fraction alone also rises
    when ingest itself gets cheaper under an unchanged observer);
  * rows with archival off must report no archived events and no
    reconstruction (archival really is opt-in);
  * the archival row must reconstruct (the deep archive held every
    retired window) while keeping archived_events inside the
    O(shards · depth · window) event bound.
"""

import json
import sys

ALLOWED_REGRESSION = 0.20


def over_ceiling(name, what, value, base, failures):
    """Fails `name` when `value` exceeds its baseline by more than the
    allowed regression; returns whether it did."""
    ceiling = (1.0 + ALLOWED_REGRESSION) * base
    if base > 0 and value > ceiling:
        failures.append(
            f"{name}: {what} {value} exceeds {ceiling:.0f} "
            f"(baseline {base}, >{ALLOWED_REGRESSION:.0%} regression)"
        )
        return True
    return False


def check_side_nodes(name, row, base, failures):
    """Gates each side's node count against its own baseline; returns the
    row's status for the printed table."""
    over = [
        over_ceiling(name, f"{side} nodes", row[side]["nodes"], base[side]["nodes"], failures)
        for side in ("mono", "part")
    ]
    return "REGRESSED" if any(over) else "ok"


def side_nodes(row, base):
    return (
        f"mono {base['mono']['nodes']} -> {row['mono']['nodes']}, "
        f"part {base['part']['nodes']} -> {row['part']['nodes']}, "
        f"ratio {base['node_ratio']:.2f} -> {row['node_ratio']:.2f}"
    )


def check_b5(baseline, current, failures):
    base_rows = {row["scenario"]: row for row in baseline.get("b5_partition", [])}
    cur_rows = current.get("b5_partition", [])
    if not cur_rows:
        failures.append("current report has no b5_partition rows")

    print("B5 — partition node-count check (each side vs its own baseline)")
    for row in cur_rows:
        name = row["scenario"]
        if not row.get("verdicts_agree", False):
            failures.append(f"{name}: partitioned verdicts diverged from monolithic")
        base = base_rows.get(name)
        if base is None:
            print(f"  new row (no baseline): {name}: ratio {row['node_ratio']:.2f}")
            continue
        status = check_side_nodes(name, row, base, failures)
        print(f"  {name}: {side_nodes(row, base)} {status}")

    dropped = sorted(set(base_rows) - {row["scenario"] for row in cur_rows})
    for name in dropped:
        failures.append(f"b5 baseline row disappeared: {name}")


# The absolute B10 acceptance bar: multi-key faulty phase workloads must
# refute at least 2x cheaper keyed than monolithic, independent of any
# baseline drift.
B10_MIN_FAULTY_RATIO = 2.0


def check_b10(baseline, current, failures):
    base_rows = {row["scenario"]: row for row in baseline.get("b10_phase_partition", [])}
    cur_rows = current.get("b10_phase_partition", [])
    if not cur_rows:
        failures.append("current report has no b10_phase_partition rows")

    print("B10 — switch-certified phase-trace check (node counts + zero fallbacks)")
    for row in cur_rows:
        name = row["scenario"]
        if not row.get("verdicts_agree", False):
            failures.append(f"{name}: keyed batch verdicts diverged from monolithic")
        if not row.get("stream_agrees", False):
            failures.append(f"{name}: keyed streaming verdicts diverged from monolithic")
        if row.get("fallbacks", 1) != 0:
            failures.append(
                f"{name}: {row['fallbacks']} fallback(s) — the certified keyed "
                f"path abandoned a statically-proven decomposition"
            )
        faulty_multikey = "faulty" in name and row.get("keys", 0) > 1
        if faulty_multikey and row["node_ratio"] <= B10_MIN_FAULTY_RATIO:
            failures.append(
                f"{name}: node ratio {row['node_ratio']:.2f} at or below the "
                f"absolute {B10_MIN_FAULTY_RATIO:.0f}x refutation-speedup floor"
            )
        base = base_rows.get(name)
        if base is None:
            print(
                f"  new row (no baseline): {name}: ratio {row['node_ratio']:.2f}, "
                f"fallbacks {row['fallbacks']}"
            )
            continue
        status = check_side_nodes(name, row, base, failures)
        print(f"  {name}: {side_nodes(row, base)}, fallbacks {row['fallbacks']} {status}")

    dropped = sorted(set(base_rows) - {row["scenario"] for row in cur_rows})
    for name in dropped:
        failures.append(f"b10 baseline row disappeared: {name}")


def check_b4c(baseline, current, failures):
    base_rows = {row["scenario"]: row for row in baseline.get("b4c_checker_stats", [])}
    cur_rows = current.get("b4c_checker_stats", [])
    print("B4c — engine counter tracking (nodes / memo_hits / memo_entries / pruned)")
    for row in cur_rows:
        name = row["scenario"]
        stats = row["stats"]
        base = base_rows.get(name)
        if base is None:
            print(
                f"  new row (no baseline): {name}: "
                f"nodes {stats['nodes']} hits {stats['memo_hits']}"
            )
            continue
        bstats = base["stats"]
        print(
            f"  {name}: nodes {bstats['nodes']} -> {stats['nodes']}, "
            f"hits {bstats['memo_hits']} -> {stats['memo_hits']}, "
            f"entries {bstats['memo_entries']} -> {stats['memo_entries']}, "
            f"pruned {bstats.get('pruned', 0)} -> {stats.get('pruned', 0)}"
        )
        if not row.get("ok", False):
            failures.append(f"{name}: b4c scenario no longer verifies")
        over_ceiling(name, "nodes", stats["nodes"], bstats["nodes"], failures)
    dropped = sorted(set(base_rows) - {row["scenario"] for row in cur_rows})
    for name in dropped:
        failures.append(f"b4c baseline row disappeared: {name}")


def normalised_throughput(rows):
    top = max((row["events_per_sec"] for row in rows), default=0.0)
    if top <= 0.0:
        return {}
    return {row["scenario"]: row["events_per_sec"] / top for row in rows}


def check_b6(baseline, current, failures):
    base_rows = baseline.get("b6_streaming", [])
    cur_rows = current.get("b6_streaming", [])
    if not cur_rows:
        failures.append("current report has no b6_streaming rows")
        return
    base_norm = normalised_throughput(base_rows)
    cur_norm = normalised_throughput(cur_rows)
    base_abs = {row["scenario"]: row["events_per_sec"] for row in base_rows}

    print("B6 — streaming sustained-throughput check (normalised to fastest row)")
    for row in cur_rows:
        name = row["scenario"]
        if not row.get("ok", False):
            failures.append(f"{name}: streaming verdicts stopped verifying")
        cur = cur_norm.get(name, 0.0)
        base = base_norm.get(name)
        det = f"fallbacks {row['fallback_searches']}, retired {row['retired_events']}"
        if base is None:
            print(f"  new row (no baseline): {name}: share {cur:.3f} ({det})")
            continue
        floor = (1.0 - ALLOWED_REGRESSION) * base
        abs_floor = (1.0 - ALLOWED_REGRESSION) * base_abs[name]
        # Both signals must drop: the share alone also falls when a
        # *different* row genuinely speeds up, and the absolute number
        # alone also falls on a uniformly slower machine.
        regressed = cur < floor and row["events_per_sec"] < abs_floor
        status = "REGRESSED" if regressed else "ok"
        print(
            f"  {name}: share {cur:.3f} (baseline {base:.3f}, floor {floor:.3f}) "
            f"{status} ({det})"
        )
        if regressed:
            failures.append(
                f"{name}: sustained throughput fell >{ALLOWED_REGRESSION:.0%} in "
                f"both normalised share ({cur:.3f} < {floor:.3f}) and absolute "
                f"events/sec ({row['events_per_sec']:.0f} < {abs_floor:.0f})"
            )
    dropped = sorted(
        {row["scenario"] for row in base_rows} - {row["scenario"] for row in cur_rows}
    )
    for name in dropped:
        failures.append(f"b6 baseline row disappeared: {name}")


# B6h bounds. The flatness, memory and p99 bounds were calibrated on
# BENCH_PR6.json (7.6x small->large window work growth, 1.1x memory growth,
# 63ms p99) and are generous enough for machine jitter and bench retuning.
# The per-event work cap is calibrated on BENCH.json with the feasibility
# prune in the kernel (worst row: stragglers w=24 at 38 nodes/event): before
# the prune the same rows cost 44-830, and a stalled epoch GC ~19k, so a
# lost prune and a stalled GC both fail it.
B6H_MAX_NODES_PER_EVENT = 120.0
B6H_FLATNESS_FACTOR = 12.0
B6H_MEMORY_SLACK = 1.5
B6H_ALPHABET_SLACK = 16.0
B6H_MAX_P99_US = 500_000.0


def check_b6h(baseline, current, failures):
    base_rows = {row["scenario"]: row for row in baseline.get("b6h_hostile", [])}
    cur_rows = current.get("b6h_hostile", [])
    if not cur_rows:
        failures.append("current report has no b6h_hostile rows")
        return

    print("B6h — hostile-stream epoch-GC check (deterministic work/memory columns)")
    families = {}
    for row in cur_rows:
        name = row["scenario"]
        events = max(row["events"], 1)
        per_event = row["search_nodes"] / events
        families.setdefault(name.rsplit(" w=", 1)[0], []).append(row)
        print(
            f"  {name}: {per_event:.0f} nodes/event, cuts {row['epoch_cuts']}, "
            f"retired {row['retired_events']}/{row['events']}, "
            f"ms_nodes {row['peak_multiset_nodes']}, "
            f"p99 {row['p99_ingest_us'] / 1000:.1f}ms"
        )
        if not row.get("ok", False):
            failures.append(f"{name}: hostile stream stopped verifying")
        if row["lossy_cuts"] != 0:
            failures.append(f"{name}: exact mode took {row['lossy_cuts']} lossy cuts")
        if row["epoch_cuts"] == 0 or row["retired_events"] == 0:
            failures.append(f"{name}: epoch GC never fired (vacuous hostile row)")
        if per_event > B6H_MAX_NODES_PER_EVENT:
            failures.append(
                f"{name}: {per_event:.0f} search nodes/event exceeds the "
                f"{B6H_MAX_NODES_PER_EVENT:.0f} amortised-ingest cap"
            )
        if row["p99_ingest_us"] > B6H_MAX_P99_US:
            failures.append(
                f"{name}: p99 ingest {row['p99_ingest_us'] / 1000:.0f}ms exceeds "
                f"the {B6H_MAX_P99_US / 1000:.0f}ms sanity cap"
            )
        base = base_rows.get(name)
        if base is not None:
            for col in ("search_nodes", "peak_multiset_nodes"):
                over_ceiling(name, col, row[col], base[col], failures)

    # Flatness in window size, per workload family: amortised work and the
    # memory proxy at the largest window vs the smallest.
    for family, rows in families.items():
        rows = sorted(rows, key=lambda r: r["window"])
        small, large = rows[0], rows[-1]
        if small is large:
            continue
        work = lambda r: r["search_nodes"] / max(r["events"], 1)  # noqa: E731
        if work(small) > 0 and work(large) > B6H_FLATNESS_FACTOR * work(small):
            failures.append(
                f"{family}: per-event work grew {work(large) / work(small):.1f}x "
                f"from w={small['window']} to w={large['window']} "
                f"(flatness cap {B6H_FLATNESS_FACTOR:.0f}x)"
            )
        linear = (large["window"] + B6H_ALPHABET_SLACK) / (
            small["window"] + B6H_ALPHABET_SLACK
        )
        growth = large["peak_multiset_nodes"] / max(small["peak_multiset_nodes"], 1)
        if growth > linear * B6H_MEMORY_SLACK:
            failures.append(
                f"{family}: retained memory grew {growth:.2f}x across the window "
                f"sweep vs a linear {linear:.2f}x (O(window + alphabet) violated)"
            )

    dropped = sorted(set(base_rows) - {row["scenario"] for row in cur_rows})
    for name in dropped:
        failures.append(f"b6h baseline row disappeared: {name}")


def check_b8(baseline, current, failures):
    base_rows = baseline.get("b8_multitenant", [])
    cur_rows = current.get("b8_multitenant", [])
    if not cur_rows:
        failures.append("current report has no b8_multitenant rows")
        return
    base_norm = normalised_throughput(base_rows)
    cur_norm = normalised_throughput(cur_rows)
    base_abs = {row["scenario"]: row["events_per_sec"] for row in base_rows}

    print("B8 — multi-tenant daemon check (normalised throughput + queue/shed health)")
    for row in cur_rows:
        name = row["scenario"]
        if not row.get("ok", False):
            failures.append(f"{name}: daemon run stopped verifying")
        if row["queue_depth_peak"] > row["queue_capacity"]:
            failures.append(
                f"{name}: queue depth peaked at {row['queue_depth_peak']} "
                f"over the {row['queue_capacity']}-event bound"
            )
        if "shed" in name:
            if row["sheds"] == 0:
                failures.append(
                    f"{name}: saturating scenario never shed "
                    f"(backpressure no longer observable)"
                )
        elif row["sheds"] != 0:
            failures.append(
                f"{name}: provisioned scenario shed {row['sheds']} times "
                f"(spurious backpressure)"
            )
        cur = cur_norm.get(name, 0.0)
        base = base_norm.get(name)
        det = (
            f"peak_q {row['queue_depth_peak']}/{row['queue_capacity']}, "
            f"sheds {row['sheds']}, shed_tenants {row['shed_tenants']}"
        )
        if base is None:
            print(f"  new row (no baseline): {name}: share {cur:.3f} ({det})")
            continue
        floor = (1.0 - ALLOWED_REGRESSION) * base
        abs_floor = (1.0 - ALLOWED_REGRESSION) * base_abs[name]
        regressed = cur < floor and row["events_per_sec"] < abs_floor
        status = "REGRESSED" if regressed else "ok"
        print(
            f"  {name}: share {cur:.3f} (baseline {base:.3f}, floor {floor:.3f}) "
            f"{status} ({det})"
        )
        if regressed:
            failures.append(
                f"{name}: daemon throughput fell >{ALLOWED_REGRESSION:.0%} in "
                f"both normalised share ({cur:.3f} < {floor:.3f}) and absolute "
                f"events/sec ({row['events_per_sec']:.0f} < {abs_floor:.0f})"
            )
    dropped = sorted(
        {row["scenario"] for row in base_rows} - {row["scenario"] for row in cur_rows}
    )
    for name in dropped:
        failures.append(f"b8 baseline row disappeared: {name}")


# The observer-overhead budget: instrumented ingest may cost at most 5%
# over the no-op loop. The rows report the median of paired per-rep
# ratios, which filters drift and scheduler noise; anything past 5%
# means the hooks left the cold path.
B9_MAX_OVERHEAD = 0.05
# ...and, since the fraction's denominator is the ingest cost itself, only
# when the hooks also cost more than this per event in absolute terms
# (measured: ~0.25-0.3 us/event for the full StackObserver, 3 us/event
# when ingest ran at 4k events/s).
B9_MAX_OVERHEAD_NS_PER_EVENT = 1000.0


def check_b9(baseline, current, failures):
    cur_rows = current.get("b9_observability", [])
    if not cur_rows:
        failures.append("current report has no b9_observability rows")
        return

    print("B9 — observer overhead (median paired ratio) + witness-archive bound")
    for row in cur_rows:
        name = row["scenario"]
        hooks_ns = 1e9 / row["instrumented_events_per_sec"] - 1e9 / row["noop_events_per_sec"]
        print(
            f"  {name}: overhead {row['overhead_frac']:+.2%} ({hooks_ns:.0f} ns/event), "
            f"archived {row['archived_events']}/{row['archive_event_bound']} "
            f"(depth {row['archive_windows']}), "
            f"reconstructed {row['reconstructed']}"
        )
        if not row.get("ok", False):
            failures.append(f"{name}: instrumented streams stopped verifying")
        if row["overhead_frac"] > B9_MAX_OVERHEAD and hooks_ns > B9_MAX_OVERHEAD_NS_PER_EVENT:
            failures.append(
                f"{name}: observer overhead {row['overhead_frac']:.2%} "
                f"({hooks_ns:.0f} ns/event) exceeds both the "
                f"{B9_MAX_OVERHEAD:.0%} budget and the "
                f"{B9_MAX_OVERHEAD_NS_PER_EVENT:.0f} ns/event cap"
            )
        if row["archive_windows"] == 0:
            if row["reconstructed"] or row["archived_events"] != 0:
                failures.append(
                    f"{name}: archival activity without archive_windows "
                    f"(archived {row['archived_events']}, "
                    f"reconstructed {row['reconstructed']})"
                )
        else:
            if not row["reconstructed"]:
                failures.append(f"{name}: deep archive failed to reconstruct")
            if row["archived_events"] == 0:
                failures.append(f"{name}: archive never captured a retired window")
            if row["archived_events"] > row["archive_event_bound"]:
                failures.append(
                    f"{name}: archived {row['archived_events']} events over the "
                    f"O(shards·depth·window) bound {row['archive_event_bound']}"
                )

    base_names = {row["scenario"] for row in baseline.get("b9_observability", [])}
    dropped = sorted(base_names - {row["scenario"] for row in cur_rows})
    for name in dropped:
        failures.append(f"b9 baseline row disappeared: {name}")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip())
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        current = json.load(f)

    failures = []
    check_b5(baseline, current, failures)
    check_b10(baseline, current, failures)
    check_b4c(baseline, current, failures)
    check_b6(baseline, current, failures)
    check_b6h(baseline, current, failures)
    check_b8(baseline, current, failures)
    check_b9(baseline, current, failures)

    if failures:
        print("\nbench threshold check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench threshold check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
