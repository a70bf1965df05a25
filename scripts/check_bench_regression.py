#!/usr/bin/env python3
"""Gate a fresh bench run against its committed baseline.

Usage: check_bench_regression.py <fresh.json> <committed.json>

Raw numbers from a CI runner are not comparable to the machine that recorded
a committed BENCH_*.json, so every gate compares ratios that machine speed
divides out of: both sides of each ratio are measured back-to-back in the
same process. The fresh document's "bench" field picks the gate:

  bench_read_path         hot_hit/speedup, optimistic over S-lock Gets on a
                          resident tree. Fails below 90% of the committed
                          ratio, or on any fallback (the fast path is not
                          engaging).
  bench_forward_recovery  p6/redo_vs_scan, restart redo over a bare ReadAll
                          of the same log. Fails below 75% of the committed
                          ratio (it jitters 10-15% on --quick volumes), or if
                          redo did no work or crossed no segment boundary.
  ycsb (bench_ycsb)       per (mix, partitions) cell, p99 with the
                          reorganizer active over p99 quiesced. Fails above
                          3x the committed ratio, though a stretch under 2x
                          always passes: a background reorganizer
                          legitimately steals half a 1-2 CPU runner, and a
                          quiesced p99 of a few microseconds makes small
                          wobbles large ratios. Any op failure fails.
"""

import json
import sys


def need(m, name, bench):
    if name not in m:
        raise SystemExit(f"metric {name!r} missing from {bench}")
    return m[name]


def single(name):
    """Cells of a gate whose one ratio is the metric `name`."""
    return lambda m, bench: {name: need(m, name, bench)}


def ycsb_cell_names(m):
    """The (mix, partitions) cells, e.g. "rmw.p4"."""
    return sorted(name[:-len(".active.p99_us")] for name in m
                  if name.startswith(("read_heavy.p", "rmw.p", "scan.p")) and
                  name.endswith(".active.p99_us"))


def ycsb_cells(m, bench):
    cells = {}
    for cell in ycsb_cell_names(m):
        quiesced = m[cell + ".quiesced.p99_us"]
        if quiesced <= 0:
            raise SystemExit(f"FAIL: nonpositive quiesced p99 in {cell}")
        cells[cell] = m[cell + ".active.p99_us"] / quiesced
    return cells


def ycsb_failures(m):
    return [f"{cell}.{phase}: {m.get(f'{cell}.{phase}.failures', 0):.0f} op "
            "failures" for cell in ycsb_cell_names(m)
            for phase in ("quiesced", "active")
            if m.get(f"{cell}.{phase}.failures", 0) > 0]


# cells: label -> ratio. higher: which way is better. tolerance: the bound is
# committed * tolerance. always_ok: a ratio at or under it passes regardless.
# outright: metrics -> failure reasons that need no baseline.
GATES = {
    "bench_read_path": dict(
        cells=single("hot_hit/speedup"), higher=True, tolerance=0.90,
        outright=lambda m: [
            "optimistic reads fell back on a resident read-only workload; "
            "the fast path is not engaging"] if m["hot_hit/fallbacks"] > 0
        else [],
        regressed="hot-hit speedup {fresh:.3f} regressed more than 10% below "
                  "committed {committed:.3f}",
        ok="read-path gate ok"),
    "bench_forward_recovery": dict(
        cells=single("p6/redo_vs_scan"), higher=True, tolerance=0.75,
        outright=lambda m: [r for r, bad in (
            ("the crashed image left no redo work; the bench is not "
             "exercising recovery", m["p6/records_redone"] <= 0),
            ("redo covered fewer than 2 segments; the bench is not crossing "
             "segment boundaries", m["p6/segments_scanned"] < 2)) if bad],
        regressed="redo/scan ratio {fresh:.3f} regressed more than 25% below "
                  "committed {committed:.3f}",
        ok="recovery gate ok"),
    "ycsb": dict(
        cells=ycsb_cells, higher=False, tolerance=3.0, always_ok=2.0,
        outright=ycsb_failures,
        regressed="{cell}: p99 tail stretch {fresh:.2f}x exceeds {bound:.2f}x "
                  "(3x the committed run)",
        ok="ycsb reorg-isolation gate ok"),
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("bench"), {m["name"]: float(m["value"])
                              for m in doc["metrics"]}


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    bench, fresh = load(sys.argv[1])
    _, committed = load(sys.argv[2])
    if bench not in GATES:
        raise SystemExit(f"no gate for bench {bench!r}")
    gate = GATES[bench]

    fresh_cells = gate["cells"](fresh, bench)
    if not fresh_cells:
        raise SystemExit("FAIL: no gated cells in fresh run")
    base_cells = gate["cells"](committed, bench)
    failures = gate["outright"](fresh)
    for cell, ratio in sorted(fresh_cells.items()):
        if cell not in base_cells:
            print(f"{cell}: fresh={ratio:.3f} (no committed baseline)")
            continue
        bound = base_cells[cell] * gate["tolerance"]
        print(f"{cell}: fresh={ratio:.3f} committed={base_cells[cell]:.3f} "
              f"{'floor' if gate['higher'] else 'ceiling'}={bound:.3f}")
        if ratio <= gate.get("always_ok", float("-inf")):
            continue
        if ratio < bound if gate["higher"] else ratio > bound:
            failures.append(gate["regressed"].format(
                cell=cell, fresh=ratio, committed=base_cells[cell],
                bound=bound))
    if failures:
        raise SystemExit("FAIL:\n  " + "\n  ".join(failures))
    print(gate["ok"])


if __name__ == "__main__":
    main()
