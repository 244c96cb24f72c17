#!/usr/bin/env python3
"""Render a ptb profile JSON (ptbsim --prof) as a human report,
optionally asserting structural claims for CI.

Usage: prof_report.py PROFILE.json [--expect-lock-dominated]
                                   [--expect-zero-lock-edges]

--expect-lock-dominated   fail (exit 1) unless the tree-build slice of the
                          critical path is majority lock-handoff time and the
                          path crosses at least one lock edge — the shape a
                          lock-based builder (ORIG) must show.
--expect-zero-lock-edges  fail unless the critical path crosses no lock edge
                          at all — the shape a lock-free builder (SPACE)
                          must show.
"""

import argparse
import json
import sys


def fmt_ns(ns):
    s = ns * 1e-9
    if s >= 1.0:
        return f"{s:.3f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f}ms"
    return f"{s * 1e6:.1f}us"


def share(part, total):
    return f"{100.0 * part / total:.1f}%" if total else "0.0%"


def print_table(title, header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    print(f"== {title} ==")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("profile")
    ap.add_argument("--expect-lock-dominated", action="store_true")
    ap.add_argument("--expect-zero-lock-edges", action="store_true")
    args = ap.parse_args()

    with open(args.profile) as f:
        prof = json.load(f)["prof"]
    cp = prof["critical_path"]
    total = cp["total_ns"]

    print(f"profile: {args.profile}")
    print(f"elapsed {fmt_ns(prof['elapsed_ns'])}, {prof['events']} sync events, "
          f"critical path {cp['segments']} segments\n")

    print_table(
        "critical path",
        ["entered via", "time", "share", "edges"],
        [
            ["run start", fmt_ns(cp["via_start_ns"]), share(cp["via_start_ns"], total), 1],
            ["lock handoff", fmt_ns(cp["via_lock_ns"]), share(cp["via_lock_ns"], total),
             cp["lock_edges"]],
            ["barrier release", fmt_ns(cp["via_barrier_ns"]),
             share(cp["via_barrier_ns"], total), cp["barrier_edges"]],
        ],
    )

    phases = [p for p in cp["by_phase"] if p["ns"] > 0]
    print_table(
        "critical path by phase",
        ["phase", "time", "share", "via lock", "via barrier"],
        [[p["phase"], fmt_ns(p["ns"]), share(p["ns"], total),
          fmt_ns(p["via_lock_ns"]), fmt_ns(p["via_barrier_ns"])] for p in phases],
    )

    if prof["locks"]:
        print_table(
            "top contended locks",
            ["lock", "depth", "acquires", "contended", "wait", "cp edges", "cp time"],
            [[r["name"], r["depth"] if r["depth"] >= 0 else "-", r["acquires"],
              r["contended"], fmt_ns(r["wait_ns"]), r["cp_edges"], fmt_ns(r["cp_ns"])]
             for r in prof["locks"]],
        )

    if prof["depth_contention"]:
        print_table(
            "contention by tree depth (measured tree-build phase)",
            ["depth", "acquires", "contended", "lock wait", "remote", "inval", "mem stall"],
            [[d["depth"] if d["depth"] >= 0 else "other", d["acquires"], d["contended"],
              fmt_ns(d["lock_wait_ns"]), d["remote_misses"], d["invalidations"],
              fmt_ns(d["mem_stall_ns"])] for d in prof["depth_contention"]],
        )

    if prof["whatif"]:
        print_table(
            "causal what-if predictions (lower bounds)",
            ["scenario", "predicted", "speedup"],
            [[w["scenario"], fmt_ns(w["predicted_ns"]), f"{w['speedup']:.2f}"]
             for w in prof["whatif"]],
        )

    failures = []
    if args.expect_lock_dominated:
        tb = next((p for p in cp["by_phase"] if p["phase"] == "treebuild"), None)
        if cp["lock_edges"] == 0:
            failures.append("expected lock edges on the critical path, found none")
        elif tb is None or tb["ns"] == 0:
            failures.append("no tree-build time on the critical path")
        elif tb["via_lock_ns"] * 2 < tb["ns"]:
            failures.append(
                f"tree-build critical path is not lock-dominated: "
                f"{fmt_ns(tb['via_lock_ns'])} via locks of {fmt_ns(tb['ns'])}")
    if args.expect_zero_lock_edges:
        if cp["lock_edges"] != 0:
            failures.append(
                f"expected a lock-free critical path, found {cp['lock_edges']} lock edges")
        if cp["via_lock_ns"] != 0:
            failures.append(
                f"expected zero lock-handoff path time, found {fmt_ns(cp['via_lock_ns'])}")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    if args.expect_lock_dominated or args.expect_zero_lock_edges:
        print("expectations satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
