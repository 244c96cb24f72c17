#!/usr/bin/env python3
"""Render a ptb anatomy JSON (ptbsim --anatomy) as a human
report, optionally asserting speedup-loss claims for CI.

Usage: anatomy_report.py ANATOMY.json [--expect-exact]
                                      [--expect-dominant-loss GROUPS]
                                      [--expect-zero-lock-loss] [--procs P]

Categories are grouped for assertions:
  busy -> extra-work, mem_local+mem_remote -> mem, lock_wait -> lock,
  barrier_wait+phase_skew -> imbalance.

--expect-exact               fail (exit 1) unless every run's ledger carries
                             invariant_exact == true (sum of categories ==
                             p * T_p, bit-exact).
--expect-dominant-loss G     comma-separated groups (e.g. "lock,imbalance");
                             fail unless their combined share of the loss
                             p*T_p - T_1 exceeds one half, in every waterfall
                             (or the one selected with --procs).
--expect-zero-lock-loss      fail if any run ledgers a nonzero lock_wait
                             cycle (the SPACE guarantee: no tree locks).
--procs P                    restrict waterfall expectations to one p.
"""

import argparse
import json
import sys

GROUPS = {
    "extra-work": ["busy"],
    "mem": ["mem_local", "mem_remote"],
    "lock": ["lock_wait"],
    "imbalance": ["barrier_wait", "phase_skew"],
}


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


def cats(entries):
    return {c["category"]: c["ns"] for c in entries}


def fmt_ms(ns):
    return f"{ns * 1e-6:.3f}ms"


def group_deltas(deltas):
    by_cat = cats(deltas)
    return {g: sum(by_cat[c] for c in members) for g, members in GROUPS.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("anatomy")
    ap.add_argument("--expect-exact", action="store_true")
    ap.add_argument("--expect-dominant-loss", default=None,
                    help='comma-separated groups, e.g. "lock,imbalance"')
    ap.add_argument("--expect-zero-lock-loss", action="store_true")
    ap.add_argument("--procs", type=int, default=None,
                    help="restrict waterfall expectations to one processor count")
    args = ap.parse_args()

    with open(args.anatomy) as f:
        anatomy = json.load(f)["anatomy"]
    prov = anatomy["provenance"]
    print(f"anatomy: {prov['algorithm']} on {prov['platform']}, "
          f"n={prov['nbodies']}, up to p={prov['nprocs']} "
          f"[{prov['git_sha']} {prov['build_type']}]\n")

    failures = []

    rows = []
    for run in anatomy["runs"]:
        by_cat = cats(run["categories"])
        pt = run["procs"] * run["total_ns"]
        rows.append([run["procs"], fmt_ms(run["total_ns"]),
                     f"{run['speedup']:.2f}x"]
                    + [f"{by_cat[c] / pt:.1%}" if pt else "-" for c in
                       ("busy", "mem_local", "mem_remote", "lock_wait",
                        "barrier_wait", "phase_skew")]
                    + ["yes" if run["invariant_exact"] else "NO"])
        if args.expect_exact and not run["invariant_exact"]:
            failures.append(f"p={run['procs']}: ledger invariant not exact")
        if args.expect_zero_lock_loss and by_cat["lock_wait"] != 0:
            failures.append(
                f"p={run['procs']}: expected zero lock-loss cycles, "
                f"ledgered {by_cat['lock_wait']:.0f}ns")
    print_table("ledger per run (share of p * T_p)",
                ["p", "T_p", "speedup", "busy", "mem local", "mem remote",
                 "lock", "barrier", "skew", "exact"], rows)

    expected = None
    if args.expect_dominant_loss:
        expected = [g.strip() for g in args.expect_dominant_loss.split(",")]
        unknown = [g for g in expected if g not in GROUPS]
        if unknown:
            sys.exit(f"unknown loss groups {unknown}; choose from {sorted(GROUPS)}")

    rows = []
    for wf in anatomy["waterfall"]:
        loss = wf["loss_ns"]
        groups = group_deltas(wf["deltas"])
        rows.append([wf["procs"], fmt_ms(wf["t1_ns"]), fmt_ms(wf["tp_ns"]),
                     fmt_ms(loss)]
                    + [f"{groups[g] / loss:.1%}" if loss else "-"
                       for g in GROUPS])
        if expected is not None and (args.procs is None or wf["procs"] == args.procs):
            share = sum(groups[g] for g in expected) / loss if loss else 0.0
            if share <= 0.5:
                failures.append(
                    f"p={wf['procs']}: {'+'.join(expected)} explain only "
                    f"{share:.1%} of the loss (need > 50%)")
    if rows:
        print_table("speedup-loss waterfall p*T_p - T_1 (share of loss)",
                    ["p", "T_1", "T_p", "loss"] + list(GROUPS), rows)
    elif expected is not None:
        failures.append("--expect-dominant-loss given but no waterfall in the JSON")

    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("all expectations satisfied" if (
        args.expect_exact or expected is not None or args.expect_zero_lock_loss)
        else "(no expectations asserted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
