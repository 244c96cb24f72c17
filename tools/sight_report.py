#!/usr/bin/env python3
"""Render a ptb sight JSON (ptbsim --sight) as a human report,
optionally asserting data-centric claims for CI.

Usage: sight_report.py SIGHT.json [--expect-no-false-sharing] [--phase PH]
                                  [--expect-private-fraction F] [--scope S]

--expect-no-false-sharing    fail (exit 1) if the detector reported any
                             falsely-shared line (with --phase PH: any line
                             whose window-qualified hits land in that phase).
--expect-private-fraction F  fail unless at least fraction F of the selected
                             classification rows' lines classify private.
                             --phase selects a phase's rows (default: the
                             whole-run classification); --scope filters by
                             scope ("cells", "bodies", "space.cells.p*", ...).
"""

import argparse
import json
import sys


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


CLASSES = ["private", "read-shared", "producer-consumer", "migratory", "ping-pong"]


def class_table(rows, key):
    """Aggregates classification rows into {key(row): {class: lines}}."""
    out = {}
    for r in rows:
        cell = out.setdefault(key(r), dict.fromkeys(CLASSES, 0))
        cell[r["class"]] += r["lines"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("sight")
    ap.add_argument("--expect-no-false-sharing", action="store_true")
    ap.add_argument("--expect-private-fraction", type=float, default=None)
    ap.add_argument("--phase", default=None,
                    help="restrict expectations to one phase (e.g. treebuild)")
    ap.add_argument("--scope", default=None,
                    help="restrict --expect-private-fraction to one scope")
    args = ap.parse_args()

    with open(args.sight) as f:
        sight = json.load(f)["sight"]
    prov = sight["provenance"]

    print(f"sight: {args.sight}")
    print(f"{prov['platform']} {prov['algorithm']} n={prov['nbodies']} "
          f"p={prov['nprocs']}: {sight['lines_observed']} lines observed, "
          f"{sight['reads']} reads / {sight['writes']} writes, "
          f"false-sharing window {sight['window_ns']}ns\n")

    total_lines = sum(c["lines"] for c in sight["total_classes"])
    print_table(
        "whole-run sharing classes",
        ["class", "lines", "share"],
        [[c["class"], c["lines"],
          f"{100.0 * c['lines'] / total_lines:.1f}%" if total_lines else "0.0%"]
         for c in sight["total_classes"]],
    )

    run_rows = [c for c in sight["classes"] if c["phase"] == "run"]
    by_scope = class_table(run_rows, lambda r: (r["scope"], r["depth"]))
    print_table(
        "sharing by data structure (whole run; cells keyed by tree depth)",
        ["scope", "depth"] + CLASSES,
        [[scope, depth if depth >= 0 else "-"] +
         [cell[c] or "-" for c in CLASSES]
         for (scope, depth), cell in sorted(by_scope.items())],
    )

    phase_rows = [c for c in sight["classes"] if c["phase"] != "run"]
    by_phase = class_table(phase_rows, lambda r: r["phase"])
    print_table(
        "sharing by phase (lines touched in phase)",
        ["phase"] + CLASSES,
        [[ph] + [cell[c] or "-" for c in CLASSES]
         for ph, cell in sorted(by_phase.items())],
    )

    if sight["false_sharing"]:
        print_table(
            f"false sharing ({sight['false_sharing_hits']} hits)",
            ["region", "line", "cell", "objects", "procs", "hits", "phases"],
            [[f["region"], f["line"], f["cell"] or "-", len(f["objects"]),
              len(f["procs"]), f["hits"],
              " ".join(f"{p['phase']}:{p['hits']}" for p in f["phase_hits"])]
             for f in sight["false_sharing"][:20]],
        )
    else:
        print(f"no false sharing detected (window {sight['window_ns']}ns)\n")

    if sight["working_set"]:
        per_phase = {}
        for w in sight["working_set"]:
            mx, cold, samples = per_phase.get(w["phase"], (0, 0, 0))
            per_phase[w["phase"]] = (max(mx, w["distinct_lines"]),
                                     cold + w["cold"],
                                     samples + w["reuse_samples"])
        print_table(
            "working set by phase (64B lines; distinct = max over procs)",
            ["phase", "distinct lines", "cold", "reuse samples"],
            [[ph, mx, cold, samples]
             for ph, (mx, cold, samples) in sorted(per_phase.items())],
        )

    failures = []
    if args.expect_no_false_sharing:
        if args.phase is None:
            if sight["false_sharing"]:
                failures.append(
                    f"expected no false sharing, found "
                    f"{len(sight['false_sharing'])} lines "
                    f"({sight['false_sharing_hits']} hits)")
        else:
            for f in sight["false_sharing"]:
                hits = sum(p["hits"] for p in f["phase_hits"]
                           if p["phase"] == args.phase)
                if hits:
                    failures.append(
                        f"false sharing in phase {args.phase}: {f['region']} "
                        f"line {f['line']} ({hits} hits)")
    if args.expect_private_fraction is not None:
        want_phase = args.phase if args.phase is not None else "run"
        rows = [c for c in sight["classes"] if c["phase"] == want_phase
                and (args.scope is None or c["scope"] == args.scope)]
        lines = sum(c["lines"] for c in rows)
        private = sum(c["lines"] for c in rows if c["class"] == "private")
        where = f"phase={want_phase}" + (f" scope={args.scope}" if args.scope else "")
        if lines == 0:
            failures.append(f"no classification rows match {where}")
        elif private < args.expect_private_fraction * lines:
            failures.append(
                f"private fraction {private}/{lines} = {private / lines:.3f} "
                f"below {args.expect_private_fraction} ({where})")
        else:
            print(f"private fraction {private}/{lines} = {private / lines:.3f} "
                  f"({where})")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    if args.expect_no_false_sharing or args.expect_private_fraction is not None:
        print("expectations satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
