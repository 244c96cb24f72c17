#!/usr/bin/env python3
"""End-to-end benchmark of both ptb products: the native Barnes-Hut library
and the deterministic simulator. See perfbench/README.md.

    python3 perfbench/run.py --workload small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare A.json B.json

Builds the library from ../src and the perfbench program into .bench_build/,
runs one workload (all four parts at that workload's sizes), checks its
outputs, and prints as the last stdout line
{"correct", "attempted", "failed", "metrics"}; the line before it carries the
run's provenance. Exits non-zero without a result when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BIN = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected_virtual.json")

# The recorded virtual results are checked only for this seed; other seeds
# rely on the seed-independent checks. Seed 777 is held out: keep it for
# confirming a claimed gain, never for developing one.
DEFAULT_SEED = 12345

# Every workload runs the same four parts at its own sizes (see main.cpp).
WORKLOADS = ["small", "large"]
PAPER_CELLS = ["challenge.SPACE", "origin2000.RADIX", "paragon.ORIG"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=log, stderr=log)
    if r.returncode != 0 or not os.path.isfile(BIN):
        die("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    """Commit of the checkout, read on every run; "unknown" when the checkout
    is not itself a git work tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.decode().split()
    if r.returncode != 0 or len(out) != 2 or os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "unknown"
    return out[1]


def run_program(workload, seed, seconds, trace, tiny=False, plant=None):
    """Runs the measuring program; returns its parsed JSON report."""
    cmd = [BIN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if plant in ("accel", "observed"):
        cmd += ["--plant", plant]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))]
    # PTB_* variables switch the simulator backend and attach observers by
    # default; the benchmark fixes both, so none of them reaches the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTB_")}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        die("%s timed out" % workload)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        die("%s exited with %d" % (workload, r.returncode))
    return json.loads(lines[-1])


def expected_key(cell, report):
    return "%s@n%d" % (cell, report["provenance"]["paper_n"])


def recorded_failures(report, plant):
    """sim-paper cells whose virtual results differ from the recorded ones
    (default seed only). Returns (failed operations, reasons)."""
    if report["provenance"]["seed"] != DEFAULT_SEED:
        return 0, []
    with open(EXPECTED) as f:
        expected = json.load(f)
    if plant == "virtual":  # one wrong recorded value
        expected[expected_key(PAPER_CELLS[0], report)]["total_ns"] += 1
    failed, reasons = 0, []
    for cell, got in report["cells"].items():
        want = expected.get(expected_key(cell, report))
        if want != got["virtual"]:
            failed += got["ops"] - got["failed"]
            reasons.append("%s: virtual results differ from the recorded values" % cell)
    return failed, reasons


def measure(workload, seed, seconds, trace, tiny=False, plant=None):
    """One benchmark run: (provenance line, result line) as dicts."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    report = run_program(workload, seed, seconds, trace, tiny, plant)
    extra, why = recorded_failures(report, plant)
    failed = min(report["attempted"], report["failed"] + extra)
    reasons = report["failures"] + why
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    got = report["metrics"]
    if sorted(got) != sorted(names):
        die("%s printed metrics %s, expected %s" % (workload, sorted(got), sorted(names)))
    bad = [n for n in names if got[n] is None]
    if bad:
        die("%s measured no finite value for %s" % (workload, bad))
    metrics = {n: {"value": got[n], "unit": units[n]} for n in names}
    prov = dict(report["provenance"], git_sha=git_sha(), source_sha256=source_digest(),
                trace=int(trace))
    result = {"correct": failed == 0, "attempted": report["attempted"], "failed": failed,
              "metrics": metrics}
    return {"provenance": prov, "failures": reasons}, result


def self_test():
    """The four parts at tiny sizes: every named metric with its unit, zero
    failures; each planted fault counted as a failed operation."""
    ok = True
    w = WORKLOADS[0]  # tiny sizes are the same for every workload
    for trace in (False, True):
        info, res = measure(w, DEFAULT_SEED, 1, trace, tiny=True)
        good = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        ok &= good
        print("%-4s trace=%d: %d ops, %d metrics %s" % (
            "ok" if good else "FAIL", trace, res["attempted"], len(res["metrics"]),
            info["failures"] or ""))
    for plant in ("accel", "virtual", "observed"):
        info, res = measure(w, DEFAULT_SEED, 1, False, tiny=True, plant=plant)
        caught = res["failed"] >= 1 and not res["correct"]
        ok &= caught
        print("%-4s planted %s: %d of %d ops failed %s" % (
            "ok" if caught else "FAIL", plant, res["failed"], res["attempted"],
            info["failures"][:1]))
    return ok


def record():
    """Re-records the default seed's sim-paper virtual results at every
    size. Only for a change that deliberately alters the simulated model."""
    expected = {}
    for w, tiny in [(WORKLOADS[0], True)] + [(w, False) for w in WORKLOADS]:
        report = run_program(w, DEFAULT_SEED, 0, False, tiny)
        for cell, got in report["cells"].items():
            expected[expected_key(cell, report)] = got["virtual"]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def compare(a_path, b_path):
    """Ratios B/A of two saved results, flagging provenance mismatches."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    for k in ("build_type", "compiler", "nproc", "native_threads", "sim_backend",
              "workload", "tiny", "trace"):
        if a["provenance"].get(k) != b["provenance"].get(k):
            print("WARNING: %s differs (%s vs %s): not a like-for-like comparison" % (
                k, a["provenance"].get(k), b["provenance"].get(k)))
    for name, m in a["result"]["metrics"].items():
        if name in b["result"]["metrics"]:
            va, vb = m["value"], b["result"]["metrics"][name]["value"]
            ratio = vb / va if va else float("nan")
            print("%-44s %14.6g %14.6g  x%.4f %s" % (name, va, vb, ratio, m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="re-record the default seed's sim-paper virtual results")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two results saved under .bench_out/")
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    build()
    if args.self_test:
        return 0 if self_test() else 1
    if args.record:
        record()
        return 0
    if not args.workload:
        die("--workload is required")
    info, result = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT, exist_ok=True)
    saved = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(saved, "w") as f:
        json.dump(dict(info, result=result), f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
