#!/usr/bin/env python3
"""Checks that malformed flags are refused, not silently reinterpreted.

Usage: bad_flags.py PTBSIM [BENCH_TABLE1]

Each case runs one binary with one bad flag (plus a tiny workload, so a
regression that accepts the flag finishes quickly instead of hanging the
suite). A case passes only if the binary exits with code 2 and its stderr
names the flag; any other exit code, a crash included, fails the test.
"""

import subprocess
import sys

TINY = ["--n=64", "--procs=2", "--warmup=0", "--steps=1"]


def cases(ptbsim, bench_table1):
    yield [ptbsim, "--n=2k"] + TINY[1:], "--n"
    yield [ptbsim, "--csv=on"] + TINY, "--csv"
    yield [ptbsim, "--partitioner=ORB"] + TINY, "--partitioner"
    # Well-formed numbers out of the flag's range: each used to crash (SIGFPE,
    # an uncaught std::length_error) or run something other than asked (int
    # narrowing ran n=64; a negative theta squared to a positive one).
    yield [ptbsim, "--procs=0", "--n=64"] + TINY[2:], "--procs"
    yield [ptbsim, "--procs=-3", "--n=64"] + TINY[2:], "--procs"
    yield [ptbsim, "--n=4294967360"] + TINY[1:], "--n"
    yield [ptbsim, "--theta=-1"] + TINY, "--theta"
    if bench_table1 is not None:
        yield [bench_table1, "--race", "--sizes=64", "--procs=2", "--warmup=0",
               "--steps=1"], "--race"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    ptbsim = sys.argv[1]
    bench_table1 = sys.argv[2] if len(sys.argv) == 3 else None
    failed = 0
    for cmd, flag in cases(ptbsim, bench_table1):
        print("+", " ".join(cmd), flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 2 or flag not in proc.stderr:
            print(proc.stderr, file=sys.stderr)
            print(f"FAIL: exit {proc.returncode} (want 2), stderr "
                  f"{'names' if flag in proc.stderr else 'does not name'} {flag}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
