#!/usr/bin/env python3
"""Runs one entry-point binary once per tree-building algorithm.

Usage: all_algorithms.py EXE [ARGS...]

The algorithm names are read from EXE's own --help line for --algorithm,
which the binary fills from all_algorithms() (algorithm_names_joined), so a
new builder is smoked here without touching this script. Each run gets
ARGS plus --algorithm=<name>; any non-zero exit fails the whole test.
"""

import re
import subprocess
import sys


def algorithm_names(exe):
    help_text = subprocess.run([exe, "--help"], capture_output=True, text=True,
                               check=True).stdout
    m = re.search(r"^\s*--algorithm\s.*?\s([A-Z]+(?:\|[A-Z]+)+)\s*$", help_text,
                  re.MULTILINE)
    if m is None:
        sys.exit(f"{exe}: no algorithm list in --help output")
    return m.group(1).split("|")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    exe, args = sys.argv[1], sys.argv[2:]
    names = algorithm_names(exe)
    failed = []
    for name in names:
        cmd = [exe] + args + [f"--algorithm={name}"]
        print("+", " ".join(cmd), flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
            print(f"FAIL: {name} exited {proc.returncode}")
            failed.append(name)
    print(f"{len(names) - len(failed)}/{len(names)} algorithms ran cleanly")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
