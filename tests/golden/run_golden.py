#!/usr/bin/env python3
"""Golden end-to-end regression driver for `qikey discover`.

Usage:
  run_golden.py <qikey-binary> <csv> <expected-file> [--update]

Runs the CLI on the CSV with every filter backend (fixed seed), extracts
the emitted minimal key and the verify verdict from the report, and
diffs them against the committed expectation:

    tuple: {first, last} ACCEPT
    bitset: {first, last} ACCEPT

Any drift in the discovered frontier — from filter, greedy, minimize, or
backend changes — fails the test. `--update` rewrites the expected file
from the current output (for intentional changes; review the diff).
"""

import re
import subprocess
import sys

BACKENDS = ["tuple", "bitset"]
SEED = "1"
EPS = "0.01"


def discover(binary, csv, backend):
    proc = subprocess.run(
        [binary, "discover", csv, "--backend", backend, "--seed", SEED,
         "--eps", EPS],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{backend}: exit {proc.returncode}\nstdout:\n{proc.stdout}"
            f"\nstderr:\n{proc.stderr}"
        )
    key = re.search(r"^\s+(\{.*\})$", proc.stdout, re.MULTILINE)
    verdict = re.search(r"verify: (ACCEPT|REJECT)", proc.stdout)
    if key is None or verdict is None:
        raise RuntimeError(f"{backend}: cannot parse report:\n{proc.stdout}")
    return f"{backend}: {key.group(1)} {verdict.group(1)}"


def main():
    if len(sys.argv) < 4:
        print(__doc__)
        return 2
    binary, csv, expected_path = sys.argv[1:4]
    update = "--update" in sys.argv[4:]

    actual = [discover(binary, csv, backend) for backend in BACKENDS]
    if update:
        with open(expected_path, "w") as f:
            f.write("\n".join(actual) + "\n")
        print(f"updated {expected_path}")
        return 0

    with open(expected_path) as f:
        expected = [line.rstrip("\n") for line in f if line.strip()]
    if actual != expected:
        print(f"golden mismatch for {csv}")
        for got, want in zip(actual + [""] * len(expected),
                             expected + [""] * len(actual)):
            marker = "  " if got == want else "! "
            print(f"{marker}got:  {got}\n{marker}want: {want}")
        print("(intentional change? re-run with --update and commit)")
        return 1
    print(f"ok: {csv} matches {expected_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
