#!/usr/bin/env python3
"""Fails if the qikey library archive mentions MxPairFilter.

Usage: oracle_not_in_libqikey_test.py <path/to/libqikey.a>

MxPairFilter is the tests' value-comparing oracle and the benches'
Table-1 baseline; it is built into the qikey_oracles support library,
never into libqikey. Lists `nm -C` lines naming it (defined or
undefined) and exits 1 if there are any; exits 77 (skip) without nm.
"""

import shutil
import subprocess
import sys


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    nm = shutil.which("nm")
    if nm is None:
        print("nm not found; skipping")
        return 77
    out = subprocess.run([nm, "-C", sys.argv[1]], capture_output=True,
                         text=True, check=True).stdout
    hits = [line for line in out.splitlines() if "MxPairFilter" in line]
    for line in hits:
        print(line)
    if hits:
        print(f"libqikey mentions MxPairFilter {len(hits)} time(s)")
        return 1
    print("libqikey has no MxPairFilter symbol")
    return 0


if __name__ == "__main__":
    sys.exit(main())
