#!/usr/bin/env python3
"""Checks that `qikey_lint.py --root DIR` applies the path rules to DIR.

Usage: qikey_lint_root_test.py <path/to/qikey_lint.py>

Builds two one-file trees in a temporary directory, outside the
linter's own checkout, and lints each with --root:
  - a tuple draw in src/core/ (a QL007 violation) must exit 1 and name
    src/core/draw.cc;
  - the same draw in its home, src/stream/tuple_sample.cc, must exit 0.
Both verdicts depend on reading each path relative to --root.
"""

import os
import subprocess
import sys
import tempfile

DRAW = """#include <cstdint>
#include <vector>

#include "util/rng.h"

std::vector<uint64_t> Draw(uint64_t n, uint64_t r, qikey::Rng* rng) {
  return rng->SampleWithoutReplacement(n, r);
}
"""


def lint_tree(linter, rel_path):
    """Lints a tree holding DRAW at `rel_path`; returns (exit, output)."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, rel_path)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(DRAW)
        run = subprocess.run([sys.executable, linter, "--root", root],
                             capture_output=True, text=True, check=False)
        return run.returncode, run.stdout + run.stderr


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    linter = sys.argv[1]
    failures = 0
    code, out = lint_tree(linter, os.path.join("src", "core", "draw.cc"))
    print(out, end="")
    if code != 1 or "src/core/draw.cc:7: QL007" not in out:
        print(f"FAIL: a draw in src/core/ gave exit {code}, want 1 and a "
              "QL007 finding at src/core/draw.cc:7")
        failures += 1
    code, out = lint_tree(linter,
                          os.path.join("src", "stream", "tuple_sample.cc"))
    print(out, end="")
    if code != 0:
        print(f"FAIL: a draw in its home gave exit {code}, want 0")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
