#!/usr/bin/env python3
"""qikey project invariant linter.

Enforces the repo's determinism and robustness house rules — the ones a
compiler cannot check and reviewers keep re-litigating:

  QL001 unchecked-number-parse
      atoi/atol/atoll/atof are banned everywhere outside src/util/
      (they return 0 on garbage, indistinguishable from a real 0), and
      the strtol/strtod family must pass a real end-pointer, never
      nullptr — parse errors must be detectable. Use
      src/util/flag_parse.h for argv, tools/qikey_cli.cc-style strict
      loops elsewhere.

  QL002 unseeded-randomness
      rand()/srand()/std::random_device are banned outside
      src/util/rng.*. Every random choice must flow from a seeded
      qikey::Rng so any run is reproducible from its seed.

  QL003 unordered-iteration-feeds-output
      Iterating a std::unordered_map/unordered_set inside a function
      that also serializes (ByteWriter / JSON writer / Serialize) is
      banned: hash-order would leak into wire bytes or rendered JSON
      and break byte-for-byte determinism. Copy into a sorted/std::map
      container first (see MetricsSnapshot), or key the loop on an
      ordered structure.

  QL004 naked-new
      `new` may appear only in the same statement as a smart-pointer
      adoption (unique_ptr/shared_ptr construction or .reset). A raw
      owning pointer has no exception-safe owner.

  QL005 raw-stderr
      Inside src/ (except src/util/, which implements the logger),
      fprintf(stderr)/std::cerr/perror are banned: concurrent writers
      interleave partial lines. Log through QIKEY_LOG / WriteRawLine,
      whose single write(2) keeps every line atomic.

  QL006 pair-sample-home
      Inside src/, `SamplePair(` may be called only from
      src/stream/pair_slots.cc (the one pair-slot draw), src/util/rng.*
      (which defines it) and src/monitor/incremental_filter.cc (whose
      window slide draws its own pairs). Every other pair sample goes
      through DrawPairSlots, PairReservoir or MergePairSlots, so a
      sampling change is made and checked in one place. And
      core/mx_pair_filter.h — the test-and-bench oracle, not part of
      libqikey — may not be included from src/, tools/ or examples/.

  QL007 tuple-sample-home
      Inside src/, `SampleWithoutReplacement(` may be called only from
      src/stream/tuple_sample.cc (the one tuple draw and merge),
      src/util/rng.* (which defines it), src/core/attribute_set.cc
      (random attribute subsets, not tuples) and src/data/generators/
      (synthetic tables). Every other tuple sample goes through
      DrawTupleSample or MergeTupleSamples.

  QL008 mapped-file-home
      Inside src/, `mmap(` and `munmap(` may appear only in
      src/util/mapped_file.cc. Every file mapping goes through
      MappedFile or FileText, so the mapping's checks (regular file,
      size, unmap on every path) live in one place.

Scope: src/, tools/, bench/, examples/, fuzz/ (*.h, *.cc, *.cpp) of the
tree given by --root (default: this script's checkout); the path rules
read paths relative to that root. Findings print as
`path:line: QLxxx: message`; exit 1 if any.

Fixtures/self-test: a file may carry `// LINT-PATH: virtual/path.cc`
(the path rules are evaluated against) and `// EXPECT-LINT: QLxxx`
lines. `--self-test` runs every file in tests/lint_fixtures/ and
checks the findings match the expectations exactly — the linter's own
regression suite (registered in ctest as qikey_lint_self_test).
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "tools", "bench", "examples", "fuzz")
EXTENSIONS = (".h", ".cc", ".cpp")

ATOI_RE = re.compile(r"\b(atoi|atol|atoll|atof)\s*\(")
STRTO_RE = re.compile(r"\b(strtol|strtoll|strtoul|strtoull|strtof|strtod|strtold)\s*\(")
RAND_RE = re.compile(r"\b(rand|srand)\s*\(|\brandom_device\b")
STDERR_RE = re.compile(
    r"fprintf\s*\(\s*stderr|\bfputs\s*\([^;]*\bstderr\b|std::cerr|\bperror\s*\("
)
NEW_RE = re.compile(r"\bnew\b")
SAMPLE_PAIR_RE = re.compile(r"\bSamplePair\s*\(")
SAMPLE_PAIR_HOMES = ("src/stream/pair_slots.cc", "src/util/rng.",
                     "src/monitor/incremental_filter.cc")
SAMPLE_WOR_RE = re.compile(r"\bSampleWithoutReplacement\s*\(")
SAMPLE_WOR_HOMES = ("src/stream/tuple_sample.cc", "src/util/rng.",
                    "src/core/attribute_set.cc", "src/data/generators/")
MMAP_RE = re.compile(r"\b(mmap|munmap)\s*\(")
MMAP_HOME = "src/util/mapped_file.cc"
MX_INCLUDE_RE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*[<"](?:[^<>"]*/)?core/mx_pair_filter\.h[>"]',
    re.M)
ORACLE_FREE_DIRS = ("src/", "tools/", "examples/")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;(){}]*?>\s*(?:&\s*)?([A-Za-z_]\w*)\s*"
    r"(?:;|=|\{|,|\))",
    re.S,
)
# Serialization markers: a function containing one of these feeds the
# wire format or rendered JSON. Deliberately narrow — serve shard
# functions iterate conns_ for bookkeeping and must not trip the rule.
OUTPUT_MARKERS = ("ByteWriter", "AppendJson", "RenderJson", "JsonWriter",
                  "Serialize(")

SMART_ADOPTION = ("unique_ptr", "shared_ptr", "make_unique", "make_shared",
                  ".reset(", "WrapUnique")

LINT_PATH_RE = re.compile(r"//\s*LINT-PATH:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*(QL\d{3})")


def strip_code(text):
    """Blanks comments and string/char literals, preserving newlines and
    column positions, so findings keep real line numbers and literal
    contents cannot trip the rules."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim"
            j = i + 2
            while j < n and text[j] != "(":
                j += 1
            delim = text[i + 2:j]
            close = ")" + delim + '"'
            end = text.find(close, j)
            end = n if end == -1 else end + len(close)
            for k in range(i, end):
                out.append("\n" if text[k] == "\n" else " ")
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def call_args(text, open_paren):
    """Splits the argument list of the call whose '(' is at
    `open_paren` into top-level comma-separated pieces."""
    depth = 0
    args = []
    current = []
    i = open_paren
    while i < len(text):
        c = text[i]
        if c in "([{":
            depth += 1
            if depth > 1:
                current.append(c)
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current).strip())
                return args
            current.append(c)
        elif c == "," and depth == 1:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(c)
        i += 1
    return args


def statement_around(text, offset):
    """The statement containing `offset`: from the previous ;/{/} to the
    next ; — the window QL004 checks for a smart-pointer adoption."""
    begin = max(text.rfind(";", 0, offset), text.rfind("{", 0, offset),
                text.rfind("}", 0, offset)) + 1
    end = text.find(";", offset)
    end = len(text) if end == -1 else end
    return text[begin:end]


def function_bodies(text):
    """Yields (start, end) offsets of brace-matched blocks that look
    like function bodies: a '{' preceded by ')' plus optional
    qualifiers. Nested blocks are part of their enclosing body."""
    qualifier = re.compile(
        r"\)\s*(?:const|noexcept|override|final|->\s*[\w:<>,&*\s]+|\s)*\{")
    for match in qualifier.finditer(text):
        start = match.end() - 1
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    yield start, i + 1
                    break


def paired_header_text(path):
    base, ext = os.path.splitext(path)
    if ext != ".cc":
        return ""
    header = base + ".h"
    if os.path.exists(header):
        with open(header, encoding="utf-8", errors="replace") as fp:
            return strip_code(fp.read())
    return ""


def base_identifier(expr):
    """The container identifier of a range-for expression: strips
    this->, dereferences, and trailing calls ('*state->conns_',
    'shard.index' -> 'index')."""
    expr = expr.strip().rstrip(")")
    expr = re.sub(r"\(.*$", "", expr)
    for sep in ("->", "."):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr.strip().lstrip("*&").strip()


class Findings:
    def __init__(self):
        self.items = []  # (path, line, rule, message)

    def add(self, path, line, rule, message):
        self.items.append((path, line, rule, message))


def lint_text(stripped, virtual_path, findings, header_stripped="",
              original=""):
    under = lambda prefix: virtual_path.startswith(prefix)
    in_util = under("src/util/")

    # QL001 ---------------------------------------------------------
    if not in_util:
        for match in ATOI_RE.finditer(stripped):
            findings.add(virtual_path, line_of(stripped, match.start()),
                         "QL001",
                         f"{match.group(1)}() cannot report parse errors; "
                         "use util/flag_parse.h or strtoll with an "
                         "end-pointer check")
        for match in STRTO_RE.finditer(stripped):
            args = call_args(stripped, stripped.find("(", match.start()))
            if len(args) >= 2 and args[1] in ("nullptr", "NULL", "0"):
                findings.add(virtual_path, line_of(stripped, match.start()),
                             "QL001",
                             f"{match.group(1)}() with a null end-pointer "
                             "swallows trailing garbage; pass a real "
                             "end-pointer and check it")

    # QL002 ---------------------------------------------------------
    if not under("src/util/rng"):
        for match in RAND_RE.finditer(stripped):
            findings.add(virtual_path, line_of(stripped, match.start()),
                         "QL002",
                         "unseeded randomness breaks run-to-run "
                         "reproducibility; draw from a seeded qikey::Rng")

    # QL003 ---------------------------------------------------------
    unordered_names = set(UNORDERED_DECL_RE.findall(stripped))
    unordered_names.update(UNORDERED_DECL_RE.findall(header_stripped))
    if unordered_names:
        for begin, end in function_bodies(stripped):
            body = stripped[begin:end]
            # Markers usually sit in the signature (a ByteWriter* or
            # JsonWriter* parameter), so scan it along with the body.
            sig_start = max(stripped.rfind(";", 0, begin),
                            stripped.rfind("{", 0, begin),
                            stripped.rfind("}", 0, begin)) + 1
            searchable = stripped[sig_start:begin] + body
            if not any(marker in searchable for marker in OUTPUT_MARKERS):
                continue
            for match in RANGE_FOR_RE.finditer(body):
                args = call_args(body, body.find("(", match.start()))
                if len(args) != 1 or ":" not in args[0]:
                    continue  # classic for, not range-for
                container = base_identifier(args[0].rsplit(":", 1)[1])
                if container in unordered_names:
                    findings.add(
                        virtual_path,
                        line_of(stripped, begin + match.start()), "QL003",
                        f"iterating unordered container '{container}' in a "
                        "function that serializes output makes wire/JSON "
                        "bytes depend on hash order; iterate a sorted copy")

    # QL004 ---------------------------------------------------------
    for match in NEW_RE.finditer(stripped):
        statement = statement_around(stripped, match.start())
        if any(tok in statement for tok in SMART_ADOPTION):
            continue
        if re.search(r"\bnew\s*\(", statement):
            continue  # placement new manages no ownership
        findings.add(virtual_path, line_of(stripped, match.start()), "QL004",
                     "naked new: adopt the allocation into a "
                     "unique_ptr/shared_ptr in the same statement")

    # QL005 ---------------------------------------------------------
    if under("src/") and not in_util:
        for match in STDERR_RE.finditer(stripped):
            findings.add(virtual_path, line_of(stripped, match.start()),
                         "QL005",
                         "raw stderr writes interleave under concurrency; "
                         "use QIKEY_LOG / WriteRawLine (single write(2) "
                         "per line)")

    # QL006 ---------------------------------------------------------
    if under("src/") and not any(under(home) for home in SAMPLE_PAIR_HOMES):
        for match in SAMPLE_PAIR_RE.finditer(stripped):
            findings.add(virtual_path, line_of(stripped, match.start()),
                         "QL006",
                         "pair samples are drawn in stream/pair_slots.cc "
                         "only; call DrawPairSlots, PairReservoir or "
                         "MergePairSlots")
    if any(under(prefix) for prefix in ORACLE_FREE_DIRS):
        # Include paths are string literals, which `stripped` blanks;
        # the pattern is anchored to a directive line of the original.
        for match in MX_INCLUDE_RE.finditer(original):
            findings.add(virtual_path, line_of(original, match.start()),
                         "QL006",
                         "core/mx_pair_filter.h is the test-and-bench "
                         "oracle, not part of libqikey; use "
                         "BitsetSeparationFilter")


    # QL007 ---------------------------------------------------------
    if under("src/") and not any(under(home) for home in SAMPLE_WOR_HOMES):
        for match in SAMPLE_WOR_RE.finditer(stripped):
            findings.add(virtual_path, line_of(stripped, match.start()),
                         "QL007",
                         "tuple samples are drawn in stream/tuple_sample.cc "
                         "only; call DrawTupleSample or MergeTupleSamples")

    # QL008 ---------------------------------------------------------
    if under("src/") and virtual_path != MMAP_HOME:
        for match in MMAP_RE.finditer(stripped):
            findings.add(virtual_path, line_of(stripped, match.start()),
                         "QL008",
                         f"{match.group(1)}() belongs in util/mapped_file.cc "
                         "only; map files through MappedFile or FileText")


def lint_file(path, root, findings):
    with open(path, encoding="utf-8", errors="replace") as fp:
        original = fp.read()
    virtual = None
    match = LINT_PATH_RE.search(original)
    if match:
        virtual = match.group(1)
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    stripped = strip_code(original)
    lint_text(stripped, virtual or rel, findings,
              paired_header_text(path), original)


def discover_files(root):
    files = []
    for dirname in SCAN_DIRS:
        top = os.path.join(root, dirname)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def self_test(root):
    fixtures_dir = os.path.join(root, "tests", "lint_fixtures")
    failures = 0
    ran = 0
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(EXTENSIONS):
            continue
        path = os.path.join(fixtures_dir, name)
        with open(path, encoding="utf-8", errors="replace") as fp:
            original = fp.read()
        expected = sorted(EXPECT_RE.findall(original))
        findings = Findings()
        lint_file(path, root, findings)
        actual = sorted(rule for _, _, rule, _ in findings.items)
        ran += 1
        if actual != expected:
            failures += 1
            print(f"SELF-TEST FAIL {name}: expected {expected or 'clean'}, "
                  f"got {actual or 'clean'}")
            for _, line, rule, message in findings.items:
                print(f"    {name}:{line}: {rule}: {message}")
    if failures:
        print(f"self-test: {failures}/{ran} fixture(s) failed")
        return 1
    print(f"self-test: {ran} fixture(s) passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT)
    parser.add_argument(
        "--self-test", action="store_true",
        help="lint tests/lint_fixtures/ and compare against EXPECT-LINT")
    parser.add_argument("files", nargs="*",
                        help="lint only these files (default: full scope)")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    files = args.files or discover_files(args.root)
    findings = Findings()
    for path in files:
        lint_file(path, args.root, findings)
    for path, line, rule, message in sorted(findings.items):
        print(f"{path}:{line}: {rule}: {message}")
    if findings.items:
        print(f"qikey_lint: {len(findings.items)} violation(s)")
        return 1
    print(f"qikey_lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
