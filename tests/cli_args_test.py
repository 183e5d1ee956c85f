#!/usr/bin/env python3
"""Table-driven CLI argument-parsing regression test.

Usage:
  cli_args_test.py <qikey-binary> <qikey-gen-binary> <golden-csv-dir>

Covers every flag's reject paths and the documented exit codes:
  0 success
  1 load/runtime error (missing CSV, malformed --requests file)
  2 usage error (garbage or out-of-range flag values, unknown flags)
  3 discover verification failure (emitted key rejected by the filter)

Every numeric flag must parse strictly: garbage ("banana"), partial
numbers ("3x"), out-of-range values, and NaN must exit 2 with a message
on stderr — never be silently coerced to 0 (the old atoi/atof behavior,
where `--eps 0` then fed the Θ(m/ε) pair-count computation).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading


def run(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    qikey, qikey_gen, golden_dir = sys.argv[1:4]
    people = os.path.join(golden_dir, "people.csv")

    tmp = tempfile.mkdtemp(prefix="qikey_cli_args_")
    # Two identical rows: no attribute set separates them, so discover's
    # verify stage deterministically rejects the emitted key -> exit 3.
    unkeyable = os.path.join(tmp, "unkeyable.csv")
    with open(unkeyable, "w") as f:
        f.write("a,b\nsame,same\nsame,same\n")
    good_requests = os.path.join(tmp, "good_requests.txt")
    with open(good_requests, "w") as f:
        f.write("# comment\nis-key first,last\nmin-key\n")
    bad_requests = os.path.join(tmp, "bad_requests.txt")
    with open(bad_requests, "w") as f:
        f.write("min-key\nis-key no_such_column\n")
    out_csv = os.path.join(tmp, "gen_out.csv")
    snap_file = os.path.join(tmp, "people.qsnp")
    missing_snap = os.path.join(tmp, "missing.qsnp")
    # Right magic, garbage body: inspect must diagnose it, exit 2.
    not_snap = os.path.join(tmp, "not_a_snapshot.qsnp")
    with open(not_snap, "wb") as f:
        f.write(b"QSNP1\x00\x00\x00 but then garbage all the way down")

    # (binary, args, expected exit code, required stderr substring)
    cases = [
        # --- success paths ---
        (qikey, ["discover", people, "--eps", "0.01"], 0, None),
        (qikey, ["discover", people, "--eps", "5e-3", "--seed", "7"], 0,
         None),
        (qikey, ["query", people, "--requests", good_requests], 0, None),
        # keys runs exact UCC enumeration, which admits eps = 0
        (qikey, ["keys", people, "--eps", "0"], 0, None),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--m", "4",
                     "--q", "5"], 0, None),
        # --- exit 1: load/runtime errors ---
        (qikey, ["discover", os.path.join(tmp, "missing.csv")], 1,
         "cannot load"),
        # a directory is a load error, not an abort
        (qikey, ["discover", tmp], 1, "is a directory"),
        (qikey, ["query", tmp, "--requests", good_requests], 1,
         "is a directory"),
        # the sliding-buffer (out-of-core) reader names it too
        (qikey, ["discover", tmp, "--memory-budget", "8"], 1,
         "is a directory"),
        (qikey, ["query", people, "--requests",
                 os.path.join(tmp, "missing_requests.txt")], 1,
         "cannot load"),
        (qikey, ["query", people, "--requests", bad_requests], 1, "line 2"),
        # --- exit 3: verification failure ---
        (qikey, ["discover", unkeyable], 3, "verification failed"),
        # --- exit 2: command-level usage errors ---
        (qikey, [], 2, None),
        (qikey, ["frobnicate", people], 2, None),
        (qikey, ["discover", people, "--frobnicate", "1"], 2,
         "unknown flag"),
        (qikey, ["discover", people, "--eps"], 2, "missing its value"),
        (qikey, ["query", people], 2, "--attrs"),
        (qikey, ["afd", people], 2, "--rhs"),
        (qikey, ["discover", people, "--backend", "bogus"], 2,
         "unknown backend"),
        # the retired mx-pair backend is an unknown name like any other
        (qikey, ["discover", people, "--backend", "mx"], 2,
         "want tuple|bitset"),
        (qikey, ["snapshot", "save", people, "--backend", "mx", "--out",
                 os.path.join(tmp, "mx.qsnp")], 2, "unknown backend"),
        # --- exit 2: strict numeric parsing, flag by flag ---
        # --eps must be a number in (0, 1)
        (qikey, ["discover", people, "--eps", "0"], 2, "must be"),
        (qikey, ["discover", people, "--eps", "1"], 2, "must be"),
        (qikey, ["discover", people, "--eps", "-0.5"], 2, "must be"),
        (qikey, ["discover", people, "--eps", "banana"], 2, "must be"),
        (qikey, ["discover", people, "--eps", "nan"], 2, "must be"),
        (qikey, ["discover", people, "--eps", "inf"], 2, "must be"),
        (qikey, ["discover", people, "--eps", "0.5x"], 2, "must be"),
        # --max-size
        (qikey, ["keys", people, "--max-size", "0"], 2, "must be"),
        (qikey, ["keys", people, "--max-size", "-1"], 2, "must be"),
        (qikey, ["keys", people, "--max-size", "banana"], 2, "must be"),
        (qikey, ["keys", people, "--max-size", "2.5"], 2, "must be"),
        # --error (afd threshold) in [0, 1]
        (qikey, ["afd", people, "--rhs", "age", "--error", "-0.1"], 2,
         "must be"),
        (qikey, ["afd", people, "--rhs", "age", "--error", "2"], 2,
         "must be"),
        (qikey, ["afd", people, "--rhs", "age", "--error", "banana"], 2,
         "must be"),
        # --seed
        (qikey, ["discover", people, "--seed", "banana"], 2, "must be"),
        (qikey, ["discover", people, "--seed", "-1"], 2, "must be"),
        # strtoull skips whitespace and wraps negatives; the parser must
        # not let " -1" become 2^64-1
        (qikey, ["discover", people, "--seed", " -1"], 2, "must be"),
        (qikey, ["discover", people, "--seed", "1.5"], 2, "must be"),
        # --k
        (qikey, ["anonymize", people, "--attrs", "city", "--k", "0"], 2,
         "must be"),
        (qikey, ["anonymize", people, "--attrs", "city", "--k", "banana"],
         2, "must be"),
        # --suppress in [0, 1]
        (qikey, ["anonymize", people, "--attrs", "city", "--suppress",
                 "-0.1"], 2, "must be"),
        (qikey, ["anonymize", people, "--attrs", "city", "--suppress",
                 "1.5"], 2, "must be"),
        (qikey, ["anonymize", people, "--attrs", "city", "--suppress",
                 "nan"], 2, "must be"),
        # --threads
        (qikey, ["discover", people, "--threads", "-1"], 2, "must be"),
        (qikey, ["discover", people, "--threads", "99999"], 2, "must be"),
        (qikey, ["discover", people, "--threads", "banana"], 2, "must be"),
        # --window
        (qikey, ["monitor", people, "--window", "banana"], 2, "must be"),
        (qikey, ["monitor", people, "--window", "-2"], 2, "must be"),
        # --shards / --cache (counted flags)
        (qikey, ["discover", people, "--shards", "banana"], 2, "must be"),
        (qikey, ["discover", people, "--shards", "-1"], 2, "must be"),
        # --shard-rows bounded the old chunked ingest; it is gone
        (qikey, ["discover", people, "--shard-rows", "256"], 2,
         "unknown flag"),
        (qikey, ["query", people, "--cache", "banana"], 2, "must be"),
        # --memory-budget
        (qikey, ["discover", people, "--memory-budget", "-1"], 2,
         "must be"),
        (qikey, ["discover", people, "--memory-budget", "banana"], 2,
         "must be"),
        (qikey, ["discover", people, "--memory-budget", "nan"], 2,
         "must be"),
        # --stats-interval-sec
        (qikey, ["serve", people, "--stats-interval-sec", "banana"], 2,
         "must be"),
        (qikey, ["serve", people, "--stats-interval-sec", "-1"], 2,
         "must be"),
        (qikey, ["serve", people, "--stats-interval-sec"], 2,
         "missing its value"),
        # --trace-sample: N or 1/N, strictly numeric either way
        (qikey, ["serve", people, "--trace-sample", "banana"], 2,
         "must be"),
        (qikey, ["serve", people, "--trace-sample", "-5"], 2, "must be"),
        (qikey, ["serve", people, "--trace-sample", "1/"], 2, "must be"),
        (qikey, ["serve", people, "--trace-sample", "1/banana"], 2,
         "must be"),
        (qikey, ["serve", people, "--trace-sample", "2/3"], 2, "must be"),
        # --stats with the engine metrics snapshot appended as JSON
        (qikey, ["query", people, "--requests", good_requests, "--stats"],
         0, None),
        # --- qikey snapshot save / inspect (order matters: the save
        # case writes the file the inspect-success case reads) ---
        (qikey, ["snapshot", "save", people, "--out", snap_file], 0, None),
        (qikey, ["snapshot", "inspect", snap_file], 0, None),
        (qikey, ["snapshot"], 2, None),
        (qikey, ["snapshot", "save"], 2, None),
        (qikey, ["snapshot", "frobnicate", people], 2, "save|inspect"),
        (qikey, ["snapshot", "save", people], 2, "--out"),
        (qikey, ["snapshot", "save", people, "--out", snap_file, "--eps",
                 "banana"], 2, "must be"),
        (qikey, ["snapshot", "save", os.path.join(tmp, "missing.csv"),
                 "--out", snap_file + ".tmp"], 1, "cannot build snapshot"),
        (qikey, ["snapshot", "save", tmp, "--out", snap_file + ".tmp"], 1,
         "is a directory"),
        # malformed / missing artifacts: exit 2 with a diagnosis
        (qikey, ["snapshot", "inspect", not_snap], 2, None),
        (qikey, ["snapshot", "inspect", missing_snap], 2, None),
        # --- qikey serve --snapshot-file plumbing ---
        (qikey, ["serve"], 2, None),
        (qikey, ["serve", "--snapshot-file"], 2, "missing its value"),
        (qikey, ["serve", people, "--snapshot-file", snap_file], 2,
         "not both"),
        (qikey, ["serve", "--snapshot-file", missing_snap], 1,
         "cannot build snapshot"),
        # --- qikey-gen strict parsing ---
        (qikey_gen, [], 2, None),
        (qikey_gen, ["grid", "--rows", "50"], 2, "--out"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "banana"], 2,
         "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "0"], 2,
         "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "-5"], 2,
         "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--m",
                     "banana"], 2, "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--m", "0"],
         2, "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--q",
                     "1.5"], 2, "must be"),
        (qikey_gen, ["clique", "--out", out_csv, "--rows", "50", "--eps",
                     "0"], 2, "must be"),
        (qikey_gen, ["clique", "--out", out_csv, "--rows", "50", "--eps",
                     "banana"], 2, "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--seed",
                     "banana"], 2, "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--seed",
                     " -1"], 2, "must be"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50",
                     "--frobnicate", "1"], 2, "unknown flag"),
        (qikey_gen, ["grid", "--out", out_csv, "--rows", "50", "--seed"],
         2, "missing its value"),
    ]

    failures = []
    for binary, args, want_exit, want_stderr in cases:
        code, out, err = run([binary] + args)
        label = " ".join([os.path.basename(binary)] + args)
        if code != want_exit:
            failures.append(
                f"{label}\n  exit {code}, want {want_exit}\n"
                f"  stdout: {out.strip()[:200]}\n"
                f"  stderr: {err.strip()[:200]}")
        elif want_stderr is not None and want_stderr not in err:
            failures.append(
                f"{label}\n  stderr missing {want_stderr!r}\n"
                f"  stderr: {err.strip()[:200]}")
        # Usage errors must say SOMETHING on stderr.
        elif want_exit == 2 and not err.strip():
            failures.append(f"{label}\n  exit 2 with empty stderr")

    # A FIFO is read once: the sharded build must plan and walk its
    # ranges over that one read. Opening the path again blocks forever
    # in open(2), waiting for a writer that has already gone.
    for mode in (["--shards", "2"], ["--memory-budget", "8"]):
        fifo = os.path.join(tmp, "people.fifo")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as out, open(people) as src:
                shutil.copyfileobj(src, out)

        threading.Thread(target=feed, daemon=True).start()
        label = " ".join(["qikey", "discover", fifo] + mode)
        try:
            proc = subprocess.run([qikey, "discover", fifo] + mode,
                                  capture_output=True, text=True, timeout=20)
            if proc.returncode != 0 or "{last}" not in proc.stdout:
                failures.append(
                    f"{label}\n  exit {proc.returncode}, want 0 and key "
                    f"{{last}}\n  stdout: {proc.stdout.strip()[:200]}\n"
                    f"  stderr: {proc.stderr.strip()[:200]}")
        except subprocess.TimeoutExpired:
            failures.append(f"{label}\n  hung (killed after 20 s)")
        os.remove(fifo)

    # The same bad input gets the same error on every discover path: in
    # memory (sample-first), --shards and --memory-budget print the one
    # line `cannot load PATH: STATUS`, and `snapshot save`, which reads
    # the CSV as in-memory discover does, prints the same status. A
    # record of the wrong width is numbered as the loader numbers it,
    # blank records and the header counted.
    ragged = os.path.join(tmp, "ragged.csv")
    with open(ragged, "w") as f:
        f.write("a,b\n1,2\n1,2,3\n4,5\n")
    ragged_blank = os.path.join(tmp, "ragged_blank.csv")
    with open(ragged_blank, "w") as f:
        f.write("a,b\n1,2\n\n1,2,3\n4,5\n")
    one_row = os.path.join(tmp, "one_row.csv")
    with open(one_row, "w") as f:
        f.write("a,b\n1,2\n")
    empty = os.path.join(tmp, "empty.csv")
    open(empty, "w").close()
    modes = ([], ["--shards", "2"], ["--memory-budget", "8"])
    same_error_cases = [
        (ragged, "InvalidArgument: CSV record 3 has 3 fields, expected 2"),
        (ragged_blank,
         "InvalidArgument: CSV record 4 has 3 fields, expected 2"),
        (one_row, "InvalidArgument: need at least two rows"),
        (empty, "InvalidArgument: need at least two rows"),
    ]
    for path, status in same_error_cases:
        want = f"cannot load {path}: {status}"
        for mode in modes:
            code, out, err = run([qikey, "discover", path] + mode)
            label = " ".join(["qikey", "discover", path] + mode)
            if code != 1 or err.strip() != want:
                failures.append(f"{label}\n  exit {code}, want 1 and "
                                f"{want!r}\n  stderr: {err.strip()[:200]}")
        for backend in ("tuple", "bitset"):
            save = ["snapshot", "save", path, "--backend", backend,
                    "--out", os.path.join(tmp, "bad.qsnp")]
            code, out, err = run([qikey] + save)
            if code != 1 or status not in err:
                failures.append(f"qikey {' '.join(save)}\n  exit {code}, "
                                f"want 1 and {status!r}\n"
                                f"  stderr: {err.strip()[:200]}")

    # A served bitset image reports how many of the pairs its sample
    # drew it stores: the minimal masks, at most all of them.
    bitset_snap = os.path.join(tmp, "people_bitset.qsnp")
    run([qikey, "snapshot", "save", people, "--backend", "bitset",
         "--eps", "0.01", "--out", bitset_snap])
    code, out, err = run([qikey, "snapshot", "inspect", bitset_snap])
    try:
        info = json.loads(out)
        if not (info["backend"] == "bitset" and
                0 < info["evidence_pairs"] <= info["source_pairs"] and
                info["source_pairs"] == info["declared_sample_size"]):
            failures.append(f"snapshot inspect {bitset_snap}\n  evidence "
                            f"counts inconsistent: {out.strip()[:300]}")
    except (ValueError, KeyError) as e:
        failures.append(f"snapshot inspect {bitset_snap}\n  exit {code}, "
                        f"no evidence counts ({e}): {out.strip()[:300]}")

    checked = len(cases) + 4 + (len(modes) + 2) * len(same_error_cases)
    shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        print(f"{len(failures)} of {checked} case(s) failed:\n")
        print("\n\n".join(failures))
        return 1
    print(f"ok: all {checked} CLI argument cases behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
