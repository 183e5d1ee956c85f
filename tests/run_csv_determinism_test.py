#!/usr/bin/env python3
"""Process-level determinism test of the sample-first snapshot save.

`qikey snapshot save` reads its CSV through `DiscoveryPipeline::Run(csv)`:
the file is indexed and width-checked in parallel chunks, and only the
sampled rows are encoded (the pair rows are compared in the text). On a
generated 100k-row covtype-like CSV, for each backend, this test

  1. saves the image three times at --threads 1, three times at
     --threads 4 and once pinned to a single CPU (so every parallel stage
     runs as one chunk), and requires byte-identical images;
  2. serves the image (`serve --snapshot-file`) and requires its is-key
     answers to equal `qikey query --wire`, which loads the whole table
     with `LoadCsvDataset`, on a few hundred attribute subsets;
  3. SIGTERMs the server and requires a clean exit.

Usage: run_csv_determinism_test.py <qikey-binary> <qikey-gen-binary>
"""

import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 300
ROWS = "100000"
EPS = "0.001"
SEED = "7"
REQUESTS = 300
BATCH = 16


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(argv, **kwargs):
    proc = subprocess.run(argv, capture_output=True, timeout=TIMEOUT_S,
                          **kwargs)
    if proc.returncode != 0:
        fail(f"{' '.join(argv)} exited {proc.returncode}: "
             f"{proc.stderr.decode()}")
    return proc.stdout


def one_cpu():
    """Pins the child to the lowest CPU it may run on."""
    cpus = sorted(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpus[0]})


def save_images(qikey, csv, backend, tmp):
    """The image bytes of every save: --threads 1 and 4, three each,
    then one pinned to a single CPU."""
    images = []
    plans = [("1", None)] * 3 + [("4", None)] * 3 + [("1", one_cpu())]
    for i, (threads, preexec) in enumerate(plans):
        out = os.path.join(tmp, f"{backend}{i}.qsnp")
        run([qikey, "snapshot", "save", csv, "--backend", backend, "--eps",
             EPS, "--seed", SEED, "--threads", threads, "--out", out],
            preexec_fn=preexec)
        with open(out, "rb") as f:
            images.append((f"--threads {threads}"
                           + (" on one CPU" if preexec else ""), f.read()))
    return images


def is_key_requests(csv):
    with open(csv) as f:
        names = f.readline().strip().split(",")
    rng = random.Random(11)
    lines = []
    for _ in range(REQUESTS):
        size = rng.randint(1, 4)
        lines.append("is-key " + ",".join(rng.sample(names, size)))
    return lines


def serve_answers(qikey, image, lines):
    server = subprocess.Popen(
        [qikey, "serve", "--snapshot-file", image, "--listen",
         "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        port = None
        deadline = time.time() + TIMEOUT_S
        while port is None and time.time() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                port = int(line.rsplit(":", 1)[1])
        if port is None:
            fail("server never announced its port")
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=TIMEOUT_S) as sock:
            f = sock.makefile("rw", newline="\n")
            if f.readline().strip() != "QIKEY/1 ready":
                fail("bad greeting")
            # Pipelined in batches the default per-connection queue
            # admits.
            answers = []
            for i in range(0, len(lines), BATCH):
                batch = lines[i:i + BATCH]
                f.write("\n".join(batch) + "\n")
                f.flush()
                answers += [f.readline().rstrip("\n") for _ in batch]
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=TIMEOUT_S)
        if code != 0:
            fail(f"server exited {code} after SIGTERM: "
                 f"{server.stderr.read()}")
        return answers
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <qikey-binary> <qikey-gen-binary>")
    qikey, qikey_gen = sys.argv[1:3]
    tmp = tempfile.mkdtemp(prefix="qikey_run_csv_determinism_")
    try:
        csv = os.path.join(tmp, "covtype.csv")
        run([qikey_gen, "covtype", "--out", csv, "--rows", ROWS, "--seed",
             "3"])
        lines = is_key_requests(csv)
        requests = os.path.join(tmp, "requests.txt")
        with open(requests, "w") as f:
            f.write("\n".join(lines) + "\n")
        for backend in ("bitset", "tuple"):
            images = save_images(qikey, csv, backend, tmp)
            first_label, first = images[0]
            for label, image in images[1:]:
                if image != first:
                    fail(f"{backend}: the image saved at {label} differs "
                         f"from the one at {first_label}")
            expected = run([qikey, "query", csv, "--requests", requests,
                            "--wire", "--backend", backend, "--eps", EPS,
                            "--seed", SEED]).decode().splitlines()
            served = serve_answers(qikey, os.path.join(tmp,
                                                       f"{backend}0.qsnp"),
                                   lines)
            if served != expected:
                diffs = [(r, s, e) for r, s, e in zip(lines, served, expected)
                         if s != e]
                fail(f"{backend}: {len(diffs)} served answers differ from "
                     f"query --wire, e.g. {diffs[:3]}")
            verdicts = {answer.split()[-1] for answer in served}
            if verdicts != {"accept", "reject"}:
                fail(f"{backend}: the requests should draw both verdicts, "
                     f"got {sorted(verdicts)}")
            print(f"{backend}: {len(images)} saves identical "
                  f"({len(first)} bytes), {len(lines)} is-key answers "
                  f"match query --wire: {sorted(verdicts)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("run_csv determinism test passed")


if __name__ == "__main__":
    main()
