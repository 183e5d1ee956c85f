#!/usr/bin/env python3
"""End-to-end smoke test for `qikey serve` as a real OS process.

Drives the shipped binary the way an operator would:

  1. start `qikey serve <csv> --listen 127.0.0.1:0` (ephemeral port),
  2. parse "listening on <host>:<port>" from its stdout,
  3. speak QIKEY/1 over a real TCP connection: hello, good requests,
     a malformed request,
  4. check the good responses are BIT-IDENTICAL to
     `qikey query --requests --wire` (the shared-codec guarantee),
     whose bytes must not depend on its --threads caller count,
  5. SIGTERM the server and require a clean exit code 0 (graceful
     drain) — under ASan builds this also proves a leak-free shutdown.

Usage: serve_smoke_test.py <qikey-binary> <csv>
"""

import json
import signal
import socket
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 60

REQUESTS = [
    "is-key first,last",
    "separation city",
    "min-key",
    "afd city,age -> last",
    "anonymity city 2",
]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def wire_expectations(binary, csv):
    """The batch executor's --wire output: one line per request."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("QIKEY/1\n")  # versioned request file
        f.write("\n".join(REQUESTS) + "\n")
        path = f.name
    out = subprocess.run(
        [binary, "query", csv, "--requests", path, "--eps", "0.01",
         "--wire"],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    if out.returncode != 0:
        fail(f"qikey query --wire exited {out.returncode}: {out.stderr}")
    lines = out.stdout.splitlines()
    if len(lines) != len(REQUESTS):
        fail(f"--wire printed {len(lines)} lines for {len(REQUESTS)} "
             f"requests: {lines}")
    return lines


# Every verb, sets repeated across the chunks that --threads callers
# answer, and one request the engine rejects (rhs inside the lhs).
IDENTITY_REQUESTS = [
    "is-key first,last",
    "separation city",
    "min-key",
    "afd city,age -> last",
    "anonymity city 2",
    "afd city -> city",
    "is-key city,age",
    "anonymity city,age",
    "is-key last",
] * 6


def check_threads_identity(binary, csv):
    """`qikey query --wire` prints the same bytes at --threads 4 as at
    --threads 1: callers split the file, never the answers."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("\n".join(IDENTITY_REQUESTS) + "\n")
        path = f.name
    outputs = []
    for threads in ("1", "4"):
        out = subprocess.run(
            [binary, "query", csv, "--requests", path, "--eps", "0.01",
             "--wire", "--threads", threads],
            capture_output=True, timeout=TIMEOUT_S)
        if out.returncode != 0:
            fail(f"qikey query --threads {threads} exited "
                 f"{out.returncode}: {out.stderr}")
        outputs.append(out.stdout)
    if outputs[0] != outputs[1]:
        fail(f"--wire bytes differ between --threads 1 and 4:\n"
             f"{outputs[0]!r}\n{outputs[1]!r}")
    lines = outputs[0].decode().splitlines()
    if len(lines) != len(IDENTITY_REQUESTS):
        fail(f"--wire printed {len(lines)} lines for "
             f"{len(IDENTITY_REQUESTS)} requests")
    if not any(line.startswith("err validation ") for line in lines):
        fail(f"no validation error among the --wire lines: {lines}")


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <qikey-binary> <csv>")
    binary, csv = sys.argv[1], sys.argv[2]

    check_threads_identity(binary, csv)
    expected = wire_expectations(binary, csv)

    server = subprocess.Popen(
        [binary, "serve", csv, "--listen", "127.0.0.1:0", "--eps", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # The second stdout line announces the bound port.
        port = None
        deadline = time.time() + TIMEOUT_S
        while time.time() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            fail(f"server never announced its port: "
                 f"{server.stderr.read() if server.poll() is not None else ''}")

        with socket.create_connection(("127.0.0.1", port),
                                      timeout=TIMEOUT_S) as sock:
            f = sock.makefile("rw", newline="\n")
            greeting = f.readline().strip()
            if greeting != "QIKEY/1 ready":
                fail(f"bad greeting: {greeting!r}")

            f.write("QIKEY/1\n")
            f.flush()
            ack = f.readline().strip()
            if ack != "ok v1":
                fail(f"bad version ack: {ack!r}")

            # Pipelined good requests: bit-identical to --wire.
            f.write("\n".join(REQUESTS) + "\n")
            f.flush()
            for i, want in enumerate(expected):
                got = f.readline().strip()
                if got != want:
                    fail(f"response {i} diverged from --wire:\n"
                         f"  served: {got!r}\n  batch:  {want!r}")

            # A malformed request errs but keeps the connection open.
            f.write("not a verb\nmin-key\n")
            f.flush()
            err = f.readline().strip()
            if not err.startswith("err parse "):
                fail(f"expected err parse, got {err!r}")
            ok = f.readline().strip()
            if not ok.startswith("ok "):
                fail(f"connection died after parse error: {ok!r}")

            # The stats admin verb answers one line of valid JSON
            # covering the server/engine/cache/snapshot families.
            f.write("stats\n")
            f.flush()
            stats = f.readline().strip()
            if not stats.startswith("ok {"):
                fail(f"stats verb did not answer ok <json>: {stats!r}")
            try:
                doc = json.loads(stats[3:])
            except ValueError as exc:
                fail(f"stats payload is not valid JSON: {exc}")
            for section, key in [
                    ("counters", "server.responses_sent"),
                    ("counters", "cache.misses"),
                    ("gauges", "server.connections"),
                    ("gauges", "snapshot.epoch"),
                    ("histograms", "server.request_ns"),
                    ("histograms", "engine.pass.execute_ns")]:
                if key not in doc.get(section, {}):
                    fail(f"stats JSON missing {section}/{key}: {stats}")
            if doc["gauges"]["server.connections"] != 1:
                fail(f"stats server.connections != 1: {stats}")

        # Graceful drain: SIGTERM must exit 0, promptly.
        server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("server did not drain within the timeout after SIGTERM")
        if code != 0:
            fail(f"server exited {code} after SIGTERM: "
                 f"{server.stderr.read()}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    print("serve smoke test passed")


if __name__ == "__main__":
    main()
