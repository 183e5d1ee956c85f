#!/usr/bin/env python3
"""End-to-end benchmark of qikey: discovery, serving and monitoring.

Run from the repository root:

    python3 qbench/run.py --workload discover --seed 1 --seconds 10 --trace 0
    python3 qbench/run.py --workload all --seed 1            # every workload
    python3 qbench/run.py --workload discover --trace 1      # per-layer ledger
    python3 qbench/run.py --compare A.json B.json            # diff two results

Builds the library, the `qikey` CLI and the `qbench` measuring program from source
into `.bench_build/`, generates the workload's inputs from `--seed`,
measures for `--seconds`, checks every output, and prints each metric by
name with its unit. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones. Exits non-zero when a correctness check fails. See
qbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
QBENCH = os.path.join(CMAKE_DIR, "qbench")
QIKEY = os.path.join(CMAKE_DIR, "qikey", "tools", "qikey")
LOGIC_TEST = os.path.join(CMAKE_DIR, "qbench_logic_test")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(BUILD, "results")

EPS = "0.001"
COVTYPE_ROWS = 300000
ADULT_ROWS = 110000  # a 10k-row window plus a 100k-row stream
REQUEST_LINES = 100000

# The serve workload's open loop: the knee its health ladder is laid
# around, the ladder's tail-latency limit, and the fixed reference rate.
# The limit sits above the 1-10 ms p99 that scheduling noise of a shared
# host produces below capacity. The reference rate stays under a fifth
# of the lowest saturation throughput measured with the server on one
# CPU (~165k req/s, on a slow stretch of a shared host), so the
# reference phase does not queue even then.
ISKEY = {"knee": 200000, "limit_us": 20000, "ref_rate": 30000}
# Reference rate of the mixed stream, which only the traced run serves.
MIXED_REF_RATE = 1700
# Client connections (one thread each), at most one per CPU in total.
CONNS = min(4, os.cpu_count() or 1)
# Per-connection admission queue of the server: deep enough that a
# scheduling stall of tens of milliseconds on a shared host does not
# shed requests at the reference rate.
QUEUE_DEPTH = "1024"
# The workloads BENCHMARK.json gates, then the ones a run can also
# measure but that read too unsteadily on a shared host to gate.
WORKLOADS = ["discover", "serve_iskey"]
UNGATED = ["monitor_window"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("qbench: " + msg)
    sys.exit(code)


def load_spec():
    path = os.path.join(REPO, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; returns nothing."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(REPO, "src"))):
        fail("no qikey sources next to the benchmark "
             "(expected CMakeLists.txt and src/ at %s)" % REPO, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as out:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                fail("configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "qbench", "qbench_logic_test", "qikey_cli"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            fail("build failed; see " + log_path)


def run_json(cmd, **kwargs):
    """Runs a qbench command and parses its last stdout line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **kwargs)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Inputs:
    """Seeded inputs, generated once per seed under .bench_build/work."""

    def __init__(self, seed):
        self.seed = seed
        self.dir = os.path.join(WORK, "seed-%d" % seed)
        if os.path.isdir(WORK):
            for name in os.listdir(WORK):  # keep one seed's files only
                if name != os.path.basename(self.dir):
                    shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def _once(self, name, make):
        path = self.path(name)
        if not os.path.exists(path):
            make(path + ".tmp")
            os.replace(path + ".tmp", path)
        return path

    def covtype(self):
        return self._once("covtype.csv", lambda p: run_json(
            [QBENCH, "gen", "covtype", "--rows", str(COVTYPE_ROWS),
             "--seed", str(self.seed), "--out", p]))

    def adult(self):
        return self._once("adult.csv", lambda p: run_json(
            [QBENCH, "gen", "adult", "--rows", str(ADULT_ROWS),
             "--seed", str(self.seed), "--out", p]))

    def requests(self, mode):
        """(sequence, distinct, expected) files for a serve mode. The
        expected answer of each distinct line is `qikey query --wire` on
        the same CSV, seed and backend as the served snapshot."""
        csv = self.covtype()
        lines = self.path(mode + ".lines")
        distinct = self.path(mode + ".distinct")
        if not os.path.exists(distinct):
            run_json([QBENCH, "requests", "--csv", csv, "--mode", mode,
                      "--count", str(REQUEST_LINES), "--seed",
                      str(self.seed), "--out", lines, "--distinct-out",
                      distinct + ".tmp"])
            os.replace(distinct + ".tmp", distinct)

        def expect(p):
            with open(p, "w") as out:
                subprocess.run(
                    [QIKEY, "query", csv, "--requests", distinct, "--wire",
                     "--backend", "bitset", "--eps", EPS,
                     "--seed", str(self.seed)], stdout=out, check=True)
        return lines, distinct, self._once(mode + ".expected", expect)


def cpu_split():
    """Disjoint (server, client) CPU sets when there are >= 4 CPUs: a
    quarter of them for the server, the rest for the load generator, so
    the server saturates well before the generator does."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    quarter = len(cpus) // 2
    return set(cpus[:quarter]), set(cpus[quarter:])


class Server:
    """`qikey serve --snapshot-file` as a child process."""

    def __init__(self, snapshot, cpus, stderr_path):
        self.err = open(stderr_path, "a")
        preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
        self.proc = subprocess.Popen(
            [QIKEY, "serve", "--snapshot-file", snapshot,
             "--listen", "127.0.0.1:0", "--queue-depth", QUEUE_DEPTH],
            stdout=subprocess.PIPE, stderr=self.err, bufsize=0,
            preexec_fn=preexec)
        self.port = None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + 60
        pending = b""
        while self.port is None:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            if not ready:
                self.stop()
                fail("server did not announce its port")
            chunk = os.read(fd, 4096)
            if not chunk:
                self.stop()
                fail("server exited during start-up")
            pending += chunk
            for line in pending.split(b"\n")[:-1]:
                if line.startswith(b"listening on "):
                    self.port = int(line.rsplit(b":", 1)[1])
            pending = pending[pending.rfind(b"\n") + 1:]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return -1.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def start_served_snapshot(inputs, server_cpus, repeats):
    """Set-up of a serve workload, `repeats` times: `snapshot save`, then
    `serve` until it announces its port. Returns (server, set-up
    seconds of each repeat); only the last server is kept running."""
    csv = inputs.covtype()
    snapshot = inputs.path("covtype.qsnp")
    setups, server = [], None
    for _ in range(repeats):
        if server is not None:
            server.stop()
        t0 = time.perf_counter()
        subprocess.run([QIKEY, "snapshot", "save", csv, "--backend",
                        "bitset", "--eps", EPS, "--seed", str(inputs.seed),
                        "--out", snapshot], stdout=subprocess.DEVNULL,
                       check=True)
        server = Server(snapshot, server_cpus, inputs.path("serve.stderr"))
        setups.append(time.perf_counter() - t0)
    return server, setups


def pinned(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def run_serve(inputs, seconds):
    lines, distinct, expected = inputs.requests("iskey")
    server_cpus, client_cpus = cpu_split()
    server, setups = start_served_snapshot(inputs, server_cpus, 3)
    try:
        out = run_json(
            [QBENCH, "load", "--port", str(server.port), "--server-pid",
             str(server.proc.pid), "--lines", lines, "--distinct", distinct,
             "--expected", expected, "--knee", str(ISKEY["knee"]),
             "--limit-us", str(ISKEY["limit_us"]), "--ref-rate",
             str(ISKEY["ref_rate"]), "--seconds", str(seconds),
             "--conns", str(CONNS)], preexec_fn=pinned(client_cpus))
        out["metrics"]["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    out["metrics"]["setup_s"] = statistics.median(setups)
    out["info"]["pinning"] = ("server %s, client %s" % (
        sorted(server_cpus), sorted(client_cpus)) if server_cpus
        else "none (fewer than 4 CPUs)")
    return out


def run_workload(workload, seed, seconds):
    inputs = Inputs(seed)
    threads = str(os.cpu_count() or 1)
    if workload == "discover":
        return run_json([QBENCH, "discover", "--csv", inputs.covtype(),
                         "--seconds", str(seconds), "--threads", threads,
                         "--seed", str(seed)])
    if workload == "monitor_window":
        return run_json([QBENCH, "monitor", "--csv", inputs.adult(),
                         "--seconds", str(seconds), "--seed", str(seed)])
    return run_serve(inputs, seconds)


def run_trace(workload, seed):
    """The per-layer ledger: one traced pass over every layer."""
    inputs = Inputs(seed)
    iskey = inputs.requests("iskey")
    mixed = inputs.requests("mixed")
    server_cpus, client_cpus = cpu_split()
    server, _ = start_served_snapshot(inputs, server_cpus, 1)
    spans = os.path.join(RESULTS, "spans-%s-seed%d.json" % (workload, seed))
    os.makedirs(RESULTS, exist_ok=True)
    try:
        out = run_json(
            [QBENCH, "trace", "--csv", inputs.covtype(), "--adult",
             inputs.adult(), "--snapshot", inputs.path("covtype.qsnp"),
             "--port", str(server.port), "--server-pid",
             str(server.proc.pid), "--iskey-lines", iskey[0],
             "--iskey-distinct", iskey[1], "--iskey-expected", iskey[2],
             "--mixed-lines", mixed[0], "--mixed-distinct", mixed[1],
             "--mixed-expected", mixed[2], "--ref-rate",
             str(ISKEY["ref_rate"]), "--mixed-ref-rate",
             str(MIXED_REF_RATE), "--conns", str(CONNS), "--threads",
             str(os.cpu_count() or 1), "--seed", str(seed),
             "--spans-out", spans], preexec_fn=pinned(client_cpus))
    finally:
        server.stop()
    out["info"] = {"spans": os.path.relpath(spans, REPO)}
    return out


def environment():
    env = run_json([QBENCH, "env"])
    sha = "unknown"
    if os.path.isdir(os.path.join(REPO, ".git")):
        proc = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        sha = proc.stdout.strip() or "unknown"
    env["git_sha"] = sha
    host = "%s|%s|%s" % (env["nproc"], env["cpu_model"], env["isa"])
    env["host_class"] = hashlib.sha1(host.encode()).hexdigest()[:12]
    return env


def measure(workload, seed, seconds, trace, spec, env):
    """Runs one workload; prints its human-readable lines and returns
    the result object (with the contract's metric set)."""
    kind = "per_layer" if trace else "end_to_end"
    raw = run_trace(workload, seed) if trace else run_workload(
        workload, seed, seconds)
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in raw["metrics"]:
            fail("%s did not report %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print("workload %s (seed %d, %s):" % (
        workload, seed, "traced ledger" if trace else "%ds" % seconds))
    for key, value in sorted(raw.get("info", {}).items()):
        if isinstance(value, (int, float, str)):
            print("  %-28s %s" % (key, value))
    for name, m in metrics.items():
        print("  %-34s %16.4f %s" % (name, m["value"], m["unit"]))
    print("  failed: %d of %d attempted (failed_frac %.6f)" % (
        result["failed"], result["attempted"],
        result["failed"] / max(1, result["attempted"])))
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  env=env, info=raw.get("info", {}))
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
        workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return result


def compare(a_path, b_path):
    """Per-metric change from A to B; refuses to diff across hosts."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["env"]["host_class"] != b["env"]["host_class"]:
        print("incomparable: host class %s (%s) vs %s (%s)" % (
            a["env"]["host_class"], a["env"]["cpu_model"],
            b["env"]["host_class"], b["env"]["cpu_model"]))
        return 0
    for name, m in a["metrics"].items():
        if name in b["metrics"] and m["value"]:
            change = b["metrics"][name]["value"] / m["value"] - 1
            print("  %-34s %14.4f -> %14.4f %s (%+.1f%%)" % (
                name, m["value"], b["metrics"][name]["value"], m["unit"],
                100 * change))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNGATED + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")

    spec = load_spec()
    build()
    if subprocess.call([LOGIC_TEST], stdout=subprocess.DEVNULL) != 0:
        fail("the benchmark's own logic checks failed")
    env = environment()
    print("host: nproc=%s cpu=%s isa=%s kernel=%s build=%s sha=%s "
          "class=%s" % (env["nproc"], env["cpu_model"], env["isa"],
                        env["evidence_kernel"], env["build_type"],
                        env["git_sha"][:12], env["host_class"]))

    names = WORKLOADS + UNGATED if args.workload == "all" else [args.workload]
    results = [measure(w, args.seed, args.seconds, args.trace, spec, env)
               for w in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s.%s" % (w, k): v for w, r in
                             zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
