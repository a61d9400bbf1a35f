#!/usr/bin/env python3
"""The locald benchmark: seeded workloads, a byte-exact oracle, per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload repro-gmr --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):
  repro-gmr     `locald run` of fig2-gmr, ablation-fragments and
                fig1-layered-trees at --threads 1, one process each.
  repro-search  `locald run` of table1-matrix and cor1-randomized at
                --threads 2.
  serve-mix     `locald serve --workers 3 --threads 1 --store <fresh>` under
                a closed loop of 3 keep-alive connections over a seeded set
                of /v1/run and streamed /v1/sweep bodies.

The benchmark builds `locald` and the per-layer probe from the tree under
test (Release, tests/benches/examples off) into .bench_build/ and never uses
build/. Every operation must exit 0, carry "ok": true and match the SHA-256
recorded in perfbench/reference.json for its request tuple; every HTTP body
must also equal the `locald run|sweep` document for the same tuple. The last
stdout line is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

`--record` rewrites perfbench/reference.json from the current tree at every
pinned seed; use it only when a change to the documents is intended.
"""
import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# The benchmark seed picks one of these program seeds, so that every run has a
# recorded reference document. 42 is the CLI default; 7 is the held-out seed.
PINNED_SEEDS = [42, 7, 1234, 2013, 1512]

# `warmup` is the workload's shortest scenario, run untimed until
# WARMUP_SECONDS have passed: the first seconds of CPU work after idling run
# measurably slower on a shared VM.
CLI_WORKLOADS = {
    "repro-gmr": {"threads": 1, "warmup": "fig1-layered-trees", "scenarios": [
        "fig2-gmr", "ablation-fragments", "fig1-layered-trees"]},
    "repro-search": {"threads": 2, "warmup": "table1-matrix", "scenarios": [
        "table1-matrix", "cor1-randomized"]},
}
WARMUP_SECONDS = 2.0
WORKLOADS = list(CLI_WORKLOADS) + ["serve-mix"]
# The scenario each CLI workload re-runs at the other thread count in a traced
# run: its document must not change.
THREADS_CROSS_CHECK = {"repro-gmr": ("fig1-layered-trees", 2),
                       "repro-search": ("table1-matrix", 1)}

# The serve mix's registries as of this benchmark; a fixed list, so that the
# request set does not change when the program's registries do.
FAMILIES = ["path", "cycle", "grid", "torus", "hypercube",
            "complete-bipartite", "balanced-tree", "caterpillar",
            "layered-tree", "pyramid", "random-regular", "gnp"]
RANDOMIZED_FAMILIES = {"random-regular", "gnp"}
FAULT_PROFILES = ["none", "delay", "drop", "fragment", "chaos"]
SERVE_WORKERS = 3

CLI_SETUP_REPEATS = 41
SERVE_SETUP_REPEATS = 41

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("op_p50_gm_ms", "ms"), ("op_p99_ms", "ms")]

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move). A layer a workload does not exercise reads 0 there.
PER_LAYER = [
    ("graph.extract.calls", "count", "wall_s on repro-gmr, repro-search"),
    ("graph.extract.ns", "ns", "wall_s/op_p99_ms on repro-gmr; flat on serve-mix"),
    ("graph.extract.nodes", "count", "wall_s on repro-gmr"),
    ("graph.extract_owning.calls", "count", "wall_s on repro-gmr"),
    ("graph.extract_owning.ns", "ns", "wall_s on repro-gmr"),
    ("graph.canon.forms", "count", "wall_s on repro-search; op_p50_gm_ms on serve-mix"),
    ("graph.canon.census_balls", "count", "op_p50_gm_ms on serve-mix"),
    ("graph.canon.census_raw_hits", "count", "op_p50_gm_ms on serve-mix"),
    ("graph.canon.ns", "ns", "wall_s on repro-search; op_p50_gm_ms on serve-mix"),
    ("halting.decode_label.calls", "count", "op_p99_ms on repro-gmr (fig2-gmr)"),
    ("halting.decode_label.ns", "ns", "op_p99_ms on repro-gmr; flat elsewhere"),
    ("halting.build_gmr.ns", "ns", "op_p99_ms on repro-gmr (fig2-gmr)"),
    ("tm.fragments.count", "count", "wall_s on repro-gmr"),
    ("tm.fragments.ns", "ns", "wall_s on repro-gmr (ablation-fragments, fig2-gmr)"),
    ("trees.audit.ns", "ns", "wall_s on repro-gmr (fig1-layered-trees)"),
    ("local.evaluate.calls", "count", "wall_s on repro-gmr, repro-search"),
    ("local.evaluate.ns", "ns", "wall_s on repro-gmr, repro-search"),
    ("local.run.ns", "ns", "wall_s on repro-gmr, repro-search"),
    ("local.run.self_ns", "ns", "wall_s on repro-gmr, repro-search"),
    ("local.estimate.trials", "count", "wall_s on repro-search (cor1-randomized)"),
    ("local.estimate.ns", "ns", "wall_s on repro-search (cor1-randomized)"),
    ("local.events.dispatched", "count", "op_p99_ms on serve-mix"),
    ("local.events.dropped", "count", "op_p99_ms on serve-mix"),
    ("local.events.fragmented", "count", "op_p99_ms on serve-mix"),
    ("oblivious.evaluate.calls", "count", "wall_s on repro-search; flat on repro-gmr"),
    ("oblivious.evaluate.ns", "ns", "wall_s on repro-search (table1-matrix)"),
    ("oblivious.candidates_tried", "count", "wall_s on repro-search"),
    ("oblivious.useful_ratio", "ratio", "wall_s on repro-search"),
    ("exec.cache.hits", "count", "op_p50_gm_ms on serve-mix; wall_s on repro-search"),
    ("exec.cache.misses", "count", "op_p50_gm_ms on serve-mix"),
    ("exec.cache.store_hits", "count", "op_p50_gm_ms on serve-mix"),
    ("exec.cache.hit_rate", "ratio", "op_p50_gm_ms on serve-mix"),
    ("exec.cache.lookup_ns", "ns", "op_p50_gm_ms on serve-mix; wall_s on repro-gmr"),
    ("exec.pool.loops", "count", "wall_s on repro-search"),
    ("exec.pool.inline_loops", "count", "wall_s on repro-search"),
    ("exec.pool.chunks", "count", "wall_s on repro-search"),
    ("exec.pool.steals", "count", "wall_s on repro-search"),
    ("exec.pool.efficiency", "ratio", "wall_s on repro-search"),
    ("exec.store.appended", "count", "setup_s, op_p99_ms on serve-mix"),
    ("exec.store.appended_bytes", "bytes", "setup_s, op_p99_ms on serve-mix"),
    ("exec.store.fsyncs", "count", "op_p99_ms on serve-mix"),
    ("exec.store.records_loaded", "count", "setup_s on serve-mix"),
    ("gen.build_graph.ns", "ns", "op_p50_gm_ms on serve-mix"),
    ("gen.workload.ns", "ns", "op_p50_gm_ms on serve-mix"),
    ("server.handler_ms.p50", "ms", "op_p50_gm_ms on serve-mix"),
    ("server.handler_ms.p99", "ms", "op_p99_ms on serve-mix"),
    ("server.overhead_ms.p50", "ms", "op_p50_gm_ms, wall_s on serve-mix"),
    ("server.overhead_ms.p99", "ms", "op_p99_ms on serve-mix"),
    ("server.api.parse_ns", "ns", "op_p50_gm_ms on serve-mix; flat on CLI workloads"),
    ("server.api.document_ns", "ns", "op_p50_gm_ms on serve-mix"),
    ("server.api.bytes", "bytes", "op_p50_gm_ms on serve-mix"),
    ("server.rejected", "count", "op_p99_ms on serve-mix"),
    ("server.errors", "count", "op_p99_ms on serve-mix"),
    ("server.client.rps", "1/s", "wall_s on serve-mix"),
    ("server.client.samples", "count", "sample count behind op_p50_gm_ms/op_p99_ms"),
    ("server.client.cpu_us_per_req", "us", "client-side share of op_p50_gm_ms"),
    ("scenario.fig2_gmr_s", "s", "wall_s, op_p99_ms on repro-gmr"),
    ("scenario.ablation_fragments_s", "s", "wall_s, op_p50_gm_ms on repro-gmr"),
    ("scenario.fig1_layered_trees_s", "s", "wall_s, op_p50_gm_ms on repro-gmr"),
    ("scenario.table1_matrix_s", "s", "wall_s, op_p50_gm_ms on repro-search"),
    ("scenario.cor1_randomized_s", "s", "wall_s, op_p50_gm_ms on repro-search"),
    ("obs.trace_overhead", "ratio", "no end-to-end metric"),
]


class BenchError(Exception):
    """A failure that makes the run unusable: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def info(msg):
    print("# " + msg, flush=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build(root):
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"{need} not found in {root}: run from the root "
                             "of a locald checkout")
    top = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    top = os.path.join(root, top)
    build_dir = os.path.join(top, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(top, "build.log")
    with open(build_log, "ab") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=False)
        done = subprocess.run(
            ["cmake", "--build", build_dir, "-j", "4",
             "--target", "locald", "layer_probe"],
            stdout=out, stderr=out, check=False)
    if done.returncode != 0:
        raise BenchError(f"build failed; see {build_log}")
    with open(os.path.join(build_dir, "build_info.json")) as f:
        build_info = json.load(f)
    return top, build_info, os.path.join(build_dir, "repo", "locald"), \
        os.path.join(build_dir, "layer_probe")


# --------------------------------------------------------------------------
# Requests, reference digests and the oracle
# --------------------------------------------------------------------------

def run_request(scenario, seed, size=0, trials=0, family="", faults=""):
    return {"kind": "run", "scenario": scenario, "seed": seed, "size": size,
            "trials": trials, "family": family, "fault_profile": faults}


def sweep_request(scenario, seed, sizes, family=""):
    return {"kind": "sweep", "scenario": scenario, "seed": seed,
            "sizes": sizes, "trials": 0, "family": family,
            "fault_profile": ""}


def request_key(req):
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def http_body(req):
    body = {"scenario": req["scenario"], "seed": req["seed"]}
    for field in ("size", "trials", "family", "fault_profile"):
        if req.get(field):
            body[field] = req[field]
    if req["kind"] == "sweep":
        body["sizes"] = req["sizes"]
    return json.dumps(body, separators=(",", ":")).encode()


def cli_args(locald, req, threads=1, trace_out=None):
    if req["kind"] == "sweep":
        args = [locald, "sweep", req["scenario"], "--sizes",
                ",".join(str(s) for s in req["sizes"])]
    else:
        args = [locald, "run", req["scenario"], "--format", "json"]
        if req["size"]:
            args += ["--size", str(req["size"])]
    args += ["--seed", str(req["seed"]), "--threads", str(threads)]
    if req["trials"]:
        args += ["--trials", str(req["trials"])]
    if req["family"]:
        args += ["--family", req["family"]]
    if req["fault_profile"]:
        args += ["--faults", req["fault_profile"]]
    if trace_out:
        args += ["--trace-out", trace_out]
    return args


LIST_KEY = "list"


def cli_requests(workload, seed):
    return [run_request(s, seed) for s in CLI_WORKLOADS[workload]["scenarios"]]


def serve_requests(seed):
    """The serve mix's distinct bodies for one program seed."""
    rng = random.Random(seed)
    reqs = [run_request("promise-halting", seed),
            run_request("promise-cycle", seed),
            run_request("fig3-pyramid", seed)]
    for profile in FAULT_PROFILES:
        for size in (0, 64):
            reqs.append(run_request("fault-robustness", seed, size=size,
                                    faults=profile))
    for family in FAMILIES:
        for size in (0, 64, 256):
            s = rng.randrange(1, 2**31) if family in RANDOMIZED_FAMILIES \
                else seed
            reqs.append(run_request("family-workload", s, size=size,
                                    family=family))
    reqs.append(sweep_request("promise-cycle", seed, [6, 8, 10]))
    reqs.append(sweep_request("family-workload", seed, [16, 32, 64],
                              family=rng.choice(FAMILIES)))
    return reqs


def load_references():
    try:
        with open(REFERENCE) as f:
            return json.load(f)["digests"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read {REFERENCE}: {e}")


def check_document(key, exit_code, data, references):
    """None when the document is correct, else why it is not."""
    if exit_code != 0:
        return f"exit status {exit_code}"
    try:
        doc = json.loads(data)
    except ValueError:
        return "not a JSON document"
    if key != LIST_KEY:
        flag = doc.get("all_ok") if doc.get("tool") == "locald-sweep" \
            else doc.get("ok")
        if flag is not True:
            return '"ok" is not true'
    want = references.get(key)
    if want is None:
        return "no reference digest for this request"
    if sha256(data) != want:
        return "bytes differ from the reference document"
    return None


def self_test_oracle(key, good, references):
    """A tampered copy of a correct document must be rejected."""
    if check_document(key, 0, good, references) is not None:
        raise BenchError("oracle self-test: the untampered document fails")
    tampered = [good.replace(b'"schema_version": 2', b'"schema_version": 3'),
                good + b" ", good[:-2] + bytes([good[-2] ^ 1]) + good[-1:]]
    if b'"ok": true' in good:
        tampered.append(good.replace(b'"ok": true', b'"ok": false'))
    for bad in tampered:
        if bad == good or check_document(key, 0, bad, references) is None:
            raise BenchError("oracle self-test: a tampered document passed")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def run_process(args, out_path):
    """Run to completion; (exit code, stdout bytes, wall s, cpu s, rss MB)."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        data = f.read()
    return (proc.returncode, data, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def cli_setup(locald, run_dir, references, tally, count):
    """Wall times of `count` runs of `locald list --format json`."""
    walls = []
    for i in range(count):
        code, data, wall, _, _ = run_process(
            [locald, "list", "--format", "json"],
            os.path.join(run_dir, "list.json"))
        tally.record(f"list #{i}", check_document(LIST_KEY, code, data,
                                                  references))
        walls.append(wall)
    self_test_oracle(LIST_KEY, data, references)
    return walls


def cli_pass(locald, workload, seed, run_dir, references, tally,
             trace_dir=None):
    """One process per scenario; per-scenario (wall, cpu, rss, bytes)."""
    threads = CLI_WORKLOADS[workload]["threads"]
    results = {}
    for req in cli_requests(workload, seed):
        name = req["scenario"]
        trace = os.path.join(trace_dir, name + ".trace.json") \
            if trace_dir else None
        code, data, wall, cpu, rss = run_process(
            cli_args(locald, req, threads, trace),
            os.path.join(run_dir, name + ".json"))
        tally.record(f"{name} (seed {seed})",
                     check_document(request_key(req), code, data, references))
        results[name] = (wall, cpu, rss, data)
    return results


def trace_span_totals(trace_dir):
    """Total span time per name over the --trace-out files, in seconds."""
    totals = {}
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("layer_probe"):
            continue
        try:
            with open(os.path.join(trace_dir, name)) as f:
                events = json.load(f).get("traceEvents", [])
        except (OSError, ValueError):
            continue
        for ev in events:
            totals[ev.get("name", "?")] = totals.get(ev.get("name", "?"), 0) \
                + ev.get("dur", 0) / 1e6
    return totals


def run_cli_workload(workload, seed, seconds, trace_dir, locald, probe,
                     run_dir, references, tally):
    threads = CLI_WORKLOADS[workload]["threads"]
    # Half of the set-up samples come before the passes and half after, so
    # that their median spans the run and not one stretch of the host's load.
    setups = cli_setup(locald, run_dir, references, tally,
                       CLI_SETUP_REPEATS // 2 + 1)
    warm = run_request(CLI_WORKLOADS[workload]["warmup"], seed)
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_SECONDS:
        code, data, _, _, _ = run_process(cli_args(locald, warm, threads),
                                          os.path.join(run_dir, "warm.json"))
        tally.record(f"warm-up {warm['scenario']}", check_document(
            request_key(warm), code, data, references))
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(cli_pass(locald, workload, seed, run_dir, references,
                               tally))
        elapsed = time.perf_counter() - start
        pass_wall = statistics.median(
            sum(r[0] for r in p.values()) for p in passes)
        if trace_dir or elapsed + pass_wall > seconds:
            break
    walls = [sum(r[0] for r in p.values()) for p in passes]
    cpus = [sum(r[1] for r in p.values()) for p in passes]
    # One latency per scenario: its median process time over the passes.
    ops_ms = [statistics.median(p[name][0] for p in passes) * 1000.0
              for name in passes[0]]
    info(f"{workload}: seed {seed}, {len(passes)} pass(es) of "
         f"{len(ops_ms)} scenario processes at --threads {threads}; pass "
         f"walls {', '.join(f'{w:.3f}' for w in walls)} s; per scenario "
         f"{', '.join(f'{n} {t:.1f}' for n, t in zip(passes[0], ops_ms))} ms")
    if not trace_dir:
        setups += cli_setup(locald, run_dir, references, tally,
                            CLI_SETUP_REPEATS - len(setups))
        return {"setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": max(r[2] for p in passes for r in p.values()),
                "op_p50_gm_ms": geomean(ops_ms),
                "op_p99_ms": percentile(ops_ms, 99)}

    # Traced run: the same pass with --trace-out; bytes must not change.
    untraced = passes[0]
    traced = cli_pass(locald, workload, seed, run_dir, references, tally,
                      trace_dir)
    for name, (_, _, _, data) in traced.items():
        tally.record(f"{name} traced vs untraced bytes",
                     None if data == untraced[name][3] else "bytes differ")
    name, other = THREADS_CROSS_CHECK[workload]
    req = run_request(name, seed)
    code, data, _, _, _ = run_process(cli_args(locald, req, other),
                                      os.path.join(run_dir, "cross.json"))
    tally.record(f"{name} at --threads {other}",
                 check_document(request_key(req), code, data, references))
    for span, secs in sorted(trace_span_totals(trace_dir).items(),
                             key=lambda kv: -kv[1])[:8]:
        info(f"--trace-out span {span}: {secs:.3f} s")
    layers = run_probe(probe, workload, seed, run_dir, trace_dir, tally)
    wall_untraced = sum(r[0] for r in untraced.values())
    wall_traced = sum(r[0] for r in traced.values())
    layers["obs.trace_overhead"] = wall_traced / wall_untraced - 1.0
    layers["exec.pool.efficiency"] = \
        sum(r[1] for r in untraced.values()) / (wall_untraced * threads)
    for name, (wall, _, _, _) in untraced.items():
        layers["scenario." + name.replace("-", "_") + "_s"] = wall
    return layers


def run_probe(probe, workload, seed, run_dir, trace_dir, tally, bodies=None):
    args = [probe, "--workload", workload, "--seed", str(seed),
            "--spans-out", os.path.join(trace_dir, "layer_probe.trace.json")]
    if bodies is not None:
        args += ["--bodies", bodies, "--docs-out", run_dir]
    code, data, wall, _, _ = run_process(args,
                                         os.path.join(run_dir, "probe.json"))
    if code != 0:
        raise BenchError(f"layer_probe exited {code}")
    out = json.loads(data)
    tally.record("probe work counters repeat across two replays",
                 None if out["counters_repeat"] else "counters differ")
    info(f"layer_probe {workload}: {wall:.2f} s")
    for span, ns in sorted(out["self_ns"].items(), key=lambda kv: -kv[1]):
        if ns > 0:
            info(f"self time {span}: {ns / 1e6:.3f} ms")
    return out["metrics"]


# --------------------------------------------------------------------------
# serve-mix
# --------------------------------------------------------------------------

class Connection:
    """A minimal HTTP/1.1 keep-alive client (Content-Length or chunked)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        # The server answered "Connection: close" (it caps the requests one
        # keep-alive connection may carry); the caller must reconnect.
        self.closing = False

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed by the server")
        self.buf += chunk

    def _read_until(self, marker):
        while True:
            at = self.buf.find(marker)
            if at >= 0:
                line, self.buf = self.buf[:at], self.buf[at + len(marker):]
                return line
            self._fill()

    def _read_exact(self, n):
        while len(self.buf) < n:
            self._fill()
        data, self.buf = self.buf[:n], self.buf[n:]
        return data

    def request(self, method, path, body=b"", close=False):
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if close:
            head += "Connection: close\r\n"
        self.sock.sendall(head.encode() + b"\r\n" + body)
        lines = self._read_until(b"\r\n\r\n").decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            parts = []
            while True:
                size = int(self._read_until(b"\r\n").split(b";")[0], 16)
                if size == 0:
                    self._read_until(b"\r\n")
                    break
                parts.append(self._read_exact(size))
                self._read_exact(2)
            data = b"".join(parts)
        else:
            data = self._read_exact(int(headers.get("content-length", "0")))
        self.closing = headers.get("connection", "").lower() == "close"
        return status, data


def one_shot(port, method, path):
    conn = Connection(port)
    try:
        return conn.request(method, path, close=True)
    finally:
        conn.close()


class Server:
    def __init__(self, locald, run_dir, index, extra=()):
        self.log_path = os.path.join(run_dir, f"serve{index}.log")
        self.store = os.path.join(run_dir, f"store{index}")
        start = time.perf_counter()
        # The port comes from the first stdout line, read as soon as it is
        # written; stdout carries only that line and one at shutdown.
        with open(self.log_path, "wb") as log_file:
            self.proc = subprocess.Popen(
                [locald, "serve", "--port", "0", "--workers",
                 str(SERVE_WORKERS), "--threads", "1", "--store", self.store,
                 *extra], stdout=subprocess.PIPE, stderr=log_file)
        self.usage = None
        try:
            self.port = self._wait_port()
            while True:
                try:
                    status, _ = one_shot(self.port, "GET", "/v1/healthz")
                    if status == 200:
                        break
                except (ConnectionError, OSError):
                    pass
                time.sleep(0.0005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_port(self):
        deadline = time.perf_counter() + 30
        fd = self.proc.stdout.fileno()
        line = b""
        while b"\n" not in line:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            line += chunk
        found = re.search(rb"http://127\.0\.0\.1:(\d+)", line)
        if found:
            return int(found.group(1))
        raise BenchError("locald serve did not report its port")

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.usage is not None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        deadline = time.perf_counter() + 10
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.usage = usage


def serve_references(locald, reqs, run_dir, references, tally):
    """The CLI document of every request, checked against its digest."""
    docs = {}
    pending = list(enumerate(reqs))
    while pending:
        batch, pending = pending[:3], pending[3:]
        procs = []
        for i, req in batch:
            out = open(os.path.join(run_dir, f"ref_{i}.json"), "wb")
            procs.append((i, req, out, subprocess.Popen(
                cli_args(locald, req), stdout=out,
                stderr=subprocess.DEVNULL)))
        for i, req, out, proc in procs:
            code = proc.wait()
            out.close()
            with open(out.name, "rb") as f:
                data = f.read()
            key = request_key(req)
            tally.record(f"CLI document {key}",
                         check_document(key, code, data, references))
            docs[key] = data
    return docs


def drive(port, plan, seconds, docs, tally, conns=None):
    """Closed loop over SERVE_WORKERS connections: each sends its next body
    only after the previous reply, and a connection the server closes is
    replaced, so no more than SERVE_WORKERS are ever open. Runs the plan once
    (seconds=None) or cycles it for `seconds`. Returns (latencies s, one
    request log per connection opened, window s, open connections)."""
    conns = conns or [Connection(port) for _ in range(SERVE_WORKERS)]
    lock = threading.Lock()
    state = {"next": 0}
    logs = [[] for _ in conns]
    segments = []
    errors = []
    deadline = None if seconds is None else time.perf_counter() + seconds

    def worker(index):
        conn = conns[index]
        try:
            while True:
                with lock:
                    i = state["next"]
                    if (deadline is None and i >= len(plan)) or \
                            (deadline is not None and
                             time.perf_counter() >= deadline):
                        return
                    state["next"] = i + 1
                key, path, body = plan[i % len(plan)]
                start = time.perf_counter()
                status, data = conn.request("POST", path, body)
                latency = time.perf_counter() - start
                logs[index].append((key, path, status, data, latency))
                if conn.closing:
                    conn.close()
                    conn = conns[index] = Connection(port)
                    with lock:
                        segments.append(logs[index])
                    logs[index] = []
        except Exception as e:  # a broken connection fails the run
            errors.append(f"connection {index}: {e}")

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = time.perf_counter() - start
    for e in errors:
        tally.record(e, "request failed")
    latencies = []
    segments += logs
    for log_ in segments:
        for key, path, status, data, latency in log_:
            problem = None
            if status != 200:
                problem = f"HTTP {status}"
            elif data != docs[key]:
                problem = "body differs from the CLI document"
            tally.record(f"POST {path} {key}", problem)
            latencies.append(latency)
    return latencies, segments, window, conns


def build_plan(reqs, seed):
    plan = [(request_key(r), "/v1/sweep" if r["kind"] == "sweep"
             else "/v1/run", http_body(r)) for r in reqs]
    random.Random(seed + 1).shuffle(plan)
    return plan


def pair_access_log(path, logs):
    """Handler times from --access-log, and per-request client-minus-handler
    overhead. One worker serves a connection from its first request to its
    last, so each worker's log is a run of connection logs end to end; a
    connection log is paired with the stretch of a worker's log whose paths,
    statuses and /v1/run sizes it repeats."""
    per_worker = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("path") in ("/v1/run", "/v1/sweep"):
                per_worker.setdefault(rec["worker"], []).append(rec)
    handler = [r["duration_ms"] for recs in per_worker.values() for r in recs]

    def same(rec, sent):
        return rec["path"] == sent[1] and rec["status"] == sent[2] and (
            sent[1] != "/v1/run" or rec["bytes"] == len(sent[3]))

    overhead = []
    unused = [log_ for log_ in logs if log_]
    for recs in per_worker.values():
        pos = 0
        while pos < len(recs):
            match = next((log_ for log_ in unused if all(
                same(r, c) for r, c in zip(recs[pos:], log_))
                and len(recs) - pos >= len(log_)), None)
            if match is None:
                break
            unused.remove(match)
            overhead += [c[4] * 1000.0 - r["duration_ms"]
                         for r, c in zip(recs[pos:], match)]
            pos += len(match)
    return handler, overhead, not unused


def run_serve_mix(seed, seconds, trace_dir, locald, probe, run_dir,
                  references, tally):
    reqs = serve_requests(seed)
    docs = serve_references(locald, reqs, run_dir, references, tally)
    plan = build_plan(reqs, seed)

    def start_stop(first, count):
        """Set-up times of servers first..first+count-1, each stopped once it
        is up. A stopped server's store is deleted: with forty fresh stores
        left behind, each next start took 2-3x as long."""
        times = []
        for index in range(first, first + count):
            s = Server(locald, run_dir, index)
            s.stop()
            shutil.rmtree(s.store)
            times.append(s.setup_s)
        return times

    # Half of the starts come before the timed window and half after, so
    # that their median spans the run and not one stretch of the host's load.
    setups = start_stop(0, SERVE_SETUP_REPEATS // 2)
    server = Server(locald, run_dir, len(setups))
    setups.append(server.setup_s)
    try:
        # Warm-up: every body once, checked, before anything is timed.
        _, _, _, conns = drive(server.port, plan, None, docs, tally)
        window_s = seconds / 2 if trace_dir else seconds
        cpu0 = server.cpu_seconds()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        latencies, segments, window, _ = drive(server.port, plan, window_s,
                                               docs, tally, conns)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = server.cpu_seconds() - cpu0
        for c in conns:
            c.close()
    finally:
        server.stop()
    if not trace_dir:
        setups += start_stop(len(setups), SERVE_SETUP_REPEATS - len(setups))
    rounds = len(latencies) / len(plan)
    lat_ms = [x * 1000.0 for x in latencies]
    # Each body's median latency, so that every body counts once however its
    # latency compares with the others'. The pooled median of the mix lands
    # among the sub-millisecond bodies, where wake-up delays on a shared
    # host move it by 20 % from run to run; the window time per round moves
    # with how many cores the host lends the three connections.
    per_body = {}
    for log_ in segments:
        for key, _, _, _, latency in log_:
            per_body.setdefault(key, []).append(latency * 1000.0)
    body_p50 = [statistics.median(v) for v in per_body.values()]
    client_cpu = (ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime)
    info(f"serve-mix: seed {seed}, {len(plan)} distinct bodies, "
         f"{len(latencies)} timed requests over {window:.2f} s on "
         f"{SERVE_WORKERS} connections; p99 from {len(latencies)} "
         f"samples ({len(latencies) // 100} beyond p99), per-body p50 from "
         f"{min(map(len, per_body.values()))} or more; client CPU "
         f"{client_cpu / len(latencies) * 1e6:.1f} us/request")
    info(f"{len(setups)} server starts: median "
         f"{statistics.median(setups) * 1000:.2f} ms, range "
         f"{min(setups) * 1000:.2f}-{max(setups) * 1000:.2f} ms")
    if not trace_dir:
        return {"setup_s": statistics.median(setups),
                "wall_s": sum(body_p50) / 1000.0, "cpu_s": cpu / rounds,
                "peak_rss_mb": server.usage.ru_maxrss / 1024.0,
                "op_p50_gm_ms": geomean(body_p50),
                "op_p99_ms": percentile(lat_ms, 99)}

    # Traced run: a second server with --trace-out and --access-log.
    access_log = os.path.join(trace_dir, "access.ndjson")
    traced = Server(locald, run_dir, "traced",
                    ["--trace-out", os.path.join(trace_dir, "serve.trace.json"),
                     "--access-log", access_log])
    try:
        _, warm_logs, _, conns = drive(traced.port, plan, None, docs, tally)
        latencies_t, logs, window_t, _ = drive(traced.port, plan, window_s,
                                               docs, tally, conns)
        for c in conns:
            c.close()
        status, body = one_shot(traced.port, "GET", "/v1/metrics")
        tally.record("GET /v1/metrics", None if status == 200
                     else f"HTTP {status}")
        metrics = json.loads(body)
    finally:
        traced.stop()
    handler, overhead, paired = pair_access_log(access_log, warm_logs + logs)
    bodies = os.path.join(run_dir, "bodies.txt")
    with open(bodies, "w") as f:
        for r in reqs:
            f.write(f"{r['kind']} {http_body(r).decode()}\n")
    layers = run_probe(probe, "serve-mix", seed, run_dir, trace_dir, tally,
                       bodies)
    for i, r in enumerate(reqs):
        with open(os.path.join(run_dir, f"doc_{i}.json"), "rb") as f:
            tally.record(f"run_document {request_key(r)}",
                         None if f.read() == docs[request_key(r)]
                         else "bytes differ from the CLI document")
    if not paired:
        info("access log could not be paired per request; overhead is the "
             "difference of the percentiles")
        client_ms = [x * 1000.0 for x in latencies_t]
        overhead = [statistics.median(client_ms) - statistics.median(handler),
                    percentile(client_ms, 99) - percentile(handler, 99)]
    cache, store = metrics["cache"], metrics["store"]
    layers.update({
        "exec.cache.hits": cache["hits"], "exec.cache.misses": cache["misses"],
        "exec.cache.store_hits": cache["store_hits"],
        "exec.cache.hit_rate": cache["hit_rate"],
        "exec.store.appended": store["appended"],
        "exec.store.appended_bytes": store["appended_bytes"],
        "exec.store.fsyncs": store["fsyncs"],
        "exec.store.records_loaded": store["records_loaded"],
        "server.rejected": metrics["rejected_total"],
        "server.errors": metrics["errors_total"],
        "server.handler_ms.p50": statistics.median(handler),
        "server.handler_ms.p99": percentile(handler, 99),
        "server.overhead_ms.p50": statistics.median(overhead),
        "server.overhead_ms.p99": percentile(overhead, 99),
        "server.client.rps": len(latencies) / window,
        "server.client.samples": len(latencies),
        "server.client.cpu_us_per_req": client_cpu / len(latencies) * 1e6,
        "exec.pool.efficiency": cpu / (window * SERVE_WORKERS),
        "obs.trace_overhead": (window_t / len(latencies_t)) /
                              (window / len(latencies)) - 1.0,
    })
    return layers


# --------------------------------------------------------------------------
# Reference recording
# --------------------------------------------------------------------------

def record(locald, run_dir):
    digests = {}

    def keep(req, threads=1):
        key = request_key(req)
        code, data, _, _, _ = run_process(cli_args(locald, req, threads),
                                          os.path.join(run_dir, "rec.json"))
        if code != 0 or json.loads(data).get(
                "all_ok" if req["kind"] == "sweep" else "ok") is not True:
            raise BenchError(f"cannot record {key}: exit {code} or not ok")
        digests[key] = sha256(data)

    code, data, _, _, _ = run_process([locald, "list", "--format", "json"],
                                      os.path.join(run_dir, "rec.json"))
    digests[LIST_KEY] = sha256(data)
    for seed in PINNED_SEEDS:
        log(f"recording seed {seed}")
        for workload, spec in CLI_WORKLOADS.items():
            for req in cli_requests(workload, seed):
                keep(req, spec["threads"])
        for req in serve_requests(seed):
            keep(req)
    with open(REFERENCE, "w") as f:
        json.dump({"pinned_seeds": PINNED_SEEDS, "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {len(digests)} digests to {REFERENCE}")


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from this tree")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    try:
        top, build_info, locald, probe = build(root)
        run_dir = os.path.join(top, "runs", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            if args.record:
                record(locald, run_dir)
                return 0
            references = load_references()
            seed = PINNED_SEEDS[args.seed % len(PINNED_SEEDS)]
            info(f"build: {build_info['compiler']}, "
                 f"{build_info['build_type']} ({build_info['cxx_flags'].strip()})")
            tally = Tally()
            # A traced run's span files and access log outlive the run.
            trace_dir = None
            if args.trace:
                trace_dir = os.path.join(top, "traces", args.workload)
                shutil.rmtree(trace_dir, ignore_errors=True)
                os.makedirs(trace_dir)
                info(f"spans and access log: {trace_dir}")
            if args.workload == "serve-mix":
                values = run_serve_mix(seed, args.seconds, trace_dir, locald,
                                       probe, run_dir, references, tally)
            else:
                values = run_cli_workload(args.workload, seed, args.seconds,
                                          trace_dir, locald, probe, run_dir,
                                          references, tally)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    for failure in tally.failures:
        info(f"FAILED {failure}")
    info(f"failed_share: {len(tally.failures)}/{tally.attempted}")
    if args.trace:
        for name, _, moves in PER_LAYER:
            info(f"{name} = {values.get(name, 0)}  (moves: {moves})")
        names = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        names = END_TO_END
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                          for name, unit in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
