#!/usr/bin/env python3
"""The benchmark of bmp. See perfbench/README.md for what each workload
runs, why, and what every metric means.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds bmp and
perfbench/probe with dune, runs the workload for S seconds on inputs drawn
from seed N, checks the outputs, and prints one line per metric followed
by a JSON object on the last line. --trace 0 reports the end-to-end
metrics; --trace 1 repeats the run, replays it in-process inside spans,
and streams over the workload's platform, to report the per-layer metrics.
"""

import argparse
import bisect
import json
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BMP = os.path.join("_build", "default", "bin", "bmp.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "bmpbench.exe")

# Every workload runs on one fixed platform (instance); --seed draws what
# happens on it: the request stream, and the dataplane's chunk picks. The
# cost of a repair differs by up to 10 % between platforms of the same
# size, which would otherwise dominate the run-to-run spread.
PLATFORM_SEED = 1
# tracker-mixed's arrival times are drawn once, too; --seed draws the
# kinds, peers and bandwidths of the requests. How the arrivals chain
# inside the 50 ms admission window sets most of an open-loop request's
# wait, and between schedules of one rate it moved the run's ack
# percentiles by 10 %.
ARRIVAL_SEED = 1
# A request unanswered this long after it was due counts as failed.
ACK_TIMEOUT_S = 60.0

# "setups": spawns of the daemon per run; setup_s is their median.
# tracker-burst: closed loop; per round 16 peers join, then the same 16 leave.
BURST = {"nodes": 10_000, "batch": 32, "crowd": 16, "setups": 9}
# tracker-mixed: open loop of Poisson arrivals at a fixed rate.
MIXED = {"nodes": 1_000, "batch": 16, "setups": 25, "rate": 20.0,
         "mix": [("degrade", 35), ("restore", 35), ("join", 5),
                 ("leave", 5), ("query", 20)]}
# Both trackers admit one open relay of this bandwidth before the timed
# load (see prime()).
RELAY_BANDWIDTH = 1000.0
# Joins on both trackers: bandwidth Unif[1, 100], this share guarded.
GUARDED_SHARE = 0.3
# The traced run also streams this many chunks over the workload's
# platform, as `bmp stream run` does, to time the solver and the dataplane.
STREAM_CHUNKS = 16


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for path in ("dune-project", os.path.join("bin", "bmp.ml"), "lib"):
        if not os.path.exists(path):
            raise BenchError(f"not a checkout of the repository: {path} is missing")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/bmp.exe", "./perfbench/probe/bmpbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise BenchError("dune build failed")


def wait_rss(proc, timeout):
    """Reap [proc]; returns (exit code, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage.ru_maxrss / 1024.0
        time.sleep(0.01)


# ---------- tracker ----------

class Conn:
    """One client connection: sends request lines, collects ack lines
    with the monotonic time each was read."""

    def __init__(self, path, proc, deadline):
        self.sock = None
        while self.sock is None:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                self.sock = s
            except OSError:
                s.close()
                if proc.poll() is not None:
                    raise BenchError("tracker daemon exited before accepting")
                if time.monotonic() > deadline:
                    raise BenchError("tracker daemon did not start listening")
                time.sleep(0.0002)
        self.connected_at = time.monotonic()
        self.buf = b""
        self.eof = False

    def send(self, lines):
        self.sock.sendall(("".join(line + "\n" for line in lines)).encode())

    def poll(self, timeout):
        """Ack lines read within [timeout] seconds, as (time, line)."""
        if self.eof:
            return []
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return []
        chunk = self.sock.recv(1 << 16)
        t = time.monotonic()
        if not chunk:
            self.eof = True
            return []
        self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return [(t, line.decode()) for line in lines if line]

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self.sock.close()


class Daemon:
    def __init__(self, work, instance, batch):
        self.sock_path = os.path.join(work, "t.sock")
        self.state = os.path.join(work, "state.json")
        self.trace = os.path.join(work, "trace.json")
        with open(os.path.join(work, "daemon.log"), "a") as log_file:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                [BMP, "tracker", "serve", instance, "--socket", self.sock_path,
                 "--batch", str(batch), "--journal", os.path.join(work, "journal"),
                 "--trace-out", self.trace, "--state-out", self.state],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log_file)
        try:
            self.conn = Conn(self.sock_path, self.proc, t0 + 120)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = self.conn.connected_at - t0
        self.sent = []        # request lines, seq = index + 1
        self.responses = {}   # seq -> list of response lines
        self.ack_time = {}    # seq -> first ack read time

    def send(self, lines):
        self.sent.extend(lines)
        self.conn.send(lines)

    def collect(self, timeout):
        for t, line in self.conn.poll(timeout):
            seq = json.loads(line)["seq"]
            self.responses.setdefault(seq, []).append(line)
            self.ack_time.setdefault(seq, t)

    def await_acks(self, upto, timeout):
        deadline = time.monotonic() + timeout
        while (any(s not in self.ack_time for s in range(1, upto + 1))
               and not self.conn.eof and time.monotonic() < deadline):
            self.collect(deadline - time.monotonic())

    def control(self, line):
        """Sends one request line and returns its answer line."""
        self.send([line])
        seq = len(self.sent)
        self.await_acks(seq, ACK_TIMEOUT_S)
        if seq not in self.responses:
            raise BenchError(f"no answer to {line}")
        return self.responses[seq][0]

    def stop(self):
        """Shut down gracefully; returns (exit code, peak RSS MB)."""
        try:
            self.control('{"type": "shutdown"}')
        finally:
            self.conn.close()
        return wait_rss(self.proc, 120)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def start_tracker(work, instance, batch, spawns):
    """Spawns the daemon [spawns] times; keeps the last one."""
    setups = []
    for k in range(spawns):
        d = Daemon(work, instance, batch)
        setups.append(d.setup_s)
        if k == spawns - 1:
            return d, setups
        try:
            code, _ = d.stop()
        finally:
            d.kill()
        if code != 0:
            raise BenchError(f"tracker set-up run {k} exited with {code}")


def arrival(rng):
    return rng.uniform(1.0, 100.0), rng.random() < GUARDED_SHARE


def join_line(bandwidth, guarded):
    return json.dumps({"type": "join", "bandwidth": bandwidth, "guarded": guarded})


def pick_line(kind, rng):
    req = {"type": kind, "pick": rng.randrange(1 << 30)}
    if kind in ("degrade", "restore"):
        req["factor"] = 0.7
    return json.dumps(req)


def read_instance(path):
    """Bandwidths in the daemon's node order: the source, then open and
    guarded nodes, each class sorted non-increasing; and the open count."""
    source, classes = None, {"open": [], "guarded": []}
    with open(path) as f:
        for row in f:
            words = row.split("#")[0].split()
            if not words:
                continue
            if words[0] == "source":
                source = float(words[1])
            else:
                classes[words[0]].append(float(words[1]))
    opens = sorted(classes["open"], reverse=True)
    guarded = sorted(classes["guarded"], reverse=True)
    return [source] + opens + guarded, len(opens)


def crowd_picks(bandwidth, n_open, arrivals):
    """Leave picks that remove exactly the [arrivals] (bandwidth, guarded)
    after they all joined. A join lands after every node of its class
    with a bandwidth >= its own, and a pick resolves to node 1 + pick."""
    blocks = {False: sorted(-b for b in bandwidth[1:n_open + 1]),
              True: sorted(-b for b in bandwidth[n_open + 1:])}
    n_open_after = n_open + sum(1 for _, g in arrivals if not g)
    picks = []
    for j, (b, g) in enumerate(arrivals):
        pos = bisect.bisect_right(blocks[g], -b) + sum(
            1 for k, (bk, gk) in enumerate(arrivals)
            if k != j and gk == g and (bk > b or (bk == b and k < j)))
        picks.append(pos + (n_open_after if g else 0))
    return picks


def with_joins(population, arrivals):
    """The daemon's node order after [arrivals] (bandwidth, guarded) join."""
    bandwidth, n_open = population
    opens = bandwidth[1:n_open + 1] + [b for b, g in arrivals if not g]
    guarded = bandwidth[n_open + 1:] + [b for b, g in arrivals if g]
    return ([bandwidth[0]] + sorted(opens, reverse=True)
            + sorted(guarded, reverse=True), len(opens))


def prime(d, population):
    """Admits the relay peer before the timed load; returns the population
    after it.

    The generator pins the source's bandwidth to the instance's cyclic
    bound, so a fresh instance sits exactly where the peers' aggregate
    capacity stops exceeding what the source can send. On that edge the
    solver behind every repair either succeeds on its first probe or
    runs a full bisection, and churn moves the instance across it at
    random: rounds of tracker-burst cost about 7 or 14 req/s by chance.
    One open relay of RELAY_BANDWIDTH puts the peers' capacity clearly
    above the source's, as in live streaming, where the source's upload
    is the bottleneck, so every run pays the same kind of repair."""
    relay = json.loads(d.control(join_line(RELAY_BANDWIDTH, False)))
    if relay.get("status") != "ok":
        raise BenchError("the relay peer was not admitted")
    return with_joins(population, [(RELAY_BANDWIDTH, False)])


def run_burst(d, seed, seconds, population):
    """Closed loop: a crowd of 16 joins arrives, then the same 16 peers
    leave. Each round returns the instance to its starting bandwidths, so
    every round samples the same repair cost; with leaves of random
    peers the instance would drift further across runs."""
    rng = random.Random(seed)
    rounds = []
    latencies = []
    batches = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        arrivals = [arrival(rng) for _ in range(BURST["crowd"])]
        lines = ([join_line(b, g) for b, g in arrivals]
                 + [json.dumps({"type": "leave", "pick": p})
                    for p in crowd_picks(*population, arrivals)])
        first = len(d.sent) + 1
        t0 = time.monotonic()
        d.send(lines)
        d.await_acks(len(d.sent), ACK_TIMEOUT_S)
        seqs = range(first, len(d.sent) + 1)
        acked = [d.ack_time[s] for s in seqs if s in d.ack_time]
        if len(acked) < len(lines):
            break
        batches.append({json.loads(d.responses[s][0]).get("batch") for s in seqs})
        latencies += [(t - t0) * 1e3 for t in acked]
        rounds.append(len(lines) / (max(acked) - t0))
    return {"rounds": rounds, "latencies": latencies, "queries": 0,
            "round_batches": batches}


def run_mixed(d, seed, seconds):
    rng = random.Random(seed)
    schedule = benchlib.poisson_schedule(ARRIVAL_SEED, seed, MIXED["rate"], seconds,
                                         MIXED["mix"])
    lines = [json.dumps({"type": "query"}) if kind == "query"
             else join_line(*arrival(rng)) if kind == "join"
             else pick_line(kind, rng) for _, kind in schedule]
    first = len(d.sent) + 1
    due = {}
    late = []
    base = time.monotonic() + 0.05
    for (offset, _), line in zip(schedule, lines):
        while time.monotonic() < base + offset:
            d.collect(base + offset - time.monotonic())
        now = time.monotonic()
        d.send([line])
        due[len(d.sent)] = base + offset
        late.append((now - base - offset) * 1e3)
    while time.monotonic() < base + seconds:
        d.collect(base + seconds - time.monotonic())
    d.collect(0)
    backlog = sum(1 for s in due if s not in d.ack_time)
    d.await_acks(len(d.sent), ACK_TIMEOUT_S)
    latencies = []
    query_lat = []
    for s, t_due in due.items():
        if s not in d.ack_time:
            continue
        lat = benchlib.due_latency_ms(t_due, d.ack_time[s])
        latencies.append(lat)
        if schedule[s - first][1] == "query":
            query_lat.append(lat)
    acked = [d.ack_time[s] for s in due if s in d.ack_time]
    wall = (max(acked) - due[first]) if acked else 0.0
    return {"latencies": latencies, "query_latencies": query_lat, "late": late,
            "backlog_end": backlog, "acked": len(acked), "wall_s": wall,
            "queries": sum(1 for _, k in schedule if k == "query")}


def tracker_run(workload, seed, seconds, work):
    cfg = BURST if workload == "tracker-burst" else MIXED
    prefix = os.path.join(work, "inst")
    subprocess.run([BMP, "generate", "-n", str(cfg["nodes"]), "--seed", str(PLATFORM_SEED),
                    "-o", prefix], check=True, stdout=subprocess.DEVNULL)
    instance = prefix + "-0001.txt"
    d, setups = start_tracker(work, instance, cfg["batch"], cfg["setups"])
    try:
        population = prime(d, read_instance(instance))
        if workload == "tracker-burst":
            load = run_burst(d, seed, seconds, population)
        else:
            load = run_mixed(d, seed, seconds)
        attempted = len(d.sent)
        final = json.loads(d.control('{"type": "query"}'))
        code, rss = d.stop()
    finally:
        d.kill()
    failures = []
    failed = 0
    for seq in range(1, attempted + 1):
        got = d.responses.get(seq, [])
        if len(got) != 1 or json.loads(got[0]).get("status") != "ok":
            failed += 1
    for seq, got in d.responses.items():
        if len(got) != 1:
            failures.append(f"seq {seq} answered {len(got)} times")
    if set(d.responses) != set(range(1, len(d.sent) + 1)):
        failures.append("responses do not cover every request exactly")
    if code != 0:
        failures.append(f"daemon exited with {code}")
    q = final.get("query", {})
    batches = {json.loads(r[0])["batch"] for r in d.responses.values()
               if "batch" in json.loads(r[0])}
    expect = {"requests": attempted + 1, "errors": 0, "rollbacks": 0,
              "queries": load["queries"] + 1, "batches": len(batches)}
    for key, want in expect.items():
        if q.get(key) != want:
            failures.append(f"final query reports {key}={q.get(key)}, expected {want}")
    if os.path.exists(d.trace) and os.path.exists(d.state):
        with open(d.trace) as f:
            committed = len(json.load(f)["events"])
        if q.get("events") != committed:
            failures.append(f"final query reports {q.get('events')} events, trace has {committed}")
        if workload == "tracker-burst":
            if any(len(b) != 1 for b in load["round_batches"]):
                failures.append("a round was not served as one batch")
            with open(d.state) as f:
                final_bw = json.load(f)["instance"]["bandwidth"]
            if final_bw != population[0]:
                failures.append("the crowd's leaves did not remove the crowd")
    else:
        failures.append("daemon wrote no --trace-out/--state-out")
    return {"load": load, "setups": setups, "rss_mb": rss, "attempted": attempted,
            "failed": failed, "failures": failures, "daemon": d, "instance": instance,
            "batch": cfg["batch"]}


# ---------- traced tracker replay ----------

def read_spans(path):
    spans, names, words = {}, {}, {}
    with open(path) as f:
        for row in f:
            sid, parent, name, start, end, w, _ = row.rstrip("\n").split("\t")
            sid = int(sid)
            spans[sid] = (int(parent), float(start), float(end))
            names[sid] = name
            words[sid] = float(w)
    return spans, names, words


def layer_table(spans, names, words, root_name, structural):
    """Per span name under the [root_name] root: calls, inclusive and
    self ns, minor words; plus the root's wall and the self time of the
    structural (non-layer) spans."""
    selfs = benchlib.self_times(spans)
    roots = {sid for sid, (p, _, _) in spans.items() if p < 0 and names[sid] == root_name}
    if len(roots) != 1:
        raise BenchError(f"expected one {root_name} span")
    root = roots.pop()
    table = {}
    other = 0.0
    for sid, (_, start, end) in spans.items():
        if benchlib.root_of(spans, sid) != root:
            continue
        if names[sid] in structural:
            other += selfs[sid]
            continue
        row = table.setdefault(names[sid], {"calls": 0, "ns": 0.0, "self_ns": 0.0, "words": 0.0})
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += selfs[sid]
        row["words"] += words[sid]
    wall = spans[root][2] - spans[root][1]
    return table, wall, other


def print_layers(table, wall, other):
    print(f"{'layer':28} {'calls':>7} {'self ms':>11} {'share':>7}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"{name:28} {row['calls']:7d} {row['self_ns'] / 1e6:11.3f} "
              f"{row['self_ns'] / wall:7.2%}")
    print(f"{'(other)':28} {'':7} {other / 1e6:11.3f} {other / wall:7.2%}")


def tracker_layers(run, work):
    d = run["daemon"]
    requests = os.path.join(work, "requests.ndjson")
    responses = os.path.join(work, "responses.ndjson")
    with open(requests, "w") as f:
        f.writelines(line + "\n" for line in d.sent)
    with open(responses, "w") as f:
        for seq in sorted(d.responses):
            f.writelines(line + "\n" for line in d.responses[seq])
    spans_path = os.path.join(work, "spans.tsv")
    out = subprocess.run(
        [PROBE, "replay", "--instance", run["instance"], "--requests", requests,
         "--responses", responses, "--trace-in", d.trace, "--state", d.state,
         "--batch", str(run["batch"]), "--work", work, "--spans", spans_path],
        stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("traced replay failed its checks")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    spans, names, words = read_spans(spans_path)
    table, wall, other = layer_table(spans, names, words, "replay",
                                     {"replay", "batch", "control"})
    setup, _, _ = layer_table(spans, names, words, "setup", {"setup"})
    print_layers(table, wall, other)
    metrics = {}

    def mean(name, unit, scale):
        row = table.get(name)
        if not (row and row["calls"]):
            raise BenchError(f"the replay made no {name} call")
        metrics[f"{name}_{unit}"] = (row["ns"] / row["calls"] / scale, unit)

    # Every run of either tracker workload calls these layers, and the
    # result must hold every metric. The other repair ops (leave,
    # leave_batch, degrade, restore, rebuild) and incremental.rebase are
    # missing from some runs; the table above shows them, and
    # repair.op_ms and repair.minor_words average over all of them.
    for name in ("repair.join", "metrics.scheme_report", "scheme.snapshot",
                 "incremental.apply", "audit.check", "journal.append",
                 "journal.checkpoint"):
        mean(name, "ms", 1e6)
    for name in ("policy.decide", "protocol.parse", "protocol.encode"):
        mean(name, "us", 1e3)
    repair = [row for name, row in table.items() if name.startswith("repair.")]
    calls = sum(row["calls"] for row in repair)
    metrics["repair.op_ms"] = (sum(row["ns"] for row in repair) / calls / 1e6, "ms")
    metrics["repair.calls"] = (calls, "count")
    metrics["repair.minor_words"] = (sum(row["words"] for row in repair) / calls, "words")
    metrics["greedy.optimal_acyclic_s"] = (setup["greedy.optimal_acyclic"]["ns"] / 1e9, "s")
    metrics["low_degree.build_s"] = (setup["low_degree.build"]["ns"] / 1e9, "s")
    mutations = sum(1 for r in d.responses.values() if "batch" in json.loads(r[0]))
    metrics["batch.requests"] = (mutations / summary["batches"], "count")
    metrics["batch.events"] = (summary["events"] / summary["batches"], "count")
    metrics["journal.bytes_per_batch"] = (summary["wal_bytes"] / summary["batches"], "bytes")
    metrics["gc.minor_words_per_request"] = (
        summary["session_minor_words"] / summary["requests"], "words")
    metrics["gc.major_collections"] = (summary["session_major_collections"], "count")
    layer_self = sum(row["self_ns"] for row in table.values())
    metrics["trace.other_ms"] = (other / 1e6, "ms")
    metrics["trace.coverage"] = (layer_self / wall, "share")
    metrics["trace.overhead"] = (summary["traced_wall_s"] / summary["untraced_wall_s"], "ratio")
    return metrics


# ---------- stream ----------

def stream_layers(seed, nodes, work):
    """Streams STREAM_CHUNKS chunks over the workload's platform in-process,
    once untraced and once step by step inside spans; the probe checks
    that both stream the same broadcast."""
    spans_path = os.path.join(work, "stream-spans.tsv")
    out = subprocess.run(
        [PROBE, "stream", "--platform-seed", str(PLATFORM_SEED), "--seed", str(seed),
         "--nodes", str(nodes), "--chunks", str(STREAM_CHUNKS), "--work", work,
         "--trace", spans_path],
        stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("the traced stream failed its checks")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    spans, names, words = read_spans(spans_path)
    table, wall, other = layer_table(spans, names, words, "pipeline", {"pipeline"})
    print_layers(table, wall, other)
    if r["traced_events"] <= 0:
        raise BenchError("the traced stream ran no events")
    return {
        "scheme.report_s": (table["scheme.report"]["ns"] / 1e9, "s"),
        "dataplane.run_s": (table["dataplane.run"]["ns"] / 1e9, "s"),
        "dataplane.events": (r["traced_events"], "count"),
        "dataplane.minor_words_per_event": (r["traced_minor_words"] / r["traced_events"], "words"),
        "dataplane.useful_share": (1 - r["traced_duplicates"] / r["traced_transfers"], "share"),
    }


# ---------- main ----------

def timing(name, values, p=None):
    v = benchlib.percentile(values, p) if p else benchlib.median(values)
    label = f"p{p}" if p else "median"
    extra = f", {benchlib.samples_beyond(len(values), p)} beyond" if p else ""
    print(f"{name}: {label} of {len(values)} samples{extra}")
    return v


def run(args, work):
    t = tracker_run(args.workload, args.seed, args.seconds, work)
    load = t["load"]
    mixed = args.workload == "tracker-mixed"
    if args.trace:
        metrics = tracker_layers(t, work)
        nodes = (MIXED if mixed else BURST)["nodes"]
        metrics.update(stream_layers(args.seed, nodes, work))
    else:
        lat = load["latencies"]
        if not lat:
            raise BenchError("no request was acknowledged")
        if mixed:
            rps = load["acked"] / load["wall_s"]
            print(f"req_per_s: {load['acked']} acks over {load['wall_s']:.3f} s "
                  "from the first due time")
        else:
            rps = timing("req_per_s (per round)", load["rounds"])
        metrics = {
            "req_per_s": (rps, "1/s"),
            "ack_p50_ms": (timing("ack_ms", lat), "ms"),
            "ack_p90_ms": (timing("ack_ms", lat, 90), "ms"),
            "setup_s": (timing("setup_s", t["setups"]), "s"),
            "peak_rss_mb": (t["rss_mb"], "MB"),
        }
    if mixed:
        # Printed, not bounded: the queries' tail spreads too much between
        # runs to carry a bound, and the generator's lateness and backlog
        # show whether the open loop kept to its schedule.
        print(f"query_p90_ms: {timing('query_ms', load['query_latencies'], 90):.3f}")
        print(f"loadgen.late_p90_ms: {benchlib.percentile(load['late'], 90):.3f}")
        print(f"loadgen.backlog_end: {load['backlog_end']} requests unanswered "
              "when the schedule ended")
    print(f"failed_share: {t['failed']} of {t['attempted']} requests")
    return metrics, t["attempted"], t["failed"], t["failures"]


WORKLOADS = ("tracker-burst", "tracker-mixed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    # A terminated run still stops the processes it started (finally
    # clauses kill them).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        work = os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}")
        os.makedirs(work)
        try:
            metrics, attempted, failed, failures = run(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"error: {e}")
        return 2
    for f in failures:
        log(f"check failed: {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
