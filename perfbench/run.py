#!/usr/bin/env python3
"""The perfpred serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `perfpred-serve`,
`perfpred-router` and the `perfbench` tool from source (into
$CARGO_TARGET_DIR, default `.bench_build`), starts the daemons at their
default settings (only ports, port files, store directories and cluster
membership are given), drives them with `perfbench gen` (an open-loop
Poisson generator: one process, two sender threads, two keep-alive
connections), checks the answers, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, daemon
CPU per request, peak memory). With --trace 1 they are the per-layer ones:
per-thread CPU and context switches from /proc, /metrics deltas and
sampled gauges taken during the same reference parts; the latency
percentiles and the capacity search, whose run-to-run spread on a shared
host is too wide to gate on; and an in-process traced replay of the
workload's stream (`perfbench trace`) that gives each layer's self time.
Spans of the last traced replay are written to
`.bench_out/spans-<workload>.tsv`.

Every run sets the system up several times (setup_s is the median of
those), warms up, and runs the reference load at the workload's fixed rate
in eight parts separated by idle gaps. Latencies pool every part;
cpu_us_per_req is the median over the parts; attempted and failed count
every request of the warm-up and reference parts. With --trace 1 a binary
search then finds the highest rung of a fixed ladder of offered rates
whose p99 stays within the workload's limit with no failed request and a
generator that keeps up (0 when even the lowest rung misses). Answers are
checked after the reference load and again after the search; a failed
check prints the result with "correct": false and exits 1. A run that cannot produce a result exits 2
without printing one.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

# Per workload: topology, reference rate (req/s), p99 limit (ms) for the
# capacity ladder (read and write p99 alike; only observe-mix writes), and
# the ladder itself (lowest rate, highest rate, rungs, geometric). The
# limits are also stated in BENCHMARK.json.
WORKLOADS = {
    "predict-hot": dict(topology="node", rate=8000.0, limit_ms=20.0, ladder=(20000.0, 250000.0, 15)),
    "predict-solve": dict(topology="node", rate=1250.0, limit_ms=100.0, ladder=(1200.0, 10000.0, 15)),
    "observe-mix": dict(topology="store", rate=3000.0, limit_ms=20.0, ladder=(3500.0, 30000.0, 15)),
    "routed-hot": dict(topology="routed", rate=2000.0, limit_ms=20.0, ladder=(3000.0, 30000.0, 15)),
}

SETUPS = 25  # set-ups per run; setup_s is their median
REF_PHASES = 8  # the reference phase runs in this many parts
REF_GAP_S = 0.75  # idle time between them
LADDER_STEP = 0.03125  # share of --seconds per capacity-ladder try
WARMUP_S = 1.0
PRIME_S = 0.5  # observe-mix: writes only, so the first model exists before reads
SAMPLE_EVERY_S = 0.2


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class Failure(Exception):
    """The run cannot produce a result."""


# ---------------------------------------------------------------- build


def build():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    for manifest in (os.path.join(ROOT, "Cargo.toml"), os.path.join(BENCH, "Cargo.toml")):
        if not os.path.isfile(manifest):
            raise Failure(f"missing {os.path.relpath(manifest, ROOT)}: run from a full checkout")
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "perfpred-serve", "-p", "perfpred-cluster"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name) for name in ("perfpred-serve", "perfpred-router", "perfbench")}


# ------------------------------------------------------------ processes


def http_get(port, path, timeout=2.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Daemon:
    def __init__(self, name, argv, workdir):
        self.name = name
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    @property
    def pid(self):
        return self.proc.pid

    def read_port(self, path, deadline):
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise Failure(f"{self.name} exited early: {self.tail()}")
            try:
                with open(path) as f:
                    text = f.read().strip()
                if text:
                    return int(text)
            except OSError:
                pass
            time.sleep(0.0005)
        raise Failure(f"{self.name} wrote no port file")

    def wait_healthy(self, deadline, path="/healthz"):
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise Failure(f"{self.name} exited early: {self.tail()}")
            try:
                status, body = http_get(self.port, path, timeout=0.5)
                if status == 200:
                    return body
            except OSError:
                pass
            time.sleep(0.0005)
        raise Failure(f"{self.name} never answered {path}")

    def tail(self):
        try:
            with open(self.log_path, "rb") as f:
                return f.read()[-600:].decode(errors="replace")
        except OSError:
            return ""

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def free_ports(n):
    import socket

    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


class System:
    """The daemons of one workload's topology."""

    def __init__(self, bins, topology, workdir):
        self.bins, self.topology, self.workdir = bins, topology, workdir
        self.nodes = []  # serve daemons, primary first
        self.router = None

    def daemons(self):
        return self.nodes + ([self.router] if self.router else [])

    def node_ports(self):
        """Ports for routed nodes: chosen so the router's hash ring gives
        each node at least one of the three server keys."""
        for _ in range(64):
            primary, follower = free_ports(2)
            upstreams = [f"127.0.0.1:{follower}", f"127.0.0.1:{primary}"]
            owners = subprocess.run(
                [self.bins["perfbench"], "ring", *upstreams], capture_output=True, text=True, check=True
            ).stdout.split()
            if len(set(owners)) == 2:
                return primary, follower
        raise Failure("no port pair splits the server keys across both nodes")

    def start(self):
        """Starts every daemon; returns seconds from the first spawn until
        all answer /healthz (and the router sees both upstreams healthy)."""
        serve = self.bins["perfpred-serve"]
        d = self.workdir
        ports = self.node_ports() if self.topology == "routed" else None
        deadline = time.monotonic() + 60
        t0 = time.monotonic()
        if self.topology in ("node", "store"):
            argv = [serve, "--port", "0", "--port-file", os.path.join(d, "port")]
            if self.topology == "store":
                argv += ["--store-dir", os.path.join(d, "store")]
            node = Daemon("serve", argv, d)
            self.nodes.append(node)
            node.port = node.read_port(os.path.join(d, "port"), deadline)
            node.wait_healthy(deadline)
            return time.monotonic() - t0
        primary_port, follower_port = ports
        primary = Daemon(
            "primary",
            [serve, "--port", str(primary_port), "--store-dir", os.path.join(d, "primary"),
             "--cluster-node", "primary", "--repl-port", "0", "--repl-port-file", os.path.join(d, "repl-port")],
            d,
        )
        self.nodes.append(primary)
        repl = primary.read_port(os.path.join(d, "repl-port"), deadline)
        follower = Daemon(
            "follower",
            [serve, "--port", str(follower_port), "--store-dir", os.path.join(d, "follower"),
             "--cluster-node", "follower", "--cluster-role", "follower", "--repl-peers", f"127.0.0.1:{repl}"],
            d,
        )
        self.nodes.append(follower)
        primary.port, follower.port = primary_port, follower_port
        # The router starts once both nodes answer, so its first probe round
        # finds them up instead of waiting out a probe interval.
        primary.wait_healthy(deadline)
        follower.wait_healthy(deadline)
        self.router = Daemon(
            "router",
            [self.bins["perfpred-router"], "--port", "0", "--port-file", os.path.join(d, "router-port"),
             "--upstreams", f"127.0.0.1:{follower_port},127.0.0.1:{primary_port}"],
            d,
        )
        self.router.port = self.router.read_port(os.path.join(d, "router-port"), deadline)
        self.router.wait_healthy(deadline)
        # The primary is probed after the follower in each round, so once it
        # shows as primary both have passed a probe.
        while time.monotonic() < deadline:
            status = json.loads(self.router.wait_healthy(deadline, "/router/status"))
            ups = status["upstreams"]
            if all(u["admitted"] and u["consecutive_failures"] == 0 for u in ups) and any(
                u["primary"] for u in ups
            ):
                return time.monotonic() - t0
            time.sleep(0.0005)
        raise Failure("router never saw both upstreams healthy")

    def stop(self):
        for dm in reversed(self.daemons()):
            dm.stop()


# --------------------------------------------------------------- probes


def read_proc(pid):
    """Per-thread CPU ns and context switches, plus process memory."""
    tasks = {}
    base = f"/proc/{pid}/task"
    for tid in os.listdir(base):
        try:
            with open(f"{base}/{tid}/comm") as f:
                comm = f.read().strip()
            with open(f"{base}/{tid}/schedstat") as f:
                cpu_ns = int(f.read().split()[0])
            ctx = 0
            with open(f"{base}/{tid}/status") as f:
                for line in f:
                    if line.startswith(("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")):
                        ctx += int(line.split()[1])
            tasks[tid] = (comm, cpu_ns, ctx)
        except OSError:
            continue  # the thread exited while we looked
    return tasks


def read_status(pid):
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS", "Threads"):
                out[key] = int(rest.split()[0])
    return out


def proc_delta(before, after, prefix=None):
    """CPU µs and context switches spent between two snapshots by threads
    whose name starts with `prefix` (all threads when None)."""
    cpu = ctx = 0
    for tid, (comm, cpu_ns, switches) in after.items():
        if prefix and not comm.startswith(prefix):
            continue
        _, cpu0, ctx0 = before.get(tid, (comm, 0, 0))
        cpu += cpu_ns - cpu0
        ctx += switches - ctx0
    return cpu / 1e3, ctx


def scrape(port):
    """`/metrics` as {series: value}; labelled series keep their labels."""
    status, body = http_get(port, "/metrics")
    if status != 200:
        raise Failure(f"/metrics answered {status}")
    out = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def version_of(m):
    return next((v for k, v in m.items() if k.startswith("serve_model_version")), 0.0)


class Sampler(threading.Thread):
    """Samples queue-depth gauges and process memory while a phase runs."""

    def __init__(self, system):
        super().__init__(daemon=True)
        self.system = system
        self.stop_flag = threading.Event()
        self.dispatch, self.solver, self.router_threads = [], [], []

    def run(self):
        while not self.stop_flag.wait(SAMPLE_EVERY_S):
            try:
                ms = [scrape(n.port) for n in self.system.nodes]
                self.dispatch.append(sum(m.get("serve_dispatch_queue_depth", 0.0) for m in ms))
                self.solver.append(sum(m.get("serve_solver_queue_depth", 0.0) for m in ms))
                if self.system.router:
                    self.router_threads.append(read_status(self.system.router.pid)["Threads"])
            except (OSError, Failure):
                continue

    def finish(self):
        self.stop_flag.set()
        self.join()


class Probe:
    """Outside-in accounting summed over the reference phases: per-thread
    CPU and context switches from /proc, /metrics deltas on every node, and
    the gauges sampled while each phase ran."""

    def __init__(self, system):
        self.system = system
        self.pids = [d.pid for d in system.daemons()]
        self.intervals = []  # (proc before, proc after, metrics before, metrics after)
        self.dispatch, self.solver, self.router_threads = [], [], []

    def around(self, run_phase):
        m0 = [scrape(n.port) for n in self.system.nodes]
        p0 = {pid: read_proc(pid) for pid in self.pids}
        sampler = Sampler(self.system)
        sampler.start()
        try:
            out = run_phase()
        finally:
            sampler.finish()
        p1 = {pid: read_proc(pid) for pid in self.pids}
        m1 = [scrape(n.port) for n in self.system.nodes]
        self.intervals.append((p0, p1, m0, m1))
        self.dispatch += sampler.dispatch
        self.solver += sampler.solver
        self.router_threads += sampler.router_threads
        return out

    def cpu_ctx(self, pids, prefix=None, phases=None):
        """CPU µs and context switches of `pids`' threads named `prefix*`,
        over the phases numbered in `phases` (all when None)."""
        cpu = ctx = 0
        for i, (p0, p1, _, _) in enumerate(self.intervals):
            if phases is not None and i not in phases:
                continue
            for pid in pids:
                c, x = proc_delta(p0[pid], p1[pid], prefix)
                cpu, ctx = cpu + c, ctx + x
        return cpu, ctx

    def per_node(self, series):
        """Each node's growth of a /metrics series."""
        out = [0.0] * len(self.system.nodes)
        for _, _, m0, m1 in self.intervals:
            for i, (a, b) in enumerate(zip(m0, m1)):
                out[i] += series(b) - series(a)
        return out

    def delta(self, name):
        return sum(self.per_node(lambda m: m.get(name, 0.0)))


# ------------------------------------------------------------ generator


class Gen:
    def __init__(self, bins, workload, seed, addr, nodes):
        argv = [bins["perfbench"], "gen", "--workload", workload, "--seed", str(seed), "--addr", addr]
        if nodes:
            argv += ["--nodes", ",".join(nodes)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Failure(f"generator died during '{command}'")
        return json.loads(line)

    def phase(self, name, rate, secs):
        out = self.ask(f"phase {name} {rate!r} {secs!r}")
        log(f"{name} @ {rate:.0f}/s x {secs}s: sent {out['sent']} failed {out['failed']} {out['failures']} "
            f"p50 {out['p50_ms']:.3f} p99 {out['p99_ms']:.3f} write p99 {out['write_p99_ms']:.3f} "
            f"lag99 {out['lag_p99_ms']:.3f} ms")
        return out

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------- run


def ladder_rates(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


class Capacity:
    """Binary search over the fixed ladder for the highest rate that meets
    the p99 limit with no failure and a generator that keeps up, one rung
    per `step()`. A rung fails only when two tries in a row miss, so a
    burst of host noise does not decide it."""

    def __init__(self, gen, spec, step_s):
        self.gen, self.spec, self.step_s = gen, spec, step_s
        self.rates = ladder_rates(*spec["ladder"])
        self.lo, self.hi = -1, len(self.rates)

    @property
    def done(self):
        return self.hi - self.lo <= 1

    def meets(self, out):
        limit = self.spec["limit_ms"]
        return out["failed"] == 0 and max(out["p99_ms"], out["write_p99_ms"], out["lag_p99_ms"]) <= limit

    def step(self):
        mid = (self.lo + self.hi) // 2
        rate = self.rates[mid]
        ok = self.meets(self.gen.phase(f"ladder-{mid}", rate, self.step_s)) or self.meets(
            self.gen.phase(f"ladder-{mid}-again", rate, self.step_s)
        )
        self.lo, self.hi = (mid, self.hi) if ok else (self.lo, mid)

    @property
    def rate(self):
        if self.lo < 0:
            log(f"even the lowest rung, {self.rates[0]:.0f} req/s, misses the limit")
            return 0.0
        return self.rates[self.lo]


def declared():
    """BENCHMARK.json, checked against this file: each workload's stated p99
    limit must be the one the ladder uses."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        limit = WORKLOADS[w["name"]]["limit_ms"]
        if f"p99 limit {limit:g} ms" not in w["why"]:
            raise Failure(f"BENCHMARK.json states another p99 limit for {w['name']} than {limit:g} ms")
    return bench


def run(args, bins, tmp_root):
    spec = WORKLOADS[args.workload]
    secs = float(args.seconds)
    ref_s = 0.5 * secs

    setups = []
    system = None
    for i in range(SETUPS):
        system = System(bins, spec["topology"], tempfile.mkdtemp(prefix="run-", dir=tmp_root))
        try:
            setups.append(system.start())
        except BaseException:
            system.stop()
            raise
        if i < SETUPS - 1:
            system.stop()
    log("setups (s):", " ".join(f"{s:.4f}" for s in setups))

    gen = None
    try:
        entry = system.router or system.nodes[0]
        nodes = [f"127.0.0.1:{n.port}" for n in system.nodes] if system.router else []
        gen = Gen(bins, args.workload, args.seed, f"127.0.0.1:{entry.port}", nodes)
        pre = []
        totals = {"sent": 0, "failed": 0}

        def counted(out):
            totals["sent"] += out["sent"]
            totals["failed"] += out["failed"]
            return out

        if spec["topology"] == "store":
            counted(gen.phase("prime", spec["rate"] * 0.3, PRIME_S))
            pre.append(("prime", spec["rate"] * 0.3, PRIME_S))
        counted(gen.phase("warmup", spec["rate"], WARMUP_S))
        pre.append(("warmup", spec["rate"], WARMUP_S))

        # The reference phases are spread out by idle gaps so that one burst
        # of host noise does not cover them all (cpu_us_per_req is their
        # median). Idle, not load: work done in a gap would change the state (the
        # store grows with every write) the next phase starts from.
        probe = Probe(system)
        rss0 = sum(read_status(n.pid)["VmRSS"] for n in system.nodes)
        names = [f"ref-{i}" for i in range(REF_PHASES)]
        parts = []
        for i, name in enumerate(names):
            if i:
                time.sleep(REF_GAP_S)
            parts.append(counted(probe.around(lambda name=name: gen.phase(name, spec["rate"], ref_s / REF_PHASES))))
        ref = gen.ask("reference")
        log(f"reference: p50 {ref['p50_ms']:.3f} p99 {ref['p99_ms']:.3f} write p50 {ref['write_p50_ms']:.3f} "
            f"p99 {ref['write_p99_ms']:.3f} lag99 {ref['lag_p99_ms']:.3f} ms")
        rss1 = sum(read_status(n.pid)["VmRSS"] for n in system.nodes)
        hwm = sum(read_status(pid)["VmHWM"] for pid in probe.pids)
        checks = [gen.ask("verify")]
        if args.trace == 1:
            capacity = Capacity(gen, spec, LADDER_STEP * secs)
            while not capacity.done:
                capacity.step()
            checks.append(gen.ask("verify"))
    finally:
        if gen:
            gen.stop()
        system.stop()

    for c in checks:
        if not c["ok"]:
            log("CHECK FAILED:", json.dumps(c))
    correct = all(c["ok"] for c in checks)
    ok = max(ref["ok"], 1)
    cpu_all = probe.cpu_ctx(probe.pids)[0]
    # CPU per request is taken per part and the median kept, so a part the
    # host slowed down does not set the figure.
    cpu_per_req = statistics.median(
        probe.cpu_ctx(probe.pids, phases=[i])[0] / max(part["ok"], 1) for i, part in enumerate(parts)
    )
    result = {"correct": correct, "attempted": max(totals["sent"], 1), "failed": totals["failed"]}

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cpu_us_per_req": (cpu_per_req, "us"),
            "peak_rss_mb": (hwm / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(args, bins, tmp_root, spec, system, ref, ref_s, pre, names, probe,
                                rss1 - rss0, cpu_all / ok)
        metrics.update({
            "p50_ms": (ref["p50_ms"], "ms"),
            "p99_ms": (ref["p99_ms"], "ms"),
            "write_p50_ms": (ref["write_p50_ms"], "ms"),
            "write_p99_ms": (ref["write_p99_ms"], "ms"),
            "capacity_rps": (capacity.rate, "req/s"),
        })
    want = {m["name"]: m["unit"] for m in declared()["per_layer" if args.trace else "end_to_end"]}
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        raise Failure(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def layer_metrics(args, bins, tmp_root, spec, system, ref, ref_s, pre, names, probe, rss_growth_kb, cpu_per_req):
    ok = max(ref["ok"], 1)
    node_pids = [n.pid for n in system.nodes]

    def cpu(prefix):
        return probe.cpu_ctx(node_pids, prefix)[0]

    d = probe.delta

    def ratio(num, den):
        return num / den if den else 0.0

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    serve_ctx = probe.cpu_ctx(node_pids)[1]
    solves = d("lqns_solves")
    hits, misses = d("predcache_hits"), d("predcache_misses")
    observations = d("store_observations_total")
    offloaded = ref["solved"] + ref["writes"]
    shares = probe.per_node(lambda m: m.get("serve_http_requests", 0.0))
    versions = sum(probe.per_node(version_of))
    router_cpu, router_ctx = probe.cpu_ctx([system.router.pid]) if system.router else (0.0, 0)

    trace = replay(args, bins, tmp_root, spec, ref_s / len(names), names, pre)

    return {
        "gen.lag_p99_ms": (ref["lag_p99_ms"], "ms"),
        "serve.shard_cpu_us_per_req": (cpu("serve-shard-") / ok, "us"),
        "serve.ctx_switches_per_req": (serve_ctx / ok, "count/req"),
        "serve.parse_us": (trace["serve.parse_us"], "us"),
        "serve.handle_us": (trace["serve.handle_us"], "us"),
        "serve.encode_us": (trace["serve.encode_us"], "us"),
        "json.decode_us": (trace["json.decode_us"], "us"),
        "cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "cache.peek_us": (trace["cache.peek_us"], "us"),
        "dispatch.cpu_us_per_req": (ratio(cpu("serve-dispatch-"), offloaded), "us"),
        "dispatch.queue_depth_mean": (mean(probe.dispatch), "count"),
        "solver.cpu_us_per_solve": (ratio(cpu("serve-solver-"), solves), "us"),
        "solver.solve_ms_mean": (ratio(d("serve_solve_ms_sum"), d("serve_solve_ms_count")), "ms"),
        "solver.batch_size_mean": (ratio(d("serve_batch_size_sum"), d("serve_batch_size_count")), "count"),
        "solver.queue_depth_mean": (mean(probe.solver), "count"),
        "solver.shed_per_req": (
            (d("serve_deadline_expired_total") + d("serve_degraded_total") + d("serve_solver_overflow")) / ok,
            "count/req",
        ),
        "lqns.amva_iters_per_solve": (ratio(d("lqns_amva_iterations"), solves), "count/solve"),
        "lqns.solve_us": (trace["lqns.solve_us"], "us"),
        "store.refits_per_obs": (ratio(d("store_refits_total"), observations), "count/obs"),
        "store.versions_published": (versions, "count"),
        "store.cpu_us_per_obs": (ratio(cpu("serve-dispatch-"), observations), "us"),
        "store.rss_growth_mb": (rss_growth_kb / 1024.0, "MB"),
        "store.ingest_us_per_obs": (trace["store.ingest_us_per_obs"], "us"),
        "store.fold_us": (trace["store.fold_us"], "us"),
        "store.fit_us": (trace["store.fit_us"], "us"),
        "store.publish_us": (trace["store.publish_us"], "us"),
        "router.cpu_us_per_req": (router_cpu / ok, "us"),
        "router.ctx_switches_per_req": (router_ctx / ok, "count/req"),
        "router.threads_peak": (max(probe.router_threads, default=0), "count"),
        "router.upstream_share_max": (ratio(max(shares), sum(shares)), "ratio"),
        "trace.unattributed_us": (cpu_per_req - trace["self_sum_us_per_req"], "us"),
        "trace.overhead_pct": (trace["overhead_pct"], "%"),
    }


def replay(args, bins, tmp_root, spec, phase_s, names, pre):
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    argv = [
        bins["perfbench"], "trace", "--workload", args.workload, "--seed", str(args.seed),
        "--rate", repr(spec["rate"]), "--seconds", repr(phase_s), "--phases", ",".join(names),
        "--budget", repr(0.4 * args.seconds),
        "--spans", os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.tsv"),
        "--tmp", tempfile.mkdtemp(prefix="trace-", dir=tmp_root),
        "--pre", ",".join(f"{n}:{r!r}:{s!r}" for n, r, s in pre),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise Failure(f"traced replay failed: {done.stderr.strip()}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    log(f"traced replay: {out['requests']} requests, {out['spans']} spans, overhead {out['overhead_pct']:.2f}%")
    return out


def main():
    # A SIGTERM unwinds like an error, so the daemons are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="bench-", dir=tmp_root)
    try:
        declared()
        bins = build()
        result = run(args, bins, tmp_root)
    except Failure as e:
        log("error:", e)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
